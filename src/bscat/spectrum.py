"""Energy-resolved inelastic decay spectrum gamma(omega'|omega).

The spectrum is expanded in labeled diagrams: each diagram assigns excitation
content to the four operator vertices of the 3-point response function, with
one form factor per vertex, reflection factors on the boundary-scattered
lines (conjugated on the incoming side, plain on the outgoing side), and the
energies of the internal lines fixed by sharp conservation at every vertex.
Absorbed lines enter their form factors at the crossed rapidity lambda + i pi,
evaluated exactly on the line Im = pi: the form factors are regular there, so
no regulator is needed.  Frequencies in units of T_B = 1.

Each diagram is one integral over the internal energy E in (0, omega -
omega'), whose integrand behaves like sqrt(E) and sqrt(omega - omega' - E) at
the ends.  It is integrated in t in (0, 1) with the smoothstep map
E = (omega - omega') t^2 (3 - 2t) (a sigmoidal substitution: Sidi, "A new
variable transformation for numerical integration", 1993), whose jacobian
vanishes at both ends and leaves the integrand smooth there, so adaptive
Gauss-Kronrod needs no bisection toward the endpoints.  The map is symmetric
about t = 1/2, so a diagram whose integrand is invariant under E -> omega -
omega' - E (G1_1, G1_3, G3A, G4A: their lines exchange in identical pairs)
is integrated on t in (0, 1/2) only and doubled.

The t-nodes do not depend on omega', so a diagram at many omega' is one
family integral (`quadrature.adaptive_1d`) on shared nodes: the integrand
is evaluated once per call of the rule, on an (n, m) array of (t, omega')
points (n = 15 for the first panel, 30 for both halves of a split), every
reflection factor and form factor elementwise, and the bisection goes on
until every omega' meets the tolerance.  `spectrum_curve` makes one
family per active diagram over its whole grid, `sum_rule_check` one per
diagram for each call of its omega' rule (15 or 30 omega'), and
`spectrum_point` at a single omega' a family of one.  Each member pays for
the nodes of the one that needs most (see `quadrature`), and gains a call
shared with all.  Where a diagram reads one kernel several times, the
arguments are stacked into one call (`_stacked`): G1_1 and G1_3 make one
f_pm call for their two crossed form factors, one for the two uncrossed
and one bracket call for both brackets, G1_3 one s0 call for its four S0,
G2_1 and G5A one f_pm call for their two, and G3A one f_pm1 call for its
two; the kernels are elementwise, so stacking changes no value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import DomainError, offending
from .formfactors import f_111, f_breather1, f_pm, f_pm1
from .model import ModelSpec, check_omega, line_shifts
from .quadrature import adaptive_1d, evaluate_masked
from .reflection import r_breather, soliton_pair_bracket, soliton_split_bracket
from .smatrix import s0
from .twopoint import ReflectionBreakdown, reflection_coefficient

_MEASURE = (2.0 * math.pi) ** 4

# crossing shift of an absorbed line's rapidity
_CROSS = 1j * math.pi

# absolute tolerance scale of the 1D omega-integrals inside each diagram
_TOL_DIAGRAM = 1e-10

# the acceptance band of a complete spectrum's sum-rule ratio
SUM_RULE_BAND = (0.85, 1.15)


class SpectrumDiagram(Enum):
    """Labeled diagrams of the spectrum expansion."""

    G1_1 = "g1_1"  # soliton pair at every vertex; the only diagram computed at z >= 1/2
    G1_3 = "g1_3"  # delta-reduced 6-excitation variant (integer p)
    G2_1 = "g2_1"  # breather-1 emission + soliton pair (integer p)
    G3A = "g3a"  # pair + breather-1 in, breather-1 out (integer p)
    G4A = "g4a"  # three breather-1 in, breather-1 out
    G5A = "g5a"  # pair + breather-1 with a direct soliton line (integer p)


# one row per diagram, in the CSV column order: (coeff, lines, mirror,
# integer_p) as _diagram reads them; a diagram is coeff / (omega' omega)
# times its integral over E
_DIAGRAMS = {
    SpectrumDiagram.G1_1: (2.0, (0, 0, 0, 0), True, False),
    SpectrumDiagram.G2_1: (-4.0, (1, 0, 0, 0), False, True),
    SpectrumDiagram.G1_3: (0.5, (0, 0, 0, 0), True, True),
    SpectrumDiagram.G3A: (-8.0, (1, 0, 0, 1), True, True),
    SpectrumDiagram.G4A: (-2.0, (1, 1, 1, 1), True, False),
    SpectrumDiagram.G5A: (8.0, (1, 0, 0, 0), False, True),
}


@dataclass(frozen=True)
class SpectrumCurve:
    """gamma(omega'|omega) on a grid of omega', with per-diagram breakdown."""

    omega: float
    omega_primes: Tuple[float, ...]
    values: Tuple[float, ...]
    per_diagram: Dict[SpectrumDiagram, Tuple[float, ...]]
    sum_rule_ratio: float
    gamma_disc: float  # coefficient of the elastic delta(omega'-omega) term

    @property
    def complete(self) -> bool:
        """True when the diagrams carry the whole inelastic loss, i.e. the
        sum-rule ratio lies in SUM_RULE_BAND (False for a NaN ratio)."""
        lo, hi = SUM_RULE_BAND
        return lo <= self.sum_rule_ratio <= hi


def _diagram(
    omega_p,
    omega: float,
    spec: ModelSpec,
    energies: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, ...]],
    reflection: Callable[..., np.ndarray],
    formfactors: Callable[..., np.ndarray],
    diagram: SpectrumDiagram,
    tol: Optional[float] = None,
):
    """coeff / (omega' omega) times the integral over the internal energy E
    in (0, omega - omega') of

        Re(reflection - 1) Re(formfactors) / ((2 pi)^4 e1 e2 e3 e4),

    at one omega' (a NumPy scalar) or, as one family integral, at each
    omega' of an array (an array).

    `energies(E, omega')` gives the four line energies e1..e4; `lines`, from
    the diagram's row, the breather whose mass ratio shifts each line's
    rapidity (0 for a soliton line), decoded by `model.line_shifts`: line k
    enters `reflection(l1..l4)` and `formfactors(l1..l4)` as log(e_k) -
    log(m_b/m_s).  All three take arrays and work elementwise.  A breather
    line raises DomainError at z >= 1/2, `integer_p` at non-integer p.

    The integral is one adaptive GK15 call over t in (0, 1), with
    E = w t^2 (3 - 2t) and dE = 6 w t (1 - t) dt, w = omega - omega': a
    sqrt(E) or sqrt(w - E) endpoint becomes a smooth t^2 or (1 - t)^2.  The
    t-nodes are shared by every omega' of an array: adaptive_1d integrates
    them as one family, each member to the absolute tolerance `tol`, which
    applies to the E-integral itself, which the map leaves unchanged, so
    the diagram is held to |coeff| tol/(omega' omega).  By default it is
    _TOL_DIAGRAM max(1, omega), the tolerance of a printed spectrum row;
    sum_rule_check gives each diagram a share of its own.

    A diagram declares `mirror` when its integrand is symmetric under
    E -> w - E, which exchanges its lines in identical pairs; the map is
    symmetric too, E(1 - t) = w - E(t), so only t in (0, 1/2) is
    integrated, to half the tolerance, and doubled.  Tests check each
    declared symmetry.

    Re(reflection - 1) is formed as -|reflection - 1|^2 / 2 for the Kondo
    model, whose reflection factors all have unit modulus at real rapidity:
    the two are equal there, and the second does not lose to cancellation
    where the product is close to 1.  The boundary sine-Gordon brackets are
    not unimodular and keep the direct form.  The form factors are not
    evaluated where that part is exactly 0, nor the integrand where E rounds
    onto an end of (0, w).
    """
    check_omega(omega)
    wp = np.asarray(omega_p, dtype=float)
    outside = ~((0.0 < wp) & (wp < omega))
    if outside.any():
        raise DomainError(
            f"need 0 < omega_p < omega, got omega_p={offending(wp, outside)}, omega={omega}"
        )
    coeff, lines, mirror, integer_p = _DIAGRAMS[diagram]
    if integer_p and spec.p_int is None:
        raise DomainError(f"diagram {diagram.value} requires integer p = 1/z")
    shifts = line_shifts(lines, spec)
    width = omega - wp
    unimodular = spec.is_kondo

    def integrand(big: np.ndarray, wp: np.ndarray) -> np.ndarray:
        es = np.broadcast_arrays(*energies(big, wp))
        ls = [np.log(e) - shift for e, shift in zip(es, shifts)]
        delta = reflection(*ls) - 1.0
        rpart = -0.5 * np.abs(delta) ** 2 if unimodular else delta.real
        fval = evaluate_masked(rpart != 0.0, formfactors, *ls).real
        return rpart * fval / (_MEASURE * (es[0] * es[1] * es[2] * es[3]))

    def mapped(t: np.ndarray) -> np.ndarray:
        if width.ndim:
            t = t[:, None]  # rows: the nodes; columns: the members
        big = width * t * t * (3.0 - 2.0 * t)
        inside = (big > 0.0) & (big < width)
        values = evaluate_masked(inside, integrand, big, np.broadcast_to(wp, big.shape))
        return values.real * (6.0 * width * t * (1.0 - t))

    if tol is None:
        tol = _TOL_DIAGRAM * max(1.0, omega)
    if mirror:
        val = 2.0 * adaptive_1d(mapped, 0.0, 0.5, tol=tol / 2.0).value.real
    else:
        val = adaptive_1d(mapped, 0.0, 1.0, tol=tol).value.real
    return coeff / (wp * omega) * val


def _stacked(*lams) -> np.ndarray:
    """The rapidity arrays `lams`, broadcast to one shape and stacked on a
    new first axis: one elementwise call on the stack stands for a call on
    each."""
    return np.stack(np.broadcast_arrays(*lams))


def _two_pair_reflection(spec: ModelSpec) -> Callable[..., complex]:
    """conj(R(l1, l2)) R(l3, l4) for two soliton-pair brackets, both from
    one bracket call: the reflection factor of G1_1 and G1_3."""

    def reflection(l1, l2, l3, l4):
        first, second = soliton_pair_bracket(_stacked(l1, l3), _stacked(l2, l4), spec)
        return first.conjugate() * second

    return reflection


def diagram_g1_1(
    omega_p, omega: float, spec: ModelSpec, tol: Optional[float] = None
):
    """Soliton-pair diagram: the only diagram computed at z >= 1/2."""

    def energies(big, wp):
        return (omega - big, big, omega - wp - big, wp + big)

    def formfactors(l1, l2, l3, l4):
        # the two crossed f_pm in one call, the two uncrossed in another
        crossed = f_pm(_stacked(l3, l4), _stacked(l1, l2) + _CROSS, spec)
        direct = f_pm(_stacked(l1, l4), _stacked(l2, l3), spec)
        return crossed[0] * crossed[1] * direct[0] * direct[1]

    return _diagram(
        omega_p, omega, spec, energies, _two_pair_reflection(spec), formfactors,
        SpectrumDiagram.G1_1, tol,
    )


def diagram_g2_1(
    omega_p, omega: float, spec: ModelSpec, tol: Optional[float] = None
):
    """Breather-1 emission interfering with a soliton pair (integer p)."""

    def energies(big, wp):
        return (omega, omega - wp - big, big, omega - big)

    def reflection(l1, l2, l3, l4):
        return r_breather(l1, 1, spec).conjugate() * soliton_pair_bracket(l3, l4, spec)

    def formfactors(l1, l2, l3, l4):
        pairs = f_pm(_stacked(l4, l4), _stacked(l2 + _CROSS, l3), spec)
        return f_breather1(1, l1, spec) * f_pm1(l3, l2, l1 + _CROSS, spec) * pairs[0] * pairs[1]

    return _diagram(
        omega_p, omega, spec, energies, reflection, formfactors,
        SpectrumDiagram.G2_1, tol,
    )


def diagram_g1_3(
    omega_p, omega: float, spec: ModelSpec, tol: Optional[float] = None
):
    """Delta-reduced six-soliton diagram (integer p only)."""

    def energies(big, wp):
        return (big, omega - big, wp + big, omega - wp - big)

    def formfactors(l1, l2, l3, l4):
        s = s0(_stacked(l4 - l1, l2 - l1, l1 - l4, l3 - l4), spec)
        sfac = (s[0] - s[1]) * (s[2] - s[3])
        crossed = f_pm(_stacked(l1, l4), _stacked(l3, l2) + _CROSS, spec)
        direct = f_pm(_stacked(l2, l3), _stacked(l1, l4), spec)
        return crossed[0] * crossed[1] * direct[0] * direct[1] * sfac

    return _diagram(
        omega_p, omega, spec, energies, _two_pair_reflection(spec), formfactors,
        SpectrumDiagram.G1_3, tol,
    )


def diagram_g3a(
    omega_p, omega: float, spec: ModelSpec, tol: Optional[float] = None
):
    """Soliton pair + breather-1 absorbed, breather-1 emitted (integer p)."""

    def energies(big, wp):
        return (wp, big, omega - wp - big, omega)

    def reflection(lg, l1, l2, lp):
        return (
            r_breather(lg, 1, spec).conjugate()
            * soliton_pair_bracket(l1, l2, spec, sign=+1).conjugate()
            * r_breather(lp, 1, spec)
        )

    def formfactors(lg, l1, l2, lp):
        # the absorbed and the emitted pair's f_pm1 in one call
        pm1 = f_pm1(
            _stacked(l1, l2 + _CROSS), _stacked(l2, l1 + _CROSS), _stacked(lg, lp), spec
        )
        return pm1[0] * f_breather1(1, lg + _CROSS, spec) * pm1[1] * f_breather1(1, lp, spec)

    return _diagram(
        omega_p, omega, spec, energies, reflection, formfactors,
        SpectrumDiagram.G3A, tol,
    )


def diagram_g4a(
    omega_p, omega: float, spec: ModelSpec, tol: Optional[float] = None
):
    """Three breather-1 absorbed, breather-1 emitted; symmetry factor 1/2."""

    def energies(big, wp):
        return (wp, big, omega - wp - big, omega)

    def reflection(lg, l1, l2, lp):
        return (
            r_breather(lg, 1, spec).conjugate()
            * (r_breather(l1, 1, spec) * r_breather(l2, 1, spec)).conjugate()
            * r_breather(lp, 1, spec)
        )

    def formfactors(lg, l1, l2, lp):
        return (
            f_111(l1, l2, lg, spec)
            * f_breather1(1, lg + _CROSS, spec)
            * f_111(l2 + _CROSS, l1 + _CROSS, lp, spec)
            * f_breather1(1, lp, spec)
        )

    return _diagram(
        omega_p, omega, spec, energies, reflection, formfactors,
        SpectrumDiagram.G4A, tol,
    )


def diagram_g5a(
    omega_p, omega: float, spec: ModelSpec, tol: Optional[float] = None
):
    """Pair + breather-1 with one soliton line passing the photon vertices.

    The direct line reflects once; its conjugated and plain reflection factors
    pair up across the two photon-vertex brackets, leaving the split-pair
    bracket (`soliton_split_bracket`) of the remaining two soliton lines
    (boundary unitarity removes the direct line's own factors).
    """

    def energies(big, wp):
        return (wp, big, omega - wp - big, wp + big)

    def reflection(lg, l_blue, l_red, l_purple):
        return (
            r_breather(lg, 1, spec).conjugate()
            * soliton_split_bracket(l_blue, l_purple, spec)
        )

    def formfactors(lg, l_blue, l_red, l_purple):
        pairs = f_pm(_stacked(l_purple, l_purple), _stacked(l_blue + _CROSS, l_red), spec)
        return (
            f_pm1(l_red, l_blue, lg, spec) * f_breather1(1, lg + _CROSS, spec) * pairs[0] * pairs[1]
        )

    return _diagram(
        omega_p, omega, spec, energies, reflection, formfactors,
        SpectrumDiagram.G5A, tol,
    )


_DIAGRAM_FUNCS: Dict[SpectrumDiagram, Callable[..., Any]] = {
    SpectrumDiagram.G1_1: diagram_g1_1,
    SpectrumDiagram.G2_1: diagram_g2_1,
    SpectrumDiagram.G1_3: diagram_g1_3,
    SpectrumDiagram.G3A: diagram_g3a,
    SpectrumDiagram.G4A: diagram_g4a,
    SpectrumDiagram.G5A: diagram_g5a,
}


def active_diagrams(spec: ModelSpec) -> List[SpectrumDiagram]:
    """Default diagram set: the pair diagram alone unless the m=1 breather
    exists at integer p, where the interference and breather diagrams enter."""
    if spec.p_int is not None and spec.n_breathers >= 1:
        return list(_DIAGRAMS)
    return [SpectrumDiagram.G1_1]


def spectrum_point(
    omega_p, omega: float, spec: ModelSpec, tol: Optional[float] = None
):
    """gamma(omega'|omega) summed over the active diagrams, each E-integral
    to the absolute tolerance `tol` (by default _TOL_DIAGRAM max(1, omega)):
    a float at one omega', an array at an array of them, each diagram one
    family integral over the array (one `_DIAGRAM_FUNCS` call per diagram)."""
    vals = [_DIAGRAM_FUNCS[d](omega_p, omega, spec, tol) for d in active_diagrams(spec)]
    if np.ndim(omega_p) == 0:
        return math.fsum(vals)
    return np.array([math.fsum(col) for col in zip(*vals)])


def _inelastic_loss(bd: ReflectionBreakdown) -> float:
    """1 - |r|^2 of the normalized reflection coefficient."""
    return float(1.0 - abs(bd.normalized) ** 2)


def sum_rule_check(
    omega: float,
    spec: ModelSpec,
    tol: float = 1e-5,
    breakdown: ReflectionBreakdown | None = None,
) -> float:
    """Ratio of the energy integral of the spectrum to the inelastic loss
    omega * (1 - |r|^2); unity expresses energy conservation.

    The omega' integral uses the substitution omega' = omega u^2, which
    regularizes the integrable 1/omega' endpoint of the boundary sine-Gordon
    spectrum.  Its integrand is f(u) = 2u sum_d coeff_d val_d, val_d the E-
    integral of diagram d, and the integral of 2u over (0, 1) is 1, so
    diagram errors of at most tol_d add at most sum_d |coeff_d| tol_d to it.
    The absolute tolerance tol omega is split as QUADPACK splits an outer
    tolerance with its inner integrals (Piessens et al. 1983): 3/4 to the
    outer rule, and each diagram gets tol_d = (tol omega / 4) / sum_d
    |coeff_d|, so the integral is held to tol omega in total.  The 15 or 30
    omega' of a call of the outer rule are one `spectrum_point` call: one
    family integral per diagram.  `breakdown` is r(omega) if the caller has
    it already; it is normalized (or refused) before the integral.
    """
    check_omega(omega)
    if breakdown is None:
        breakdown = reflection_coefficient(omega, spec)
    loss = _inelastic_loss(breakdown)
    coeff_sum = sum(abs(_DIAGRAMS[d][0]) for d in active_diagrams(spec))
    diagram_tol = 0.25 * tol * omega / coeff_sum

    def energy(omega_p: np.ndarray, u: np.ndarray) -> np.ndarray:
        g = spectrum_point(omega_p, omega, spec, diagram_tol)
        return omega_p * g * 2.0 * omega * u

    def f(u: np.ndarray) -> np.ndarray:
        omega_p = omega * u * u
        return evaluate_masked((omega_p > 0.0) & (omega_p < omega), energy, omega_p, u)

    lhs = adaptive_1d(f, 0.0, 1.0, tol=0.75 * tol * omega).value.real
    return float(lhs / (omega * loss))


def default_omega_prime_grid(omega: float, n: int = 40) -> List[float]:
    """Grid in (0, omega) log-dense at both endpoints."""
    half = n // 2
    low = omega * np.geomspace(1e-4, 0.5, half)
    high = omega * (1.0 - np.geomspace(1e-4, 0.5, n - half))
    return sorted(set(low.tolist() + high.tolist()))


def spectrum_curve(
    omega: float, spec: ModelSpec, grid_size: int = 40
) -> SpectrumCurve:
    """Spectrum on a grid of omega', with per-diagram breakdown and the
    sum-rule ratio; the elastic delta-function coefficient is reported as
    gamma_disc = -(1 - |r|^2).  Each active diagram is one family integral
    over the whole grid."""
    check_omega(omega)
    grid = default_omega_prime_grid(omega, grid_size)
    per = {
        d: tuple(_DIAGRAM_FUNCS[d](np.array(grid), omega, spec).tolist())
        for d in active_diagrams(spec)
    }
    bd = reflection_coefficient(omega, spec)
    return SpectrumCurve(
        omega=omega,
        omega_primes=tuple(grid),
        values=tuple(math.fsum(col) for col in zip(*per.values())),
        per_diagram=per,
        sum_rule_ratio=sum_rule_check(omega, spec, breakdown=bd),
        gamma_disc=-_inelastic_loss(bd),
    )
