"""Shared numerical integration engines.

Deterministic adaptive Gauss-Kronrod (G7/K15) quadrature for complex-valued
integrands, an energy-simplex integrator implementing the delta-constrained
measure prod dE_i/E_i / (2pi)^n / n!, the one semi-infinite integrator (a
cached rule of equal GK15 panels on [0, x_max], whose tabulated kernel is
multiplied by sin(kappa x)**power on every call), and a lazily built
piecewise-Chebyshev table of a smooth function of one real variable.  All
engines are pure functions of their inputs: identical calls produce
bit-identical results (fixed subdivision order, heap keyed with
deterministic tie-breaks).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import DomainError, ToleranceNotMet

TWO_PI = 2.0 * math.pi

# Kronrod-15 nodes on [-1, 1] (positive half) and weights; embedded Gauss-7 weights.
_XK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# adaptive_1d stops splitting at this many intervals
_MAX_INTERVALS = 4000


@dataclass(frozen=True)
class QuadResult:
    value: complex
    abs_error_estimate: float
    evaluations: int


def _gk15(f, a: float, b: float):
    """One Gauss-Kronrod 7-15 panel on [a, b]; returns (K15, |K15-G7|, nevals)."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    fk = [0.0] * 15
    resk = 0.0 + 0.0j
    resg = 0.0 + 0.0j
    # center node
    fc = f(c)
    resk += _WK[7] * fc
    resg += _WG[3] * fc
    for i in range(7):
        x = h * _XK[i]
        f1 = f(c - x)
        f2 = f(c + x)
        resk += _WK[i] * (f1 + f2)
        if i % 2 == 1:  # Kronrod nodes 1,3,5 are the Gauss-7 nodes
            resg += _WG[i // 2] * (f1 + f2)
    resk *= h
    resg *= h
    return resk, abs(resk - resg), 15


def adaptive_1d(
    integrand: Callable[[float], complex],
    a: float,
    b: float,
    tol: float,
) -> QuadResult:
    """Adaptive G7/K15 bisection with absolute tolerance `tol`.

    Deterministic: the worst-error interval (ties broken by left endpoint)
    is always split next, and the final sum is accumulated in interval order.
    """
    if not (a < b):
        raise DomainError(f"need a < b, got [{a}, {b}]")
    val, err, n = _gk15(integrand, a, b)
    # heap entries: (-err, a, b, value, err); tuple comparison falls through
    # to `a` for ties, which is deterministic.
    heap = [(-err, a, b, val, err)]
    total_err = err
    nevals = n
    while total_err > tol and len(heap) < _MAX_INTERVALS:
        neg_e, ia, ib, ival, ierr = heapq.heappop(heap)
        total_err -= ierr
        mid = 0.5 * (ia + ib)
        if mid <= ia or mid >= ib:
            # interval at floating-point resolution; keep as converged
            heapq.heappush(heap, (0.0, ia, ib, ival, 0.0))
            continue
        v1, e1, n1 = _gk15(integrand, ia, mid)
        v2, e2, n2 = _gk15(integrand, mid, ib)
        nevals += n1 + n2
        heapq.heappush(heap, (-e1, ia, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, ib, v2, e2))
        total_err += e1 + e2
    # deterministic accumulation: sort by left endpoint
    intervals = sorted(heap, key=lambda t: t[1])
    value = 0.0 + 0.0j
    total_err = 0.0
    for _, _, _, ival, ierr in intervals:
        value += ival
        total_err += ierr
    result = QuadResult(value=value, abs_error_estimate=total_err, evaluations=nevals)
    # slack for a few ulp of re-summation; a NaN estimate fails too
    if not total_err <= tol * (1.0 + 1e-6):
        raise ToleranceNotMet(
            f"adaptive_1d: error estimate {total_err:.3e} exceeds tol {tol:.3e}",
            value=value,
            abs_error_estimate=total_err,
        )
    return result


_U_HALF = 1.0 / math.sqrt(2.0)  # u at the midpoint of a corner map E = w u^2


def _corner_pair(
    point: Callable[[float, float], complex],
    width: float,
    tol: float,
    symmetric: bool = False,
) -> QuadResult:
    """Integral of point(e1, e2) over the segment e1 + e2 = width.

    The segment is split at its midpoint and each half is mapped from its
    corner with e = width * u^2, u in (0, 1/sqrt(2)]; each half is integrated
    to `tol`, and the result is the two halves' sum (value, error estimate
    and evaluations).  With `symmetric`, point(e1, e2) must equal
    point(e2, e1): only the left corner half is integrated, and it stands
    for the right one as its mirror image, so the value and the error
    estimate are twice the half's and `evaluations` counts its calls once.
    """

    def half(left: bool) -> QuadResult:
        def g(u):
            near = width * u * u
            far = width - near
            if near <= 0.0 or far <= 0.0:
                return 0.0j
            e1, e2 = (near, far) if left else (far, near)
            return point(e1, e2) * (2.0 * width * u)

        return adaptive_1d(g, 0.0, _U_HALF, tol)

    r1 = half(True)
    if symmetric:
        return QuadResult(2.0 * r1.value, 2.0 * r1.abs_error_estimate, r1.evaluations)
    r2 = half(False)
    return QuadResult(
        r1.value + r2.value,
        r1.abs_error_estimate + r2.abs_error_estimate,
        r1.evaluations + r2.evaluations,
    )


def integrate_simplex(
    n_parts: int,
    total: float,
    integrand: Callable[..., complex],
    tol: float = 1e-9,
    symmetric: bool = False,
) -> QuadResult:
    """Integrate over {E_i > 0, sum E_i = total} with measure
    prod(dE_i / E_i) / (2 pi)^n / n!  (one dE eliminated by the delta),
    for n = 2 or 3 parts.

    The integrand receives the energies E_1, ..., E_n as positional arguments
    and returns the physical integrand WITHOUT the 1/E jacobian (applied
    internally).
    `tol` is absolute and bounds the integral BEFORE the normalisation
    1/((2 pi)^n n!): the returned value and `abs_error_estimate` are after
    it, so the estimate is held to about tol/((2 pi)^n n!) (6.7e-4 tol at
    n = 3).
    Endpoint corners are mapped with the substitution E = total * u^2, which
    renders integrands whose values vanish linearly (or as E^(1/2) per
    soliton leg) smooth at the corners.  `evaluations` counts the integrand
    calls, inner integrals included.  `abs_error_estimate` is the outer
    integral's estimate; for n = 3 it adds the largest inner (E1) estimate
    times the outer measure `total`, which bounds the inner errors' sum.
    `symmetric` declares the integrand symmetric under E_1 <-> E_2 (the
    caller's contract; it is not checked): the (E1, E2) segment, the whole
    integral at n = 2 and the inner one at n = 3, is then integrated on its
    left corner half only, at the same per-half tolerance, and doubled
    (`_corner_pair`), which halves the integrand calls and keeps the bound.
    """
    if n_parts not in (2, 3):
        raise DomainError(f"n_parts must be 2 or 3, got {n_parts}")
    if total <= 0:
        raise DomainError(f"total must be positive, got {total}")
    norm = 1.0 / (TWO_PI**n_parts * math.factorial(n_parts))
    w = total

    if n_parts == 2:

        def pair(e1, e2):
            return integrand(e1, e2) * (1.0 / (e1 * e2))

        res = _corner_pair(pair, w, tol / 2.0, symmetric)
        evaluations = res.evaluations
        inner_error = 0.0
    else:
        # outer integral over E3, inner over E1 with E2 = total - E3 - E1
        inner_evaluations = [0]
        largest_inner_error = [0.0]

        def inner(e3):
            rem = w - e3
            if rem <= 0.0:
                return 0.0j

            def pair(e1, e2):
                return integrand(e1, e2, e3) * (1.0 / (e1 * e2 * e3))

            i = _corner_pair(pair, rem, tol / 4.0, symmetric)
            inner_evaluations[0] += i.evaluations
            largest_inner_error[0] = max(largest_inner_error[0], i.abs_error_estimate)
            return i.value

        res = _corner_pair(lambda e3, rem: inner(e3), w, tol / 2.0)
        evaluations = inner_evaluations[0]
        inner_error = largest_inner_error[0] * w
    return QuadResult(
        value=res.value * norm,
        abs_error_estimate=(res.abs_error_estimate + inner_error) * abs(norm),
        evaluations=evaluations,
    )


# ---------------------------------------------------------------------------
# Semi-infinite integrals on fixed GK15 panels

# the exponential bound of a semi-infinite integrand at its truncation point
_TRUNCATION_TARGET = 1e-16

# one panel on [-1, 1]: nodes in ascending order, K15 weights and the G7
# weights (zero on the Kronrod-only nodes)
_T15 = np.array([-t for t in _XK[:7]] + [0.0] + list(_XK[6::-1]))
_WK15 = np.array(_WK[:7] + _WK[7:] + _WK[6::-1])
_WG15 = np.zeros(15)
_WG15[[1, 3, 5]] = _WG[:3]
_WG15[7] = _WG[3]
_WG15[[9, 11, 13]] = _WG[2::-1]

# panel width: a fraction of the distance from the real axis to the
# kernel's nearest pole, halved until one panel spans at most
# _PHASE_PER_PANEL radians of the integrand's exponential rate, so that the
# embedded G7 rule, and with it the error estimate, resolves each panel.
# Chosen on the kernels' arguments in a z = 1/3 spectrum and on grids at
# z = 0.1 ... 0.75 with |Re lambda| <= 33: the largest estimate there is
# 0.12 of the kernel's tolerance.
_POLE_FRACTION = 0.35
_PHASE_PER_PANEL = 2.0
# at most this many panels (and a table of this many rows) per integral,
# as adaptive_1d stops at _MAX_INTERVALS intervals
_MAX_PANELS = 4096
# largest exponent whose exponential is a finite double (log of 1.8e308)
_MAX_EXPONENT = 709.0


@dataclass(frozen=True)
class PanelRule:
    """n_panels equal GK15 panels of width `width` on [0, n_panels * width].

    `nodes` has one row per panel; every panel has the same weights.
    """

    width: float
    nodes: np.ndarray
    weights: np.ndarray  # columns: K15, K15 - embedded G7

    def integrate(self, values: np.ndarray, tol: float) -> QuadResult:
        """Sum of the K15 panel sums of `values`, given on the first
        len(values) rows of `nodes`; the error estimate is the sum of the
        panels' |K15 - G7|.  Raises ToleranceNotMet past `tol` or when the
        estimate is not finite."""
        k15, k15_minus_g7 = (values @ self.weights).T
        value = complex(k15.sum())
        err = float(np.abs(k15_minus_g7).sum())
        if not err <= tol:
            raise ToleranceNotMet(
                f"panel rule: error estimate {err:.3e} exceeds tol {tol:.3e} "
                f"({len(values)} panels of width {self.width:.3e})",
                value=value,
                abs_error_estimate=err,
            )
        return QuadResult(value=value, abs_error_estimate=err, evaluations=values.size)


@lru_cache(maxsize=256)
def panel_rule(width: float, n_panels: int) -> PanelRule:
    """The cached rule of n_panels equal GK15 panels of width `width`."""
    half = 0.5 * width
    centres = half * (2.0 * np.arange(n_panels) + 1.0)
    nodes = centres[:, None] + half * _T15[None, :]
    weights = half * np.stack([_WK15, _WK15 - _WG15], axis=1)
    return PanelRule(width, nodes, weights)


def panel_layout(
    decay_rate: float, pole_distance: float, rate: float, growth: float = 0.0
) -> Tuple[float, int, int]:
    """Panels for a semi-infinite integral kernel(x) * g(x).

    The integrand is bounded by C e^{-decay_rate x}, the kernel has its
    nearest pole `pole_distance` off the real axis and the factor g
    oscillates at most at `rate` (per unit x).  `growth` is the rate by
    which g's fastest-decaying component decays faster than g's bound (for
    g = sin(kappa x)^p, 2 p |Im kappa|): that component, times the kernel,
    decays at decay_rate + growth.  A panel spans at most _PHASE_PER_PANEL
    of hypot(rate, decay_rate + growth), while the truncation point stays on
    decay_rate.  Returns (width, n,
    size): n panels of `width` reach the truncation point where the bound
    reaches _TRUNCATION_TARGET, and `size`, the next power of two >= n, is
    the panel count of the cached table those n panels are read from.
    Raises ToleranceNotMet, before anything is allocated, when more than
    _MAX_PANELS panels would be needed (a decay rate near 0, at the edge of
    a kernel's strip).
    """
    if decay_rate <= 0:
        raise DomainError(f"decay_rate must be positive, got {decay_rate}")
    x_max = -math.log(_TRUNCATION_TARGET) / decay_rate
    width = _POLE_FRACTION * pole_distance
    while width * math.hypot(rate, decay_rate + growth) > _PHASE_PER_PANEL:
        width *= 0.5
    if x_max > _MAX_PANELS * width:
        raise ToleranceNotMet(
            f"panel rule: decay rate {decay_rate:.3e} needs {x_max / width:.3e} "
            f"panels of width {width:.3e}, more than {_MAX_PANELS}"
        )
    n = max(1, math.ceil(x_max / width))
    return width, n, 1 << (n - 1).bit_length()


@lru_cache(maxsize=256)
def _tabulated(kernel: Callable[..., np.ndarray], args: tuple, width: float, size: int):
    rule = panel_rule(width, size)
    return rule, kernel(rule.nodes, *args)


def integrate_semi_infinite(
    kernel: Callable[..., np.ndarray],
    args: tuple,
    kappa: complex,
    power: int,
    decay_rate: float,
    pole_distance: float,
    tol: float,
) -> QuadResult:
    """Integral over (0, inf) of kernel(x, *args) * sin(kappa x)**power,
    the integrand bounded by C e^{-decay_rate x}.

    The panels are those of panel_layout(decay_rate, pole_distance,
    power |Re kappa|, 2 power |Im kappa|); kernel(x, *args) is tabulated on
    them once per (kernel, args, layout) and cached, so a call evaluates
    only the sine, on the first n panels; no node is at x = 0.  Raises
    DomainError when decay_rate <= 0, and ToleranceNotMet past `tol` and when
    the sine could overflow on the panels (a complex kappa next to the edge
    of the kernel's strip, where the product is finite but its factors are
    not).
    """
    width, n, size = panel_layout(
        decay_rate, pole_distance, power * abs(kappa.real), 2.0 * power * abs(kappa.imag)
    )
    growth = power * abs(kappa.imag) * n * width
    if growth > _MAX_EXPONENT:
        raise ToleranceNotMet(
            f"panel rule: sin(kappa x)**{power} grows as e^{growth:.0f} on "
            f"[0, {n * width:.3e}] (decay rate {decay_rate:.3e})"
        )
    rule, table = _tabulated(kernel, args, width, size)
    # numpy's real sine is several times faster than its complex one
    kappa = kappa.real if kappa.imag == 0.0 else kappa
    return rule.integrate(table[:n] * np.sin(kappa * rule.nodes[:n]) ** power, tol)


# ---------------------------------------------------------------------------
# Piecewise-Chebyshev tables of smooth functions on the real line


def _clenshaw(coeffs: Tuple[complex, ...], t: float) -> complex:
    """sum_k coeffs[k] T_k(t) by Clenshaw's recurrence."""
    b1 = b2 = 0.0
    t2 = 2.0 * t
    for c in coeffs[:0:-1]:
        b1, b2 = t2 * b1 - b2 + c, b1
    return t * b1 - b2 + coeffs[0]


# Chebyshev points per ChebyshevTable panel, and the panel check's tolerance
_TABLE_POINTS = 21
_TABLE_TOL = 1e-12
# the _TABLE_POINTS first-kind Chebyshev points t_j = cos(pi (j + 1/2)/n) on
# [-1, 1], the matrix that maps values there to the coefficients of the
# degree n - 1 interpolant in T_0..T_{n-1}, and the n - 1 interior extrema
# cos(pi j/n) of T_n, midway in angle between adjacent points: the
# interpolation error is proportional to T_n, so it peaks there
_ANGLES = math.pi * (np.arange(_TABLE_POINTS) + 0.5) / _TABLE_POINTS
_CHEB_POINTS = np.cos(_ANGLES)
_TO_COEFFS = (2.0 / _TABLE_POINTS) * np.cos(
    np.outer(np.arange(_TABLE_POINTS), _ANGLES)
)
_TO_COEFFS[0] *= 0.5
_MIDPOINTS = tuple(
    math.cos(math.pi * j / _TABLE_POINTS) for j in range(1, _TABLE_POINTS)
)


def strip_panel_width(half_width: float) -> float:
    """The panel width of a ChebyshevTable whose function is analytic in the
    strip |Im x| < half_width: the largest power of two at most 1.5
    half_width, a power of two so that x = 0 stays a panel edge.

    The degree-20 interpolant on a panel converges at the rate of the
    largest Bernstein ellipse inside the strip.  Measured on the e^{I} and
    R_s phase tables at z = 0.15 ... 0.75 over |Re x| <= 30: these widths
    interpolate to 1e-13 or better, and twice them miss 1e-12 at every z.
    Next to the cap, at 1.40-1.50 half-widths, a panel can miss 1e-12; the
    e^{I} tables halve such a line's width (`formfactors._exp_i_line`)."""
    if not half_width > 0.0:
        raise DomainError(f"strip half-width must be positive, got {half_width}")
    return 2.0 ** math.floor(math.log2(1.5 * half_width))


class ChebyshevTable:
    """A lazily built piecewise-Chebyshev interpolant of builder(x), x real.

    The real line is cut into equal panels [k width, (k + 1) width], k an
    integer.  A panel is built on the first lookup that lands in it: the
    builder is called on its _TABLE_POINTS = 21 first-kind Chebyshev points
    and the values become the coefficients of a degree-20 interpolant
    (Trefethen, Approximation Theory and Approximation Practice, chs. 8 and
    19).  Every new panel is then checked against the builder at the 20
    interior extrema of T_21; if the interpolant is off by more than
    _TABLE_TOL = 1e-12 there (absolute), the panel is not kept and
    ToleranceNotMet is raised.  The builder must be analytic in a
    neighbourhood of each panel it is asked for.  `rounding`, if given, is
    the builder's own rounding error at x (nondecreasing in |x|); a panel is
    then checked to the larger of _TABLE_TOL and its value at the panel's
    edge farther from 0.  `panels` counts the panels built so far, and
    `worst_error` is the largest check error seen on them.
    """

    def __init__(
        self,
        builder: Callable[[float], complex],
        width: float,
        rounding: Optional[Callable[[float], float]] = None,
    ):
        self._builder = builder
        self._width = width
        self._rounding = rounding
        self._panels: Dict[int, Tuple[complex, ...]] = {}
        self.worst_error = 0.0

    @property
    def panels(self) -> int:
        return len(self._panels)

    def __call__(self, x: float) -> complex:
        k = math.floor(x / self._width)
        coeffs = self._panels.get(k)
        if coeffs is None:
            coeffs = self._build(k)
        # local coordinate in [-1, 1] of x on panel k
        return _clenshaw(coeffs, 2.0 * (x / self._width - k) - 1.0)

    def _build(self, k: int) -> Tuple[complex, ...]:
        half = 0.5 * self._width
        centre = (k + 0.5) * self._width
        values = np.array([self._builder(centre + half * t) for t in _CHEB_POINTS])
        coeffs = tuple(complex(c) for c in _TO_COEFFS @ values)
        errors = [
            abs(_clenshaw(coeffs, t) - self._builder(centre + half * t))
            for t in _MIDPOINTS
        ]
        # np.max, unlike max, returns a NaN it meets, which then fails
        err = float(np.max(errors))
        tol = _TABLE_TOL
        if self._rounding is not None:
            tol = max(tol, self._rounding(centre + math.copysign(half, centre)))
        if not err <= tol:
            raise ToleranceNotMet(
                f"Chebyshev table: panel [{centre - half:.6g}, {centre + half:.6g}] "
                f"interpolates with error {err:.3e}, more than tol {tol:.3e}",
                abs_error_estimate=err,
            )
        self.worst_error = max(self.worst_error, err)
        self._panels[k] = coeffs
        return coeffs
