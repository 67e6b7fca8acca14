"""Boundary reflection matrices in the massless limit.

Single-excitation amplitudes R_e^{e'}(lambda) for both models (solitons may
flip charge off the boundary; breathers reflect diagonally), products over
excitation sets including the right-left exchange phases, and the conjugation
identity R(lambda + i pi) = conj(R(lambda)) as a checkable residual.

All rapidities are measured from the boundary rapidity (boundary scale
T_B = 1 throughout).

The phase of R_s is the integral of sin(2 lambda x) times a kernel that
`quadrature.integrate_semi_infinite` tabulates once per (xi, panel layout)
on its GK15 panel rule; the panels are sized from the kernel's nearest
pole, d = min(1/2, pi/(2 xi)), and the rate 2|lambda|, and the rule holds
its estimate to 1e-11.  Next to
the edge of the strip where the integrand's decay vanishes the rule would
need more than 4096 panels, or its sine would overflow, and it raises
ToleranceNotMet.  Past |Re lambda| = 16/d the phase is its large-|Re lambda|
limit, which the integral matches there to 3e-13 or better for z >= 0.05.
Short of that, a phase lookup reads a per-(xi, Im lambda) table
(`quadrature.ChebyshevTable`, 21 Chebyshev points per panel, each panel
built from the integral on first use and checked against it to 1e-12): the
phase is analytic in |Im lambda| < min(3 xi, xi + 2 pi)/2, and the panel
width follows from the half-width s of that strip about the line
(`quadrature.strip_panel_width`: at most 1.5 s, a power of two).  As
phase(-conj lambda) = -conj phase(lambda), the tables hold Re lambda >= 0.
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .model import Excitation, ExcitationKind, ModelSpec, validate_excitation
from .quadrature import ChebyshevTable, integrate_semi_infinite, strip_panel_width
from .smatrix import s_rl_limit

_POLE_TOL = 1e-12
# the phase integral differs from its large-|Re lambda| limit by about
# e^{-2 d |Re lambda|}, d the distance of its kernel's nearest pole from the
# real axis; the limit is used once that exponent passes this value
# (e^{-32} ~ 1e-14)
_ASYMPTOTE_EXPONENT = 32.0


@lru_cache(maxsize=200_000)
def _rs_phase_cached(lam_r: float, lam_i: float, xi: float) -> complex:
    if _rs_phase_asymptotic(lam_r, xi):
        return _rs_phase_direct(complex(lam_r, lam_i), xi)
    # phase(-conj lambda) = -conj phase(lambda): the table holds Re lambda >= 0
    value = _rs_phase_line(xi, lam_i)(abs(lam_r))
    return -value.conjugate() if lam_r < 0.0 else value


@lru_cache(maxsize=256)
def _rs_phase_line(xi: float, lam_i: float) -> ChebyshevTable:
    """The phase along Im lambda = lam_i, tabulated in Re lambda >= 0 on
    panels sized by its strip of analyticity, |Im lambda| < min(3 xi,
    xi + 2 pi)/2."""
    return ChebyshevTable(
        lambda lam_r: _rs_phase_direct(complex(lam_r, lam_i), xi),
        strip_panel_width(0.5 * _rs_phase_decay(lam_i, xi)),
    )


def _rs_phase_pole(xi: float) -> float:
    """Distance from the real axis of the phase kernel's nearest pole:
    cosh(pi x) vanishes at i/2, sinh(2 xi x) at i pi/(2 xi)."""
    return min(0.5, math.pi / (2.0 * xi))


def _rs_phase_decay(lam_i: float, xi: float) -> float:
    """Decay rate of the phase integrand at Im lambda = lam_i; raises
    DomainError where the integral diverges."""
    decay = min(3.0 * xi, xi + 2.0 * math.pi) - 2.0 * abs(lam_i)
    if decay <= 0.0:
        raise DomainError(
            f"R_s phase integral diverges at Im lambda = {lam_i} (xi = {xi})"
        )
    return decay


def _rs_phase_asymptotic(lam_r: float, xi: float) -> bool:
    """Whether the phase at Re lambda = lam_r is its large-|Re lambda| limit."""
    return 2.0 * _rs_phase_pole(xi) * abs(lam_r) > _ASYMPTOTE_EXPONENT


def _rs_phase_direct(lam: complex, xi: float) -> complex:
    decay = _rs_phase_decay(lam.imag, xi)
    if _rs_phase_asymptotic(lam.real, xi):
        # the kernel is even in x, so the large-|Re lambda| limit has no
        # power-law corrections; the error is exponentially small.
        return complex(math.copysign(1.0, lam.real) * math.pi * (math.pi - xi) / (4.0 * xi))
    return _rs_phase_integral(lam, xi, decay)


def _rs_phase_kernel(x: np.ndarray, xi: float) -> np.ndarray:
    """The phase kernel sinh((pi - xi) x) / (x sinh(2 xi x) cosh(pi x))
    without its sin(2 lambda x) factor, written with decaying exponentials
    only, so that it neither overflows nor cancels at any x > 0."""
    a = abs(math.pi - xi)
    rate = 2.0 * xi + math.pi - a
    return (
        math.copysign(2.0, math.pi - xi)
        * np.exp(-rate * x)
        * np.expm1(-2.0 * a * x)
        / (x * np.expm1(-4.0 * xi * x) * (1.0 + np.exp(-2.0 * math.pi * x)))
    )


def _rs_phase_integral(lam: complex, xi: float, decay: float) -> complex:
    """The phase integral int_0^inf sin(2 lambda x) kernel(x) dx on the
    fixed panel rule, to 1e-11 absolute; `decay` bounds the integrand's
    exponential decay."""
    return integrate_semi_infinite(
        _rs_phase_kernel, (xi,), 2.0 * lam, 1, decay, _rs_phase_pole(xi), tol=1e-11
    ).value


def r_s(lam: complex, spec: ModelSpec) -> complex:
    """Scalar factor of the boundary sine-Gordon soliton reflection amplitudes."""
    lam = complex(lam)
    pm1 = spec.p - 1.0
    den = 2.0 * cmath.cosh(pm1 * lam / 2.0 - 1j * math.pi / 4.0)
    if abs(den) < _POLE_TOL:
        raise DomainError(f"R_s pole at lambda = {lam}")
    amplitude = cmath.exp(-1j * math.pi / 4.0) / den
    if abs(math.pi - spec.xi) < 1e-14:
        return amplitude  # the phase integrand vanishes identically at z = 1/2
    return amplitude * cmath.exp(1j * _rs_phase_cached(lam.real, lam.imag, spec.xi))


def r_bsg_soliton(lam: complex, flip: bool, spec: ModelSpec) -> complex:
    """Soliton reflection amplitude: charge-flipping R_+-^-+ (flip=True) or
    charge-preserving R_+-^+- (flip=False); both are even under charge parity."""
    lam = complex(lam)
    if abs(lam.imag) > math.pi + 1e-12:
        raise DomainError(f"|Im lambda| > pi unsupported (got {lam.imag})")
    pm1 = spec.p - 1.0
    rs = r_s(lam, spec)
    if flip:
        return 1j * cmath.exp(pm1 * lam / 2.0) * rs
    return cmath.exp(-pm1 * lam / 2.0) * rs


def r_bsg_breather(lam: complex, m: int, spec: ModelSpec) -> complex:
    """Diagonal breather-m reflection amplitude of the boundary sine-Gordon
    model: the m-fold fusion of R_1(lambda) = tanh(lambda/2 - i pi/4),

        R_m(lambda) = prod_{k=1..m} R_1(lambda + i xi (m + 1 - 2k)/2),

    the boundary bootstrap for a bound state of m breathers 1 (Ghoshal &
    Zamolodchikov, Int. J. Mod. Phys. A 9 (1994) 3841); unimodular on real
    rapidities."""
    if not (1 <= m <= spec.n_breathers):
        raise DomainError(f"breather m={m} invalid (n_breathers={spec.n_breathers})")
    base = complex(lam) / 2.0 - 1j * math.pi / 4.0
    out = 1.0 + 0.0j
    for k in range(1, m + 1):
        out *= cmath.tanh(base + 0.25j * spec.xi * (m + 1 - 2 * k))
    return out


def r_kondo_soliton(lam: complex, spec: ModelSpec, flip: bool = True) -> complex:
    """Kondo soliton reflection amplitude; the charge-preserving entry vanishes."""
    if not flip:
        return 0.0 + 0.0j
    lam = complex(lam)
    e = cmath.exp(lam)
    den = e + 1j
    if abs(den) < _POLE_TOL:
        raise DomainError(f"Kondo soliton reflection pole at lambda = {lam}")
    return cmath.exp(1j * math.pi / (4.0 * spec.z)) * (e - 1j) / den


def r_kondo_breather(lam: complex, m: int, spec: ModelSpec) -> complex:
    """Diagonal breather-m reflection amplitude of the Kondo model."""
    if not (1 <= m <= spec.n_breathers):
        raise DomainError(f"breather m={m} invalid (n_breathers={spec.n_breathers})")
    lam = complex(lam)
    num = cmath.tanh(lam / 2.0 - 1j * spec.xi * m / 4.0)
    den = cmath.tanh(lam / 2.0 + 1j * spec.xi * m / 4.0)
    if abs(den) < _POLE_TOL:
        raise DomainError(f"Kondo breather reflection pole at lambda = {lam}")
    return num / den


def r_breather(lam: complex, m: int, spec: ModelSpec) -> complex:
    """Diagonal breather-m reflection amplitude R_m^m(lambda) of either model."""
    if spec.is_bsg:
        return r_bsg_breather(lam, m, spec)
    return r_kondo_breather(lam, m, spec)


def r_amplitude(
    lam: complex, in_exc: Excitation, out_exc: Excitation, spec: ModelSpec
) -> complex:
    """Single-excitation reflection amplitude R_in^out(lambda); zero unless the
    bulk masses of the labels coincide."""
    validate_excitation(in_exc, spec)
    validate_excitation(out_exc, spec)
    B = ExcitationKind.Breather
    if (in_exc.kind is B) != (out_exc.kind is B):
        return 0.0 + 0.0j
    if in_exc.kind is B:
        if in_exc.m != out_exc.m:
            return 0.0 + 0.0j
        return r_breather(lam, in_exc.m, spec)
    flip = in_exc.charge != out_exc.charge
    if spec.is_bsg:
        return r_bsg_soliton(lam, flip, spec)
    return r_kondo_soliton(lam, spec, flip=flip)


def soliton_pair_bracket(
    lam1: complex, lam2: complex, spec: ModelSpec, sign: int = -1
) -> complex:
    """Reflection combination of an outgoing soliton-antisoliton pair:
    exp(-i pi/2z) R_+^-(l1) R_-^+(l2) + sign * exp(+i pi/2z) R_+^+(l1) R_+^+(l2).

    sign = -1 for a pair that reflects as a whole; sign = +1 for pair lines
    that straddle the photon vertices.  The Kondo diagonal entry vanishes, so
    the sign only matters for the boundary sine-Gordon model.
    """
    phase = cmath.exp(-1j * math.pi / (2.0 * spec.z))
    if spec.is_kondo:
        return phase * r_kondo_soliton(lam1, spec) * r_kondo_soliton(lam2, spec)
    flip = r_bsg_soliton(lam1, True, spec) * r_bsg_soliton(lam2, True, spec)
    diag = r_bsg_soliton(lam1, False, spec) * r_bsg_soliton(lam2, False, spec)
    if sign > 0:
        return phase * flip + diag / phase
    return phase * flip - diag / phase


def soliton_split_bracket(
    lam_in: complex, lam_out: complex, spec: ModelSpec
) -> complex:
    """Reflection combination of a soliton pair split across the photon
    vertices, with the absorbed member conjugated:
    conj(R_+^-(l_in)) R_+^-(l_out) - conj(R_+^+(l_in)) R_+^+(l_out).

    No channel phases survive: the direct line's own factors cancel by
    boundary unitarity.
    """
    if spec.is_kondo:
        return (
            r_kondo_soliton(lam_in, spec).conjugate()
            * r_kondo_soliton(lam_out, spec)
        )
    flip = (
        r_bsg_soliton(lam_in, True, spec).conjugate()
        * r_bsg_soliton(lam_out, True, spec)
    )
    diag = (
        r_bsg_soliton(lam_in, False, spec).conjugate()
        * r_bsg_soliton(lam_out, False, spec)
    )
    return flip - diag


def _out_label_choices(exc: Excitation, spec: ModelSpec) -> Tuple[Excitation, ...]:
    if exc.kind is ExcitationKind.Breather:
        return (exc,)
    return (exc, exc.conjugate)


def r_product(
    excs: Sequence[Tuple[Excitation, float]], spec: ModelSpec
) -> Dict[Tuple[Excitation, ...], complex]:
    """Product of reflection amplitudes over an ordered excitation set, summed
    label structure: maps each outgoing label assignment to

        prod_{l<k} S~_{e_k e'_l} * prod_k R_{e_k}^{e'_k}(lambda_k),

    where S~ is the right-left massless exchange limit.  Rapidities must be
    pre-shifted by the caller's mass-ratio convention.
    """
    for exc, _ in excs:
        validate_excitation(exc, spec)
    n = len(excs)
    singles = []
    for exc, lam in excs:
        row = {}
        for out in _out_label_choices(exc, spec):
            row[out] = r_amplitude(lam, exc, out, spec)
        singles.append(row)
    result: Dict[Tuple[Excitation, ...], complex] = {}
    for combo in itertools.product(*(row.keys() for row in singles)):
        value = 1.0 + 0.0j
        for k in range(n):
            value *= singles[k][combo[k]]
        for l in range(n - 1):
            for k in range(l + 1, n):
                value *= s_rl_limit(excs[k][0], combo[l], spec)
        result[tuple(combo)] = value
    return result


def r_conjugation_check(
    excs: Sequence[Tuple[Excitation, float]], spec: ModelSpec
) -> float:
    """Residual of the crossing identity Rprod(lambda + i pi) = conj(Rprod(lambda)).

    The identity holds on charge-neutral excitation sets, entry by entry over
    the charge-conserving outgoing label assignments (the only entries entering
    observables); the input set must therefore be charge-neutral.  The
    residual is the largest over those entries, NaN if any entry is NaN.
    """
    total_charge = sum(exc.charge for exc, _ in excs)
    if total_charge != 0:
        raise DomainError(
            "conjugation check requires a charge-neutral excitation set "
            f"(got total charge {total_charge})"
        )
    base = r_product(excs, spec)
    shifted = r_product(
        [(exc, complex(lam, math.pi)) for exc, lam in excs], spec
    )
    return float(
        np.max(
            [
                abs(shifted[combo] - value.conjugate())
                for combo, value in base.items()
                if sum(e.charge for e in combo) == 0
            ]
        )
    )
