"""Boundary reflection matrices in the massless limit.

Single-particle amplitudes for both models, a soliton's flip and
keep-charge pair (`soliton_amplitudes`) and the diagonal amplitude of
breather m (`r_breather`), and the soliton-pair brackets that r(omega) and
gamma(omega'|omega) read, with the right-left exchange phase
exp(-i pi/2z) set in `soliton_pair_bracket`.
`bscat validate` checks boundary crossing, R(lambda + i pi) =
conj(R(lambda)), on those brackets and on the breather amplitudes.

`soliton_amplitudes` returns a soliton's flip and keep-charge amplitudes
together, from one R_s in the boundary sine-Gordon model (the Kondo
keep-charge entry is an exact zero); the soliton-pair brackets read the
pairs of both their rapidities from one call on the stacked rapidities.

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
built on first use from one family integral over its 41 points, the points
past the switch keeping the limit, and checked against them to 1e-12): the
phase is analytic in |Im lambda| < min(3 xi, xi + 2 pi)/2, and the panel
width follows from the half-width s of that strip about the line
(`quadrature.strip_panel_width`: at most 1.5 s, a power of two).  As
phase(-conj lambda) = -conj phase(lambda), the tables hold Re lambda >= 0.

Amplitudes and brackets take arrays of rapidities and work elementwise; a
pole or strip refusal names the first offending point.  An array's phase is
read line by line (`quadrature.lookup_by_line`: one vectorised table lookup
per distinct Im lambda, `_rs_phase_on_line`), a number's through the memo
`_rs_phase_cached`, the scalar entry of the same lookup.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Tuple

import numpy as np

from .errors import DomainError, offending
from .model import ModelSpec, check_breather
from .quadrature import (
    ChebyshevTable,
    integrate_semi_infinite,
    lookup_by_line,
    strip_panel_width,
)

_POLE_TOL = 1e-12
# the phase integral differs from its large-|Re lambda| limit by about
# e^{-2 d |Re lambda|}, d the distance of its kernel's nearest pole from the
# real axis; the limit is used once that exponent passes this value
# (e^{-32} ~ 1e-14)
_ASYMPTOTE_EXPONENT = 32.0
# R_s = e^{-i pi/4}/(2 cosh((p - 1) lambda/2 - i pi/4)) and the soliton
# amplitudes e^{+-(p - 1) lambda/2} R_s are refused past this |Re| of
# (p - 1) lambda/2, where the exponentials and their reciprocals leave the
# normal doubles (e^{+-708}): at small z, e.g. |Re lambda| > 43 at z = 0.03
_MAX_HALF_EXPONENT = 700.0


@lru_cache(maxsize=200_000)
def _rs_phase_cached(lam_r: float, lam_i: float, xi: float) -> complex:
    """The scalar entry of `_rs_phase_on_line`, memoised."""
    return complex(_rs_phase_on_line(np.array([lam_r]), lam_i, xi)[0])


def _rs_phase_on_line(lam_r: np.ndarray, lam_i: float, xi: float) -> np.ndarray:
    """The phase at lam_r + i lam_i for each element of the array `lam_r`:
    its large-|Re lambda| limit past the asymptote switch, and one lookup of
    the line's table short of it."""
    _rs_phase_decay(lam_i, xi)  # refuses a line where the integral diverges
    out = _rs_phase_limit(lam_r, xi).astype(complex)
    near = ~_rs_phase_asymptotic(lam_r, xi)
    if not near.any():
        return out
    # phase(-conj lambda) = -conj phase(lambda): the table holds Re lambda >= 0
    value = _rs_phase_line(xi, lam_i)(np.abs(lam_r[near]))
    out[near] = np.where(lam_r[near] < 0.0, -value.conjugate(), value)
    return out


@lru_cache(maxsize=256)
def _rs_phase_line(xi: float, lam_i: float) -> ChebyshevTable:
    """The phase along Im lambda = lam_i, tabulated in Re lambda >= 0 on
    panels sized by its strip of analyticity, |Im lambda| < min(3 xi,
    xi + 2 pi)/2."""
    return ChebyshevTable(
        lambda lam_r: _rs_phase_direct(lam_r + 1j * lam_i, xi),
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


def _rs_phase_asymptotic(lam_r, xi: float):
    """Whether the phase at Re lambda = lam_r is its large-|Re lambda| limit
    (elementwise on an array)."""
    return 2.0 * _rs_phase_pole(xi) * np.abs(lam_r) > _ASYMPTOTE_EXPONENT


def _rs_phase_direct(lam, xi: float):
    """The phase without the table, at a complex lambda or at each of an
    array of lambda on one line Im lambda = const: its limit past the
    asymptote switch, and short of it the integral (one family)."""
    lam = np.asarray(lam, dtype=complex)
    flat = lam.reshape(-1)
    decay = _rs_phase_decay(float(flat[0].imag), xi)
    out = np.array(_rs_phase_limit(flat.real, xi), dtype=complex)
    near = ~_rs_phase_asymptotic(flat.real, xi)
    if near.any():
        out[near] = _rs_phase_integral(flat[near], xi, decay)
    return out.reshape(lam.shape)[()]


def _rs_phase_limit(lam_r, xi: float):
    """The phase's large-|Re lambda| limit, sign(Re lambda) pi (pi - xi)/(4 xi):
    the kernel is even in x, so the limit has no power-law corrections, and
    the error is exponentially small."""
    return np.copysign(1.0, lam_r) * math.pi * (math.pi - xi) / (4.0 * xi)


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


def _rs_phase_integral(lam, xi: float, decay: float):
    """The phase integral int_0^inf sin(2 lambda x) kernel(x) dx on the
    fixed panel rule, to 1e-11 absolute, at a complex lambda or, as one
    family, at an array of lambda on one line; `decay` bounds the
    integrand's exponential decay."""
    return integrate_semi_infinite(
        _rs_phase_kernel, (xi,), 2.0 * lam, 1, decay, _rs_phase_pole(xi), tol=1e-11
    ).value


def r_s(lam, spec: ModelSpec):
    """Scalar factor of the boundary sine-Gordon soliton reflection
    amplitudes, elementwise."""
    lam = np.asarray(lam, dtype=complex)
    half = (spec.p - 1.0) * lam / 2.0
    overflow = np.abs(half.real) > _MAX_HALF_EXPONENT
    if overflow.any():
        raise DomainError(
            f"R_s overflows at lambda = {offending(lam, overflow)} (z = {spec.z}): "
            f"e^((p - 1) |Re lambda|/2) is past e^{_MAX_HALF_EXPONENT:.0f}"
        )
    den = 2.0 * np.cosh(half - 1j * math.pi / 4.0)
    pole = np.abs(den) < _POLE_TOL
    if pole.any():
        raise DomainError(f"R_s pole at lambda = {offending(lam, pole)}")
    amplitude = cmath.exp(-1j * math.pi / 4.0) / den
    if abs(math.pi - spec.xi) < 1e-14:
        return amplitude  # the phase integrand vanishes identically at z = 1/2
    phase = lookup_by_line(_rs_phase_on_line, _rs_phase_cached, lam, spec.xi)
    return amplitude * np.exp(1j * phase)


def soliton_amplitudes(lam, spec: ModelSpec) -> Tuple:
    """Soliton reflection amplitudes (flip, diag) of either model: the
    charge-flipping R_+-^-+ and the charge-preserving R_+-^+-, both even
    under charge parity.  Boundary sine-Gordon: i e^{(p-1) lambda/2} R_s and
    e^{-(p-1) lambda/2} R_s from one R_s.  Kondo: a unimodular flip
    amplitude, and a charge-preserving entry that vanishes (an exact 0j).
    Elementwise on arrays."""
    lam = np.asarray(lam, dtype=complex)
    if spec.is_kondo:
        e = np.exp(lam)
        den = e + 1j
        pole = np.abs(den) < _POLE_TOL
        if pole.any():
            raise DomainError(
                f"Kondo soliton reflection pole at lambda = {offending(lam, pole)}"
            )
        flip = cmath.exp(1j * math.pi / (4.0 * spec.z)) * (e - 1j) / den
        return flip, np.zeros(lam.shape, dtype=complex)[()]
    outside = np.abs(lam.imag) > math.pi + 1e-12
    if outside.any():
        raise DomainError(
            f"|Im lambda| > pi unsupported (got {offending(lam.imag, outside)})"
        )
    pm1 = spec.p - 1.0
    rs = r_s(lam, spec)  # refuses where e^{+-(p - 1) lambda/2} would overflow
    return 1j * np.exp(pm1 * lam / 2.0) * rs, np.exp(-pm1 * lam / 2.0) * rs


def r_bsg_breather(lam, m: int, spec: ModelSpec):
    """Diagonal breather-m reflection amplitude of the boundary sine-Gordon
    model: the m-fold fusion of R_1(lambda) = tanh(lambda/2 - i pi/4),

        R_m(lambda) = prod_{k=1..m} R_1(lambda + i xi (m + 1 - 2k)/2),

    the boundary bootstrap for a bound state of m breathers 1 (Ghoshal &
    Zamolodchikov, Int. J. Mod. Phys. A 9 (1994) 3841); unimodular on real
    rapidities.  Elementwise on arrays."""
    check_breather(m, spec)
    base = np.asarray(lam, dtype=complex) / 2.0 - 1j * math.pi / 4.0
    out = 1.0 + 0.0j
    for k in range(1, m + 1):
        out = out * np.tanh(base + 0.25j * spec.xi * (m + 1 - 2 * k))
    return out


def r_kondo_breather(lam, m: int, spec: ModelSpec):
    """Diagonal breather-m reflection amplitude of the Kondo model,
    elementwise."""
    check_breather(m, spec)
    lam = np.asarray(lam, dtype=complex)
    num = np.tanh(lam / 2.0 - 1j * spec.xi * m / 4.0)
    den = np.tanh(lam / 2.0 + 1j * spec.xi * m / 4.0)
    pole = np.abs(den) < _POLE_TOL
    if pole.any():
        raise DomainError(
            f"Kondo breather reflection pole at lambda = {offending(lam, pole)}"
        )
    return num / den


def r_breather(lam, m: int, spec: ModelSpec):
    """Diagonal breather-m reflection amplitude R_m^m(lambda) of either
    model, elementwise."""
    if spec.is_bsg:
        return r_bsg_breather(lam, m, spec)
    return r_kondo_breather(lam, m, spec)


def _amplitude_pair(lam1, lam2, spec: ModelSpec) -> Tuple:
    """soliton_amplitudes at lam1 and at lam2 from one call on the stacked
    rapidities (one R_s, one phase lookup for both): (flip1, diag1, flip2,
    diag2), each of the broadcast shape of lam1 and lam2.  A refusal names
    the first offending point of lam1, then of lam2."""
    lams = np.stack(np.broadcast_arrays(np.asarray(lam1, complex), np.asarray(lam2, complex)))
    flip, diag = soliton_amplitudes(lams, spec)
    return flip[0], diag[0], flip[1], diag[1]


def soliton_pair_bracket(lam1, lam2, spec: ModelSpec, sign: int = -1):
    """Reflection combination of an outgoing soliton-antisoliton pair:
    exp(-i pi/2z) R_+^-(l1) R_-^+(l2) + sign * exp(+i pi/2z) R_+^+(l1) R_+^+(l2).

    sign = -1 for a pair that reflects as a whole; sign = +1 for pair lines
    that straddle the photon vertices.  The Kondo diagonal entry vanishes, so
    the sign only matters for the boundary sine-Gordon model.  Elementwise
    on arrays, as is `soliton_split_bracket`; both read the amplitudes of
    their two rapidities from one `soliton_amplitudes` call.
    """
    phase = cmath.exp(-1j * math.pi / (2.0 * spec.z))
    flip1, diag1, flip2, diag2 = _amplitude_pair(lam1, lam2, spec)
    if spec.is_kondo:
        return phase * flip1 * flip2
    flip = phase * (flip1 * flip2)
    diag = diag1 * diag2 / phase
    return flip + diag if sign > 0 else flip - diag


def soliton_split_bracket(lam_in, lam_out, spec: ModelSpec):
    """Reflection combination of a soliton pair split across the photon
    vertices, with the absorbed member conjugated:
    conj(R_+^-(l_in)) R_+^-(l_out) - conj(R_+^+(l_in)) R_+^+(l_out).

    No channel phases survive: the direct line's own factors cancel by
    boundary unitarity.
    """
    flip_in, diag_in, flip_out, diag_out = _amplitude_pair(lam_in, lam_out, spec)
    return flip_in.conjugate() * flip_out - diag_in.conjugate() * diag_out
