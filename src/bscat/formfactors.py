"""Massless-limit form factors of the right-moving current operator.

Special functions (the Gamma-product/residual-integral function e^{I(lambda)},
the constant c, the pair function zeta, the breather minimal function F, the
contour function H), the explicit form factors f_{+-}, f_m, f_{111}, f_{12},
f_{+-1}, the excitation-set integrals of the reflection coefficient
and, from the same integrals, the free-theory truncation weights r0.  The
overall constant of f_{12} is 2 F(i xi), the value that the fusion of
f_{111} at its breather-2 pole fixes.

Conventions: rapidity lambda parameterizes the energy e^lambda of a unit-mass
excitation; breather arguments are pre-shifted by -log(mass ratio) by callers.
All form factors carry Lorentz spin 1: f(lambda + a) = e^a f(lambda).

The residual integrals of e^{I} and of F run on
`quadrature.integrate_semi_infinite`: equal GK15 panels whose
lambda-independent kernel is tabulated once per (xi, N, panel layout), so
that each call evaluates only sin^2(w x) on the first n panels, one call
for all the points of a table panel or of an array's line (a family sized
by its largest |Re w|), and so do the constants c and F(-i pi), from the
N = 0 kernels.  n reaches the point
where the integrand's exponential bound falls below 1e-16.  The panel width is
0.35 of the distance to the kernel's nearest pole (min(1, 2 pi/xi) for
e^{I}, 1/2 for F), halved until a panel spans at most 2 radians of
hypot(|2 Re w|, decay + 4 |Im w|) x.  The rule raises ToleranceNotMet if
its G7 error estimate exceeds 1e-12, or if more than 4096 panels would be
needed.  e^{I} calls that rule only to build tables.  Per (xi, Im lambda)
line, the whole exponent of e^{I} -- the residual at N = 2 plus its Gamma
product with every term near the poles of Gamma shifted up by the
recurrence (`_exp_i_fold`) -- is tabulated in Re lambda >= 0 with 21
Chebyshev points (degree 20) per panel, each built on first use, with its
Gamma product in one call of the numpy `_loggamma`, and checked against the
direct sum to 1e-12 absolute at its 20 interior midpoints
(`quadrature.ChebyshevTable`).  The panel width follows from the strip of
analyticity about the line (`quadrature.strip_panel_width`), halved on a
line whose panel 0 misses its check.  A lookup adds
the logs of the few linear factors the shifts shed, precomputed per line.
The contour
function H is exactly -[t^{2p-5}] prod (e^{-c/2} + t e^{c/2}) (see `bigH`).
The breather couplings are the closed-form residues of the soliton-antisoliton
S-matrix at the breather poles (`_breather_coupling_arg`).

Every special function and form factor takes arrays of rapidities and works
elementwise, so that the nodes of a quadrature call are one call, and a
function's several arguments of one kind can be stacked into one call
(f_{+-1}'s five zeta are one); a strip, pole or overflow refusal names
the first offending point.  e^{I} reads an
array line by line, one vectorised table lookup per distinct Im lambda
(`_exp_i_on_line`: missing panels built in ascending order, coefficient
rows gathered by one index, the series summed in one pass), and a number
through the memo `_exp_i_cached`, the scalar entry of the same lookup.  F
reads an array line by line too (`_bigf_on_line`: its Gamma-product head
vectorised, its tail one family integral), and a number
through its memo `_bigf_cached`.  zeta(-i theta^(1)), f_{+-1}'s
one spec-dependent zeta factor, is computed once per spec (`_f_pm1_zeta`).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, ToleranceNotMet, offending
from .model import ModelSpec, breather_mass, check_breather, line_shifts
from .quadrature import (
    ChebyshevTable,
    adaptive_1d,
    integrate_semi_infinite,
    integrate_simplex,
    lookup_by_line,
    strip_panel_width,
)

TWO_PI = 2.0 * math.pi
# the e^{I} tables: Gamma-product truncation
_TABLE_N = 2
_EPS = float(np.finfo(float).eps)
_STRIP_TOL = 1e-9


def theta_m(m: int, spec: ModelSpec) -> float:
    """Fusion angle of breather m: theta^(m) = pi - xi m."""
    return math.pi - spec.xi * m


def _check_strip(*diffs) -> None:
    for d in diffs:
        outside = np.abs(np.imag(d)) > TWO_PI + _STRIP_TOL
        if np.any(outside):
            raise DomainError(
                f"rapidity difference {offending(d, outside)} outside the "
                "analyticity strip |Im| <= 2 pi"
            )


# ---------------------------------------------------------------------------
# log Gamma

# B_2k / (2k (2k - 1)), k = 1..8: the Stirling series of log Gamma, whose
# ninth term is below 2e-17 at |z| >= _STIRLING_MIN
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)
_STIRLING_MIN = 10.0
_LOG_TWO_PI = math.log(TWO_PI)


def _loggamma(z):
    """The principal branch of log Gamma(z), elementwise on finite z off
    the poles; real input (x > 0) returns the real log Gamma(x), from
    math.lgamma.

    For Re z >= 1/2 the argument is shifted up to Re z >= 10 by the
    recurrence, log Gamma(z) = log Gamma(z + m) - sum_{i<m} log(z + i),
    and the 8-term Stirling series gives log Gamma(z + m).  The shed
    factors are multiplied in pairs on a 2-D array before their logs are
    summed: each has Re > 0, so a pair's argument stays inside (-pi, pi)
    and the principal logs add up to the principal branch.  For Re z < 1/2
    the reflection formula with its branch correction (Hare, "Computing the
    principal branch of log-Gamma", J. Algorithms 25 (1997) 221) reads
    log Gamma(1 - z): in Im z >= 0,

        log Gamma(z) = log(2 pi) - i pi/2 + i pi z - log(1 - e^{2 pi i z})
                       - log Gamma(1 - z),

    both sides analytic in the upper half-plane and equal at z = 1/2, and
    log Gamma(conj z) = conj log Gamma(z) below it.  1 - e^{2 pi i z} is
    taken by expm1 with Re z reduced to [-1/2, 1/2], so that its log stays
    accurate next to the poles."""
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        return np.vectorize(math.lgamma, otypes=[float])(z)
    reflect = z.real < 0.5
    w = np.where(reflect, 1.0 - z, z)
    shifts = np.maximum(0.0, np.ceil(_STIRLING_MIN - w.real))
    steps = np.arange(2 * math.ceil(0.5 * np.max(shifts, initial=0.0)))
    factors = np.where(steps < shifts[..., None], w[..., None] + steps, 1.0)
    shed = np.sum(np.log(factors[..., 0::2] * factors[..., 1::2]), axis=-1)
    w = w + shifts
    r = 1.0 / w
    r2 = r * r
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * r2 + c
    out = (w - 0.5) * np.log(w) - w + 0.5 * _LOG_TWO_PI + series * r - shed
    if np.any(reflect):
        out = np.array(out)
        zr = z[reflect]
        upper = np.where(zr.imag < 0.0, zr.conjugate(), zr)
        branch = (
            _LOG_TWO_PI
            - 0.5j * math.pi
            + 1j * math.pi * upper
            - np.log(-np.expm1(TWO_PI * 1j * (upper - np.round(upper.real))))
        )
        branch = np.where(zr.imag < 0.0, branch.conjugate(), branch)
        out[reflect] = branch - out[reflect]
    return out


# ---------------------------------------------------------------------------
# e^{I(lambda)} and derived pair functions


def _exp_i_residual(lam, xi: float, N: int):
    """The residual integral of I(lambda) left by the N-term Gamma product,
    on the panel rule, at a complex lambda or, as one family, at each of an
    array of lambda on one line Im lambda = const; zero at xi = pi, where
    its kernel vanishes."""
    w = (lam + 1j * math.pi) / 2.0
    return integrate_semi_infinite(
        _exp_i_kernel,
        (xi, N),
        w,
        2,
        _exp_i_decay(float(np.ravel(np.imag(lam))[0]), xi, N),
        # nearest kernel poles: sinh(pi x), cosh(pi x/2) at i, sinh(xi x/2) at 2 pi i/xi
        min(1.0, TWO_PI / xi),
        tol=1e-12,
    ).value


def _exp_i_decay(lam_i: float, xi: float, N: int) -> float:
    """Decay rate of the residual integrand at Im lambda = lam_i; raises
    DomainError where the integral diverges."""
    decay = 2.0 * N * math.pi + min(xi + math.pi, TWO_PI) - abs(lam_i + math.pi)
    if decay <= 0.0:
        raise DomainError(
            f"exp_I residual integral diverges at Im lambda = {lam_i} (N = {N})"
        )
    return decay


def _exp_i_log_terms(lam, xi: float, N: int, shifts=0.0) -> np.ndarray:
    """weight_j loggamma(offset_j + shifts_j + slope_j u), u = i lambda/pi,
    for each lambda of the array `lam` (rows) and term j (columns): the
    terms of the N-term Gamma product of e^{I(lambda)}, in one loggamma
    call; with `shifts`, each argument raised by shifts_j (the sum a line's
    table holds, see `_exp_i_fold`)."""
    offsets, slopes, weights, _ = _exp_i_product_terms(xi, N)
    lam = np.asarray(lam, dtype=complex)[..., None]
    # u as the scalar i lambda/pi rounds it, each part divided by pi
    u = -lam.imag / math.pi + 1j * (lam.real / math.pi)
    return weights * _loggamma(offsets + shifts + slopes * u)


def _exp_i_log_product(lam, xi: float, N: int, shifts=0.0):
    """Log of the N-term Gamma product of e^{I(lambda)} at each lambda of
    `lam`, with its arguments raised by `shifts` (`_exp_i_log_terms`)."""
    const = _exp_i_product_terms(xi, N)[3]
    return np.sum(_exp_i_log_terms(lam, xi, N, shifts), axis=-1) + const


def _exp_i_direct(lam: complex, xi: float, N: int) -> complex:
    """e^{I(lambda)} from the N-term Gamma product and the residual
    integral, without the table: the reference the table is checked
    against, N-independent for N >= 1."""
    return cmath.exp(_exp_i_residual(lam, xi, N) + _exp_i_log_product(lam, xi, N))


# factors of the fold whose constant part is this close to 0 vanish at
# Re lambda = 0 (their line passes through a zero or pole of e^{I}); the
# product terms' offsets are multiples of pi/xi plus integers, so on the
# lines that carry those points the constant is 0 up to rounding
_ZERO_FACTOR = 1e-12


@lru_cache(maxsize=256)
def _exp_i_fold(
    xi: float, lam_i: float
) -> Tuple[np.ndarray, Tuple[Tuple[float, float], ...], float, float]:
    """The Gamma product on the line Im lambda = lam_i, folded by the
    recurrence loggamma(z) = loggamma(z + m) - sum_{i<m} log(z + i).

    On the line a term's argument z_j = offset_j + slope_j u (u = i lambda/
    pi) has the constant real part r_j.  A term with r_j < delta, delta =
    2 max(1, 1/xi), passes close to the poles of Gamma, and its loggamma
    jumps by 2 pi i at Re lambda = 0 where r_j < 0; it is shifted by the
    least m_j with r_j + m_j >= delta.  Every linear factor z_j + i it
    sheds is b + i (slope_j/pi) Re lambda; written with slope +pi/xi (a
    factor of slope -pi/xi is -1 times one), factors with the same b are
    merged, and those whose weights cancel are dropped: the removable
    singularities of e^{I} cancel exactly.  Returns (shifts, factors,
    sign, half-width): the m_j; the pairs (b, weight) left, each
    contributing -weight log(b + i Re lambda/xi) to the exponent; the sign
    (-1)^k the flipped factors leave; and the half-width of the strip about
    the line in which the shifted loggamma sum is analytic, xi min_j
    (r_j + m_j).
    """
    offsets, slopes, weights, _ = _exp_i_product_terms(xi, _TABLE_N)
    delta = 2.0 * max(1.0, 1.0 / xi)
    # as _exp_i_log_terms rounds it, so that a factor vanishing on the
    # line is the same number as the loggamma argument there
    real = (offsets + slopes * (1j * complex(0.0, lam_i) / math.pi)).real
    shifts = np.maximum(0.0, np.ceil(delta - real))
    merged: list = []  # [b, weight]
    flips = 0
    for r, slope, weight, m in zip(real, slopes, weights, shifts):
        sign = 1.0 if slope > 0.0 else -1.0
        for i in range(int(m)):
            b = sign * (r + i)
            for entry in merged:
                if abs(entry[0] - b) <= _ZERO_FACTOR:
                    entry[1] += weight
                    break
            else:
                merged.append([b, weight])
            if sign < 0.0:
                flips += int(weight)
    factors = tuple((b, w) for b, w in sorted(merged) if w != 0.0)
    return shifts, factors, -1.0 if flips % 2 else 1.0, xi * float(np.min(real + shifts))


@lru_cache(maxsize=256)
def _exp_i_line(xi: float, lam_i: float) -> ChebyshevTable:
    """The folded exponent of e^{I} along Im lambda = lam_i, tabulated in
    Re lambda >= 0 on panels sized by its strip of analyticity: the shifted
    Gamma terms' strip, bounded by the residual's.

    A panel takes one builder call on its 41 points: one residual integral
    for all of them (a family), and the Gamma product at all of them in one
    loggamma call on a 41 x 16 array (16 terms at N = 2).

    The panels are checked to 1e-12 absolute, or to the rounding of the
    loggamma sum, 2 eps sum_j |w_j loggamma(z_j + m_j)|, where that is
    larger: at small z the terms reach loggamma(1 + 3 pi/xi) and cancel to
    a moderate exponent (at z = 0.125 the rounding passes 1e-12 past
    |Re lambda| ~ 25, at z = 0.05 everywhere).

    The width is fixed here, so that no value depends on the order of the
    lookups: panel 0, [0, width], is built at once, and if it misses its
    check the line is tabulated at half the width.  That happens where the
    width is 1.40-1.50 strip half-widths, next to `strip_panel_width`'s cap
    of 1.5 (on some lines at z = 0.30, 0.46, 0.61-0.64, 0.66-0.68, 0.71 and
    0.72), and leaves 0.70-0.75 half-widths there."""
    shifts, _, _, half_width = _exp_i_fold(xi, lam_i)
    half_width = min(half_width, _exp_i_decay(lam_i, xi, _TABLE_N))

    def exponent(lam_r: np.ndarray) -> np.ndarray:
        lam = lam_r + 1j * lam_i
        return _exp_i_residual(lam, xi, _TABLE_N) + _exp_i_log_product(lam, xi, _TABLE_N, shifts)

    def rounding(lam_r: float) -> float:
        terms = _exp_i_log_terms(complex(lam_r, lam_i), xi, _TABLE_N, shifts)
        return 2.0 * _EPS * float(np.sum(np.abs(terms)))

    width = strip_panel_width(half_width)
    table = ChebyshevTable(exponent, width, rounding=rounding)
    try:
        table(0.0)
    except ToleranceNotMet:
        table = ChebyshevTable(exponent, 0.5 * width, rounding=rounding)
    return table


@lru_cache(maxsize=400_000)
def _exp_i_cached(lam_r: float, lam_i: float, xi: float) -> complex:
    """The scalar entry of `_exp_i_on_line`, memoised."""
    return complex(_exp_i_on_line(np.array([lam_r]), lam_i, xi)[0])


def _exp_i_on_line(lam_r: np.ndarray, lam_i: float, xi: float) -> np.ndarray:
    """e^{I(lam_r + i lam_i)} at each element of the array `lam_r`: one
    lookup of the line's table, then the logs of the fold's linear factors.

    e^{I(-conj lambda)} = conj e^{I(lambda)}: the table holds Re lambda >= 0.
    At Re lambda = 0 a factor of the fold may vanish: the first such factor
    makes the value an exact 0 (a zero) or raises DomainError (a pole)."""
    _, factors, sign, _ = _exp_i_fold(xi, lam_i)
    x = np.abs(lam_r)
    exponent = _exp_i_line(xi, lam_i)(x)
    at_zero = x == 0.0
    vanishing = [weight for b, weight in factors if abs(b) <= _ZERO_FACTOR]
    zero = at_zero if vanishing and at_zero.any() else None
    if zero is not None:
        if vanishing[0] > 0.0:
            lam = complex(offending(lam_r, zero), lam_i)
            raise DomainError(f"e^I has a pole at lambda = {lam} (xi = {xi})")
        x = np.where(zero, 1.0, x)  # its value is set to 0 below
    slope = x / xi
    for b, weight in factors:
        exponent = exponent - weight * np.log(b + 1j * slope)
    with np.errstate(over="ignore", invalid="ignore"):
        value = sign * np.exp(exponent)
    overflow = np.isfinite(exponent) & ~np.isfinite(value)
    if overflow.any():
        lam = complex(offending(lam_r, overflow), lam_i)
        raise DomainError(
            f"e^I overflows at lambda = {lam} (xi = {xi}): exponent "
            f"{offending(exponent, overflow):.4g}"
        )
    if zero is not None:
        value[zero] = 0.0
    return np.where(lam_r < 0.0, value.conjugate(), value)


def _exp_i_kernel(x: np.ndarray, xi: float, N: int) -> np.ndarray:
    """The residual kernel of I(lambda) without its sin^2(w x) factor,

        e^{-2 N pi x} (1 + N - N e^{-2 pi x}) sinh((pi - xi) x/2)
        / (x sinh(xi x/2) sinh(pi x) cosh(pi x/2)),

    written with decaying exponentials only, so that it neither overflows
    nor cancels at any x > 0."""
    a = 0.5 * abs(math.pi - xi)
    b = 0.5 * xi
    rate = 2.0 * N * math.pi + b + 1.5 * math.pi - a
    return (
        math.copysign(4.0, math.pi - xi)
        * np.exp(-rate * x)
        * (1.0 + N - N * np.exp(-TWO_PI * x))
        * -np.expm1(-2.0 * a * x)
        / (x * np.expm1(-2.0 * b * x) * np.expm1(-TWO_PI * x) * (1.0 + np.exp(-math.pi * x)))
    )


@lru_cache(maxsize=64)
def _exp_i_product_terms(xi: float, N: int):
    """The N-term Gamma product of e^{I} as sum_j weight_j loggamma(offset_j
    + slope_j u) + const, u = i lambda/pi: factor k of the product carries
    exponent k, four Gamma functions in its numerator and four in its
    denominator."""
    a = math.pi / xi
    k = np.arange(1, N + 1, dtype=np.float64)
    offsets = np.concatenate(
        [
            1.0 + a * (2 * k + 1),
            a * (2 * k + 1),
            a * (2 * k - 1),
            1.0 + a * (2 * k - 1),
            1.0 + a * 2 * k,
            a * (2 * k + 2),
            a * 2 * k,
            1.0 + a * (2 * k - 2),
        ]
    )
    slopes = a * np.repeat([-1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0], N)
    weights = np.concatenate([k, k, k, k, -k, -k, -k, -k])
    const = 2.0 * float(
        np.sum(
            k
            * (
                _loggamma(a * (2 * k + 1))
                + _loggamma(1.0 + a * (2 * k - 1))
                - _loggamma(2 * k * a)
                - _loggamma(1.0 + 2 * k * a)
            )
        )
    )
    return offsets, slopes, weights, const


def exp_I(lam, spec: ModelSpec):
    """The pair special function e^{I(lambda)}, elementwise on an array.

    One table lookup of the whole exponent per line Im lambda = const: the
    residual integral left by the N = 2 Gamma product plus that product,
    each of its terms whose argument comes within delta = 2 max(1, 1/xi) of
    the poles of Gamma shifted up by the recurrence (`_exp_i_fold`).  The
    sum is analytic in a strip about the line and is read from a table of
    degree-20 Chebyshev panels in Re lambda >= 0, sized by that strip, each
    built on first use and checked against the direct sum to 1e-12 absolute
    at its 20 interior midpoints (`quadrature.ChebyshevTable`).  A lookup
    then subtracts the logs of the linear factors the shifts shed; factors
    shared by numerator and denominator cancel when the line is set up.
    e^{I} has its zeros and poles at Re lambda = 0 on some lines, where a
    factor vanishes: a zero returns exactly 0, a pole raises DomainError.
    e^{I(-conj lambda)} = conj e^{I(lambda)} gives Re lambda < 0.

    At xi = pi (z = 1/2) e^{I} is identically 1: the Gamma product cancels
    term by term and the residual's kernel vanishes.  That point is answered
    here, before the cache and the tables.

    A number is looked up through the memo `_exp_i_cached`, an array line
    by line (`quadrature.lookup_by_line`: one `_exp_i_on_line` per distinct
    Im lambda); both read the tables through the same vectorised lookup.
    """
    if abs(math.pi - spec.xi) < 1e-14:
        return np.ones(np.shape(lam), dtype=complex)[()]
    return lookup_by_line(_exp_i_on_line, _exp_i_cached, lam, spec.xi)


@lru_cache(maxsize=64)
def c_const(spec: ModelSpec) -> float:
    """Normalization constant c (positive real branch)."""
    # log c = log|4 - 4p|/4 + 1/4 int sinh(pi x/2) sinh((pi - xi) x/2) / (x
    # sinh(xi x/2) cosh(pi x/2)^2) dx, a kernel -2 sin(i pi x/2)^2 times I's at
    # N = 0: the integral is -2 I(0) (w = i pi/2), and c^4 e^{2 I(0)} = |4 - 4p|
    residual = _exp_i_residual(0j, spec.xi, 0).real
    return abs(4.0 - 4.0 * spec.p) ** 0.25 * math.exp(-0.5 * residual)


def zeta(lam, spec: ModelSpec):
    """zeta(lambda) = c sinh(lambda/2) e^{I(lambda)}, elementwise."""
    lam = np.asarray(lam, dtype=complex)
    return c_const(spec) * np.sinh(lam / 2.0) * exp_I(lam, spec)


def f_pm(l1, l2, spec: ModelSpec):
    """Soliton-antisoliton form factor f_{+-}(l1, l2); f_{-+} = -f_{+-}.
    Elementwise on arrays; a refusal names the first offending point."""
    l1, l2 = np.asarray(l1, dtype=complex), np.asarray(l2, dtype=complex)
    d = l1 - l2
    _check_strip(d)
    half = (spec.p - 1.0) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        sh = np.sinh(d / 2.0)
        ch = np.cosh(half * (d + 1j * math.pi))
    # |Re d| (p - 1)/2 past ~710: reached at small z, e.g. z = 0.005 with
    # |Re d| > 7.1
    overflow = np.isfinite(d) & ~(np.isfinite(sh) & np.isfinite(ch))
    if overflow.any():
        raise DomainError(
            f"f_pm overflows at lambda1 - lambda2 = {offending(d, overflow)} (z = {spec.z})"
        )
    pole = np.abs(ch) < 1e-9
    if pole.any():
        breather = pole & ~(np.abs(sh) < 1e-9)
        if breather.any():
            raise DomainError(
                f"f_pm breather pole at lambda1 - lambda2 = {offending(d, breather)}; "
                "use the residue-based breather form factors instead"
            )
        # removable 0/0 at coinciding rapidities (even p): L'Hopital
        sh = np.where(pole, np.cosh(d / 2.0), sh)
        ch = np.where(pole, 2.0 * half * np.sinh(half * (d + 1j * math.pi)), ch)
    ratio = sh / ch
    return (
        TWO_PI
        * np.exp((l1 + l2) / 2.0)
        * ratio
        * exp_I(d, spec)
        / math.sqrt(2.0 * spec.z)
    )


# ---------------------------------------------------------------------------
# Single-breather form factors


def _breather_coupling_arg(m: int, spec: ModelSpec) -> float:
    """(xi/pi) sin(pi^2/xi) S0(i theta^(m)) for odd m, the only m whose form
    factors need it: the residue 2 cot(m xi/2) prod_{j<m} cot^2(j xi/2) of
    the soliton-antisoliton S-matrix at the breather-m pole (Babujian, Fring,
    Karowski & Zapletal, Nucl. Phys. B 538 (1999) 535) at every xi, and its
    limit at integer p, where S0 has a pole there.  At even m the S0
    expression has the opposite sign."""
    xi = spec.xi
    res = 2.0 * (1.0 / math.tan(xi * m / 2.0))
    for j in range(1, m):
        res *= (1.0 / math.tan(xi * j / 2.0)) ** 2
    return res


@lru_cache(maxsize=256)
def _f_breather1_const(m: int, spec: ModelSpec) -> complex:
    th = theta_m(m, spec)
    denom_arg = 2.0 * spec.z * _breather_coupling_arg(m, spec)
    sign = (-1.0) ** ((m - 1) // 2)
    return (
        4.0
        * spec.xi
        * sign
        * math.sin(th / 2.0)
        * exp_I(-1j * th, spec)
        / cmath.sqrt(complex(denom_arg))
    )


def f_breather1(m: int, lam, spec: ModelSpec):
    """Single-breather form factor f_m(lambda), elementwise; zero for even m."""
    check_breather(m, spec)
    if m % 2 == 0:
        return np.zeros(np.shape(lam), dtype=complex)[()]
    return _f_breather1_const(m, spec) * np.exp(np.asarray(lam, dtype=complex))


# ---------------------------------------------------------------------------
# Breather minimal function F and multi-breather form factors


@lru_cache(maxsize=64)
def _bigf_prefactor(xi: float) -> float:
    """F(-i pi) = exp int_0^inf 4 sinh(pi x) sinh(xi x) sinh((pi + xi) x)
    / (x sinh(2 pi x)^2) dx, whose kernel is -1/2 the N = 0 tail kernel."""
    tail = integrate_semi_infinite(
        _bigf_tail_kernel, (xi, 0), 0.0, 0, TWO_PI - 2.0 * xi, 0.5, tol=1e-12
    )
    return math.exp(-0.5 * tail.value.real)


def _bigf_tail_kernel(x: np.ndarray, xi: float, N: int) -> np.ndarray:
    """The tail kernel of log F without its sin^2(w x) factor,

        -8 e^{-4 pi N x} (1 + N - N e^{-4 pi x}) sinh(pi x) sinh(xi x)
        sinh((pi + xi) x) / (x sinh(2 pi x)^2),

    written with decaying exponentials only."""
    rate = TWO_PI - 2.0 * xi + 4.0 * math.pi * N
    e4 = np.expm1(-2.0 * TWO_PI * x)
    return (
        4.0
        * np.exp(-rate * x)
        * (1.0 + N - N * np.exp(-2.0 * TWO_PI * x))
        * np.expm1(-TWO_PI * x)
        * np.expm1(-2.0 * xi * x)
        * np.expm1(-2.0 * (math.pi + xi) * x)
        / (x * e4 * e4)
    )


@lru_cache(maxsize=400_000)
def _bigf_cached(lam_r: float, lam_i: float, xi: float, N: int) -> complex:
    """The scalar entry of `_bigf_on_line`, memoised."""
    return complex(_bigf_on_line(np.array([lam_r]), lam_i, xi, N)[0])


def _bigf_head(lam: np.ndarray, xi: float, N: int) -> Tuple[np.ndarray, np.ndarray]:
    """The log of the first N factors of F's Gamma product at each element
    of the array `lam`, and where the product is an exact 0.

    The N factors are built at once as (N,) + lam.shape arrays, one row
    per k, and their logs added in k order.  A point where a numerator
    vanishes at an earlier k than any denominator is a zero (its log is
    then not used); one where a denominator vanishes first, or at the same
    k, raises DomainError, naming the first point of the earliest such k."""
    u = 0.5j + lam / TWO_PI
    u2 = u * u
    xh = xi / TWO_PI
    k = np.arange(1.0, N + 1.0).reshape((N,) + (1,) * lam.ndim)
    num = (
        (1.0 + u2 / (k - 0.5) ** 2) * (1.0 + u2 / (k + 0.5 + xh) ** 2) * (1.0 + u2 / (k - xh) ** 2)
    )
    den = (
        (1.0 + u2 / (k + 0.5) ** 2) * (1.0 + u2 / (k - 0.5 - xh) ** 2) * (1.0 + u2 / (k + xh) ** 2)
    )
    # the row (k - 1) at which a numerator or a denominator first vanishes,
    # N where none does
    first_zero = _first_row(np.abs(num) < 1e-280)
    first_pole = _first_row(np.abs(den) < 1e-280)
    pole = first_pole < np.minimum(first_zero + 1, N)
    if pole.any():
        earliest = pole & (first_pole == first_pole[pole].min())
        raise DomainError(f"F(lambda) pole at lambda = {offending(lam, earliest)}")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = k * np.log(num / den)
    prod = np.zeros(lam.shape, dtype=complex)
    for row in terms:
        prod += row
    return prod, first_zero < N


def _first_row(mask: np.ndarray) -> np.ndarray:
    """The index of the first row of `mask` that holds in each column, the
    number of rows where none does."""
    return np.where(mask.any(axis=0), np.argmax(mask, axis=0), mask.shape[0])


def _bigf_on_line(lam_r: np.ndarray, lam_i: float, xi: float, N: int) -> np.ndarray:
    """F(lam_r + i lam_i) at each element of the array `lam_r`: N factors of
    its Gamma product (`_bigf_head`) times the exponential of the integral
    of the rest, one family on the line; N-independent for N >= 1.  A point
    where a factor's numerator vanishes before any denominator does is an
    exact 0; one where a denominator vanishes first raises DomainError."""
    lam = lam_r + 1j * lam_i
    prod, zero = _bigf_head(lam, xi, N)
    w = lam + 1j * math.pi
    tail = integrate_semi_infinite(
        _bigf_tail_kernel,
        (xi, N),
        w,
        2,
        TWO_PI - 2.0 * xi + 4.0 * math.pi * N - 2.0 * abs(math.pi + lam_i),
        0.5,  # nearest kernel pole: sinh(2 pi x)^2 at i/2
        tol=1e-12,
    ).value
    with np.errstate(invalid="ignore"):
        value = _bigf_prefactor(xi) * np.exp(prod + tail)
    return np.where(zero, 0.0, value)


def bigF(lam, spec: ModelSpec):
    """Minimal breather-pair function F(lambda), elementwise, with its
    Gamma product cut at N = 10 factors.  A number goes through the memo
    `_bigf_cached`; an array line by line (`quadrature.lookup_by_line`),
    one `_bigf_on_line` per distinct Im lambda: a vectorised Gamma-product
    head and one family tail integral."""
    return lookup_by_line(_bigf_on_line, _bigf_cached, lam, spec.xi, 10)


@lru_cache(maxsize=64)
def _cube_bracket(xi: float) -> float:
    """[sqrt(2 sin(xi/2)) exp(-int_0^xi x dx / (2 pi sin x))]^3; the GK15
    nodes are interior, so x = 0 is never sampled."""
    integral = adaptive_1d(
        lambda x: x / (TWO_PI * np.sin(x)), 0.0, xi, 1e-12
    ).value.real
    return (math.sqrt(2.0 * math.sin(xi / 2.0)) * math.exp(-integral)) ** 3


def f_111(l1, l2, l3, spec: ModelSpec):
    """Three breather-1 form factor f_{111}(l1, l2, l3), elementwise."""
    if spec.n_breathers < 1:
        raise DomainError(f"no breathers at z = {spec.z}")
    lams = [np.asarray(l, dtype=complex) for l in (l1, l2, l3)]
    l1, l2, l3 = lams
    _check_strip(l1 - l2, l1 - l3, l2 - l3)
    xi = spec.xi
    e = [np.exp(l) for l in lams]
    # the -i normalizes the annihilation-pole residue at l3 = l2 + i pi to
    # -(1 - S_{11}(l2 - l1)) f_1(l1), as the pole axiom requires
    pref = (
        -8j
        * xi
        / math.sqrt(2.0 * spec.z)
        * math.cos(xi / 2.0) ** 2
        * _cube_bracket(xi)
    )
    out = pref * (e[0] + e[1] + e[2]) * e[0] * e[1] * e[2]
    for i in range(3):
        for j in range(i + 1, 3):
            den = e[i] + e[j]
            scale = np.maximum(np.maximum(np.abs(e[i]), np.abs(e[j])), 1.0)
            pole = np.abs(den) < 1e-14 * scale
            if pole.any():
                raise DomainError(
                    f"f_111 kinematic pole at e^l{i+1} + e^l{j+1} = 0 "
                    f"(l{i+1} = {offending(lams[i], pole)})"
                )
            out = out * (bigF(lams[i] - lams[j], spec) / den)
    return out


def f_12(l1, l2, spec: ModelSpec):
    """Breather-1/breather-2 form factor f_{12}(l1, l2), elementwise.

    The printed normalization divides by F(i(pi + xi)), a pole of F; the
    constant is 2 F(i xi) instead, the value the bound-state fusion axiom
    Res_{l3 = l2 + i xi} f_111(l1, l2, l3) = i kappa_2 f_12(l1, l2 + i xi/2)
    fixes (Smirnov 1992)."""
    if spec.n_breathers < 2:
        raise DomainError(f"f_12 requires two breathers (z = {spec.z})")
    l1, l2 = np.asarray(l1, dtype=complex), np.asarray(l2, dtype=complex)
    _check_strip(l1 - l2)
    xi = spec.xi
    e1, e2 = np.exp(l1), np.exp(l2)
    cs = math.cos(xi / 2.0)
    den = e1 * e1 + e2 * e2 + 2.0 * cs * e1 * e2
    scale = np.maximum(np.maximum(np.abs(e1 * e1), np.abs(e2 * e2)), 1.0)
    pole = np.abs(den) < 1e-14 * scale
    if pole.any():
        raise DomainError(f"f_12 kinematic pole at l1 - l2 = {offending(l1 - l2, pole)}")
    return (
        4j
        * xi
        * cs
        * cmath.sqrt(cmath.tan(xi))
        / math.sqrt(spec.z)
        * bigF(1j * xi, spec)
        * _cube_bracket(xi)
        * (e1 + 2.0 * cs * e2)
        * e1
        * e2
        / den
        * bigF(l1 - l2 + 0.5j * xi, spec)
        * bigF(l1 - l2 - 0.5j * xi, spec)
    )


# ---------------------------------------------------------------------------
# Four-particle sector (integer p)


def bigH(l1, l2, l3, l4, spec: ModelSpec):
    """Contour function H(l1..l4) over alpha in [-2 pi i, 0] (integer p
    only), elementwise.

    With the M = 4(p-2) constants c_{kj} = l_k + i pi j/(p-1) - i pi/4 and
    w = e^{-alpha}, each factor 2 sinh((alpha - c)/2) is
    w^{-1/2} (e^{-c/2} - w e^{c/2}), so the contour mean of w prod(...) is
    exactly its coefficient of w^s, s = M/2 - 1 = 2(p-2) - 1 (odd):
    H = -[t^s] prod (e^{-c/2} + t e^{c/2}).  Keeping e^{-c/2} and e^{c/2}
    together bounds every partial sum by the exact sum's largest term.
    """
    if spec.p_int is None:
        raise DomainError("H is defined for integer p only")
    p = spec.p_int
    if p == 2:
        return np.zeros(np.broadcast(l1, l2, l3, l4).shape, dtype=complex)[()]
    s = 2 * (p - 2) - 1
    e = [1.0 + 0.0j] + [0.0j] * s  # coefficients of t^0..t^s
    for l in (l1, l2, l3, l4):
        l = np.asarray(l, dtype=complex)
        for j in range(1, p - 1):
            half = 0.5 * (l + 1j * math.pi * j / (p - 1.0) - 0.25j * math.pi)
            a, b = np.exp(-half), np.exp(half)
            for i in range(s, 0, -1):
                e[i] = a * e[i] + b * e[i - 1]
            e[0] = e[0] * a
    return -e[s]


@lru_cache(maxsize=64)
def _f_pm1_zeta(spec: ModelSpec) -> complex:
    """zeta(-i theta^(1)), the one spec-dependent zeta factor of f_pm1."""
    return complex(zeta(-1j * theta_m(1, spec), spec))


def f_pm1(l1, l2, l3, spec: ModelSpec):
    """Soliton-antisoliton-breather1 form factor f_{+-1} (integer p only),
    elementwise."""
    if spec.p_int is None:
        raise DomainError("f_pm1 is implemented for integer p only")
    p = spec.p_int
    l1, l2, l3 = (np.asarray(l, dtype=complex) for l in (l1, l2, l3))
    if p == 2:
        return np.zeros(np.broadcast(l1, l2, l3).shape, dtype=complex)[()]
    _check_strip(l1 - l2, l1 - l3, l2 - l3)
    xi = spec.xi
    th = theta_m(1, spec)
    c = c_const(spec)
    res_s0 = _breather_coupling_arg(1, spec)  # S-matrix residue at breather 1
    # normalization and phase anchored by fusion consistency: fusing the
    # soliton pair of f_{+-+-} at the breather bound-state pole reproduces
    # this function with the same fusion constant that maps f_pm onto
    # f_breather1 (tests/pair_pair.py holds f_{+-+-})
    pref = (
        8.0j
        * math.pi**2
        / (c * c * xi * (p - 1.0))
        / cmath.sqrt(complex(2.0 * spec.z * res_s0))
    )
    pm1 = p - 1.0
    s31 = np.sinh(pm1 * (l3 - l1 + 0.5j * th))
    s23 = np.sinh(pm1 * (l2 - l3 + 0.5j * th))
    pole = np.minimum(np.abs(s31), np.abs(s23)) < 1e-12
    if pole.any():
        raise DomainError(
            "f_pm1 exchange pole (coinciding rapidities) at l3 - l1 = "
            f"{offending(l3 - l1, pole)}, l2 - l3 = {offending(l2 - l3, pole)}"
        )
    # zeta(l1 - l2)/sinh((p-1)(l2 - l1)) is finite at l1 = l2: the sinh zeros
    # cancel; take the analytic limit at exact coincidence (a midpoint
    # quadrature node can land there)
    d = l1 - l2
    # the five zeta of f_pm1 in one call: zeta is elementwise, and the
    # points l_k - l3 +- i theta/2 share their lines where Im l1 = Im l2
    args = np.broadcast_arrays(
        d, l1 - l3 - 0.5j * th, l1 - l3 + 0.5j * th, l2 - l3 - 0.5j * th, l2 - l3 + 0.5j * th
    )
    z = zeta(np.stack(args), spec)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio21 = z[0] / np.sinh(-pm1 * d)
    coincide = np.abs(d) < 1e-12
    if coincide.any():
        ratio21 = np.where(coincide, -c * exp_I(0.0, spec) / (2.0 * pm1), ratio21)
    zetas = z[1] * z[2] * z[3] * z[4] * _f_pm1_zeta(spec)
    h = bigH(l1, l2, l3 - 0.5j * th, l3 + 0.5j * th, spec)
    fusion = np.cosh(0.5 * pm1 * (d - 1j * math.pi))
    return (
        pref
        * fusion
        * np.exp((l1 + l2) / 2.0)
        * np.exp(l3)
        * ratio21
        * zetas
        * h
        / (s31 * s23)
    )


# ---------------------------------------------------------------------------
# The excitation sets of the reflection coefficient and their free-theory weights

# multi-particle sets: label -> per line, the breather whose mass ratio
# shifts the rapidity, 0 for a soliton line (decoded by `model.line_shifts`)
_SETS = {"pm": (0, 0), "12": (1, 2), "pm1": (0, 0, 1)}
# the one tolerance table of the set integrals: set_integral's default `tol`,
# by the set's number of lines, in the units of integrate_simplex (before the
# 1/((2 pi)^n n!) normalisation) and per unit of max(1, omega).  An r0 weight
# is its set's integral at omega = 1 with the reflection factor 1 and
# normalises that set's r(omega) term, so it is held to the term's own
# tolerance, about tol/(2 pi)^n: 1e-6 on "pm1" gives about 4e-9 (estimate
# 3.7e-9 at z = 1/3, where the weight is off a tol-1e-9 run by 8.2e-13)
_TOL_2D = 1e-9
_TOL_3D = 1e-6
_SET_FORM_FACTORS = {"pm": f_pm, "12": f_12, "pm1": f_pm1}
# a set's integrand holds |f|^2, which grows as omega^2 (the form factors
# carry spin 1), and the product of its n line energies, up to (omega/n)^n:
# an omega whose n-th power passes 1e-4 of the largest double is refused
# before either overflows (bsG and Kondo at z = 0.2 ... 0.75 gave their
# last finite rows at omega ~ 6e153 on two lines and 8e102 on three)
_MAX_SET_LOG_POWER = math.log(float(np.finfo(float).max)) - math.log(1e4)


def breather_weight(m: int, spec: ModelSpec) -> float:
    """Single-breather weight |f_m(0)|^2 / (2 pi mu_m^2)."""
    mu = breather_mass(m, spec)
    return abs(f_breather1(m, 0.0, spec)) ** 2 / (TWO_PI * mu * mu)


def set_integral(
    label: str,
    omega,
    spec: ModelSpec,
    tol: Optional[float] = None,
    reflection: Optional[Callable[..., complex]] = None,
):
    """n!/omega times the energy-simplex integral at total energy omega of
    reflection(l) |f(l)|^2 for the multi-particle set `label`, with
    l_k = log E_k - log(mass ratio of line k).  Without `reflection` the
    reflection factor is 1 (the free theory).  `omega` is a frequency, or
    an (m,) array of them, whose values are then an (m,) array.

    Each omega is held to its own tolerance, tol max(1, omega) on
    integrate_simplex's absolute scale (the integral before its
    1/((2 pi)^n n!) normalisation), so that the returned value is held to
    about tol max(1, omega)/((2 pi)^n omega), n the number of lines;
    integrate_simplex spends half of it on the outer rule and a quarter on
    each inner pair.  `tol` defaults to the set's own, _TOL_2D or _TOL_3D:
    the r(omega) term and, at omega = 1 without `reflection`, the r0 weight
    that normalises it are held to the same tolerance.

    A two-line set integrates an array of omega as one family on one shared
    bisection (integrate_simplex with an array of totals).  The rule runs
    at the largest member tolerance, and member k's integrand is scaled by
    the ratio of that tolerance to its own, so that the family's one
    tolerance is each member's own and the rule's split key weighs the
    members alike; a single omega is integrated unscaled.  A three-line set
    ("pm1") integrates each omega on its own outer rule: as one family of
    3-part simplices it made 3.2 to 3.6 times the member evaluations and
    was no faster (bsG z = 1/3, 5 and 12 frequencies from 0.1 to 100),
    every member being evaluated on the nodes its hardest member needs.

    When the first two lines carry the same excitation (the soliton pair of
    "pm" and "pm1"), |f|^2 is symmetric under l1 <-> l2 and only one mirror
    half of the pair is integrated (integrate_simplex's `symmetric`); a
    `reflection` must then be symmetric in its first two arguments too, as
    soliton_pair_bracket is.  "12" has two different breathers and is
    integrated whole.

    An omega whose n-th power, n the number of lines, passes 1e-4 of the
    largest double (omega > 1.3e152 on two lines, 2.6e101 on three) raises
    DomainError naming it: there |f|^2 or the product of the line energies
    would overflow."""
    lines = _SETS[label]
    too_large = len(lines) * np.log(omega) > _MAX_SET_LOG_POWER
    if np.any(too_large):
        raise DomainError(
            f"set {label}: omega = {offending(omega, too_large)} is past "
            f"{math.exp(_MAX_SET_LOG_POWER / len(lines)):.3g}, where |f|^2 or the "
            f"product of its {len(lines)} line energies overflows a double"
        )
    if len(lines) == 3 and np.ndim(omega):
        return np.array([set_integral(label, w, spec, tol, reflection) for w in omega])
    if tol is None:
        tol = _TOL_3D if len(lines) == 3 else _TOL_2D
    form_factor = _SET_FORM_FACTORS[label]
    shifts = line_shifts(lines, spec)
    scale = np.maximum(1.0, omega)
    largest = np.max(scale)
    unit = scale / largest

    def integrand(*energies):
        ls = [np.log(e) - s for e, s in zip(energies, shifts)]
        weight = np.abs(form_factor(*ls, spec)) ** 2 / unit
        return weight if reflection is None else reflection(*ls) * weight

    res = integrate_simplex(
        len(lines), omega, integrand, tol=tol * largest, symmetric=lines[0] == lines[1]
    )
    return math.factorial(len(lines)) * (res.value * unit) / omega


def r0_weights(spec: ModelSpec) -> dict:
    """Truncation weights r0 of the form-factor expansion at unit energy.

    Keys: "m<k>" for odd breathers, "pm" (soliton pair), "12" (breather 1+2,
    if present), "pm1" (pair + breather 1, integer p only).  These are the
    excitation sets the reflection coefficient retains.  All weights are
    positive and sum to 1 in the untruncated theory.  They are computed once
    per spec; every call returns a fresh dict.
    """
    return dict(_r0_weights_cached(spec))


@lru_cache(maxsize=64)
def _r0_weights_cached(spec: ModelSpec) -> Tuple[Tuple[str, float], ...]:
    out = {
        f"m{m}": breather_weight(m, spec) for m in range(1, spec.n_breathers + 1, 2)
    }
    labels = ["pm"]
    if spec.n_breathers >= 2:
        labels.append("12")
    if spec.p_int is not None and spec.n_breathers >= 1:
        labels.append("pm1")
    for label in labels:
        out[label] = set_integral(label, 1.0, spec).real
    return tuple(out.items())
