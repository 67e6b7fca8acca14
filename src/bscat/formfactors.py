"""Massless-limit form factors of the right-moving current operator.

Special functions (the Gamma-product/residual-integral function e^{I(lambda)},
the constant c, the pair function zeta, the breather minimal function F, the
contour function H), the explicit form factors f_{+-}, f_m, f_{111}, f_{12},
f_{+-+-}, f_{+-1}, the excitation-set integrals of the reflection coefficient
and, from the same integrals, the free-theory truncation weights r0.  The
overall constant of f_{12} is 2 F(i xi), the value that the fusion of
f_{111} at its breather-2 pole fixes.

Conventions: rapidity lambda parameterizes the energy e^lambda of a unit-mass
excitation; breather arguments are pre-shifted by -log(mass ratio) by callers.
All form factors carry Lorentz spin 1: f(lambda + a) = e^a f(lambda).

The per-rapidity residual integrals of e^{I} and of F run on
`quadrature.integrate_semi_infinite`: equal GK15 panels whose
lambda-independent kernel is tabulated once per (xi, N, panel layout), so
that each call evaluates only sin^2(w x) on the first n panels, and so do
the constants c and F(-i pi), from the N = 0 kernels.  n reaches the point
where the integrand's exponential bound falls below 1e-16.  The panel width is
0.35 of the distance to the kernel's nearest pole (min(1, 2 pi/xi) for
e^{I}, 1/2 for F), halved until a panel spans at most 2 radians of
hypot(|2 Re w|, decay + 4 |Im w|) x.  The rule raises ToleranceNotMet if
its G7 error estimate exceeds 1e-12, or if more than 4096 panels would be
needed.  e^{I} calls that rule only to build tables.  Per (xi, Im lambda)
line, the whole exponent of e^{I} -- the residual at N = 2 plus its Gamma
product with every term near the poles of Gamma shifted up by the
recurrence (`_exp_i_fold`) -- is tabulated in Re lambda >= 0 with 21
Chebyshev points (degree 20) per panel, each built on first use and checked
against the direct sum to 1e-12 absolute at its 20 interior midpoints
(`quadrature.ChebyshevTable`).  The panel width follows from the strip of
analyticity about the line (`quadrature.strip_panel_width`), halved on a
line whose panel 0 misses its check.  A lookup adds
the logs of the few linear factors the shifts shed, precomputed per line.
The contour
function H is exactly -[t^{2p-5}] prod (e^{-c/2} + t e^{c/2}) (see `bigH`).
The breather couplings read S0 from `smatrix.s0`, the one S0 evaluator.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.special import loggamma

from .errors import DomainError, ToleranceNotMet
from .model import ModelSpec, breather, mass_ratio
from .quadrature import (
    ChebyshevTable,
    adaptive_1d,
    integrate_semi_infinite,
    integrate_simplex,
    strip_panel_width,
)
from .smatrix import s0

TWO_PI = 2.0 * math.pi
# the e^{I} tables: Gamma-product truncation
_TABLE_N = 2
_EPS = float(np.finfo(float).eps)
_STRIP_TOL = 1e-9


def theta_m(m: int, spec: ModelSpec) -> float:
    """Fusion angle of breather m: theta^(m) = pi - xi m."""
    return math.pi - spec.xi * m


def _check_strip(*diffs: complex) -> None:
    for d in diffs:
        if abs(complex(d).imag) > TWO_PI + _STRIP_TOL:
            raise DomainError(
                f"rapidity difference {d} outside the analyticity strip |Im| <= 2 pi"
            )


# ---------------------------------------------------------------------------
# e^{I(lambda)} and derived pair functions


def _exp_i_residual(lam: complex, xi: float, N: int) -> complex:
    """The residual integral of I(lambda) left by the N-term Gamma product,
    on the panel rule; zero at xi = pi, where its kernel vanishes."""
    w = (lam + 1j * math.pi) / 2.0
    return integrate_semi_infinite(
        _exp_i_kernel,
        (xi, N),
        w,
        2,
        _exp_i_decay(lam.imag, xi, N),
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


def _exp_i_log_product(lam: complex, xi: float, N: int, shifts=0.0) -> complex:
    """Log of the N-term Gamma product of e^{I(lambda)}; with `shifts`, each
    loggamma argument raised by shifts_j (the sum a line's table holds,
    see `_exp_i_fold`)."""
    offsets, slopes, weights, const = _exp_i_product_terms(xi, N)
    u = 1j * lam / math.pi
    return complex(weights @ loggamma(offsets + shifts + slopes * u)) + const


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
    # as _exp_i_log_product rounds it, so that a factor vanishing on the
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
    offsets, slopes, weights, _ = _exp_i_product_terms(xi, _TABLE_N)

    def exponent(lam_r: float) -> complex:
        lam = complex(lam_r, lam_i)
        return _exp_i_residual(lam, xi, _TABLE_N) + _exp_i_log_product(
            lam, xi, _TABLE_N, shifts
        )

    def rounding(lam_r: float) -> float:
        u = 1j * complex(lam_r, lam_i) / math.pi
        terms = weights * loggamma(offsets + shifts + slopes * u)
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
    lam = complex(lam_r, lam_i)
    _, factors, sign, _ = _exp_i_fold(xi, lam_i)
    # e^{I(-conj lambda)} = conj e^{I(lambda)}: the table holds Re lambda >= 0
    x = abs(lam_r)
    slope = x / xi
    exponent = _exp_i_line(xi, lam_i)(x)
    for b, weight in factors:
        if x == 0.0 and abs(b) <= _ZERO_FACTOR:
            if weight > 0.0:
                raise DomainError(f"e^I has a pole at lambda = {lam} (xi = {xi})")
            return 0.0 + 0.0j
        exponent -= weight * cmath.log(complex(b, slope))
    try:
        value = sign * cmath.exp(exponent)
    except OverflowError:
        raise DomainError(
            f"e^I overflows at lambda = {lam} (xi = {xi}): exponent {exponent:.4g}"
        ) from None
    return value.conjugate() if lam_r < 0.0 else value


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
                loggamma(a * (2 * k + 1))
                + loggamma(1.0 + a * (2 * k - 1))
                - loggamma(2 * k * a)
                - loggamma(1.0 + 2 * k * a)
            )
        )
    )
    return offsets, slopes, weights, const


def exp_I(lam: complex, spec: ModelSpec) -> complex:
    """The pair special function e^{I(lambda)}.

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
    """
    lam = complex(lam)
    if abs(math.pi - spec.xi) < 1e-14:
        return 1.0 + 0.0j
    return _exp_i_cached(lam.real, lam.imag, spec.xi)


@lru_cache(maxsize=64)
def _c_const_cached(xi: float, p: float) -> float:
    # log c = log|4 - 4p|/4 + 1/4 int sinh(pi x/2) sinh((pi - xi) x/2) / (x
    # sinh(xi x/2) cosh(pi x/2)^2) dx, a kernel -2 sin(i pi x/2)^2 times I's at
    # N = 0: the integral is -2 I(0) (w = i pi/2), and c^4 e^{2 I(0)} = |4 - 4p|
    residual = _exp_i_residual(0j, xi, 0).real
    return abs(4.0 - 4.0 * p) ** 0.25 * math.exp(-0.5 * residual)


def c_const(spec: ModelSpec) -> float:
    """Normalization constant c (positive real branch)."""
    return _c_const_cached(spec.xi, spec.p)


def zeta(lam: complex, spec: ModelSpec) -> complex:
    """zeta(lambda) = c sinh(lambda/2) e^{I(lambda)}."""
    lam = complex(lam)
    return c_const(spec) * cmath.sinh(lam / 2.0) * exp_I(lam, spec)


def f_pm(l1: complex, l2: complex, spec: ModelSpec) -> complex:
    """Soliton-antisoliton form factor f_{+-}(l1, l2); f_{-+} = -f_{+-}."""
    l1, l2 = complex(l1), complex(l2)
    d = l1 - l2
    _check_strip(d)
    half = (spec.p - 1.0) / 2.0
    try:
        sh = cmath.sinh(d / 2.0)
        ch = cmath.cosh(half * (d + 1j * math.pi))
    except OverflowError:
        # |Re d| (p - 1)/2 past ~710: reached at small z, e.g. z = 0.005
        # with |Re d| > 7.1
        raise DomainError(
            f"f_pm overflows at lambda1 - lambda2 = {d} (z = {spec.z})"
        ) from None
    if abs(ch) < 1e-9:
        if abs(sh) < 1e-9:
            # removable 0/0 at coinciding rapidities (even p): L'Hopital
            ratio = cmath.cosh(d / 2.0) / (
                2.0 * half * cmath.sinh(half * (d + 1j * math.pi))
            )
        else:
            raise DomainError(
                f"f_pm breather pole at lambda1 - lambda2 = {d}; use the "
                "residue-based breather form factors instead"
            )
    else:
        ratio = sh / ch
    return (
        TWO_PI
        * cmath.exp((l1 + l2) / 2.0)
        * ratio
        * exp_I(d, spec)
        / math.sqrt(2.0 * spec.z)
    )


# ---------------------------------------------------------------------------
# Single-breather form factors


def _breather_coupling_arg(m: int, spec: ModelSpec) -> float:
    """The quantity (xi/pi) sin(pi^2/xi) S0(i theta^(m)).  At integer p, where
    sin(pi^2/xi) vanishes and S0 has a pole, it is the residue formula
    2 cot(m xi/2) prod_{j<m} cot^2(j xi/2); otherwise S0 comes from
    `smatrix.s0` at any depth of the imaginary axis."""
    xi = spec.xi
    if spec.p_int is not None:
        res = 2.0 * (1.0 / math.tan(xi * m / 2.0))
        for j in range(1, m):
            res *= (1.0 / math.tan(xi * j / 2.0)) ** 2
        return res
    s0_val = s0(1j * theta_m(m, spec), spec).real
    return (xi / math.pi) * math.sin(math.pi**2 / xi) * s0_val


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


def f_breather1(m: int, lam: complex, spec: ModelSpec) -> complex:
    """Single-breather form factor f_m(lambda); zero for even m."""
    if not (1 <= m <= spec.n_breathers):
        raise DomainError(f"breather m={m} invalid (n_breathers={spec.n_breathers})")
    if m % 2 == 0:
        return 0.0 + 0.0j
    return _f_breather1_const(m, spec) * cmath.exp(complex(lam))


# ---------------------------------------------------------------------------
# Breather minimal function F and multi-breather form factors


@lru_cache(maxsize=64)
def _bigf_prefactor(xi: float) -> float:
    """F(-i pi) = exp int_0^inf 4 sinh(pi x) sinh(xi x) sinh((pi + xi) x)
    / (x sinh(2 pi x)^2) dx, whose kernel is -1/2 the N = 0 tail kernel."""
    decay = TWO_PI - 2.0 * xi
    if decay <= 0.0:
        raise DomainError("F(lambda) requires xi < pi (z < 1/2)")
    tail = integrate_semi_infinite(
        _bigf_tail_kernel, (xi, 0), 0.0, 0, decay, 0.5, tol=1e-12
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
    """F(lambda): N factors of its Gamma product times the integral of the
    rest; N-independent for N >= 1."""
    lam = complex(lam_r, lam_i)
    u = 0.5j + lam / TWO_PI
    u2 = u * u
    xh = xi / TWO_PI
    prod = 0.0 + 0.0j  # log of the k-product
    for k in range(1, N + 1):
        num = (
            (1.0 + u2 / (k - 0.5) ** 2)
            * (1.0 + u2 / (k + 0.5 + xh) ** 2)
            * (1.0 + u2 / (k - xh) ** 2)
        )
        den = (
            (1.0 + u2 / (k + 0.5) ** 2)
            * (1.0 + u2 / (k - 0.5 - xh) ** 2)
            * (1.0 + u2 / (k + xh) ** 2)
        )
        if abs(den) < 1e-280:
            raise DomainError(f"F(lambda) pole at lambda = {lam}")
        if abs(num) < 1e-280:
            return 0.0 + 0.0j
        prod += k * cmath.log(num / den)

    w = lam + 1j * math.pi
    decay = TWO_PI - 2.0 * xi + 4.0 * math.pi * N - 2.0 * abs(w.imag)
    if decay <= 0.0:
        raise DomainError(f"F tail integral diverges at Im lambda = {lam.imag}")
    tail_val = integrate_semi_infinite(
        _bigf_tail_kernel,
        (xi, N),
        w,
        2,
        decay,
        0.5,  # nearest kernel pole: sinh(2 pi x)^2 at i/2
        tol=1e-12,
    ).value
    return _bigf_prefactor(xi) * cmath.exp(prod + tail_val)


def bigF(lam: complex, spec: ModelSpec) -> complex:
    """Minimal breather-pair function F(lambda)."""
    lam = complex(lam)
    return _bigf_cached(lam.real, lam.imag, spec.xi, 10)


@lru_cache(maxsize=64)
def _cube_bracket(xi: float) -> float:
    """[sqrt(2 sin(xi/2)) exp(-int_0^xi x dx / (2 pi sin x))]^3."""

    def g(x: float) -> float:
        if x == 0.0:
            return 1.0 / TWO_PI
        return x / (TWO_PI * math.sin(x))

    integral = adaptive_1d(g, 0.0, xi, 1e-12).value.real
    return (math.sqrt(2.0 * math.sin(xi / 2.0)) * math.exp(-integral)) ** 3


def f_111(l1: complex, l2: complex, l3: complex, spec: ModelSpec) -> complex:
    """Three breather-1 form factor f_{111}(l1, l2, l3)."""
    if spec.n_breathers < 1:
        raise DomainError(f"no breathers at z = {spec.z}")
    l1, l2, l3 = complex(l1), complex(l2), complex(l3)
    _check_strip(l1 - l2, l1 - l3, l2 - l3)
    xi = spec.xi
    e = [cmath.exp(l) for l in (l1, l2, l3)]
    lams = (l1, l2, l3)
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
            if abs(den) < 1e-14 * max(abs(e[i]), abs(e[j]), 1.0):
                raise DomainError(f"f_111 kinematic pole at e^l{i+1} + e^l{j+1} = 0")
            out *= bigF(lams[i] - lams[j], spec) / den
    return out


def f_12(l1: complex, l2: complex, spec: ModelSpec) -> complex:
    """Breather-1/breather-2 form factor f_{12}(l1, l2).

    The printed normalization divides by F(i(pi + xi)), a pole of F; the
    constant is 2 F(i xi) instead, the value the bound-state fusion axiom
    Res_{l3 = l2 + i xi} f_111(l1, l2, l3) = i kappa_2 f_12(l1, l2 + i xi/2)
    fixes (Smirnov 1992)."""
    if spec.n_breathers < 2:
        raise DomainError(f"f_12 requires two breathers (z = {spec.z})")
    l1, l2 = complex(l1), complex(l2)
    _check_strip(l1 - l2)
    xi = spec.xi
    e1, e2 = cmath.exp(l1), cmath.exp(l2)
    cs = math.cos(xi / 2.0)
    den = e1 * e1 + e2 * e2 + 2.0 * cs * e1 * e2
    if abs(den) < 1e-14 * max(abs(e1 * e1), abs(e2 * e2), 1.0):
        raise DomainError("f_12 kinematic pole")
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


def bigH(
    l1: complex, l2: complex, l3: complex, l4: complex, spec: ModelSpec
) -> complex:
    """Contour function H(l1..l4) over alpha in [-2 pi i, 0] (integer p only).

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
        return 0.0 + 0.0j
    s = 2 * (p - 2) - 1
    e = [1.0 + 0.0j] + [0.0j] * s  # coefficients of t^0..t^s
    for l in (l1, l2, l3, l4):
        for j in range(1, p - 1):
            half = 0.5 * (complex(l) + 1j * math.pi * j / (p - 1.0) - 0.25j * math.pi)
            a, b = cmath.exp(-half), cmath.exp(half)
            for i in range(s, 0, -1):
                e[i] = a * e[i] + b * e[i - 1]
            e[0] *= a
    return -e[s]


def f_pmpm(
    l1: complex, l2: complex, l3: complex, l4: complex, spec: ModelSpec
) -> complex:
    """Two soliton-antisoliton pairs form factor f_{+-+-} (integer p only)."""
    if spec.p_int is None:
        raise DomainError("f_pmpm is implemented for integer p only")
    p = spec.p_int
    if p == 2:
        return 0.0 + 0.0j
    lams = [complex(l) for l in (l1, l2, l3, l4)]
    _check_strip(*[lams[i] - lams[j] for i in range(4) for j in range(i + 1, 4)])
    xi = spec.xi
    c = c_const(spec)
    pref = (
        2.0 * math.pi**2 / (c * c * xi) * ((-1.0) ** (p - 1)) / math.sqrt(2.0 * spec.z)
    )
    out = pref * cmath.exp(sum(lams) / 2.0)
    for i in range(4):
        for j in range(i + 1, 4):
            out *= zeta(lams[i] - lams[j], spec)
    out *= bigH(*lams, spec)
    pm1 = p - 1.0
    s41 = cmath.sinh(pm1 * (lams[3] - lams[0]))
    s23 = cmath.sinh(pm1 * (lams[1] - lams[2]))
    if min(abs(s41), abs(s23)) < 1e-12:
        raise DomainError("f_pmpm exchange pole (coinciding rapidities)")
    out /= s41 * s23
    h21 = 0.5 * pm1 * (lams[1] - lams[0])
    h43 = 0.5 * pm1 * (lams[3] - lams[2])
    sh21, ch21 = cmath.sinh(h21), cmath.cosh(h21)
    sh43, ch43 = cmath.sinh(h43), cmath.cosh(h43)
    if min(abs(ch21 * sh43), abs(sh21 * ch43)) < 1e-12:
        raise DomainError("f_pmpm exchange pole (coinciding rapidities)")
    return out * (1.0 / (ch21 * sh43) + 1.0 / (sh21 * ch43))


def f_pm1(l1: complex, l2: complex, l3: complex, spec: ModelSpec) -> complex:
    """Soliton-antisoliton-breather1 form factor f_{+-1} (integer p only)."""
    if spec.p_int is None:
        raise DomainError("f_pm1 is implemented for integer p only")
    p = spec.p_int
    if p == 2:
        return 0.0 + 0.0j
    l1, l2, l3 = complex(l1), complex(l2), complex(l3)
    _check_strip(l1 - l2, l1 - l3, l2 - l3)
    xi = spec.xi
    th = theta_m(1, spec)
    c = c_const(spec)
    res_s0 = _breather_coupling_arg(1, spec)  # residue form at integer p
    # normalization and phase anchored by fusion consistency: fusing the
    # soliton pair of f_pmpm at the breather bound-state pole reproduces this
    # function with the same fusion constant that maps f_pm onto f_breather1
    pref = (
        8.0j
        * math.pi**2
        / (c * c * xi * (p - 1.0))
        / cmath.sqrt(complex(2.0 * spec.z * res_s0))
    )
    pm1 = p - 1.0
    s31 = cmath.sinh(pm1 * (l3 - l1 + 0.5j * th))
    s23 = cmath.sinh(pm1 * (l2 - l3 + 0.5j * th))
    if min(abs(s31), abs(s23)) < 1e-12:
        raise DomainError("f_pm1 exchange pole (coinciding rapidities)")
    # zeta(l1 - l2)/sinh((p-1)(l2 - l1)) is finite at l1 = l2: the sinh zeros
    # cancel; take the analytic limit at exact coincidence (a midpoint
    # quadrature node can land there)
    d = l1 - l2
    if abs(d) < 1e-12:
        ratio21 = -c * exp_I(0.0, spec) / (2.0 * pm1)
    else:
        ratio21 = zeta(d, spec) / cmath.sinh(-pm1 * d)
    zetas = (
        zeta(l1 - l3 - 0.5j * th, spec)
        * zeta(l1 - l3 + 0.5j * th, spec)
        * zeta(l2 - l3 - 0.5j * th, spec)
        * zeta(l2 - l3 + 0.5j * th, spec)
        * zeta(-1j * th, spec)
    )
    h = bigH(l1, l2, l3 - 0.5j * th, l3 + 0.5j * th, spec)
    fusion = cmath.cosh(0.5 * pm1 * (d - 1j * math.pi))
    return (
        pref
        * fusion
        * cmath.exp((l1 + l2) / 2.0)
        * cmath.exp(l3)
        * ratio21
        * zetas
        * h
        / (s31 * s23)
    )


# ---------------------------------------------------------------------------
# Excitation sets of the reflection coefficient and their free-theory weights

# multi-particle sets: label -> per line, the breather whose mass ratio
# shifts the rapidity, 0 for a soliton line
_SETS = {"pm": (0, 0), "12": (1, 2), "pm1": (0, 0, 1)}
# the one tolerance table of the set integrals: set_integral's default `tol`
# at omega is this, by the set's number of lines, times max(1, omega), in the
# units of integrate_simplex (before the 1/((2 pi)^n n!) normalisation).  An
# r0 weight is its set's integral at omega = 1 with the reflection factor 1
# and normalises that set's r(omega) term, so it is held to the term's own
# tolerance, about tol/(2 pi)^n: 1e-6 on "pm1" gives about 4e-9 (estimate
# 3.7e-9 at z = 1/3, where the weight is off a tol-1e-9 run by 8.2e-13)
_TOL_2D = 1e-9
_TOL_3D = 1e-6
_SET_FORM_FACTORS = {"pm": f_pm, "12": f_12, "pm1": f_pm1}


def breather_weight(m: int, spec: ModelSpec) -> float:
    """Single-breather weight |f_m(0)|^2 / (2 pi mu_m^2)."""
    mu = mass_ratio(breather(m), spec)
    return abs(f_breather1(m, 0.0, spec)) ** 2 / (TWO_PI * mu * mu)


def set_integral(
    label: str,
    omega: float,
    spec: ModelSpec,
    tol: Optional[float] = None,
    reflection: Optional[Callable[..., complex]] = None,
) -> complex:
    """n!/omega times the energy-simplex integral at total energy omega of
    reflection(l) |f(l)|^2 for the multi-particle set `label`, with
    l_k = log E_k - log(mass ratio of line k).  Without `reflection` the
    reflection factor is 1 (the free theory).

    `tol` is integrate_simplex's absolute tolerance, on the integral before
    its 1/((2 pi)^n n!) normalisation; the returned value is held to about
    tol/((2 pi)^n omega), n the number of lines.  integrate_simplex spends
    half of it on the outer rule and a quarter on each inner pair.  By
    default it is the set's own, _TOL_2D or _TOL_3D times max(1, omega):
    the r(omega) term and, at omega = 1 without `reflection`, the r0 weight
    that normalises it are held to the same tolerance.

    When the first two lines carry the same excitation (the soliton pair of
    "pm" and "pm1"), |f|^2 is symmetric under l1 <-> l2 and only one mirror
    half of the pair is integrated (integrate_simplex's `symmetric`); a
    `reflection` must then be symmetric in its first two arguments too, as
    soliton_pair_bracket is.  "12" has two different breathers and is
    integrated whole."""
    lines = _SETS[label]
    if tol is None:
        tol = (_TOL_3D if len(lines) == 3 else _TOL_2D) * max(1.0, omega)
    form_factor = _SET_FORM_FACTORS[label]
    shifts = [math.log(mass_ratio(breather(b), spec)) if b else 0.0 for b in lines]

    def integrand(*energies):
        ls = [math.log(e) - s for e, s in zip(energies, shifts)]
        weight = abs(form_factor(*ls, spec)) ** 2
        return weight if reflection is None else reflection(*ls) * weight

    res = integrate_simplex(
        len(lines), omega, integrand, tol=tol, symmetric=lines[0] == lines[1]
    )
    return math.factorial(len(lines)) * res.value / omega


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
