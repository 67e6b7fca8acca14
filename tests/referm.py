"""Free-fermion oracle at z = 1/2, a test oracle for the form-factor
pipeline.

Both models map to free fermions hybridized with the impurity at the point
z = 1/2, giving closed-form reflection coefficients, a finite-temperature
conductance integral, and a one-dimensional integral for the energy-resolved
spectrum.  These are computed here independently of the form-factor pipeline
and serve as cross-checks for it.  Frequencies in units of T_B = 1.
Every integrand here takes the 1-D array of nodes an adaptive_1d call
passes, 15 per GK15 panel, and the member index it passes, which one
integral ignores.  The boundary sine-Gordon spectrum's integrand
is written so that it does not cancel as omega -> 0 (`spectrum_half`).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from bscat.errors import DomainError
from bscat.model import ModelKind, check_omega
from bscat.quadrature import adaptive_1d


def _lambda_cut(model: ModelKind) -> float:
    """Fermionic hybridization scale Lambda in units of T_B."""
    if model is ModelKind.BoundarySineGordon:
        return 0.5
    return 2.0


def r_half_closed(omega: float, model: ModelKind) -> complex:
    """Closed-form reflection coefficient at z = 1/2 (principal-branch log)."""
    check_omega(omega)
    lam = _lambda_cut(model)
    if model is ModelKind.BoundarySineGordon:
        return 1.0 - (4j * lam / omega) * cmath.log(1.0 - 1j * omega / (2.0 * lam))
    return 1.0 - (2j * lam / (omega + 1j * lam)) * cmath.log(
        1.0 - 1j * omega / (lam / 2.0)
    )


def _power_series(coeffs, x: float) -> float:
    """sum_k coeffs[k] x^k by Horner's rule."""
    out = 0.0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _series_product(p, q):
    """The first len(p) coefficients of the product of two power series."""
    return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(len(p))]


def _kondo_bracket_coefficients(n: int):
    """The Kondo loss bracket w b - 2 b^2 + 2 a - 2 a^2 of `loss_half`, with
    a = log1p(w^2)/2 and b = atan w, as a power series in x = w^2: with
    S = b/w = sum (-x)^k/(2k + 1) and L = 2a = log1p(x) it is
    x S - 2 x S^2 + L - L^2/2.  Its terms through x^2 cancel exactly; the
    coefficients of x^3 ... x^(n-1) are formed in exact fractions
    (1/90, -11/840, 9/700, ...) and returned as doubles."""
    s = [Fraction((-1) ** k, 2 * k + 1) for k in range(n)]
    log1p = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, n)]
    xs = [Fraction(0)] + s[:-1]
    terms = [
        a - 2 * b + c - d / 2
        for a, b, c, d in zip(xs, _series_product(xs, s), log1p, _series_product(log1p, log1p))
    ]
    assert terms[:3] == [0, 0, 0]
    return [float(t) for t in terms[3:]]


# below these frequencies the z = 1/2 loss is summed from its series: the
# bsG w - atan w (terms to w^61, 2e-17 of the first at w = 0.5) and the
# Kondo bracket (to x^63, x = w^2 = 0.49 at most).  Above them the direct
# forms lose at most 8.2e-14 relative to cancellation (Kondo at w = 0.71;
# 281 frequencies from 1e-10 to 1e4 against 80-digit mpmath)
_BSG_SERIES_BELOW = 0.5
_KONDO_SERIES_BELOW = 0.7
_W_MINUS_ATAN = [(-1.0) ** k / (2 * k + 3) for k in range(30)]
_KONDO_BRACKET = _kondo_bracket_coefficients(64)


def loss_half(omega: float, model: ModelKind) -> float:
    """The inelastic loss 1 - |r|^2 at z = 1/2, from `r_half_closed`'s
    closed form without forming |r|^2, which cancels as omega -> 0.  With
    a = log1p(omega^2)/2 and b = atan omega (log(1 - i omega) = a - i b):

        bsG:   1 - |r|^2 = (4/omega^2) [b (omega - b) - a^2],
        Kondo: 1 - |r|^2 = 8 (omega b - 2 b^2 + 2 a - 2 a^2)/(omega^2 + 4).

    The bsG loss tends to omega^2/3, and omega - b is taken from its series
    at small omega.  The Kondo loss tends to omega^6/45: its bracket
    cancels through two orders and is taken from its series in omega^2
    (`_kondo_bracket_coefficients`) at small omega."""
    check_omega(omega)
    a = 0.5 * math.log1p(omega * omega)
    b = math.atan(omega)
    if model is ModelKind.BoundarySineGordon:
        if omega < _BSG_SERIES_BELOW:
            rest = omega**3 * _power_series(_W_MINUS_ATAN, omega * omega)
        else:
            rest = omega - b
        return 4.0 * (b * rest - a * a) / (omega * omega)
    if omega < _KONDO_SERIES_BELOW:
        x = omega * omega
        bracket = x**3 * _power_series(_KONDO_BRACKET, x)
    else:
        bracket = omega * b - 2.0 * b * b + 2.0 * a - 2.0 * a * a
    return 8.0 * bracket / (omega * omega + 4.0)


def _t_tilde(nu: complex, model: ModelKind) -> complex:
    """Reduced impurity transmission factor T~^{cq}(nu)."""
    lam = _lambda_cut(model)
    if model is ModelKind.BoundarySineGordon:
        return 2j * lam / (nu + 2j * lam)
    return 1j * lam / (nu + 1j * lam / 2.0)


def _kernel(omega: float, big_omega: float, model: ModelKind) -> complex:
    """Particle-hole pair transmission kernel entering the conductance."""
    t1 = _t_tilde(big_omega, model)
    t2 = _t_tilde(omega - big_omega, model)
    if model is ModelKind.BoundarySineGordon:
        return 1.0 - t1 - t2
    return (1.0 - t1) * (1.0 - t2)


def conductance_finite_T(
    omega: float, temperature: float, model: ModelKind
) -> complex:
    """Reflection coefficient r(omega; T) from the finite-temperature
    conductance integral; reduces to r_half_closed at T = 0."""
    check_omega(omega)
    if not (math.isfinite(temperature) and temperature >= 0):
        raise DomainError(f"temperature must be finite and >= 0, got {temperature}")

    if temperature == 0.0:
        # tanh weights become step functions selecting 0 < Omega < omega
        def f0(x: np.ndarray, _) -> np.ndarray:
            return _kernel(omega, x, model) - 1.0

        val = adaptive_1d(f0, 0.0, omega, tol=1e-13).value
        return 1.0 + val / omega

    def f(x: np.ndarray, _) -> np.ndarray:
        w = np.tanh(x / (2.0 * temperature)) + np.tanh(
            (omega - x) / (2.0 * temperature)
        )
        return w * (_kernel(omega, x, model) - 1.0)

    # the weight decays like e^{-|x|/T} outside (0, omega)
    pad = 40.0 * temperature + 10.0
    val = adaptive_1d(f, -pad, omega + pad, tol=1e-13).value
    return 1.0 + val / (2.0 * omega)


def spectrum_half(omega_p: float, omega: float, model: ModelKind) -> float:
    """Energy-resolved inelastic spectrum gamma(omega_p | omega) at z = 1/2."""
    if not (0.0 < omega_p < omega < math.inf):
        raise DomainError(
            f"need 0 < omega_p < omega < inf, got omega_p={omega_p}, omega={omega}"
        )

    if model is ModelKind.BoundarySineGordon:
        # K = 1 - T~(nu1) - T~(nu2) = (nu1 nu2 + 4 L^2)/((nu1 + 2iL)(nu2 +
        # 2iL)), L = Lambda, at (nu1, nu2) = (x, omega - x) and, for K',
        # (x + omega_p - omega, -x - omega_p).  Over the common denominator
        # the numerator of K K' - 1 expands to -4 L^2 (y^2 + omega_p^2) -
        # 2i L omega omega_p y, y = omega - omega_p - 2x: a sum of squares
        # and a product, where K K' - 1 formed directly cancels to 0 as
        # omega -> 0 (it read -0.0 at omega = 1e-8, omega_p = 1e-3 omega)
        g = 2j * _lambda_cut(model)

        def f(x: np.ndarray, _) -> np.ndarray:
            y = omega - omega_p - 2.0 * x
            num = g * g * (y * y + omega_p * omega_p) - g * omega * omega_p * y
            den = (x + g) * (omega - x + g) * (x + omega_p - omega + g) * (g - x - omega_p)
            return num / den

    else:
        # Kondo: the two kernels are unimodular phases, and Re(K K') - 1 =
        # cos(Phi) - 1 cancels; -2 s^2/(1 + s^2) with s = tan(Phi/2) does not
        a = _lambda_cut(model) / 2.0

        def f(x: np.ndarray, _) -> np.ndarray:
            p = x * (x + omega_p) + a * a
            q = (omega - x) * (omega - x - omega_p) + a * a
            s = a * omega_p * omega * (omega - omega_p - 2.0 * x)
            s /= p * q + (a * omega_p) ** 2
            return -2.0 * s * s / (1.0 + s * s)

    # below omega = 1 the bsG integral falls as omega^3 (about omega^3/3 at
    # omega_p = 1e-3 omega), and the tolerance with it
    tol = 1e-13 * min(1.0, omega) ** 3
    val = adaptive_1d(f, 0.0, omega - omega_p, tol=tol).value
    return float((-2.0 / (omega * omega_p)) * val.real)
