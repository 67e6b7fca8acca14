"""Closed-form references shared by the test modules."""

import mpmath


def kondo_half_spectrum(omega_p: float, omega: float) -> float:
    """gamma(omega'|omega) at z = 1/2 for the Kondo model, Lambda = 2, by
    30-digit mpmath quadrature of the cancellation-free integrand."""
    with mpmath.workdps(30):
        a = mpmath.mpf(1)  # Lambda/2
        wp, w = mpmath.mpf(omega_p), mpmath.mpf(omega)

        def f(x):
            p = x * (x + wp) + a * a
            q = (w - x) * (w - x - wp) + a * a
            s = a * wp * w * (w - wp - 2 * x) / (p * q + (a * wp) ** 2)
            return -2 * s * s / (1 + s * s)

        return float(-2 / (w * wp) * mpmath.quad(f, [0, (w - wp) / 2, w - wp]))
