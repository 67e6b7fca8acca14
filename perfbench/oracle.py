"""Free-fermion closed forms at z = 1/2, written apart from ``bscat``.

At z = 1/2 both impurity models are free fermions hybridised with a level of
width Lambda (Lambda = T_B/2 for boundary sine-Gordon, 2 T_B for Kondo).
The reflection coefficient is elementary; the energy-resolved spectrum is a
one-dimensional integral of a rational function, done here with SciPy's
QUADPACK.
"""

from __future__ import annotations

import cmath

from scipy.integrate import quad

LAMBDA = {"bsg": 0.5, "kondo": 2.0}


def r_exact(omega: float, model: str) -> complex:
    """Reflection coefficient r(omega) at z = 1/2."""
    lam = LAMBDA[model]
    if model == "bsg":
        return 1.0 - (4j * lam / omega) * cmath.log(1.0 - 0.5j * omega / lam)
    return 1.0 - (2j * lam / (omega + 1j * lam)) * cmath.log(1.0 - 2j * omega / lam)


def spectrum_exact(omega_p: float, omega: float, model: str) -> float:
    """gamma(omega'|omega) at z = 1/2: -2/(omega omega') Re int_0^{omega-omega'}
    [K(omega, x) K(-omega, x + omega' - omega) - 1] dx, with K the amplitude
    for a photon of energy omega to leave a particle-hole pair split as
    (x, omega - x).

    bsG: K(w, x) = 1 - T(x) - T(w - x), T(nu) = 2i Lambda/(nu + 2i Lambda).
    Kondo: K(w, x) = U(x) U(w - x) with the pure phase
    U(nu) = (nu - ia)/(nu + ia), a = Lambda/2, so the integrand is
    cos(Phi) - 1 = -2 s^2/(1 + s^2) with s = tan(Phi/2) =
    a w' w (w - w' - 2x) / (P Q + a^2 w'^2), P = x (x + w') + a^2,
    Q = (w - x)(w - x - w') + a^2.  This form has no cancellation; the
    product of phases loses up to 1e-3 relative at the grid edges of
    omega = 0.1.
    """
    if model == "kondo":
        a = LAMBDA[model] / 2.0

        def integrand(x: float) -> float:
            p = x * (x + omega_p) + a * a
            q = (omega - x) * (omega - x - omega_p) + a * a
            s = a * omega_p * omega * (omega - omega_p - 2.0 * x) / (p * q + (a * omega_p) ** 2)
            return -2.0 * s * s / (1.0 + s * s)

    else:
        lam2 = 2j * LAMBDA[model]

        def kernel(w: float, x: float) -> complex:
            return 1.0 - lam2 / (x + lam2) - lam2 / (w - x + lam2)

        def integrand(x: float) -> float:
            return (kernel(omega, x) * kernel(-omega, x + omega_p - omega) - 1.0).real

    val, _ = quad(integrand, 0.0, omega - omega_p, epsabs=0.0, epsrel=1e-10, limit=200)
    return -2.0 / (omega * omega_p) * val
