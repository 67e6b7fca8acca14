"""30-digit mpmath references for the special-function kernels at generic z.

Prints the reference table of tests/test_kernel_oracles.py:

    python tests/make_kernel_oracles.py

The references are independent of bscat's evaluation: e^{I(lambda)} uses
its integral representation with N = 5 Gamma factors (bscat's tables use
N = 2 at every z sampled here, and a different quadrature), and the R_s
phase and S0 integrals are integrated as printed, and so are the integrals
of the constants c and F(-i pi).  Each integral runs over
many short mpmath.quad subintervals up to the point where its exponential
bound falls below 1e-32.  bscat takes S0 from its e^{I} (the exchange
ratio of Watson's equation); these S0 rows are what check it against
values computed another way: the S0 and S0_FAR rows from the S0 integral,
the S0_IMAG_AXIS rows S0(i t) past the integral's strip from the
rising-factorial series of its product form, summed by mpmath.nsum.  The
breather couplings (xi/pi) sin(pi^2/xi) S0(i theta_m), theta_m = pi - m xi,
read S0 from that series too; before printing, the series is checked
against the S0 integral inside the strip and against the closed value
-sqrt(3) at z = 0.4, t = pi/3.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 30

N_REF = 5


def _xi(z):
    z = mp.mpf(z)
    return mp.pi * z / (1 - z)


def _quad_semi_infinite(f, decay, step):
    x_max = 75 / decay  # e^{-75} ~ 3e-33
    n = int(mp.ceil(x_max / step))
    return mp.quad(f, mp.linspace(0, n * step, n + 1))


def exp_i(lam, z):
    """e^{I(lambda)}: N_REF-term Gamma product times the exponential of the
    damped residual integral."""
    xi = _xi(z)
    pi = mp.pi
    lam = mp.mpc(lam)
    w = (lam + 1j * pi) / 2
    N = N_REF

    def f(x):
        damp = mp.exp(-2 * N * pi * x) * (1 + N - N * mp.exp(-2 * pi * x))
        return (
            damp
            * mp.sin(w * x) ** 2
            * mp.sinh((pi - xi) * x / 2)
            / (x * mp.sinh(xi * x / 2) * mp.sinh(pi * x) * mp.cosh(pi * x / 2))
        )

    decay = 2 * N * pi + min(xi + pi, 2 * pi) - abs(lam.imag + pi)
    integral = _quad_semi_infinite(f, decay, min(mp.mpf(0.1), 1 / (abs(w) + 1)))
    a = pi / xi
    u = 1j * lam / pi
    log_product = 0
    for k in range(1, N + 1):
        lg = mp.loggamma
        log_product += k * (
            lg(1 + a * (2 * k + 1 - u))
            + lg(a * (2 * k + 1 - u))
            + lg(a * (2 * k - 1 + u))
            + lg(1 + a * (2 * k - 1 + u))
            - lg(1 + a * (2 * k - u))
            - lg(a * (2 * k + 2 - u))
            - lg(a * (2 * k + u))
            - lg(1 + a * (2 * k - 2 + u))
            + 2
            * (
                lg(a * (2 * k + 1))
                + lg(1 + a * (2 * k - 1))
                - lg(2 * k * a)
                - lg(1 + 2 * k * a)
            )
        )
    return mp.exp(integral + log_product)


def rs_phase(lam, z):
    """int_0^inf sin(2 lambda x)/x sinh((pi - xi) x) / (sinh(2 xi x) cosh(pi x)) dx."""
    xi = _xi(z)
    pi = mp.pi
    lam = mp.mpc(lam)

    def f(x):
        return (
            mp.sin(2 * lam * x)
            / x
            * mp.sinh((pi - xi) * x)
            / (mp.sinh(2 * xi * x) * mp.cosh(pi * x))
        )

    decay = min(3 * xi, xi + 2 * pi) - 2 * abs(lam.imag)
    return _quad_semi_infinite(f, decay, min(mp.mpf(0.1), 1 / (2 * abs(lam) + 1)))


def s0(theta, z):
    """S0(theta) = -exp(-i int_0^inf sin(x theta)/x sinh((pi - xi) x/2)
    / (sinh(xi x/2) cosh(pi x/2)) dx)."""
    xi = _xi(z)
    pi = mp.pi
    theta = mp.mpc(theta)

    def f(x):
        return (
            mp.sin(x * theta)
            / x
            * mp.sinh((pi - xi) * x / 2)
            / (mp.sinh(xi * x / 2) * mp.cosh(pi * x / 2))
        )

    decay = min(xi, pi) - abs(theta.imag)
    integral = _quad_semi_infinite(f, decay, min(mp.mpf(0.1), 1 / (abs(theta) + 1)))
    return -mp.exp(-1j * integral)


def s0_imag_axis(t, z):
    """S0(i t), 0 < t < pi, from the product form of S0: with d = 2t/xi,
    l_b = (xi + b pi - t)/xi and c_b = ((b + 1) pi - t)/xi,
    S0(i t) = -sgn exp sum_b (-1)^b [ln rf(c_b, d) - ln |rf(l_b, d)|],
    sgn the sign of rf(l_0, d)."""
    xi = _xi(z)
    pi = mp.pi
    t = mp.mpf(t)
    d = 2 * t / xi

    def term(b):
        l_b = (xi + b * pi - t) / xi
        c_b = ((b + 1) * pi - t) / xi
        return (-1) ** int(b) * (mp.log(mp.rf(c_b, d)) - mp.log(abs(mp.rf(l_b, d))))

    sgn = mp.sign(mp.rf((xi - t) / xi, d))
    return -sgn * mp.exp(mp.nsum(term, [0, mp.inf], method="alternating"))


def _check_s0_imag_axis():
    """The series against the S0 integral inside its strip and against
    S0(i pi/3) = -sqrt(3) at z = 0.4 (xi = 2 pi/3)."""
    for z, t in ((0.4, 0.3), (0.4, 1.2), (0.3, 0.6), (0.15, 0.1)):
        series, integral = s0_imag_axis(t, z), s0(1j * t, z)
        assert abs(series - integral) < mp.mpf(10) ** -25 * abs(integral), (z, t)
    z = mp.mpf(2) / 5  # exactly 0.4, unlike the float
    assert abs(s0_imag_axis(mp.pi / 3, z) + mp.sqrt(3)) < mp.mpf(10) ** -25


def c_const(z):
    """c = |4 - 4p|^{1/4} exp((1/4) int_0^inf sinh(pi x/2) sinh((pi - xi) x/2)
    / (x sinh(xi x/2) cosh(pi x/2)^2) dx), p = 1/z."""
    xi = _xi(z)
    pi = mp.pi
    p = 1 / mp.mpf(z)

    def f(x):
        return (
            mp.sinh(pi * x / 2)
            * mp.sinh((pi - xi) * x / 2)
            / (x * mp.sinh(xi * x / 2) * mp.cosh(pi * x / 2) ** 2)
        )

    integral = _quad_semi_infinite(f, min(xi, pi), mp.mpf(0.5))
    return abs(4 - 4 * p) ** mp.mpf(0.25) * mp.exp(integral / 4)


def bigf_prefactor(z):
    """F(-i pi) = exp int_0^inf 4 sinh(pi x) sinh(xi x) sinh((pi + xi) x)
    / (x sinh(2 pi x)^2) dx."""
    xi = _xi(z)
    pi = mp.pi

    def f(x):
        return (
            4
            * mp.sinh(pi * x)
            * mp.sinh(xi * x)
            * mp.sinh((pi + xi) * x)
            / (x * mp.sinh(2 * pi * x) ** 2)
        )

    return mp.exp(_quad_semi_infinite(f, 2 * pi - 2 * xi, mp.mpf(0.25)))


def theta1(z):
    """Fusion angle of breather 1, pi - xi."""
    return math.pi - float(_xi(z))


# the sampled arguments: (z, lambda)
EXP_I_Z = (1.0 / 3.0, 0.4, 0.25)
EXP_I_RE = (-15.0, -4.3, -0.6, 0.0, 1.7, 7.9, 15.0)


def exp_i_points():
    for z in EXP_I_Z:
        half = theta1(z) / 2.0
        for im in (0.0, half, -half, math.pi, math.pi + half, math.pi - half):
            for re in EXP_I_RE:
                yield z, complex(re, im)


# removable points of e^{I} at Re lambda = 0, where a Gamma pole of the
# numerator meets one of the denominator: (numerator, denominator of z,
# lambda).  At the binary z nearest to a rational the two sit about 1e-16
# apart and the value at the float lambda between them is set by that
# rounding; the reference is the value at the exact rational z.
EXP_I_REMOVABLE_POINTS = ((1, 3, complex(0.0, math.pi)), (1, 4, complex(0.0, math.pi)))

RS_POINTS = tuple(
    (z, complex(re, im))
    for z in (1.0 / 3.0, 0.4, 0.25)
    for re, im in ((0.3, 0.0), (-2.5, 0.0), (11.0, 0.0), (-19.0, 0.0), (1.2, 0.4), (-6.0, 0.25))
)

S0_POINTS = tuple(
    (0.4, complex(re, im))
    for re, im in ((0.5, 0.0), (-3.0, 0.0), (8.0, 0.0), (1.0, 0.6), (-2.0, -1.0))
) + tuple(
    # the real axis at small z, where the integral's strip is narrow
    (z, complex(re, 0.0)) for z in (0.1, 0.05) for re in (0.5, -3.0, 8.0)
) + tuple(
    # past Im theta = pi/2, still inside the integral's strip (xi = 2.09)
    (0.4, complex(re, im))
    for re, im in ((0.7, 1.6), (-1.2, 1.9), (2.0, 1.8))
)

# far out on the real axis at small z, held to 1e-11 absolute: (z, theta)
S0_FAR_POINTS = ((0.05, complex(-35.0, 0.0)), (0.03, complex(20.0, 0.0)))

# the imaginary axis past the integral's strip, from the product form: (z, t)
S0_IMAG_AXIS_POINTS = ((0.1, 1.0), (0.15, 1.0), (0.15, 2.0), (0.25, 1.2), (0.3, 1.5))


def breather_coupling(m, z):
    """(xi/pi) sin(pi^2/xi) S0(i theta_m), theta_m = pi - m xi, with S0 from
    the imaginary-axis series."""
    xi = _xi(z)
    return xi / mp.pi * mp.sin(mp.pi**2 / xi) * s0_imag_axis(mp.pi - m * xi, z)


# the odd breathers whose fusion angle lies within 0.35 of the S0
# integral's strip edge or past it, and at z = 0.0201 a few odd m up to the
# largest, 47: (z, m)
BREATHER_COUPLING_POINTS = tuple(
    (z, m)
    for z in (0.3, 0.27, 0.22, 0.15)
    for m in range(1, int(1 / z), 2)
    if math.pi - float(_xi(z)) * m >= min(float(_xi(z)), math.pi) - 0.35
) + tuple((0.0201, m) for m in (1, 3, 15, 31, 47))


C_CONST_Z = (0.05, 0.1, 0.2, 0.25, 1.0 / 3.0, 0.4, 0.6, 0.75, 0.9)
# F exists for z < 1/2 only
BIGF_PREFACTOR_Z = (0.05, 0.1, 0.2, 0.25, 1.0 / 3.0, 0.4)


def _fmt(c):
    return f"complex({float(c.real)!r}, {float(c.imag)!r})"


if __name__ == "__main__":
    print("EXP_I = (")
    for z, lam in exp_i_points():
        print(f"    ({z!r}, {_fmt(lam)}, {_fmt(exp_i(lam, z))}),")
    print(")")
    print("EXP_I_REMOVABLE = (")
    for num, den, lam in EXP_I_REMOVABLE_POINTS:
        value = exp_i(lam, mp.mpf(num) / den)
        print(f"    ({num / den!r}, {_fmt(lam)}, {_fmt(value)}),")
    print(")")
    print("RS_PHASE = (")
    for z, lam in RS_POINTS:
        print(f"    ({z!r}, {_fmt(lam)}, {_fmt(rs_phase(lam, z))}),")
    print(")")
    print("S0 = (")
    for z, theta in S0_POINTS:
        print(f"    ({z!r}, {_fmt(theta)}, {_fmt(s0(theta, z))}),")
    print(")")
    print("S0_FAR = (")
    for z, theta in S0_FAR_POINTS:
        print(f"    ({z!r}, {_fmt(theta)}, {_fmt(s0(theta, z))}),")
    print(")")
    _check_s0_imag_axis()
    print("S0_IMAG_AXIS = (")
    for z, t in S0_IMAG_AXIS_POINTS:
        print(f"    ({z!r}, {t!r}, {float(s0_imag_axis(t, z))!r}),")
    print(")")
    print("BREATHER_COUPLING = (")
    for z, m in BREATHER_COUPLING_POINTS:
        print(f"    ({z!r}, {m!r}, {float(breather_coupling(m, z))!r}),")
    print(")")
    print("C_CONST = (")
    for z in C_CONST_Z:
        print(f"    ({z!r}, {float(c_const(z))!r}),")
    print(")")
    print("BIGF_PREFACTOR = (")
    for z in BIGF_PREFACTOR_Z:
        print(f"    ({z!r}, {float(bigf_prefactor(z))!r}),")
    print(")")
