import cmath
import math

import mpmath
import numpy as np
import pytest

from bscat.errors import DomainError
from bscat.model import ModelKind
from bscat.quadrature import adaptive_1d
from bscat.spectrum import default_omega_prime_grid
from closed_forms import kondo_half_spectrum
from referm import (
    conductance_finite_T,
    loss_half,
    r_half_closed,
    spectrum_half,
)

BSG = ModelKind.BoundarySineGordon
KONDO = ModelKind.Kondo


class TestClosedForm:
    def test_bsg_unit_frequency(self):
        assert r_half_closed(1.0, BSG) == pytest.approx(
            1.0 - 2j * cmath.log(1.0 - 1j), abs=1e-15
        )

    def test_kondo_frozen(self):
        assert r_half_closed(1.0, KONDO) == pytest.approx(
            -0.18283627516591494 + 0.9793781892119391j, abs=1e-14
        )

    def test_limits(self):
        assert abs(r_half_closed(1e6, BSG) - 1.0) < 1e-4
        assert abs(r_half_closed(1e-6, BSG) - (-1.0)) < 1e-4
        assert abs(r_half_closed(1e-6, KONDO) - 1.0) < 1e-4

    def test_subunitary(self):
        for model in (BSG, KONDO):
            for omega in (0.05, 0.7, 3.0, 40.0):
                assert abs(r_half_closed(omega, model)) < 1.0

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(DomainError):
            r_half_closed(0.0, BSG)

    @pytest.mark.parametrize("omega", [math.nan, math.inf])
    def test_rejects_nonfinite_frequency(self, omega):
        with pytest.raises(DomainError):
            r_half_closed(omega, BSG)


class TestLoss:
    @pytest.mark.parametrize("model", [BSG, KONDO], ids=["bsg", "kondo"])
    @pytest.mark.parametrize("omega", [10.0**k for k in range(-10, 5, 2)])
    def test_against_80_digit_arithmetic(self, model, omega):
        # 1 - |r|^2 from the closed form of r at 80 digits: at omega =
        # 1e-10 the Kondo loss is 2e-62, so the direct form keeps 18 digits
        # there, while in doubles it read 0 from omega = 1e-4
        with mpmath.workdps(80):
            w = mpmath.mpf(omega)
            if model is BSG:
                lam = mpmath.mpf(1) / 2
                r = 1 - (4j * lam / w) * mpmath.log(1 - 1j * w / (2 * lam))
            else:
                lam = mpmath.mpf(2)
                r = 1 - (2j * lam / (w + 1j * lam)) * mpmath.log(1 - 1j * w / (lam / 2))
            exact = float(1 - abs(r) ** 2)
        assert loss_half(omega, model) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_small_frequency_limits(self):
        # bsG tends to omega^2/3 and Kondo to omega^6/45
        omega = 1e-10
        assert loss_half(omega, BSG) == pytest.approx(omega**2 / 3.0, rel=1e-14)
        assert loss_half(omega, KONDO) == pytest.approx(omega**6 / 45.0, rel=1e-14)

    def test_equals_the_closed_form_where_it_does_not_cancel(self):
        for model in (BSG, KONDO):
            for omega in (1.0, 3.0, 40.0):
                direct = 1.0 - abs(r_half_closed(omega, model)) ** 2
                assert loss_half(omega, model) == pytest.approx(direct, rel=1e-13)


class TestFiniteTemperature:
    def test_zero_temperature_reduction(self):
        for model in (BSG, KONDO):
            for omega in (0.3, 1.0, 5.0):
                a = conductance_finite_T(omega, 0.0, model)
                b = r_half_closed(omega, model)
                assert abs(a - b) < 1e-10

    def test_frozen_regressions(self):
        assert conductance_finite_T(1.0, 0.5, KONDO) == pytest.approx(
            0.189906920759341 + 0.8765576814549791j, abs=1e-12
        )
        assert conductance_finite_T(1.0, 0.5, BSG) == pytest.approx(
            -0.28160422107530847 - 0.3718142385131692j, abs=1e-12
        )

    def test_thermal_smearing_reduces_reflection(self):
        cold = abs(conductance_finite_T(0.1, 0.0, BSG))
        hot = abs(conductance_finite_T(0.1, 2.0, BSG))
        assert hot < cold

    def test_rejects_negative_temperature(self):
        with pytest.raises(DomainError):
            conductance_finite_T(1.0, -0.1, BSG)

    @pytest.mark.parametrize(
        "omega, temperature",
        [(math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (1.0, math.inf)],
    )
    def test_rejects_nonfinite_input(self, omega, temperature):
        with pytest.raises(DomainError):
            conductance_finite_T(omega, temperature, BSG)


class TestSpectrum:
    def test_frozen_values(self):
        assert spectrum_half(0.3, 1.0, BSG) == pytest.approx(
            0.7177769911288248, rel=1e-10
        )
        assert spectrum_half(0.3, 1.0, KONDO) == pytest.approx(
            0.046639038062904786, rel=1e-10
        )

    def test_kondo_low_frequency_grid(self):
        # the Kondo integrand has no cancellation, so the oracle holds at the
        # ends of the default grid at omega = 0.1 too
        for omega_p in default_omega_prime_grid(0.1):
            exact = kondo_half_spectrum(omega_p, 0.1)
            assert spectrum_half(omega_p, 0.1, KONDO) == pytest.approx(
                exact, rel=1e-12, abs=0.0
            )

    @pytest.mark.parametrize("omega", [1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_bsg_against_30_digit_arithmetic(self, omega):
        # K K' - 1 formed directly at 30 digits, integrated by mpmath: the
        # oracle's cancellation-free form holds to 1e-12 from omega = 1e-8
        # to 1e4 (the direct double form read 6.648e-4 for 6.6467e-4 at
        # omega = 1e-6, -0.0 at 1e-8, and missed its tolerance at 1e4)
        omega_p = 1e-3 * omega
        with mpmath.workdps(30):
            lam = mpmath.mpf(1) / 2

            def kernel(w, big):
                return 1 - 2j * lam / (big + 2j * lam) - 2j * lam / (w - big + 2j * lam)

            w, wp = mpmath.mpf(omega), mpmath.mpf(omega_p)

            def f(x):
                return mpmath.re(kernel(w, x) * kernel(-w, x + wp - w) - 1)

            # break points toward both ends, where f varies on the scale lam
            width = w - wp
            ends = [lam * mpmath.mpf(10) ** k for k in range(-3, 30)]
            ends = [d for d in ends if d < width / 2]
            points = sorted([0, width / 2, width] + ends + [width - d for d in ends])
            exact = float(-2 / (w * wp) * mpmath.quad(f, points))
        assert spectrum_half(omega_p, omega, BSG) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_positive(self):
        for model in (BSG, KONDO):
            for u in (0.05, 0.3, 0.7, 0.95):
                assert spectrum_half(u * 2.0, 2.0, model) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            spectrum_half(1.0, 1.0, BSG)
        with pytest.raises(DomainError):
            spectrum_half(-0.1, 1.0, BSG)
        with pytest.raises(DomainError):
            spectrum_half(math.nan, 1.0, BSG)
        with pytest.raises(DomainError):
            spectrum_half(0.5, math.inf, BSG)

    @pytest.mark.parametrize("model", [BSG, KONDO], ids=["bsg", "kondo"])
    @pytest.mark.parametrize("omega", [0.1, 1.0, 10.0])
    def test_energy_conservation(self, model, omega):
        """The energy carried by the spectrum equals the inelastic loss
        omega (1 - |r|^2), both in closed form."""

        def f(u):
            omega_p = omega * u * u
            gamma = np.array(
                [spectrum_half(wp, omega, model) if 0.0 < wp < omega else 0.0 for wp in omega_p]
            )
            return omega_p * gamma * 2.0 * omega * u

        lhs = adaptive_1d(f, 0.0, 1.0, tol=1e-9 * omega).value.real
        rhs = omega * loss_half(omega, model)
        assert lhs == pytest.approx(rhs, rel=1e-6)
