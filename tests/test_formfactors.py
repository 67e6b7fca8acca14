import cmath
import math
import re

import mpmath
import numpy as np
import pytest

import bscat.formfactors as formfactors_mod
from bscat.errors import DomainError, ToleranceNotMet
from bscat.formfactors import (
    _bigf_cached,
    _bigf_head,
    _breather_coupling_arg,
    _exp_i_direct,
    _exp_i_line,
    _loggamma,
    _TABLE_N,
    bigF,
    bigH,
    c_const,
    exp_I,
    f_111,
    f_12,
    f_breather1,
    f_pm,
    f_pm1,
    r0_weights,
    zeta,
)
from bscat.model import make_model
from bscat.smatrix import s0, s_breather_breather, s_breather_soliton
from pair_pair import f_pmpm
from stacking import row_by_row

SPEC3 = make_model("bsg", 1.0 / 3.0)
SPEC4 = make_model("bsg", 0.25)
SPEC5 = make_model("bsg", 0.2)
SPEC10 = make_model("bsg", 0.1)
SPEC_HALF = make_model("bsg", 0.5)


def _loggamma_error(z):
    """Worst |_loggamma - log Gamma| / max(1, |log Gamma|) over the array z,
    against 30-digit mpmath."""
    got = _loggamma(z)
    worst = 0.0
    with mpmath.workdps(30):
        for arg, value in zip(z, got):
            ref = complex(mpmath.loggamma(mpmath.mpc(arg.real, arg.imag)))
            worst = max(worst, abs(value - ref) / max(1.0, abs(ref)))
    return worst


class TestLogGamma:
    # the principal branch, the one mpmath.loggamma returns
    def test_table_range(self):
        # the e^{I} tables' arguments: Re z >= 2 max(1, 1/xi) after the fold
        re, im = np.meshgrid(
            np.linspace(2.0, 60.0, 17), np.linspace(-60.0, 60.0, 17)
        )
        assert _loggamma_error((re + 1j * im).ravel()) <= 1e-14

    def test_direct_path_by_reflection(self):
        # off the poles at the non-positive integers
        re, im = np.meshgrid(
            np.linspace(-4.9877, 0.4877, 23), np.linspace(-60.0, 60.0, 13)
        )
        assert _loggamma_error((re + 1j * im).ravel()) <= 1e-14

    def test_next_to_the_negative_real_axis(self):
        # where the principal branch jumps: Im log Gamma(x +- i0) is -+ 3 pi
        # on (-3, -2)
        re = np.linspace(-4.9877, 0.4877, 56)
        z = np.concatenate([re + 1e-3j, re - 1e-3j])
        assert _loggamma_error(z) <= 1e-14
        jump = _loggamma(-2.5 + 1e-3j) - _loggamma(-2.5 - 1e-3j)
        assert abs(jump.imag + 6.0 * math.pi) < 1e-2

    def test_real_input_returns_a_real_result(self):
        x = np.array([0.1, 0.5, 1.0, 2.0, 3.5, 12.25, 60.0])
        assert _loggamma(x).dtype == np.float64
        assert _loggamma_error(x) <= 1e-14


class TestBuildingBlocks:
    def test_exp_I_frozen(self):
        assert exp_I(0.7, SPEC3) == pytest.approx(
            0.5797734079090228 + 0.19502159567712796j, abs=1e-11
        )

    def test_exp_I_truncation_independence(self):
        # the tabulated value against the direct N-term representation
        for lam in (0.3, -0.6, 0.3 + 0.2j):
            ref = exp_I(lam, SPEC3)
            for n in (5, 10, 20):
                assert abs(_exp_i_direct(complex(lam), SPEC3.xi, n) - ref) < 1e-10

    @pytest.mark.parametrize("z", [0.1, 0.25, 0.4, 0.6])
    def test_exp_I_table_matches_direct(self, z):
        # lines 0, +-pi and +-theta1/2 carry the zeros and poles of e^{I} at
        # Re lambda = 0 (z = 1/4 at theta1/2, z >= 0.4 at pi); z = 0.1
        # takes the same N = 2 tables as the other z
        spec = make_model("bsg", z)
        half_theta1 = (math.pi - spec.xi) / 2.0
        n = _TABLE_N
        for im in (0.0, math.pi, -math.pi, half_theta1, -half_theta1):
            for re in (1e-9, -1e-9, 0.3, -0.3, 20.0, -20.0):
                lam = complex(re, im)
                ref = _exp_i_direct(lam, spec.xi, n)
                assert abs(exp_I(lam, spec) / ref - 1.0) <= 1e-12

    def test_exp_I_table_reports_its_panels_and_error(self):
        # a line no other test uses: one lookup builds one checked panel
        im = 0.123456789
        exp_I(complex(3.7, im), SPEC3)
        table = _exp_i_line(SPEC3.xi, im)
        assert table.panels == 1
        assert 0.0 < table.worst_error <= 1e-12

    def test_exp_I_divergent_residual_is_refused_before_any_table(self):
        before = _exp_i_line.cache_info().currsize
        with pytest.raises(
            DomainError, match=r"exp_I residual integral diverges at Im lambda = "
        ):
            exp_I(complex(0.4, 25.0 * math.pi), SPEC3)
        assert _exp_i_line.cache_info().currsize == before

    def test_exp_I_overflow_is_a_domain_error(self):
        # at z = 0.005 the exponent of e^{I(20)} is about 906: a DomainError
        # naming lambda, not a bare OverflowError
        with pytest.raises(DomainError, match=r"e\^I overflows at lambda = \(20\+0j\)"):
            exp_I(20.0, make_model("bsg", 0.005))

    def test_bigF_truncation_independence(self):
        for lam in (0.7, -0.4):
            ref = _bigf_cached(lam, 0.0, SPEC3.xi, 20)
            assert abs(bigF(lam, SPEC3) - ref) < 1e-10
            for n in (1, 5, 10):
                assert abs(_bigf_cached(lam, 0.0, SPEC3.xi, n) - ref) < 1e-10

    @pytest.mark.parametrize("spec", [SPEC3, SPEC5], ids=["z=1/3", "z=0.2"])
    def test_bigF_array_equals_its_scalar_entry(self, spec):
        # an array goes line by line, each line one family tail integral
        # sized by its largest |Re lambda|; a number through the memo
        xi = spec.xi
        re = np.linspace(-7.0, 7.0, 29)
        lines = (0.0, math.pi, -math.pi, 0.5 * xi, -0.5 * xi)
        lam = np.add.outer(re, 1j * np.array(lines))
        value = bigF(lam, spec)
        scalars = np.array([[_bigf_cached(x.real, x.imag, xi, 10) for x in row] for row in lam])
        # F(0) = 0: the one zero on these lines is exact both ways
        assert np.array_equal(value == 0.0, scalars == 0.0)
        assert np.count_nonzero(scalars == 0.0) == 1
        nonzero = scalars != 0.0
        assert np.max(np.abs(value[nonzero] / scalars[nonzero] - 1.0)) <= 1e-13

    def test_bigF_pole_is_refused_on_an_array(self):
        # F has a pole where a factor of its Gamma product's denominator
        # vanishes, u^2 = -(k - 1/2 - xi/(2 pi))^2: at k = 1, lambda = -i xi
        with pytest.raises(DomainError, match="F\\(lambda\\) pole at lambda"):
            bigF(np.array([0.5, -1j * SPEC3.xi, 0.3]) - 0.0j, SPEC3)

    def test_c_const_frozen(self):
        assert c_const(SPEC3) == pytest.approx(2.2511051861189615, rel=1e-10)

    @pytest.mark.parametrize("z", [0.2, 1.0 / 3.0, 0.4, 0.6, 0.75, 0.9])
    def test_c_const_normalizes_zeta_at_the_origin(self, z):
        # c^2 e^{I(0)} = sqrt|4 - 4p|; at z > 1/2 (p < 2) the integral of c
        # decays as e^{-pi x}, not e^{-xi x}
        spec = make_model("bsg", z)
        lhs = c_const(spec) ** 2 * exp_I(0.0, spec)
        rhs = math.sqrt(abs(4.0 - 4.0 * spec.p))
        assert abs(lhs / rhs - 1.0) <= 1e-12

    @pytest.mark.parametrize("z", [1.0 / 21.0, 1.0 / 30.0])
    def test_c_const_refused_at_large_integer_p(self, z):
        # the N = 0 residual's sin(i pi x/2)^2 grows past a double on the
        # panels its decay min(xi, pi) needs: the panel rule refuses
        with pytest.raises(ToleranceNotMet, match="panel rule"):
            c_const(make_model("bsg", z))

    def test_zeta_composition(self):
        lam = 0.9
        expected = c_const(SPEC3) * cmath.sinh(lam / 2.0) * exp_I(lam, SPEC3)
        assert zeta(lam, SPEC3) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("spec", [SPEC3, SPEC4], ids=["p3", "p4"])
    def test_bigH_matches_high_precision_sum(self, spec):
        # the contour mean as a 128-node trapezoid sum, exact for this
        # trigonometric polynomial, evaluated with 50 digits
        ls = (0.4 + 0.1j, -0.7, 1.3 - 0.2j, 0.2 + 0.3j)
        p = spec.p_int
        m = 128
        with mpmath.workdps(50):
            cs = [
                mpmath.mpc(l) + 1j * mpmath.pi * (j / mpmath.mpf(p - 1) - 0.25)
                for l in ls
                for j in range(1, p - 1)
            ]
            acc = mpmath.mpc(0)
            for k in range(m):
                alpha = -2j * mpmath.pi * k / m
                term = mpmath.exp(-alpha)
                for c in cs:
                    term *= 2 * mpmath.sinh((alpha - c) / 2)
                acc += term
            expected = complex(acc / m)
        value = bigH(*ls, spec)
        assert abs(value - expected) <= 1e-10 * abs(expected)

    @pytest.mark.parametrize("spread", [5.0, 15.0])
    @pytest.mark.parametrize("p", [3, 4, 5, 8])
    def test_bigH_exact_at_wide_rapidity_spread(self, p, spread):
        # The integrand has degree 2(p-2)+1 in e^{i phi}, so the trapezoid
        # rule with m = 2(p-2)+2 nodes is exact.  With rapidities of one sign
        # its terms exceed their cancelling sum by many orders, so the
        # precision is doubled until doubling it no longer moves the value.
        ls = (
            spread + 0.1j,
            0.8 * spread - 0.3j,
            0.35 * spread + 0.2j,
            -0.55 * spread + 0.4j,
        )
        m = 2 * (p - 2) + 2

        def contour_mean(dps):
            with mpmath.workdps(dps):
                cs = [
                    mpmath.mpc(l) + 1j * mpmath.pi * (mpmath.mpf(j) / (p - 1) - 0.25)
                    for l in ls
                    for j in range(1, p - 1)
                ]
                acc = mpmath.mpc(0)
                for k in range(m):
                    alpha = -2j * mpmath.pi * k / m
                    term = mpmath.exp(-alpha)
                    for c in cs:
                        term *= 2 * mpmath.sinh((alpha - c) / 2)
                    acc += term
                return acc / m

        dps = 30
        value = contour_mean(dps)
        while True:
            finer = contour_mean(2 * dps)
            if abs(finer - value) <= mpmath.mpf(10) ** (-25) * abs(finer):
                break
            dps, value = 2 * dps, finer
        expected = complex(finer)
        assert abs(bigH(*ls, make_model("bsg", 1.0 / p)) - expected) <= 1e-13 * abs(
            expected
        )


class TestLorentzCovariance:
    """All form factors carry Lorentz spin 1: shifting every rapidity by a
    real constant a multiplies the value by e^a."""

    A = 0.3

    def check(self, f0, fa):
        assert fa == pytest.approx(math.exp(self.A) * f0, rel=1e-10)

    def test_f_pm(self):
        self.check(f_pm(0.4, -0.3, SPEC3), f_pm(0.4 + self.A, -0.3 + self.A, SPEC3))

    def test_f_breather1(self):
        self.check(
            f_breather1(1, 0.2, SPEC3), f_breather1(1, 0.2 + self.A, SPEC3)
        )

    def test_f_111(self):
        self.check(
            f_111(0.4, -0.3, 0.2, SPEC5),
            f_111(0.4 + self.A, -0.3 + self.A, 0.2 + self.A, SPEC5),
        )

    def test_f_12(self):
        self.check(
            f_12(0.4, -0.3, SPEC4), f_12(0.4 + self.A, -0.3 + self.A, SPEC4)
        )

    def test_f_pmpm(self):
        self.check(
            f_pmpm(0.4, -0.3, 0.9, 0.1, SPEC3),
            f_pmpm(0.4 + self.A, -0.3 + self.A, 0.9 + self.A, 0.1 + self.A, SPEC3),
        )

    def test_f_pm1(self):
        self.check(
            f_pm1(0.4, -0.3, 0.9, SPEC3),
            f_pm1(0.4 + self.A, -0.3 + self.A, 0.9 + self.A, SPEC3),
        )


class TestExchangeAxiom:
    # at z = 0.1 (p = 10) S0 needs its integral on the whole real axis
    @pytest.mark.parametrize("spec", [SPEC3, SPEC4, SPEC10], ids=["p3", "p4", "p10"])
    def test_f_pm_watson(self, spec):
        p = spec.p_int
        for l1, l2 in ((0.4, -0.3), (1.2, 0.1), (-0.8, 0.9)):
            lhs = f_pm(l1, l2, spec)
            rhs = (-1.0) ** (p + 1) * s0(l2 - l1, spec) * f_pm(l2, l1, spec)
            assert abs(lhs - rhs) / abs(lhs) < 1e-8

    def test_f_pm_at_coinciding_rapidities(self):
        # at even p the sinh/cosh ratio is 0/0 at l1 = l2; its limit matches
        # the mean of the two sides to O(h^2)
        for lam in (0.3, -0.7):
            centre = f_pm(lam, lam, SPEC4)
            assert cmath.isfinite(centre) and abs(centre) > 0.1
            for h in (1e-2, 1e-3, 1e-4):
                mean = 0.5 * (f_pm(lam + h, lam, SPEC4) + f_pm(lam - h, lam, SPEC4))
                assert abs(mean - centre) <= h * h * abs(centre)

    def test_f_111_exchange(self):
        for l1, l2, l3 in ((0.4, -0.3, 0.2), (1.1, 0.5, -0.6)):
            lhs = f_111(l1, l2, l3, SPEC5)
            rhs = s_breather_breather(l2 - l1, 1, 1, SPEC5) * f_111(
                l2, l1, l3, SPEC5
            )
            assert abs(lhs - rhs) / abs(lhs) < 1e-8

    def test_f_pm_conjugation(self):
        # on real rapidities conj(f_+-(l1,l2)) = f_-+(l2,l1) = -f_+-(l2,l1)
        for l1, l2 in ((0.4, -0.3), (1.2, 0.1)):
            lhs = f_pm(l1, l2, SPEC3).conjugate()
            assert lhs == pytest.approx(-f_pm(l2, l1, SPEC3), rel=1e-10)


class TestKinematicPole:
    @pytest.mark.parametrize("spec", [SPEC3, SPEC4], ids=["p3", "p4"])
    def test_residue_structure(self, spec):
        """The annihilation pole of f_pm1 at l2 = l1 + i pi has residue
        proportional to (1 - S_breather-soliton(l1 - l3)) f_breather1(l3),
        with a kinematics-independent unimodular constant."""
        eps = 1e-7
        consts = []
        for l1, l3 in ((0.3, -0.4), (-0.6, 0.8), (1.1, 0.2)):
            f = f_pm1(l1, l1 + 1j * (math.pi - eps), l3, spec)
            residue = 1j * eps * f
            target = (1.0 - s_breather_soliton(l1 - l3, 1, spec)) * f_breather1(
                1, l3, spec
            )
            consts.append(residue / target)
        for c in consts:
            assert abs(c - consts[0]) < 1e-6
            assert abs(abs(c) - 1.0) < 1e-6

    def test_residue_constant_frozen(self):
        eps = 1e-7
        for spec, expected in ((SPEC3, -1.0), (SPEC4, 1.0)):
            f = f_pm1(0.3, 0.3 + 1j * (math.pi - eps), -0.4, spec)
            residue = 1j * eps * f
            target = (1.0 - s_breather_soliton(0.7, 1, spec)) * f_breather1(
                1, -0.4, spec
            )
            c = residue / target
            assert c == pytest.approx(
                expected * cmath.exp(1j * math.pi / 4.0), abs=1e-5
            )


def _residue(func, h=1e-4):
    """Residue of func's simple pole at offset 0: three-point Richardson of
    eps func(eps) over eps in {h, h/2, h/4}."""
    r = [e * func(e) for e in (h, h / 2.0, h / 4.0)]
    return (8.0 * r[2] - 6.0 * r[1] + r[0]) / 3.0


class TestBreatherFusion:
    @pytest.mark.parametrize("la, lb", [(0.0, 0.2), (-0.3, 0.45), (0.7, -0.5)])
    @pytest.mark.parametrize("z", [0.32, 0.3, 0.25, 0.23, 0.2, 0.15, 0.1])
    def test_f_111_fuses_to_f_12(self, z, la, lb):
        """Res_{l3 = l2 + i xi} f_111(l1, l2, l3) = i kappa_2 f_12(l1, l2 + i
        xi/2), the bound-state fusion axiom at the breather-2 pole.  The
        phase of kappa_2 = e^{i phi} sqrt(2 tan xi) is that of eta, the
        coupling kappa_1 that fuses f_pm into f_1 at the breather-1 pole over
        sqrt(-2 _breather_coupling_arg(1)).  Only the phase transfers: |eta|
        = 1/sqrt(2), because the soliton pair couples to the breather
        through two orderings, and the identical-particle 11 channel has no
        such factor."""
        spec = make_model("bsg", z)
        xi = spec.xi
        th1 = math.pi - xi
        res_pm = _residue(lambda eps: f_pm(0.0, 1j * th1 + eps, spec))
        kappa1 = res_pm / (1j * f_breather1(1, 0.5j * th1, spec))
        eta = kappa1 / cmath.sqrt(-2.0 * _breather_coupling_arg(1, spec))
        kappa2 = eta / abs(eta) * cmath.sqrt(2.0 * math.tan(xi))
        res_111 = _residue(lambda eps: f_111(la, lb, lb + 1j * xi + eps, spec))
        expected = res_111 / (1j * kappa2)
        value = f_12(la, lb + 0.5j * xi, spec)
        assert abs(value / expected - 1.0) <= 1e-9

    @pytest.mark.parametrize("z", [1.0 / 3.0, 0.25, 0.2])
    def test_f_pmpm_fuses_to_f_pm1(self, z):
        """Res_{l4 = l3 + i theta_1} f_{+-+-}(l1, l2, l3 - i theta_1/2, l4) =
        kappa f_pm1(l1, l2, l3), with the constant kappa of Res_{l2 = l1 + i
        theta_1} f_pm(l1 - i theta_1/2, l2) = kappa f_1(l1): the soliton
        pair fuses to breather 1 alike in both.  The reversed order has no
        pole."""
        spec = make_model("bsg", z)
        half = 0.5j * (math.pi - spec.xi)
        kappa = _residue(lambda eps: f_pm(0.1 - half + eps, 0.1 + half, spec)) / (
            f_breather1(1, 0.1, spec)
        )
        for l1, l2, l3 in ((0.4, -0.3, 0.9), (-0.2, 0.6, 0.1), (1.1, 0.3, -0.5)):
            res = _residue(lambda eps: f_pmpm(l1, l2, l3 - half + eps, l3 + half, spec))
            assert abs(res / (kappa * f_pm1(l1, l2, l3, spec)) - 1.0) <= 1e-9


class TestFreeFermionPoint:
    def test_f_pm_closed_form(self):
        for l1, l2 in ((0.4, -0.3), (1.0, 0.2)):
            closed = -2j * math.pi * cmath.exp((l1 + l2) / 2.0)
            assert f_pm(l1, l2, SPEC_HALF) == pytest.approx(closed, rel=1e-10)

    def test_four_excitation_factors_vanish(self):
        assert f_pmpm(0.4, -0.3, 0.9, 0.1, SPEC_HALF) == 0.0
        assert f_pm1(0.4, -0.3, 0.9, SPEC_HALF) == 0.0


class TestFrozenValues:
    def test_f_breather1(self):
        val = f_breather1(1, 0.0, SPEC3)
        assert val == pytest.approx(3.4184537570354805 + 0.0j, rel=1e-9)

    def test_f_pmpm(self):
        assert f_pmpm(0.4, -0.3, 0.9, 0.1, SPEC3) == pytest.approx(
            -0.02938963535640173 + 0.03540121005805403j, rel=1e-8
        )

    def test_f_pm1(self):
        assert f_pm1(0.4, -0.3, 0.9, SPEC3) == pytest.approx(
            -0.3238171109493235 - 0.4190372006995321j, rel=1e-8
        )

    def test_f_111(self):
        assert f_111(0.4, -0.3, 0.2, SPEC5) == pytest.approx(
            -0.061302933850241964 - 0.030587015608126118j, rel=1e-8
        )

    def test_f_12_finite_at_origin(self):
        val = f_12(0.0, 0.0, SPEC4)
        assert val == pytest.approx(-0.1837500932168543j, abs=1e-7)


class TestBreatherCoupling:
    @pytest.mark.parametrize("z0", [1.0 / 3.0, 0.25, 0.2])
    def test_continuous_through_integer_p(self, z0):
        # breather 1 sits on an S0 pole at integer p, where the coupling is
        # the limit of (xi/pi) sin(pi^2/xi) S0(i theta_1); the closed form
        # holds on both sides, so at z0 -/+ 1e-5 the two average to it
        residue = _breather_coupling_arg(1, make_model("bsg", z0))
        mean = 0.5 * sum(
            _breather_coupling_arg(1, make_model("bsg", z0 + dz))
            for dz in (-1e-5, 1e-5)
        )
        assert mean == pytest.approx(residue, rel=1e-8)

    @pytest.mark.parametrize("z", [0.38, 0.4, 0.45, 0.48])
    def test_equals_the_s0_expression_inside_the_strip(self, z):
        # theta_1 lies inside the S0 integral's strip: the closed form
        # against (xi/pi) sin(pi^2/xi) S0(i theta_1) from the integral
        spec = make_model("bsg", z)
        xi = spec.xi
        s0_val = s0(1j * (math.pi - xi), spec).real
        expected = (xi / math.pi) * math.sin(math.pi**2 / xi) * s0_val
        assert _breather_coupling_arg(1, spec) == pytest.approx(expected, rel=1e-12)


class TestTruncationWeights:
    def test_z_third(self):
        w = r0_weights(SPEC3)
        assert set(w) == {"m1", "pm", "pm1"}
        assert w["m1"] == pytest.approx(0.9299284930874943, rel=1e-10)
        assert w["pm"] == pytest.approx(0.06824025892080751, rel=1e-8)
        assert w["pm1"] == pytest.approx(0.001716289731693243, rel=1e-5)

    def test_z_half_is_saturated_by_the_pair(self):
        w = r0_weights(SPEC_HALF)
        assert set(w) == {"pm"}
        assert w["pm"] == pytest.approx(1.0, abs=1e-10)

    def test_non_integer_p_drops_mixed_set(self):
        w = r0_weights(make_model("bsg", 0.47))
        assert set(w) == {"m1", "pm"}
        assert sum(w.values()) == pytest.approx(1.0, abs=5e-2)

    def test_breather_pole_reported(self):
        with pytest.raises(DomainError):
            # coinciding soliton rapidities at the breather bound-state pole
            f_pm(0.0, -1j * (math.pi - SPEC3.xi), SPEC3)


class TestStackedZeta:
    @pytest.mark.parametrize("spec", [SPEC3, SPEC4], ids=["1/3", "1/4"])
    def test_f_pm1_equals_its_unstacked_product(self, monkeypatch, spec):
        # f_pm1's five zeta come from one zeta call on the stacked
        # arguments: on arrays the form factor is bit for bit the one of
        # five calls, also with its soliton lines crossed onto Im = pi as
        # in the spectrum's G3A
        rng = np.random.default_rng(2)
        l1, l2, l3 = rng.uniform(-3.0, 3.0, (3, 4, 5))
        cases = [(l1, l2, l3), (l2 + 1j * math.pi, l1 + 1j * math.pi, l3), (l1, l2[0], l3)]
        stacked = [f_pm1(*args, spec) for args in cases]
        monkeypatch.setattr(formfactors_mod, "zeta", row_by_row(zeta, 1))
        for args, value in zip(cases, stacked):
            assert value.shape == (4, 5)
            assert np.array_equal(value, f_pm1(*args, spec))


class TestSmallCoupling:
    def test_f_pm1_is_smooth_where_its_sinh_product_overflows(self):
        # at z = 0.05 (p - 1 = 19) f_pm1's two exchange sinh are finite at
        # l = (-23.2, -11.6, l3), but their product overflows from l3 = 1.32
        # on (the pair + breather set's r0 weight reaches l3 = 1.80): the
        # form factor is divided by each in turn there, and the steps of
        # log f_pm1 across the threshold change by 7e-10 at most
        spec = make_model("bsg", 0.05)
        l3 = np.linspace(1.2, 1.45, 26)
        th = 0.5j * formfactors_mod.theta_m(1, spec)
        with np.errstate(over="ignore", invalid="ignore"):
            product = np.sinh(19.0 * (l3 + 23.2 + th)) * np.sinh(19.0 * (-11.6 - l3 + th))
        assert 0 < np.count_nonzero(np.isfinite(product)) < l3.size
        f = f_pm1(-23.2, -11.6, l3, spec)
        steps = np.log(f[1:] / f[:-1])
        assert np.max(np.abs(np.diff(steps))) <= 1e-8


def _bigf_head_by_k(lam, xi, N):
    """F's Gamma-product head one k at a time: the log of the product and
    where it is an exact 0, or DomainError at a pole."""
    u = 0.5j + lam / (2.0 * math.pi)
    u2 = u * u
    xh = xi / (2.0 * math.pi)
    prod = np.zeros(lam.shape, dtype=complex)
    zero = np.zeros(lam.shape, dtype=bool)
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
        pole = (np.abs(den) < 1e-280) & ~zero
        if pole.any():
            raise DomainError(f"F(lambda) pole at lambda = {lam[pole][0]}")
        zero |= np.abs(num) < 1e-280
        with np.errstate(divide="ignore", invalid="ignore"):
            prod += k * np.log(num / den)
    return prod, zero


class TestBigFHead:
    @pytest.mark.parametrize("spec", [SPEC3, SPEC4, SPEC10], ids=["1/3", "1/4", "0.1"])
    def test_all_k_at_once_equals_one_k_at_a_time(self, spec):
        rng = np.random.default_rng(9)
        lam = rng.uniform(-8.0, 8.0, (6, 7)) + 1j * rng.uniform(-2.0, 2.0, (6, 7))
        prod, zero = _bigf_head(lam, spec.xi, 10)
        expected, expected_zero = _bigf_head_by_k(lam, spec.xi, 10)
        assert np.array_equal(prod, expected)
        assert np.array_equal(zero, expected_zero) and not zero.any()

    # with u = i/2 + lambda/(2 pi) = i a exact, a factor 1 + u^2/c^2
    # vanishes where |c| = a.  At xi/(2 pi) = 3/4, a = 1/4 zeroes the k = 1
    # numerator factor (k - xi/2pi) and denominator factor (k - 1/2 -
    # xi/2pi) alike; at 5/4 it zeroes the numerator at k = 1 and the
    # denominator only at k = 2; and a = 3/2 zeroes the denominator at k = 1
    # (k + 1/2) before the numerator at k = 2 (k - 1/2)
    @pytest.mark.parametrize(
        "xh, lam, outcome",
        [
            (0.75, -0.5j * math.pi, "pole"),
            (1.25, -0.5j * math.pi, "zero"),
            (0.75, 2j * math.pi, "pole"),
            (1.25, 2j * math.pi, "pole"),
        ],
        ids=["same-k", "numerator-first", "denominator-first", "denominator-first-2"],
    )
    def test_zero_and_pole_precedence(self, xh, lam, outcome):
        xi = xh * 2.0 * math.pi
        points = np.array([0.3 + 0.1j, lam, 1.1 - 0.2j])
        if outcome == "pole":
            for head in (_bigf_head, _bigf_head_by_k):
                with pytest.raises(DomainError, match=re.escape(f"pole at lambda = {lam!r}")):
                    head(points, xi, 10)
        else:
            prod, zero = _bigf_head(points, xi, 10)
            assert zero.tolist() == [False, True, False]
            assert _bigf_head_by_k(points, xi, 10)[1].tolist() == zero.tolist()
            assert np.array_equal(prod[~zero], _bigf_head_by_k(points, xi, 10)[0][[0, 2]])

    def test_the_earliest_pole_is_named(self):
        # a denominator at k = 2 (a = 5/2 at xi/2pi = 1/3, from k + 1/2)
        # and one at k = 1 (a = 3/2): the k = 1 pole is named, though its
        # point comes second, as the loop over k names it
        xi = 2.0 * math.pi / 3.0
        points = np.array([4j * math.pi, 2j * math.pi])
        for head in (_bigf_head, _bigf_head_by_k):
            with pytest.raises(DomainError, match=re.escape(f"pole at lambda = {2j * math.pi!r}")):
                head(points, xi, 10)


_P_FIVE_HALVES = make_model("bsg", 0.4)


@pytest.mark.parametrize(
    "call, message",
    [
        # f_pm's rapidity difference past the strip |Im| <= 2 pi (_check_strip)
        (lambda: f_pm(0.0, 7j, SPEC3), "rapidity difference -7j outside the analyticity strip"),
        (lambda: f_111(0.0, 0.1, 0.2, SPEC_HALF), "no breathers at z = 0.5"),
        (
            lambda: f_111(0.3, 0.3 + 1j * math.pi, -0.2, SPEC3),
            "f_111 kinematic pole at e^l1 + e^l2 = 0 (l1 = (0.3+0j))",
        ),
        (lambda: f_12(0.0, 0.1, SPEC3), f"f_12 requires two breathers (z = {1.0 / 3.0})"),
        (lambda: bigH(0.0, 0.1, 0.2, 0.3, _P_FIVE_HALVES), "H is defined for integer p only"),
        (lambda: f_pm1(0.0, 0.1, 0.2, _P_FIVE_HALVES), "f_pm1 is implemented for integer p only"),
        # sinh((p - 1)(l3 - l1 + i theta/2)) = 0 at l3 - l1 = -i theta/2 = -i pi/4
        (
            lambda: f_pm1(0.0, 0.3, -0.25j * math.pi, SPEC3),
            f"f_pm1 exchange pole (coinciding rapidities) at l3 - l1 = {-0.25j * math.pi}",
        ),
    ],
    ids=["strip", "f_111-no-breather", "f_111-pole", "f_12-one-breather", "bigH-p",
         "f_pm1-p", "f_pm1-pole"],
)
def test_refusals_name_the_offending_point(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()
