import math

import numpy as np
import pytest

import bscat.formfactors as formfactors
import bscat.quadrature as quadrature
import bscat.smatrix as smatrix_mod
from bscat.errors import DomainError
from bscat.formfactors import exp_I
from bscat.model import make_model
from bscat.reflection import soliton_amplitudes, soliton_pair_bracket
from bscat.smatrix import s0, s_breather_breather, s_breather_soliton, soliton_s_matrix
from stacking import row_by_row


class TestScalarFactor:
    def test_free_fermion_point_is_minus_one(self):
        spec = make_model("bsg", 0.5)
        for theta in (0.3, 0.7, -1.4):
            assert s0(theta, spec) == pytest.approx(-1.0, abs=1e-10)

    def test_zero_rapidity(self):
        assert s0(0.0, make_model("bsg", 1.0 / 3.0)) == pytest.approx(
            -1.0, abs=1e-12
        )

    @pytest.mark.parametrize("z", [1.0 / 3.0, 0.4, 0.6])
    def test_unitarity(self, z):
        spec = make_model("bsg", z)
        for theta in (0.3, -0.9, 2.1):
            assert abs(s0(theta, spec) * s0(-theta, spec) - 1.0) < 1e-10

    def test_unimodular_on_real_line(self):
        spec = make_model("bsg", 0.4)
        for theta in (0.2, 1.1, -2.3):
            assert abs(abs(s0(theta, spec)) - 1.0) < 1e-11

    def test_crossing_continuation(self):
        # S0(i pi - theta) equals the soliton-antisoliton transmission entry
        spec = make_model("bsg", 0.4)
        for theta in (0.5, 1.2):
            lhs = s0(1j * math.pi - theta, spec)
            rhs = soliton_s_matrix(theta, spec)[0, 1, 0, 1]
            assert abs(lhs - rhs) < 1e-10

    def test_imaginary_axis_pole(self):
        # S0(i t) has poles at t = k xi, k >= 1, where e^{I(i t)} vanishes
        spec = make_model("bsg", 0.3)
        for k in (1, 2):
            with pytest.raises(DomainError, match="S0 pole"):
                s0(k * 1j * spec.xi, spec)

    def test_pole_just_off_the_imaginary_axis(self):
        # the zero of e^{I} at t = 2 xi, approached off the axis
        spec = make_model("bsg", 0.3)
        with pytest.raises(DomainError):
            s0(1e-300 + 2j * spec.xi, spec)

    def test_branches_agree_past_pi_half(self):
        # past Im theta = pi/2 the exchange ratio agrees with the crossing
        # image of S0 at i pi - theta, which lies below pi/2
        spec = make_model("bsg", 0.4)
        for theta in (complex(0.7, 1.6), complex(-1.2, 1.9), complex(2.0, 1.8)):
            image = s0(1j * math.pi - theta, spec) / smatrix_mod._sin_ratio(theta, spec)
            assert abs(s0(theta, spec) - image) <= 1e-12

    @pytest.mark.parametrize("z", [0.1, 0.15])
    def test_crossing_past_the_integral_strip(self, z):
        # S0(i pi - theta) = S0(theta) times the crossing factor, with theta
        # and i pi - theta both where the S0 integral diverges (its strip is
        # |Im theta| < xi = 0.35, 0.55)
        spec = make_model("bsg", z)
        for theta in (complex(0.5, 1.0), complex(-0.7, 0.6), complex(1.2, 2.0)):
            lhs = s0(1j * math.pi - theta, spec)
            rhs = s0(theta, spec) * smatrix_mod._sin_ratio(theta, spec)
            assert abs(lhs - rhs) < 1e-10

    def test_s0_makes_no_kernel_integral(self, monkeypatch):
        # S0 is the exchange ratio of e^{I}: with e^{I(+-theta)} known, no
        # semi-infinite integral runs
        spec = make_model("bsg", 0.3)
        theta = complex(1.3, 0.4)
        exp_I(theta, spec)
        exp_I(-theta, spec)

        def refuse(*args, **kwargs):
            raise AssertionError("integrate_semi_infinite called")

        for mod in (quadrature, formfactors, smatrix_mod):
            if hasattr(mod, "integrate_semi_infinite"):
                monkeypatch.setattr(mod, "integrate_semi_infinite", refuse)
        s0(theta, spec)

    def test_rejects_outside_strip(self):
        with pytest.raises(DomainError):
            s0(complex(0.0, 3.5), make_model("bsg", 0.4))


class TestStackedLookup:
    @pytest.mark.parametrize("z", [1.0 / 3.0, 0.4, 0.6])
    def test_s0_equals_its_unstacked_ratio(self, monkeypatch, z):
        # e^{I}(-theta) and e^{I}(theta) come from one exp_I call on the
        # stacked arguments: on arrays the ratio is bit for bit the one of
        # two calls
        spec = make_model("bsg", z)
        rng = np.random.default_rng(11)
        theta = rng.uniform(-3.0, 3.0, (3, 4, 5))
        arrays = [theta[0], theta[1] + 0.3j, 1j * math.pi - theta[2]]
        stacked = [s0(t, spec) for t in arrays]
        monkeypatch.setattr(smatrix_mod, "exp_I", row_by_row(exp_I, 1))
        for t, value in zip(arrays, stacked):
            assert np.array_equal(value, s0(t, spec))


class TestSolitonSector:
    def test_integer_p_is_diagonal(self):
        spec = make_model("bsg", 1.0 / 3.0)
        for theta in (0.4, -1.1):
            s = soliton_s_matrix(theta, spec)
            assert s[0, 1, 1, 0] == 0.0 and s[1, 0, 0, 1] == 0.0
            for a, b in ((0, 1), (1, 0)):
                assert s[a, b, a, b] == pytest.approx(
                    (-1.0) ** 3 * s0(theta, spec), abs=1e-12
                )

    def test_generic_z_matrix_unitarity(self):
        spec = make_model("bsg", 0.4)
        theta = 0.7
        s = soliton_s_matrix(theta, spec)
        # the loop form of sum_{mn} S_ab^mn(theta) S_mn^cd(-theta)
        s_back = soliton_s_matrix(-theta, spec)
        for a, b, c, d in np.ndindex(2, 2, 2, 2):
            acc = sum(s[a, b, m, n] * s_back[m, n, c, d] for m, n in np.ndindex(2, 2))
            target = 1.0 if (a, b) == (c, d) else 0.0
            assert abs(acc - target) < 1e-10

    def test_charge_conservation_zeros(self):
        # every entry whose outgoing charge differs from its incoming one is
        # an exact zero, at generic and at integer p
        for z in (0.4, 1.0 / 3.0):
            s = soliton_s_matrix(0.5, make_model("bsg", z))
            for a, b, c, d in np.ndindex(2, 2, 2, 2):
                if a + b != c + d:
                    assert s[a, b, c, d] == 0.0


class TestBreatherAmplitudes:
    def test_breather_soliton_frozen(self):
        spec = make_model("bsg", 1.0 / 3.0)
        assert s_breather_soliton(0.9, 1, spec) == pytest.approx(
            0.3563902609868242 + 0.9343371885319256j, abs=1e-12
        )

    def test_breather_soliton_unimodular(self):
        spec = make_model("bsg", 0.2)
        for m in (1, 2, 3):
            for theta in (0.4, -1.3):
                assert abs(abs(s_breather_soliton(theta, m, spec)) - 1.0) < 1e-12

    def test_breather_breather_frozen(self):
        spec = make_model("bsg", 0.2)
        assert s_breather_breather(0.9, 1, 1, spec) == pytest.approx(
            0.3563902609868241 + 0.9343371885319258j, abs=1e-12
        )

    def test_breather_breather_symmetric_and_unitary(self):
        spec = make_model("bsg", 0.2)
        for m1, m2 in ((1, 2), (2, 3), (1, 3)):
            for theta in (0.6, -0.8):
                a = s_breather_breather(theta, m1, m2, spec)
                b = s_breather_breather(theta, m2, m1, spec)
                assert abs(a - b) < 1e-12
                assert abs(a * s_breather_breather(-theta, m1, m2, spec) - 1.0) < 1e-12

    def test_invalid_breather_index(self):
        spec = make_model("bsg", 1.0 / 3.0)
        with pytest.raises(DomainError):
            s_breather_soliton(0.5, 2, spec)
        with pytest.raises(DomainError):
            s_breather_breather(0.5, 1, 2, spec)


class TestRightLeftLimit:
    # the massless right-left exchange phase e^{-i pi/2z} multiplies the
    # charge-flip channel of the soliton-pair bracket, and its conjugate the
    # charge-keeping channel
    def test_soliton_phases_z_third(self):
        spec = make_model("kondo", 1.0 / 3.0)
        flip1, flip2 = soliton_amplitudes(0.4, spec)[0], soliton_amplitudes(-0.1, spec)[0]
        assert soliton_pair_bracket(0.4, -0.1, spec) / (flip1 * flip2) == pytest.approx(
            1j, abs=1e-14
        )
        spec = make_model("bsg", 1.0 / 3.0)
        flip1, diag1 = soliton_amplitudes(0.4, spec)
        flip2, diag2 = soliton_amplitudes(-0.1, spec)
        plus = soliton_pair_bracket(0.4, -0.1, spec, sign=+1)
        minus = soliton_pair_bracket(0.4, -0.1, spec, sign=-1)
        assert (plus + minus) / (2.0 * flip1 * flip2) == pytest.approx(1j, abs=1e-14)
        assert (plus - minus) / (2.0 * diag1 * diag2) == pytest.approx(-1j, abs=1e-14)

    def test_breather_is_transparent(self):
        # the right-left limit is the theta -> infinity limit of the massive
        # amplitude: 1 with any breather, so breather terms carry no phase
        spec = make_model("bsg", 1.0 / 3.0)
        assert s_breather_soliton(40.0, 1, spec) == pytest.approx(1.0, abs=1e-12)
        assert s_breather_breather(40.0, 1, 1, spec) == pytest.approx(1.0, abs=1e-12)

    def test_free_fermion_point(self):
        spec = make_model("kondo", 0.5)
        flip1, flip2 = soliton_amplitudes(0.4, spec)[0], soliton_amplitudes(-0.1, spec)[0]
        assert soliton_pair_bracket(0.4, -0.1, spec) / (flip1 * flip2) == pytest.approx(
            -1.0, abs=1e-14
        )
