import cmath
import math
import re
import warnings

import numpy as np
import pytest

import bscat.reflection as reflection_mod
from bscat.errors import DomainError, ToleranceNotMet
from bscat.model import make_model
from bscat.reflection import (
    r_breather,
    r_bsg_breather,
    r_kondo_breather,
    soliton_amplitudes,
    soliton_pair_bracket,
    soliton_split_bracket,
)
from stacking import row_by_row


class TestFreeFermionClosedForms:
    def test_bsg_flip_amplitude(self):
        spec = make_model("bsg", 0.5)
        for lam in (0.7, -1.2, 0.0):
            e = cmath.exp(lam)
            assert soliton_amplitudes(lam, spec)[0] == pytest.approx(
                1j * e / (e + 1j), abs=1e-12
            )

    def test_kondo_amplitude_frozen(self):
        spec = make_model("kondo", 0.5)
        assert soliton_amplitudes(0.7, spec)[0] == pytest.approx(
            0.796705459992875 + 0.6043677771171635j, abs=1e-12
        )

    def test_kondo_diagonal_entry_vanishes(self):
        spec = make_model("kondo", 0.5)
        assert soliton_amplitudes(0.7, spec)[1] == 0.0


class TestUnitarity:
    @pytest.mark.parametrize("z", [1.0 / 3.0, 0.4, 0.5, 0.6])
    def test_bsg_soliton_column_norm(self, z):
        spec = make_model("bsg", z)
        for lam in (-1.5, 0.0, 0.8, 2.3):
            flip, diag = soliton_amplitudes(lam, spec)
            assert abs(flip) ** 2 + abs(diag) ** 2 == pytest.approx(1.0, abs=1e-10)
            # off-diagonal orthogonality of the 2x2 reflection matrix
            assert abs((diag * flip.conjugate()).real) < 1e-10

    @pytest.mark.parametrize("z", [1.0 / 3.0, 0.5, 0.6])
    def test_kondo_soliton_unimodular(self, z):
        spec = make_model("kondo", z)
        for lam in (-1.5, 0.4, 2.0):
            assert abs(abs(soliton_amplitudes(lam, spec)[0]) - 1.0) < 1e-12

    def test_breather_amplitudes_unimodular(self):
        # breather reflection is unimodular on real rapidities for every m,
        # in both models
        spec = make_model("kondo", 0.2)
        for m in range(1, spec.n_breathers + 1):
            for lam in (-0.9, 0.6):
                assert abs(abs(r_kondo_breather(lam, m, spec)) - 1.0) < 1e-12
        spec = make_model("bsg", 0.2)
        for m in range(1, spec.n_breathers + 1):
            for lam in (-0.9, 0.6):
                assert abs(abs(r_bsg_breather(lam, m, spec)) - 1.0) < 1e-12


class TestBreatherFusion:
    @pytest.mark.parametrize("model", ["bsg", "kondo"])
    @pytest.mark.parametrize("z", [0.15, 0.2, 0.25])
    def test_higher_breathers_fuse_from_breather_1(self, model, z):
        # the boundary bootstrap: breather m is a bound state of m
        # breathers 1 at rapidities spaced by i xi, so
        # R_m(lambda) = prod_{k=1..m} R_1(lambda + i xi (m + 1 - 2k)/2)
        # (Ghoshal & Zamolodchikov, Int. J. Mod. Phys. A 9 (1994) 3841)
        spec = make_model(model, z)
        assert spec.n_breathers >= 2
        for m in range(2, spec.n_breathers + 1):
            for lam in (-2.3, -0.4, 0.7, 3.1):
                fused = 1.0 + 0.0j
                for k in range(1, m + 1):
                    fused *= r_breather(lam + 0.5j * spec.xi * (m + 1 - 2 * k), 1, spec)
                value = r_breather(lam, m, spec)
                assert abs(value - fused) <= 1e-14
                assert abs(abs(value) - 1.0) <= 1e-14


class TestAsymptotes:
    def test_high_rapidity_bsg_flip_dominates(self):
        spec = make_model("bsg", 1.0 / 3.0)
        flip, diag = soliton_amplitudes(30.0, spec)
        assert abs(abs(flip) - 1.0) < 1e-9
        assert abs(diag) < 1e-9

    def test_low_rapidity_bsg_diag_dominates(self):
        spec = make_model("bsg", 1.0 / 3.0)
        flip, diag = soliton_amplitudes(-30.0, spec)
        assert abs(flip) < 1e-9
        assert abs(abs(diag) - 1.0) < 1e-9

    def test_breather_low_rapidity_sign(self):
        spec = make_model("bsg", 0.2)
        for m in range(1, spec.n_breathers + 1):
            val = r_bsg_breather(-30.0, m, spec)
            assert val == pytest.approx((-1.0) ** m, abs=1e-10)

    def test_kondo_limits(self):
        spec = make_model("kondo", 0.5)
        phase = cmath.exp(1j * math.pi / (4.0 * spec.z))
        assert soliton_amplitudes(30.0, spec)[0] == pytest.approx(phase, abs=1e-10)
        assert soliton_amplitudes(-30.0, spec)[0] == pytest.approx(-phase, abs=1e-10)


class TestPhaseAsymptoteSwitch:
    @pytest.mark.parametrize("z", [0.25, 1.0 / 3.0, 0.4, 0.6])
    def test_rule_meets_asymptote_at_the_switch(self, z):
        # the phase switches from the panel-rule integral to its limit
        # sign(Re lambda) pi (pi - xi) / (4 xi); on each side of the switch
        # the two must agree to 1e-12
        xi = make_model("bsg", z).xi
        limit = math.pi * (math.pi - xi) / (4.0 * xi)
        switch = reflection_mod._ASYMPTOTE_EXPONENT / (2.0 * reflection_mod._rs_phase_pole(xi))
        decay = min(3.0 * xi, xi + 2.0 * math.pi)
        for side in (0.99, 1.01):
            for sign in (1.0, -1.0):
                lam = complex(sign * side * switch, 0.0)
                phase = reflection_mod._rs_phase_direct(lam, xi)
                rule = reflection_mod._rs_phase_integral(lam, xi, decay)
                assert abs(phase - sign * limit) <= 1e-12
                assert abs(rule - sign * limit) <= 1e-12
                if side < 1.0:
                    assert phase == rule
                else:
                    assert phase == sign * limit


    @pytest.mark.parametrize("side", [1.01, 1.5])
    def test_lookup_past_the_switch_is_the_limit(self, side):
        # past the switch a lookup skips the table and returns the limit
        xi = make_model("bsg", 1.0 / 3.0).xi
        limit = math.pi * (math.pi - xi) / (4.0 * xi)
        switch = reflection_mod._ASYMPTOTE_EXPONENT / (2.0 * reflection_mod._rs_phase_pole(xi))
        for sign in (1.0, -1.0):
            lam_r = sign * side * switch
            phase = reflection_mod._rs_phase_cached(lam_r, 0.0, xi)
            assert phase == sign * limit
            assert phase == reflection_mod._rs_phase_direct(complex(lam_r, 0.0), xi)


class TestStripEdge:
    @pytest.mark.parametrize("eps", [1e-9, 1e-4, 0.1])
    def test_phase_next_to_the_strip_edge_is_refused(self, eps):
        # at z = 1/3 the R_s phase integrand decays as e^{-(3 xi - 2|Im lambda|) x},
        # which vanishes at |Im lambda| = 3 pi/4, inside the |Im lambda| <= pi
        # that soliton_amplitudes accepts; next to that edge the panel rule would
        # need millions of panels, or sin(2 lambda x) would overflow on them,
        # and it refuses instead of returning NaN
        spec = make_model("bsg", 1.0 / 3.0)
        edge = 1.5 * spec.xi
        assert edge == pytest.approx(0.75 * math.pi)
        with pytest.raises(ToleranceNotMet, match="decay rate"):
            soliton_amplitudes(complex(0.3, edge - eps), spec)

    def test_phase_inside_the_strip(self):
        # further inside, the phase is evaluated; its kernel is real, so
        # phase(conj lambda) = conj phase(lambda)
        xi = make_model("bsg", 1.0 / 3.0).xi
        for im in (0.3, 0.5, 1.0, 2.0):
            lam = complex(0.3, 0.75 * math.pi - im)
            phase = reflection_mod._rs_phase_direct(lam, xi)
            assert cmath.isfinite(phase)
            mirror = reflection_mod._rs_phase_direct(lam.conjugate(), xi)
            assert abs(mirror - phase.conjugate()) <= 1e-12


class TestOverflow:
    # at z = 0.03, (p - 1)/2 = 16.2: e^{(p - 1) |lambda|/2} overflows past
    # |lambda| ~ 44, and a quotient of overflowing factors would be NaN
    spec = make_model("bsg", 0.03)

    def test_r_s_overflow_is_a_domain_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in (60.0, -60.0):
                named = rf"R_s overflows at lambda = \({lam:g}\+0j\)"
                with pytest.raises(DomainError, match=named):
                    reflection_mod.r_s(np.array([0.5, lam]), self.spec)

    def test_soliton_amplitude_overflow_is_a_domain_error(self):
        # the amplitudes e^{+-(p - 1) lambda/2} R_s are refused with R_s,
        # before their factors leave the normal doubles
        edge = 2.0 * reflection_mod._MAX_HALF_EXPONENT / (self.spec.p - 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in (1.001 * edge, -1.001 * edge):
                with pytest.raises(DomainError, match="R_s overflows at lambda"):
                    soliton_amplitudes(np.array([0.5, lam]), self.spec)
            flip, diag = soliton_amplitudes(np.array([0.999 * edge, -0.999 * edge]), self.spec)
        assert np.all(np.isfinite(flip)) and np.all(np.isfinite(diag))
        # |flip| = |diag| e^{(p - 1) lambda} stays unimodular on the real line
        assert np.allclose(np.abs(flip) ** 2 + np.abs(diag) ** 2, 1.0, rtol=1e-12)


class TestAmplitudeDispatch:
    def test_breather_index_validated(self):
        spec = make_model("bsg", 1.0 / 3.0)
        with pytest.raises(DomainError):
            r_breather(0.5, 2, spec)

    def test_soliton_channels(self):
        # boundary sine-Gordon: flip i e^{(p-1) lambda/2} R_s and
        # keep-charge e^{-(p-1) lambda/2} R_s
        spec = make_model("bsg", 0.4)
        rs = reflection_mod.r_s(0.5, spec)
        half = (spec.p - 1.0) * 0.25
        flip, diag = soliton_amplitudes(0.5, spec)
        assert flip == pytest.approx(1j * cmath.exp(half) * rs, abs=1e-14)
        assert diag == pytest.approx(cmath.exp(-half) * rs, abs=1e-14)


class TestProductsAndBracket:
    def test_pair_bracket_matches_product(self):
        for kind in ("bsg", "kondo"):
            spec = make_model(kind, 0.4)
            phase = cmath.exp(-1j * math.pi / (2.0 * spec.z))
            l1, l2 = 0.6, -0.2
            # R_+^-(l1) R_-^+(l2) and R_+^+(l1) R_-^-(l2); each amplitude is
            # even under charge parity
            flip1, diag1 = soliton_amplitudes(l1, spec)
            flip2, diag2 = soliton_amplitudes(l2, spec)
            flip = flip1 * flip2
            diag = diag1 * diag2
            for sign in (-1, 1):
                expected = phase * flip + sign * diag / phase
                assert soliton_pair_bracket(l1, l2, spec, sign=sign) == pytest.approx(
                    expected, abs=1e-12
                )
            assert soliton_pair_bracket(l1, l2, spec) == soliton_pair_bracket(
                l1, l2, spec, sign=-1
            )

    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    def test_split_bracket_matches_product(self, kind):
        spec = make_model(kind, 0.4)
        l_in, l_out = 0.6, -0.2

        # a soliton out as an antisoliton (flip) minus out as a soliton (diag)
        flip_in, diag_in = soliton_amplitudes(l_in, spec)
        flip_out, diag_out = soliton_amplitudes(l_out, spec)
        expected = flip_in.conjugate() * flip_out - diag_in.conjugate() * diag_out
        assert soliton_split_bracket(l_in, l_out, spec) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    def test_brackets_evaluate_r_s_once_per_rapidity(self, monkeypatch, kind):
        # a bracket reads both channels of both its rapidities from one
        # soliton_amplitudes call: one R_s holding its two rapidities in
        # the boundary sine-Gordon model, none for Kondo
        spec = make_model(kind, 1.0 / 3.0)
        real = reflection_mod.r_s
        calls = []

        def counted(lam, spec):
            calls.append(lam)
            return real(lam, spec)

        monkeypatch.setattr(reflection_mod, "r_s", counted)
        brackets = (
            lambda: soliton_pair_bracket(0.6, -0.2, spec),
            lambda: soliton_pair_bracket(0.6, -0.2, spec, sign=+1),
            lambda: soliton_split_bracket(0.6, -0.2, spec),
        )
        for bracket in brackets:
            calls.clear()
            bracket()
            assert [np.asarray(lam).tolist() for lam in calls] == (
                [[0.6, -0.2]] if kind == "bsg" else []
            )

    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    def test_breather_dispatch_matches_product(self, kind):
        spec = make_model(kind, 0.4)
        assert spec.n_breathers >= 1
        direct = r_bsg_breather if kind == "bsg" else r_kondo_breather
        for m in range(1, spec.n_breathers + 1):
            l1, l2 = 0.6, -0.2
            expected = direct(l1, m, spec) * direct(l2, m, spec)
            assert r_breather(l1, m, spec) * r_breather(l2, m, spec) == pytest.approx(
                expected, abs=1e-12
            )
            assert r_breather(l1, m, spec) == direct(l1, m, spec)

    def test_product_high_rapidity_delta(self):
        # at high rapidity the reflection is a pure charge flip
        spec = make_model("bsg", 0.5)
        flip, diag = soliton_amplitudes(30.0, spec)
        assert abs(abs(flip) - 1.0) < 1e-9
        assert abs(diag) < 1e-9


class TestConjugationIdentity:
    # boundary crossing, R(lambda + i pi) = conj(R(lambda)), on what the
    # observables read: both signs of the soliton-pair bracket and the
    # breather amplitude
    @pytest.mark.parametrize("z", [0.5, 0.6])
    def test_soliton_pair_both_models(self, z):
        shift = 1j * math.pi
        for kind in ("bsg", "kondo"):
            spec = make_model(kind, z)
            for sign in (-1, 1):
                crossed = soliton_pair_bracket(0.4 + shift, 0.7 + shift, spec, sign)
                direct = soliton_pair_bracket(0.4, 0.7, spec, sign)
                assert abs(crossed - direct.conjugate()) < 1e-9

    def test_breather_all_couplings(self):
        for kind in ("bsg", "kondo"):
            spec = make_model(kind, 1.0 / 3.0)
            crossed = r_breather(0.3 + 1j * math.pi, 1, spec)
            assert abs(crossed - r_breather(0.3, 1, spec).conjugate()) < 1e-9


class TestStackedAmplitudes:
    """The brackets read both rapidities' amplitudes from one call on the
    stacked rapidities; stacking changes no value."""

    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    @pytest.mark.parametrize("z", [1.0 / 3.0, 0.4], ids=["1/3", "0.4"])
    def test_brackets_equal_their_unstacked_products(self, monkeypatch, kind, z):
        spec = make_model(kind, z)
        rng = np.random.default_rng(5)
        lam = rng.uniform(-3.0, 3.0, (3, 4, 5))
        pairs = [
            (lam[0], lam[1]),  # both lines on Im = 0
            (lam[0], lam[1] + 0.4j),  # two lines
            (lam[2, 0], lam[1]),  # broadcast against each other
        ]
        brackets = [
            lambda l1, l2: soliton_pair_bracket(l1, l2, spec),
            lambda l1, l2: soliton_pair_bracket(l1, l2, spec, sign=+1),
            lambda l1, l2: soliton_split_bracket(l1, l2, spec),
        ]
        stacked = [bracket(*pair) for bracket in brackets for pair in pairs]
        monkeypatch.setattr(
            reflection_mod, "soliton_amplitudes", row_by_row(soliton_amplitudes, 1)
        )
        alone = [bracket(*pair) for bracket in brackets for pair in pairs]
        for a, b in zip(stacked, alone):
            assert a.shape == b.shape == (4, 5)
            assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "call, message",
    [
        # 2 cosh((p - 1) lambda/2 - i pi/4) = 2 cosh(-i pi/2) = 0 at z = 1/3
        (
            lambda: reflection_mod.r_s(-0.25j * math.pi, make_model("bsg", 1.0 / 3.0)),
            f"R_s pole at lambda = {-0.25j * math.pi}",
        ),
        (
            lambda: soliton_amplitudes(-0.5j * math.pi, make_model("kondo", 1.0 / 3.0)),
            f"Kondo soliton reflection pole at lambda = {-0.5j * math.pi}",
        ),
        (
            lambda: soliton_amplitudes(np.array([0.2, 0.1 + 4j]), make_model("bsg", 0.4)),
            "|Im lambda| > pi unsupported (got 4.0)",
        ),
        # tanh(lambda/2 + i xi m/4) = 0 at lambda = -i xi m/2 = -i pi/4 (m = 1, z = 1/3)
        (
            lambda: r_kondo_breather(-0.25j * math.pi, 1, make_model("kondo", 1.0 / 3.0)),
            f"Kondo breather reflection pole at lambda = {-0.25j * math.pi}",
        ),
    ],
    ids=["r_s-pole", "kondo-soliton-pole", "bsg-strip", "kondo-breather-pole"],
)
def test_refusals_name_the_offending_point(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()
