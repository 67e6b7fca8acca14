import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bscat.errors import DomainError
from bscat.model import (
    ModelKind,
    breather_mass,
    check_breather,
    check_omega,
    line_shifts,
    make_model,
    t_b_from_physical,
)
from bscat.twopoint import r_term_breather


class TestModelSpec:
    def test_derived_constants_z_third(self):
        spec = make_model("bsg", 1.0 / 3.0)
        assert spec.p == pytest.approx(3.0, abs=1e-14)
        assert spec.p_int == 3
        assert spec.xi == pytest.approx(math.pi / 2.0, abs=1e-14)
        assert spec.n_breathers == 1

    def test_derived_constants_z_half(self):
        spec = make_model("kondo", 0.5)
        assert spec.p_int == 2
        assert spec.xi == pytest.approx(math.pi, abs=1e-14)
        assert spec.n_breathers == 0
        assert spec.is_kondo and not spec.is_bsg

    def test_non_integer_p(self):
        spec = make_model("bsg", 0.47)
        assert spec.p_int is None
        assert spec.n_breathers == 1

    def test_many_breathers(self):
        spec = make_model("bsg", 0.2)
        assert spec.p_int == 5
        assert spec.n_breathers == 3

    def test_z_point_six_has_no_breathers(self):
        assert make_model("bsg", 0.6).n_breathers == 0

    def test_kind_from_string_and_enum(self):
        assert make_model("bsg", 0.5).kind is ModelKind.BoundarySineGordon
        assert make_model(ModelKind.Kondo, 0.5).kind is ModelKind.Kondo

    def test_unknown_kind(self):
        with pytest.raises(DomainError, match="'foo'.*bsg or kondo"):
            make_model("foo", 0.3)

    @pytest.mark.parametrize("z", [0.0, 1.0, -0.2, 1.7])
    def test_z_out_of_range(self, z):
        with pytest.raises(DomainError):
            make_model("bsg", z)


class TestExcitation:
    # a breather is named by its integer index m, 1 <= m <= n_breathers; a
    # soliton line carries the code 0
    def test_invalid_breather_index(self):
        spec = make_model("bsg", 0.2)
        for m in (0, -1):
            with pytest.raises(DomainError):
                breather_mass(m, spec)

    def test_validate_against_spectrum(self):
        spec = make_model("bsg", 1.0 / 3.0)
        check_breather(1, spec)
        with pytest.raises(DomainError):
            breather_mass(2, spec)

    @pytest.mark.parametrize("m", [1.5, 2.0])
    def test_non_integer_breather_index(self, m):
        # at z = 0.2 a float index inside 1..3 used to pass the range check
        # and die later in range(m) with a TypeError
        spec = make_model("bsg", 0.2)
        with pytest.raises(DomainError, match="must be an integer"):
            check_breather(m, spec)
        with pytest.raises(DomainError):
            r_term_breather(1.0, m, spec)


class TestMassRatio:
    def test_soliton_mass_is_unit(self):
        # a soliton line (code 0) carries no rapidity shift
        spec = make_model("bsg", 0.4)
        assert line_shifts((0, 0), spec) == [0.0, 0.0]

    def test_first_breather_at_z_third(self):
        spec = make_model("bsg", 1.0 / 3.0)
        assert breather_mass(1, spec) == pytest.approx(math.sqrt(2.0), abs=1e-14)
        shift = math.log(breather_mass(1, spec))
        assert line_shifts((0, 0, 1), spec) == [0.0, 0.0, shift]

    def test_breather_masses_below_pair_threshold(self):
        spec = make_model("bsg", 0.2)
        for m in range(1, spec.n_breathers + 1):
            assert 0.0 < breather_mass(m, spec) < 2.0


def test_omega_floor():
    # products of four line energies underflow below 1.2e-77
    check_omega(1e-50)
    with pytest.raises(DomainError, match="below the floor 1e-50"):
        check_omega(9.9e-51)


class TestBoundaryScaleConversion:
    def test_closed_form_at_z_half(self):
        # z = 1/2: prefactor Gamma(1/2)/(sqrt(pi) Gamma(1)) = 1 and the
        # bracket (pi eps / (Gamma(1/2) Lambda^(1/2)))^2 = pi eps^2 / Lambda
        assert t_b_from_physical(1.0, 10.0, 0.5) == pytest.approx(
            math.pi / 10.0, rel=1e-14
        )

    def test_frozen_value(self):
        assert t_b_from_physical(1.0, 1.0, 0.5) == pytest.approx(
            math.pi, rel=1e-14
        )

    @pytest.mark.parametrize(
        "args",
        [
            (-1.0, 1.0, 0.5),
            (1.0, 0.0, 0.5),
            (1.0, 1.0, 1.2),
            # finite couplings whose T_B overflows or underflows: 1.3e3004,
            # 1.3e-2996 and 2.0e495
            (1e300, 1.0, 0.9),
            (1e-300, 1.0, 0.9),
            (1.0, 1.0, 0.999),
        ],
    )
    def test_domain_errors(self, args):
        with pytest.raises(DomainError):
            t_b_from_physical(*args)

    @pytest.mark.parametrize("args", [(1.0, 1.0, 0.998), (1.0, 10.0, 0.998)])
    def test_near_z_one_against_mpmath(self, args):
        # both Gammas of the prefactor overflow a float here (Gamma(249.5)),
        # but T_B is 7.5e246 and 7.5e-253
        with mpmath.workdps(30):
            eps, lam, z = (mpmath.mpf(a) for a in args)
            exact = (
                mpmath.gamma(z / (2 * (1 - z)))
                / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 / (2 * (1 - z))))
                * (mpmath.pi * eps / (mpmath.gamma(z) * lam**z)) ** (1 / (1 - z))
            )
            assert abs(t_b_from_physical(*args) / exact - 1) <= 1e-12

    def test_rejects_z_near_one(self):
        with pytest.raises(DomainError):
            t_b_from_physical(1.0, 1.0, 0.9995)

    @given(
        eps=st.floats(min_value=0.1, max_value=10.0),
        lam=st.floats(min_value=0.5, max_value=50.0),
        z=st.floats(min_value=0.1, max_value=0.8),
    )
    @settings(max_examples=30, deadline=None)
    def test_positive_and_increasing_in_coupling(self, eps, lam, z):
        tb = t_b_from_physical(eps, lam, z)
        assert tb > 0
        assert t_b_from_physical(1.5 * eps, lam, z) > tb
