import math

import pytest

import bscat.spectrum as spectrum_mod
from bscat.errors import DomainError
from bscat.formfactors import f_111, f_breather1, f_pm, f_pm1
from bscat.model import make_model
from bscat.referm import spectrum_half
from bscat.spectrum import (
    SpectrumDiagram,
    active_diagrams,
    diagram_g1_1,
    diagram_g2_1,
    diagram_g3a,
    spectrum_curve,
    spectrum_point,
    sum_rule_check,
)

SPEC3_BSG = make_model("bsg", 1.0 / 3.0)
SPEC3_KONDO = make_model("kondo", 1.0 / 3.0)


class TestActiveDiagrams:
    def test_free_fermion_point_pair_only(self):
        assert active_diagrams(make_model("bsg", 0.5)) == [SpectrumDiagram.G1_1]

    def test_integer_p_with_breather(self):
        assert set(active_diagrams(SPEC3_BSG)) == {
            SpectrumDiagram.G1_1,
            SpectrumDiagram.G2_1,
            SpectrumDiagram.G1_3,
            SpectrumDiagram.G3A,
            SpectrumDiagram.G4A,
            SpectrumDiagram.G5A,
        }

    def test_non_integer_p_pair_only(self):
        assert active_diagrams(make_model("bsg", 0.47)) == [SpectrumDiagram.G1_1]

    def test_breather_diagrams_rejected_at_non_integer_p(self):
        spec = make_model("bsg", 0.47)
        with pytest.raises(DomainError):
            diagram_g2_1(0.3, 1.0, spec)
        with pytest.raises(DomainError):
            diagram_g3a(0.3, 1.0, spec)


class TestFreeFermionOracle:
    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    def test_pair_diagram_matches_oracle(self, kind):
        spec = make_model(kind, 0.5)
        for omega in (0.3, 1.0, 4.0):
            for u in (0.1, 0.5, 0.9):
                omega_p = u * omega
                a = diagram_g1_1(omega_p, omega, spec)
                b = spectrum_half(omega_p, omega, spec.kind)
                assert abs(a - b) / abs(b) < 1e-6

    def test_frozen_values(self):
        assert diagram_g1_1(0.3, 1.0, make_model("bsg", 0.5)) == pytest.approx(
            0.71777699112948, rel=1e-10
        )
        assert diagram_g1_1(1.7, 2.5, make_model("kondo", 0.5)) == pytest.approx(
            0.06692947332270408, rel=1e-10
        )


# per-diagram regression fixtures at p = 3, recorded from the validated run
_REGRESSION = {
    ("bsg", 0.3, 1.0): {
        SpectrumDiagram.G1_1: 0.012823889228401173,
        SpectrumDiagram.G2_1: 0.12154926370143052,
        SpectrumDiagram.G1_3: 0.0005890673768830275,
        SpectrumDiagram.G3A: 0.002385998623487408,
        SpectrumDiagram.G4A: 1.0758670993474548e-05,
        SpectrumDiagram.G5A: -0.023441515102737957,
    },
    ("bsg", 1.7, 2.5): {
        SpectrumDiagram.G1_1: -0.005758694436584842,
        SpectrumDiagram.G2_1: 0.0530692209083437,
        SpectrumDiagram.G1_3: 0.0032454276571287485,
        SpectrumDiagram.G3A: -0.0032933825376861878,
        SpectrumDiagram.G4A: -6.399793835500256e-05,
        SpectrumDiagram.G5A: 0.011065186439993876,
    },
    ("kondo", 0.3, 1.0): {
        SpectrumDiagram.G1_1: 0.0012383519391942486,
        SpectrumDiagram.G2_1: 0.061043989101761204,
        SpectrumDiagram.G1_3: -1.828126180874356e-05,
        SpectrumDiagram.G3A: 0.002500867909237501,
        SpectrumDiagram.G4A: 1.2471645493713845e-05,
        SpectrumDiagram.G5A: -0.0012249915430770076,
    },
    ("kondo", 1.7, 2.5): {
        SpectrumDiagram.G1_1: -0.0007299372714269377,
        SpectrumDiagram.G2_1: 0.058827732523139414,
        SpectrumDiagram.G1_3: 0.00023559941666781374,
        SpectrumDiagram.G3A: -0.0013629789470836584,
        SpectrumDiagram.G4A: -7.775417879928506e-05,
        SpectrumDiagram.G5A: 0.016905961778185277,
    },
}


class TestDiagramRegressions:
    @pytest.mark.parametrize(
        "key", sorted(_REGRESSION, key=str), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}"
    )
    def test_per_diagram_values(self, key):
        kind, omega_p, omega = key
        spec = make_model(kind, 1.0 / 3.0)
        for diagram, expected in _REGRESSION[key].items():
            value = spectrum_mod._DIAGRAM_FUNCS[diagram](omega_p, omega, spec)
            assert value == pytest.approx(expected, rel=1e-6, abs=1e-12)

    def test_total_is_positive(self):
        for key, table in _REGRESSION.items():
            assert math.fsum(table.values()) > 0.0

    def test_spectrum_point_sums_diagrams(self):
        key = ("bsg", 0.3, 1.0)
        total = spectrum_point(0.3, 1.0, SPEC3_BSG)
        assert total == pytest.approx(math.fsum(_REGRESSION[key].values()), rel=1e-6)


# absorbed lines enter the form factors at lambda + i pi; each crossed
# argument pattern the diagrams use, as a function of the shift
_CROSSED = {
    "f_pm": lambda c: f_pm(0.4, -0.3 + c, SPEC3_BSG),
    "f_pm1": lambda c: f_pm1(0.4, -0.3, 0.2 + c, SPEC3_BSG),
    "f_pm1_pair": lambda c: f_pm1(-0.3 + c, 0.4 + c, 0.2, SPEC3_BSG),
    "f_111": lambda c: f_111(-0.3 + c, 0.4 + c, 0.2, SPEC3_BSG),
    "f_breather1": lambda c: f_breather1(1, 0.2 + c, SPEC3_BSG),
}


class TestCrossingLine:
    @pytest.mark.parametrize("name", sorted(_CROSSED))
    def test_exact_shift_matches_extrapolation(self, name):
        # the form factors are regular on Im = pi, so the exact shift equals
        # the linear extrapolation from just below the line
        f = _CROSSED[name]
        delta = 1e-6
        exact = f(1j * math.pi)
        extrapolated = 2.0 * f(1j * (math.pi - delta / 2.0)) - f(
            1j * (math.pi - delta)
        )
        assert abs(exact - extrapolated) <= 1e-9 * abs(exact)


class TestSumRule:
    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    def test_free_fermion_point(self, kind):
        ratio = sum_rule_check(1.0, make_model(kind, 0.5))
        assert ratio == pytest.approx(1.0, abs=1e-4)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(DomainError):
            sum_rule_check(-1.0, make_model("bsg", 0.5))

    @pytest.mark.parametrize("omega", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_frequency(self, omega):
        spec = make_model("bsg", 0.5)
        for call in (sum_rule_check, spectrum_curve):
            with pytest.raises(DomainError, match="omega must be finite"):
                call(omega, spec)


class TestSpectrumCurve:
    def test_structure(self):
        omega = 1.0
        curve = spectrum_curve(
            omega, make_model("bsg", 0.5), grid_size=12, compute_sum_rule=False
        )
        assert curve.omega == omega
        assert all(0.0 < wp < omega for wp in curve.omega_primes)
        assert list(curve.omega_primes) == sorted(curve.omega_primes)
        assert set(curve.per_diagram) == {SpectrumDiagram.G1_1}
        assert len(curve.values) == len(curve.omega_primes)
        assert all(v > 0.0 for v in curve.values)
        assert math.isnan(curve.sum_rule_ratio)
        # elastic delta-function weight is a negative depletion
        assert -1.0 < curve.gamma_disc < 0.0

    def test_values_sum_per_diagram(self):
        curve = spectrum_curve(
            1.0, make_model("kondo", 0.5), grid_size=8, compute_sum_rule=False
        )
        for k in range(len(curve.omega_primes)):
            acc = math.fsum(col[k] for col in curve.per_diagram.values())
            assert curve.values[k] == pytest.approx(acc, rel=1e-12)

    def test_reflection_evaluated_once(self, monkeypatch):
        calls = []
        real = spectrum_mod.reflection_coefficient

        def counted(omega, spec):
            calls.append(omega)
            return real(omega, spec)

        monkeypatch.setattr(spectrum_mod, "reflection_coefficient", counted)
        spec = make_model("kondo", 0.5)
        curve = spectrum_curve(1.0, spec, grid_size=4)
        assert calls == [1.0]
        assert curve.sum_rule_ratio == sum_rule_check(1.0, spec)

    def test_invalid_arguments(self):
        spec = make_model("bsg", 0.5)
        with pytest.raises(DomainError):
            spectrum_curve(0.0, spec)
        with pytest.raises(DomainError):
            spectrum_point(1.5, 1.0, spec)
