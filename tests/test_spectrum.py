import math

import numpy as np
import pytest

import bscat.spectrum as spectrum_mod
from bscat.errors import DomainError
from bscat.formfactors import (
    _exp_i_cached,
    exp_I,
    f_111,
    f_breather1,
    f_pm,
    f_pm1,
    r0_weights,
    set_integral,
)
from bscat.model import make_model
from bscat.quadrature import QuadResult
from bscat.reflection import _rs_phase_cached, soliton_pair_bracket
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
from bscat.twopoint import ReflectionBreakdown, reflection_coefficient
from closed_forms import kondo_half_spectrum

SPEC3_BSG = make_model("bsg", 1.0 / 3.0)
SPEC3_KONDO = make_model("kondo", 1.0 / 3.0)


class TestActiveDiagrams:
    def test_free_fermion_point_pair_only(self):
        assert active_diagrams(make_model("bsg", 0.5)) == [SpectrumDiagram.G1_1]

    def test_integer_p_with_breather(self):
        # the diagram table, the function table and the active set list the
        # diagrams in one order, the CSV column order of `bscat spectrum`
        assert (
            list(spectrum_mod._DIAGRAMS)
            == list(spectrum_mod._DIAGRAM_FUNCS)
            == active_diagrams(SPEC3_BSG)
            == [
                SpectrumDiagram.G1_1,
                SpectrumDiagram.G2_1,
                SpectrumDiagram.G1_3,
                SpectrumDiagram.G3A,
                SpectrumDiagram.G4A,
                SpectrumDiagram.G5A,
            ]
        )

    def test_non_integer_p_pair_only(self):
        assert active_diagrams(make_model("bsg", 0.47)) == [SpectrumDiagram.G1_1]

    def test_breather_diagrams_rejected_at_non_integer_p(self):
        spec = make_model("bsg", 0.47)
        with pytest.raises(DomainError):
            diagram_g2_1(0.3, 1.0, spec)
        with pytest.raises(DomainError):
            diagram_g3a(0.3, 1.0, spec)

    @pytest.mark.parametrize(
        "diagram, z",
        [(SpectrumDiagram.G2_1, 0.5), (SpectrumDiagram.G4A, 0.6)],
        ids=["g2_1-half", "g4a-0.6"],
    )
    def test_breather_diagrams_rejected_without_breather_1(
        self, monkeypatch, diagram, z
    ):
        # the mass ratio of breather 1 is refused before any integration
        calls = []
        monkeypatch.setattr(
            spectrum_mod, "adaptive_1d", lambda *a, **k: calls.append(a)
        )
        with pytest.raises(DomainError, match="breather m=1 does not exist"):
            spectrum_mod._DIAGRAM_FUNCS[diagram](0.3, 1.0, make_model("bsg", z))
        assert calls == []


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


# the four nodes omega' = u^2 of the Gauss-Legendre rule in u on (0, 1)
# that the spectrum-third benchmark evaluates at omega = 1, bsG z = 1/3;
# the lowest is omega' = 0.0048
_GL_NODES = tuple(
    ((x + 1.0) / 2.0) ** 2 for x in np.polynomial.legendre.leggauss(4)[0]
)

# every diagram at those nodes, recorded at 1e-6 of the diagram tolerance
# (the unmapped integral at 1e-4 of it agrees to 1e-12)
_GL_REFERENCE = {
    SpectrumDiagram.G1_1: (
        15.045653717153153, 0.3976814740251054,
        -0.014933616314467258, -0.00037398890581750164,
    ),
    SpectrumDiagram.G2_1: (
        0.002654033058652118, 0.0678709310914284,
        0.09955704264197625, 0.006068340339609601,
    ),
    SpectrumDiagram.G1_3: (
        -9.322813467507512e-05, -0.0013128743896943325,
        0.0030108506826689372, 0.0007270104557103755,
    ),
    SpectrumDiagram.G3A: (
        0.004223780224844801, 0.014327192433872267,
        0.00027899439975476387, -1.2613641923280767e-05,
    ),
    SpectrumDiagram.G4A: (
        4.650798984090737e-06, 5.080461783552921e-06,
        3.9312240854675703e-07, -5.934451678288477e-07,
    ),
    SpectrumDiagram.G5A: (
        0.3368858939206447, -0.048358770992364915,
        -0.0033770300960116076, 0.004262196575865131,
    ),
}


class TestMappedDiagramIntegrals:
    def test_values_at_the_benchmark_nodes(self):
        errors = {
            (diagram.value, omega_p): abs(
                spectrum_mod._DIAGRAM_FUNCS[diagram](omega_p, 1.0, SPEC3_BSG) - expected
            )
            for diagram, row in _GL_REFERENCE.items()
            for omega_p, expected in zip(_GL_NODES, row)
        }
        worst = max(errors, key=errors.get)
        assert errors[worst] <= 1e-9, worst

    def test_evaluation_count_at_the_lowest_node(self, monkeypatch):
        # sqrt endpoints cost adaptive bisection toward both ends without
        # the smoothstep map: 2220 integrand evaluations, against 780 with it
        # on the whole interval (510 with the mirror halves, below)
        evaluations = _count_evaluations(monkeypatch)
        spectrum_point(_GL_NODES[0], 1.0, SPEC3_BSG)
        assert len(evaluations) == 6
        assert sum(evaluations) <= 1000

    def test_mirrored_evaluation_count_at_the_lowest_node(self, monkeypatch):
        # G1_1, G1_3, G3A and G4A integrate one mirror half: 510
        # evaluations, against 780 over the whole interval
        evaluations = _count_evaluations(monkeypatch)
        spectrum_point(_GL_NODES[0], 1.0, SPEC3_BSG)
        assert len(evaluations) == 6
        assert sum(evaluations) <= 560

    def test_mirrored_pair_diagram_curve_count(self, monkeypatch):
        # G1_1 on the 39-point default grid at bsG z = 1/2, omega = 1:
        # 1125 evaluations, against 2355 over the whole interval
        evaluations = _count_evaluations(monkeypatch)
        spec = make_model("bsg", 0.5)
        grid = spectrum_mod.default_omega_prime_grid(1.0)
        for omega_p in grid:
            diagram_g1_1(omega_p, 1.0, spec)
        assert len(evaluations) == len(grid) == 39
        assert sum(evaluations) <= 1200


def _count_evaluations(monkeypatch):
    """The evaluations of every diagram integral from now on, in order."""
    evaluations = []
    real = spectrum_mod.adaptive_1d

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        evaluations.append(res.evaluations)
        return res

    monkeypatch.setattr(spectrum_mod, "adaptive_1d", counted)
    return evaluations


_MIRRORED = (
    SpectrumDiagram.G1_1,
    SpectrumDiagram.G1_3,
    SpectrumDiagram.G3A,
    SpectrumDiagram.G4A,
)


def _mapped_integrand(monkeypatch, diagram, omega_p, omega, spec):
    """The integrand in t that `diagram` hands to adaptive_1d, and the
    interval it integrates, without integrating it."""
    seen = []

    def record(f, a, b, tol):
        seen.append((f, a, b))
        return QuadResult(0.0, 0.0, 0)

    monkeypatch.setattr(spectrum_mod, "adaptive_1d", record)
    spectrum_mod._DIAGRAM_FUNCS[diagram](omega_p, omega, spec)
    monkeypatch.undo()
    (f, a, b), = seen
    return f, (a, b)


def _asymmetry(f):
    """max |f(t) - f(1 - t)| on five nodes, relative to the largest |f|."""
    pairs = [(f(t), f(1.0 - t)) for t in (0.01, 0.1, 0.2, 0.33, 0.45)]
    scale = max(max(abs(x), abs(y)) for x, y in pairs)
    assert scale > 0.0
    return max(abs(x - y) for x, y in pairs) / scale


class TestMirroredDiagrams:
    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    @pytest.mark.parametrize("diagram", _MIRRORED, ids=lambda d: d.value)
    def test_mirrored_integrands_are_symmetric(self, monkeypatch, diagram, kind):
        zs = [0.25, 1.0 / 3.0] + ([0.5] if diagram is SpectrumDiagram.G1_1 else [])
        for z in zs:
            for omega in (1.0, 10.0):
                f, interval = _mapped_integrand(
                    monkeypatch, diagram, 0.3 * omega, omega, make_model(kind, z)
                )
                assert interval == (0.0, 0.5)
                assert _asymmetry(f) <= 1e-12, (z, omega)

    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    @pytest.mark.parametrize(
        "diagram", [SpectrumDiagram.G2_1, SpectrumDiagram.G5A], ids=lambda d: d.value
    )
    def test_unmirrored_integrands_are_asymmetric(self, monkeypatch, diagram, kind):
        for z in (0.25, 1.0 / 3.0):
            for omega in (1.0, 10.0):
                f, interval = _mapped_integrand(
                    monkeypatch, diagram, 0.3 * omega, omega, make_model(kind, z)
                )
                assert interval == (0.0, 1.0)
                assert _asymmetry(f) > 1e-3, (z, omega)


class TestFreeFermionShortCircuit:
    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    def test_kernel_caches_are_not_touched(self, kind):
        # at z = 1/2 e^{I} is exactly 1 and the R_s phase 0; both are
        # answered before their caches are consulted
        spec = make_model(kind, 0.5)
        before = (_exp_i_cached.cache_info(), _rs_phase_cached.cache_info())
        for lam in (0.0, 0.7, -12.5, complex(0.3, math.pi), complex(-2.0, -1.3)):
            assert exp_I(lam, spec) == 1.0 + 0.0j
        reflection_coefficient(1.3, spec)
        diagram_g1_1(0.4, 1.3, spec)
        assert (_exp_i_cached.cache_info(), _rs_phase_cached.cache_info()) == before


class TestKondoLowFrequencySpectrum:
    def test_interior_points_match_the_closed_form(self):
        # the 28 points of the default grid at omega = 0.1 inside the edges
        # 1e-3 <= omega'/omega <= 0.9993, which the free-fermion benchmark
        # holds to 1e-4 relative; the 11 edge points are held to 1e-6 in
        # the acceptance tests
        omega = 0.1
        curve = spectrum_curve(omega, make_model("kondo", 0.5))
        checked = 0
        for omega_p, value in zip(curve.omega_primes, curve.values):
            if not 1e-3 <= omega_p / omega <= 0.9993:
                continue
            exact = kondo_half_spectrum(omega_p, omega)
            assert abs(value / exact - 1.0) <= 1e-4, omega_p / omega
            checked += 1
        assert checked == 28


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

    @pytest.mark.parametrize(
        "kind, z, omega",
        [("bsg", 1.0 / 3.0, 1.0), ("bsg", 0.5, 10.0), ("kondo", 0.5, 10.0)],
        ids=["bsg-third-1", "bsg-half-10", "kondo-half-10"],
    )
    def test_diagram_budget_stays_within_tolerance(self, monkeypatch, kind, z, omega):
        # the outer rule runs at 3/4 tol omega and each diagram at (tol omega
        # / 4) / sum |coeff|; the energy integral agrees within tol omega with
        # a run whose diagrams stay at _TOL_DIAGRAM max(1, omega).  Measured:
        # the ratios differ by 7.6e-10, 3.8e-12 and 6.0e-13
        tol = 1e-5
        spec = make_model(kind, z)
        bd = reflection_coefficient(omega, spec)
        budgeted = sum_rule_check(omega, spec, tol=tol, breakdown=bd)
        real = spectrum_mod.spectrum_point
        monkeypatch.setattr(
            spectrum_mod, "spectrum_point", lambda wp, w, s, tol: real(wp, w, s)
        )
        full = sum_rule_check(omega, spec, tol=tol, breakdown=bd)
        loss = omega * spectrum_mod._inelastic_loss(bd)
        assert abs(budgeted - full) * loss <= tol * omega

    def test_evaluation_count_with_the_diagram_budget(self, monkeypatch):
        # every adaptive_1d point of the sum rule at bsG z = 1/3, omega = 1,
        # tol 1e-5 (the omega' rule and the diagrams): 2325, against 5265
        # with every diagram at _TOL_DIAGRAM
        spec = make_model("bsg", 1.0 / 3.0)
        bd = reflection_coefficient(1.0, spec)
        evaluations = _count_evaluations(monkeypatch)
        sum_rule_check(1.0, spec, breakdown=bd)
        assert sum(evaluations) <= 2400

    @pytest.mark.parametrize(
        "z, omega", [(0.25, 0.1), (0.75, 10.0), (0.6, 1.0)], ids=str
    )
    def test_pair_diagram_identity_at_generic_z(self, monkeypatch, z, omega):
        # with f_pm held at z = 1/2, G1_1 integrates to omega (1 - |r|^2) for
        # any pair reflection factor R, r the pair set's integral of R: an
        # answer-free check of the diagram integral, its mirror half, the
        # omega' rule and the bsG bracket at z.  Measured: ratio - 1 =
        # -2.7e-9, -6.2e-8 and 9.3e-9.  At z = 1/4, omega = 0.1 the loss
        # omega (1 - |r|^2) = 2.8e-8 is below tol omega, so the ratio itself
        # is held to 1e-6 as well
        tol = 1e-5
        half = make_model("bsg", 0.5)
        spec = make_model("bsg", z)
        def bracket(l1, l2):
            return soliton_pair_bracket(l1, l2, spec)

        r = set_integral("pm", omega, half, reflection=bracket) / r0_weights(half)["pm"]
        pair = spectrum_mod._two_pair_reflection(spec)
        monkeypatch.setattr(spectrum_mod, "_two_pair_reflection", lambda _: pair)
        bd = ReflectionBreakdown(
            omega=omega, terms={"pm": r}, total=r, truncation_bound=0.0
        )
        ratio = sum_rule_check(omega, half, tol=tol, breakdown=bd)
        loss = omega * (1.0 - abs(r) ** 2)
        assert abs(ratio - 1.0) * loss <= tol * omega
        assert abs(ratio - 1.0) <= 1e-6

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
        curve = spectrum_curve(omega, make_model("bsg", 0.5), grid_size=12)
        assert curve.omega == omega
        assert all(0.0 < wp < omega for wp in curve.omega_primes)
        assert list(curve.omega_primes) == sorted(curve.omega_primes)
        assert set(curve.per_diagram) == {SpectrumDiagram.G1_1}
        assert len(curve.values) == len(curve.omega_primes)
        assert all(v > 0.0 for v in curve.values)
        assert abs(curve.sum_rule_ratio - 1.0) <= 1e-9
        # elastic delta-function weight is a negative depletion
        assert -1.0 < curve.gamma_disc < 0.0

    def test_values_sum_per_diagram(self):
        curve = spectrum_curve(1.0, make_model("kondo", 0.5), grid_size=8)
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
