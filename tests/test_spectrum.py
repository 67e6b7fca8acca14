import math

import numpy as np
import pytest

import bscat.quadrature as quadrature_mod
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
from bscat.spectrum import (
    SpectrumCurve,
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
from referm import spectrum_half
from stacking import row_by_row

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
            spectrum_mod, "integrate_segment", lambda *a, **k: calls.append(a)
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

    def test_six_soliton_diagram_at_small_z(self):
        # G1_3 reads S0 on the real axis, inside the integral's strip at
        # every z.  The value is not pinned: the z = 0.1 spectrum carries
        # the open sum-rule deficit
        assert math.isfinite(spectrum_mod.diagram_g1_3(0.3, 1.0, make_model("bsg", 0.1)))

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


class TestStackedKernelCalls:
    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    def test_diagrams_equal_their_unstacked_products(self, monkeypatch, kind):
        # a diagram that reads one kernel several times reads it in one
        # call on the stacked arguments: G1_1 and G1_3 their two crossed
        # f_pm, their two uncrossed f_pm and their two brackets, G1_3 its
        # four S0, G2_1 and G5A their two f_pm, G3A its two f_pm1.  Each
        # diagram, a family over omega', is bit for bit the one of
        # separate calls
        spec = make_model(kind, 1.0 / 3.0)
        omega_p = np.array([0.2, 0.55, 0.9])
        diagrams = [spectrum_mod._DIAGRAM_FUNCS[d] for d in active_diagrams(spec)]
        assert len(diagrams) == 6
        stacked = [diagram(omega_p, 1.0, spec) for diagram in diagrams]
        kernels = {"f_pm": 2, "f_pm1": 3, "s0": 1, "soliton_pair_bracket": 2}
        for name, n_arrays in kernels.items():
            real = getattr(spectrum_mod, name)
            monkeypatch.setattr(spectrum_mod, name, row_by_row(real, n_arrays))
        for diagram, value in zip(diagrams, stacked):
            assert np.array_equal(value, diagram(omega_p, 1.0, spec)), diagram.__name__


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

    @pytest.mark.parametrize(
        "kind, z, omega",
        [
            ("bsg", 1.0 / 3.0, 1.0),
            ("kondo", 1.0 / 3.0, 1.0),
            ("bsg", 0.25, 1.0),
            ("kondo", 1.0 / 3.0, 10.0),
            ("bsg", 0.2, 1.0),
        ],
        ids=["bsg", "kondo", "bsg-z0.25", "kondo-omega10", "bsg-z0.2"],
    )
    def test_small_omega_prime_meets_its_bound(self, kind, z, omega):
        # every active diagram, a family over the 39 rows of the CLI's
        # default grid, is within its bound |coeff| tol/(omega' omega) of a
        # run at 1e-4 of its tolerance: at most 9.6e-4 of it at bsG z =
        # 1/3, 5.8e-4 at Kondo 1/3, 6.6e-5 at bsG 1/4, 1.9e-4 at Kondo
        # omega = 10 and 6.7e-4 at bsG 0.2.  Kondo z = 1/3 at omega = 0.1
        # is left out: there every diagram stops after its first panel at
        # both tolerances, which read the same values, so the check would
        # show nothing.
        spec = make_model(kind, z)
        grid = np.array(spectrum_mod.default_omega_prime_grid(omega))
        assert len(grid) == 39
        tol = spectrum_mod._TOL_DIAGRAM * max(1.0, omega)
        for diagram in active_diagrams(spec):
            func = spectrum_mod._DIAGRAM_FUNCS[diagram]
            error = np.abs(func(grid, omega, spec) - func(grid, omega, spec, 1e-4 * tol))
            bound = abs(spectrum_mod._DIAGRAMS[diagram][0]) * tol / (grid * omega)
            assert np.all(error <= bound), diagram.value
        # one omega' per call, at omega' = 9.4e-4 omega (row 5), the
        # unmirrored G2_1 missed its bound by 2.0 (bsG) and 1.2 (Kondo)
        # times at z = 1/3, omega = 1 on the smoothstep map; on the corner
        # halves both read at most 6e-4 of it
        for diagram in (SpectrumDiagram.G2_1, SpectrumDiagram.G3A):
            func = spectrum_mod._DIAGRAM_FUNCS[diagram]
            error = abs(func(grid[5], omega, spec) - func(grid[5], omega, spec, 1e-4 * tol))
            bound = abs(spectrum_mod._DIAGRAMS[diagram][0]) * tol / (grid[5] * omega)
            assert error <= bound, diagram.value

    def test_evaluation_count_at_the_lowest_node(self, monkeypatch):
        # sqrt endpoints cost adaptive bisection toward both ends without
        # a corner map: 2220 integrand evaluations, against 690 with both
        # corner halves of every diagram (480 with the mirror halves, below)
        evaluations = _count_evaluations(monkeypatch)
        spectrum_point(_GL_NODES[0], 1.0, SPEC3_BSG)
        assert len(evaluations) == 8
        assert sum(evaluations) <= 1000

    def test_mirrored_evaluation_count_at_the_lowest_node(self, monkeypatch):
        # G1_1, G1_3, G3A and G4A integrate one corner half and G2_1 and
        # G5A both (two adaptive_1d calls each): 480 evaluations, against
        # 690 with both halves of every diagram
        evaluations = _count_evaluations(monkeypatch)
        spectrum_point(_GL_NODES[0], 1.0, SPEC3_BSG)
        assert len(evaluations) == 8
        assert sum(evaluations) <= 560

    def test_mirrored_pair_diagram_curve_count(self, monkeypatch):
        # G1_1 on the 39-point default grid at bsG z = 1/2, omega = 1:
        # 1005 evaluations, against 2010 with both halves
        evaluations = _count_evaluations(monkeypatch)
        spec = make_model("bsg", 0.5)
        grid = spectrum_mod.default_omega_prime_grid(1.0)
        for omega_p in grid:
            diagram_g1_1(omega_p, 1.0, spec)
        assert len(evaluations) == len(grid) == 39
        assert sum(evaluations) <= 1200


def _count_adaptive_1d(monkeypatch, record):
    """Pass the result of every adaptive_1d call from now on to `record`,
    in order: the diagrams' (through `quadrature.integrate_segment`, one
    call per corner half) and the sum rule's omega' rule."""
    real = quadrature_mod.adaptive_1d

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        record(res)
        return res

    monkeypatch.setattr(quadrature_mod, "adaptive_1d", counted)
    monkeypatch.setattr(spectrum_mod, "adaptive_1d", counted)


def _count_evaluations(monkeypatch):
    """The evaluations of every adaptive_1d call from now on, in order."""
    evaluations = []
    _count_adaptive_1d(monkeypatch, lambda res: evaluations.append(res.evaluations))
    return evaluations


_MIRRORED = (
    SpectrumDiagram.G1_1,
    SpectrumDiagram.G1_3,
    SpectrumDiagram.G3A,
    SpectrumDiagram.G4A,
)


def _segment_point(monkeypatch, diagram, omega_p, omega, spec):
    """The point function of (e1, e2) that `diagram` hands to
    integrate_segment, the segment's width and its `symmetric` flag,
    without integrating it."""
    seen = []

    def record(point, width, tol, symmetric=False):
        seen.append((point, width, symmetric))
        return QuadResult(0.0, 0.0, 0)

    monkeypatch.setattr(spectrum_mod, "integrate_segment", record)
    spectrum_mod._DIAGRAM_FUNCS[diagram](omega_p, omega, spec)
    monkeypatch.undo()
    (call,) = seen
    return call


def _asymmetry(point, width):
    """max |point(e1, e2) - point(e2, e1)| on five points of the segment
    e1 + e2 = width, relative to the largest |point|."""
    e1 = width * np.array([0.01, 0.1, 0.2, 0.33, 0.45])
    e2 = width - e1
    x, y = point(e1, e2), point(e2, e1)
    scale = max(np.max(np.abs(x)), np.max(np.abs(y)))
    assert scale > 0.0
    return np.max(np.abs(x - y)) / scale


class TestMirroredDiagrams:
    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    @pytest.mark.parametrize("diagram", _MIRRORED, ids=lambda d: d.value)
    def test_mirrored_integrands_are_symmetric(self, monkeypatch, diagram, kind):
        zs = [0.25, 1.0 / 3.0] + ([0.5] if diagram is SpectrumDiagram.G1_1 else [])
        for z in zs:
            for omega in (1.0, 10.0):
                point, width, symmetric = _segment_point(
                    monkeypatch, diagram, 0.3 * omega, omega, make_model(kind, z)
                )
                assert symmetric
                assert _asymmetry(point, width) <= 1e-12, (z, omega)

    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    @pytest.mark.parametrize(
        "diagram", [SpectrumDiagram.G2_1, SpectrumDiagram.G5A], ids=lambda d: d.value
    )
    def test_unmirrored_integrands_are_asymmetric(self, monkeypatch, diagram, kind):
        for z in (0.25, 1.0 / 3.0):
            for omega in (1.0, 10.0):
                point, width, symmetric = _segment_point(
                    monkeypatch, diagram, 0.3 * omega, omega, make_model(kind, z)
                )
                assert not symmetric
                assert _asymmetry(point, width) > 1e-3, (z, omega)


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
        # every adaptive_1d node of the sum rule at bsG z = 1/3, omega = 1,
        # tol 1e-5 (the omega' rule and the diagrams, each an outer panel's
        # 15 omega' as one family): 255 nodes (3615 member evaluations) on
        # the corner halves of the segment rule, 345 (4965) on the former
        # smoothstep map, against 735 (10815) there with every diagram at
        # _TOL_DIAGRAM, which the bound refuses; one integral per omega'
        # took 2325 nodes of one point each, 5265 without the budget
        spec = make_model("bsg", 1.0 / 3.0)
        bd = reflection_coefficient(1.0, spec)
        evaluations = _count_evaluations(monkeypatch)
        sum_rule_check(1.0, spec, breakdown=bd)
        assert sum(evaluations) <= 360

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

    def test_rejects_a_breakdown_with_nothing_to_normalize_by(self, monkeypatch):
        # a truncation bound of 1 leaves no free-theory weight to divide r
        # by: refused with a DomainError before the omega' integral starts
        def no_integral(*args, **kwargs):
            raise AssertionError("the omega' integral ran")

        monkeypatch.setattr(spectrum_mod, "adaptive_1d", no_integral)
        bd = ReflectionBreakdown(
            omega=1.0, terms={}, total=0.5 + 0.0j, truncation_bound=1.0
        )
        with pytest.raises(DomainError, match="truncation bound >= 1"):
            sum_rule_check(1.0, make_model("bsg", 0.5), breakdown=bd)

    @pytest.mark.parametrize("omega", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_frequency(self, omega):
        spec = make_model("bsg", 0.5)
        for call in (sum_rule_check, spectrum_curve):
            with pytest.raises(DomainError, match="omega must be finite"):
                call(omega, spec)

    def test_point_rejects_a_frequency_below_the_floor(self):
        # at omega = 1e-80 the diagram integrand's e1 e2 e3 e4 underflows to 0
        with pytest.raises(DomainError, match="below the floor"):
            spectrum_point(0.3e-80, 1e-80, make_model("bsg", 1.0 / 3.0))


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
        assert curve.complete
        # elastic delta-function weight is a negative depletion
        assert -1.0 < curve.gamma_disc < 0.0

    @pytest.mark.parametrize(
        "ratio, complete",
        [(1.0, True), (0.85, True), (1.15, True), (0.8499, False), (1.1501, False), (math.nan, False)],
    )
    def test_complete_is_the_sum_rule_band(self, ratio, complete):
        curve = SpectrumCurve(1.0, (), (), {}, sum_rule_ratio=ratio, gamma_disc=-0.1)
        assert curve.complete is complete

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

    def test_one_family_integral_per_diagram(self, monkeypatch):
        # bsG z = 1/2, omega = 1: G1_1 on the 39-point grid is one
        # adaptive_1d call (one corner half), a family of 39; the sum rule
        # adds its omega' rule and one G1_1 family of 15 per panel of that
        # rule.  r(omega) is computed beforehand, so that only the
        # spectrum's integrals are counted
        spec = make_model("bsg", 0.5)
        bd = reflection_coefficient(1.0, spec)
        monkeypatch.setattr(spectrum_mod, "reflection_coefficient", lambda omega, spec: bd)
        shapes, outer = [], []

        def record(res):
            shapes.append(np.shape(res.value))
            if np.ndim(res.value) == 0:
                outer.append(res.evaluations)

        _count_adaptive_1d(monkeypatch, record)
        spectrum_curve(1.0, spec)
        assert shapes[0] == (39,)
        (nodes,) = outer
        assert shapes[1:] == [(15,)] * (nodes // 15) + [()]

    def test_invalid_arguments(self):
        spec = make_model("bsg", 0.5)
        with pytest.raises(DomainError):
            spectrum_curve(0.0, spec)
        with pytest.raises(DomainError):
            spectrum_point(1.5, 1.0, spec)
