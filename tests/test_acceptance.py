"""End-to-end acceptance checks with pinned tolerances.

These exercise the full pipeline: reflection coefficients against the
free-fermion closed form, the energy-resolved spectrum against the same
oracle, the energy-conservation sum rule, truncation-weight saturation,
asymptotic power laws, spectral shape exponents, and the algebraic
validation suites exposed by the command-line interface.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from bscat.cli import main as cli_main
from bscat.formfactors import r0_weights
from bscat.model import make_model
from bscat.spectrum import default_omega_prime_grid, diagram_g1_1, sum_rule_check
from bscat.twopoint import rates_from_r, reflection_coefficient
from closed_forms import kondo_half_spectrum
from power_law import fit_power_law
from referm import r_half_closed, spectrum_half


def _rate_curve(kind, z, omegas):
    spec = make_model(kind, z)
    return rates_from_r([reflection_coefficient(w, spec) for w in omegas])


class TestFreeFermionReflection:
    """criterion 1: r(omega) against the closed form at z = 1/2."""

    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    def test_fifty_frequencies(self, kind):
        spec = make_model(kind, 0.5)
        start = time.perf_counter()
        for omega in np.geomspace(1e-2, 1e2, 50):
            bd = reflection_coefficient(omega, spec)
            r = bd.total / (1.0 - bd.truncation_bound)
            exact = r_half_closed(omega, spec.kind)
            assert abs(r - exact) <= 1e-6 * abs(exact)
        assert time.perf_counter() - start < 30.0


class TestFreeFermionSpectrum:
    """criterion 2: pair diagram against the closed-form spectrum."""

    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    def test_grid(self, kind):
        spec = make_model(kind, 0.5)
        start = time.perf_counter()
        # fractions of omega, excluding the outer 2% of the omega' range
        fractions = np.linspace(0.02, 0.98, 20)
        for omega in np.geomspace(1e-1, 1e1, 20):
            for u in fractions:
                omega_p = u * omega
                a = diagram_g1_1(omega_p, omega, spec)
                b = spectrum_half(omega_p, omega, spec.kind)
                assert abs(a - b) <= 1e-4 * abs(b)
        assert time.perf_counter() - start < 120.0

    def test_kondo_low_frequency_edges(self):
        # the 11 points of the default grid at omega = 0.1 within 1e-3 of
        # either end, where Re(R - 1) is far below the rounding of R
        omega = 0.1
        spec = make_model("kondo", 0.5)
        edges = [
            omega_p
            for omega_p in default_omega_prime_grid(omega)
            if not 1e-3 <= omega_p / omega <= 0.9993
        ]
        assert len(edges) == 11
        for omega_p in edges:
            exact = kondo_half_spectrum(omega_p, omega)
            value = diagram_g1_1(omega_p, omega, spec)
            assert abs(value / exact - 1.0) <= 1e-6, omega_p / omega


# the sum-rule ratios at omega = 1, tol 1e-3, where the spectrum away from
# z = 1/2 and bsG z = 1/3 misses energy conservation (ROADMAP item 2)
_MISSED_SUM_RULES = [
    ("bsg", 0.4, 0.4115),
    ("kondo", 0.4, 0.041),
    ("bsg", 0.6, 0.4238),
    ("kondo", 0.6, 0.4321),
    ("kondo", 1.0 / 3.0, 0.7627),
    ("bsg", 0.25, 0.0244),
]


class TestSumRule:
    """criterion 3: energy conservation of the resolved spectrum."""

    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    @pytest.mark.parametrize("omega", [0.1, 1.0, 10.0])
    def test_free_fermion_point(self, kind, omega):
        ratio = sum_rule_check(omega, make_model(kind, 0.5))
        assert ratio == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("omega", [0.1, 1.0, 10.0])
    def test_breather_diagram_set(self, omega):
        ratio = sum_rule_check(omega, make_model("bsg", 1.0 / 3.0), tol=1e-3)
        assert 0.85 <= ratio <= 1.15

    @pytest.mark.parametrize(
        "kind, z",
        [
            pytest.param(
                kind,
                z,
                id=f"{kind}-{z:.3g}",
                marks=pytest.mark.xfail(strict=True, reason=f"sum-rule ratio {ratio}"),
            )
            for kind, z, ratio in _MISSED_SUM_RULES
        ],
    )
    def test_away_from_the_checked_points(self, kind, z):
        ratio = sum_rule_check(1.0, make_model(kind, z), tol=1e-3)
        assert 0.85 <= ratio <= 1.15


class TestTruncationWeights:
    """criterion 4: the retained excitation sets nearly saturate unity."""

    @pytest.mark.parametrize("z", [1.0 / 3.0, 0.5])
    def test_with_mixed_set(self, z):
        weights = r0_weights(make_model("bsg", z))
        assert abs(1.0 - math.fsum(weights.values())) < 1e-2

    def test_without_mixed_set(self):
        weights = r0_weights(make_model("bsg", 0.47))
        assert "pm1" not in weights
        missing = 1.0 - math.fsum(weights.values())
        assert 0.0 <= missing < 5e-2


class TestPowerLaws:
    """criterion 5: asymptotic exponents of the inelastic rate and the
    phase-shift endpoints."""

    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    def test_high_frequency_z_half(self, kind):
        omegas = np.geomspace(1e3, 1e4, 10)
        curve = _rate_curve(kind, 0.5, omegas)
        slope, _ = fit_power_law(curve, (omegas[0] * 0.99, omegas[-1] * 1.01))
        assert slope == pytest.approx(2.0 * 0.5 - 2.0, abs=0.05)

    def test_high_frequency_z_06(self):
        omegas = np.geomspace(1e3, 1e4, 10)
        curve = _rate_curve("bsg", 0.6, omegas)
        slope, _ = fit_power_law(curve, (omegas[0] * 0.99, omegas[-1] * 1.01))
        assert slope == pytest.approx(2.0 * 0.6 - 2.0, abs=0.05)

    def test_high_frequency_z_third(self):
        omegas = np.geomspace(250.0, 1000.0, 8)
        curve = _rate_curve("bsg", 1.0 / 3.0, omegas)
        slope, _ = fit_power_law(curve, (omegas[0] * 0.99, omegas[-1] * 1.01))
        assert slope == pytest.approx(2.0 / 3.0 - 2.0, abs=0.05)

    def test_low_frequency_kondo(self):
        omegas = np.geomspace(0.03, 0.2, 10)
        curve = _rate_curve("kondo", 0.5, omegas)
        slope, _ = fit_power_law(curve, (omegas[0] * 0.99, omegas[-1] * 1.01))
        assert slope == pytest.approx(6.0, abs=0.3)

    @pytest.mark.parametrize("z", [0.5, 1.0 / 3.0])
    def test_low_frequency_bsg(self, z):
        omegas = np.geomspace(0.01, 0.2, 10)
        curve = _rate_curve("bsg", z, omegas)
        slope, _ = fit_power_law(curve, (omegas[0] * 0.99, omegas[-1] * 1.01))
        assert slope == pytest.approx(2.0 / z - 2.0, abs=0.1)

    def test_phase_shift_endpoints(self):
        omegas = np.geomspace(1e-3, 1e3, 13)
        bsg = _rate_curve("bsg", 0.5, omegas)
        kondo = _rate_curve("kondo", 0.5, omegas)
        assert bsg.delta[0] == pytest.approx(math.pi / 2.0, abs=0.02)
        assert kondo.delta[0] == pytest.approx(math.pi, abs=0.02)
        assert bsg.delta[-1] == pytest.approx(0.0, abs=0.02)
        assert kondo.delta[-1] == pytest.approx(0.0, abs=0.02)


class TestSpectralShapes:
    """criterion 6: edge exponents of the resolved spectrum at z = 1/2."""

    @staticmethod
    def _slope(xs, vals):
        coeffs = np.polyfit(np.log(xs), np.log(vals), 1)
        return coeffs[0]

    @pytest.mark.parametrize(
        "kind,expected", [("bsg", -1.0), ("kondo", 1.0)]
    )
    def test_soft_edge(self, kind, expected):
        omega = 1.0
        spec = make_model(kind, 0.5)
        xs = omega * np.geomspace(1e-4, 1e-2, 10)
        vals = [diagram_g1_1(x, omega, spec) for x in xs]
        assert self._slope(xs, vals) == pytest.approx(expected, abs=0.1)

    @pytest.mark.parametrize(
        "kind,expected", [("bsg", 1.0), ("kondo", 3.0)]
    )
    def test_elastic_edge(self, kind, expected):
        omega = 1.0
        spec = make_model(kind, 0.5)
        xs = omega * np.geomspace(1e-4, 1e-2, 10)
        vals = [diagram_g1_1(omega - x, omega, spec) for x in xs]
        assert self._slope(xs, vals) == pytest.approx(expected, abs=0.2)


class TestAlgebraicSuites:
    """criterion 7: scattering, boundary and form-factor identities."""

    def test_validate_all(self):
        res = CliRunner().invoke(cli_main, ["validate", "--suite", "all"])
        assert res.exit_code == 0, res.output
        rows = [
            line.split(",")
            for line in res.output.strip().splitlines()
            if "," in line and not line.startswith("#")
        ]
        header, body = rows[0], rows[1:]
        assert header == ["check", "residual", "bound", "status"]
        assert body, "validation produced no checks"
        assert all(row[3] == "pass" for row in body)
