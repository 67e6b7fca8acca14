import cmath
import math

import numpy as np
import pytest

import bscat.formfactors as formfactors_mod
from bscat.errors import DomainError, InsufficientData
from bscat.formfactors import r0_weights
from bscat.model import make_model
from bscat.quadrature import QuadResult, adaptive_1d
from bscat.referm import r_half_closed
from bscat.twopoint import (
    RateCurve,
    ReflectionBreakdown,
    fit_power_law,
    r_term_12,
    r_term_breather,
    r_term_pm1,
    r_term_soliton_pair,
    rates_from_r,
    reflection_coefficient,
)


class TestReflectionCoefficient:
    def test_term_keys_z_third(self):
        bd = reflection_coefficient(1.0, make_model("bsg", 1.0 / 3.0))
        assert set(bd.terms) == {"m1", "pm", "pm1"}
        assert set(bd.terms) == set(r0_weights(make_model("bsg", 1.0 / 3.0)))
        assert bd.total == sum(bd.terms.values())
        assert 0.0 <= bd.truncation_bound < 1e-2

    def test_term_keys_z_half(self):
        spec = make_model("kondo", 0.5)
        bd = reflection_coefficient(1.0, spec)
        assert set(bd.terms) == {"pm"} == set(r0_weights(spec))

    @pytest.mark.parametrize("z", [0.2, 0.25])
    def test_bsg_r_is_bounded_by_unitarity(self, z):
        # |r(omega)| <= 1 in the full theory; the truncated, normalised r
        # may exceed it by at most the truncation bound.  With breathers
        # m >= 2 that were not unimodular it reached 1.0111 at z = 0.2,
        # omega = 3, against a bound of 2.2e-4
        spec = make_model("bsg", z)
        for omega in (1.0, 3.0):
            bd = reflection_coefficient(omega, spec)
            r = abs(bd.total) / (1.0 - bd.truncation_bound)
            assert r <= 1.0 + bd.truncation_bound

    @pytest.mark.parametrize(
        "kind, z", [("bsg", 1.0 / 3.0), ("bsg", 0.4), ("kondo", 1.0 / 3.0)]
    )
    def test_r_is_bounded_by_unitarity_on_a_log_grid(self, kind, z):
        # the same bound from omega = 1e-2 to 1e2, at integer p with the
        # pair + breather set (z = 1/3) and at non-integer p (z = 0.4); |r|
        # tends to 1 at both ends and reads 0.93-0.99 at omega = 1 and 10
        spec = make_model(kind, z)
        for omega in np.geomspace(1e-2, 1e2, 5):
            bd = reflection_coefficient(float(omega), spec)
            r = abs(bd.total) / (1.0 - bd.truncation_bound)
            assert r <= 1.0 + bd.truncation_bound, omega

    @pytest.mark.parametrize("kind, z", [("bsg", 0.4), ("kondo", 0.6)])
    def test_kramers_kronig(self, kind, z):
        # r(omega) is causal: chi = r/(1 - truncation_bound) - 1 satisfies
        # Im chi(w0) = -(2 w0/pi) int_0^inf [Re chi(w) - Re chi(w0)]/(w^2 - w0^2) dw,
        # a subtracted form with no principal value.  The integral runs in
        # x = log w on [-14, 14], split at log w0; the tails hold Re chi at
        # its end values and are integrated in closed form.  Measured: errors
        # up to 3.6e-12 (bsG z = 0.4) and 1.6e-10 (Kondo z = 0.6)
        spec = make_model(kind, z)

        def chi(omega):
            bd = reflection_coefficient(omega, spec)
            return bd.total / (1.0 - bd.truncation_bound) - 1.0

        lo, hi = math.exp(-14.0), math.exp(14.0)
        for w0 in (0.1, 1.0, 10.0):
            c0 = chi(w0)

            def f(x):
                w = math.exp(x)
                return (chi(w).real - c0.real) / (w * w - w0 * w0) * w

            body = sum(
                adaptive_1d(f, a, b, tol=5e-9).value.real
                for a, b in ((-14.0, math.log(w0)), (math.log(w0), 14.0))
            )
            # int dw/(w^2 - w0^2) = log|(w - w0)/(w + w0)| / (2 w0)
            tails = (
                (chi(lo).real - c0.real) * math.log((w0 - lo) / (w0 + lo))
                + (chi(hi).real - c0.real) * math.log((hi + w0) / (hi - w0))
            ) / (2.0 * w0)
            assert abs(-2.0 * w0 / math.pi * (body + tails) - c0.imag) <= 1e-8, w0

    def test_term_keys_many_breathers(self):
        spec = make_model("bsg", 0.2)
        bd = reflection_coefficient(1.0, spec)
        # odd single breathers, the pair, the 1-2 pair and the mixed set
        assert set(bd.terms) == {"m1", "m3", "pm", "12", "pm1"}
        assert set(bd.terms) == set(r0_weights(spec))

    def test_non_integer_p_drops_mixed_set(self):
        spec = make_model("bsg", 0.47)
        bd = reflection_coefficient(1.0, spec)
        assert set(bd.terms) == {"m1", "pm"} == set(r0_weights(spec))

    def test_matches_free_fermion_oracle(self):
        for kind in ("bsg", "kondo"):
            spec = make_model(kind, 0.5)
            for omega in (0.1, 1.0, 10.0):
                bd = reflection_coefficient(omega, spec)
                r = bd.total / (1.0 - bd.truncation_bound)
                exact = r_half_closed(omega, spec.kind)
                assert abs(r - exact) / abs(exact) < 1e-6

    def test_high_frequency_transparency(self):
        for kind in ("bsg", "kondo"):
            spec = make_model(kind, 0.5)
            bd = reflection_coefficient(1e3, spec)
            assert abs(bd.total / (1.0 - bd.truncation_bound) - 1.0) < 0.05

    def test_low_frequency_limits(self):
        # full reflection with phase -1 (bsG) / +1 (Kondo)
        bd = reflection_coefficient(1e-3, make_model("bsg", 0.5))
        assert abs(bd.total - (-1.0)) < 0.01
        bd = reflection_coefficient(1e-3, make_model("kondo", 0.5))
        assert abs(bd.total - 1.0) < 0.02

    def test_r0_weights_computed_once_per_spec(self, monkeypatch):
        spec = make_model("bsg", 0.5)
        first = r0_weights(spec)
        cache = formfactors_mod._r0_weights_cached
        misses = cache.cache_info().misses
        free_theory = []
        real = formfactors_mod.set_integral

        def recorded(label, omega, spec, tol=None, reflection=None):
            if reflection is None:
                free_theory.append(label)
            return real(label, omega, spec, tol, reflection)

        monkeypatch.setattr(formfactors_mod, "set_integral", recorded)
        for omega in (0.5, 1.0, 2.0):
            reflection_coefficient(omega, spec)
        # no r0 weight is recomputed after the first call
        assert cache.cache_info().misses == misses
        assert free_theory == []
        # each caller gets its own dict: mutating one leaves the cache intact
        mine = r0_weights(spec)
        mine["pm"] = -1.0
        assert r0_weights(spec) == first

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(DomainError):
            reflection_coefficient(0.0, make_model("bsg", 0.5))

    @pytest.mark.parametrize("omega", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_frequency(self, omega):
        spec = make_model("bsg", 1.0 / 3.0)
        calls = [
            lambda: reflection_coefficient(omega, spec),
            lambda: r_term_breather(omega, 1, spec),
            lambda: r_term_soliton_pair(omega, spec),
            lambda: r_term_12(omega, make_model("bsg", 0.25)),
            lambda: r_term_pm1(omega, spec),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="omega must be finite"):
                call()


def _simplex_integrand(monkeypatch, call):
    """The integrand and `symmetric` flag that `call()` hands to
    integrate_simplex, without integrating it."""
    seen = []

    def record(n_parts, total, integrand, tol, symmetric=False):
        seen.append((integrand, symmetric))
        return QuadResult(0j, 0.0, 0)

    monkeypatch.setattr(formfactors_mod, "integrate_simplex", record)
    call()
    monkeypatch.undo()
    (out,) = seen
    return out


class TestExchangeSymmetricSets:
    # the soliton pair's two lines carry the same excitation: |f|^2 times
    # the reflection is symmetric under l1 <-> l2, so one mirror half of
    # the pair is integrated
    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    @pytest.mark.parametrize("label", ["pm", "pm1"])
    def test_pair_integrands_are_symmetric(self, monkeypatch, kind, label):
        term, n_lines = {"pm": (r_term_soliton_pair, 2), "pm1": (r_term_pm1, 3)}[label]
        rng = np.random.default_rng(7)
        for z in (0.25, 1.0 / 3.0):
            spec = make_model(kind, z)
            calls = {
                "reflected": lambda: term(1.3, spec),
                "free": lambda: formfactors_mod.set_integral(label, 1.0, spec, 1e-9),
            }
            for name, call in calls.items():
                integrand, symmetric = _simplex_integrand(monkeypatch, call)
                assert symmetric, name
                for _ in range(20):
                    e1, e2, *rest = np.exp(rng.uniform(-4.0, 2.5, n_lines))
                    a = integrand(e1, e2, *rest)
                    b = integrand(e2, e1, *rest)
                    assert abs(a - b) <= 1e-12 * abs(a), (name, z, e1, e2)

    def test_r0_pair_breather_count(self, monkeypatch):
        # the pm1 weight at bsG z = 1/3, at its r(omega) term's tolerance
        # _TOL_3D = 1e-6: 1440 integrand calls (4530 at 1e-7, 9060 at 1e-7
        # with both mirror halves of every inner pair)
        calls = []
        results = []
        real = formfactors_mod.integrate_simplex

        def counted(n_parts, total, integrand, **kwargs):
            def f(*energies):
                calls.append(energies)
                return integrand(*energies)

            results.append(real(n_parts, total, f, **kwargs))
            return results[-1]

        monkeypatch.setattr(formfactors_mod, "integrate_simplex", counted)
        formfactors_mod.set_integral(
            "pm1", 1.0, make_model("bsg", 1.0 / 3.0), formfactors_mod._TOL_3D
        )
        (res,) = results
        assert res.evaluations == len(calls) <= 1470

    @pytest.mark.parametrize("z", [1.0 / 3.0, 0.25, 0.2], ids=["1/3", "1/4", "0.2"])
    def test_r0_pair_breather_weight_at_its_term_tolerance(self, z):
        # the pm1 weight is held to its r(omega) term's tolerance: off a
        # tol-1e-9 run by 8.2e-13, 1.1e-12 and 4.4e-13, against the term's
        # own budget of about 4e-9
        spec = make_model("bsg", z)
        reference = formfactors_mod.set_integral("pm1", 1.0, spec, 1e-9).real
        assert abs(r0_weights(spec)["pm1"] - reference) <= 2e-12

    def test_breather_pair_is_integrated_whole(self, monkeypatch):
        spec = make_model("bsg", 0.25)
        _, symmetric = _simplex_integrand(monkeypatch, lambda: r_term_12(1.3, spec))
        assert not symmetric


def _synthetic_breakdowns(omegas, rs):
    return [
        ReflectionBreakdown(omega=w, terms={"pm": r}, total=r, truncation_bound=0.0)
        for w, r in zip(omegas, rs)
    ]


class TestRates:
    def test_gamma_and_phase_from_r(self):
        omegas = [1.0, 2.0, 4.0]
        rs = [0.5 * cmath.exp(-0.2j), 0.8 * cmath.exp(-0.1j), 1.0]
        curve = rates_from_r(_synthetic_breakdowns(omegas, rs))
        assert curve.gamma[0] == pytest.approx(-math.log(0.25))
        assert curve.delta[0] == pytest.approx(0.1)
        assert curve.delta[2] == pytest.approx(0.0)

    def test_unwrap_continuous_through_branch_cut(self):
        # phase winds smoothly past pi; the unwrapped shift must not jump
        omegas = list(range(1, 12))
        phases = np.linspace(0.0, 2.8, len(omegas))[::-1]
        rs = [cmath.exp(-2j * p) for p in phases]
        curve = rates_from_r(_synthetic_breakdowns(omegas, rs))
        steps = np.diff(curve.delta)
        assert max(abs(steps)) < math.pi / 2.0
        assert curve.delta[0] == pytest.approx(2.8, abs=1e-12)

    def test_unwrap_selects_nearest_branch(self):
        # raw phase 2.0 sits more than pi/2 from the anchor 0.2; the pi-periodic
        # branch 2.0 - pi is closer and must be chosen
        omegas = [1.0, 2.0, 3.0]
        rs = [cmath.exp(-2j * 2.0), cmath.exp(-2j * 0.2), 1.0]
        curve = rates_from_r(_synthetic_breakdowns(omegas, rs))
        assert curve.delta[0] == pytest.approx(2.0 - math.pi, abs=1e-12)

    def test_normalization_divides_truncation_floor(self):
        bd = ReflectionBreakdown(
            omega=1.0, terms={"pm": 0.9}, total=0.9, truncation_bound=0.1
        )
        norm = rates_from_r([bd])
        assert norm.gamma[0] == pytest.approx(0.0, abs=1e-12)
        assert norm.err[0] == pytest.approx(0.2)

    def test_empty_input_rejected(self):
        with pytest.raises(InsufficientData):
            rates_from_r([])


class TestPowerLawFit:
    def test_exact_power_law_recovered(self):
        omegas = list(np.geomspace(0.1, 10.0, 20))
        curve = RateCurve(
            omegas=tuple(omegas),
            gamma=tuple(2.5 * w**3 for w in omegas),
            delta=tuple(0.0 for _ in omegas),
            err=tuple(0.0 for _ in omegas),
        )
        slope, r2 = fit_power_law(curve, (0.1, 10.0))
        assert slope == pytest.approx(3.0, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_window_too_small(self):
        omegas = list(np.geomspace(0.1, 10.0, 20))
        curve = RateCurve(
            omegas=tuple(omegas),
            gamma=tuple(w for w in omegas),
            delta=tuple(0.0 for _ in omegas),
            err=tuple(0.0 for _ in omegas),
        )
        with pytest.raises(InsufficientData):
            fit_power_law(curve, (5.0, 6.0))

