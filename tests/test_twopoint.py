import cmath
import math

import numpy as np
import pytest

import bscat.formfactors as formfactors_mod
import bscat.quadrature as quadrature_mod
import bscat.twopoint as twopoint_mod
from bscat.errors import DomainError, InsufficientData
from bscat.formfactors import r0_weights
from bscat.model import make_model
from bscat.quadrature import QuadResult, adaptive_1d
from bscat.twopoint import (
    RateCurve,
    ReflectionBreakdown,
    r_term_12,
    r_term_breather,
    r_term_pm1,
    r_term_soliton_pair,
    rates_from_r,
    reflection_coefficient,
    reflection_coefficients,
)
from power_law import fit_power_law
from referm import r_half_closed


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
        "kind, z",
        [("bsg", 1.0 / 3.0), ("bsg", 0.4), ("kondo", 1.0 / 3.0)]
        + [(kind, z) for z in (0.05, 0.1, 0.9) for kind in ("bsg", "kondo")],
    )
    def test_r_is_bounded_by_unitarity_on_a_log_grid(self, kind, z):
        # the same bound from omega = 1e-2 to 1e2, at integer p with the
        # pair + breather set (z = 1/3) and at non-integer p (z = 0.4); |r|
        # tends to 1 at both ends and reads 0.93-0.99 at omega = 1 and 10.
        # The ends of the coupling range, z = 0.05, 0.1 and 0.9, are
        # answered without a refusal or a numpy warning (at z = 0.05 f_pm1's
        # sinh product overflowed in the "pm1" r0 weight)
        spec = make_model(kind, z)
        for bd in reflection_coefficients(np.geomspace(1e-2, 1e2, 5), spec):
            r = abs(bd.total) / (1.0 - bd.truncation_bound)
            assert r <= 1.0 + bd.truncation_bound, bd.omega

    @pytest.mark.parametrize("kind, z", [("bsg", 0.4), ("kondo", 0.6)])
    def test_kramers_kronig(self, kind, z):
        # r(omega) is causal: chi = r/(1 - truncation_bound) - 1 satisfies
        # Im chi(w0) = -(2 w0/pi) int_0^inf [Re chi(w) - Re chi(w0)]/(w^2 - w0^2) dw,
        # a subtracted form with no principal value.  The integral runs in
        # x = log w on [-14, 14], split at log w0; the tails hold Re chi at
        # its end values and are integrated in closed form.  r(omega) is read
        # from the grid entry, one call per call of the rule.  Measured:
        # errors up to 1.4e-12 (bsG z = 0.4) and 1.6e-10 (Kondo z = 0.6)
        spec = make_model(kind, z)

        def chis(omegas):
            bds = reflection_coefficients(omegas, spec)
            return np.array([bd.total / (1.0 - bd.truncation_bound) - 1.0 for bd in bds])

        def chi(omega):
            return chis([omega])[0]

        lo, hi = math.exp(-14.0), math.exp(14.0)
        for w0 in (0.1, 1.0, 10.0):
            c0 = chi(w0)

            def f(x):
                w = np.exp(x)
                return (chis(w).real - c0.real) / (w * w - w0 * w0) * w

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
        # _TOL_3D = 1e-6: 270 integrand nodes in 10 calls of 15 or 30
        # nodes (both halves of a split in one call), each node one point
        # of each member of an inner family of 15 or 30, and 540 with both
        # mirror halves of every inner pair, which the bound refuses
        # (before the inner pairs became families: 1440 nodes of one point
        # each; 4530 at 1e-7, 9060 at 1e-7 with both halves)
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
        assert res.evaluations == sum(len(energies[0]) for energies in calls) <= 280

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


class TestRateGrid:
    # reflection_coefficients integrates each two-line set over the whole
    # omega grid as one family; pm1 keeps one outer rule per omega
    def test_one_family_integral_per_two_line_set(self, monkeypatch):
        # bsG z = 0.3 carries pm and 12 (non-integer p: no pm1); pm's
        # symmetric pair is one corner half, 12's two
        spec = make_model("bsg", 0.3)
        r0_weights(spec)
        shapes = []
        real = quadrature_mod.adaptive_1d

        def counted(f, a, b, tol):
            res = real(f, a, b, tol)
            shapes.append(np.shape(res.value))
            return res

        monkeypatch.setattr(quadrature_mod, "adaptive_1d", counted)
        grid = np.geomspace(1e-3, 1e3, 60)
        breakdowns = reflection_coefficients(grid, spec)
        assert [bd.omega for bd in breakdowns] == grid.tolist()
        assert set(breakdowns[0].terms) == {"m1", "pm", "12"}
        assert shapes == [(60,)] * 3

    @pytest.mark.parametrize("kind", ["bsg", "kondo"])
    @pytest.mark.parametrize("z", [0.25, 1.0 / 3.0, 0.4, 0.5], ids=["1/4", "1/3", "0.4", "1/2"])
    def test_members_agree_with_their_own_calls(self, kind, z):
        # each member is held to its own tolerance, _TOL_2D max(1, omega)
        # on the integral, about _TOL_2D max(1, omega)/((2 pi)^2 omega) on
        # the term; a family member and its own call are within twice that
        spec = make_model(kind, z)
        grid = np.geomspace(1e-3, 1e3, 13)
        labels = [label for label in ("pm", "12") if label in r0_weights(spec)]
        for label in labels:
            term = twopoint_mod._SET_TERMS[label]
            family = term(grid, spec)
            assert family.shape == grid.shape
            for w, member in zip(grid, family):
                bound = formfactors_mod._TOL_2D * max(1.0, w) / ((2.0 * math.pi) ** 2 * w)
                assert abs(member - term(float(w), spec)) <= 2.0 * bound, (label, w)

    def test_each_member_is_held_to_its_own_tolerance(self, monkeypatch):
        # the family runs at the largest member tolerance with member k's
        # integrand scaled up by the ratio to its own: at every node, the
        # family's tolerance over its member's integrand equals the
        # member's own call's tolerance over its integrand
        spec = make_model("bsg", 0.25)
        grid = np.array([0.5, 3.0, 40.0])
        seen = []

        def record(n_parts, total, integrand, tol, symmetric=False):
            seen.append((integrand, tol))
            return QuadResult(np.zeros(np.shape(total), dtype=complex), 0.0, 0)

        monkeypatch.setattr(formfactors_mod, "integrate_simplex", record)
        for label in ("pm", "12"):
            term = twopoint_mod._SET_TERMS[label]
            seen.clear()
            term(grid, spec)
            for w in grid:
                term(float(w), spec)
            (family, family_tol), *alone = seen
            assert family_tol == formfactors_mod._TOL_2D * 40.0
            u = np.linspace(0.05, 0.95, 15)[:, None]
            values = family(grid * u, grid * (1.0 - u))
            for k, (integrand, tol) in enumerate(alone):
                assert tol == formfactors_mod._TOL_2D * max(1.0, grid[k])
                own = integrand(grid[k] * u[:, 0], grid[k] * (1.0 - u[:, 0]))
                assert np.allclose(family_tol * own, tol * values[:, k], rtol=1e-13, atol=0.0)

    def test_pm1_costs_no_more_than_per_omega(self, monkeypatch):
        # a family of 3-part simplices would evaluate every member on the
        # nodes of its hardest one; the grid keeps one outer rule per omega
        spec = make_model("bsg", 1.0 / 3.0)
        grid = np.geomspace(0.1, 100.0, 5)
        evaluations = []
        real = formfactors_mod.integrate_simplex

        def counted(n_parts, total, integrand, **kwargs):
            def f(*energies):
                evaluations.append(np.broadcast(*energies).size)
                return integrand(*energies)

            return real(n_parts, total, f, **kwargs)

        monkeypatch.setattr(formfactors_mod, "integrate_simplex", counted)
        on_grid = r_term_pm1(grid, spec)
        grid_evaluations = sum(evaluations)
        evaluations.clear()
        alone = [r_term_pm1(float(w), spec) for w in grid]
        assert grid_evaluations <= sum(evaluations)
        assert np.array_equal(on_grid, np.array(alone))

    def test_one_omega_is_a_grid_of_one(self):
        spec = make_model("bsg", 0.25)
        (grid_bd,) = reflection_coefficients([2.5], spec)
        assert reflection_coefficient(2.5, spec) == grid_bd

    def test_a_refusal_anywhere_refuses_the_grid(self):
        spec = make_model("bsg", 0.5)
        with pytest.raises(DomainError, match="below the floor"):
            reflection_coefficients([1.0, 1e-60, 2.0], spec)


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

