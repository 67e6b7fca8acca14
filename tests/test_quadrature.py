import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bscat.formfactors as formfactors
import bscat.quadrature as quadrature
import bscat.reflection as reflection
from bscat.errors import DomainError, ToleranceNotMet
from bscat.quadrature import (
    ChebyshevTable,
    adaptive_1d,
    integrate_semi_infinite,
    integrate_simplex,
    panel_layout,
)
from bscat.model import make_model


class TestAdaptive1D:
    # integrands take a 1-D array of nodes, 15 per GK15 panel
    def test_polynomial_exact(self):
        res = adaptive_1d(lambda x, _: x * x, 0.0, 1.0, tol=1e-12)
        assert res.value.real == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert res.abs_error_estimate <= 1e-12

    def test_oscillatory(self):
        res = adaptive_1d(lambda x, _: np.cos(101.0 * x), 0.0, 10.0, tol=1e-10)
        assert res.value.real == pytest.approx(math.sin(1010.0) / 101.0, abs=1e-10)

    def test_complex_integrand(self):
        res = adaptive_1d(lambda x, _: x - 1j * x, 0.0, 2.0, tol=1e-12)
        assert res.value == pytest.approx(complex(2.0, -2.0), abs=1e-12)

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            adaptive_1d(lambda x, _: x, 1.0, 1.0, tol=1e-8)

    def test_tolerance_not_met_carries_best_value(self, monkeypatch):
        # |x|^(-1/2)-type endpoint spikes defeat the interval budget
        monkeypatch.setattr(quadrature, "_MAX_INTERVALS", 8)
        with pytest.raises(ToleranceNotMet) as exc:
            adaptive_1d(
                lambda x, _: np.where(x > 0, 1.0 / np.sqrt(x), 0.0), 0.0, 1.0, tol=1e-15
            )
        assert exc.value.value is not None
        assert exc.value.abs_error_estimate > 1e-15

    def test_unresolvable_singularity_is_an_error(self):
        # an interior |x - c|^-0.9 spike at c = 1/pi: bisection reaches
        # floating-point width next to c, where the GK15 estimate collapses
        # to 0 while 0.5 of the integral is missing; the call raises at the
        # first interval that can no longer be split, and its estimate bounds
        # the error of the value it carries
        c = 1.0 / math.pi
        exact = 10.0 * (c**0.1 + (1.0 - c) ** 0.1)
        with pytest.raises(ToleranceNotMet) as exc:
            adaptive_1d(lambda x, _: _spike(x, c), 0.0, 1.0, tol=1e-6)
        assert exc.value.abs_error_estimate > 1e-6
        assert abs(exc.value.value - exact) > 1e-6
        assert exc.value.abs_error_estimate >= abs(exc.value.value - exact)

    def test_nan_integrand_is_an_error(self):
        with pytest.raises(ToleranceNotMet) as exc:
            adaptive_1d(lambda x, _: np.full_like(x, math.nan), 0.0, 1.0, tol=1e-10)
        assert math.isnan(exc.value.abs_error_estimate)

    def test_deterministic(self):
        def f(x, _):
            return np.sin(7.0 * x) / (1.0 + x * x)

        r1 = adaptive_1d(f, 0.0, 5.0, tol=1e-11)
        r2 = adaptive_1d(f, 0.0, 5.0, tol=1e-11)
        assert r1.value == r2.value
        assert r1.abs_error_estimate == r2.abs_error_estimate
        assert r1.evaluations == r2.evaluations

    @given(
        a=st.floats(min_value=-2.0, max_value=0.0),
        b=st.floats(min_value=0.5, max_value=3.0),
        c0=st.floats(min_value=-2.0, max_value=2.0),
        c1=st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_linearity_on_polynomials(self, a, b, c0, c1):
        res = adaptive_1d(lambda x, _: c0 + c1 * x, a, b, tol=1e-10)
        exact = c0 * (b - a) + 0.5 * c1 * (b * b - a * a)
        assert res.value.real == pytest.approx(exact, abs=1e-9)


def _asked(f):
    """f(x), a function of the nodes that returns every member's values, as
    an adaptive_1d integrand: the columns of the members it is asked for."""

    def integrand(x, members):
        values = np.asarray(f(x))
        if members is ...:
            return values
        return np.ascontiguousarray(values.reshape(len(x), -1)[:, members])

    return integrand


def _one_panel_per_call(f, a, b, tol):
    """The bisection of adaptive_1d with the integrand called once per
    panel, on that panel's 15 nodes and every member, the next split found
    by scanning every interval: (value, estimate, evaluations, the number
    of splits).  A member freezes once its summed estimate is at most
    tol/2; it then keeps its panel on the left half and 0 on the right,
    and the keys count only the members still refined."""
    t, wk, wg = quadrature._T15, quadrature._WK15, quadrature._WG15

    def panel(lo, hi, live=slice(None)):
        # the sums of the members refined only, C-ordered as _asked
        # returns them: a matrix product's column can differ in its last
        # bit with the number of columns and with their layout
        h = 0.5 * (hi - lo)
        columns = np.asarray(f(0.5 * (lo + hi) + h * t)).reshape(15, -1)
        columns = np.ascontiguousarray(columns[:, live])
        resk = h * (wk @ columns)
        return resk, np.abs(resk - h * (wg @ columns))

    val, err = panel(a, b)
    shape = np.shape(f(np.zeros(15)))[1:]
    intervals = [(a, b, val, err)]
    total_err, splits, evaluations = err, 0, 15 * err.size
    while np.any(total_err > tol):
        live = ~(total_err <= 0.5 * tol)
        k = max(range(len(intervals)), key=lambda j: (np.sum(intervals[j][3][live]), -intervals[j][0]))
        lo, hi, ival, ierr = intervals.pop(k)
        mid = 0.5 * (lo + hi)
        left, right = panel(lo, mid, live), panel(mid, hi, live)
        total_err = total_err.copy()
        total_err[live] = total_err[live] - ierr[live] + left[1] + right[1]
        v1, e1 = ival.astype(complex), ierr.copy()
        v2, e2 = np.zeros_like(v1), np.zeros_like(e1)
        (v1[live], e1[live]), (v2[live], e2[live]) = left, right
        intervals += [(lo, mid, v1, e1), (mid, hi, v2, e2)]
        splits += 1
        evaluations += 30 * int(np.count_nonzero(live))
    value, total_err = 0.0 + 0.0j, 0.0
    for _, _, ival, ierr in sorted(intervals, key=lambda entry: entry[0]):
        value, total_err = value + ival, total_err + ierr
    return value.reshape(shape)[()], total_err.reshape(shape)[()], evaluations, splits


class TestBothHalvesInOneCall:
    """A split evaluates both halves' 30 nodes in one integrand call, and
    each half's sums are taken from its own 15 rows."""

    @pytest.mark.parametrize(
        "f, a, b, tol",
        [
            (lambda x: np.sin(7.0 * x) / (1.0 + x * x), 0.0, 5.0, 1e-11),
            (lambda x: np.sqrt(x), 0.0, 1.0, 1e-12),
            (lambda x: np.exp(1j * 40.0 * x) / (1e-2 + x * x), -1.0, 2.0, 1e-10),
            (lambda x: np.cos(np.multiply.outer(x, [1.0, 9.0, 30.0])), 0.0, 3.0, 1e-12),
            (lambda x: np.abs(x - 0.3)[:, None, None] * np.ones((2, 3)), 0.0, 1.0, 1e-9),
        ],
        ids=["smooth", "sqrt-endpoint", "complex-peak", "family", "member-array"],
    )
    def test_bit_identical_to_one_panel_per_call(self, f, a, b, tol):
        calls = []

        def counted(x, members):
            calls.append(x.shape)
            return _asked(f)(x, members)

        res = adaptive_1d(counted, a, b, tol)
        value, estimate, evaluations, splits = _one_panel_per_call(f, a, b, tol)
        assert splits > 0
        # 1 + (number of splits) calls: the first panel's 15 nodes, then 30
        # per split, the two halves' nodes in ascending order
        assert calls == [(15,)] + [(30,)] * splits
        assert res.evaluations == evaluations
        assert np.array_equal(res.value, value)
        assert np.array_equal(res.abs_error_estimate, estimate)

    def test_a_split_passes_the_left_half_first(self):
        nodes = []

        def f(x, _):
            nodes.append(x.copy())
            return np.sqrt(x)

        adaptive_1d(f, 0.0, 1.0, 1e-8)
        first_split = nodes[1]
        assert np.all(np.diff(first_split) > 0.0)
        assert first_split[14] < 0.5 < first_split[15]


def _spike(x, c):
    """|x - c|^-0.9, and 0 at x = c."""
    with np.errstate(divide="ignore"):
        return np.where(x == c, 0.0, np.abs(x - c) ** -0.9)


class TestFamily:
    """m integrals on one shared bisection: the integrand returns (15, m),
    or (n, k) for the k members it is asked for once some have frozen."""

    ks = np.array([1.0, 5.0, 101.0])

    def family(self, x, members):
        return _asked(lambda y: np.cos(np.multiply.outer(y, self.ks)))(x, members)

    def test_members_equal_separate_calls(self):
        tol = 1e-10
        res = adaptive_1d(self.family, 0.0, 10.0, tol=tol)
        assert res.value.shape == res.abs_error_estimate.shape == (3,)
        own = 0
        for k, rate in enumerate(self.ks):
            alone = adaptive_1d(lambda x, _: np.cos(rate * x), 0.0, 10.0, tol=tol)
            own += alone.evaluations
            assert abs(res.value[k] - alone.value) <= tol
            assert abs(res.value[k] - math.sin(10.0 * rate) / rate) <= tol
            assert res.abs_error_estimate[k] <= tol
        # a member costs its own nodes: 8,235 member evaluations, the sum of
        # the members' own 105, 465 and 7,665; every member evaluated on
        # the hardest one's nodes took 3 x 7,665 = 22,995
        assert res.evaluations <= 1.5 * own

    # the scalar rule's counts at the parent commit, before families
    @pytest.mark.parametrize(
        "f, b, tol, evaluations",
        [
            (lambda x: np.cos(101.0 * x), 10.0, 1e-10, 7665),
            (lambda x: np.sin(7.0 * x) / (1.0 + x * x), 5.0, 1e-11, 315),
            (lambda x: np.sqrt(x), 1.0, 1e-12, 585),
        ],
        ids=["cos-101", "damped-sine", "sqrt"],
    )
    def test_one_member_repeats_the_scalar_rule(self, f, b, tol, evaluations):
        scalar = adaptive_1d(lambda x, _: f(x), 0.0, b, tol=tol)
        column = adaptive_1d(lambda x, _: f(x)[:, None], 0.0, b, tol=tol)
        assert scalar.evaluations == column.evaluations == evaluations
        assert column.value[0] == scalar.value
        assert column.abs_error_estimate[0] == scalar.abs_error_estimate

    def test_deterministic(self):
        r1 = adaptive_1d(self.family, 0.0, 10.0, tol=1e-11)
        r2 = adaptive_1d(self.family, 0.0, 10.0, tol=1e-11)
        assert np.array_equal(r1.value, r2.value)
        assert np.array_equal(r1.abs_error_estimate, r2.abs_error_estimate)
        assert r1.evaluations == r2.evaluations
        # the two slow members froze, so the runs repeated the frozen rule
        hardest = adaptive_1d(lambda x, _: np.cos(101.0 * x), 0.0, 10.0, tol=1e-11)
        assert r1.evaluations < 3 * hardest.evaluations

    def test_members_of_very_different_depths(self):
        # sqrt(x) scaled by 1, 1e-3 and 1e-6: the smaller a member, the
        # sooner its estimate is at most tol/2, and a frozen member leaves
        # the integrand's array for good
        scales = np.array([1.0, 1e-3, 1e-6])
        tol = 1e-12
        asked = []

        def f(x, members):
            asked.append(set(range(3)) if members is ... else set(members.tolist()))
            return np.sqrt(x)[:, None] * scales[members]

        res = adaptive_1d(f, 0.0, 1.0, tol)
        assert np.all(res.abs_error_estimate <= tol)
        # the frozen members keep the margin they froze with
        assert np.all(res.abs_error_estimate[1:] <= 0.5 * tol * (1.0 + 1e-12))
        for k, c in enumerate(scales):
            assert abs(res.value[k] - 2.0 * c / 3.0) <= tol
        assert all(later <= earlier for earlier, later in zip(asked, asked[1:]))
        # member 2 freezes first, then member 1: 1,185 member evaluations
        # against their own 585, 375 and 195
        assert {0, 1} in asked and asked[-1] == {0}
        assert res.evaluations == 15 * 3 + 30 * sum(len(members) for members in asked[1:])
        own = [adaptive_1d(lambda x, _: np.sqrt(x) * c, 0.0, 1.0, tol) for c in scales]
        assert res.evaluations <= 1.5 * sum(r.evaluations for r in own)

    def test_an_unresolvable_member_is_named(self):
        c = 1.0 / math.pi

        @_asked
        def f(x):
            return np.stack([np.cos(x), np.sin(x), _spike(x, c)], axis=-1)

        with pytest.raises(ToleranceNotMet, match=r"member 2 of 3: cannot split") as exc:
            adaptive_1d(f, 0.0, 1.0, tol=1e-6)
        assert exc.value.value.shape == (3,)
        assert abs(exc.value.value[0] - math.sin(1.0)) <= 1e-6
        assert np.all(np.isinf(exc.value.abs_error_estimate))

    def test_a_member_past_its_tolerance_is_named(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_INTERVALS", 8)

        @_asked
        def f(x):
            return np.stack([np.cos(x), 1.0 / np.sqrt(x)], axis=-1)

        with pytest.raises(ToleranceNotMet, match=r"member 1 of 2: error estimate") as exc:
            adaptive_1d(f, 0.0, 1.0, tol=1e-15)
        assert exc.value.abs_error_estimate[1] > 1e-15


    @pytest.mark.parametrize("shape", [(15, 3), (2, 3)], ids=["15x3", "2x3"])
    def test_a_member_array_of_any_shape_equals_separate_integrals(self, shape):
        # the panel sums contract the node axis: with members of shape
        # (15, 3) a matrix product on the last axes returned 21.9998 where
        # sin(1) c = 0.8415 was due, and other shapes raised ValueError
        tol = 1e-12
        c = np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape) / math.prod(shape)
        res = adaptive_1d(_asked(lambda x: np.cos(x)[:, None, None] * c), 0.0, 1.0, tol=tol)
        assert res.value.shape == res.abs_error_estimate.shape == shape
        for k in np.ndindex(shape):
            alone = adaptive_1d(lambda x, _: np.cos(x) * c[k], 0.0, 1.0, tol=tol)
            assert abs(res.value[k] - alone.value) <= tol
            assert abs(res.value[k] - math.sin(1.0) * c[k]) <= tol

    def test_a_member_of_a_member_array_is_named(self):
        c = 1.0 / math.pi

        @_asked
        def f(x):
            out = np.stack([np.cos(x)] * 6, axis=-1).reshape(x.size, 2, 3)
            out[:, 1, 2] = _spike(x, c)
            return out

        with pytest.raises(ToleranceNotMet, match=r"member \(1, 2\) of \(2, 3\): cannot split"):
            adaptive_1d(f, 0.0, 1.0, tol=1e-6)

    def test_a_family_of_one_is_not_labelled(self, monkeypatch):
        # one member is one integral: its refusal reads as the scalar rule's
        monkeypatch.setattr(quadrature, "_MAX_INTERVALS", 8)

        def f(x, _):
            return 1.0 / np.sqrt(x)

        messages = []
        for g in (f, lambda x, members: f(x, members)[:, None]):
            with pytest.raises(ToleranceNotMet) as exc:
                adaptive_1d(g, 0.0, 1.0, tol=1e-15)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("adaptive_1d: error estimate")


class TestEnergySimplex:
    def test_two_parts_flat(self):
        w = 3.0
        res = integrate_simplex(2, w, lambda e1, e2, members: e1 * e2, tol=1e-11)
        exact = w / (2.0 * (2.0 * math.pi) ** 2)
        assert res.value.real == pytest.approx(exact, rel=1e-9)

    def test_two_parts_beta_moment(self):
        # E1^(3/2) E2^(3/2) over the simplex gives w^2 B(3/2, 3/2) = w^2 pi/8
        w = 1.7
        res = integrate_simplex(2, w, lambda e1, e2, members: e1**1.5 * e2**1.5, tol=1e-11)
        exact = w * w * (math.pi / 8.0) / (2.0 * (2.0 * math.pi) ** 2)
        assert res.value.real == pytest.approx(exact, rel=1e-8)

    def test_three_parts_flat(self):
        w = 2.0
        res = integrate_simplex(3, w, lambda e1, e2, e3, members: e1 * e2 * e3, tol=1e-9)
        exact = (w * w / 2.0) / (6.0 * (2.0 * math.pi) ** 3)
        assert res.value.real == pytest.approx(exact, rel=1e-7)

    def test_parts_sum_to_total(self):
        seen = []

        def f(e1, e2, members):
            seen.append(e1 + e2)
            return e1 * e2

        integrate_simplex(2, 5.0, f, tol=1e-6)
        assert seen and all(np.all(np.abs(s - 5.0) < 1e-12) for s in seen)

    @pytest.mark.parametrize("n_parts", [2, 3])
    def test_evaluations_count_integrand_calls(self, n_parts):
        calls = []

        def f(*energies, members):
            calls.append(energies)
            return math.prod(energies)

        res = integrate_simplex(n_parts, 1.5, f, tol=1e-9)
        # a call evaluates 15 nodes, or 30 for both halves of a split, of
        # each member it is asked for (of an inner family's at n = 3)
        assert res.evaluations == sum(np.broadcast(*energies).size for energies in calls) > 0

    def test_three_parts_error_covers_inner_estimates(self, monkeypatch):
        # each inner pair is held to tol/(2 max(1, total)), each of its
        # corner halves to half of that
        total = 2.0
        inner_tol = 1e-7 / (4.0 * total)
        inner_estimates = []
        real = quadrature.adaptive_1d

        def recorded(f, a, b, tol):
            res = real(f, a, b, tol)
            if tol == inner_tol:
                inner_estimates.append(res.abs_error_estimate)
            return res

        monkeypatch.setattr(quadrature, "adaptive_1d", recorded)
        res = integrate_simplex(
            3,
            total,
            lambda e1, e2, e3, members: e1 * e2 * e3 * np.sqrt(np.abs(e1 - 0.5)),
            tol=1e-7,
        )
        norm = 1.0 / ((2.0 * math.pi) ** 3 * 6.0)
        assert inner_estimates
        # each inner pair (two corner halves, one member of each inner
        # family) is a slice of the outer measure
        pairs = [np.max(a + b) for a, b in zip(inner_estimates[::2], inner_estimates[1::2])]
        assert res.abs_error_estimate >= max(pairs) * total * norm

    @pytest.mark.parametrize("n_parts", [2, 3])
    def test_symmetric_pair_integrates_one_half(self, monkeypatch, n_parts):
        # exactly symmetric under e1 <-> e2, so both corner halves of the
        # pair segment subdivide alike
        def f(e1, e2, e3=1.0, *, members):
            return (e1 * e2) ** 1.5 * e3 * np.cos(3.0 * (e1 + e2) + e1 * e2 + e3)

        estimates = []
        real = quadrature.adaptive_1d

        def recorded(g, a, b, tol):
            res = real(g, a, b, tol)
            estimates.append(res.abs_error_estimate)
            return res

        both = integrate_simplex(n_parts, 1.7, f, tol=1e-9)
        monkeypatch.setattr(quadrature, "adaptive_1d", recorded)
        half = integrate_simplex(n_parts, 1.7, f, tol=1e-9, symmetric=True)
        assert half.value == pytest.approx(both.value, rel=1e-14)
        assert 2 * half.evaluations == both.evaluations
        assert half.abs_error_estimate == pytest.approx(
            both.abs_error_estimate, rel=1e-12
        )
        if n_parts == 2:
            # one corner half, its estimate doubled
            norm = 1.0 / (2.0 * (2.0 * math.pi) ** 2)
            (estimate,) = estimates
            assert half.abs_error_estimate == 2.0 * estimate * norm

    def test_invalid_arguments(self):
        for n_parts in (1, 4):
            with pytest.raises(DomainError):
                integrate_simplex(n_parts, 1.0, lambda *energies, members: 1.0)
        with pytest.raises(DomainError):
            integrate_simplex(2, 0.0, lambda e1, e2, members: 1.0)
        with pytest.raises(DomainError, match="total must be positive"):
            integrate_simplex(2, np.array([1.0, 0.0]), lambda e1, e2, members: 1.0)
        with pytest.raises(DomainError, match="needs n_parts = 2"):
            integrate_simplex(3, np.array([1.0, 2.0]), lambda *energies, members: 1.0)

    def test_an_array_of_totals_is_one_family(self):
        # the beta moment of test_two_parts_beta_moment at three totals:
        # one shared bisection, member k's energies in column k, each
        # member within tol of its own integral and of the closed form
        totals = np.array([0.3, 1.7, 4.0])
        shapes = []

        def f(e1, e2, members):
            shapes.append(e1.shape)
            assert np.allclose(e1 + e2, totals[members])
            return (e1 * e2) ** 1.5

        tol = 1e-11
        res = integrate_simplex(2, totals, f, tol=tol)
        assert res.value.shape == res.abs_error_estimate.shape == (3,)
        # each corner half starts on all three members, and a split
        # evaluates the members not yet frozen, in their columns
        assert shapes[0] == (15, 3)
        assert {shape[0] for shape in shapes} == {15, 30}
        assert {shape[1] for shape in shapes} > {3}
        norm = 1.0 / (2.0 * (2.0 * math.pi) ** 2)
        for k, w in enumerate(totals):
            alone = integrate_simplex(2, w, lambda e1, e2, members: (e1 * e2) ** 1.5, tol=tol)
            assert abs(res.value[k] - alone.value) <= 2.0 * tol * norm
            assert abs(res.value[k] - w * w * (math.pi / 8.0) * norm) <= tol * norm

    def test_a_node_that_rounds_onto_a_corner_counts_zero(self):
        # at a width of 1e-320 the corner map's smallest nodes underflow to
        # e = 0: point is called at the segment's midpoint in their place,
        # so that it still receives the (15, m) shape, and never at 0
        shapes, midpoints = [], []

        def point(e1, e2, members):
            shapes.append(e1.shape)
            midpoints.append(np.any(e1[:, 0] == e2[:, 0]))
            assert np.all(e1 > 0.0) and np.all(e2 > 0.0)
            return np.ones(e1.shape, dtype=complex)

        res = quadrature.integrate_segment(point, np.array([1e-320, 1.0]), 1e-12)
        assert set(shapes) == {(15, 2)}
        assert any(midpoints)
        assert abs(res.value[1] - 1.0) <= 1e-12
        assert 0.0 < res.value[0].real <= 1e-320

    @pytest.mark.parametrize("symmetric", [False, True], ids=["both-halves", "mirror"])
    def test_segment_estimate_bounds_what_it_returns(self, symmetric):
        # log(e1) log(e2) over e1 + e2 = 1 is 2 - pi^2/6: tol bounds the
        # returned integral, not each corner half (their sum read 1.42e-12
        # at tol 1e-12 when each half was held to tol)
        tol = 1e-12
        res = quadrature.integrate_segment(
            lambda e1, e2, members: np.log(e1) * np.log(e2), 1.0, tol, symmetric
        )
        assert res.abs_error_estimate <= tol
        assert abs(res.value - (2.0 - math.pi**2 / 6.0)) <= tol

    def test_three_part_inner_width_is_the_outer_remainder(self, monkeypatch):
        # each inner segment E1 + E2 = rem takes as rem, bit for bit, the
        # second energy that the outer rule formed at its E3 node: on the
        # right corner half rem = w - E3 would be w - fl(w - near), not near
        real = quadrature.integrate_segment
        outer_seconds, inner_widths = [], []
        inside = [False]

        def spy(point, width, *args):
            if inside[0]:
                inner_widths.append(width)
                return real(point, width, *args)

            def outer_point(e3, rem, members):
                outer_seconds.append(rem)
                inside[0] = True
                try:
                    return point(e3, rem, members)
                finally:
                    inside[0] = False

            return real(outer_point, width, *args)

        monkeypatch.setattr(quadrature, "integrate_segment", spy)
        integrate_simplex(3, 1.0, lambda e1, e2, e3, members: e1 * e2 * e3, tol=1e-9)
        assert len(inner_widths) == len(outer_seconds) > 0
        for width, rem in zip(inner_widths, outer_seconds):
            assert np.array_equal(width, rem)


def _exponential(x, rate):
    return np.exp(-rate * x)


def _gamma_kernel(x, rate):
    return x * x * np.exp(-rate * x)


class TestSemiInfinite:
    # kappa = 0 and power 0: the kernel alone, on panels sized by a pole at
    # distance 1
    def test_pure_exponential(self):
        res = integrate_semi_infinite(_exponential, (1.0,), 0.0, 0, 1.0, 1.0, tol=1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-13)
        assert res.abs_error_estimate <= 1e-12

    def test_gamma_integral(self):
        res = integrate_semi_infinite(_gamma_kernel, (2.0,), 0.0, 0, 2.0, 1.0, tol=1e-12)
        assert res.value == pytest.approx(0.25, abs=1e-13)

    def test_invalid_decay_rate(self):
        with pytest.raises(DomainError, match="diverges"):
            integrate_semi_infinite(_exponential, (1.0,), 0.0, 0, 0.0, 1.0, tol=1e-12)

    @pytest.mark.parametrize(
        "error, decay, tol, reason",
        [
            (DomainError, 0.0, 1e-12, "diverges"),
            (ToleranceNotMet, 1e-4, 1e-12, "more than 4096"),
            (ToleranceNotMet, 1.0, 1e-30, "exceeds tol"),
        ],
        ids=["diverges", "panel-cap", "tolerance"],
    )
    def test_refusal_names_the_kernel(self, error, decay, tol, reason):
        with pytest.raises(error, match=r"^_exponential at kappa = 0\.5: .*" + reason):
            integrate_semi_infinite(_exponential, (1.0,), 0.5, 1, decay, 1.0, tol=tol)


def _family_cases():
    """(kernel, args, kappa, power, decay, pole, tol): a family of kappa on
    one line per case, as the e^{I}, R_s phase and F tables and lookups
    integrate them (bsG z = 1/3 and 0.2)."""
    cases = []
    for z in (1.0 / 3.0, 0.2):
        xi = make_model("bsg", z).xi
        half = 0.5 * (math.pi - xi)
        for lam_i in (0.0, -math.pi, half, -math.pi - half):
            lam = np.linspace(0.0, 8.0, 41) + 1j * lam_i
            decay = formfactors._exp_i_decay(lam_i, xi, 2)
            pole = min(1.0, 2.0 * math.pi / xi)
            kappa = (lam + 1j * math.pi) / 2.0
            args = (formfactors._exp_i_kernel, (xi, 2), kappa, 2, decay, pole, 1e-12)
            cases.append(pytest.param(*args, id=f"expI-z{z:.3g}-im{lam_i:.3g}"))
        for lam_i in (0.0, 0.4, -0.7):
            lam = np.linspace(0.0, 30.0, 41) + 1j * lam_i
            decay, pole = reflection._rs_phase_decay(lam_i, xi), reflection._rs_phase_pole(xi)
            args = (reflection._rs_phase_kernel, (xi,), 2.0 * lam, 1, decay, pole, 1e-11)
            cases.append(pytest.param(*args, id=f"rs-z{z:.3g}-im{lam_i:.3g}"))
        for lam_i in (0.0, math.pi, -math.pi, 0.5 * xi, -0.5 * xi):
            w = np.linspace(-6.0, 6.0, 23) + 1j * (lam_i + math.pi)
            decay = 2.0 * math.pi - 2.0 * xi + 40.0 * math.pi - 2.0 * abs(w[0].imag)
            args = (formfactors._bigf_tail_kernel, (xi, 10), w, 2, decay, 0.5, 1e-12)
            cases.append(pytest.param(*args, id=f"F-z{z:.3g}-im{lam_i:.3g}"))
    return cases


class TestSemiInfiniteFamily:
    # an array of kappa on one line is one integral call: the members share
    # the panels of the largest |Re kappa|, each held to tol
    @pytest.mark.parametrize("kernel, args, kappa, power, decay, pole, tol", _family_cases())
    def test_members_equal_their_own_calls(self, kernel, args, kappa, power, decay, pole, tol):
        family = integrate_semi_infinite(kernel, args, kappa, power, decay, pole, tol)
        assert family.value.shape == kappa.shape
        assert np.all(family.abs_error_estimate <= tol)
        alone = [integrate_semi_infinite(kernel, args, k, power, decay, pole, tol) for k in kappa]
        assert np.max(np.abs(family.value - [r.value for r in alone])) <= 1e-14
        # the family's panels are those of its largest |Re kappa|
        assert family.evaluations == max(r.evaluations for r in alone)
        # a family keeps its members' shape
        rule = (power, decay, pole, tol)
        flat = integrate_semi_infinite(kernel, args, kappa[:20], *rule)
        grid = integrate_semi_infinite(kernel, args, kappa[:20].reshape(4, 5), *rule)
        assert np.array_equal(grid.value, flat.value.reshape(4, 5))

    @pytest.mark.parametrize("lam_i", [-math.pi, 0.0, -2.0])
    def test_power_two_matches_the_direct_sine_sum(self, lam_i):
        # panel 0, where the e^{I} kernel grows as 1/x^2, is summed
        # directly: (1 - cos(2 kappa x))/2 there loses ~1e-13 to
        # cancellation at small kappa; the other panels' angle addition
        # meets the direct complex sines to rounding
        xi = make_model("bsg", 1.0 / 3.0).xi
        kernel, args = formfactors._exp_i_kernel, (xi, 2)
        w = (np.linspace(0.0, 2.0, 41) + 1j * (lam_i + math.pi)) / 2.0
        decay, pole = formfactors._exp_i_decay(lam_i, xi, 2), min(1.0, 2.0 * math.pi / xi)
        family = integrate_semi_infinite(kernel, args, w, 2, decay, pole, 1e-12)
        rate, growth = 2.0 * np.max(np.abs(w.real)), 4.0 * abs(w[0].imag)
        width, n, size = panel_layout(decay, pole, rate, growth)
        nodes, table, weights = quadrature._tabulated(kernel, args, width, size)
        direct = [((table[:n] * np.sin(k * nodes[:n]) ** 2) @ weights[:, 0]).sum() for k in w]
        assert np.max(np.abs(family.value - direct)) <= 1e-15

    def test_refusal_names_the_worst_member(self, monkeypatch):
        # panels of width 4 under sin^2(kappa x): every member misses 1e-12,
        # the fastest oscillation most
        monkeypatch.setattr(quadrature, "_PHASE_PER_PANEL", 100.0)
        pole = 4.0 / quadrature._POLE_FRACTION
        kappa = np.array([3.0, 10.0, 1.0])
        with pytest.raises(ToleranceNotMet, match="panel rule") as exc:
            integrate_semi_infinite(_exponential, (1.0,), kappa, 2, 1.0, pole, tol=1e-12)
        err = exc.value.abs_error_estimate
        assert err.shape == (3,) and exc.value.value.shape == (3,)
        worst = int(np.argmax(err))
        assert f"member {worst} of 3, kappa = {kappa[worst] + 0j}: " in str(exc.value)
        assert f"error estimate {err[worst]:.3e} exceeds" in str(exc.value)

    def test_a_family_on_two_lines_is_refused(self):
        with pytest.raises(DomainError, match="spans the lines Im kappa = 0.1 and 0.2"):
            integrate_semi_infinite(
                _exponential, (1.0,), np.array([1.0 + 0.1j, 2.0 + 0.2j]), 2, 1.0, 1.0, tol=1e-12
            )


class TestChebyshevTable:
    # builders take the array of a panel's 41 x and return their values
    def test_interpolates_an_analytic_function(self):
        def f(x):
            return np.cos(x) + 1j * np.sin(3.0 * x)

        table = ChebyshevTable(f, 1.0)
        for x in (0.0, 1e-9, 0.3, 0.999999, 7.3, 20.0):
            assert abs(table(x) - f(x)) <= 1e-13
        assert table.panels == 3  # [0, 1], [7, 8] and [20, 21]
        assert 0.0 <= table.worst_error <= 1e-13
        # one array lookup, in any order, reads the same interpolant
        points = np.array([20.0, 0.3, 7.3, 0.0])
        assert np.array_equal(table(points), [table(x) for x in points])
        # the table holds x >= 0 only: its callers fold Re lambda < 0 by symmetry
        for x in (-1e-9, math.nan, math.inf, 1e300):
            with pytest.raises(DomainError, match="not in"):
                table(np.array([0.5, x]))
        assert table.panels == 3
        # the panels it stores are one dense array, of at most 65,536 panels
        decaying = ChebyshevTable(lambda x: np.exp(-x) + 0j, 1.0)
        with pytest.raises(DomainError, match="past the table's 65536 panels"):
            decaying(65536.5)
        assert decaying.panels == 0

    def test_one_lookup_builds_one_panel(self):
        calls = []

        def builder(x):
            calls.append(x)
            return np.exp(x)

        table = ChebyshevTable(builder, 0.5)
        table(1.3)
        # one call on the 21 Chebyshev points plus the 20 interior midpoints
        # of the check, all inside the panel [1, 1.5]
        assert table.panels == 1
        assert len(calls) == 1 and calls[0].shape == (41,)
        assert 1.0 < calls[0].min() and calls[0].max() < 1.5
        table(1.1)
        assert table.panels == 1 and len(calls) == 1
        table(1.6)
        assert table.panels == 2 and len(calls) == 2

    @pytest.mark.parametrize(
        "builder",
        [
            lambda x: np.where(x < 0.5, 0.0, 1.0),
            # NaN only at the last check point, 0.5 + 0.5 cos(20 pi/21)
            lambda x: np.where((0.004 < x) & (x < 0.008), math.nan, x),
        ],
        ids=["step", "nan-at-the-last-check"],
    )
    def test_discontinuous_builder_is_refused(self, builder):
        table = ChebyshevTable(builder, 1.0)
        with pytest.raises(ToleranceNotMet, match="Chebyshev table") as exc:
            table(0.2)
        assert not exc.value.abs_error_estimate <= 1e-12
        # the failed panel is not kept, and the worst error counts kept ones
        assert table.panels == 0 and table.worst_error == 0.0


class TestPanelRule:
    # the rule behind integrate_semi_infinite: the equal GK15 panels of
    # panel_layout, on which _tabulated caches the kernel
    @pytest.mark.parametrize("w", [0.3, 2.0, 17.0])
    def test_damped_oscillation_closed_form(self, w):
        # int_0^inf e^{-x} sin^2(w x) dx = 2 w^2 / (1 + 4 w^2)
        width, n, size = panel_layout(1.0, 1.0, 2.0 * w)
        res = integrate_semi_infinite(_exponential, (1.0,), w, 2, 1.0, 1.0, tol=1e-12)
        exact = 2.0 * w * w / (1.0 + 4.0 * w * w)
        assert res.value == pytest.approx(exact, abs=1e-13)
        assert res.evaluations == 15 * n

    def test_error_estimate_is_reported(self, monkeypatch):
        # at 8 radians per panel, panels of width 1 resolve sin^2(3x) only
        # roughly: the G7 estimate is far above roundoff and bounds the K15
        # error
        monkeypatch.setattr(quadrature, "_PHASE_PER_PANEL", 8.0)
        pole = 1.0 / quadrature._POLE_FRACTION
        width, n, size = panel_layout(1.0, pole, 6.0)
        assert width == pytest.approx(1.0) and n == 37
        res = integrate_semi_infinite(_exponential, (1.0,), 3.0, 2, 1.0, pole, tol=1e-3)
        assert 1e-9 < res.abs_error_estimate <= 1e-3
        assert abs(res.value - 18.0 / 37.0) <= res.abs_error_estimate

    def test_coarse_panels_raise_with_best_value(self, monkeypatch):
        # panels of width 4 under sin^2(10 x): the estimate misses 1e-12
        monkeypatch.setattr(quadrature, "_PHASE_PER_PANEL", 100.0)
        pole = 4.0 / quadrature._POLE_FRACTION
        assert panel_layout(1.0, pole, 20.0)[0] == pytest.approx(4.0)
        with pytest.raises(ToleranceNotMet, match="panel rule") as exc:
            integrate_semi_infinite(_exponential, (1.0,), 10.0, 2, 1.0, pole, tol=1e-12)
        assert exc.value.value is not None
        assert abs(exc.value.value - 200.0 / 401.0) < 0.5
        assert exc.value.abs_error_estimate > 1e-12

    def test_rule_covers_its_interval(self):
        nodes, table, weights = quadrature._tabulated(_exponential, (1.0,), 0.25, 4)
        assert nodes.shape == (4, 15)
        assert 0.0 < nodes.min() and nodes.max() < 1.0
        assert np.all(np.diff(nodes.ravel()) > 0.0)
        assert np.array_equal(table, np.exp(-nodes))
        # both rules integrate a constant exactly over one panel
        kronrod, kronrod_minus_gauss = weights.T
        assert kronrod.sum() == pytest.approx(0.25, rel=1e-14)
        assert (kronrod - kronrod_minus_gauss).sum() == pytest.approx(0.25, rel=1e-14)
        assert quadrature._tabulated(_exponential, (1.0,), 0.25, 4)[0] is nodes  # cached

    def test_kernel_is_tabulated_once_per_layout(self):
        calls = []

        def kernel(x, rate):
            calls.append(x.shape)
            return np.exp(-rate * x)

        for w in (0.5, 0.7, 0.9):
            # one layout: the panel width 0.35 is set by the pole alone
            res = integrate_semi_infinite(kernel, (3.0,), w, 2, 3.0, 1.0, tol=1e-12)
            exact = 2.0 * w * w / (3.0 * (9.0 + 4.0 * w * w))
            assert res.value == pytest.approx(exact, abs=1e-13)
        assert len(calls) == 1

    def test_layout(self):
        for decay, pole, rate in ((1.0, 1.0, 0.0), (60.0, 1.0, 3.0), (4.7, 0.5, 64.0)):
            width, n, size = panel_layout(decay, pole, rate)
            assert n * width >= -math.log(1e-16) / decay > (n - 1) * width
            assert size >= n and size & (size - 1) == 0 and size < 2 * n + 1
            assert width <= 0.5 * pole
            assert width * math.hypot(rate, decay) <= 2.0
        with pytest.raises(DomainError, match="diverges: decay rate 0.0"):
            panel_layout(0.0, 1.0, 1.0)

    def test_layout_refuses_more_than_the_panel_cap(self):
        # a decay rate near 0 would need millions of panels: refused before
        # any table is built
        width, n, size = panel_layout(0.03, 1.0, 0.0)
        assert n <= quadrature._MAX_PANELS
        with pytest.raises(ToleranceNotMet, match="decay rate"):
            panel_layout(1e-4, 1.0, 0.0)
        with pytest.raises(ToleranceNotMet):
            panel_layout(1e-300, 1.0, 0.0)
