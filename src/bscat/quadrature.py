"""Shared numerical integration engines.

Deterministic adaptive Gauss-Kronrod (G7/K15) quadrature for complex-valued
integrands, an energy-simplex integrator implementing the delta-constrained
measure prod dE_i/E_i / (2pi)^n / n!, the one semi-infinite integrator
(equal GK15 panels on [0, x_max], on which the kernel is tabulated once and
cached, then multiplied by sin(kappa x)**power on every call, for one kappa
or a family of them on one line Im kappa = const), and a lazily built
piecewise-Chebyshev table of a smooth function of x >= 0.
All engines are pure functions of their inputs: identical calls produce
bit-identical results (fixed subdivision order, heap keyed with
deterministic tie-breaks).

Integrands take arrays.  `adaptive_1d` calls its integrand on a 1-D array
of nodes, 15 per GK15 panel: the first panel's 15, then, at each split,
both halves' 30 in one call.  The integrand returns their values, or an
(n, m) array for a family of m integrals that share the nodes: the family
is integrated on one shared bisection until every member meets the
tolerance (vector-valued adaptive quadrature, as in QUADPACK, Piessens et
al. 1983, and scipy.integrate.quad_vec).  A member whose estimate is at
most half the tolerance freezes, and later splits evaluate only the
members still refined, whose indices the integrand receives: a member
costs about its own nodes (a 39-row G1_1 family at bsG z = 1/2 makes
1,035 member evaluations against 1,005 for 39 separate integrals, and
1,755 when every member was evaluated on the nodes of the one that needs
most), and a member evaluation is an array element, not a Python call.
A family's members may form an array of any shape; the panel sums
contract the node axis.
`integrate_segment` is the one rule for a segment e1 + e2 = width with
sqrt ends (each half mapped from its corner, e = width u^2), for one width
or a family of them; the simplex and the spectrum diagrams both integrate
on it.  `integrate_simplex` hands its integrand arrays of energies, the
inner pairs of a 3-part simplex as one family per outer call (15 or 30
members), and integrates a 2-part simplex at an array of totals as one
family (a grid of r(omega));
`integrate_semi_infinite` integrates an array of kappa on one line as one
family, its panel sums matrix products; `ChebyshevTable` looks up arrays
of points in one vectorised pass (missing panels built, rows gathered by
one index, the series summed at once), and `lookup_by_line` reads a
function evaluated per line Im lambda = const at an array of complex
lambda.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import DomainError, ToleranceNotMet, offending

TWO_PI = 2.0 * math.pi

# Kronrod-15 nodes on [-1, 1] (positive half) and weights; embedded Gauss-7 weights.
_XK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# one panel on [-1, 1]: nodes in ascending order, K15 weights and the G7
# weights (zero on the Kronrod-only nodes)
_T15 = np.array([-t for t in _XK[:7]] + [0.0] + list(_XK[6::-1]))
_WK15 = np.array(_WK[:7] + _WK[7:] + _WK[6::-1])
_WG15 = np.zeros(15)
_WG15[[1, 3, 5]] = _WG[:3]
_WG15[7] = _WG[3]
_WG15[[9, 11, 13]] = _WG[2::-1]
# adaptive_1d stops splitting at this many intervals
_MAX_INTERVALS = 4000
# adaptive_1d splits no interval narrower than this fraction of its largest
# |endpoint| (QUADPACK's roundoff test): the halves' GK15 nodes would lie
# within 100 ulp of each other
_ROUNDOFF_WIDTH = 200.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadResult:
    """An integral's value, its absolute error estimate and the number of
    integrand evaluations it took: the engine's sums as they come, scalars
    for one integral.  For a family of m integrals value and estimate are
    (m,) arrays; `adaptive_1d` and the rules built on it count one
    evaluation per member and node, `integrate_semi_infinite`, whose
    members share one tabulated kernel, one per node."""

    value: complex
    abs_error_estimate: float
    evaluations: int


def _panel(a: float, b: float):
    """The half-width of [a, b] and its 15 GK15 nodes in ascending order."""
    h = 0.5 * (b - a)
    return h, 0.5 * (a + b) + h * _T15


def _gk15(columns, h: float):
    """One Gauss-Kronrod 7-15 panel of half-width h from its integrand
    values at the 15 nodes of `_panel`, a (15, k) array with one column
    per member.  Returns (K15, |K15 - G7|), each a (k,) array."""
    resk = h * (_WK15 @ columns)
    resg = h * (_WG15 @ columns)
    return resk, np.abs(resk - resg)


def _merged(kept: np.ndarray, members, refined: np.ndarray) -> np.ndarray:
    """A copy of the member array `kept` with its `members` set to
    `refined`, in the dtype that holds both."""
    out = kept.astype(np.result_type(kept, refined))
    out[members] = refined
    return out


def adaptive_1d(
    integrand: Callable[[np.ndarray, object], np.ndarray],
    a: float,
    b: float,
    tol: float,
) -> QuadResult:
    """Adaptive G7/K15 bisection of one integral, or of a family of m
    integrals on one shared bisection, each to the absolute tolerance `tol`
    (vector-valued adaptive quadrature, as in QUADPACK, Piessens et al.
    1983, and scipy.integrate.quad_vec, minus the evaluations that no
    member needs).

    integrand(x, members) takes a 1-D array of nodes, 15 per GK15 panel
    (15 on the first call and 30 on each split, the two halves' nodes in
    one call, the left half's 15 first), and the members it is asked for:
    `...` while every member is refined, always so for one integral, and
    otherwise the ascending int array of the (flat) indices of the members
    still refined.  It returns their values: (n,) for one integral, (n, m)
    for a family of m, or (n, a, b) for a family whose members form an
    (a, b) array, refined over its flattened members; (n, k) for an array
    of k members.  Each panel's K15 and G7 sums are taken from its own 15
    rows (`_gk15`), so a panel's sums do not depend on which call
    evaluated it.

    A member freezes once its summed estimate is at most tol/2: a split
    then evaluates only the members still refined, and a frozen member
    keeps the panel it had, its value and estimate passing to the left
    half and 0 to the right one.  The rule stops once every member's
    summed estimate meets `tol`, and splits next the interval with the
    largest sum of its refined members' estimates, ties broken by left
    endpoint (an interval whose key a freeze lowered is re-keyed when it is
    popped); the final sum is accumulated in interval order, so identical
    calls are bit-identical.  A member thus costs about its own nodes, and
    a split one integrand call for all the members it refines.  The margin
    of tol/2 keeps a frozen member's estimate a bound where its own rule,
    stopped at tol, would miss it (a 39-row spectrum family at bsG
    z = 1/4).  `evaluations` counts nodes times members evaluated there.

    An interval too narrow to split (QUADPACK's roundoff test: about 200 ulp
    of its endpoints wide) holds a singularity the rule cannot resolve: the
    call raises ToleranceNotMet at once, naming the interval and the worst
    member, with the sum of all intervals as its value and an infinite error
    estimate.  A family's value and estimate are arrays of its members'
    shape, one integral's are scalars.
    """
    if not (a < b):
        raise DomainError(f"need a < b, got [{a}, {b}]")
    h, nodes = _panel(a, b)
    first = np.asarray(integrand(nodes, ...))
    shape = first.shape[1:]
    val, err = _gk15(first.reshape(15, -1), h)
    members, refined = ..., val.size
    # heap entries: (-key, a, b, value, err), value and err over all
    # members; tuple comparison falls through to `a` for ties, which is
    # deterministic.
    heap = [(-float(np.sum(err)), a, b, val, err)]
    total_err = err.copy()
    nevals = 15 * refined
    while np.any(total_err > tol) and len(heap) < _MAX_INTERVALS:
        # a NaN estimate never freezes
        frozen = total_err <= 0.5 * tol
        if frozen.any():
            members = np.flatnonzero(~frozen)
            refined = members.size
        key, ia, ib, ival, ierr = heapq.heappop(heap)
        live = -float(np.sum(ierr[members]))
        if live > key:
            # a member of this interval froze since it was pushed
            heapq.heappush(heap, (live, ia, ib, ival, ierr))
            continue
        mid = 0.5 * (ia + ib)
        if mid <= ia or mid >= ib or ib - ia <= _ROUNDOFF_WIDTH * max(abs(ia), abs(ib)):
            intervals = sorted(heap + [(0.0, ia, ib, ival, ierr)], key=lambda t: t[1])
            member, _ = _worst_member(total_err.reshape(shape))
            raise ToleranceNotMet(
                f"adaptive_1d: {member}cannot split [{ia!r}, {ib!r}] to meet tol {tol:.3e}",
                value=sum(t[3] for t in intervals).reshape(shape)[()],
                abs_error_estimate=np.full(shape, math.inf)[()],
            )
        h1, left = _panel(ia, mid)
        h2, right = _panel(mid, ib)
        values = np.asarray(integrand(np.concatenate([left, right]), members))
        values = values.reshape(30, -1)
        v1, e1 = _gk15(values[:15], h1)
        v2, e2 = _gk15(values[15:], h2)
        nevals += 30 * refined
        total_err[members] = total_err[members] - ierr[members] + e1 + e2
        if members is not ...:
            v1, e1 = _merged(ival, members, v1), _merged(ierr, members, e1)
            v2 = _merged(np.zeros_like(ival), members, v2)
            e2 = _merged(np.zeros_like(ierr), members, e2)
        heapq.heappush(heap, (-float(np.sum(e1[members])), ia, mid, v1, e1))
        heapq.heappush(heap, (-float(np.sum(e2[members])), mid, ib, v2, e2))
    # deterministic accumulation: sort by left endpoint
    intervals = sorted(heap, key=lambda t: t[1])
    value = 0.0 + 0.0j
    total_err = 0.0
    for _, _, _, ival, ierr in intervals:
        value = value + ival
        total_err = total_err + ierr
    value, total_err = value.reshape(shape)[()], total_err.reshape(shape)[()]
    # slack for a few ulp of re-summation; a NaN estimate fails too
    if not np.all(total_err <= tol * (1.0 + 1e-6)):
        member, worst_err = _worst_member(total_err)
        raise ToleranceNotMet(
            f"adaptive_1d: {member}error estimate {worst_err:.3e} exceeds tol {tol:.3e}",
            value=value,
            abs_error_estimate=total_err,
        )
    return QuadResult(value=value, abs_error_estimate=total_err, evaluations=nevals)


def _worst_member(err) -> Tuple[str, float]:
    """The member with the largest estimate (the first of them, a NaN
    estimate first of all): its label and its estimate.  The label is
    'member k of m: ' for a family of m, 'member (i, j) of (a, b): ' for
    a family whose members form an (a, b) array, and '' for one integral
    or a family of one."""
    err = np.asarray(err, dtype=float)
    if err.size == 1:
        return "", float(err.flat[0])
    k = np.unravel_index(int(np.argmax(np.where(np.isnan(err), math.inf, err))), err.shape)
    label, size = (k[0], err.size) if err.ndim == 1 else (tuple(map(int, k)), err.shape)
    return f"member {label} of {size}: ", float(err[k])


def evaluate_masked(mask: np.ndarray, fn: Callable[..., np.ndarray], *arrays) -> np.ndarray:
    """fn(*arrays) where `mask` holds and 0 elsewhere, fn called only on the
    masked elements (every array of mask's shape): an integrand's points
    outside its domain, such as a mapped node that rounds onto an end of
    its interval (the sum rule's omega' = omega u^2), are never evaluated."""
    if mask.all():
        return fn(*arrays)
    out = np.zeros(mask.shape, dtype=complex)
    if mask.any():
        out[mask] = fn(*(x[mask] for x in arrays))
    return out


_U_HALF = 1.0 / math.sqrt(2.0)  # u at the midpoint of a corner map E = w u^2


def integrate_segment(
    point: Callable[[np.ndarray, np.ndarray, object], np.ndarray],
    width,
    tol: float,
    symmetric: bool = False,
) -> QuadResult:
    """Integral of point(e1, e2, members) over the segment e1 + e2 = width,
    for one width or, as one family, for each of an (m,) array of widths,
    each held to `tol`: the package's one rule for a segment with sqrt(e)
    ends, serving the simplex of `integrate_simplex` and the internal
    energy of the spectrum diagrams.

    The segment is split at its midpoint and each half is mapped from its
    corner with e = width * u^2, u in (0, 1/sqrt(2)]: a sqrt(e) end becomes
    a smooth u^2.  Each half is integrated to tol/2 (adaptive_1d, a family
    for an array of widths), and the result is the two halves' sum (value,
    error estimate and evaluations).  point receives the two energies as
    arrays of the shape of the nodes (15 or 30 per call) times the widths
    it is asked for, and `members`, adaptive_1d's index of those widths
    (`...` for all of them): member k's values in column k, so that a
    per-member array of shape (m,) that point closes over, indexed by
    `members`, broadcasts against them.  A node where e1 or e2 rounds to 0
    counts 0, point being called at the segment's midpoint in its place.
    With `symmetric`, point(e1, e2, members) must equal point(e2, e1,
    members): only the left corner half is integrated, to tol/2, and it
    stands for the right one as its mirror image, so the value and the
    error estimate are twice the half's and `evaluations` counts its
    evaluations once.
    """
    width = np.asarray(width, dtype=float)
    shape = (-1,) + (1,) * width.ndim

    def half(left: bool) -> QuadResult:
        def g(u, members):
            w = width[members]
            u = u.reshape(shape)
            near = w * u * u
            far = w - near
            inside = (near > 0.0) & (far > 0.0)
            kept = inside.all()
            if not kept:
                mid = np.broadcast_to(0.5 * w, near.shape)
                near, far = np.where(inside, near, mid), np.where(inside, far, mid)
            values = point(near, far, members) if left else point(far, near, members)
            if not kept:
                values = np.where(inside, values, 0.0)
            return values * (2.0 * w * u)

        return adaptive_1d(g, 0.0, _U_HALF, tol / 2.0)

    r1 = half(True)
    if symmetric:
        return QuadResult(2.0 * r1.value, 2.0 * r1.abs_error_estimate, r1.evaluations)
    r2 = half(False)
    return QuadResult(
        r1.value + r2.value,
        r1.abs_error_estimate + r2.abs_error_estimate,
        r1.evaluations + r2.evaluations,
    )


def integrate_simplex(
    n_parts: int,
    total: float | np.ndarray,
    integrand: Callable[..., np.ndarray],
    tol: float = 1e-9,
    symmetric: bool = False,
) -> QuadResult:
    """Integrate over {E_i > 0, sum E_i = total} with measure
    prod(dE_i / E_i) / (2 pi)^n / n!  (one dE eliminated by the delta),
    for n = 2 or 3 parts.  At n = 2, `total` may be an (m,) array: the m
    integrals are one family on one shared bisection (`integrate_segment`),
    each held to `tol`, and the value and estimate are (m,) arrays.

    The integrand receives the energies E_1, ..., E_n as positional
    arguments, arrays that broadcast to one shape, and the keyword
    `members`, the index of the totals they belong to (`...` for all of
    them, always so for one total), and returns the physical integrand
    WITHOUT the 1/E jacobian (applied internally), elementwise.  A call
    covers 15 or 30 nodes (`adaptive_1d`).  At n = 2, E_1 and E_2 are
    (nodes,) arrays, or (nodes, k) arrays for an array of totals, the k
    totals that `members` indexes, one per column, so that a per-total
    factor of shape (m,), indexed by `members`, broadcasts against them.
    At n = 3 the E_3 nodes of one call of the outer rule are the members
    of one inner family: E_1 and E_2 are (nodes, k) arrays and E_3 is the
    (k,) array of the E_3 of the inner members still refined.
    `tol` is absolute and bounds the integral BEFORE the normalisation
    1/((2 pi)^n n!): the returned value and `abs_error_estimate` are after
    it, so the estimate is held to about tol/((2 pi)^n n!) (6.7e-4 tol at
    n = 3).
    Endpoint corners are mapped with the substitution E = total * u^2, which
    renders integrands whose values vanish linearly (or as E^(1/2) per
    soliton leg) smooth at the corners.  At n = 2 the segment rule runs at
    `tol`.  At n = 3 the outer rule over E_3 runs at `tol`, and the inner
    (E_1, E_2) integrals at its k nodes are one family, each member to
    tol/(2 max(1, total)), so that their errors, integrated over the outer
    measure `total`, add at most tol/2; each is on the segment E_1 + E_2 =
    rem, rem the remainder that the outer rule formed at that node (not
    total - E_3 formed again, which cancels where E_3 is close to total).
    `evaluations` counts the points at which the integrand is evaluated,
    inner integrals included, one per node and member (`adaptive_1d`).
    `abs_error_estimate` is the outer integral's estimate; for n = 3 it
    adds the largest inner (E1) estimate times the outer measure `total`,
    which bounds the inner errors' sum.
    `symmetric` declares the integrand symmetric under E_1 <-> E_2 (the
    caller's contract; it is not checked): the (E1, E2) segment, the whole
    integral at n = 2 and the inner one at n = 3, is then integrated on its
    left corner half only, at the same per-half tolerance, and doubled
    (`integrate_segment`), which halves the evaluations and keeps the bound.
    """
    if n_parts not in (2, 3):
        raise DomainError(f"n_parts must be 2 or 3, got {n_parts}")
    if np.any(np.less_equal(total, 0.0)):
        raise DomainError(f"total must be positive, got {total}")
    if n_parts == 3 and np.ndim(total):
        raise DomainError("an array of totals needs n_parts = 2")
    norm = 1.0 / (TWO_PI**n_parts * math.factorial(n_parts))

    if n_parts == 2:

        def pair(e1, e2, members):
            return integrand(e1, e2, members=members) * (1.0 / (e1 * e2))

        res = integrate_segment(pair, total, tol, symmetric)
        evaluations = res.evaluations
        inner_error = 0.0
    else:
        # outer integral over E3, inner over E1 with E2 = rem - E1
        inner_evaluations = [0]
        largest_inner_error = [0.0]

        def inner_family(e3, rem, _):
            def pair(e1, e2, inner):
                e = e3[inner]
                return integrand(e1, e2, e, members=...) * (1.0 / (e1 * e2 * e))

            i = integrate_segment(pair, rem, tol / (2.0 * max(1.0, total)), symmetric)
            inner_evaluations[0] += i.evaluations
            largest_inner_error[0] = max(
                largest_inner_error[0], float(np.max(i.abs_error_estimate))
            )
            return i.value

        res = integrate_segment(inner_family, total, tol)
        evaluations = inner_evaluations[0]
        inner_error = largest_inner_error[0] * total
    return QuadResult(
        value=res.value * norm,
        abs_error_estimate=(res.abs_error_estimate + inner_error) * abs(norm),
        evaluations=evaluations,
    )


# ---------------------------------------------------------------------------
# Semi-infinite integrals on fixed GK15 panels

# the exponential bound of a semi-infinite integrand at its truncation point
_TRUNCATION_TARGET = 1e-16

# panel width: a fraction of the distance from the real axis to the
# kernel's nearest pole, halved until one panel spans at most
# _PHASE_PER_PANEL radians of the integrand's exponential rate, so that the
# embedded G7 rule, and with it the error estimate, resolves each panel.
# Chosen on the kernels' arguments in a z = 1/3 spectrum and on grids at
# z = 0.1 ... 0.75 with |Re lambda| <= 33: the largest estimate there is
# 0.12 of the kernel's tolerance.
_POLE_FRACTION = 0.35
_PHASE_PER_PANEL = 2.0
# at most this many panels (and a table of this many rows) per integral,
# as adaptive_1d stops at _MAX_INTERVALS intervals
_MAX_PANELS = 4096
# largest exponent whose exponential is a finite double (log of 1.8e308)
_MAX_EXPONENT = 709.0


def panel_layout(
    decay_rate: float, pole_distance: float, rate: float, growth: float = 0.0
) -> Tuple[float, int, int]:
    """Panels for a semi-infinite integral kernel(x) * g(x).

    The integrand is bounded by C e^{-decay_rate x}, the kernel has its
    nearest pole `pole_distance` off the real axis and the factor g
    oscillates at most at `rate` (per unit x).  `growth` is the rate by
    which g's fastest-decaying component decays faster than g's bound (for
    g = sin(kappa x)^p, 2 p |Im kappa|): that component, times the kernel,
    decays at decay_rate + growth.  A panel spans at most _PHASE_PER_PANEL
    of hypot(rate, decay_rate + growth), while the truncation point stays on
    decay_rate.  Returns (width, n,
    size): n panels of `width` reach the truncation point where the bound
    reaches _TRUNCATION_TARGET, and `size`, the next power of two >= n, is
    the panel count of the cached table those n panels are read from.
    Raises DomainError when decay_rate <= 0, where the integral diverges,
    and ToleranceNotMet, before anything is allocated, when more than
    _MAX_PANELS panels would be needed (a decay rate near 0, at the edge of
    a kernel's strip).
    """
    if not decay_rate > 0:
        raise DomainError(
            f"semi-infinite integral diverges: decay rate {decay_rate} is not positive"
        )
    x_max = -math.log(_TRUNCATION_TARGET) / decay_rate
    width = _POLE_FRACTION * pole_distance
    while width * math.hypot(rate, decay_rate + growth) > _PHASE_PER_PANEL:
        width *= 0.5
    if x_max > _MAX_PANELS * width:
        raise ToleranceNotMet(
            f"panel rule: decay rate {decay_rate:.3e} needs {x_max / width:.3e} "
            f"panels of width {width:.3e}, more than {_MAX_PANELS}"
        )
    n = max(1, math.ceil(x_max / width))
    return width, n, 1 << (n - 1).bit_length()


@lru_cache(maxsize=256)
def _tabulated(kernel: Callable[..., np.ndarray], args: tuple, width: float, size: int):
    """`size` equal GK15 panels of `width` on [0, size * width]: their nodes
    (one row per panel, no node at x = 0), kernel(nodes, *args), and the
    weights every panel shares, scaled to the width (columns K15 and K15
    minus the embedded G7)."""
    half = 0.5 * width
    centres = half * (2.0 * np.arange(size) + 1.0)
    nodes = centres[:, None] + half * _T15[None, :]
    weights = half * np.stack([_WK15, _WK15 - _WG15], axis=1)
    return nodes, kernel(nodes, *args), weights


# a family is summed in blocks of members whose (members x panels)
# temporaries hold at most this many member-panels, each block reduced
# before the next, so that a large family does not raise peak memory
_BLOCK_MEMBER_PANELS = 1024


def _panel_rule(nodes, table, weights, width: float, b: float, power: int):
    """The K15 and K15 - G7 sums of table * sin(kappa x)**power on each of
    the panels of `nodes` (of `width`), as a function of an (m,) array of
    kappa on the line Im kappa = b, returning an (m, panels, 2) array.

    Panel 0 is summed directly.  On the others sin(kappa x)**power is 1,
    sin(kappa x) = sin(a x) cosh(b x) + i cos(a x) sinh(b x) (a = Re
    kappa), or (1 - cos(2 kappa x))/2, so each sum is one of sin/cos(A x)
    times the kernel times cosh/sinh(B x) (A = power a, B = power b).  The
    kernel times cosh/sinh(B x), weighted, is a set of member-independent
    node vectors; at x = c + h t, sin/cos(A x) follow by angle addition
    from sin/cos(A c), (m, panels), and sin/cos(A h t), (m, 15), so that
    the sums are one matrix product, and a member takes 2 (panels + 15)
    real sines and cosines instead of 15 panels complex ones.  The
    (1 - cos)/2 form loses 1 - cos(2 kappa x) to cancellation where kappa x
    is small, which is why panel 0, where kernels grow as 1/x^2, is summed
    directly."""
    const = table[1:] @ weights
    rate_b = power * b
    if rate_b == 0.0:
        parts = table[None, 1:]
    else:
        rest = nodes[1:]
        parts = np.stack([table[1:] * np.cosh(rate_b * rest), table[1:] * np.sinh(rate_b * rest)])
    # rows (part, weight column, panel), one column per node of a panel
    vectors = (parts[:, None] * weights.T[None, :, None, :]).reshape(-1, 15)
    centres = nodes[1:, 7]  # the middle node, t = 0
    offsets = 0.5 * width * _T15

    def sums(kappa: np.ndarray) -> np.ndarray:
        # numpy's real sine is several times faster than its complex one
        k = kappa.real if b == 0.0 else kappa
        first = (table[0] * np.sin(np.outer(k, nodes[0])) ** power) @ weights
        m = kappa.size
        if power == 0 or not const.size:
            return np.concatenate([first[:, None], np.broadcast_to(const, (m,) + const.shape)], 1)
        rate_a = power * kappa.real
        at_nodes = np.outer(rate_a, offsets)
        local = np.concatenate([np.cos(at_nodes), np.sin(at_nodes)])  # (2m, 15)
        at_centres = np.outer(rate_a, centres)[None, :, :, None]
        cos_c, sin_c = np.cos(at_centres), np.sin(at_centres)
        # (part, weight column, panel, cos/sin of A h t, member), then the
        # sums by cos(A h t) and sin(A h t) as (part, member, panel, column)
        by = (vectors @ local.T).reshape(len(parts), 2, -1, 2, m)
        by_cos, by_sin = by[..., 0, :].transpose(0, 3, 2, 1), by[..., 1, :].transpose(0, 3, 2, 1)
        if power == 1:
            value = sin_c[0] * by_cos[0] + cos_c[0] * by_sin[0] + 0j
            if len(parts) == 2:
                value = value + 1j * (cos_c[0] * by_cos[1] - sin_c[0] * by_sin[1])
        else:
            value = 0.5 * (const - (cos_c[0] * by_cos[0] - sin_c[0] * by_sin[0])) + 0j
            if len(parts) == 2:
                value = value + 0.5j * (sin_c[0] * by_cos[1] + cos_c[0] * by_sin[1])
        return np.concatenate([first[:, None], value], axis=1)

    return sums


def integrate_semi_infinite(
    kernel: Callable[..., np.ndarray],
    args: tuple,
    kappa,
    power: int,
    decay_rate: float,
    pole_distance: float,
    tol: float,
) -> QuadResult:
    """Integral over (0, inf) of kernel(x, *args) * sin(kappa x)**power,
    the integrand bounded by C e^{-decay_rate x}, for one kappa or, as one
    family, for each of an array of kappa on one line Im kappa = const (the
    value and the estimate then have kappa's shape).  power is 0, 1 or 2.

    The family shares the panels of panel_layout(decay_rate, pole_distance,
    power max |Re kappa|, 2 power |Im kappa|); kernel(x, *args) is
    tabulated on them once per (kernel, args, layout) and cached
    (`_tabulated`), so a call evaluates only the sine, on the first n
    panels: on panel 0 directly, on the others by angle addition in matrix
    products (`_panel_rule`), in blocks of members of at most
    _BLOCK_MEMBER_PANELS member-panels.  A number is a family of one.  Each member's value sums its panels' K15 sums, its
    estimate their |K15 - G7|.  The one place that refuses a kernel
    integral: DomainError when decay_rate <= 0 or when the family spans two
    lines, and ToleranceNotMet past _MAX_PANELS panels, when the sine could
    overflow on the panels (a complex kappa next to the edge of the
    kernel's strip, where the product is finite but its factors are not),
    and when a member's estimate exceeds `tol` (with the values and
    estimates, naming the worst member).  Each refusal names the kernel and
    kappa.  It serves five kernel integrals: the e^{I} residual, the R_s
    phase, F's tail and the constants c and F(-i pi).
    """
    kappas = np.asarray(kappa, dtype=complex).reshape(-1)
    a, b = kappas.real, float(kappas[0].imag)
    if np.ndim(kappa) == 0:
        label = f"{kernel.__name__} at kappa = {kappa}"
    else:
        span = f"{float(a.min())!r}..{float(a.max())!r} {b:+}i"
        label = f"{kernel.__name__} at kappa = {span} ({a.size} members)"
    if np.any(kappas.imag != b):
        lines = f"{float(kappas.imag.min())!r} and {float(kappas.imag.max())!r}"
        raise DomainError(f"{kernel.__name__}: a family spans the lines Im kappa = {lines}")
    try:
        width, n, size = panel_layout(
            decay_rate, pole_distance, power * float(np.max(np.abs(a))), 2.0 * power * abs(b)
        )
    except (DomainError, ToleranceNotMet) as exc:
        raise type(exc)(f"{label}: {exc}") from None
    growth = power * abs(b) * n * width
    if growth > _MAX_EXPONENT:
        raise ToleranceNotMet(
            f"{label}: panel rule: sin(kappa x)**{power} "
            f"grows as e^{growth:.0f} on [0, {n * width:.3e}] (decay rate {decay_rate:.3e})"
        )
    nodes, table, weights = _tabulated(kernel, args, width, size)
    rule = _panel_rule(nodes[:n], table[:n], weights, width, b, power)
    value = np.empty(kappas.size, dtype=complex)
    err = np.empty(kappas.size)
    step = max(1, _BLOCK_MEMBER_PANELS // n)
    for start in range(0, kappas.size, step):
        block = slice(start, start + step)
        sums = rule(kappas[block])
        value[block] = sums[..., 0].sum(axis=1)
        err[block] = np.abs(sums[..., 1]).sum(axis=1)
    value, err = value.reshape(np.shape(kappa))[()], err.reshape(np.shape(kappa))[()]
    if not np.all(err <= tol):
        k = int(np.argmax(np.where(np.isnan(err), math.inf, err)))
        member, worst = _worst_member(err)
        if member:
            member = f"{member[:-2]}, kappa = {kappas[k]}: "
        raise ToleranceNotMet(
            f"{label}: {member}panel rule: error estimate "
            f"{worst:.3e} exceeds tol {tol:.3e} ({n} panels of width {width:.3e})",
            value=value,
            abs_error_estimate=err,
        )
    return QuadResult(value=value, abs_error_estimate=err, evaluations=15 * n)


# ---------------------------------------------------------------------------
# Piecewise-Chebyshev tables of smooth functions on the real line


# Chebyshev points per ChebyshevTable panel, and the panel check's tolerance
_TABLE_POINTS = 21
_TABLE_TOL = 1e-12
# the _TABLE_POINTS first-kind Chebyshev points t_j = cos(pi (j + 1/2)/n) on
# [-1, 1], the matrix that maps values there to the coefficients of the
# degree n - 1 interpolant in T_0..T_{n-1}, and the n - 1 interior extrema
# cos(pi j/n) of T_n, midway in angle between adjacent points: the
# interpolation error is proportional to T_n, so it peaks there
_ANGLES = math.pi * (np.arange(_TABLE_POINTS) + 0.5) / _TABLE_POINTS
_CHEB_POINTS = np.cos(_ANGLES)
_TO_COEFFS = (2.0 / _TABLE_POINTS) * np.cos(
    np.outer(np.arange(_TABLE_POINTS), _ANGLES)
)
_TO_COEFFS[0] *= 0.5
_MIDPOINTS = np.cos(math.pi * np.arange(1, _TABLE_POINTS) / _TABLE_POINTS)
# where a panel's builder is called: its points, then its check points
_BUILD_POINTS = np.concatenate([_CHEB_POINTS, _MIDPOINTS])
_DEGREES = np.arange(_TABLE_POINTS, dtype=float)
# a ChebyshevTable stores panels 0 .. _MAX_TABLE_PANELS - 1 (x up to 8192 at
# the narrowest e^{I} width, 1/8) in one dense array indexed by panel number;
# a lookup's panel numbers must be exact integers, below 2^53
_MAX_TABLE_PANELS = 1 << 16
_MAX_PANEL_NUMBER = 2.0**53


def _chebyshev_sum(coeffs: np.ndarray, t) -> np.ndarray:
    """sum_k coeffs[..., k] T_k(t) for t in [-1, 1], complex coeffs of
    shape t.shape + (_TABLE_POINTS,) (the series of each t) or
    (_TABLE_POINTS,) (one series for every t).  T_k(t) = cos(k arccos t)
    for all k in one call, then one batched matrix product per point on
    the real and imaginary parts, so that a point's value does not depend
    on the other points looked up with it."""
    basis = np.cos(np.multiply.outer(np.arccos(t), _DEGREES))
    parts = coeffs.view(np.float64).reshape(coeffs.shape + (2,))
    out = (basis[..., None, :] @ parts)[..., 0, :]
    return out[..., 0] + 1j * out[..., 1]


def lookup_by_line(
    on_line: Callable[..., np.ndarray], cached: Callable[..., complex], lam, *args
):
    """A function of complex lambda that is evaluated per line Im lambda =
    const (a table or a family integral per line): `cached(Re, Im, *args)`
    at a number, and at an array one `on_line(Re array, Im, *args)` per
    distinct Im lambda, on the 1-d array of that line's real parts, whose
    results are scattered back elementwise (an empty array gives an empty
    array, on_line not called)."""
    if np.ndim(lam) == 0:
        # a number keeps its memo: the benchmark's tracer (perfbench/tracer.py)
        # reports the memos' cache_info()
        lam = complex(lam)
        return cached(lam.real, lam.imag, *args)
    lam = np.asarray(lam, dtype=complex)
    out = np.full(lam.shape, complex(math.nan, math.nan))
    for lam_i in np.unique(lam.imag):
        on = lam.imag == lam_i
        out[on] = on_line(lam.real[on], float(lam_i), *args)
    return out


def strip_panel_width(half_width: float) -> float:
    """The panel width of a ChebyshevTable whose function is analytic in the
    strip |Im x| < half_width: the largest power of two at most 1.5
    half_width, a power of two so that x = 0 stays a panel edge.

    The degree-20 interpolant on a panel converges at the rate of the
    largest Bernstein ellipse inside the strip.  Measured on the e^{I} and
    R_s phase tables at z = 0.15 ... 0.75 over |Re x| <= 30: these widths
    interpolate to 1e-13 or better, and twice them miss 1e-12 at every z.
    Next to the cap, at 1.40-1.50 half-widths, a panel can miss 1e-12; the
    e^{I} tables halve such a line's width (`formfactors._exp_i_line`)."""
    if not half_width > 0.0:
        raise DomainError(f"strip half-width must be positive, got {half_width}")
    return 2.0 ** math.floor(math.log2(1.5 * half_width))


class ChebyshevTable:
    """A lazily built piecewise-Chebyshev interpolant of builder(x), x >= 0.

    The half-line is cut into equal panels [k width, (k + 1) width], k = 0,
    1, ...  A panel is built on the first lookup that lands in it, from
    one builder call on an array of 41 x: its _TABLE_POINTS = 21 first-kind
    Chebyshev points, whose values become the coefficients of a degree-20
    interpolant (Trefethen, Approximation Theory and Approximation
    Practice, chs. 8 and 19), then the 20 interior extrema of T_21, where
    every new panel is checked against the builder's last 20 values; if the
    interpolant is off by more than _TABLE_TOL = 1e-12 there (absolute), the
    panel is not kept and ToleranceNotMet is raised.  The builder must be
    analytic in a neighbourhood of each panel it is asked for.  `rounding`, if given, is
    the builder's own rounding error at x (nondecreasing in x); a panel is
    then checked to the larger of _TABLE_TOL and its value at the panel's
    right edge.  The coefficients are one dense array indexed by panel
    number, of at most _MAX_TABLE_PANELS panels.  `panels` counts the panels built so far, and `worst_error` is
    the largest check error seen on them.
    """

    def __init__(
        self,
        builder: Callable[[np.ndarray], np.ndarray],
        width: float,
        rounding: Optional[Callable[[float], float]] = None,
    ):
        self._builder = builder
        self._width = width
        self._rounding = rounding
        self._coeffs = np.zeros((1, _TABLE_POINTS), dtype=complex)
        self._built = np.zeros(1, dtype=bool)
        self.worst_error = 0.0

    @property
    def panels(self) -> int:
        return int(np.count_nonzero(self._built))

    def __call__(self, x):
        """The interpolant at x >= 0, a float or an array of them
        (elementwise); DomainError at a negative x, NaN or an x past 2^53
        panels, and at a panel past _MAX_TABLE_PANELS that its builder
        answers.

        One vectorised pass: the panels the points land in that are not
        built yet are built in ascending k, the points' coefficient rows
        are gathered by one fancy index, and the series are summed on the
        gathered rows in one pass (`_chebyshev_sum`)."""
        x = np.asarray(x, dtype=float)
        k = np.floor(x / self._width)
        bad = ~((k >= 0.0) & (k < _MAX_PANEL_NUMBER))
        if bad.any():
            raise DomainError(
                f"Chebyshev table: x = {offending(x, bad)} is not in "
                f"[0, {_MAX_PANEL_NUMBER * self._width:g})"
            )
        index = k.astype(np.intp)
        known = np.take(self._built, index, mode="clip") & (index < self._built.size)
        if not known.all():
            for j in np.unique(index[~known]).tolist():
                self._build(j)
        return _chebyshev_sum(self._coeffs[index], 2.0 * (x / self._width - k) - 1.0)

    def _build(self, k: int) -> None:
        half = 0.5 * self._width
        centre = (k + 0.5) * self._width
        values = self._builder(centre + half * _BUILD_POINTS)
        coeffs = (_TO_COEFFS @ values[:_TABLE_POINTS]).astype(complex)
        errors = np.abs(_chebyshev_sum(coeffs, _MIDPOINTS) - values[_TABLE_POINTS:])
        # np.max, unlike max, returns a NaN it meets, which then fails
        err = float(np.max(errors))
        tol = _TABLE_TOL
        if self._rounding is not None:
            tol = max(tol, self._rounding(centre + half))
        if not err <= tol:
            raise ToleranceNotMet(
                f"Chebyshev table: panel [{centre - half:.6g}, {centre + half:.6g}] "
                f"interpolates with error {err:.3e}, more than tol {tol:.3e}",
                abs_error_estimate=err,
            )
        if k >= _MAX_TABLE_PANELS:
            raise DomainError(
                f"Chebyshev table: panel [{centre - half:.6g}, {centre + half:.6g}] "
                f"is past the table's {_MAX_TABLE_PANELS} panels"
            )
        self.worst_error = max(self.worst_error, err)
        if k >= self._built.size:
            grow = max(k + 1, 2 * self._built.size) - self._built.size
            self._coeffs = np.concatenate([self._coeffs, np.zeros((grow, _TABLE_POINTS), complex)])
            self._built = np.concatenate([self._built, np.zeros(grow, dtype=bool)])
        self._coeffs[k] = coeffs
        self._built[k] = True
