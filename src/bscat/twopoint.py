"""Reflection coefficient r(omega), inelastic rate gamma and phase shift delta.

The reflection coefficient is assembled from excitation-sector terms (single
breathers, the soliton-antisoliton pair, breather 1+2, pair + breather 1),
each a delta-constrained integral of reflection amplitudes times squared form
factors.  Frequencies are in units of the boundary scale T_B = 1.  Each
multi-particle term is integrated at its set's tolerance in
`formfactors.set_integral`, the tolerance its r0 weight is held to.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import DomainError, InsufficientData
from .formfactors import breather_weight, r0_weights, set_integral
from .model import ModelSpec, breather_mass, check_omega
from .reflection import r_breather, soliton_pair_bracket


@dataclass(frozen=True)
class ReflectionBreakdown:
    """r(omega) and its excitation-sector terms at a single frequency."""

    omega: float
    terms: Dict[str, complex]
    total: complex
    truncation_bound: float  # 1 - sum of the included free-theory weights

    @property
    def normalized(self) -> complex:
        """r divided by the included free-theory weight sum 1 - truncation_bound,
        so that gamma -> 0 at high frequency instead of saturating at the
        truncation floor."""
        floor = 1.0 - self.truncation_bound
        if floor <= 0:
            raise DomainError("truncation bound >= 1: nothing to normalize by")
        return self.total / floor


@dataclass(frozen=True)
class RateCurve:
    """gamma(omega) = -ln|r|^2 and the continuously unwrapped phase shift."""

    omegas: Tuple[float, ...]
    gamma: Tuple[float, ...]
    delta: Tuple[float, ...]
    err: Tuple[float, ...]


def r_term_breather(omega: float, m: int, spec: ModelSpec) -> complex:
    """Single-breather term: |f_m(0)|^2/(2 pi mu_m^2) R_m^m(ln(omega/mu_m))."""
    check_omega(omega)
    if m % 2 == 0 or not (1 <= m <= spec.n_breathers):
        raise DomainError(f"breather term needs odd m <= {spec.n_breathers}, got {m}")
    mu = breather_mass(m, spec)
    return breather_weight(m, spec) * r_breather(math.log(omega / mu), m, spec)


def r_term_soliton_pair(omega: float, spec: ModelSpec) -> complex:
    """Soliton-antisoliton pair term: energy-simplex integral of the pair
    reflection bracket times |f_{+-}|^2."""
    check_omega(omega)

    def reflection(l1, l2):
        return soliton_pair_bracket(l1, l2, spec)

    return set_integral("pm", omega, spec, reflection=reflection)


def r_term_12(omega: float, spec: ModelSpec) -> complex:
    """Breather-1 + breather-2 term with mass-ratio-shifted arguments."""
    check_omega(omega)
    if spec.n_breathers < 2:
        return 0.0 + 0.0j

    def reflection(l1, l2):
        return r_breather(l1, 1, spec) * r_breather(l2, 2, spec)

    return set_integral("12", omega, spec, reflection=reflection)


def r_term_pm1(omega: float, spec: ModelSpec) -> complex:
    """Soliton pair + breather-1 term (integer p only)."""
    check_omega(omega)
    if spec.p_int is None:
        raise DomainError("the pair+breather term requires integer p")
    if spec.n_breathers < 1:
        return 0.0 + 0.0j

    def reflection(l1, l2, l3):
        return soliton_pair_bracket(l1, l2, spec, sign=+1) * r_breather(l3, 1, spec)

    return set_integral("pm1", omega, spec, reflection=reflection)


# multi-particle terms by r0 label; the single-breather labels are "m<k>"
_SET_TERMS = {"pm": r_term_soliton_pair, "12": r_term_12, "pm1": r_term_pm1}


def reflection_coefficient(omega: float, spec: ModelSpec) -> ReflectionBreakdown:
    """r(omega) as the sum of the terms of the excitation sets that carry a
    free-theory weight in r0_weights, under the same labels."""
    check_omega(omega)
    weights = r0_weights(spec)
    terms: Dict[str, complex] = {}
    for label in weights:
        if label in _SET_TERMS:
            terms[label] = _SET_TERMS[label](omega, spec)
        else:
            terms[label] = r_term_breather(omega, int(label[1:]), spec)
    total = sum(terms.values())
    bound = max(0.0, 1.0 - sum(weights.values()))
    return ReflectionBreakdown(
        omega=omega, terms=terms, total=total, truncation_bound=bound
    )


def rates_from_r(breakdowns: Sequence[ReflectionBreakdown]) -> RateCurve:
    """gamma = -ln|r|^2 and delta = -arg(r)/2, unwrapped downward from the
    highest frequency (where delta = 0 is unambiguous in both models), of
    the normalized r (`ReflectionBreakdown.normalized`).
    """
    if not breakdowns:
        raise InsufficientData("no reflection data")
    bds = sorted(breakdowns, key=lambda b: b.omega)
    omegas = [b.omega for b in bds]
    rs = [b.normalized for b in bds]
    gamma = [-math.log(abs(r) ** 2) if abs(r) > 0 else math.inf for r in rs]

    # unwrap from high omega downward
    phases = [-cmath.phase(r) / 2.0 for r in rs]
    delta = [0.0] * len(rs)
    delta[-1] = phases[-1]
    for k in range(len(rs) - 2, -1, -1):
        d = phases[k]
        # choose the pi-periodic branch closest to the neighbor above
        n = round((delta[k + 1] - d) / math.pi)
        delta[k] = d + n * math.pi
    err = [2.0 * b.truncation_bound for b in bds]
    return RateCurve(
        omegas=tuple(omegas), gamma=tuple(gamma), delta=tuple(delta), err=tuple(err)
    )


def fit_power_law(
    curve: RateCurve, window: Tuple[float, float]
) -> Tuple[float, float]:
    """Least-squares slope of log gamma vs log omega over the window; returns
    (exponent, r_squared)."""
    lo, hi = window
    xs, ys = [], []
    for w, g in zip(curve.omegas, curve.gamma):
        if lo <= w <= hi and g > 0:
            xs.append(math.log(w))
            ys.append(math.log(g))
    if len(xs) < 8:
        raise InsufficientData(
            f"need >= 8 grid points with gamma > 0 in [{lo}, {hi}], got {len(xs)}"
        )
    x = np.array(xs)
    y = np.array(ys)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2
