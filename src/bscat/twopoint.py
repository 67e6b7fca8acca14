"""Reflection coefficient r(omega), inelastic rate gamma and phase shift delta.

The reflection coefficient is assembled from excitation-sector terms (single
breathers, the soliton-antisoliton pair, breather 1+2, pair + breather 1),
each a delta-constrained integral of reflection amplitudes times squared form
factors.  Frequencies are in units of the boundary scale T_B = 1.  Each
multi-particle term is integrated at its set's tolerance in
`formfactors.set_integral`, the tolerance its r0 weight is held to.

A grid of frequencies is one call, `reflection_coefficients`: each term
takes the array of frequencies, and a two-line set ("pm", "12") integrates
the whole grid as one family on one shared bisection, each frequency to its
own tolerance.  The pair + breather set keeps one outer rule per frequency,
and a single breather's term is closed form.  `reflection_coefficient` is
the grid of one frequency.
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


def r_term_breather(omega, m: int, spec: ModelSpec):
    """Single-breather term: |f_m(0)|^2/(2 pi mu_m^2) R_m^m(ln(omega/mu_m)),
    at a frequency or elementwise at an array of them."""
    check_omega(omega)
    if m % 2 == 0:
        raise DomainError(f"breather term needs odd m, got {m}")
    mu = breather_mass(m, spec)
    return breather_weight(m, spec) * r_breather(np.log(np.divide(omega, mu)), m, spec)


def r_term_soliton_pair(omega, spec: ModelSpec):
    """Soliton-antisoliton pair term: energy-simplex integral of the pair
    reflection bracket times |f_{+-}|^2, at a frequency or, as one family,
    at an array of them."""
    check_omega(omega)

    def reflection(l1, l2):
        return soliton_pair_bracket(l1, l2, spec)

    return set_integral("pm", omega, spec, reflection=reflection)


def r_term_12(omega, spec: ModelSpec):
    """Breather-1 + breather-2 term with mass-ratio-shifted arguments, at a
    frequency or, as one family, at an array of them; refused where
    breather 2 does not exist (`model.check_breather`)."""
    check_omega(omega)

    def reflection(l1, l2):
        return r_breather(l1, 1, spec) * r_breather(l2, 2, spec)

    return set_integral("12", omega, spec, reflection=reflection)


def r_term_pm1(omega, spec: ModelSpec):
    """Soliton pair + breather-1 term, at a frequency or elementwise at an
    array of them, each on its own outer rule; refused where breather 1
    does not exist (`model.check_breather`) and at non-integer p (`f_pm1`)."""
    check_omega(omega)

    def reflection(l1, l2, l3):
        return soliton_pair_bracket(l1, l2, spec, sign=+1) * r_breather(l3, 1, spec)

    return set_integral("pm1", omega, spec, reflection=reflection)


# multi-particle terms by r0 label; the single-breather labels are "m<k>"
_SET_TERMS = {"pm": r_term_soliton_pair, "12": r_term_12, "pm1": r_term_pm1}


def reflection_coefficients(
    omegas: Sequence[float], spec: ModelSpec
) -> Tuple[ReflectionBreakdown, ...]:
    """r(omega) at each frequency of a grid, as the sum of the terms of the
    excitation sets that carry a free-theory weight in r0_weights, under the
    same labels.

    Each term is evaluated once for the whole grid: a two-line set's as one
    family of integrals on one shared bisection, each frequency held to its
    own tolerance (`set_integral`), the pair + breather set's on one outer
    rule per frequency, a single breather's in closed form.  A refusal at
    any frequency refuses the grid."""
    grid = np.array(omegas, dtype=float)
    check_omega(grid)
    weights = r0_weights(spec)
    columns = {}
    for label in weights:
        if label in _SET_TERMS:
            columns[label] = _SET_TERMS[label](grid, spec)
        else:
            columns[label] = r_term_breather(grid, int(label[1:]), spec)
    bound = max(0.0, 1.0 - sum(weights.values()))
    out = []
    for k, omega in enumerate(grid.tolist()):
        terms = {label: column[k] for label, column in columns.items()}
        out.append(
            ReflectionBreakdown(
                omega=omega, terms=terms, total=sum(terms.values()), truncation_bound=bound
            )
        )
    return tuple(out)


def reflection_coefficient(omega: float, spec: ModelSpec) -> ReflectionBreakdown:
    """r(omega) at one frequency: `reflection_coefficients` on a grid of one."""
    (breakdown,) = reflection_coefficients((omega,), spec)
    return breakdown


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
