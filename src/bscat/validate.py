"""Algebraic invariant suites behind `bscat validate`.

Each suite returns (check, residual, bound) rows; a check passes when its
residual is below its bound.  A residual is the largest of its samples and
is NaN when any sample is NaN, so a kernel that returns NaN fails its check.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .formfactors import _exp_i_direct, exp_I, f_111, f_breather1, f_pm, f_pm1
from .model import breather_mass, make_model, t_b_from_physical
from .reflection import (
    _rs_phase_cached,
    _rs_phase_direct,
    r_breather,
    soliton_amplitudes,
    soliton_pair_bracket,
)
from .smatrix import s0, s_breather_breather, s_breather_soliton, soliton_s_matrix

Check = Tuple[str, float, float]


def _worst(samples: Sequence[float]) -> float:
    """The largest sample, or NaN if any sample is NaN."""
    return float(np.max(samples))


def _suite_smatrix() -> List[Check]:
    thetas = [-2.3, -0.7, 0.4, 1.9]
    unitarity, crossing, yang_baxter = [], [], []
    identity = np.eye(4).reshape(2, 2, 2, 2)
    for z in (1.0 / 3.0, 0.4, 0.5, 0.6):
        spec = make_model("bsg", z)
        for th in thetas:
            s = soliton_s_matrix(th, spec)
            product = np.einsum("abmn,mncd->abcd", s, soliton_s_matrix(-th, spec))
            unitarity.extend(np.abs(product - identity).ravel())
            # crossing: S0(i pi - theta) equals the soliton-antisoliton
            # transmission amplitude at theta
            crossing.append(abs(s0(1j * math.pi - th, spec) - s[0, 1, 0, 1]))
    spec = make_model("bsg", 0.4)
    for t1, t2, t3 in [(0.9, 0.3, -0.5), (1.7, -0.2, 0.6)]:
        s12 = soliton_s_matrix(t1 - t2, spec)
        s13 = soliton_s_matrix(t1 - t3, spec)
        s23 = soliton_s_matrix(t2 - t3, spec)
        lhs = np.einsum("abmn,mcxp,npyw->abcxyw", s12, s13, s23)
        rhs = np.einsum("bcnp,apmw,mnxy->abcxyw", s23, s13, s12)
        yang_baxter.extend(np.abs(lhs - rhs).ravel())
    return [
        ("s-unitarity", _worst(unitarity), 1e-9),
        ("s-crossing", _worst(crossing), 1e-8),
        ("yang-baxter", _worst(yang_baxter), 1e-8),
    ]


def _suite_reflection() -> List[Check]:
    unitarity, conjugation, modulus, fusion = [], [], [], []
    lams = [-1.7, -0.3, 0.5, 2.1]
    for model in ("bsg", "kondo"):
        for z in (1.0 / 3.0, 0.5, 0.6):
            spec = make_model(model, z)
            size = 2 + spec.n_breathers
            for lam in lams:
                # unitarity of the reflection matrix on real rapidities,
                # R R^dagger = 1, with R the soliton block [[diag, flip],
                # [flip, diag]] (soliton, antisoliton) plus the diagonal
                # breather amplitudes
                flip, diag = soliton_amplitudes(lam, spec)
                r = np.zeros((size, size), dtype=complex)
                r[:2, :2] = [[diag, flip], [flip, diag]]
                for m in range(1, spec.n_breathers + 1):
                    r[1 + m, 1 + m] = r_breather(lam, m, spec)
                # einsum, not `@`: a BLAS product sums in another order and
                # moves the printed residual in its last digits
                product = np.einsum("ab,cb->ac", r, r.conj())
                unitarity.extend(np.abs(product - np.eye(size)).ravel())
                # boundary crossing, R(lambda + i pi) = conj(R(lambda)), on the
                # brackets and amplitudes that r(omega) and gamma(omega'|omega)
                # read.  The soliton-sector continuation to Im lambda = pi
                # exists only for xi > 2 pi / 3 (bsG); Kondo solitons are
                # meromorphic
                shift = 1j * math.pi
                if spec.is_kondo or 3.0 * spec.xi > 2.0 * math.pi + 1e-9:
                    for sign in (-1, 1):
                        crossed = soliton_pair_bracket(lam + shift, lam + 0.3 + shift, spec, sign)
                        direct = soliton_pair_bracket(lam, lam + 0.3, spec, sign)
                        conjugation.append(abs(crossed - direct.conjugate()))
                if spec.n_breathers >= 1:
                    crossed = r_breather(lam + shift, 1, spec)
                    conjugation.append(abs(crossed - r_breather(lam, 1, spec).conjugate()))
                if spec.is_kondo:
                    modulus.append(abs(abs(flip) - 1.0))
                else:
                    modulus.append(abs(abs(flip) ** 2 + abs(diag) ** 2 - 1.0))
    # every breather: |R_m| = 1 on real rapidities, and the boundary fusion
    # bootstrap R_m(lambda) = prod_{k=1..m} R_1(lambda + i xi (m + 1 - 2k)/2)
    for model in ("bsg", "kondo"):
        for z in (0.15, 0.2, 0.25, 1.0 / 3.0, 0.6):
            spec = make_model(model, z)
            for m in range(1, spec.n_breathers + 1):
                for lam in lams:
                    value = r_breather(lam, m, spec)
                    modulus.append(abs(abs(value) - 1.0))
                    fused = 1.0 + 0.0j
                    for k in range(1, m + 1):
                        fused *= r_breather(lam + 0.5j * spec.xi * (m + 1 - 2 * k), 1, spec)
                    fusion.append(abs(value - fused))
    return [
        ("boundary-unitarity", _worst(unitarity), 1e-9),
        ("r-conjugation", _worst(conjugation), 1e-9),
        ("r-modulus", _worst(modulus), 1e-9),
        ("breather-fusion", _worst(fusion), 1e-9),
    ]


def _suite_formfactors() -> List[Check]:
    watson, n_independence, kinematic, tables = [], [], [], []
    for z in (1.0 / 3.0, 0.25):
        spec = make_model("bsg", z)
        p = spec.p_int
        for l1, l2 in ((0.4, -0.3), (1.2, 0.1), (-0.8, 0.9)):
            # s0 is e^{I}'s exchange ratio, so this row checks f_pm's
            # kinematic prefactor; the S0 oracles check e^{I} against S0
            lhs = f_pm(l1, l2, spec)
            rhs = (-1.0) ** (p + 1) * s0(l2 - l1, spec) * f_pm(l2, l1, spec)
            watson.append(abs(lhs - rhs) / max(1.0, abs(lhs)))
            if spec.n_breathers >= 1:
                lhs3 = f_111(l1, l2, 0.2, spec)
                rhs3 = s_breather_breather(l2 - l1, 1, 1, spec) * f_111(
                    l2, l1, 0.2, spec
                )
                watson.append(abs(lhs3 - rhs3) / max(1.0, abs(lhs3)))
        for lam in (0.3 + 0.2j, -0.6 + 0.0j):
            # the tabulated value against the direct N-term representation;
            # not at N = 20, whose Gamma product rounds at 1.5e-11
            ref = exp_I(lam, spec)
            for n in (5, 10):
                n_independence.append(abs(_exp_i_direct(lam, spec.xi, n) - ref))
    # kinematic pole: residue proportional to (1 - S_{1s}) f_1, with a
    # kinematics-independent unimodular constant
    spec = make_model("bsg", 1.0 / 3.0)
    eps = 1e-7
    consts = []
    for l1, l3 in ((0.3, -0.4), (-0.6, 0.8), (1.1, 0.2)):
        f = f_pm1(l1, l1 + 1j * (math.pi - eps), l3, spec)
        res = 1j * eps * f
        target = (1.0 - s_breather_soliton(l1 - l3, 1, spec)) * f_breather1(
            1, l3, spec
        )
        with np.errstate(invalid="ignore"):  # a NaN sample fails the row below
            consts.append(res / target)
    kinematic = [abs(c - consts[0]) for c in consts[1:]]
    kinematic.append(abs(abs(consts[0]) - 1.0))
    # the per-line tables of e^{I} (relative) and of the R_s phase
    # (absolute) against their direct evaluations, on lines the form factors
    # use and off the table panels' edges
    for z in (0.2, 1.0 / 3.0, 0.6):
        spec = make_model("bsg", z)
        xi = spec.xi
        half = 0.5 * (math.pi - xi)
        for re in (-7.3, -0.6, 0.25, 2.9, 13.1):
            for im in (0.0, half, -half, math.pi):
                lam = complex(re, im)
                tables.append(abs(exp_I(lam, spec) / _exp_i_direct(lam, xi, 2) - 1.0))
            for im in (0.0, 0.4, -0.4):
                tables.append(
                    abs(_rs_phase_cached(re, im, xi) - _rs_phase_direct(complex(re, im), xi))
                )
    return [
        ("watson-exchange", _worst(watson), 1e-8),
        ("expI-N-independence", _worst(n_independence), 1e-10),
        ("kinematic-pole", _worst(kinematic), 1e-6),
        ("kernel-tables", _worst(tables), 1e-11),
    ]


def _suite_model() -> List[Check]:
    spec = make_model("bsg", 1.0 / 3.0)
    spec_h = make_model("kondo", 0.5)
    constants = [
        abs(spec.xi - math.pi / 2.0),
        abs(spec.n_breathers - 1),
        abs(breather_mass(1, spec) - math.sqrt(2.0)),
        abs(spec_h.xi - math.pi),
        abs(spec_h.n_breathers),
    ]
    tb_ok = t_b_from_physical(2.0, 1.0, 0.5) > t_b_from_physical(1.0, 1.0, 0.5) > 0
    return [
        ("model-constants", _worst(constants), 1e-12),
        ("tb-conversion-monotone", 0.0 if tb_ok else 1.0, 0.5),
    ]


SUITES: Dict[str, Callable[[], List[Check]]] = {
    "model": _suite_model,
    "smatrix": _suite_smatrix,
    "reflection": _suite_reflection,
    "formfactors": _suite_formfactors,
}
