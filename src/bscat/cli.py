"""Command-line front-end: parameter sweeps, curve export, validation suites.

Output is deterministic: identical configuration produces byte-identical
files (floats printed with 17 significant digits, rows in grid order).
Exit codes: 0 success, 2 validation failure, 1 error.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import click

from . import __version__
from .errors import BscatError
from .formfactors import (
    _exp_i_direct,
    exp_I,
    f_111,
    f_breather1,
    f_pm,
    f_pm1,
    r0_weights,
)
from .model import (
    ANTISOLITON,
    SOLITON,
    breather,
    make_model,
    mass_ratio,
    t_b_from_physical,
)
from .reflection import (
    _rs_phase_cached,
    _rs_phase_direct,
    r_amplitude,
    r_breather,
    r_bsg_soliton,
    r_conjugation_check,
    r_kondo_soliton,
)
from .smatrix import s0, s_breather_breather, s_breather_soliton, s_entry, s_soliton
from .spectrum import spectrum_curve
from .twopoint import rates_from_r, reflection_coefficient


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def _read_config(path: Optional[str], keys: Sequence[str]) -> Dict[str, str]:
    """Flat key=value configuration file; '#' starts a comment.  A key not in
    `keys` is an error."""
    if path is None:
        return {}
    out: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise click.ClickException(
                        f"{path}:{lineno}: expected key=value, got {raw.strip()!r}"
                    )
                key, value = line.split("=", 1)
                key = key.strip()
                if key not in keys:
                    raise click.ClickException(
                        f"{path}:{lineno}: unknown key {key!r} "
                        f"(known: {', '.join(keys)})"
                    )
                out[key] = value.strip()
    except OSError as exc:
        raise click.ClickException(f"cannot read config {path}: {exc}")
    return out


def _merge(flag, config: Dict[str, str], key: str, cast, default):
    """Flag overrides config file overrides default; `cast` may be the flag's
    click type."""
    if flag is not None:
        return flag
    if key in config:
        try:
            return cast(config[key])
        except (ValueError, TypeError, click.BadParameter) as exc:
            raise click.ClickException(f"config field {key!r}: {exc}")
    return default


@contextmanager
def _bscat_errors_as_click():
    """Report a BscatError raised by the command's input as `Error: ...`
    with exit status 1."""
    try:
        yield
    except BscatError as exc:
        raise click.ClickException(str(exc))


def _parse_omega_range(text: str) -> Tuple[float, float, int]:
    """Parse 'lo..hi:points' (log-spaced grid) or a single frequency."""
    try:
        if ".." in text:
            span, _, pts = text.partition(":")
            lo_s, _, hi_s = span.partition("..")
            lo, hi = float(lo_s), float(hi_s)
            points = int(pts) if pts else 60
            if not (0 < lo < hi < math.inf):
                raise ValueError("need 0 < min < max < inf")
            if points < 2:
                raise ValueError("need points >= 2")
            return lo, hi, points
        w = float(text)
        if not (0 < w < math.inf):
            raise ValueError("need 0 < omega < inf")
        return w, w, 1
    except ValueError as exc:
        raise click.ClickException(
            f"bad omega range {text!r} (expected 'lo..hi:points' or a number): {exc}"
        )


def _omega_grid(lo: float, hi: float, points: int, spacing: str) -> List[float]:
    if points == 1:
        return [lo]
    if spacing == "linear":
        step = (hi - lo) / (points - 1)
        return [lo + k * step for k in range(points)]
    ratio = (hi / lo) ** (1.0 / (points - 1))
    return [lo * ratio**k for k in range(points)]


def _json_value(v):
    """v, or null for a non-finite float, which JSON cannot represent."""
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _write_table(
    path: Optional[str],
    fmt: str,
    header: Sequence[str],
    rows: Sequence[Sequence],
    meta: Dict,
    footer_lines: Sequence[str] = (),
) -> None:
    if fmt == "json":
        columns = {
            name: [_json_value(row[k]) for row in rows]
            for k, name in enumerate(header)
        }
        meta = {key: _json_value(v) for key, v in meta.items()}
        payload = {"meta": meta, "columns": columns}
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(
                ",".join(v if isinstance(v, str) else _fmt(v) for v in row)
            )
        lines.extend(footer_lines)
        text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        click.echo(text, nl=False)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _meta(model: str, z: float, **extra) -> Dict:
    out = {"model": model, "z": z, "version": __version__}
    out.update(extra)
    return out


_MODEL = click.Choice(["bsg", "kondo"])
_FORMAT = click.Choice(["csv", "json"])
_SPACING = click.Choice(["log", "linear"])
_POINTS = click.IntRange(min=1)


@click.group()
def main() -> None:
    """Photon-scattering observables of boundary sine-Gordon and Kondo
    impurity models (frequencies in units of the boundary scale T_B)."""


@main.command()
@click.option("--model", type=_MODEL, default=None)
@click.option("--z", type=float, default=None)
@click.option("--omega", default=None, help="Frequency grid 'lo..hi:points' or a single value.")
@click.option("--spacing", type=_SPACING, default=None)
@click.option("--output", default=None, help="Output path ('-' for stdout).")
@click.option("--format", "fmt", type=_FORMAT, default=None)
@click.option("--config", default=None, help="Flat key=value config file; flags override.")
def rates(model, z, omega, spacing, output, fmt, config) -> None:
    """Reflection rates gamma(omega) and phase shift delta(omega)."""
    cfg = _read_config(config, ("model", "z", "omega", "spacing", "output", "format"))
    model = _merge(model, cfg, "model", _MODEL, "bsg")
    z = _merge(z, cfg, "z", float, 0.5)
    omega = _merge(omega, cfg, "omega", str, "1e-3..1e3:60")
    spacing = _merge(spacing, cfg, "spacing", _SPACING, "log")
    output = _merge(output, cfg, "output", str, "-")
    fmt = _merge(fmt, cfg, "format", _FORMAT, "csv")
    with _bscat_errors_as_click():
        spec = make_model(model, z)
    lo, hi, points = _parse_omega_range(omega)
    grid = _omega_grid(lo, hi, points, spacing)

    def point(w: float):
        try:
            return reflection_coefficient(w, spec), ""
        except BscatError as exc:
            return None, f"{type(exc).__name__}: {exc}"

    results = [point(w) for w in grid]
    good = [bd for bd, _ in results if bd is not None]
    if good:
        curve = rates_from_r(good)
        by_omega = dict(zip(curve.omegas, zip(curve.gamma, curve.delta, curve.err)))
    else:
        by_omega = {}
    rows = []
    for w, (bd, err_msg) in zip(grid, results):
        if bd is None:
            rows.append([w, math.nan, math.nan, math.nan, math.nan, err_msg])
            click.echo(f"omega={w:g}: {err_msg}", err=True)
        else:
            g, d, e = by_omega[w]
            rows.append([w, g, d, e, bd.truncation_bound, ""])
    header = ["omega", "gamma", "delta", "abs_err", "truncation_bound", "error"]
    _write_table(output, fmt, header, rows, _meta(model, z, observable="rates"))


@main.command()
@click.option("--model", type=_MODEL, default=None)
@click.option("--z", type=float, default=None)
@click.option("--omega", type=float, default=None, help="Incoming photon frequency.")
@click.option("--points", type=_POINTS, default=None, help="omega' grid size.")
@click.option("--output", default=None)
@click.option("--format", "fmt", type=_FORMAT, default=None)
@click.option("--config", default=None)
def spectrum(model, z, omega, points, output, fmt, config) -> None:
    """Energy-resolved decay spectrum gamma(omega'|omega)."""
    cfg = _read_config(config, ("model", "z", "omega", "points", "output", "format"))
    model = _merge(model, cfg, "model", _MODEL, "bsg")
    z = _merge(z, cfg, "z", float, 0.5)
    omega = _merge(omega, cfg, "omega", float, 1.0)
    points = _merge(points, cfg, "points", _POINTS, 40)
    output = _merge(output, cfg, "output", str, "-")
    fmt = _merge(fmt, cfg, "format", _FORMAT, "csv")
    with _bscat_errors_as_click():
        curve = spectrum_curve(omega, make_model(model, z), grid_size=points)
    diagrams = list(curve.per_diagram.keys())
    header = ["omega_prime", "gamma_spec"] + [d.value for d in diagrams]
    rows = []
    for k, wp in enumerate(curve.omega_primes):
        rows.append(
            [wp, curve.values[k]] + [curve.per_diagram[d][k] for d in diagrams]
        )
    meta = _meta(
        model,
        z,
        observable="spectrum",
        omega=omega,
        sum_rule_ratio=curve.sum_rule_ratio,
        gamma_disc=curve.gamma_disc,
    )
    footer = [f"# sum_rule_ratio = {_fmt(curve.sum_rule_ratio)}"]
    _write_table(output, fmt, header, rows, meta, footer_lines=footer)


@main.command()
@click.option("--model", type=_MODEL, default=None)
@click.option("--z", type=float, default=None)
@click.option("--output", default=None)
@click.option("--format", "fmt", type=_FORMAT, default=None)
@click.option("--config", default=None)
def r0(model, z, output, fmt, config) -> None:
    """Free-theory truncation weights r0 per excitation set."""
    cfg = _read_config(config, ("model", "z", "output", "format"))
    model = _merge(model, cfg, "model", _MODEL, "bsg")
    z = _merge(z, cfg, "z", float, 0.5)
    output = _merge(output, cfg, "output", str, "-")
    fmt = _merge(fmt, cfg, "format", _FORMAT, "csv")
    with _bscat_errors_as_click():
        weights = r0_weights(make_model(model, z))
    rows = [[label, w] for label, w in weights.items()]
    rows.append(["total", math.fsum(weights.values())])
    _write_table(output, fmt, ["set_label", "weight"], rows, _meta(model, z, observable="r0"))


def _suite_smatrix() -> List[Tuple[str, float, float]]:
    S = lru_cache(maxsize=None)(s_entry)
    checks = []
    thetas = [-2.3, -0.7, 0.4, 1.9]
    charges = (SOLITON, ANTISOLITON)
    worst_u = 0.0
    worst_x = 0.0
    worst_yb = 0.0
    for z in (1.0 / 3.0, 0.4, 0.5, 0.6):
        spec = make_model("bsg", z)
        for th in thetas:
            for e1, e2 in itertools.product(charges, repeat=2):
                for o1, o2 in itertools.product(charges, repeat=2):
                    acc = 0.0 + 0.0j
                    for m1, m2 in itertools.product(charges, repeat=2):
                        acc += S(e1, e2, m1, m2, th, spec) * S(
                            m1, m2, o1, o2, -th, spec
                        )
                    target = 1.0 if (e1, e2) == (o1, o2) else 0.0
                    worst_u = max(worst_u, abs(acc - target))
            # crossing: S0(i pi - theta) equals the soliton-antisoliton
            # transmission amplitude at theta
            lhs = s0(1j * math.pi - th, spec)
            rhs = s_soliton(th, "pm_pm", spec)
            worst_x = max(worst_x, abs(lhs - rhs))
    spec = make_model("bsg", 0.4)
    triples = [(0.9, 0.3, -0.5), (1.7, -0.2, 0.6)]
    labels = list(itertools.product(charges, repeat=3))
    for t1, t2, t3 in triples:
        for ins in labels:
            for outs in labels:
                lhs = 0.0 + 0.0j
                rhs = 0.0 + 0.0j
                for mid in labels:
                    lhs += (
                        S(ins[0], ins[1], mid[0], mid[1], t1 - t2, spec)
                        * S(mid[0], ins[2], outs[0], mid[2], t1 - t3, spec)
                        * S(mid[1], mid[2], outs[1], outs[2], t2 - t3, spec)
                    )
                    rhs += (
                        S(ins[1], ins[2], mid[1], mid[2], t2 - t3, spec)
                        * S(ins[0], mid[2], mid[0], outs[2], t1 - t3, spec)
                        * S(mid[0], mid[1], outs[0], outs[1], t1 - t2, spec)
                    )
                worst_yb = max(worst_yb, abs(lhs - rhs))
    checks.append(("s-unitarity", worst_u, 1e-9))
    checks.append(("s-crossing", worst_x, 1e-8))
    checks.append(("yang-baxter", worst_yb, 1e-8))
    return checks


def _suite_reflection() -> List[Tuple[str, float, float]]:
    checks = []
    worst_bu = 0.0
    worst_conj = 0.0
    worst_mod = 0.0
    lams = [-1.7, -0.3, 0.5, 2.1]
    for model in ("bsg", "kondo"):
        for z in (1.0 / 3.0, 0.5, 0.6):
            spec = make_model(model, z)
            excs = [SOLITON, ANTISOLITON] + [
                breather(m) for m in range(1, spec.n_breathers + 1)
            ]
            outs = excs
            for lam in lams:
                # unitarity of the reflection matrix on real rapidities:
                # sum_b R_a^b(lam) conj(R_a'^b(lam)) = delta_{a a'}
                for e in excs:
                    for e2 in excs:
                        acc = 0.0 + 0.0j
                        for mid in outs:
                            acc += r_amplitude(lam, e, mid, spec) * complex(
                                r_amplitude(lam, e2, mid, spec)
                            ).conjugate()
                        target = 1.0 if e == e2 else 0.0
                        worst_bu = max(worst_bu, abs(acc - target))
                # the soliton-sector continuation to Im lambda = pi exists only
                # for xi > 2 pi / 3 (bsG); Kondo solitons are meromorphic
                if spec.is_kondo or 3.0 * spec.xi > 2.0 * math.pi + 1e-9:
                    worst_conj = max(
                        worst_conj,
                        r_conjugation_check(
                            [(SOLITON, lam), (ANTISOLITON, lam + 0.3)], spec
                        ),
                    )
                if spec.n_breathers >= 1:
                    worst_conj = max(
                        worst_conj,
                        r_conjugation_check([(breather(1), lam)], spec),
                    )
                if spec.is_kondo:
                    worst_mod = max(
                        worst_mod, abs(abs(r_kondo_soliton(lam, spec)) - 1.0)
                    )
                else:
                    flip = r_bsg_soliton(lam, True, spec)
                    diag = r_bsg_soliton(lam, False, spec)
                    worst_mod = max(
                        worst_mod, abs(abs(flip) ** 2 + abs(diag) ** 2 - 1.0)
                    )
    # every breather: |R_m| = 1 on real rapidities, and the boundary fusion
    # bootstrap R_m(lambda) = prod_{k=1..m} R_1(lambda + i xi (m + 1 - 2k)/2)
    worst_fusion = 0.0
    for model in ("bsg", "kondo"):
        for z in (0.15, 0.2, 0.25, 1.0 / 3.0, 0.6):
            spec = make_model(model, z)
            for m in range(1, spec.n_breathers + 1):
                for lam in lams:
                    value = r_breather(lam, m, spec)
                    worst_mod = max(worst_mod, abs(abs(value) - 1.0))
                    fused = 1.0 + 0.0j
                    for k in range(1, m + 1):
                        fused *= r_breather(lam + 0.5j * spec.xi * (m + 1 - 2 * k), 1, spec)
                    worst_fusion = max(worst_fusion, abs(value - fused))
    checks.append(("boundary-unitarity", worst_bu, 1e-9))
    checks.append(("r-conjugation", worst_conj, 1e-9))
    checks.append(("r-modulus", worst_mod, 1e-9))
    checks.append(("breather-fusion", worst_fusion, 1e-9))
    return checks


def _suite_formfactors() -> List[Tuple[str, float, float]]:
    checks = []
    worst_watson = 0.0
    worst_n = 0.0
    for z in (1.0 / 3.0, 0.25):
        spec = make_model("bsg", z)
        p = spec.p_int
        for l1, l2 in ((0.4, -0.3), (1.2, 0.1), (-0.8, 0.9)):
            lhs = f_pm(l1, l2, spec)
            rhs = (-1.0) ** (p + 1) * s0(l2 - l1, spec) * f_pm(l2, l1, spec)
            worst_watson = max(worst_watson, abs(lhs - rhs) / max(1.0, abs(lhs)))
            if spec.n_breathers >= 1:
                lhs3 = f_111(l1, l2, 0.2, spec)
                rhs3 = s_breather_breather(l2 - l1, 1, 1, spec) * f_111(
                    l2, l1, 0.2, spec
                )
                worst_watson = max(
                    worst_watson, abs(lhs3 - rhs3) / max(1.0, abs(lhs3))
                )
        for lam in (0.3 + 0.2j, -0.6 + 0.0j):
            # the tabulated value against the direct N-term representation
            ref = exp_I(lam, spec)
            for n in (5, 10, 20):
                worst_n = max(worst_n, abs(_exp_i_direct(lam, spec.xi, n) - ref))
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
        consts.append(res / target)
    worst_kin = max(
        max(abs(c - consts[0]) for c in consts),
        abs(abs(consts[0]) - 1.0),
    )
    # the per-line tables of e^{I} (relative) and of the R_s phase
    # (absolute) against their direct evaluations, on lines the form factors
    # use and off the table panels' edges
    worst_table = 0.0
    for z in (0.2, 1.0 / 3.0, 0.6):
        spec = make_model("bsg", z)
        xi = spec.xi
        half = 0.5 * (math.pi - xi)
        for re in (-7.3, -0.6, 0.25, 2.9, 13.1):
            for im in (0.0, half, -half, math.pi):
                lam = complex(re, im)
                worst_table = max(
                    worst_table, abs(exp_I(lam, spec) / _exp_i_direct(lam, xi, 2) - 1.0)
                )
            for im in (0.0, 0.4, -0.4):
                worst_table = max(
                    worst_table,
                    abs(_rs_phase_cached(re, im, xi) - _rs_phase_direct(complex(re, im), xi)),
                )
    checks.append(("watson-exchange", worst_watson, 1e-8))
    checks.append(("expI-N-independence", worst_n, 1e-10))
    checks.append(("kinematic-pole", worst_kin, 1e-6))
    checks.append(("kernel-tables", worst_table, 1e-11))
    return checks


def _suite_model() -> List[Tuple[str, float, float]]:
    worst = 0.0
    spec = make_model("bsg", 1.0 / 3.0)
    worst = max(worst, abs(spec.xi - math.pi / 2.0))
    worst = max(worst, abs(spec.n_breathers - 1))
    worst = max(worst, abs(mass_ratio(breather(1), spec) - math.sqrt(2.0)))
    spec_h = make_model("kondo", 0.5)
    worst = max(worst, abs(spec_h.xi - math.pi), abs(spec_h.n_breathers))
    tb_ok = t_b_from_physical(2.0, 1.0, 0.5) > t_b_from_physical(1.0, 1.0, 0.5) > 0
    return [
        ("model-constants", worst, 1e-12),
        ("tb-conversion-monotone", 0.0 if tb_ok else 1.0, 0.5),
    ]


_SUITES: Dict[str, Callable[[], List[Tuple[str, float, float]]]] = {
    "model": _suite_model,
    "smatrix": _suite_smatrix,
    "reflection": _suite_reflection,
    "formfactors": _suite_formfactors,
}


@main.command()
@click.option(
    "--suite",
    type=click.Choice(sorted(_SUITES) + ["all"]),
    default="all",
    show_default=True,
)
@click.option("--output", default="-")
@click.option("--format", "fmt", type=_FORMAT, default="csv")
def validate(suite, output, fmt) -> None:
    """Run the algebraic invariant suites; exit 2 on any failure."""
    names = sorted(_SUITES) if suite == "all" else [suite]
    rows = []
    failed = False
    for name in names:
        for check, residual, bound in _SUITES[name]():
            ok = residual < bound
            failed = failed or not ok
            rows.append([f"{name}/{check}", residual, bound, "pass" if ok else "FAIL"])
    _write_table(
        output,
        fmt,
        ["check", "residual", "bound", "status"],
        rows,
        {"observable": "validate", "version": __version__},
    )
    if failed:
        sys.exit(2)


@main.command("convert-tb")
@click.option("--epsilon-j", type=float, required=True, help="Josephson/Kondo coupling.")
@click.option("--cutoff-lambda", type=float, required=True, help="UV cutoff.")
@click.option("--z", type=float, required=True)
def convert_tb(epsilon_j, cutoff_lambda, z) -> None:
    """Convert physical couplings to the boundary scale T_B."""
    with _bscat_errors_as_click():
        tb = t_b_from_physical(epsilon_j, cutoff_lambda, z)
    click.echo(_fmt(tb))


if __name__ == "__main__":
    main()
