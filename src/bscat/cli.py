"""Command-line front-end: parameter sweeps, curve export, validation suites.

Output is deterministic: identical configuration produces byte-identical
files (floats printed with 17 significant digits, rows in grid order).
Exit codes: 0 success, 2 validation failure, 1 error.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

import click

from . import __version__
from .errors import BscatError
from .formfactors import r0_weights
from .model import make_model, t_b_from_physical
from .spectrum import spectrum_curve
from .twopoint import rates_from_r, reflection_coefficient
from .validate import SUITES


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


@main.command()
@click.option(
    "--suite",
    type=click.Choice(sorted(SUITES) + ["all"]),
    default="all",
    show_default=True,
)
@click.option("--output", default="-")
@click.option("--format", "fmt", type=_FORMAT, default="csv")
def validate(suite, output, fmt) -> None:
    """Run the algebraic invariant suites; exit 2 on any failure."""
    names = sorted(SUITES) if suite == "all" else [suite]
    rows = []
    failed = False
    for name in names:
        for check, residual, bound in SUITES[name]():
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
