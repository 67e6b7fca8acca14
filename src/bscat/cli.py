"""Command-line front-end: parameter sweeps, curve export, validation suites.

Output is deterministic: identical configuration produces byte-identical
files (floats printed with 17 significant digits, rows in grid order).
Exit codes: 0 success, 1 error, 2 validation failure, 3 an incomplete
spectrum (its sum-rule ratio outside the acceptance band; the output is
written all the same).
"""

from __future__ import annotations

import json
import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import click

from . import __version__
from .errors import BscatError
from .formfactors import r0_weights
from .model import make_model, t_b_from_physical
from .spectrum import SUM_RULE_BAND, spectrum_curve
from .twopoint import rates_from_r, reflection_coefficients
from .validate import SUITES


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def _load_config(
    ctx: click.Context, param: click.Parameter, path: Optional[str]
) -> None:
    """Read the flat key = value file at `path` ('#' starts a comment) into
    the command's default_map, so that a flag overrides the file and the
    file overrides the option's default.  A key is the long name of one of
    the command's own options, given at most once; its value is cast with
    that option's click type."""
    if path is None:
        return
    # each option of these commands is declared by its long flag alone
    options = {opt.opts[0][2:]: opt for opt in ctx.command.params if opt is not param}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise click.ClickException(f"cannot read config {path}: {exc}")
    defaults: Dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.ClickException(
                f"{path}:{lineno}: expected key=value, got {raw.strip()!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        opt = options.get(key)
        if opt is None:
            raise click.ClickException(
                f"{path}:{lineno}: unknown key {key!r} (known: {', '.join(options)})"
            )
        if opt.name in defaults:
            raise click.ClickException(f"{path}:{lineno}: key {key!r} given twice")
        try:
            defaults[opt.name] = opt.type_cast_value(ctx, value)
        except click.BadParameter as exc:
            raise click.ClickException(f"config field {key!r}: {exc}")
    ctx.default_map = defaults


class _Main(click.Group):
    """The command group.  A BscatError raised by a command's input is
    reported as `Error: ...` with exit status 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
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
    # in log space, where hi/lo cannot overflow (1e-40..1e300), and in
    # decades, so that a decade-aligned grid is exact powers of ten
    start, stop = math.log10(lo), math.log10(hi)
    step = (stop - start) / (points - 1)
    return [lo] + [10.0 ** (start + k * step) for k in range(1, points - 1)] + [hi]


def _json_value(v):
    """v, or null for a non-finite float, which JSON cannot represent."""
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _write_table(
    path: str,
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
    if path == "-":
        click.echo(text, nl=False)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc}")


def _meta(model: str, z: float, **extra) -> Dict:
    out = {"model": model, "z": z, "version": __version__}
    out.update(extra)
    return out


_model_option = click.option("--model", type=click.Choice(["bsg", "kondo"]), default="bsg")
_z_option = click.option("--z", type=float, default=0.5)
_output_option = click.option("--output", default="-", help="Output path ('-' for stdout).")
_format_option = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
_config_option = click.option(
    "--config",
    is_eager=True,
    expose_value=False,
    callback=_load_config,
    help="Flat key = value config file; flags override.",
)


@click.group(cls=_Main, context_settings={"show_default": True})
def main() -> None:
    """Photon-scattering observables of boundary sine-Gordon and Kondo
    impurity models (frequencies in units of the boundary scale T_B)."""


@main.command()
@_model_option
@_z_option
@click.option(
    "--omega",
    default="1e-3..1e3:60",
    help="Frequency grid 'lo..hi:points' or a single value.",
)
@click.option("--spacing", type=click.Choice(["log", "linear"]), default="log")
@_output_option
@_format_option
@_config_option
def rates(model, z, omega, spacing, output, fmt) -> None:
    """Reflection rates gamma(omega) and phase shift delta(omega)."""
    spec = make_model(model, z)
    lo, hi, points = _parse_omega_range(omega)
    grid = _omega_grid(lo, hi, points, spacing)

    def evaluate(omegas: List[float]):
        """(breakdown, "") per frequency, or (None, the refusal) for each
        when the grid is refused."""
        try:
            return [(bd, "") for bd in reflection_coefficients(omegas, spec)]
        except BscatError as exc:
            return [(None, f"{type(exc).__name__}: {exc}")] * len(omegas)

    # the grid is one family per excitation set; if it is refused, each
    # frequency is evaluated alone, so that only the failing ones lose
    # their rows, each with its own message
    results = evaluate(grid)
    if results[0][0] is None and len(grid) > 1:
        results = [evaluate([w])[0] for w in grid]
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
@_model_option
@_z_option
@click.option("--omega", type=float, default=1.0, help="Incoming photon frequency.")
@click.option("--points", type=click.IntRange(min=1), default=40, help="omega' grid size.")
@_output_option
@_format_option
@_config_option
def spectrum(model, z, omega, points, output, fmt) -> None:
    """Energy-resolved decay spectrum gamma(omega'|omega); exit 3 if its sum
    rule misses the acceptance band."""
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
        complete=curve.complete,
    )
    footer = [f"# sum_rule_ratio = {_fmt(curve.sum_rule_ratio)}"]
    _write_table(output, fmt, header, rows, meta, footer_lines=footer)
    if not curve.complete:
        lo, hi = SUM_RULE_BAND
        click.echo(
            f"incomplete spectrum: sum_rule_ratio = {_fmt(curve.sum_rule_ratio)}"
            f" outside [{lo}, {hi}]",
            err=True,
        )
        sys.exit(3)


@main.command()
@_model_option
@_z_option
@_output_option
@_format_option
@_config_option
def r0(model, z, output, fmt) -> None:
    """Free-theory truncation weights r0 per excitation set."""
    weights = r0_weights(make_model(model, z))
    rows = [[label, w] for label, w in weights.items()]
    rows.append(["total", math.fsum(weights.values())])
    _write_table(output, fmt, ["set_label", "weight"], rows, _meta(model, z, observable="r0"))


@main.command()
@click.option(
    "--suite",
    type=click.Choice(sorted(SUITES) + ["all"]),
    default="all",
)
@_output_option
@_format_option
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
    click.echo(_fmt(t_b_from_physical(epsilon_j, cutoff_lambda, z)))


if __name__ == "__main__":
    main()
