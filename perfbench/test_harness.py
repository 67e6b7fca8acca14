"""Fast self-tests of the benchmark harness (not of bscat, and no workload).

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.  They check that
every checker rejects a perturbed output, that the free-fermion oracle agrees
with a 30-digit evaluation, that tracing leaves results byte-identical and
restores every rebound name, and that the metric names match BENCHMARK.json.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import tracer as tracer_mod
from workloads import (
    SPECTRUM_ROWS,
    WORKLOADS,
    Z_GENERIC,
    FreeFermion,
    check_rates,
    parse_rates,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _rates_csv(omegas, gammas, deltas, bound=1e-3):
    lines = ["omega,gamma,delta,abs_err,truncation_bound,error"]
    for w, g, d in zip(omegas, gammas, deltas):
        lines.append(f"{w!r},{g!r},{d!r},{2 * bound!r},{bound!r},")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# checkers reject perturbed outputs


class TestRatesChecker:
    """Synthetic z = 0.4 sweep with the exact asymptotic exponents 3 and -1.2."""

    argv = ["rates", "--omega", "0.01..10000:60"]

    def sweep(self, **perturb):
        w = np.geomspace(1e-2, 1e4, 60)
        g = w**3 / (1.0 + w**4.2)
        d = (math.pi / 2.0) / (1.0 + w)
        bound = perturb.pop("bound", 1e-3)
        for key, (k, value) in perturb.items():
            {"gamma": g, "delta": d}[key][k] = value
        text = _rates_csv(w.tolist(), g.tolist(), d.tolist(), bound)
        return check_rates("t", self.argv, {"exit_code": 0, "stdout": text}, Z_GENERIC, 0.05, 1e3)

    def test_accepts_the_unperturbed_sweep(self):
        assert all(op.ok for op in self.sweep())

    @pytest.mark.parametrize(
        "perturb",
        [
            {"gamma": (30, -1e-9)},  # |r| > 1
            {"gamma": (2, 1e-5)},  # spoils the low-frequency exponent
            {"gamma": (58, 1e-3)},  # spoils the high-frequency exponent
            {"delta": (0, 1.5)},  # delta(omega_min) off pi/2
            {"delta": (59, 0.05)},  # delta(omega_max) off 0
            {"bound": 0.02},  # truncation bound too large
        ],
    )
    def test_rejects(self, perturb):
        assert not all(op.ok for op in self.sweep(**perturb))

    def test_cli_error_fails_every_point(self):
        ops = check_rates("t", self.argv, {"exit_code": 1, "stdout": ""}, Z_GENERIC)
        assert len(ops) == 60 and not any(op.ok for op in ops)


class TestSpectrumThirdChecker:
    """Outputs of a real run (seed 1, omega = 0.99119): sum-rule ratio 0.966."""

    wl = WORKLOADS["spectrum-third"]
    inp = wl.inputs(1)
    gamma = [15.16814785896325, 0.42311496808525767, 0.08295376220276976, 0.010522063434582875]
    rates = _rates_csv([inp["omega"]], [0.032235330901714362], [0.95066020326766953], 1.1495826e-4)

    def out(self, gamma=None, rates=None):
        gamma = gamma or self.gamma
        return {"gamma": gamma, "errors": [""] * len(gamma), "rates": {"exit_code": 0, "stdout": rates or self.rates}}

    def test_accepts_the_recorded_run(self):
        ops = self.wl.check(self.inp, self.out())
        assert len(ops) == 6 and all(op.ok for op in ops)

    def test_rejects_negative_gamma(self):
        assert not all(op.ok for op in self.wl.check(self.inp, self.out(gamma=self.gamma[:3] + [-1e-3])))

    def test_rejects_a_broken_sum_rule(self):
        ops = self.wl.check(self.inp, self.out(gamma=[1.3 * g for g in self.gamma]))
        assert [op.ok for op in ops] == [True] * 5 + [False]

    def test_rejects_a_failed_rates_call(self):
        out = {**self.out(), "rates": {"exit_code": 1, "stdout": ""}}
        ops = self.wl.check(self.inp, out)
        assert len(ops) == 6 and [op.ok for op in ops][-2:] == [False, False]

    def test_a_node_that_raised_fails(self):
        out = {**self.out(gamma=self.gamma[:3] + [math.nan]), "errors": [""] * 3 + ["DomainError: x"]}
        ops = self.wl.check(self.inp, out)
        assert not ops[3].ok and ops[3].detail == "DomainError: x"


class TestFreeFermionChecker:
    """Outputs written from the oracle itself pass; perturbed ones fail."""

    wl = FreeFermion()

    @staticmethod
    def spectrum_grid(omega):
        half = 20
        low = omega * np.geomspace(1e-4, 0.5, half)
        high = omega * (1.0 - np.geomspace(1e-4, 0.5, half))
        return sorted(set(low.tolist() + high.tolist()))

    def outputs(self, model, omega, rel=0.0, ratio=1.0 + 1e-6):
        """CLI outputs from the oracle; `rel` perturbs gamma(omega'|omega) by
        that share and delta(omega) by that many radians."""
        ws = np.geomspace(1e-3, 1e3, 60)
        rs = [oracle.r_exact(w, model) for w in ws]
        g = [-math.log(abs(r) ** 2) for r in rs]
        d = [-math.atan2(r.imag, r.real) / 2.0 + rel for r in rs]
        rates = _rates_csv(ws.tolist(), g, d, 0.0)
        grid = self.spectrum_grid(omega)
        assert len(grid) == SPECTRUM_ROWS
        rows = [f"{wp!r},{oracle.spectrum_exact(wp, omega, model) * (1.0 + rel)!r}" for wp in grid]
        spectrum = "\n".join(["omega_prime,gamma_spec,g1_1"] + rows + [f"# sum_rule_ratio = {ratio!r}"])
        inp = {
            "calls": [
                ["rates", "--model", model, "--z", "0.5", "--omega", "0.001..1000:60"],
                ["spectrum", "--model", model, "--z", "0.5", "--omega", repr(omega)],
            ]
        }
        out = {"calls": [{"exit_code": 0, "stdout": rates}, {"exit_code": 0, "stdout": spectrum + "\n"}]}
        return inp, out

    def test_accepts_the_closed_forms(self):
        ops = self.wl.check(*self.outputs("bsg", 1.0))
        assert len(ops) == 60 + SPECTRUM_ROWS + 1 and all(op.ok for op in ops)

    @pytest.mark.parametrize("model", ["bsg", "kondo"])
    def test_rejects_perturbed_values(self, model):
        ops = self.wl.check(*self.outputs(model, 1.0, rel=2e-4))
        assert not any(op.ok for op in ops[:-1])

    def test_rejects_a_broken_sum_rule(self):
        ops = self.wl.check(*self.outputs("kondo", 10.0, ratio=1.002))
        assert [op.ok for op in ops][-2:] == [True, False]

    def test_known_fault_marks_only_the_kondo_01_edges(self):
        assert self.wl.known_fault("kondo", 0.1, 1e-5)
        assert self.wl.known_fault("kondo", 0.1, 0.09999)
        assert not self.wl.known_fault("kondo", 0.1, 0.05)
        assert not self.wl.known_fault("kondo", 0.1, 0.1 * 5e-3)
        assert not self.wl.known_fault("kondo", 0.1, 0.1 * (1.0 - 5e-3))
        assert not self.wl.known_fault("bsg", 0.1, 1e-5)
        assert not self.wl.known_fault("kondo", 0.1 * 1.01, 1e-5)


def test_known_fault_covers_exactly_the_11_failing_points():
    from bscat.spectrum import default_omega_prime_grid

    grid = default_omega_prime_grid(0.1)
    assert len(grid) == SPECTRUM_ROWS
    marked = [wp / 0.1 for wp in grid if FreeFermion.known_fault("kondo", 0.1, wp)]
    # measured: 6 fail at omega'/omega <= 9.41e-4, 5 at >= 0.99940
    assert len(marked) == 11
    assert sum(x < 0.5 for x in marked) == 6
    assert max(x for x in marked if x < 0.5) < 9.5e-4
    assert min(x for x in marked if x > 0.5) > 0.9993


def test_known_fault_input_does_not_depend_on_the_seed():
    fixed = [c for c in FreeFermion().inputs(1)["calls"] if c[0] == "spectrum" and c[2] == "kondo"][0]
    for seed in (2, 3, 99):
        calls = FreeFermion().inputs(seed)["calls"]
        assert fixed in calls
        assert calls != FreeFermion().inputs(1)["calls"]
    assert float(fixed[-1]) == 0.1


def test_inputs_repeat_for_a_seed():
    for wl in WORKLOADS.values():
        assert wl.inputs(7) == wl.inputs(7)
        assert json.loads(json.dumps(wl.inputs(7))) == wl.inputs(7)


# ---------------------------------------------------------------------------
# the oracle


@pytest.mark.parametrize("model", ["bsg", "kondo"])
def test_spectrum_oracle_against_30_digits(model):
    mpmath = pytest.importorskip("mpmath")

    def t(nu):
        return 2j * lam / (nu + 2j * lam) if model == "bsg" else 1j * lam / (nu + 0.5j * lam)

    def k(w, x):
        return 1 - t(x) - t(w - x) if model == "bsg" else (1 - t(x)) * (1 - t(w - x))

    for omega, frac in ((0.1, 1e-4), (0.1, 0.9999), (1.0, 0.3), (10.0, 0.999)):
        with mpmath.workdps(30):
            lam = mpmath.mpf(oracle.LAMBDA[model])
            wp, w = mpmath.mpf(omega * frac), mpmath.mpf(omega)
            integral = mpmath.quad(lambda x: mpmath.re(k(w, x) * k(-w, x + wp - w) - 1), [0, w - wp])
            exact = float(-2 / (w * wp) * integral)
        assert oracle.spectrum_exact(omega * frac, omega, model) == pytest.approx(exact, rel=1e-10)


# ---------------------------------------------------------------------------
# the tracer


def _namespaces():
    """id of every global of every bscat module, and of every dict entry."""
    snap = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "bscat" or name.startswith("bscat.")):
            continue
        for key, value in vars(mod).items():
            snap[(name, key)] = id(value)
            if type(value) is dict:
                for k, v in value.items():
                    snap[(name, key, repr(k))] = id(v)
    return snap


def _sample_outputs():
    """A few cheap outputs through the CLI and the library, byte for byte."""
    from click.testing import CliRunner

    import bscat.cli
    from bscat import spectrum
    from bscat.model import make_model

    runner = CliRunner()
    out = [
        runner.invoke(bscat.cli.main, ["rates", "--model", "kondo", "--z", "0.5", "--omega", "0.01..100:5"]).stdout,
        runner.invoke(bscat.cli.main, ["rates", "--model", "bsg", "--z", "0.4", "--omega", "0.5..2:2"]).stdout,
    ]
    spec = make_model("bsg", 0.5)
    out.append(repr(spectrum.spectrum_point(0.3, 1.0, spec)))
    return out


def test_tracing_is_transparent_and_restores_every_name():
    import bscat.cli  # noqa: F401  (loads every bscat module)
    from bscat import formfactors, spectrum

    before = _namespaces()
    plain = _sample_outputs()
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert hasattr(spectrum.f_pm, "__wrapped__")
        assert hasattr(spectrum._DIAGRAM_FUNCS[spectrum.SpectrumDiagram.G1_1], "__wrapped__")
        assert hasattr(formfactors.exp_I, "__wrapped__")
        traced = _sample_outputs()
    finally:
        tr.uninstall()
    assert traced == plain
    assert _namespaces() == before

    m = tracer_mod.layer_metrics(tr.dump())
    assert m["spectrum.spectrum_point.calls"] == 1
    assert m["spectrum.g1_1.calls"] == 1
    assert m["quadrature.adaptive_1d.calls"] > 0
    assert m["quadrature.adaptive_1d.panels"] > 0
    assert m["formfactors.exp_I.calls"] > 0


def test_self_time_and_recursion():
    tr = tracer_mod.Tracer()
    leaf = tr.wrap("leaf", lambda: sum(range(20000)))

    def node(depth):
        return leaf() + (traced_node(depth - 1) if depth else 0)

    traced_node = tr.wrap("node", node)
    traced_node(3)
    d = tr.dump()["spans"]
    assert d["node"]["calls"] == 4 and d["leaf"]["calls"] == 4
    assert d["node"]["parents"]["node"]["calls"] == 3
    total = d["node"]["seconds"]  # outermost call only
    covered = d["node"]["self_seconds"] + d["leaf"]["self_seconds"]
    assert covered == pytest.approx(total, rel=1e-6, abs=1e-6)


# ---------------------------------------------------------------------------
# BENCHMARK.json and the command


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    empty = {"spans": {}, "counts": {}, "caches": {c[0]: {"hits": 0, "misses": 0} for c in tracer_mod.CACHES}}
    produced = set(tracer_mod.layer_metrics(empty)) | {"trace.overhead_s"}
    assert produced == {m["name"] for m in spec["per_layer"]}
    # rates-generic is run by hand only (see the README)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) - {"rates-generic"}
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "free-fermion", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_parse_rates_reads_the_cli_columns():
    rows = parse_rates(_rates_csv([1.0], [0.5], [0.25]))
    assert rows == [{"omega": 1.0, "gamma": 0.5, "delta": 0.25, "truncation_bound": 1e-3, "error": ""}]


def test_a_point_that_raised_fails_without_breaking_the_sweep():
    text = _rates_csv([1.0, 2.0], [0.5, 0.4], [0.25, 0.2])
    text = text.replace("2.0,0.4,0.2,0.002,0.001,", "2.0,nan,nan,nan,nan,DomainError: x")
    ops = check_rates("t", ["rates", "--omega", "1..2:2"], {"exit_code": 0, "stdout": text}, Z_GENERIC)
    assert [op.ok for op in ops] == [True, False] and ops[1].detail == "DomainError: x"
