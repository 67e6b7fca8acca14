"""Reference figures: the listed workloads on ten seeds, then one traced run
of every workload.

    python3 perfbench/reference.py

Runs ``run.py`` once per BENCHMARK.json workload and seed 1..10 with its
run_seconds, prints for each end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share of
the median next to the metric's bound, then the per-layer metrics of one
traced run (seed 1) per workload, including those run by hand only.
Everything is also written to perfbench/out/reference.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)


def _run(spec: dict, workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    report = {"runs": {}, "summary": {}, "traced": {}}
    for wl in names:
        runs = []
        for seed in SEEDS:
            res = _run(spec, wl, seed, False)
            runs.append({"seed": seed, **res})
            vals = "  ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
            print(f"{wl} seed {seed}: correct={res['correct']} {res['failed']}/{res['attempted']} failed  {vals}", flush=True)
        report["runs"][wl] = runs
        summary = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": m["bound"]}
        shares = {r["failed"] / r["attempted"] for r in runs}
        summary["failed_share"] = sorted(shares)
        summary["all_correct"] = all(r["correct"] for r in runs)
        report["summary"][wl] = summary

    print("\n| workload | metric | median | Q1 | Q3 | spread | bound |\n|---|---|---|---|---|---|---|")
    for wl, summary in report["summary"].items():
        for m in spec["end_to_end"]:
            s = summary[m["name"]]
            print(f"| {wl} | {m['name']} ({m['unit']}) | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} "
                  f"| {s['spread']:.2%} | {s['bound']:.0%} |")
    for wl, summary in report["summary"].items():
        print(f"{wl}: failed share {summary['failed_share']}, all correct {summary['all_correct']}")

    traced = list(WORKLOADS)
    for wl in traced:
        report["traced"][wl] = _run(spec, wl, 1, True)["metrics"]
    print("\n| metric | unit | " + " | ".join(traced) + " |")
    print("|---|---|" + "---|" * len(traced))
    for m in spec["per_layer"]:
        cells = []
        for wl in traced:
            v = report["traced"][wl][m["name"]]["value"]
            cells.append(f"{v:.4g}" if isinstance(v, float) else str(v))
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")

    (BENCH_DIR / "out").mkdir(exist_ok=True)
    (BENCH_DIR / "out" / "reference.json").write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
