"""Benchmark of the bscat sweeps: one workload, one seed, one run.

    python3 perfbench/run.py --workload spectrum-third --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (``src/bscat`` must exist; nothing is
installed).  A run starts fresh worker interpreters, one per round, while the
next round, at the last one's pace, would be half done within ``--seconds``
(at least one round; whole rounds only), checks
every round's outputs, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: median set-up
time (over at least SETUP_SAMPLES interpreters), median wall time of a round
and median peak resident memory of a round.  --trace 1 runs one untraced and
one traced round and reports the per-layer metrics of the traced round plus
``trace.overhead_s`` (traced minus untraced wall time); the two rounds'
outputs must be byte-identical.  Raw results and traces are written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _env() -> dict:
    env = dict(os.environ)
    # one process, one worker: the thread pool only adds GIL contention
    env.pop("BSCAT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    return env


def _worker(job: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=_env(),
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the run time limit ({job['workload']})")
    if proc.returncode != 0:
        raise BenchError(f"worker failed with code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    if workload_name not in WORKLOADS:
        raise BenchError(f"unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    inputs = workload.inputs(seed)
    job = {
        "workload": workload_name,
        "inputs": inputs,
        "models": [list(m) for m in workload.models],
        "trace": False,
    }
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    rounds = []
    if trace:
        rounds.append(_worker(job, deadline))
        rounds.append(_worker({**job, "trace": True}, deadline))
    else:
        # start a round while it would be half done, at the last round's
        # pace, within `seconds`: runs end near `seconds` whatever the round
        last = 0.0
        while not rounds or time.monotonic() - start + last / 2.0 < seconds:
            t0 = time.monotonic()
            rounds.append(_worker(job, deadline))
            last = time.monotonic() - t0
    setup = [r["setup_s"] for r in rounds]
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(_worker({**job, "setup_only": True}, deadline)["setup_s"])

    # check every round; identical outputs are checked once
    attempted = failed = 0
    unexpected = []
    checked = {}
    digests = [_digest(r["outputs"]) for r in rounds]
    for r, dig in zip(rounds, digests):
        if dig not in checked:
            checked[dig] = workload.check(inputs, r["outputs"])
        ops = checked[dig]
        attempted += len(ops)
        failed += sum(not op.ok for op in ops)
        unexpected += [op for op in ops if not op.ok and not op.known_fault]
    identical = len(set(digests)) == 1

    if trace:
        metrics = dict(rounds[1]["layers"])
        metrics["trace.overhead_s"] = rounds[1]["wall_s"] - rounds[0]["wall_s"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
    return {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "inputs": inputs,
        "rounds": len(rounds),
        "setup_samples": setup,
        "wall_samples": [r["wall_s"] for r in rounds],
        "outputs_identical": identical,
        "ops": [
            {"label": op.label, "ok": op.ok, "detail": op.detail, "known_fault": op.known_fault}
            for op in checked[digests[0]]
        ],
        "outputs": rounds[0]["outputs"],
        "correct": identical and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "trace_dump": rounds[1]["trace"] if trace else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bscat" / "__init__.py").is_file():
        print(f"no bscat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  rounds {res['rounds']}")
    for op in res["ops"]:
        if not op["ok"]:
            kind = "known fault" if op["known_fault"] else "FAILED"
            print(f"  {kind}: {op['label']}  {op['detail']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
