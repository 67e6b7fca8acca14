"""One round of a workload, in a fresh interpreter.

Reads a job from standard input (JSON: workload name, its inputs, the models
to build, whether to trace, whether to stop after set-up) and prints one JSON
line: set-up time, wall time of the operations, peak resident memory, the raw
outputs, and the trace when tracing.  Set-up is timed from before
``import bscat`` to after the models are built, so the memoised kernels start
cold exactly as in a fresh ``bscat`` invocation.
"""

import json
import resource
import sys
import time


def main() -> None:
    job = json.load(sys.stdin)

    t0 = time.perf_counter()
    import bscat.cli
    from bscat.model import make_model

    models = {(m, z): make_model(m, z) for m, z in job["models"]}
    setup_s = time.perf_counter() - t0
    if job.get("setup_only"):
        print(json.dumps({"setup_s": setup_s}))
        return

    import types

    from click.testing import CliRunner

    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    tracer = Tracer() if job["trace"] else None

    try:
        # click < 8.2 mixes stderr (the per-point error lines) into stdout
        runner = CliRunner(mix_stderr=False)
    except TypeError:
        runner = CliRunner()  # click >= 8.2 keeps them apart

    def invoke(argv):
        res = runner.invoke(bscat.cli.main, list(argv), catch_exceptions=True)
        return res.exit_code, res.stdout

    def cli(argv):
        if tracer is None:
            return invoke(argv)
        return tracer.call("cli", invoke, argv)

    lib = types.SimpleNamespace(models=models, spectrum=bscat.spectrum)
    workload = WORKLOADS[job["workload"]]
    if tracer is not None:
        tracer.install()
    try:
        t1 = time.perf_counter()
        outputs = workload.run(job["inputs"], cli, lib)
        wall_s = time.perf_counter() - t1
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
    }
    if tracer is not None:
        dump = tracer.dump()
        result["trace"] = dump
        result["layers"] = layer_metrics(dump)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
