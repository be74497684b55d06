"""Runs inside the program's interpreter (PYTHONPATH = the checkout's src).

    python3 perfbench/child.py probe OUT.json
        Record the numeric environment and where specdrift was imported from.
    python3 perfbench/child.py run SPEC.json OUT.json
        Call specdrift.cli.main(argv) in this process for each invocation in
        SPEC ({"trace": bool, "invocations": [{"argv": [...], "dir": path}]}),
        with per-layer spans installed when "trace" is true.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import sys
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def probe() -> dict:
    import numpy
    import scipy

    import specdrift
    import specdrift.cli  # noqa: F401  (writes the bytecode caches a user's install has)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "specdrift": specdrift.__version__,
        "specdrift_file": os.path.realpath(specdrift.__file__),
    }


def run(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        cli = tracing.install(tracer)
    else:
        import specdrift.cli as cli

    invocations = []
    for inv in spec["invocations"]:
        argv = inv["argv"]
        before = tracer.snapshot_calls() if tracer else {}
        main = cli.main
        if tracer:
            main = tracer.span(f"cli.{argv[0]}", cli.main)
        with open(os.path.join(inv["dir"], "stdout.txt"), "w") as out, \
                open(os.path.join(inv["dir"], "stderr.txt"), "w") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the CLI crashed: report it as exit 1, keep going
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - start
        record = {"argv": argv, "exit": code, "wall_s": wall}
        if tracer:
            after = tracer.snapshot_calls()
            record["calls"] = {k: v - before.get(k, 0) for k, v in after.items()
                               if v != before.get(k, 0)}
        invocations.append(record)
    result = {"invocations": invocations}
    if tracer:
        result["trace"] = tracer.report()
    return result


def main(argv):
    if argv[0] == "probe":
        result, out = probe(), argv[1]
    else:
        with open(argv[1]) as fh:
            spec = json.load(fh)
        result, out = run(spec), argv[2]
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
