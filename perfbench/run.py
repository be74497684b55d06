"""specdrift benchmark: the CLI workloads run as a user runs them, each
invocation in a fresh process, with every output checked.

    python3 perfbench/run.py --workload figure-mc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, summary table

--trace 0 measures the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
--trace 1 runs the workload twice in-process, untraced and then with
per-layer spans, and reports the per-layer metrics. Metric names, units
and order come from BENCHMARK.json at the checkout root. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Run from a source checkout: the program is imported from its src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import selftest
from child import THREAD_VARS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # work files, traces, results, digest store
SPEC = ROOT / "BENCHMARK.json"  # metric names, units and order

DEFAULT_SEED = 20260823  # the CLI's default seed; use another seed to confirm claims
BLAS_THREADS = 1  # faster than 2 at n=400 on a 2-core box, and bit-reproducible
SETUP_REPEATS = 6  # half before the passes, half after
LAST_PASS_END_S = 120  # start no pass that would end later; a run must end within 180 s

# span names (see tracer.py) summed into each per-layer metric
SPAN_GROUPS = {
    "matrices.sample_goe": ("matrices.sample_goe", "matrices.sample_brownian_increment"),
    "montecarlo.initial_eigenvalues": ("montecarlo.GOEInitial.eigenvalues",
                                       "montecarlo.ProfileInitial.eigenvalues"),
    "montecarlo.accumulate": ("montecarlo.accumulate_overlaps",
                              "montecarlo.OverlapAccumulator.add_sample",
                              "montecarlo.OverlapAccumulator.merge",
                              "montecarlo.OverlapAccumulator.finalize"),
    "montecarlo.bin": ("montecarlo.bin_overlap_curve",),
    "montecarlo.estimator": ("montecarlo.run_overlap_experiment",
                             "montecarlo.curves_from_accumulator", "montecarlo.estimate_theta",
                             "montecarlo.empirical_cdf", "montecarlo.resolvent_diagonal",
                             "montecarlo.theta_sample", "montecarlo.theta_sample_resolvent"),
    "laws.overlap": ("laws.overlap_goe", "laws.overlap_full", "laws.overlap_cauchy"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def stderr_tail(workdir: Path) -> str:
    return (workdir / "stderr.txt").read_text(errors="replace")[-2000:]


def spawn(argv, workdir: Path, timeout: float):
    """Run argv to completion; (exit code, wall seconds, peak RSS in MB)."""
    start = time.perf_counter()
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    return proc.returncode, time.perf_counter() - start, usage.ru_maxrss / 1024.0


def cli_argv(inv, out_dir: Path):
    return [*inv.argv, "--out-dir", str(out_dir)]


def read_outputs(out_dir: Path):
    """({file: text} of every output, {file: sha256} of the data outputs).
    Manifests hold the wall time and paths, so they are not digested."""
    files, digests = {}, {}
    for path in sorted(out_dir.iterdir()):
        if path.name in ("stdout.txt", "stderr.txt"):
            continue
        data = path.read_bytes()
        files[path.name] = data.decode("utf-8", errors="replace")
        if not path.name.endswith("_manifest.json"):
            digests[path.name] = hashlib.sha256(data).hexdigest()
    return files, digests


def evaluate(inv, exit_code, out_dir: Path) -> dict:
    files, digests = read_outputs(out_dir)
    problems, measures = inv.check(exit_code, files)
    return {"exit": exit_code, "problems": problems, "measures": measures, "digests": digests}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment_digest(env: dict) -> str:
    """Digest of the probed numeric environment (Python, numpy, scipy, BLAS,
    thread variables), leaving out where the checkout lives."""
    kept = {k: v for k, v in env.items() if k != "specdrift_file"}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()[:16]


class DigestStore:
    """Output digests per (workload, seed, source digest, environment digest),
    kept across runs in one checkout: the same code and seed in the same
    environment must reproduce every data output bit for bit."""

    def __init__(self, key: str):
        self.path = STATE / "digests.json"
        try:
            self.store = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.store = {}
        self.known = self.store.setdefault(key, {})

    def mismatches(self, name: str, digests: dict) -> list:
        known = self.known.setdefault(name, {})
        bad = [f for f, d in digests.items() if known.setdefault(f, d) != d]
        return [f"{f}: digest differs from an earlier run of the same code and seed"
                for f in bad]

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.store, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def measure_setup(work: Path, tag: str, repeats: int, deadline: float) -> list:
    """Fresh-process `specdrift --version` times: interpreter start, the
    numpy/scipy/specdrift imports and parser construction. The probe has
    already written the bytecode caches a user's install has."""
    times = []
    for i in range(repeats):
        d = work / f"setup-{tag}{i}"
        d.mkdir()
        code, wall, _ = spawn([sys.executable, "-m", "specdrift.cli", "--version"], d,
                              deadline - time.monotonic())
        if code != 0:
            raise SystemExit(f"specdrift --version failed (exit {code}):\n{stderr_tail(d)}")
        times.append(wall)
    return times


def run_end_to_end(invocations, seconds, work, store, deadline):
    """Passes over the workload's invocations until `seconds` would be
    exceeded (at least one pass)."""
    begin = time.monotonic()
    setup = measure_setup(work, "before", SETUP_REPEATS // 2, deadline)
    passes, first_digests = [], {}
    measure_start = time.monotonic()
    while True:
        records = []
        for inv in invocations:
            d = work / f"pass{len(passes)}" / inv.name
            d.mkdir(parents=True)
            argv = [sys.executable, "-m", "specdrift.cli", *cli_argv(inv, d)]
            code, wall, rss = spawn(argv, d, deadline - time.monotonic())
            rec = evaluate(inv, code, d)
            rec.update(name=inv.name, wall_s=wall, peak_rss_mb=rss)
            rec["problems"] += store.mismatches(inv.name, rec["digests"])
            first = first_digests.setdefault(inv.name, rec["digests"])
            if first != rec["digests"]:
                rec["problems"].append("digest differs from the first pass of this run")
            records.append(rec)
        passes.append(records)
        elapsed = time.monotonic() - measure_start
        pass_wall = sum(r["wall_s"] for r in records)
        if (any(r["problems"] for r in records) or elapsed + pass_wall > seconds
                or time.monotonic() - begin + pass_wall > LAST_PASS_END_S):
            break
    setup += measure_setup(work, "after", SETUP_REPEATS - len(setup), deadline)
    all_records = [r for p in passes for r in p]
    metrics = {
        "wall_s": statistics.median(sum(r["wall_s"] for r in p) for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in all_records),
    }
    detail = {"setup_s_samples": setup, "passes": passes}
    return metrics, all_records, detail


def run_in_process(invocations, work: Path, trace: bool, deadline: float) -> tuple:
    tag = "traced" if trace else "untraced"
    spec = {"trace": trace, "invocations": []}
    for inv in invocations:
        d = work / tag / inv.name
        d.mkdir(parents=True)
        spec["invocations"].append({"argv": cli_argv(inv, d), "dir": str(d)})
    spec_path, out_path = work / f"{tag}-spec.json", work / f"{tag}-result.json"
    spec_path.write_text(json.dumps(spec))
    code, _, _ = spawn([sys.executable, str(HERE / "child.py"), "run", str(spec_path),
                           str(out_path)], work, deadline - time.monotonic())
    if code != 0:
        raise SystemExit(f"in-process {tag} run failed (exit {code}):\n{stderr_tail(work)}")
    result = json.loads(out_path.read_text())
    records = []
    for inv, res in zip(invocations, result["invocations"]):
        rec = evaluate(inv, res["exit"], work / tag / inv.name)
        rec.update(name=inv.name, wall_s=res["wall_s"], calls=res.get("calls", {}))
        records.append(rec)
    return records, result.get("trace")


def _stat(stats, names, key):
    return sum(stats[n][key] for n in names if n in stats)


def dh_calls_in_support_bounds(spans) -> int:
    parent = {sid: (pid, name) for sid, pid, name, _s, _e in spans}
    count = 0
    for sid, pid, name, _s, _e in spans:
        if name != "stieltjes.density_and_hilbert":
            continue
        while pid in parent:
            pid, up = parent[pid]
            if up == "stieltjes.support_bounds":
                count += 1
                break
    return count


def layer_metrics(trace, untraced, traced, invocations) -> dict:
    stats, counts = trace["stats"], trace["counts"]

    def calls(*names):
        return _stat(stats, names, "calls")

    def self_s(*names):
        return _stat(stats, names, "self_s")

    def group(prefix, suffix):
        return [n for n in stats if n.startswith(prefix) and n.endswith(suffix)]

    m = {}
    m["matrices.sample_goe.calls"] = calls("matrices.sample_goe")
    m["matrices.sample_goe.self_s"] = self_s(*SPAN_GROUPS["matrices.sample_goe"])
    for name in ("matrices.eigh", "matrices.eigvalsh", "subspace.svd", "stieltjes.quad_vec"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    # functions that mostly call other spans: their time including those calls
    for name in ("stieltjes.support_bounds", "stieltjes.solve_grid", "stieltjes.cdf_limit",
                 "stieltjes.theta_limit", "laws.perturbed_quantile",
                 "subspace.predicted_distance"):
        m[f"{name}.total_s"] = _stat(stats, [name], "total_s")
    m["montecarlo.samples"] = calls("montecarlo._draw_sample")
    m["montecarlo.draw.self_s"] = self_s("montecarlo._draw_sample")
    for key in ("initial_eigenvalues", "accumulate", "bin", "estimator"):
        m[f"montecarlo.{key}.self_s"] = self_s(*SPAN_GROUPS[f"montecarlo.{key}"])
    evals = group("profiles.", ".eval")
    m["profiles.eval.calls"] = calls(*evals)
    m["profiles.eval.self_s"] = self_s(*evals)
    m["profiles.root_finds"] = counts.get("profiles.root_finds", 0)
    m["profiles.density.self_s"] = self_s(*group("profiles.", "density"))
    m["stieltjes.fixed_point_solves"] = calls("stieltjes.solve_fixed_point")
    m["stieltjes.solve_fixed_point.self_s"] = self_s("stieltjes.solve_fixed_point")
    m["stieltjes.quad_vec.tabulated_calls"] = sum(
        r["calls"].get("stieltjes.quad_vec", 0)
        for inv, r in zip(invocations, traced) if inv.tabulated)
    m["stieltjes.density_and_hilbert.calls"] = calls("stieltjes.density_and_hilbert")
    m["stieltjes.support_bounds.dh_calls"] = dh_calls_in_support_bounds(trace["spans"])
    m["stieltjes.solve_grid.points"] = counts.get("stieltjes.solve_grid.points", 0)
    m["stieltjes.convergence_errors"] = sum(
        n for _name, kind, n in trace["errors"] if kind == "ConvergenceError")
    goe = [r["measures"] for r in traced if r["name"] == "stieltjes-goe"]
    m["stieltjes.max_abs_err_rho"] = goe[0].get("max_abs_err_rho", 0.0) if goe else 0.0
    m["stieltjes.max_abs_err_hilbert"] = goe[0].get("max_abs_err_hilbert", 0.0) if goe else 0.0
    m["laws.perturbed_quantile.calls"] = calls("laws.perturbed_quantile")
    m["laws.overlap.self_s"] = self_s(*SPAN_GROUPS["laws.overlap"])
    m["subspace.quad.calls"] = counts.get("subspace.quad", 0)
    m["subspace.rank_deficient"] = counts.get("subspace.rank_deficient", 0)
    for sub in ("reproduce", "predict", "stieltjes", "cdf", "theta", "subspace"):
        m[f"cli.{sub}_s"] = stats.get(f"cli.{sub}", {}).get("total_s", 0.0)
    cli_names = [n for n in stats if n.startswith("cli.")]
    traced_wall = _stat(stats, cli_names, "total_s")
    m["trace.overhead_s"] = traced_wall - sum(r["wall_s"] for r in untraced)
    m["trace.coverage"] = ((traced_wall - _stat(stats, cli_names, "self_s")) / traced_wall
                           if traced_wall > 0 else 0.0)
    return m


def probe(work: Path, deadline: float) -> dict:
    d = work / "probe"
    d.mkdir()
    out = d / "probe.json"
    code, _, _ = spawn([sys.executable, str(HERE / "child.py"), "probe", str(out)], d,
                          deadline - time.monotonic())
    if code != 0:
        raise SystemExit(f"cannot import specdrift from {SRC} (exit {code}):\n{stderr_tail(d)}")
    env = json.loads(out.read_text())
    if not Path(env["specdrift_file"]).is_relative_to(SRC.resolve()):
        raise SystemExit(f"specdrift imported from {env['specdrift_file']}, not {SRC}")
    return env


def run_workload(name, seed, seconds, trace, deadline):
    """One workload; returns (metrics, invocation records, result record)."""
    work = STATE / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        env = probe(work, deadline)
        invocations = WORKLOADS[name](seed, work / "inputs")
        store = DigestStore(f"{name}|seed={seed}|src={source_digest()}"
                            f"|env={environment_digest(env)}")
        if trace:
            untraced, _ = run_in_process(invocations, work, False, deadline)
            traced, report = run_in_process(invocations, work, True, deadline)
            records = untraced + traced
            for a, b in zip(untraced, traced):
                if a["digests"] != b["digests"]:
                    b["problems"].append("digest differs between untraced and traced runs")
            for rec in records:
                rec["problems"] += store.mismatches(rec["name"], rec["digests"])
            metrics = layer_metrics(report, untraced, traced, invocations)
            (STATE / f"trace-{name}.json").write_text(json.dumps(report))
            detail = {"untraced": untraced,
                      "traced": [{k: v for k, v in r.items() if k != "calls"} for r in traced]}
        else:
            metrics, records, detail = run_end_to_end(invocations, seconds, work, store, deadline)
        store.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for r in records if r["problems"])
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "metrics": metrics, "attempted": len(records),
              "failed": failed, **detail}
    (STATE / f"result-{name}{'-trace' if trace else ''}.json").write_text(
        json.dumps(result, indent=1))
    return metrics, records, result


def metric_units(trace: bool) -> dict:
    """{metric name: unit} of the end-to-end (trace off) or per-layer
    (trace on) metrics, in the order BENCHMARK.json lists them."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summary_line(name, metrics, records, result, trace):
    if trace:
        shown = ", ".join(f"{k}={metrics[k]:.6g}" for k in
                          ("trace.coverage", "trace.overhead_s", "montecarlo.samples",
                           "stieltjes.fixed_point_solves", "matrices.eigh.calls"))
    else:
        shown = (f"wall_s={metrics['wall_s']:.3f} s, setup_s={metrics['setup_s']:.3f} s, "
                 f"peak_rss_mb={metrics['peak_rss_mb']:.1f} MB, "
                 f"passes={len(result['passes'])}, setup runs={SETUP_REPEATS}")
    problems = [f"{r['name']}: {p}" for r in records for p in r["problems"]]
    return (f"{name}: {shown}, fail_ratio={result['failed']}/{result['attempted']}="
            f"{result['failed'] / result['attempted']:.3f}" + (f" {problems}" if problems else ""))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "specdrift" / "cli.py").is_file():
        print(f"no specdrift source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    broken = selftest.run()
    if broken:
        print("checker self-test failed:\n  " + "\n  ".join(broken), file=sys.stderr)
        return 3
    STATE.mkdir(exist_ok=True)
    units = metric_units(bool(args.trace))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics_out, attempted, failed = {}, 0, 0
    for name in names:
        deadline = time.monotonic() + 175.0
        metrics, records, result = run_workload(name, args.seed, args.seconds,
                                                bool(args.trace), deadline)
        print(f"environment: {json.dumps(result['environment'], sort_keys=True)}")
        print(summary_line(name, metrics, records, result, args.trace))
        attempted += result["attempted"]
        failed += result["failed"]
        if set(metrics) != set(units):
            raise SystemExit(f"{name}: measured metrics {sorted(set(metrics) ^ set(units))} "
                             f"do not match {SPEC.name}")
        prefix = f"{name}." if args.workload == "all" else ""
        for m, unit in units.items():
            metrics_out[prefix + m] = {"value": metrics[m], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
