"""Batch front end: predict / simulate / reproduce / subspace / stieltjes /
theta / cdf subcommands emitting CSV data plus a JSON run manifest.

Exit codes: 0 success, 2 config error, 3 domain error, 4 acceptance
comparison failure, 5 solver failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

# One BLAS thread unless the user set a count: --workers overlaps draws with
# decompositions instead, and the eigensolver's rounding depends on the
# count. The variables only take effect before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

# Only what every subcommand needs loads here; each subcommand imports the
# compute modules it calls, so a predict or stieltjes run skips the Monte
# Carlo stack.
from . import __version__, stieltjes
from .errors import (ConfigError, ConvergenceError, DomainError, InvalidProfileError,
                     SpecdriftError)
from .profiles import SemicircleQuantileProfile, parse_profile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_ACCEPTANCE = 4
EXIT_SOLVER = 5

#: error type -> (exit code, stderr label), the first match wins
ERRORS = ((ConfigError, EXIT_CONFIG, "config error"),
          (InvalidProfileError, EXIT_CONFIG, "invalid profile"),
          (ConvergenceError, EXIT_SOLVER, "solver failure"),
          (DomainError, EXIT_DOMAIN, "domain error"),
          (SpecdriftError, EXIT_DOMAIN, "error"))

DEFAULT_SEED = 20260823

# figure-reproduction protocol: n=400, t=1, 1000 samples, targets 200 / 320
FIGURE_PARAMS = {
    "fig1": {"n": 400, "t": 1.0, "samples": 1000, "index": 200},
    "fig2": {"n": 400, "t": 1.0, "samples": 1000, "index": 320},
}
FIGURE_REL_TOL = 0.10
FIGURE_PEAK_TOL = 0.10
FIGURE_RANGE = (-1.8, 1.8)
FIGURE_BIN_WINDOW = 5
FIGURE_MIN_SAMPLES = 200
MAX_GRID_POINTS = 10 ** 6


def finite_float(text: str) -> float:
    """The number text spells; nan and infinities raise ValueError, which
    argparse reports as a usage error (exit 2)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (finite_float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"grid must be lo:hi:step of finite numbers, got {spec!r}") from exc
    if step <= 0 or hi < lo:
        raise ConfigError("grid needs hi >= lo and step > 0")
    if (hi - lo) / step + 1 > MAX_GRID_POINTS:  # counted before any is allocated
        raise ConfigError(f"grid {spec!r} has more than {MAX_GRID_POINTS:.0e} points")
    return np.arange(lo, hi + step / 2, step)


def parse_g(spec: str) -> float:
    """The theta weight g = 1(a <= THR) as its threshold; one is +inf."""
    if spec == "one":
        return float("inf")
    kind, _, value = spec.partition(":")
    if kind == "indicator":
        try:
            return finite_float(value)
        except ValueError:
            pass
    raise ConfigError(f"bad weight function {spec!r} (use one | indicator:THR, "
                      "THR a finite number)")


class Done(NamedTuple):
    """A subcommand's data files, stdout message, manifest config-echo
    extras, checked tolerances and exit code, handed to _run."""

    outputs: list
    message: str
    extra: dict | None = None
    tolerances: dict | None = None
    code: int = EXIT_OK


def _write_json(path, obj, **options):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, **options)
        fh.write("\n")


def _write_prediction_csv(path, a_grid, values, regime):
    with open(path, "w", newline="") as fh:
        fh.write("a_j,predicted_overlap,regime_tag\n")
        for a, v in zip(a_grid, values):
            fh.write(f"{a:.12g},{v:.12g},{regime}\n")


# ---------------------------------------------------------------------------
# subcommands: each writes its data files into `out` and returns a Done


def cmd_predict(args, out) -> Done:
    from . import laws
    profile = parse_profile(args.profile)
    t = args.t
    if args.index is not None:
        if args.lam is not None:
            raise ConfigError("give --lambda or --index/--n, not both")
        if args.n is None:
            raise ConfigError("--index needs --n")
        if not 1 <= args.index <= args.n:
            raise ConfigError("index out of range")
        lam = laws.perturbed_quantile(profile, t, args.index / args.n)
    elif args.lam is not None:
        lam = args.lam
    else:
        raise ConfigError("provide --lambda or --index/--n")

    regime = args.regime
    if regime == "auto":
        regime = "goe" if isinstance(profile, SemicircleQuantileProfile) else "full"

    if args.grid:
        a_grid = parse_grid(args.grid)
    elif args.n is not None:
        a_grid = profile.quantiles(args.n)
    else:
        lo, hi = profile.support
        a_grid = np.linspace(lo + 1e-9, hi - 1e-9, 401)

    if regime == "goe":
        if not isinstance(profile, SemicircleQuantileProfile):
            raise ConfigError("--regime goe needs a semicircle profile (goe or semicircle:R)")
        values = laws.overlap_goe(t, lam, a_grid, profile.radius)
    else:  # full, or cauchy: the kernel on the initial (t = 0) boundary value
        m = stieltjes.boundary_values(profile, 0.0 if regime == "cauchy" else t, [lam])[0][0]
        values = laws.overlap_full(t, lam, a_grid, m)

    path = out / "prediction.csv"
    _write_prediction_csv(path, a_grid, values, regime)
    return Done([path], f"wrote {path} ({regime} regime, lambda={lam:.6g})",
                extra={"lambda_used": lam})


def _experiment_config(args):
    """The ExperimentConfig of simulate, theta and cdf. An explicit --profile
    must match a GOE start's own semicircle; a profile start defaults to goe
    and takes no --scale."""
    from .montecarlo import ExperimentConfig, GOEInitial, ProfileInitial
    if args.initial == "goe":
        initial = GOEInitial(args.scale)
        if (args.profile is not None
                and parse_profile(args.profile).spec != initial.profile.spec):
            raise ConfigError(f"--profile {args.profile} conflicts with the GOE start "
                              f"(semicircle of radius {initial.profile.radius:g})")
    elif args.scale != 1.0:
        raise ConfigError("--scale sets the GOE start; a profile start takes its "
                          "scale from --profile")
    else:
        initial = ProfileInitial(parse_profile(args.profile or "goe"))
    return ExperimentConfig(n=args.n, t=args.t, samples=args.samples,
                            initial=initial,
                            target_indices=tuple(getattr(args, "index", None) or ()),
                            master_seed=args.seed, binning=getattr(args, "binning", 1))


def cmd_simulate(args, out) -> Done:
    from . import montecarlo
    config = _experiment_config(args)
    curves = montecarlo.run_overlap_experiment(config, workers=args.workers)
    paths = [out / f"overlap_i{idx}.csv" for idx in curves]
    for path, curve in zip(paths, curves.values()):
        curve.to_csv(path)
    return Done(paths, "\n".join(f"wrote {path}" for path in paths),
                extra={"config": config.describe()})


def _parabolic_peak(a, values):
    """Peak abscissa from a quadratic fit within 0.4 of the argmax (variance
    reduction over a bare argmax on a noisy, flat-topped curve)."""
    j = int(np.argmax(values))
    sel = np.abs(a - a[j]) <= 0.4
    if sel.sum() < 3:
        return float(a[j])
    coef = np.polyfit(a[sel], values[sel], 2)
    if coef[0] >= 0:
        return float(a[j])
    top = -coef[1] / (2 * coef[0])
    lo, hi = a[sel].min(), a[sel].max()
    return float(min(max(top, lo), hi))


def compare_figure(curve, figure: str):
    """Binned empirical curve vs the GOE closed form; returns the comparison
    report dict (pass/fail thresholds from the acceptance protocol). The
    expected peak is the kernel's, at a = lambda + t H_t(lambda)."""
    from . import laws, montecarlo
    params = FIGURE_PARAMS[figure]
    n, t = params["n"], params["t"]
    binned = montecarlo.bin_overlap_curve(curve, FIGURE_BIN_WINDOW)
    lam = laws.perturbed_quantile(SemicircleQuantileProfile(), t, params["index"] / n)
    expected = lam + t * stieltjes.semicircle_stieltjes(t, lam).real
    lo, hi = FIGURE_RANGE
    sel = (binned.a >= lo) & (binned.a <= hi)
    predicted = laws.overlap_goe(t, lam, binned.a[sel])
    rel = np.abs(binned.values[sel] - predicted) / predicted
    peak = _parabolic_peak(binned.a, binned.values)
    return {
        "figure": figure,
        "lambda_used": lam,
        "max_rel_error_bulk": float(np.max(rel)),
        "mean_rel_error_bulk": float(np.mean(rel)),
        "rel_tol": FIGURE_REL_TOL,
        "peak_location": peak,
        "peak_expected": expected,
        "peak_tol": FIGURE_PEAK_TOL,
        "rel_error_pass": bool(np.max(rel) <= FIGURE_REL_TOL),
        "peak_pass": bool(abs(peak - expected) <= FIGURE_PEAK_TOL),
        "samples": curve.samples,
    }


def cmd_reproduce(args, out) -> Done:
    from . import laws, montecarlo
    from .montecarlo import ExperimentConfig, GOEInitial
    params = FIGURE_PARAMS[args.figure]
    samples = params["samples"] if args.samples is None else args.samples
    config = ExperimentConfig(n=params["n"], t=params["t"], samples=samples,
                              initial=GOEInitial(1.0),
                              target_indices=(params["index"],),
                              master_seed=args.seed)
    curve = montecarlo.run_overlap_experiment(config, workers=args.workers)[params["index"]]
    report = compare_figure(curve, args.figure)
    report["threshold_checked"] = samples >= FIGURE_MIN_SAMPLES

    emp_path = out / f"{args.figure}_empirical.csv"
    curve.to_csv(emp_path)
    pred_path = out / f"{args.figure}_prediction.csv"
    a_grid = config.initial.profile.quantiles(params["n"])
    _write_prediction_csv(pred_path, a_grid,
                          laws.overlap_goe(params["t"], report["lambda_used"], a_grid),
                          "goe-closed-form")
    report_path = out / f"{args.figure}_report.json"
    _write_json(report_path, report, allow_nan=False)

    ok = not report["threshold_checked"] or (report["rel_error_pass"] and report["peak_pass"])
    if report["threshold_checked"]:
        message = (f"{args.figure}: max bulk rel error {report['max_rel_error_bulk']:.3f} "
                   f"(tol {FIGURE_REL_TOL}), peak {report['peak_location']:.3f} vs "
                   f"{report['peak_expected']} -> {'PASS' if ok else 'FAIL'}")
    else:
        message = (f"{args.figure}: report only ({samples} samples below minimum "
                   f"{FIGURE_MIN_SAMPLES}); max rel error {report['max_rel_error_bulk']:.3f}")
    return Done([emp_path, pred_path, report_path], message,
                extra={"config": config.describe()},
                tolerances={"rel_tol": FIGURE_REL_TOL, "peak_tol": FIGURE_PEAK_TOL},
                code=EXIT_OK if ok else EXIT_ACCEPTANCE)


def cmd_subspace(args, out) -> Done:
    from . import subspace
    from .montecarlo import ExperimentConfig, GOEInitial
    if args.delta <= 0:
        raise ConfigError("margin --delta must be positive (the prediction "
                          "integral diverges without it)")
    window = subspace.WindowSpec(args.gamma[0], args.gamma[1], args.delta)
    config = ExperimentConfig(n=args.n, t=args.t, samples=args.samples,
                              initial=GOEInitial(args.scale), master_seed=args.seed)
    result = subspace.run_subspace_experiment(config, window, workers=args.workers)
    # the semicircle quantile bridge maps V1's window back to initial coordinates
    profile = config.initial.profile
    shrink = profile.radius / (2.0 * np.sqrt(profile.radius ** 2 / 4.0 + args.t))
    predicted = subspace.predicted_distance(args.t, window.inner,
                                            np.multiply(shrink, window.outer), profile)
    empirical = result.distance.value.real
    report = {
        "window": {"gamma_minus": window.gamma_minus, "gamma_plus": window.gamma_plus,
                   "delta": window.delta},
        "empirical_distance": empirical,
        "empirical_stderr": result.distance.stderr_re,
        "predicted_distance": predicted,
        "ratio": empirical / predicted if predicted > 0 else None,
        "mean_P": result.mean_p,
        "mean_Q": result.mean_q,
        "rank_deficient_samples": result.rank_deficient,
        "config": config.describe(),
    }
    path = out / "subspace_report.json"
    _write_json(path, report, allow_nan=False)
    ratio = "n/a" if report["ratio"] is None else f"{report['ratio']:.3f}"
    return Done([path], f"empirical D = {empirical:.6g} +- {result.distance.stderr_re:.2g}, "
                        f"predicted {predicted:.6g}, ratio {ratio}, "
                        f"{result.rank_deficient} rank-deficient samples left out",
                extra={"rank_deficient_samples": result.rank_deficient})


def cmd_stieltjes(args, out) -> Done:
    profile = parse_profile(args.profile)
    grid = parse_grid(args.grid)
    try:
        etas = tuple(finite_float(v) for v in args.eta.split(",")) if args.eta else stieltjes.DEFAULT_ETA_SCHEDULE
    except ValueError as exc:
        raise ConfigError(f"--eta must be comma-separated finite numbers, got {args.eta!r}") from exc
    sol = stieltjes.solve_grid(profile, args.t, grid, eta_schedule=etas, tol=args.tol)
    path = out / "stieltjes.csv"
    sol.to_csv(path)
    return Done([path], f"wrote {path} ({len(grid)} lambda points, {len(etas)} eta levels)",
                tolerances={"tol": args.tol})


def cmd_theta(args, out) -> Done:
    from . import montecarlo
    z = complex(args.z[0], args.z[1])
    threshold = parse_g(args.g)
    config = _experiment_config(args)
    est = montecarlo.estimate_theta(config, z, threshold, workers=args.workers)
    limit = stieltjes.theta_limit(config.initial.profile, args.t, z, threshold)
    report = {
        "z": [z.real, z.imag], "g": args.g,
        "empirical": [est.value.real, est.value.imag],
        "stderr": [est.stderr_re, est.stderr_im],
        "limit": [limit.real, limit.imag],
        "config": config.describe(),
    }
    path = out / "theta.json"
    _write_json(path, report, allow_nan=False)
    return Done([path], f"Theta_N = {est.value:.6g} (+- {est.stderr_re:.2g}/"
                        f"{est.stderr_im:.2g}), limit {limit:.6g}")


def cmd_cdf(args, out) -> Done:
    from . import montecarlo
    config = _experiment_config(args)
    est = montecarlo.empirical_cdf(config, args.lam, args.alpha, workers=args.workers)
    limit = stieltjes.cdf_limit(config.initial.profile, args.t, args.lam, args.alpha)
    report = {
        "lambda": args.lam, "alpha": args.alpha,
        "empirical": est.value.real, "stderr": est.stderr_re,
        "limit": limit, "config": config.describe(),
    }
    path = out / "cdf.json"
    _write_json(path, report, allow_nan=False)
    return Done([path], f"Phi_N({args.lam}, {args.alpha}) = {est.value.real:.6g} "
                        f"+- {est.stderr_re:.2g}, limit {limit:.6g}")


# ---------------------------------------------------------------------------
# option table and runner

def default_workers() -> int:
    """Two pipeline stages, so two threads when two CPUs are available: one
    draws the next sample while the calling thread decomposes this one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


T = {"--t": dict(type=finite_float, required=True)}
WORKERS = {"--workers": dict(type=int, default=default_workers(),
                             help="threads: the calling one decomposes, the others "
                                  "draw samples ahead and run subspace's SVDs "
                                  "(default: %(default)s)")}
MONTE_CARLO = {"--n": dict(type=int, required=True), **T,
               "--samples": dict(type=int, required=True), **WORKERS}
START = {"--initial": dict(choices=["goe", "profile"], default="goe"),
         "--scale": dict(type=finite_float, default=1.0), "--profile": dict(default=None)}
COMMON = {"--seed": dict(type=int, default=DEFAULT_SEED), "--out-dir": dict(default="."),
          "--config": dict(default=None, help="INI file; section per subcommand")}

#: subcommand -> (function, help, {flag: argparse keywords}); COMMON is added to each
COMMANDS = {
    "predict": (cmd_predict, "closed-form / solver overlap curves", {
        "--profile": dict(default="goe"), **T,
        "--index": dict(type=int, default=None), "--n": dict(type=int, default=None),
        "--lambda": dict(dest="lam", type=finite_float, default=None),
        "--regime": dict(choices=["auto", "full", "goe", "cauchy"], default="auto"),
        "--grid": dict(default=None, help="a_j grid lo:hi:step")}),
    "simulate": (cmd_simulate, "finite-N overlap experiment", {
        **MONTE_CARLO, "--index": dict(type=int, nargs="+", required=True), **START,
        "--binning": dict(type=int, default=1)}),
    "reproduce": (cmd_reproduce, "figure-scale empirical vs prediction check", {
        "figure": dict(choices=sorted(FIGURE_PARAMS)),
        "--samples": dict(type=int, default=None), **WORKERS}),
    "subspace": (cmd_subspace, "window subspace distance experiment", {
        **MONTE_CARLO, "--gamma": dict(type=finite_float, nargs=2, required=True),
        "--delta": dict(type=finite_float, required=True), "--scale": START["--scale"]}),
    "stieltjes": (cmd_stieltjes, "solve the fixed point on a grid", {
        "--profile": dict(default="goe"), **T,
        "--grid": dict(required=True, help="lambda grid lo:hi:step"),
        "--eta": dict(default=None, help="comma-separated eta schedule"),
        "--tol": dict(type=finite_float, default=stieltjes.DEFAULT_TOL)}),
    "theta": (cmd_theta, "resolvent trace functional, empirical vs limit", {
        **MONTE_CARLO, "--z": dict(type=finite_float, nargs=2, required=True, metavar=("RE", "IM")),
        "--g": dict(default="one"), **START}),
    "cdf": (cmd_cdf, "bivariate overlap CDF, empirical vs limit", {
        **MONTE_CARLO, "--lambda": dict(dest="lam", type=finite_float, required=True),
        "--alpha": dict(type=finite_float, required=True), **START}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="specdrift", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in {**flags, **COMMON}.items():
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def _apply_config_file(argv):
    """Prepend flag values from an INI file (section = subcommand) so that
    explicit command-line flags still win. A value is one argument, split
    on whitespace only for a flag that takes several (nargs)."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise ConfigError("--config needs a file path")
    import configparser
    path, sub = argv[idx + 1], argv[0]
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path}")
    if sub not in COMMANDS or not cp.has_section(sub):
        return argv
    flags = {**COMMANDS[sub][2], **COMMON}
    injected = []
    for key, value in cp.items(sub):
        options = flags.get(f"--{key}")
        if options is None:
            raise ConfigError(f"unknown key {key!r} in section [{sub}] of {path}")
        injected += [f"--{key}", *value.split()] if "nargs" in options else [f"--{key}={value}"]
    return [sub] + injected + argv[1:]


def _run(args) -> int:
    """Run one subcommand: time it, create --out-dir, write its manifest
    and print its message; returns its exit code."""
    started = time.time()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    done = args.func(args, out)
    echo = {k: v for k, v in vars(args).items() if k != "func"}
    echo.update(done.extra or {})
    _write_json(out / f"{args.subcommand}_manifest.json", {
        "subcommand": args.subcommand,
        "config": echo,
        "master_seed": args.seed,
        "toolkit_version": __version__,
        "duration_seconds": time.time() - started,
        "outputs": [str(p) for p in done.outputs],
        "tolerances": done.tolerances or {},
    }, sort_keys=True)
    print(done.message)
    return done.code


def main(argv=None) -> int:
    """Run the subcommand that argv names; returns its exit code. With no
    argv the run is the process's own (the command line): the heap that
    start-up built lives until exit, so it is frozen, and the cyclic
    collector traverses it no more, during the run or at exit. A library
    call freezes nothing."""
    if argv is None:
        gc.freeze()
        argv = sys.argv[1:]
    argv = list(argv)
    try:
        if argv and not argv[0].startswith("-"):
            argv = _apply_config_file(argv)
        return _run(build_parser().parse_args(argv))
    except SpecdriftError as exc:
        code, label = next((code, label) for kind, code, label in ERRORS if isinstance(exc, kind))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
