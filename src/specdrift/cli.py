"""Batch front end: predict / simulate / reproduce / subspace / stieltjes /
theta / cdf subcommands emitting CSV data plus a JSON run manifest.

Exit codes: 0 success, 2 config error, 3 domain error, 4 acceptance
comparison failure, 5 solver failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, laws, montecarlo, stieltjes, subspace
from .errors import (ConfigError, ConvergenceError, DomainError, InvalidProfileError,
                     SpecdriftError)
from .montecarlo import ExperimentConfig, GOEInitial, ProfileInitial, write_manifest
from .profiles import SemicircleQuantileProfile, TabulatedProfile, make_profile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_ACCEPTANCE = 4
EXIT_SOLVER = 5

DEFAULT_SEED = 20260823

# figure-reproduction protocol: n=400, t=1, 1000 samples, targets 200 / 320
FIGURE_PARAMS = {
    "fig1": {"n": 400, "t": 1.0, "samples": 1000, "index": 200, "peak": 0.0},
    "fig2": {"n": 400, "t": 1.0, "samples": 1000, "index": 320, "peak": 0.983},
}
FIGURE_REL_TOL = 0.10
FIGURE_PEAK_TOL = 0.10
FIGURE_RANGE = (-1.8, 1.8)
FIGURE_BIN_WINDOW = 5
FIGURE_MIN_SAMPLES = 200


def parse_profile(spec: str):
    """goe | linear[:lo,hi] | semicircle[:radius] | uniform-gap:span |
    csv:path"""
    kind, _, rest = spec.partition(":")
    kind = kind.lower()
    try:
        if kind == "goe":
            return make_profile("goe")
        if kind == "linear":
            if rest:
                lo, hi = (float(v) for v in rest.split(","))
                return make_profile("linear", lo=lo, hi=hi)
            return make_profile("linear")
        if kind in ("semicircle", "semicircle-quantile"):
            return make_profile("semicircle", radius=float(rest) if rest else 2.0)
        if kind == "uniform-gap":
            return make_profile("uniform-gap", span=float(rest) if rest else 1.0)
        if kind == "csv":
            return TabulatedProfile.from_csv(rest)
    except InvalidProfileError:
        raise
    except (ValueError, IndexError, OSError) as exc:
        raise ConfigError(f"malformed profile spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown profile spec {spec!r}")


def parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"grid must be lo:hi:step, got {spec!r}") from exc
    if step <= 0 or hi < lo:
        raise ConfigError("grid needs hi >= lo and step > 0")
    return np.arange(lo, hi + step / 2, step)


def parse_g(spec: str) -> float:
    """The theta weight g = 1(a <= THR) as its threshold; one is +inf."""
    if spec == "one":
        return float("inf")
    kind, _, value = spec.partition(":")
    try:
        threshold = float(value)
    except ValueError:
        threshold = float("nan")
    if kind != "indicator" or threshold != threshold:
        raise ConfigError(f"bad weight function {spec!r} (use one | indicator:THR)")
    return threshold


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finish(args, name, outputs, started, tolerances=None, extra=None):
    out = _out_dir(args)
    echo = {k: v for k, v in vars(args).items() if k != "func" and not callable(v)}
    if extra:
        echo.update(extra)
    manifest_path = out / f"{name}_manifest.json"
    write_manifest(manifest_path, name, echo, getattr(args, "seed", None),
                   [str(p) for p in outputs], time.time() - started,
                   tolerances=tolerances)
    return manifest_path


def _write_report(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_prediction_csv(path, a_grid, values, regime):
    with open(path, "w", newline="") as fh:
        fh.write("a_j,predicted_overlap,regime_tag\n")
        for a, v in zip(a_grid, values):
            fh.write(f"{a:.12g},{v:.12g},{regime}\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_predict(args) -> int:
    started = time.time()
    profile = parse_profile(args.profile)
    t = args.t
    if args.index is not None:
        if args.n is None:
            raise ConfigError("--index needs --n")
        if not 1 <= args.index <= args.n:
            raise ConfigError("index out of range")
        lam = laws.perturbed_quantile(profile, t, args.index / args.n)
    elif getattr(args, "lam", None) is not None:
        lam = args.lam
    else:
        raise ConfigError("provide --lambda or --index/--n")

    regime = args.regime
    if regime == "auto":
        regime = "goe" if args.profile == "goe" else "full"

    if args.grid:
        a_grid = parse_grid(args.grid)
    elif args.n is not None:
        x = (np.arange(1, args.n + 1) - 0.5) / args.n
        a_grid = np.asarray(profile.eval(x))
    else:
        lo, hi = profile.support
        a_grid = np.linspace(lo + 1e-9, hi - 1e-9, 401)

    if regime == "goe":
        if not isinstance(profile, SemicircleQuantileProfile):
            raise ConfigError("--regime goe needs a semicircle profile (goe or semicircle:R)")
        values = laws.overlap_goe(t, lam, a_grid, profile.radius)
    elif regime == "cauchy":
        values = laws.overlap_cauchy(t, lam, a_grid,
                                     laws.density_line_at(profile, 0.0, lam))
    elif regime == "full":
        line = stieltjes.density_and_hilbert(profile, t, lam)
        values = laws.overlap_full(t, lam, a_grid, line)
    else:
        raise ConfigError(f"unknown regime {regime!r}")

    out = _out_dir(args) / "prediction.csv"
    _write_prediction_csv(out, a_grid, values, regime)
    _finish(args, "predict", [out], started, extra={"lambda_used": lam})
    print(f"wrote {out} ({regime} regime, lambda={lam:.6g})")
    return EXIT_OK


def _experiment_config(args) -> ExperimentConfig:
    """Config of simulate, theta and cdf. An explicit --profile must match a GOE
    start's own semicircle; a profile start defaults to goe."""
    if args.initial == "goe":
        initial = GOEInitial(args.scale)
        if (args.profile is not None
                and parse_profile(args.profile).cache_token != initial.profile.cache_token):
            raise ConfigError(f"--profile {args.profile} conflicts with the GOE start "
                              f"(semicircle of radius {initial.profile.radius:g})")
    else:
        initial = ProfileInitial(parse_profile(args.profile or "goe"))
    return ExperimentConfig(n=args.n, t=args.t, samples=args.samples,
                            initial=initial,
                            target_indices=tuple(getattr(args, "index", None) or ()),
                            master_seed=args.seed, binning=getattr(args, "binning", 1))


def cmd_simulate(args) -> int:
    started = time.time()
    config = _experiment_config(args)
    if not config.target_indices:
        raise ConfigError("simulate needs at least one --index")
    curves = montecarlo.run_overlap_experiment(config, workers=args.workers)
    outputs = []
    out = _out_dir(args)
    for idx, curve in curves.items():
        path = out / f"overlap_i{idx}.csv"
        curve.to_csv(path)
        outputs.append(path)
    _finish(args, "simulate", outputs, started, extra={"config": config.describe()})
    for path in outputs:
        print(f"wrote {path}")
    return EXIT_OK


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
    report dict (pass/fail thresholds from the acceptance protocol)."""
    params = FIGURE_PARAMS[figure]
    n, t = params["n"], params["t"]
    binned = montecarlo.bin_overlap_curve(curve, FIGURE_BIN_WINDOW)
    profile = make_profile("goe")
    lam = laws.perturbed_quantile(profile, t, params["index"] / n)
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
        "peak_expected": params["peak"],
        "peak_tol": FIGURE_PEAK_TOL,
        "rel_error_pass": bool(np.max(rel) <= FIGURE_REL_TOL),
        "peak_pass": bool(abs(peak - params["peak"]) <= FIGURE_PEAK_TOL),
        "samples": curve.samples,
    }


def cmd_reproduce(args) -> int:
    started = time.time()
    params = FIGURE_PARAMS[args.figure]
    samples = args.samples or params["samples"]
    config = ExperimentConfig(n=params["n"], t=params["t"], samples=samples,
                              initial=GOEInitial(1.0),
                              target_indices=(params["index"],),
                              master_seed=args.seed)
    curve = montecarlo.run_overlap_experiment(config, workers=args.workers)[params["index"]]
    report = compare_figure(curve, args.figure)
    report["threshold_checked"] = samples >= FIGURE_MIN_SAMPLES

    out = _out_dir(args)
    emp_path = out / f"{args.figure}_empirical.csv"
    curve.to_csv(emp_path)
    pred_path = out / f"{args.figure}_prediction.csv"
    x = (np.arange(1, params["n"] + 1) - 0.5) / params["n"]
    a_grid = np.asarray(config.initial.profile.eval(x))
    _write_prediction_csv(pred_path, a_grid,
                          laws.overlap_goe(params["t"], report["lambda_used"], a_grid),
                          "goe-closed-form")
    report_path = out / f"{args.figure}_report.json"
    _write_report(report_path, report)
    _finish(args, "reproduce", [emp_path, pred_path, report_path], started,
            tolerances={"rel_tol": FIGURE_REL_TOL, "peak_tol": FIGURE_PEAK_TOL},
            extra={"config": config.describe()})

    if not report["threshold_checked"]:
        print(f"{args.figure}: report only ({samples} samples below minimum "
              f"{FIGURE_MIN_SAMPLES}); max rel error {report['max_rel_error_bulk']:.3f}")
        return EXIT_OK
    ok = report["rel_error_pass"] and report["peak_pass"]
    print(f"{args.figure}: max bulk rel error {report['max_rel_error_bulk']:.3f} "
          f"(tol {FIGURE_REL_TOL}), peak {report['peak_location']:.3f} vs "
          f"{params['peak']} -> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_ACCEPTANCE


def cmd_subspace(args) -> int:
    started = time.time()
    if args.delta <= 0:
        raise ConfigError("margin --delta must be positive (the prediction "
                          "integral diverges without it)")
    window = subspace.WindowSpec(args.gamma[0], args.gamma[1], args.delta)
    config = ExperimentConfig(n=args.n, t=args.t, samples=args.samples,
                              initial=GOEInitial(args.scale), master_seed=args.seed)
    result = subspace.run_subspace_experiment(config, window, workers=args.workers)
    profile = config.initial.profile
    predicted = subspace.predicted_distance(args.t, window, profile.density,
                                            profile.support)
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
    out = _out_dir(args) / "subspace_report.json"
    _write_report(out, report)
    _finish(args, "subspace", [out], started,
            extra={"rank_deficient_samples": result.rank_deficient})
    ratio = "n/a" if report["ratio"] is None else f"{report['ratio']:.3f}"
    print(f"empirical D = {empirical:.6g} +- {result.distance.stderr_re:.2g}, "
          f"predicted {predicted:.6g}, ratio {ratio}, "
          f"{result.rank_deficient} rank-deficient samples left out")
    return EXIT_OK


def cmd_stieltjes(args) -> int:
    started = time.time()
    profile = parse_profile(args.profile)
    grid = parse_grid(args.grid)
    try:
        etas = tuple(float(v) for v in args.eta.split(",")) if args.eta else stieltjes.DEFAULT_ETA_SCHEDULE
    except ValueError as exc:
        raise ConfigError(f"--eta must be comma-separated numbers, got {args.eta!r}") from exc
    sol = stieltjes.solve_grid(profile, args.t, grid, eta_schedule=etas, tol=args.tol)
    out = _out_dir(args) / "stieltjes.csv"
    sol.to_csv(out)
    _finish(args, "stieltjes", [out], started, tolerances={"tol": args.tol})
    print(f"wrote {out} ({len(grid)} lambda points, {len(etas)} eta levels)")
    return EXIT_OK


def cmd_theta(args) -> int:
    started = time.time()
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
    out = _out_dir(args) / "theta.json"
    _write_report(out, report)
    _finish(args, "theta", [out], started)
    print(f"Theta_N = {est.value:.6g} (+- {est.stderr_re:.2g}/{est.stderr_im:.2g}), "
          f"limit {limit:.6g}")
    return EXIT_OK


def cmd_cdf(args) -> int:
    started = time.time()
    config = _experiment_config(args)
    est = montecarlo.empirical_cdf(config, args.lam, args.alpha, workers=args.workers)
    limit = stieltjes.cdf_limit(config.initial.profile, args.t, args.lam, args.alpha)
    report = {
        "lambda": args.lam, "alpha": args.alpha,
        "empirical": est.value.real, "stderr": est.stderr_re,
        "limit": limit, "config": config.describe(),
    }
    out = _out_dir(args) / "cdf.json"
    _write_report(out, report)
    _finish(args, "cdf", [out], started)
    print(f"Phi_N({args.lam}, {args.alpha}) = {est.value.real:.6g} "
          f"+- {est.stderr_re:.2g}, limit {limit:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sp, workers=True):
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    if workers:  # the Monte Carlo subcommands
        sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out-dir", default=".")
    sp.add_argument("--config", default=None, help="INI file; section per subcommand")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="specdrift", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("predict", help="closed-form / solver overlap curves")
    p.add_argument("--profile", default="goe")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--regime", choices=["auto", "full", "goe", "cauchy"], default="auto")
    p.add_argument("--grid", default=None, help="a_j grid lo:hi:step")
    _add_common(p, workers=False)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="finite-N overlap experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--index", type=int, nargs="+", required=True)
    p.add_argument("--initial", choices=["goe", "profile"], default="goe")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--profile", default=None)
    p.add_argument("--binning", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="figure-scale empirical vs prediction check")
    p.add_argument("figure", choices=sorted(FIGURE_PARAMS))
    p.add_argument("--samples", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("subspace", help="window subspace distance experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--gamma", type=float, nargs=2, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_subspace)

    p = sub.add_parser("stieltjes", help="solve the fixed point on a grid")
    p.add_argument("--profile", default="goe")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid", required=True, help="lambda grid lo:hi:step")
    p.add_argument("--eta", default=None, help="comma-separated eta schedule")
    p.add_argument("--tol", type=float, default=stieltjes.DEFAULT_TOL)
    _add_common(p, workers=False)
    p.set_defaults(func=cmd_stieltjes)

    p = sub.add_parser("theta", help="resolvent trace functional, empirical vs limit")
    p.add_argument("--profile", default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--z", type=float, nargs=2, required=True, metavar=("RE", "IM"))
    p.add_argument("--g", default="one")
    p.add_argument("--initial", choices=["goe", "profile"], default="goe")
    p.add_argument("--scale", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("cdf", help="bivariate overlap CDF, empirical vs limit")
    p.add_argument("--profile", default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--initial", choices=["goe", "profile"], default="goe")
    p.add_argument("--scale", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_cdf)

    return parser


def _apply_config_file(argv):
    """Prepend flag defaults from an INI file (section = subcommand) so that
    explicit command-line flags still win."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise ConfigError("--config needs a file path")
    path = argv[idx + 1]
    sub = argv[0]
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path}")
    if not cp.has_section(sub):
        return argv
    injected = []
    for key, value in cp.items(sub):
        injected.append(f"--{key}")
        injected.extend(value.split())
    return [sub] + injected + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if argv and not argv[0].startswith("-"):
            argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidProfileError as exc:
        print(f"invalid profile: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except SpecdriftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
