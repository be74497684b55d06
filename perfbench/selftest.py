"""Self-test of the output checkers: each accepts a known-good output and
rejects known-bad ones (a truncated CSV, JSON containing Infinity, an
off-tolerance density, ...). Runs in milliseconds; run.py calls it before
every benchmark run.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys

import checks

N = 40
GOE_GRID = "-3:3:0.5"
SYM_GRID = "-2:2:0.02"
ETAS = 4


def _lines(header, rows):
    return "\r\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\r\n"


def _grid(spec):
    lo, hi, step = (float(v) for v in spec.split(":"))
    return [lo + k * step for k in range(checks.grid_size(spec))]


def _stieltjes_csv(grid, rho, hilbert):
    rows = [[f"{lam:.12g}", f"{eta:.12g}", "0", "0", f"{rho(lam):.12g}", f"{hilbert(lam):.12g}"]
            for lam in grid for eta in (1e-2, 5e-3, 2.5e-3, 1.25e-3)]
    return {"stieltjes.csv": _lines(["lambda", "eta", "reG", "imG", "rho", "hilbert"], rows)}


def semicircle_quantile(p):
    """Quantile of the radius-2 semicircle law, by bisection of its CDF."""
    lo, hi = -2.0, 2.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        cdf = (0.5 + mid * math.sqrt(4.0 - mid * mid) / (4.0 * math.pi)
               + math.asin(mid / 2.0) / math.pi)
        lo, hi = (mid, hi) if cdf < p else (lo, mid)
    return (lo + hi) / 2.0


def figure_files(mass=1.0, binned_error=None):
    """A fig1 output: the closed form on the semicircle quantile grid with
    +-5% alternating noise, normalized to the given row mass; the report's
    binned mean error is a third of the curve's unbinned error unless given."""
    a = [semicircle_quantile((j + 0.5) / N) for j in range(N)]
    raw = [checks.overlap_goe(1.0, 0.0, x) * (1.0 + 0.05 * (-1) ** j) for j, x in enumerate(a)]
    values = [v * mass * N / sum(raw) for v in raw]
    empirical = [[str(j + 1), f"{x:.12g}", f"{v:.12g}", "0.01"]
                 for j, (x, v) in enumerate(zip(a, values))]
    prediction = [[f"{x:.12g}", f"{checks.overlap_goe(1.0, 0.0, x):.12g}", "goe-closed-form"]
                  for x in a]
    unbinned = checks.bulk_rel_errors(zip(a, values), 1.0, 0.0)
    unbinned = sum(unbinned) / len(unbinned)
    report = {"samples": 100, "threshold_checked": False, "lambda_used": 1e-16,
              "peak_location": 0.01, "peak_expected": 0.0, "peak_pass": True,
              "max_rel_error_bulk": 0.2,
              "mean_rel_error_bulk": unbinned / 3.0 if binned_error is None else binned_error}
    return {
        "fig1_report.json": json.dumps(report),
        "fig1_empirical.csv": _lines(["j", "a_j_mean", "overlap_mean_timesN", "stderr_timesN"],
                                     empirical),
        "fig1_prediction.csv": _lines(["a_j", "predicted_overlap", "regime_tag"], prediction),
    }


def predict_files(lam):
    rows = [[f"{x / N:.12g}", "0.5", "full"] for x in range(N)]
    return {"predict_manifest.json": json.dumps({"config": {"lambda_used": lam}}),
            "prediction.csv": _lines(["a_j", "predicted_overlap", "regime_tag"], rows)}


def _modified(files, name, fn):
    return {**files, name: fn(files[name])}


def cases():
    """(description, checker, params, files, should pass)."""
    fig = figure_files()
    fig_params = {"figure": "fig1", "n": N, "t": 1.0, "samples": 100}
    goe = {"t": 1.0, "grid": GOE_GRID, "etas": ETAS}
    goe_good = _stieltjes_csv(_grid(GOE_GRID), lambda x: checks.semicircle_density(1.0, x),
                              lambda x: checks.semicircle_hilbert(1.0, x))
    goe_bad = _stieltjes_csv(_grid(GOE_GRID),
                             lambda x: checks.semicircle_density(1.0, x) + (1e-5 if x == 0 else 0),
                             lambda x: checks.semicircle_hilbert(1.0, x))
    sym = {"grid": SYM_GRID, "etas": ETAS}
    bump = lambda x: 0.75 * (1.0 - x * x) if abs(x) < 1.0 else 0.0  # noqa: E731
    sym_good = _stieltjes_csv(_grid(SYM_GRID), bump, lambda x: -0.5 * x)
    sym_bad = _stieltjes_csv(_grid(SYM_GRID), lambda x: bump(x) * (1.0 + 0.01 * x),
                             lambda x: -0.5 * x)
    subspace = {"ratio": 1.06}
    return [
        ("figure good", checks.check_figure, fig_params, fig, True),
        ("figure CSV truncated inside its last value", checks.check_figure, fig_params,
         _modified(fig, "fig1_empirical.csv", lambda s: s[:-3]), False),
        ("figure missing last row", checks.check_figure, fig_params,
         _modified(fig, "fig1_empirical.csv", lambda s: s[: s.rindex("\r\n", 0, -2) + 2]),
         False),
        ("figure row mass off by 1e-6", checks.check_figure, fig_params,
         figure_files(mass=1.0 + 1e-6), False),
        ("figure binned error above the CLI tolerance", checks.check_figure, fig_params,
         figure_files(binned_error=0.12), False),
        ("figure binning left the unbinned error", checks.check_figure, fig_params,
         figure_files(binned_error=json.loads(fig["fig1_report.json"])["mean_rel_error_bulk"] * 3),
         False),
        ("figure peak off", checks.check_figure, fig_params,
         _modified(fig, "fig1_report.json", lambda s: s.replace('"peak_location": 0.01',
                                                               '"peak_location": 0.2')),
         False),
        ("predict good", checks.check_predict, {"n": N}, predict_files(-2.9e-16), True),
        ("predict lambda off", checks.check_predict, {"n": N}, predict_files(1e-6), False),
        ("stieltjes goe good", checks.check_stieltjes_goe, goe, goe_good, True),
        ("stieltjes goe rho off by 1e-5", checks.check_stieltjes_goe, goe, goe_bad, False),
        ("stieltjes symmetric good", checks.check_stieltjes_symmetric, sym, sym_good, True),
        ("stieltjes asymmetric rho", checks.check_stieltjes_symmetric, sym, sym_bad, False),
        ("cdf good", checks.check_cdf, {},
         {"cdf.json": json.dumps({"empirical": 0.3905, "limit": 0.3903})}, True),
        ("cdf off", checks.check_cdf, {},
         {"cdf.json": json.dumps({"empirical": 0.42, "limit": 0.39})}, False),
        ("theta good", checks.check_theta, {},
         {"theta.json": json.dumps({"empirical": [0.001, 0.693], "limit": [0.0, 0.695]})}, True),
        ("theta off", checks.check_theta, {},
         {"theta.json": json.dumps({"empirical": [0.03, 0.693], "limit": [0.0, 0.695]})}, False),
        ("subspace good", checks.check_subspace, {},
         {"subspace_report.json": json.dumps(subspace)}, True),
        ("subspace Infinity", checks.check_subspace, {},
         {"subspace_report.json": '{"ratio": 1.06, "empirical_stderr": Infinity}'}, False),
        ("subspace NaN distance", checks.check_subspace, {},
         {"subspace_report.json": '{"ratio": 1.0, "empirical_distance": NaN}'}, False),
        ("subspace missing", checks.check_subspace, {}, {}, False),
    ]


def run() -> list:
    """Descriptions of the cases a checker got wrong (empty: all correct)."""
    wrong = []
    for desc, checker, params, files, should_pass in cases():
        problems, _ = checker(0, files, **params)
        if (not problems) != should_pass:
            wrong.append(f"{desc}: {'rejected' if problems else 'accepted'} ({problems})")
    # a non-zero exit fails whatever the files say
    problems, _ = checks.check_cdf(4, {"cdf.json": json.dumps({"empirical": 0, "limit": 0})})
    if not problems:
        wrong.append("exit code 4 accepted")
    return wrong


if __name__ == "__main__":
    broken = run()
    print("\n".join(broken) if broken else f"all {len(cases()) + 1} checker cases correct")
    sys.exit(1 if broken else 0)
