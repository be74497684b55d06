"""Output checks for the benchmark's CLI invocations (standard library only,
so they share no code with the program they check).

Every checker takes the invocation's exit code and its output files as
``{file name: text}`` and returns ``(problems, measures)``: a list of what
is wrong (empty when the output is correct) and a dict of measured values.
Tolerances come from the CLI's exit codes and the acceptance criteria.
"""

from __future__ import annotations

import csv
import json
import math

LAMBDA_TOL = 1e-9         # median of a symmetric profile is exactly 0
CLOSED_FORM_TOL = 1e-6    # criterion 3: solver vs semicircle closed forms
CLOSED_FORM_BULK = 0.95   # criterion 3 compares on |lambda| <= 0.95 * edge
SYMMETRY_TOL = 1e-9
MASS_TOL = 1e-3           # criterion 6: unit mass to 1e-3
LIMIT_TOL = 0.02          # criterion 7: theta and CDF bias
SUBSPACE_BAND = (0.85, 1.15)  # criterion 8 band
FIGURE_PEAK_TOL = 0.10    # the CLI's figure peak tolerance
FIGURE_REL_TOL = 0.10     # the CLI's figure relative-error tolerance
FIGURE_RANGE = (-1.8, 1.8)  # the CLI compares the bulk a in [-1.8, 1.8]
BINNING_GAIN = 0.7        # binned mean error below 0.7 x the unbinned (0.41-0.51 measured)
ROW_SUM_TOL = 1e-9        # overlap rows are unit vectors (program checks 1e-10)
CSV_VALUE_RTOL = 1e-9     # CSV values are written with 12 significant digits


class CheckFailed(Exception):
    pass


def _reject_constant(name):
    raise CheckFailed(f"non-standard JSON constant {name}")


def strict_json(files, name):
    """Parse a JSON output, refusing NaN / Infinity."""
    if name not in files:
        raise CheckFailed(f"missing {name}")
    try:
        return json.loads(files[name], parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{name}: {exc}") from None


def read_csv(files, name, header, rows):
    """Rows of a complete CSV with the given header and row count; numeric
    columns parsed to finite floats, the rest kept as text."""
    if name not in files:
        raise CheckFailed(f"missing {name}")
    text = files[name]
    if not text.endswith("\n"):
        raise CheckFailed(f"{name}: truncated (no final newline)")
    table = list(csv.reader(text.splitlines()))
    if not table or table[0] != header:
        raise CheckFailed(f"{name}: header {table[:1]} != {header}")
    body = table[1:]
    if len(body) != rows:
        raise CheckFailed(f"{name}: {len(body)} rows, expected {rows}")
    parsed = []
    for i, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise CheckFailed(f"{name}:{i}: {len(row)} fields")
        values = []
        for cell in row:
            try:
                v = float(cell)
            except ValueError:
                values.append(cell)
                continue
            if not math.isfinite(v):
                raise CheckFailed(f"{name}:{i}: non-finite value {cell}")
            values.append(v)
        parsed.append(values)
    return parsed


def grid_size(spec):
    lo, hi, step = (float(v) for v in spec.split(":"))
    return int(round((hi - lo) / step)) + 1


def semicircle_density(t, lam):
    c = 1.0 + t
    disc = 4.0 * c - lam * lam
    return math.sqrt(disc) / (2.0 * math.pi * c) if disc > 0 else 0.0


def semicircle_hilbert(t, lam):
    return -lam / (2.0 * (1.0 + t))


def overlap_goe(t, lam, a):
    d = a - lam
    return t / (d * d + (t / (1.0 + t)) * lam * d + t * t / (1.0 + t))


def bulk_rel_errors(rows, t, lam):
    """|value - closed form| / closed form over the bulk rows (a, value) of
    an overlap curve, as the CLI's figure comparison measures them."""
    lo, hi = FIGURE_RANGE
    errors = []
    for a, value in rows:
        if lo <= a <= hi:
            predicted = overlap_goe(t, lam, a)
            errors.append(abs(value - predicted) / predicted)
    return errors


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _checked(fn):
    """Turn CheckFailed into a problem entry; check the exit code first."""

    def checker(exit_code, files, **params):
        if exit_code != 0:
            return [f"exit code {exit_code}"], {}
        measures = {}
        try:
            fn(files, measures, **params)
        except CheckFailed as exc:
            return [str(exc)], measures
        except (KeyError, IndexError, TypeError) as exc:
            return [f"malformed output: {exc!r}"], measures
        return [], measures

    checker.__name__ = fn.__name__
    checker.__doc__ = fn.__doc__
    return checker


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


@_checked
def check_figure(files, measures, *, figure, n, t, samples):
    """`reproduce <figure> --samples S` below the CLI's checked minimum:
    report-only mode, so the pass/fail flags are checked here. The binned
    curve reaches the outputs only through the report's errors and peak; the
    empirical CSV holds the curve before binning."""
    report = strict_json(files, f"{figure}_report.json")
    measures["max_rel_error_bulk"] = report.get("max_rel_error_bulk")
    measures["mean_rel_error_bulk"] = report.get("mean_rel_error_bulk")
    _require(report.get("samples") == samples, f"report samples {report.get('samples')}")
    _require(report.get("threshold_checked") is False, "report claims a checked threshold")
    _require(abs(report["lambda_used"]) <= LAMBDA_TOL, f"lambda_used {report['lambda_used']}")
    _require(abs(report["peak_location"] - report["peak_expected"]) <= FIGURE_PEAK_TOL
             and report["peak_pass"] is True,
             f"peak {report['peak_location']} vs {report['peak_expected']}")
    _require(math.isfinite(report["max_rel_error_bulk"]), "max rel error not finite")

    rows = read_csv(files, f"{figure}_empirical.csv",
                    ["j", "a_j_mean", "overlap_mean_timesN", "stderr_timesN"], n)
    _require([r[0] for r in rows] == list(range(1, n + 1)), "j column is not 1..n")
    a = [r[1] for r in rows]
    _require(all(x < y for x, y in zip(a, a[1:])), "a_j_mean not increasing")
    _require(all(r[2] >= 0 and r[3] >= 0 for r in rows), "negative overlap or stderr")
    mass = sum(r[2] for r in rows) / n
    measures["overlap_row_mass"] = mass
    _require(abs(mass - 1.0) <= ROW_SUM_TOL, f"overlap row mass {mass}")

    # binning: the binned curve's mean bulk error within the CLI's tolerance,
    # and clearly below the unbinned curve's (a window-5 average of
    # independent noise cuts it to about 0.45 of the unbinned error)
    binned = report["mean_rel_error_bulk"]
    unbinned = bulk_rel_errors([(r[1], r[2]) for r in rows], t, report["lambda_used"])
    unbinned = sum(unbinned) / len(unbinned)
    measures["mean_rel_error_unbinned"] = unbinned
    _require(binned <= FIGURE_REL_TOL, f"binned mean rel error {binned} > {FIGURE_REL_TOL}")
    _require(binned <= BINNING_GAIN * unbinned,
             f"binned mean rel error {binned} not below {BINNING_GAIN} x unbinned {unbinned}")

    pred = read_csv(files, f"{figure}_prediction.csv",
                    ["a_j", "predicted_overlap", "regime_tag"], n)
    lam = report["lambda_used"]
    for a_j, value, tag in pred:
        _require(tag == "goe-closed-form", f"regime tag {tag}")
        _require(_close(value, overlap_goe(t, lam, a_j), CSV_VALUE_RTOL),
                 f"prediction at a={a_j}: {value} != closed form")


@_checked
def check_predict(files, measures, *, n):
    """`predict --index i --n n --regime full` on a symmetric profile."""
    manifest = strict_json(files, "predict_manifest.json")
    lam = manifest["config"]["lambda_used"]
    measures["lambda_used"] = lam
    _require(abs(lam) <= LAMBDA_TOL, f"lambda_used {lam} (symmetric profile median is 0)")
    rows = read_csv(files, "prediction.csv", ["a_j", "predicted_overlap", "regime_tag"], n)
    _require(all(r[2] == "full" and r[1] > 0 for r in rows), "bad regime tag or value")


def _stieltjes_lines(files, grid, etas):
    rows = read_csv(files, "stieltjes.csv",
                    ["lambda", "eta", "reG", "imG", "rho", "hilbert"], grid_size(grid) * etas)
    # rows are lambda-major; rho and hilbert repeat across the eta rows
    return [(r[0], r[4], r[5]) for r in rows[::etas]]


@_checked
def check_stieltjes_goe(files, measures, *, t, grid, etas):
    """GOE profile: rho and H against the semicircle closed forms."""
    edge = 2.0 * math.sqrt(1.0 + t)
    err_rho = err_h = 0.0
    for lam, rho, h in _stieltjes_lines(files, grid, etas):
        if abs(lam) <= CLOSED_FORM_BULK * edge:
            err_rho = max(err_rho, abs(rho - semicircle_density(t, lam)))
            err_h = max(err_h, abs(h - semicircle_hilbert(t, lam)))
    measures["max_abs_err_rho"] = err_rho
    measures["max_abs_err_hilbert"] = err_h
    _require(err_rho <= CLOSED_FORM_TOL, f"max |d rho| {err_rho:.3e}")
    _require(err_h <= CLOSED_FORM_TOL, f"max |d H| {err_h:.3e}")


@_checked
def check_stieltjes_symmetric(files, measures, *, grid, etas):
    """Antisymmetric profile: rho even, H odd, rho >= 0, unit mass."""
    lines = _stieltjes_lines(files, grid, etas)
    worst = 0.0
    for (lam, rho, h), (lam2, rho2, h2) in zip(lines, reversed(lines)):
        _require(abs(lam + lam2) <= SYMMETRY_TOL, f"grid not symmetric at {lam}")
        _require(rho >= 0, f"negative density at {lam}")
        worst = max(worst, abs(rho - rho2), abs(h + h2))
    mass = sum((r1 + r2) / 2.0 * (l2 - l1)
               for (l1, r1, _), (l2, r2, _) in zip(lines, lines[1:]))
    measures["symmetry_err"] = worst
    measures["mass"] = mass
    _require(worst <= SYMMETRY_TOL, f"symmetry error {worst:.3e}")
    _require(abs(mass - 1.0) <= MASS_TOL, f"mass {mass}")


@_checked
def check_cdf(files, measures):
    report = strict_json(files, "cdf.json")
    diff = abs(report["empirical"] - report["limit"])
    measures["abs_diff"] = diff
    _require(diff <= LIMIT_TOL, f"|empirical - limit| {diff}")


@_checked
def check_theta(files, measures):
    report = strict_json(files, "theta.json")
    _require(len(report["empirical"]) == 2 and len(report["limit"]) == 2, "need re, im")
    diff = max(abs(e - lim) for e, lim in zip(report["empirical"], report["limit"]))
    measures["abs_diff"] = diff
    _require(diff <= LIMIT_TOL, f"max component |empirical - limit| {diff}")


@_checked
def check_subspace(files, measures):
    report = strict_json(files, "subspace_report.json")
    ratio = report["ratio"]
    measures["ratio"] = ratio
    lo, hi = SUBSPACE_BAND
    _require(lo <= ratio <= hi, f"ratio {ratio} outside [{lo}, {hi}]")
