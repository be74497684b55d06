"""The benchmark's workloads: specdrift CLI invocations, the inputs they
need, and the checker for each invocation's output.

Why each workload exists (which layer it stresses and which it bypasses) is
in README.md next to this file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks

FIGURE_SAMPLES = 100    # below the CLI's 200-sample minimum: report-only mode
CROSSCHECK_SAMPLES = 100
ETA_LEVELS = 4          # the CLI's default eta schedule
GOE_GRID = "-3:3:0.05"
TABULATED_GRID = "-2:2:0.02"
TABULATED_KNOTS = 33


@dataclass
class Invocation:
    name: str
    argv: list
    checker: object
    params: dict = field(default_factory=dict)
    tabulated: bool = False  # runs on the generated csv: profile

    def check(self, exit_code, files):
        return self.checker(exit_code, files, **self.params)


def write_tabulated_profile(path: Path, seed: int) -> float:
    """Antisymmetric smooth knots a(x) = 2x - 1 + A sin(2 pi x) on
    TABULATED_KNOTS points, A in [0.1, 0.2) drawn from the seed. a is
    strictly increasing (a' >= 2 - 2 pi A > 0) and a(1 - x) = -a(x) holds
    exactly, because the upper half is written as the mirror of the lower."""
    amplitude = 0.1 + 0.1 * random.Random(seed).random()
    last = TABULATED_KNOTS - 1
    a = [0.0] * TABULATED_KNOTS
    for k in range(last // 2):
        x = k / last
        a[k] = 2.0 * x - 1.0 + amplitude * math.sin(2.0 * math.pi * x)
        a[last - k] = -a[k]
    with open(path, "w") as fh:
        fh.write("x,a\n")
        for k, value in enumerate(a):
            fh.write(f"{k / last!r},{value!r}\n")
    return amplitude


def figure_mc(seed, inputs):
    n, t = 400, 1.0
    return [Invocation(
        "reproduce-fig1",
        ["reproduce", "fig1", "--samples", str(FIGURE_SAMPLES), "--seed", str(seed)],
        checks.check_figure,
        {"figure": "fig1", "n": n, "t": t, "samples": FIGURE_SAMPLES})]


def limit_solver(seed, inputs):
    csv_path = inputs / "tabulated.csv"
    write_tabulated_profile(csv_path, seed)
    tab = f"csv:{csv_path}"
    predict = ["--t", "0.5", "--index", "200", "--n", "400", "--regime", "full"]
    return [
        Invocation("predict-linear",
                   ["predict", "--profile", "linear:-1,1", *predict, "--seed", str(seed)],
                   checks.check_predict, {"n": 400}),
        Invocation("stieltjes-goe",
                   ["stieltjes", "--profile", "goe", "--t", "1", f"--grid={GOE_GRID}",
                    "--seed", str(seed)],
                   checks.check_stieltjes_goe, {"t": 1.0, "grid": GOE_GRID, "etas": ETA_LEVELS}),
        Invocation("predict-tabulated",
                   ["predict", "--profile", tab, *predict, "--seed", str(seed)],
                   checks.check_predict, {"n": 400}, tabulated=True),
        Invocation("stieltjes-tabulated",
                   ["stieltjes", "--profile", tab, "--t", "0.5", f"--grid={TABULATED_GRID}",
                    "--seed", str(seed)],
                   checks.check_stieltjes_symmetric,
                   {"grid": TABULATED_GRID, "etas": ETA_LEVELS}, tabulated=True),
    ]


def crosscheck(seed, inputs):
    common = ["--n", "400", "--samples", str(CROSSCHECK_SAMPLES), "--seed", str(seed)]
    return [
        Invocation("cdf",
                   ["cdf", "--profile", "goe", "--t", "1", "--lambda", "0", "--alpha", "0",
                    *common],
                   checks.check_cdf),
        Invocation("theta",
                   ["theta", "--profile", "goe", "--initial", "profile", "--t", "1",
                    "--z", "0", "0.05", *common],
                   checks.check_theta),
        Invocation("subspace",
                   ["subspace", "--t", "0.02", "--gamma", "-1", "1", "--delta", "0.2",
                    *common],
                   checks.check_subspace),
    ]


WORKLOADS = {
    "figure-mc": figure_mc,
    "limit-solver": limit_solver,
    "crosscheck": crosscheck,
}
