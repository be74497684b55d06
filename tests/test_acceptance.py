"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(echoed in the terminal summary by conftest).

Notes on two criteria:

* Criterion 5a: the small-t Cauchy kernel is the master kernel fed with the
  initial (t = 0) boundary value m = H_0 + i pi rho_0 at lambda, a
  Lorentzian of half width t pi rho_0(lambda) centred at
  lambda + t H_0(lambda). Against the exact GOE kernel it deviates by at
  most t/(1+t) on the stated grid.
* Criterion 8: the prediction integrates over initial eigenvalue
  positions, while V1 is selected by perturbed eigenvalues in the widened
  window. The widened window is therefore mapped back to initial
  coordinates, edge / sqrt(1+t) for the GOE start (the semicircle quantile
  bridge), before it is handed to the prediction; comparing in mismatched
  coordinates measures the O(t) drift of the window edges instead.
"""

import math

import numpy as np
import pytest
from conftest import boundary_value, draw_sample, record_acceptance
from scipy.integrate import quad

from specdrift import (ExperimentConfig, GOEInitial, OverlapAccumulator,
                       ProfileInitial, WindowSpec, cdf_limit, distance_from_singular_values,
                       ldos, overlap_block, overlap_full, overlap_goe, parse_profile,
                       predicted_distance, run_overlap_experiment, run_subspace_experiment,
                       semicircle_stieltjes, solve_fixed_point, solve_grid, theta_limit)
from specdrift.cli import FIGURE_PARAMS, compare_figure
from specdrift.montecarlo import _map_samples, accumulate_overlaps, theta_sample
from specdrift.subspace import determinant_distance

FIGURE_SEED = 20260823


@pytest.fixture(scope="module")
def figure_curves():
    """Shared 1000-sample figure-protocol run serving criteria 1 and 2."""
    config = ExperimentConfig(n=400, t=1.0, samples=1000, initial=GOEInitial(1.0),
                              target_indices=(200, 320), master_seed=FIGURE_SEED)
    return run_overlap_experiment(config, workers=2)


# criterion 7: Theta_N at z = lam + 0.05i for each weight g = 1(a <= threshold)
# (g = 1 at +inf), and the bivariate CDF at (0, 0)
THETA_Z = tuple(complex(lam, 0.05) for lam in (-1.0, 0.0, 1.0))
THETA_G = {"g=1": math.inf, "g=1(a<=0)": 0.0}


@pytest.fixture(scope="module")
def theta_samples():
    """Per-sample Theta_N values, shape (200, len(THETA_Z), len(THETA_G)), and
    Phi_N(0, 0) terms, shape (200,), of 200 n=400 draws; a draw's eigenvectors
    are dropped once its seven numbers are taken."""
    config = ExperimentConfig(n=400, t=1.0, samples=200, initial=GOEInitial(1.0),
                              master_seed=FIGURE_SEED + 1)

    def worker(k, a, lam, v):
        thetas = [[theta_sample(a, lam, v, z, g) for g in THETA_G.values()] for z in THETA_Z]
        return thetas, np.sum(v[a <= 0.0][:, lam <= 0.0] ** 2) / config.n

    thetas, phis = zip(*_map_samples(config, worker, workers=2))
    return np.array(thetas), np.array(phis)


def _figure_criterion(curves, figure, number):
    report = compare_figure(curves[FIGURE_PARAMS[figure]["index"]], figure)
    ok = report["rel_error_pass"] and report["peak_pass"]
    record_acceptance(
        f"criterion {number} ({figure} reproduction)", ok,
        f"max bulk rel error {report['max_rel_error_bulk']:.3f} (tol 0.10), "
        f"peak {report['peak_location']:.3f} vs {report['peak_expected']} "
        f"(tol 0.10), {report['samples']} samples")
    assert ok


def test_criterion_1_figure1(figure_curves):
    _figure_criterion(figure_curves, "fig1", 1)


def test_criterion_2_figure2(figure_curves):
    _figure_criterion(figure_curves, "fig2", 2)


def test_criterion_3_solver_vs_closed_form(goe_profile):
    worst_rho = worst_h = 0.0
    for t in (0.1, 1.0, 4.0):
        edge = 2.0 * math.sqrt(1.0 + t)
        grid = np.linspace(-0.95 * edge, 0.95 * edge, 200)
        sol = solve_grid(goe_profile, t, grid)
        for j, lam in enumerate(grid):
            m = semicircle_stieltjes(t, lam)
            worst_rho = max(worst_rho, abs(sol.rho[j] - m.imag / math.pi))
            worst_h = max(worst_h, abs(sol.hilbert[j] - m.real))
    ok = worst_rho <= 1e-6 and worst_h <= 1e-6
    record_acceptance("criterion 3 (solver vs closed form)", ok,
                      f"max |d rho| {worst_rho:.2e}, max |d H| {worst_h:.2e} (tol 1e-6)")
    assert ok


def test_criterion_4_algebraic_identity():
    t = 1.0
    edge = 2.0 * math.sqrt(1.0 + t)
    lams = np.linspace(-0.98 * edge, 0.98 * edge, 100)
    a = np.linspace(-1.99, 1.99, 100)
    worst = 0.0
    for lam in lams:
        full = overlap_full(t, lam, a, semicircle_stieltjes(t, lam))
        closed = overlap_goe(t, lam, a)
        worst = max(worst, float(np.max(np.abs(full / closed - 1.0))))
    ok = worst <= 1e-12
    record_acceptance("criterion 4 (overlap algebraic identity)", ok,
                      f"max rel deviation {worst:.2e} on 100x100 grid (tol 1e-12)")
    assert ok


def test_criterion_5a_cauchy_limit():
    t = 0.05
    worst = 0.0
    for lam in np.linspace(-1.0, 1.0, 21):
        a = lam + np.linspace(-1.0, 1.0, 201)
        m0 = semicircle_stieltjes(0.0, lam)  # the Cauchy flight: the kernel on the initial m
        rel = np.abs(overlap_full(t, lam, a, m0) / overlap_goe(t, lam, a) - 1.0)
        worst = max(worst, float(np.max(rel)))
    ok = worst <= 0.05
    record_acceptance("criterion 5a (Cauchy vs closed form, 5%)", ok,
                      f"max rel deviation {worst:.4f} (tol 0.05); the kernel on "
                      f"the initial line deviates by at most t/(1+t) = {t / (1 + t):.4f}")
    assert ok


def test_criterion_5b_perturbative_monte_carlo():
    n, t, samples = 200, 1e-4, 2000
    profile = parse_profile("uniform-gap:2")  # a in [-1, 1]
    i, j = 50, 150  # gap ~1.0 >= 0.5
    config = ExperimentConfig(n=n, t=t, samples=samples,
                              initial=ProfileInitial(profile),
                              target_indices=(i,), master_seed=FIGURE_SEED + 2)
    curve = run_overlap_experiment(config, workers=2)[i]
    a = profile.eval((np.arange(1, n + 1) - 0.5) / n)
    from specdrift import perturbative_offdiag
    predicted = n * perturbative_offdiag(t, n, a[i - 1], a[j - 1])
    emp, err = curve.values[j - 1], curve.stderr[j - 1]
    ok = abs(emp - predicted) <= 3.0 * err
    record_acceptance("criterion 5b (perturbative regime Monte Carlo)", ok,
                      f"N*E = {emp:.3e} +- {err:.1e} vs predicted {predicted:.3e} "
                      f"({abs(emp - predicted) / err:.2f} sigma)")
    assert ok


def test_criterion_6_ldos_normalization(goe_profile, linear_profile):
    cases = []
    for t in (0.5, 1.0, 2.0):
        for lam in (0.0, 1.0, -1.0):
            m = semicircle_stieltjes(t, lam)
            total, _ = quad(lambda al: ldos(goe_profile, t, lam, al, m),
                            -2.0, 2.0, epsabs=1e-10, epsrel=1e-10, limit=200)
            cases.append(abs(total - 1.0))
    t, lam = 0.5, 0.5
    m = boundary_value(linear_profile, t, lam)
    total, _ = quad(lambda al: ldos(linear_profile, t, lam, al, m),
                    0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)
    cases.append(abs(total - 1.0))
    worst = max(cases)
    ok = worst <= 1e-3
    record_acceptance("criterion 6 (LDOS normalization)", ok,
                      f"max |integral - 1| {worst:.2e} over {len(cases)} cases (tol 1e-3)")
    assert ok


def test_criterion_7_theta_and_cdf(goe_profile, theta_samples):
    t = 1.0
    thetas, phi_vals = theta_samples
    failures, details = [], []
    for i, z in enumerate(THETA_Z):
        for j, (gname, g) in enumerate(THETA_G.items()):
            vals = thetas[:, i, j]
            mean = vals.mean()
            se_re = vals.real.std(ddof=1) / math.sqrt(len(vals))
            se_im = vals.imag.std(ddof=1) / math.sqrt(len(vals))
            limit = theta_limit(goe_profile, t, z, g)
            d_re, d_im = abs(mean.real - limit.real), abs(mean.imag - limit.imag)
            ok = (d_re <= max(3 * se_re, 0.02) and d_im <= max(3 * se_im, 0.02)
                  and d_re <= 0.02 and d_im <= 0.02)
            if not ok:
                failures.append(f"theta z={z} {gname}: d=({d_re:.3f},{d_im:.3f})")
            details.append(max(d_re, d_im))
    # empirical bivariate CDF at (0, 0)
    phi_emp = phi_vals.mean()
    phi_lim = cdf_limit(goe_profile, t, 0.0, 0.0)
    d_phi = abs(phi_emp - phi_lim)
    if d_phi > 0.02:
        failures.append(f"Phi_N(0,0) {phi_emp:.4f} vs {phi_lim:.4f}")
    ok = not failures
    record_acceptance("criterion 7 (Theta and CDF convergence)", ok,
                      f"max theta bias {max(details):.4f} (tol 0.02), "
                      f"Phi_N(0,0) {phi_emp:.4f} vs limit {phi_lim:.4f} "
                      f"(|d| {d_phi:.4f}, tol 0.02)"
                      + ("; " + "; ".join(failures) if failures else ""))
    assert ok


def test_criterion_8_subspace_semiperturbative(goe_profile):
    window = WindowSpec(-1.0, 1.0, 0.2)
    ratios = {}
    for t in (0.01, 0.02, 0.05):
        config = ExperimentConfig(n=400, t=t, samples=200, initial=GOEInitial(1.0),
                                  master_seed=FIGURE_SEED + 3)
        result = run_subspace_experiment(config, window, workers=2)
        # V1 is selected by perturbed eigenvalues in [-1.2, 1.2]; the
        # prediction integrates over initial positions, so the widened window
        # goes in as its semicircle quantile preimage [-1.2, 1.2] / sqrt(1+t)
        initial_window = WindowSpec(-1.0, 1.0, 1.2 / math.sqrt(1.0 + t) - 1.0)
        predicted = predicted_distance(t, initial_window.inner, initial_window.outer,
                                       goe_profile)
        ratios[t] = result.distance.value.real / predicted
    in_band = all(0.85 <= r <= 1.15 for r in ratios.values())
    shrinking = (abs(ratios[0.01] - 1.0) <= abs(ratios[0.02] - 1.0)
                 <= abs(ratios[0.05] - 1.0))
    ok = in_band and shrinking
    record_acceptance("criterion 8 (subspace distance prediction)", ok,
                      "ratios " + ", ".join(f"t={t}: {r:.3f}" for t, r in ratios.items())
                      + f" (band [0.85, 1.15], |ratio-1| shrinking: {shrinking})")
    assert ok


def test_criterion_9_property_suite(goe_profile):
    checks = {}
    config = ExperimentConfig(n=60, t=0.5, samples=6, initial=GOEInitial(1.0),
                              target_indices=(30,), master_seed=FIGURE_SEED + 4)

    # per-sample overlap row normalization
    _a, _lam, vecs = draw_sample(config, 0)
    checks["row normalization"] = float(np.max(np.abs((vecs ** 2).sum(axis=0) - 1.0))) <= 1e-10

    # Herglotz sign of G across a (lambda, eta) grid
    herglotz = True
    for lam in (-2.0, 0.0, 1.5):
        for eta in (1e-3, 0.1, 1.0):
            herglotz &= solve_fixed_point(goe_profile, 1.0, complex(lam, eta)).imag > 0
    checks["Herglotz sign"] = herglotz

    # singular values in [0,1] and determinant identity
    block_config = ExperimentConfig(n=100, t=0.05, samples=1, initial=GOEInitial(1.0),
                                    master_seed=1)
    block = overlap_block(*draw_sample(block_config, 0), WindowSpec(-1.0, 1.0, 0.3))
    s = np.linalg.svd(block, compute_uv=False)
    checks["singular values in [0,1]"] = bool(np.all(s <= 1 + 1e-10) and np.all(s >= 0))
    distance = distance_from_singular_values(s, block.shape[1])
    checks["determinant identity"] = abs(determinant_distance(block) - distance) <= 1e-10

    # bit-exact seed determinism
    c1 = run_overlap_experiment(config)[30]
    c2 = run_overlap_experiment(config)[30]
    checks["seed determinism"] = bool(np.array_equal(c1.values, c2.values))

    # accumulator merge associativity
    acc = accumulate_overlaps(config)
    parts = [OverlapAccumulator(config.n, config.target_indices) for _ in range(3)]
    for k, (a, sq) in acc._parts.items():
        parts[k % 3].add_sample(k, a, sq)
    left = parts[0].merge(parts[1]).merge(parts[2]).finalize()
    right = parts[0].merge(parts[1].merge(parts[2])).finalize()
    ref = acc.finalize()
    checks["merge associativity"] = all(np.array_equal(x, y) and np.array_equal(x, z)
                                        for x, y, z in zip(left, right, ref))

    ok = all(checks.values())
    record_acceptance("criterion 9 (property suite)", ok,
                      ", ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items()))
    assert ok
