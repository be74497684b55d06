"""Eigenspace stability: rectangular overlap blocks between spectral
windows, singular-value overlap distance, and its small-t prediction.

The distance between the initial window subspace V0 (eigenvalues in
[g-, g+]) and the enlarged perturbed subspace V1 (perturbed eigenvalues in
[g- - delta, g+ + delta]) is minus the mean log singular value of the
overlap block; it vanishes iff V0 is contained in V1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, EmptyWindowError, RankDeficientError
from .montecarlo import (ExperimentConfig, ScalarEstimate, _draw_sample, _map_samples,
                         _scalar_estimate)

SINGULAR_VALUE_FLOOR = 1e-14


@dataclass(frozen=True)
class WindowSpec:
    gamma_minus: float
    gamma_plus: float
    delta: float

    def __post_init__(self):
        if not self.gamma_minus < self.gamma_plus:
            raise DomainError("need gamma_minus < gamma_plus")
        if self.delta <= 0:
            raise DomainError("margin delta must be positive")

    @property
    def inner(self):
        return (self.gamma_minus, self.gamma_plus)

    @property
    def outer(self):
        return (self.gamma_minus - self.delta, self.gamma_plus + self.delta)


def select_window(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Closed-interval membership (boundary ties are measure zero; closed
    intervals keep the selection deterministic)."""
    values = np.asarray(values)
    return np.flatnonzero((values >= lo) & (values <= hi))


def overlap_block(a, lam, vecs, window: WindowSpec) -> np.ndarray:
    """Q x P block <psi_k(t)|phi_j> of one sample as `_draw_sample` returns
    it (vecs[j, k] = <psi_k(t)|phi_j>), with a_j in the inner window and
    lambda_k in the widened window."""
    cols = select_window(a, *window.inner)
    rows = select_window(lam, *window.outer)
    if len(cols) == 0 or len(rows) == 0:
        raise EmptyWindowError("window selected no eigenvalues")
    return vecs[cols][:, rows].T


def distance_from_singular_values(s, p: int) -> float:
    """D = -(1/P) sum ln s_k; +inf when the block is rank deficient."""
    s = np.asarray(s, dtype=float)
    if len(s) < p or np.any(s <= SINGULAR_VALUE_FLOOR):
        return math.inf
    return float(-np.sum(np.log(s[:p])) / p)


def determinant_distance(block: np.ndarray) -> float:
    """D = -ln det(G^T G) / (2P); identity route for cross-checking."""
    p = block.shape[1]
    sign, logdet = np.linalg.slogdet(block.T @ block)
    if sign <= 0:
        return math.inf
    return float(-logdet / (2 * p))


# ---------------------------------------------------------------------------
# predictions


def _outer_strips(window: WindowSpec, support: tuple[float, float]):
    lo, hi = support
    olo, ohi = window.outer
    strips = []
    if olo > lo:
        strips.append((lo, min(olo, hi)))
    if ohi < hi:
        strips.append((max(ohi, lo), hi))
    return [s for s in strips if s[1] > s[0]]


def escape_rate(a_i: float, window: WindowSpec, rho0, support, tol=1e-10) -> float:
    """int_{y outside widened window} rho0(y)/(a_i - y)^2 dy."""
    total = 0.0
    for lo, hi in _outer_strips(window, support):
        val, _ = quad(lambda y: rho0(y) / (a_i - y) ** 2, lo, hi,
                      epsabs=tol, epsrel=tol, limit=200)
        total += val
    return total


def predicted_distance(t: float, window: WindowSpec, rho0, support,
                       tol: float = 1e-8) -> float:
    """Small-t prediction: (t / 2 m) iint rho0(x) rho0(y)/(x-y)^2 over x in
    the inner window, y outside the widened window, with m the inner-window
    density mass. Linear in t; finite thanks to the delta margin.

    y runs over initial eigenvalue positions, so `window.outer` is read in
    initial coordinates. A widened window stated in perturbed coordinates
    (as the Monte Carlo selects V1) must be mapped back first, e.g. by the
    semicircle quantile bridge, edge / sqrt(1+t), for a unit GOE start; the
    two coordinate systems differ at O(t), so the predicted distances
    differ at O(t^2)."""
    glo, ghi = window.inner
    mass, _ = quad(rho0, glo, ghi, epsabs=tol, epsrel=tol, limit=200)
    if mass <= 0:
        raise EmptyWindowError("inner window carries no density mass")
    strips = _outer_strips(window, support)
    if not strips:
        return 0.0
    inner, _ = quad(lambda x: rho0(x) * escape_rate(x, window, rho0, support, tol=tol * 1e-2),
                    glo, ghi, epsabs=tol, epsrel=tol, limit=200)
    return t * inner / (2.0 * mass)


def gram_entry_predictions(t: float, a_i: float, a_j: float, window: WindowSpec,
                           rho0, support, tol: float = 1e-10):
    """(diagonal estimate for a_i, off-diagonal Cauchy-Schwarz bound for the
    pair), both from leakage outside the widened window.

    The off-diagonal bound uses squared overlaps inside the expectations
    (the dimensionally consistent reading of the printed inequality).
    """
    glo, ghi = window.inner
    for a in (a_i, a_j):
        if not glo <= a <= ghi:
            raise DomainError("eigenvalue outside the inner window")
    diag = 1.0 - t * escape_rate(a_i, window, rho0, support, tol=tol)
    bound = 0.0
    for lo, hi in _outer_strips(window, support):
        val, _ = quad(lambda y: rho0(y) / (abs(a_i - y) * abs(a_j - y)), lo, hi,
                      epsabs=tol, epsrel=tol, limit=200)
        bound += val
    return diag, t * bound


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass
class SubspaceExperimentResult:
    window: WindowSpec
    distance: ScalarEstimate  # over the full-rank samples
    mean_p: float
    mean_q: float
    distances: np.ndarray  # per-sample, +inf where rank deficient
    rank_deficient: int  # samples left out of `distance`


def run_subspace_experiment(config: ExperimentConfig, window: WindowSpec,
                            workers: int = 1) -> SubspaceExperimentResult:
    """Per-sample overlap-block distance between the window subspaces.

    A rank-deficient block (e.g. fewer perturbed than initial eigenvalues
    in the windows) has infinite distance; such samples are counted and
    left out of the mean. Raises RankDeficientError when no sample has
    full rank.
    """

    def worker(k):
        block = overlap_block(*_draw_sample(config, k), window)
        q, p = block.shape
        return distance_from_singular_values(np.linalg.svd(block, compute_uv=False), p), p, q

    rows = _map_samples(config, worker, workers)
    ds = np.array([r[0] for r in rows])
    full = ds[np.isfinite(ds)]
    if len(full) == 0:
        raise RankDeficientError(f"all {len(ds)} samples have a rank-deficient "
                                 "overlap block; widen delta or lower t")
    return SubspaceExperimentResult(window=window, distance=_scalar_estimate(full),
                                    mean_p=float(np.mean([r[1] for r in rows])),
                                    mean_q=float(np.mean([r[2] for r in rows])),
                                    distances=ds, rank_deficient=len(ds) - len(full))
