"""Eigenspace stability: rectangular overlap blocks between spectral
windows, their overlap distance, and its small-t prediction.

The distance between the initial window subspace V0 (eigenvalues in
[g-, g+]) and the enlarged perturbed subspace V1 (perturbed eigenvalues in
[g- - delta, g+ + delta]) is minus the mean log singular value of the
overlap block, read off the diagonal of its triangular QR factor; it
vanishes iff V0 is contained in V1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyWindowError, RankDeficientError
from .montecarlo import ExperimentConfig, ScalarEstimate, _map_samples, _scalar_estimate
from .profiles import ChartRule, SpectralProfile
from .stieltjes import _resolvent_moments

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
    """Q x P block <psi_k(t)|phi_j> of one sample as `montecarlo._decompose`
    returns it (vecs[j, k] = <psi_k(t)|phi_j>), with a_j in the inner window and
    lambda_k in the widened window. An empty widened window gives a 0 x P
    block, which is rank deficient; an empty inner window is an error."""
    cols = select_window(a, *window.inner)
    if len(cols) == 0:
        raise EmptyWindowError("inner window selected no eigenvalues")
    return vecs[cols][:, select_window(lam, *window.outer)].T


def block_distance(block: np.ndarray) -> float:
    """D = -(1/P) sum ln s_k over the P singular values of the Q x P block,
    taken as -(1/P) sum ln |R_kk| of its triangular QR factor R, whose
    |det R| is their product; +inf when the block is rank deficient: Q < P,
    or some |R_kk| <= SINGULAR_VALUE_FLOOR."""
    q, p = block.shape
    if q < p:
        return math.inf
    r = np.abs(np.diagonal(np.linalg.qr(block, mode="r")))
    if np.any(r <= SINGULAR_VALUE_FLOOR):
        return math.inf
    return float(-np.sum(np.log(r)) / p)


def determinant_distance(block: np.ndarray) -> float:
    """D = -ln det(G^T G) / (2P); identity route for cross-checking."""
    p = block.shape[1]
    sign, logdet = np.linalg.slogdet(block.T @ block)
    if sign <= 0:
        return math.inf
    return float(-logdet / (2 * p))


# ---------------------------------------------------------------------------
# predictions: x in the inner window, y outside the widened one (both in
# initial coordinates); every integral is a sum of the profile's chart rule


def _outer_rule(profile: SpectralProfile, outer):
    """(y, weights) of the chart rule outside `outer`, its panels split at edges
    graded geometrically (ratio 2) toward the window down to rounding: each
    panel lies its length or more from the window, where the integrands blow up."""
    rule, (lo, hi) = profile.chart_rule, profile.support
    strips = []
    for far, edge in ((lo, outer[0]), (hi, outer[1])):
        u_far, u_near = rule.U(far), rule.U(min(max(edge, lo), hi))
        if u_far == u_near:
            continue
        levels = int(math.log2(abs(u_far - u_near) / np.spacing(1.0 + abs(u_near))))
        edges = np.append(u_near + (u_far - u_near) * 0.5 ** np.arange(levels), u_near)
        edges = np.union1d(edges, np.clip(rule.edges, *sorted((u_far, u_near))))
        strips.append(ChartRule.build(edges, rule.S, rule.W, rule.U))
    return (np.concatenate([[]] + [r.s.ravel() for r in strips]),
            np.concatenate([[]] + [r.ws.ravel() for r in strips]))


def escape_rate(a_i: float, outer, profile: SpectralProfile) -> float:
    """int_{y outside the widened window} rho0(y)/(a_i - y)^2 dy."""
    y, wy = _outer_rule(profile, outer)
    return float(wy @ (1.0 / (y - a_i) ** 2))


def predicted_distance(t: float, inner, outer, profile: SpectralProfile) -> float:
    """Small-t prediction: (t / 2 m) iint rho0(x) rho0(y)/(x-y)^2 over x in
    the inner window, y outside the widened window, with m the inner-window
    density mass. Linear in t; finite thanks to the margins.

    A widened window stated in perturbed coordinates (as the Monte Carlo
    selects V1) must be mapped back first, e.g. by the semicircle quantile
    bridge, edge / sqrt(1+t), for a unit GOE start; the two coordinate
    systems differ at O(t), so the predicted distances differ at O(t^2).
    The x integral is the derivative moment of the window's rule at w = y.
    """
    if not outer[0] < inner[0] < inner[1] < outer[1]:
        raise DomainError(f"widened window {outer} does not hold {inner} with positive margins")
    window = profile.chart_rule.clip(*np.clip(inner, *profile.support))
    mass = float(window.ws.sum())
    if not mass > 0:
        raise EmptyWindowError("inner window carries no density mass")
    y, wy = _outer_rule(profile, outer)
    return t * float(wy @ _resolvent_moments(profile, y + 0j, window)[1].real) / (2.0 * mass)


def gram_entry_predictions(t: float, a_i: float, a_j: float, inner, outer,
                           profile: SpectralProfile):
    """(diagonal estimate for a_i, off-diagonal Cauchy-Schwarz bound for the
    pair), both from leakage outside the widened window.

    The off-diagonal bound uses squared overlaps inside the expectations
    (the dimensionally consistent reading of the printed inequality); its
    integrand is summed as it stands, free of its partial fractions' cancellation.
    """
    glo, ghi = inner
    for a in (a_i, a_j):
        if not glo <= a <= ghi:
            raise DomainError("eigenvalue outside the inner window")
    y, wy = _outer_rule(profile, outer)
    return (1.0 - t * escape_rate(a_i, outer, profile),
            t * float(wy @ (1.0 / np.abs((y - a_i) * (y - a_j)))))


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

    def worker(k, *sample):
        block = overlap_block(*sample, window)
        q, p = block.shape
        return block_distance(block), p, q

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
