"""Finite-N experiments: sample the initial matrix and the Gaussian noise,
diagonalize, and accumulate overlap curves, resolvent traces and the
empirical bivariate CDF.

Samples are independent work units keyed by substream index: helper
threads may draw them ahead, the calling thread decomposes them in
ascending order, and helpers may reduce what it cuts out (`_map_samples`).
Accumulators keep per-sample contributions, so merging is associative
bit-exactly: the final reduction always runs in ascending substream order
regardless of how partial accumulators were combined.

The initial matrix is always represented in its own eigenbasis (the noise is
rotationally invariant, so a GOE start reduces to a diagonal matrix of
sorted GOE eigenvalues). Overlaps <psi_i(t)|phi_j> are then just eigenvector
components of M_t.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .matrices import RngStream, sample_goe
from .profiles import SemicircleQuantileProfile, SpectralProfile

ROW_SUM_TOL = 1e-10


@dataclass(frozen=True)
class GOEInitial:
    """Random GOE initial matrix with off-diagonal entry variance scale/n."""

    scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise DomainError("GOE scale must be positive and finite")

    @property
    def profile(self) -> SemicircleQuantileProfile:
        """The limiting initial spectrum: semicircle of radius 2 sqrt(scale)."""
        return SemicircleQuantileProfile(2.0 * math.sqrt(self.scale))

    def eigenvalues(self, n: int, gen: np.random.Generator) -> np.ndarray:
        return np.linalg.eigvalsh(sample_goe(n, self.scale, gen))

    def describe(self):
        return {"kind": "goe", "scale": self.scale}


@dataclass(frozen=True)
class ProfileInitial:
    """Deterministic initial matrix with eigenvalues a((i-1/2)/n).

    The eigenvalues do not depend on the sample, so they are evaluated once
    per n (one vectorized root find for quantile profiles) and shared, read
    only, by every sample.
    """

    profile: SpectralProfile
    _by_n: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def eigenvalues(self, n: int, gen: np.random.Generator) -> np.ndarray:
        a = self._by_n.get(n)
        if a is None:
            x = (np.arange(1, n + 1) - 0.5) / n
            a = np.array(self.profile.eval(x), dtype=float)
            a.setflags(write=False)
            self._by_n[n] = a
        return a

    def describe(self):
        return {"kind": "profile", "profile": self.profile.spec}


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    t: float
    samples: int
    initial: GOEInitial | ProfileInitial
    target_indices: tuple = ()  # 1-based, matching the figures
    master_seed: int = 0
    binning: int = 1

    def __post_init__(self):
        object.__setattr__(self, "target_indices", tuple(self.target_indices))
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        if self.samples < 1:
            raise ConfigError("samples must be at least 1")
        if self.t < 0:
            raise ConfigError("t must be nonnegative")
        if any(i < 1 or i > self.n for i in self.target_indices):
            raise ConfigError("target indices must lie in [1, n]")
        if self.binning < 1 or self.binning > self.n:
            raise ConfigError("binning window must lie in [1, n]")

    def describe(self):
        return {"n": self.n, "t": self.t, "samples": self.samples,
                "initial": self.initial.describe(),
                "target_indices": list(self.target_indices),
                "master_seed": self.master_seed, "binning": self.binning}


def _draw(config: ExperimentConfig, k: int):
    """Eigenvalues a of the initial matrix and M_t = diag(a) + H_t in the
    initial eigenbasis, for substream k; M_t is None at t = 0. Shares no
    state between calls but ProfileInitial's per-n cache, whose entries do
    not depend on who writes them, so helper threads can draw ahead."""
    gen = RngStream(config.master_seed, k).generator()
    a = config.initial.eigenvalues(config.n, gen)
    if config.t == 0:
        return a, None
    m = sample_goe(config.n, config.t, gen)
    m[np.diag_indices(config.n)] += a
    return a, m


def _draw_group(config: ExperimentConfig, ks):
    """The initial eigenvalues of substreams ks and their M_t stacked into one
    (len(ks), n, n) array (None at t = 0): one draw-ahead task."""
    a, ms = zip(*(_draw(config, k) for k in ks))
    if config.t == 0:
        return a, None
    return a, ms[0][np.newaxis] if len(ms) == 1 else np.stack(ms)  # a view: no copy for one


def _decompose(a, m, vectors: bool) -> list:
    """[(a_k, lam_k, V_k)] for a drawn group; V_k is None without vectors.
    Eigenvectors come from one eigh per sample, eigenvalues alone from one
    stacked eigvalsh, which equals per-matrix calls bit for bit."""
    if m is None:
        return [(ak, ak.copy(), np.eye(len(ak)) if vectors else None) for ak in a]
    if vectors:
        return [(ak, *np.linalg.eigh(mk)) for ak, mk in zip(a, m)]
    return [(ak, lam, None) for ak, lam in zip(a, np.linalg.eigvalsh(m))]


def _draw_sample(config: ExperimentConfig, k: int):
    """Eigenvalues a of the initial matrix, eigenvalues lam of M_t and the
    eigenvector matrix V of M_t in the initial eigenbasis (V[j, i] =
    <psi_i(t)|phi_j>), for substream k."""
    return _decompose(*_draw_group(config, [k]), vectors=True)[0]


# numpy.linalg keeps the GIL through a call whose output has at most this
# many elements, so a helper thread cannot draw while it runs.
GIL_HELD_OUTPUT = 500


def _group_size(n: int) -> int:
    """Samples per values-only decomposition: the smallest G with G n > 500,
    so that one stacked eigvalsh releases the GIL."""
    return GIL_HELD_OUTPUT // n + 1


def _now(fn, *args) -> Future:
    """fn(*args) run here, as a completed future: the inline stand-in for a
    pool's submit."""
    done = Future()
    done.set_result(fn(*args))
    return done


def _map_samples(config: ExperimentConfig, worker, workers: int = 1, *,
                 vectors: bool = True, reduce=None) -> list:
    """[reduce(worker(k, a_k, lam_k, V_k)) for k in range(config.samples)],
    V_k None unless `vectors`, reduce the identity when None.

    Every decomposition and every worker call runs on the calling thread in
    ascending k. workers - 1 helper threads draw groups of samples, up to
    workers - 1 groups ahead, and run `reduce`, with at most workers - 1
    reductions pending; while the next group's draw is unfinished, the
    calling thread reduces instead. A group is one sample when eigenvectors
    are wanted and `_group_size(n)` samples when only eigenvalues are: numpy
    keeps the GIL through a small eigvalsh, which would stall the drawing
    thread. Only one eigh's working set is alive at a time, and every drawn
    sample is bit-identical to a serial draw. workers = 1 runs all stages
    inline.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    size = 1 if vectors else _group_size(config.n)
    indices = range(config.samples)
    groups = [indices[s:s + size] for s in indices[::size]]
    helpers = workers - 1
    pool = ThreadPoolExecutor(max_workers=helpers) if helpers else None
    submit = pool.submit if pool else _now
    try:
        ahead = deque(submit(_draw_group, config, ks) for ks in groups[:helpers])
        pending, results = deque(), []
        for i, ks in enumerate(groups):
            if i + helpers < len(groups):
                ahead.append(submit(_draw_group, config, groups[i + helpers]))
            # one expression, so that no name keeps M_t or V alive into the
            # next group's draw and decomposition
            parts = [worker(k, *sample)
                     for k, sample in zip(ks, _decompose(*ahead.popleft().result(), vectors))]
            if reduce is None:
                results += parts
                continue
            for part in parts:
                while len(pending) >= max(helpers, 1):
                    results.append(pending.popleft().result())
                # while the next draw is unfinished this thread would only
                # wait for it, so it reduces instead
                behind = ahead and not ahead[0].done()
                pending.append((_now if behind else submit)(reduce, part))
        results += [done.result() for done in pending]
        return results
    finally:
        if pool:
            pool.shutdown(wait=True, cancel_futures=True)


# ---------------------------------------------------------------------------
# overlap curves


@dataclass
class OverlapAccumulator:
    """Mergeable accumulator of squared target-row overlaps.

    Per-sample contributions are kept keyed by substream index; sums are
    formed at finalize time in ascending key order (the fixed summation
    policy that makes merging associative bit-exactly).
    """

    n: int
    target_indices: tuple
    _parts: dict = field(default_factory=dict)

    def add_sample(self, k: int, a: np.ndarray, sq_rows: np.ndarray):
        if k in self._parts:
            raise ConfigError(f"substream {k} accumulated twice")
        row_sums = sq_rows.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
            raise DomainError("overlap row not normalized; eigenbasis corrupt")
        self._parts[k] = (a, sq_rows)

    def merge(self, other: "OverlapAccumulator") -> "OverlapAccumulator":
        if other.n != self.n or other.target_indices != self.target_indices:
            raise ConfigError("accumulator shapes differ")
        dup = set(self._parts) & set(other._parts)
        if dup:
            raise ConfigError(f"duplicate substreams in merge: {sorted(dup)}")
        merged = OverlapAccumulator(self.n, self.target_indices)
        merged._parts = {**self._parts, **other._parts}
        return merged

    @property
    def count(self) -> int:
        return len(self._parts)

    def finalize(self):
        """(a_mean, sum, sumsq) with deterministic summation order."""
        keys = sorted(self._parts)
        if not keys:
            raise ConfigError("empty accumulator")
        a_sum = np.zeros(self.n)
        s = np.zeros((len(self.target_indices), self.n))
        s2 = np.zeros_like(s)
        for k in keys:
            a, sq = self._parts[k]
            a_sum += a
            s += sq
            s2 += sq * sq
        c = len(keys)
        return a_sum / c, s, s2


@dataclass
class OverlapCurve:
    """N * mean squared overlap against the (mean) initial eigenvalues."""

    index: int  # 1-based target index
    n: int
    t: float
    a: np.ndarray
    values: np.ndarray  # N * mean
    stderr: np.ndarray  # N * standard error (1 sigma)
    samples: int

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["j", "a_j_mean", "overlap_mean_timesN", "stderr_timesN"])
            for j in range(self.n):
                writer.writerow([j + 1, f"{self.a[j]:.12g}",
                                 f"{self.values[j]:.12g}", f"{self.stderr[j]:.12g}"])


def accumulate_overlaps(config: ExperimentConfig, workers: int = 1) -> OverlapAccumulator:
    if not config.target_indices:
        raise ConfigError("no target indices configured")
    targets = [i - 1 for i in config.target_indices]

    def worker(k, a, _lam, vecs):
        sq = vecs[:, targets].T ** 2  # rows: targets, columns: j
        return k, a, sq

    acc = OverlapAccumulator(config.n, config.target_indices)
    for k, a, sq in _map_samples(config, worker, workers):
        acc.add_sample(k, a, sq)
    return acc


def curves_from_accumulator(config: ExperimentConfig, acc: OverlapAccumulator):
    a_mean, s, s2 = acc.finalize()
    c = acc.count
    curves = {}
    for row, idx in enumerate(acc.target_indices):
        mean = s[row] / c
        var = np.maximum(s2[row] / c - mean ** 2, 0.0)
        stderr = np.sqrt(var / c) if c > 1 else np.zeros_like(mean)
        curves[idx] = OverlapCurve(index=idx, n=config.n, t=config.t,
                                   a=a_mean, values=config.n * mean,
                                   stderr=config.n * stderr, samples=c)
    return curves


def run_overlap_experiment(config: ExperimentConfig, workers: int = 1):
    """Empirical N E[<psi_i|phi_j>^2] curves for each configured target."""
    acc = accumulate_overlaps(config, workers)
    curves = curves_from_accumulator(config, acc)
    if config.binning > 1:
        curves = {i: bin_overlap_curve(c, config.binning) for i, c in curves.items()}
    return curves


# ---------------------------------------------------------------------------
# binning


def _band_smoother(n: int, window: int) -> np.ndarray:
    """Symmetric doubly stochastic n x n moving-average matrix of width
    `window`, with reflect-boundary (half-sample) boxes.

    Row i averages indices i - h .. i + h (window = 2h + 1); an index j
    outside [0, n-1] is reflected to -1 - j on the left and 2n - 1 - j on the
    right, so no mass is lost and a constant curve stays constant. An even
    window averages the two boxes at offsets -w/2 .. w/2 - 1 and
    -w/2 + 1 .. w/2, i.e. the centred 2 x w moving average whose end offsets
    carry half weight. Both kernels are symmetric, so the reflected matrix
    is exactly symmetric: weights are summed as integers (units of 1/(2w))
    and divided once.
    """
    if window < 1 or window > n:
        raise DomainError("window must lie in [1, n]")
    h = window // 2
    weight = np.full(2 * h + 1, 2)
    if window % 2 == 0:
        weight[[0, -1]] = 1
    j = np.arange(n)[:, None] + np.arange(-h, h + 1)
    j = np.where(j < 0, -1 - j, np.where(j >= n, 2 * n - 1 - j, j))
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (np.arange(n)[:, None], j), weight)
    return counts / (2 * window)


def bin_overlap_curve(curve: OverlapCurve, window: int) -> OverlapCurve:
    """Moving-average smoothing over index windows with reflect-boundary
    boxes (see `_band_smoother`; an even window uses the centred 2 x w
    average). Mass preserving: the smoothing matrix is symmetric and doubly
    stochastic. Standard errors propagate as independent per-index errors."""
    k = _band_smoother(curve.n, window)
    return OverlapCurve(index=curve.index, n=curve.n, t=curve.t, a=curve.a,
                        values=k @ curve.values,
                        stderr=np.sqrt(k ** 2 @ curve.stderr ** 2),
                        samples=curve.samples)


# ---------------------------------------------------------------------------
# resolvent functionals


@dataclass
class ScalarEstimate:
    value: complex
    stderr_re: float
    stderr_im: float
    samples: int


def _scalar_estimate(values) -> ScalarEstimate:
    arr = np.asarray(values)
    c = len(arr)
    mean = arr.mean()
    if c > 1:
        se_re = float(arr.real.std(ddof=1) / np.sqrt(c))
        se_im = float(arr.imag.std(ddof=1) / np.sqrt(c))
    else:
        se_re = se_im = 0.0
    return ScalarEstimate(value=complex(mean), stderr_re=se_re, stderr_im=se_im,
                          samples=c)


def theta_sample(a, lam, vecs, z: complex, threshold: float) -> complex:
    """(1/N) Tr((M_t - z)^{-1} 1(A <= threshold)) from the eigendecomposition of M_t."""
    ga = (np.asarray(a) <= threshold).astype(float)
    return complex((ga @ vecs ** 2) @ (1.0 / (lam - z)) / len(a))


def theta_sample_resolvent(a, m_t, z: complex, threshold: float) -> complex:
    """Same trace via a direct linear solve; cross-check route."""
    n = len(a)
    r = np.linalg.solve(m_t - z * np.eye(n), np.eye(n))
    ga = (np.asarray(a) <= threshold).astype(float)
    return complex(np.sum(np.diag(r) * ga) / n)


def estimate_theta(config: ExperimentConfig, z: complex, threshold: float,
                   workers: int = 1) -> ScalarEstimate:
    """Monte Carlo estimate of Theta^g_N(z), g the indicator of a <= threshold.
    At threshold +inf (g = 1) the trace is mean 1/(lam - z), which needs the
    eigenvalues of M_t only."""
    z = complex(z)
    if z.imag == 0:
        raise DomainError("z must have nonzero imaginary part")
    vectors = threshold != math.inf

    def worker(k, a, lam, vecs):
        if not vectors:
            return complex(np.sum(1.0 / (lam - z)) / len(lam))
        return theta_sample(a, lam, vecs, z, threshold)

    return _scalar_estimate(_map_samples(config, worker, workers, vectors=vectors))


def empirical_cdf(config: ExperimentConfig, lam: float, alpha: float,
                  workers: int = 1) -> ScalarEstimate:
    """Phi_N(lambda, alpha): mean overlap weight of pairs with
    lambda_i <= lambda and a_j <= alpha."""

    def worker(k, a, lams, vecs):
        cols = lams <= lam
        rows = a <= alpha
        if not cols.any() or not rows.any():
            return 0.0
        return float(np.sum(vecs[np.ix_(rows, cols)] ** 2) / config.n)

    return _scalar_estimate(_map_samples(config, worker, workers))


def resolvent_diagonal(config: ExperimentConfig, z: complex, workers: int = 1) -> np.ndarray:
    """Per-index mean of ((M_t - z)^{-1})_{ii} in the initial eigenbasis."""
    z = complex(z)
    if z.imag == 0:
        raise DomainError("z must have nonzero imaginary part")

    def worker(k, _a, lam, vecs):
        return vecs ** 2 @ (1.0 / (lam - z))

    vals = _map_samples(config, worker, workers)
    return np.mean(np.asarray(vals), axis=0)
