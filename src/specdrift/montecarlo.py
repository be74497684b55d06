"""Finite-N experiments: sample the initial matrix and the Gaussian noise,
diagonalize, and accumulate overlap curves, resolvent traces and the
empirical bivariate CDF.

Samples are independent work units keyed by substream index: helper
threads may draw them ahead (and start an eigh by the reduction to
tridiagonal form), and the calling thread decomposes them and runs every
per-sample computation in ascending order (`_map_samples`).
Accumulators keep per-sample contributions, so merging is associative
bit-exactly: the final reduction always runs in ascending substream order
regardless of how partial accumulators were combined. One helper reduces
every estimate, curve or scalar, to its mean and standard error (`_mean_stderr`).

The initial matrix is always represented in its own eigenbasis (the noise is
rotationally invariant, so a GOE start reduces to a diagonal matrix of
sorted GOE eigenvalues, drawn from the start's tridiagonal model). Overlaps
<psi_i(t)|phi_j> are then just eigenvector components of M_t.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .matrices import (RngStream, eigenpair, finish_eigh, finish_eigvalsh, goe_spectrum,
                       sample_goe, tridiagonalize)
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

    def start(self, gen, n: int) -> np.ndarray:
        """The eigenvalues of a GOE start of dimension n drawn from the
        sample's generator, by its tridiagonal model (`goe_spectrum`)."""
        return goe_spectrum(n, self.scale, gen)

    def describe(self):
        return {"kind": "goe", "scale": self.scale}


@dataclass(frozen=True)
class ProfileInitial:
    """Deterministic initial matrix with eigenvalues a((i-1/2)/n), evaluated
    once per n (one vectorized root find for quantile profiles)."""

    profile: SpectralProfile
    _by_n: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def start(self, gen, n: int) -> np.ndarray:
        """a((i - 1/2)/n), one array shared read only by every sample."""
        a = self._by_n.get(n)
        if a is None:
            a = self.profile.quantiles(n)
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
        if not 0 <= self.t < math.inf:  # NaN fails too
            raise ConfigError("t must be finite and nonnegative")
        if self.master_seed < 0:
            raise ConfigError("master seed must be nonnegative")
        if any(i < 1 or i > self.n for i in self.target_indices):
            raise ConfigError("target indices must lie in [1, n]")
        if len(set(self.target_indices)) < len(self.target_indices):
            raise ConfigError("target indices must not repeat")
        if self.binning < 1 or self.binning > self.n:
            raise ConfigError("binning window must lie in [1, n]")

    def describe(self):
        return {"n": self.n, "t": self.t, "samples": self.samples,
                "initial": self.initial.describe(),
                "target_indices": list(self.target_indices),
                "master_seed": self.master_seed, "binning": self.binning}


#: The eigenvector request for every column.
ALL = slice(None)


def _split(columns) -> bool:
    """Whether a request takes eigh (every column, or two or more): then
    its first stage, the reduction to tridiagonal form, runs with the draw."""
    return columns == ALL or len(columns) > 1


def _draw(config: ExperimentConfig, k: int, columns=ALL):
    """The initial eigenvalues a of substream k and M_t = diag(a) + H_t in
    the initial eigenbasis, one n x n array (None at t = 0): one draw-ahead
    task for the request `columns`. For an eigh request (`_split`) M_t
    leaves reduced by `tridiagonalize`, as its tuple. The substream's
    generator draws the start (`start`), then H_t. Shares no state between
    calls but ProfileInitial's per-n cache, whose entries do not depend on
    who writes them, so helper threads can draw ahead."""
    gen = RngStream(config.master_seed, k).generator()
    a = config.initial.start(gen, config.n)
    if config.t == 0:
        return a, None
    m = sample_goe(config.n, config.t, gen)
    m[np.diag_indices(config.n)] += a
    return a, tridiagonalize(m) if _split(columns) else m


def _decompose(a, m, columns=ALL) -> tuple:
    """(a, lam, V) for a sample `_draw` drew for the request `columns`: the
    initial eigenvalues, the eigenvalues of M_t and the eigenvector columns
    `columns` of M_t in the initial eigenbasis, V[j, c] = <psi_i(t)|phi_j>
    for i = columns[c]: an n x n array for ALL, n x k for k columns, n x 0
    for none.

    A values-only request reduces M_t to tridiagonal form here and takes its
    eigenvalues by `finish_eigvalsh`, equal to eigvalsh's bit for bit. One
    column i takes `eigenpair`, and lam is then lambda_i alone. Any other
    request finishes the eigh that the draw began (`finish_eigh`). At t = 0
    (m is None) lam is a and V the identity's columns."""
    if m is None:
        return a, a.copy(), np.eye(len(a))[:, columns]
    if columns == ():
        return a, finish_eigvalsh(*tridiagonalize(m)), np.empty((len(a), 0))
    if not _split(columns):
        return a, *eigenpair(m, *columns)
    lam, v = finish_eigh(*m)
    return a, lam, v[:, columns]


def _now(fn, *args) -> Future:
    """fn(*args) run here, as a completed future: the inline stand-in for a
    pool's submit."""
    done = Future()
    done.set_result(fn(*args))
    return done


def _map_samples(config: ExperimentConfig, worker, workers: int = 1, *,
                 columns=ALL) -> list:
    """[worker(k, a_k, lam_k, V_k) for k in range(config.samples)], V_k the
    eigenvector columns `columns` (0-based: ALL, or a tuple, maybe empty) as
    `_decompose` gives them.

    workers - 1 helper threads draw samples (`_draw`), up to workers - 1
    ahead, and reduce each M_t of an eigh request to tridiagonal form; every
    other stage of a decomposition and every worker call runs on the calling
    thread in ascending k. Only one sample's decomposition is alive at a
    time, and every drawn sample is bit-identical to a serial draw.
    workers = 1 runs all stages inline.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    helpers = workers - 1
    pool = ThreadPoolExecutor(max_workers=helpers) if helpers else None
    submit = pool.submit if pool else _now
    try:
        ahead = deque(submit(_draw, config, k, columns)
                      for k in range(min(helpers, config.samples)))
        results = []
        for k in range(config.samples):
            if k + helpers < config.samples:
                ahead.append(submit(_draw, config, k + helpers, columns))
            # one expression, so that no name keeps M_t or V alive into the
            # next sample's draw and decomposition
            results.append(worker(k, *_decompose(*ahead.popleft().result(), columns)))
        return results
    finally:
        if pool:
            pool.shutdown(wait=True, cancel_futures=True)


# ---------------------------------------------------------------------------
# reduction and overlap curves


def _mean_stderr(rows):
    """(mean, stderr) over the first axis of rows: numpy's mean, which adds
    stacked rows one after another in the order given (a 1-d array by its
    pairwise sum), and std(ddof=1) / sqrt(count), 0 for one row; complex rows
    give the parts' standard errors as re + i im. numpy's std, step for step,
    but its deviations overwrite the one copy of rows instead of a second."""
    rows = np.array(rows)
    c = len(rows)
    mean = rows.mean(axis=0)
    if c == 1:
        return mean, np.zeros_like(mean)

    def stderr(part):
        part -= part.mean(axis=0)
        part *= part
        return np.sqrt(part.sum(axis=0) / (c - 1)) / np.sqrt(c)

    if np.iscomplexobj(rows):
        return mean, stderr(rows.real) + 1j * stderr(rows.imag)
    return mean, stderr(rows)


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
        if not np.max(np.abs(row_sums - 1.0)) <= ROW_SUM_TOL:  # NaN fails too
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
        """(a_mean, mean, stderr) of the parts in ascending key order: `a`
        summed without a stack (a profile start shares one `a`), and
        `_mean_stderr` of the squared overlaps, one row per target."""
        keys = sorted(self._parts)
        if not keys:
            raise ConfigError("empty accumulator")
        a_sum = sum((self._parts[k][0] for k in keys), np.zeros(self.n))
        return a_sum / len(keys), *_mean_stderr([self._parts[k][1] for k in keys])


@dataclass
class OverlapCurve:
    """N * mean squared overlap against the (mean) initial eigenvalues."""

    a: np.ndarray
    values: np.ndarray  # N * mean
    stderr: np.ndarray  # N * standard error (1 sigma)
    samples: int

    @property
    def n(self) -> int:
        return len(self.a)

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
    targets = tuple(i - 1 for i in config.target_indices)

    def worker(k, a, _lam, vecs):
        return k, a, vecs.T ** 2  # rows: targets

    acc = OverlapAccumulator(config.n, config.target_indices)
    for k, a, sq in _map_samples(config, worker, workers, columns=targets):
        acc.add_sample(k, a, sq)
    return acc


def run_overlap_experiment(config: ExperimentConfig, workers: int = 1):
    """Empirical N E[<psi_i|phi_j>^2] curves for each configured target."""
    acc = accumulate_overlaps(config, workers)
    a_mean, mean, stderr = acc.finalize()
    curves = {i: OverlapCurve(a_mean, config.n * m, config.n * se, acc.count)
              for i, m, se in zip(config.target_indices, mean, stderr)}
    if config.binning > 1:
        curves = {i: bin_overlap_curve(c, config.binning) for i, c in curves.items()}
    return curves


# ---------------------------------------------------------------------------
# binning


def bin_overlap_curve(curve: OverlapCurve, window: int) -> OverlapCurve:
    """Moving average over index windows with reflect-boundary boxes: one
    convolution of the curve padded by its mirror image (np.pad "symmetric":
    index -1 - j on the left, 2n - 1 - j on the right).

    Row i averages indices i - h .. i + h (window = 2h + 1). An even window
    averages the two boxes at offsets -w/2 .. w/2 - 1 and -w/2 + 1 .. w/2,
    i.e. the centred 2 x w moving average whose end offsets carry half
    weight. The weights are integers (units of 1/(2w)), divided once: the
    symmetric doubly stochastic band matrix of these boxes, to rounding.
    Standard errors propagate as independent errors of the padded entries,
    so a mirrored copy counts as its own entry in the first and last h rows.
    """
    if window < 1 or window > curve.n:
        raise DomainError("window must lie in [1, n]")
    h = window // 2
    weight = np.full(2 * h + 1, 2)
    if window % 2 == 0:
        weight[[0, -1]] = 1

    def smooth(x, w):
        return np.convolve(np.pad(x, h, mode="symmetric"), w, "valid")

    return OverlapCurve(a=curve.a, values=smooth(curve.values, weight) / (2 * window),
                        stderr=np.sqrt(smooth(curve.stderr ** 2, weight ** 2)) / (2 * window),
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
    mean, stderr = _mean_stderr(values)
    return ScalarEstimate(value=complex(mean), stderr_re=float(stderr.real),
                          stderr_im=float(stderr.imag), samples=len(values))


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
    if math.isnan(threshold):
        raise DomainError("threshold must not be NaN")
    columns = () if threshold == math.inf else ALL

    def worker(k, a, lam, vecs):
        if not columns:
            return complex(np.sum(1.0 / (lam - z)) / len(lam))
        return theta_sample(a, lam, vecs, z, threshold)

    return _scalar_estimate(_map_samples(config, worker, workers, columns=columns))


def empirical_cdf(config: ExperimentConfig, lam: float, alpha: float,
                  workers: int = 1) -> ScalarEstimate:
    """Phi_N(lambda, alpha): mean overlap weight of pairs with
    lambda_i <= lambda and a_j <= alpha."""
    if math.isnan(lam) or math.isnan(alpha):
        raise DomainError("lambda and alpha must not be NaN")

    def worker(k, a, lams, vecs):
        return float(np.sum(vecs[np.ix_(a <= alpha, lams <= lam)] ** 2) / config.n)

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
