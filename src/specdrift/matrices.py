"""Seeded GOE sampling.

All randomness flows through RngStream: a (master_seed, substream_index)
pair mapped to an independent counter-based generator, so per-sample draws
are bit-identical regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class RngStream:
    """Deterministic per-sample random stream."""

    master_seed: int
    substream_index: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed,
                                     spawn_key=(self.substream_index,))
        return np.random.default_rng(seq)


def ensure_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("matrix must be square")
    if m.shape[0] < 2:
        raise DomainError("dimension must be at least 2")
    if not np.isfinite(m).all():
        raise DomainError("matrix entries must be finite")
    if not np.array_equal(m, m.T):
        raise DomainError("matrix is not symmetric")
    return m


def sample_goe(n: int, variance_scale: float, gen: np.random.Generator,
               out: np.ndarray | None = None) -> np.ndarray:
    """GOE draw from gen: off-diagonal variance variance_scale/n, diagonal
    2*variance_scale/n. With variance_scale = t this is the Brownian noise
    H_t accumulated up to time t. Drawn into `out`, an n x n C-contiguous
    float array, when one is given."""
    if not 0 < variance_scale < math.inf:  # NaN fails too
        raise DomainError("variance_scale must be positive and finite")
    if n < 2:
        raise DomainError("dimension must be at least 2")
    x = gen.standard_normal((n, n), out=out)
    x += x.T  # numpy buffers the overlapping transpose: x stays exactly symmetric
    x *= np.sqrt(variance_scale / (2.0 * n))
    return x
