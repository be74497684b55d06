"""Seeded GOE sampling, and the two LAPACK calls of the Monte Carlo.

All randomness flows through RngStream: a (master_seed, substream_index)
pair mapped to an independent counter-based generator, so per-sample draws
are bit-identical regardless of execution order.

A GOE start needs only its eigenvalues (`goe_spectrum`), and a
single-target run only one eigenpair of M_t (`eigenpair`). Both come from
LAPACK routines of the OpenBLAS that numpy's wheels ship and load already,
`dsterf` and `dsyevr` through their ILP64 LAPACKE entry points, called by
ctypes: no new library loads, and ctypes drops the GIL for the call. A
numpy without that library takes numpy.linalg instead, equal to rounding
(`eigen_route`).
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, DomainError


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


def _check_goe(n: int, variance_scale: float):
    if not 0 < variance_scale < math.inf:  # NaN fails too
        raise DomainError("variance_scale must be positive and finite")
    if n < 2:
        raise DomainError("dimension must be at least 2")


def sample_goe(n: int, variance_scale: float, gen: np.random.Generator,
               out: np.ndarray | None = None) -> np.ndarray:
    """GOE draw from gen: off-diagonal variance variance_scale/n, diagonal
    2*variance_scale/n. With variance_scale = t this is the Brownian noise
    H_t accumulated up to time t. Drawn into `out`, an n x n C-contiguous
    float array, when one is given."""
    _check_goe(n, variance_scale)
    x = gen.standard_normal((n, n), out=out)
    x += x.T  # numpy buffers the overlapping transpose: x stays exactly symmetric
    x *= np.sqrt(variance_scale / (2.0 * n))
    return x


# ---------------------------------------------------------------------------
# LAPACK through ctypes

_COL_MAJOR = 102  # LAPACKE's matrix_layout for column-major storage


@functools.cache
def _lapack():
    """(dsterf, dsyevr): the ILP64 LAPACKE entry points of the OpenBLAS a
    numpy wheel ships beside itself (numpy.libs, or numpy/.dylibs on macOS),
    with their argument types, bound on first use; None where numpy ships no
    such library."""
    root = Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/*scipy_openblas64_*"),
                        *root.glob(".dylibs/*scipy_openblas64_*")]):
        try:
            lib = ctypes.CDLL(str(path))
            dsterf, dsyevr = lib.scipy_LAPACKE_dsterf64_, lib.scipy_LAPACKE_dsyevr64_
        except (OSError, AttributeError):
            continue
        i64, char, real = ctypes.c_int64, ctypes.c_char, ctypes.c_double
        array = np.ctypeslib.ndpointer(np.float64, flags=("C", "W"))
        dsterf.restype = dsyevr.restype = i64
        dsterf.argtypes = [i64, array, array]  # n, d, e
        # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w,
        # z, ldz, isuppz
        dsyevr.argtypes = [ctypes.c_int, char, char, char, i64, array, i64, real, real,
                           i64, i64, real, ctypes.POINTER(i64), array, array, i64,
                           np.ctypeslib.ndpointer(np.int64, flags=("C", "W"))]
        return dsterf, dsyevr
    return None


def eigen_route() -> str:
    """"lapack" when goe_spectrum and eigenpair call LAPACK directly,
    "numpy" when they fall back to numpy.linalg."""
    return "numpy" if _lapack() is None else "lapack"


def goe_spectrum(n: int, scale: float, gen: np.random.Generator) -> np.ndarray:
    """Ascending eigenvalues of a GOE matrix of sample_goe's law, drawn from
    gen as those of its beta = 1 tridiagonal model (Dumitriu & Edelman,
    J. Math. Phys. 43:5830, 2002): the diagonal, n normals times
    sqrt(2 scale/n), then the off-diagonal, chi_{n-1}, ..., chi_1 times
    sqrt(scale/n). LAPACK dsterf takes them in O(n^2); the fallback,
    eigvalsh of the same tridiagonal matrix, in O(n^3)."""
    _check_goe(n, scale)
    d = gen.standard_normal(n)
    d *= math.sqrt(2.0 * scale / n)
    e = np.sqrt(gen.chisquare(np.arange(n - 1, 0, -1)))
    e *= math.sqrt(scale / n)
    lapack = _lapack()
    if lapack is None:
        return np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    info = lapack[0](n, d, e)
    if info:
        raise ConvergenceError(f"dsterf failed (info {info}) at n={n}")
    return d


def eigenpair(m: np.ndarray, i: int):
    """(lam, v): eigenvalue i (0-based, ascending) of the symmetric matrix
    m as a 1-array, and its unit eigenvector as an n x 1 column.

    LAPACK dsyevr with RANGE = I, IL = IU = i + 1: it reduces m to
    tridiagonal form, bisects for the one eigenvalue and takes its vector by
    inverse iteration (dstebz, dstein). m, C-contiguous, is read as the
    column-major matrix it stores, its transpose, from the upper triangle,
    so that LAPACKE makes no transposed copy: the triangle numpy's eigh
    reads. That triangle is overwritten. The fallback is eigh's column."""
    n = m.shape[0]
    lapack = _lapack()
    if lapack is None:
        lam, v = np.linalg.eigh(m)
        return lam[i:i + 1], v[:, i:i + 1]
    w, v = np.empty(n), np.empty((n, 1))
    found = ctypes.c_int64()
    info = lapack[1](_COL_MAJOR, b"V", b"I", b"U", n, m, n, 0.0, 0.0, i + 1, i + 1, 0.0,
                     ctypes.byref(found), w, v, n, np.empty(2, np.int64))
    if info:
        raise ConvergenceError(f"dsyevr failed (info {info}) for eigenpair {i} at n={n}")
    return w[:1], v
