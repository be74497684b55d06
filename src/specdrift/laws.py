"""Closed-form overlap and local-density-of-states laws.

The master kernel for the rescaled mean squared overlap between a perturbed
eigenvector at location lambda and an initial eigenvector at location a is

    N E[<psi|phi>^2] -> t / ((a - lambda - t H)^2 + t^2 pi^2 rho^2)
                      = t / |a - lambda - t m|^2,

with m = H + i pi rho the boundary value G(lambda + i0) of the Stieltjes
transform of the time-t spectrum (stieltjes.boundary_values). The small-t
Cauchy flight is the same kernel on the initial (t = 0) m. Specializations:
the GOE closed form and the two perturbative formulas, plus the
second-order eigenvalue / first-order eigenvector expansion coefficients.
Closed forms only: m and the quantiles of a general profile come from the
solver in stieltjes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapError, DomainError, OutsideSupportError
from .profiles import SemicircleQuantileProfile
from .stieltjes import quantile_limit


def _check_t(t):
    # below t ~ 1.5e-162 t^2 underflows to 0, and the kernel's denominator
    # with it where a_j = lambda_i
    if not (t > 0 and t * t > 0):
        raise DomainError(f"the overlap kernel needs t > 0 with t^2 > 0, got t={t}")


def overlap_full(t: float, lambda_i: float, a_j, m: complex):
    """Master overlap kernel, valid for any t > 0 given the boundary value
    m = H + i pi rho at lambda_i (at t = 0 for the Cauchy flight)."""
    _check_t(t)
    if not m.imag > 0:  # a NaN fails too
        raise OutsideSupportError(f"lambda={lambda_i} outside the support (m={m})")
    a = np.asarray(a_j, dtype=float)
    d, b = a - lambda_i - t * m.real, t * m.imag
    with np.errstate(over="ignore"):  # a huge t: the kernel falls to 0
        val = t / (d * d + b * b)
    return float(val) if a.ndim == 0 else val


def overlap_goe(t: float, lambda_i: float, a_j, radius: float = 2.0):
    """Semicircle-start specialization: t / ((a-l)^2 + t/c l (a-l) + t^2/c)
    with c = radius^2/4 + t (c = 1 + t for the unit GOE).

    Algebraically identical to overlap_full fed with the semicircle closed
    form m (complete the square in the denominator).
    """
    _check_t(t)
    c = radius * radius / 4.0 + t
    edge = 2.0 * math.sqrt(c)
    if abs(lambda_i) > edge:
        raise OutsideSupportError(f"lambda={lambda_i} outside [-{edge}, {edge}]")
    a = np.asarray(a_j, dtype=float)
    d = a - lambda_i
    denom = d * d + (t / c) * lambda_i * d + t * t / c
    if np.any(denom <= 0):
        raise DomainError("nonpositive overlap denominator inside the support")
    val = t / denom
    return float(val) if a.ndim == 0 else val


def ldos(profile, t: float, lambda_i: float, alpha, m: complex):
    """Mean local density of states of the perturbed vector in the initial
    eigenvalue space: induced density times the overlap kernel."""
    rho0 = profile.induced_density(alpha)
    return rho0 * overlap_full(t, lambda_i, alpha, m)


def perturbative_offdiag(t: float, n: int, a_i: float, a_j: float) -> float:
    """E[<psi_i|phi_j>^2] = (t/N) / (a_i - a_j)^2 for macroscopic gaps,
    t << 1."""
    if a_i == a_j:
        raise DegenerateGapError("coinciding eigenvalues")
    return (t / n) / (a_i - a_j) ** 2


def perturbative_diag(t: float, n: int, i: int, spectrum) -> float:
    """E[<psi_i|phi_i>^2] = 1 - (t/N) sum_{j != i} 1/(a_i - a_j)^2.

    `i` is a 0-based index into `spectrum`.
    """
    a = np.asarray(spectrum, dtype=float)
    gaps = np.delete(a - a[i], i)
    if np.any(gaps == 0):
        raise DegenerateGapError("duplicate eigenvalues in spectrum")
    return 1.0 - (t / n) * float(np.sum(1.0 / gaps ** 2))


@dataclass
class PerturbationExpansion:
    """Coefficients of lambda_i^t = a_i + sqrt(t) alpha + t beta + o(t) and
    |psi_i^t> = (1 - gamma_i t)|phi_i> + sqrt(t) sum_j gamma[j] |phi_j>."""

    index: int
    alpha_i: float
    beta_i: float
    gamma: np.ndarray  # gamma[j] for j != index, 0 at the index itself
    gamma_i: float

    def eigenvalue_at(self, t: float, a_i: float) -> float:
        return a_i + math.sqrt(t) * self.alpha_i + t * self.beta_i


def perturbation_expansion(spectrum, h1, i: int) -> PerturbationExpansion:
    """First/second order coefficients for eigenpair i (0-based) of
    diag(spectrum) + sqrt(t) h1."""
    from .matrices import ensure_symmetric  # here, so importing laws skips matrices
    a = np.asarray(spectrum, dtype=float)
    h1 = ensure_symmetric(h1)
    if len(a) != h1.shape[0]:
        raise DomainError("spectrum and matrix dimensions differ")
    gaps = a[i] - a
    gaps[i] = np.inf  # excluded from all sums
    if np.any(gaps == 0):
        raise DegenerateGapError("duplicate eigenvalues in spectrum")
    col = h1[:, i]
    gamma = col / gaps
    gamma[i] = 0.0
    beta = float(np.sum(col ** 2 / gaps))
    gamma_i = 0.5 * float(np.sum(gamma ** 2))
    return PerturbationExpansion(index=i, alpha_i=float(h1[i, i]), beta_i=beta,
                                 gamma=gamma, gamma_i=gamma_i)


# ---------------------------------------------------------------------------
# index -> spectral location


def perturbed_quantile(profile, t: float, x: float) -> float:
    """Location of the x-quantile of the time-t spectrum (the N -> infinity
    bridge from eigenvalue index i to lambda_i^t via x = i/N)."""
    if not 0.0 < x < 1.0:
        raise DomainError("quantile x must be in (0,1)")
    if t == 0:
        return float(profile.eval(x))
    if isinstance(profile, SemicircleQuantileProfile):
        # time-t spectrum is again a semicircle, of variance c = r^2/4 + t
        c0 = profile.radius * profile.radius / 4.0
        return math.sqrt((c0 + t) / c0) * float(profile.eval(x))
    return quantile_limit(profile, t, x)

