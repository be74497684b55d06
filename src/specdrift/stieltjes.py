"""Self-consistent Stieltjes transform of the noisy spectrum.

For noise strength t the limiting transform m(z) = G_{mu_t}(z) solves

    m = integral_0^1 dx / (a(x) - z - t m),

uniquely in the half plane Im(m) * Im(z) > 0 with the convention
G(z) = int mu(dx)/(x - z) (so Im G > 0 above the real axis; this is the
branch that makes the inversion G -> H + i*pi*rho come out right).

Near-axis boundary values (density and Hilbert transform) are obtained by
solving on a decreasing eta schedule and Richardson-extrapolating to
eta = 0.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, quad_vec

from .errors import ConvergenceError, DomainError
from .profiles import SpectralProfile

#: Default eta offsets for real-axis extrapolation (halving schedule).
DEFAULT_ETA_SCHEDULE = (1e-2, 5e-3, 2.5e-3, 1.25e-3)

#: lambda counts as inside the support when extrapolated Im G / pi exceeds this.
SUPPORT_RHO_THRESHOLD = 1e-4

DEFAULT_TOL = 1e-12
SUPPORT_TOL = 1e-4  # bisection width of support_bounds

#: cdf_limit: spacing of the outer xi Gauss rule, tolerance of the inner
#: kernel-mass quadrature.
CDF_XI_SPACING = 0.02
CDF_QUAD_TOL = 1e-9


@dataclass
class DensityLine:
    """Boundary values of the Stieltjes transform at one real point."""

    lam: float
    rho: float
    hilbert: float

    @property
    def inside_support(self) -> bool:
        return self.rho > SUPPORT_RHO_THRESHOLD


# ---------------------------------------------------------------------------
# quadrature


def _resolvent_moments(profile: SpectralProfile, w: complex, tol: float):
    """(int rho0(s)/(s-w) ds, int rho0(s)/(s-w)^2 ds).

    Integrates over the profile's quadrature chart, splitting panels at the
    integrand peak s = Re(w). Profiles exposing a fixed quadrature rule
    (tabulated interpolants, where adaptive panels are slow) use it directly.
    """
    rule = getattr(profile, "quad_rule", None)
    if rule is not None:
        s, wt = rule()
        r = wt / (s - w)
        return complex(r.sum()), complex((r / (s - w)).sum())

    S, W, u_lo, u_hi, u_from_s = profile.quad_chart()

    def f(u):
        d = S(u) - w
        r = W(u) / d
        return np.array([r, r / d])

    lo, hi = profile.support
    points = [u_from_s(w.real)] if lo < w.real < hi else None
    val, _err = quad_vec(f, u_lo, u_hi, epsabs=tol, epsrel=tol, points=points)
    return val[0], val[1]


def weighted_resolvent_integral(profile: SpectralProfile, w: complex, g, tol: float = 1e-12,
                                upper=None) -> complex:
    """int g(s) rho0(s)/(s - w) ds over the initial support (optionally
    truncated above at `upper`)."""
    lo, hi = profile.support
    S, W, u_lo, u_hi, u_from_s = profile.quad_chart()
    if upper is not None:
        if upper <= lo:
            return 0.0 + 0.0j
        if upper < hi:
            hi = float(upper)
            u_hi = u_from_s(hi)

    def f(u):
        s = S(u)
        return g(s) * W(u) / (s - w)

    points = [u_from_s(w.real)] if lo < w.real < hi else None
    val, _err = quad_vec(f, u_lo, u_hi, epsabs=tol, epsrel=tol, points=points)
    return val


# ---------------------------------------------------------------------------
# fixed point


def fixed_point_residual(profile: SpectralProfile, t: float, z: complex, m: complex,
                         tol: float = DEFAULT_TOL) -> float:
    """|F(m) - m| for the self-consistency map F."""
    val, _ = _resolvent_moments(profile, z + t * m, tol)
    return abs(val - m)


def _newton_solve(profile, t, z, m0, tol, max_iter):
    """Newton iteration on F(m) - m = 0 with a damped-step safeguard.

    Plain damped fixed-point iteration loses its contraction rate like
    O(eta) near the real axis; Newton keeps the iteration count flat there.
    """
    sign = 1.0 if z.imag > 0 else -1.0
    m = m0
    F, dF_dw = _resolvent_moments(profile, z + t * m, tol)
    g = F - m
    res = abs(g)
    for _ in range(max_iter):
        if res <= tol:
            return m, res
        # dF/dm = t * int rho/(s-w)^2
        gp = t * dF_dw - 1.0
        step = -g / gp if gp != 0 else g
        cand = m + step
        if cand.imag * sign <= 0:
            cand = m + 0.5 * g  # damped fallback keeps the half plane
        F, dF_dw = _resolvent_moments(profile, z + t * cand, tol)
        g_new = F - cand
        if abs(g_new) > 0.9 * res and abs(g_new) > tol:
            # Newton overshoot: retry with a damped step from m
            cand = m + 0.5 * g
            F, dF_dw = _resolvent_moments(profile, z + t * cand, tol)
            g_new = F - cand
        m, g, res = cand, g_new, abs(g_new)
    return m, res


def solve_fixed_point(profile: SpectralProfile, t: float, z: complex,
                      tol: float = DEFAULT_TOL, max_iter: int = 200,
                      m0: complex | None = None) -> complex:
    """G_{mu_t}(z) with self-consistency residual <= tol.

    Without a warm start the solver continues in Im(z): it starts far from
    the axis (where the map is strongly contracting) and halves eta down to
    the target, Newton-polishing at each level.
    """
    z = complex(z)
    if z.imag == 0:
        raise DomainError("z must have nonzero imaginary part")
    if t < 0:
        raise DomainError("t must be nonnegative")
    if t == 0:
        val, _ = _resolvent_moments(profile, z, tol)
        return val

    sign = 1.0 if z.imag > 0 else -1.0
    eta_target = abs(z.imag)
    if m0 is None:
        lo, hi = profile.support
        span = (hi - lo) + 2.0 * math.sqrt(t)
        eta = max(2.0 * span, 4.0 * math.sqrt(t), eta_target)
        m = -1.0 / complex(z.real, sign * eta)
        while eta > eta_target:
            zk = complex(z.real, sign * eta)
            m, _ = _newton_solve(profile, t, zk, m, max(tol, 1e-10), max_iter)
            eta = max(eta / 2.0, eta_target)
    else:
        m = complex(m0)
        if m.imag * sign <= 0:
            m = complex(m.real, sign * 1e-8)

    m, res = _newton_solve(profile, t, z, m, tol, max_iter)
    if res > tol:
        raise ConvergenceError(
            f"fixed point not converged at z={z} (residual {res:.3e})",
            residual=res, iterations=max_iter)
    return m


# ---------------------------------------------------------------------------
# eta extrapolation


def richardson_extrapolate(etas, values):
    """Neville polynomial extrapolation of values(eta) to eta = 0."""
    etas = [float(e) for e in etas]
    p = [complex(v) for v in values]
    n = len(p)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            num = (0.0 - etas[i - j]) * p[i] - (0.0 - etas[i]) * p[i - 1]
            p[i] = num / (etas[i] - etas[i - j])
    return p[-1]


def density_and_hilbert(profile: SpectralProfile, t: float, lam: float,
                        tol: float = DEFAULT_TOL, warm: complex | None = None) -> DensityLine:
    """Boundary density rho_t(lam) and Hilbert transform H_{rho_t}(lam),
    extrapolated from DEFAULT_ETA_SCHEDULE.

    Outside the support (extrapolated Im G below threshold) the line comes
    back with rho = 0 and the real limit in `hilbert`.

    At t = 0 inside the support the line is exact: rho_0 is the profile's
    density and H_0 the principal value int rho_0(s)/(s - lam) ds (Cauchy
    weight quadrature), with no eta schedule.
    """
    if t == 0:
        rho = profile.density(lam)
        if rho <= SUPPORT_RHO_THRESHOLD:
            g = solve_fixed_point(profile, 0.0, complex(lam, 1e-9), tol=tol)
            return DensityLine(lam=lam, rho=0.0, hilbert=g.real)
        lo, hi = profile.support
        h0, _err = quad(profile.density, lo, hi, weight="cauchy", wvar=lam,
                        epsabs=tol, epsrel=tol, limit=200)
        return DensityLine(lam=lam, rho=rho, hilbert=h0)
    vals = []
    m = warm
    for eta in DEFAULT_ETA_SCHEDULE:
        m = solve_fixed_point(profile, t, complex(lam, eta), tol=tol, m0=m)
        vals.append(m)
    g0 = richardson_extrapolate(DEFAULT_ETA_SCHEDULE, vals)
    rho = g0.imag / math.pi
    if rho <= SUPPORT_RHO_THRESHOLD:
        return DensityLine(lam=lam, rho=0.0, hilbert=g0.real)
    return DensityLine(lam=lam, rho=max(rho, 0.0), hilbert=g0.real)


@dataclass
class StieltjesSolution:
    """Solved transform on a (lambda, eta) grid plus extrapolated boundary
    values."""

    profile: SpectralProfile
    t: float
    lambdas: np.ndarray
    eta_schedule: tuple
    values: np.ndarray  # shape (n_eta, n_lambda), etas descending
    tol: float = DEFAULT_TOL
    rho: np.ndarray = field(default=None)
    hilbert: np.ndarray = field(default=None)

    def max_residual(self) -> float:
        worst = 0.0
        for i, eta in enumerate(self.eta_schedule):
            for j, lam in enumerate(self.lambdas):
                r = fixed_point_residual(self.profile, self.t,
                                         complex(lam, eta), self.values[i, j],
                                         tol=self.tol)
                worst = max(worst, r)
        return worst

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda", "eta", "reG", "imG", "rho", "hilbert"])
            for j, lam in enumerate(self.lambdas):
                for i, eta in enumerate(self.eta_schedule):
                    g = self.values[i, j]
                    writer.writerow([f"{lam:.12g}", f"{eta:.12g}",
                                     f"{g.real:.12g}", f"{g.imag:.12g}",
                                     f"{self.rho[j]:.12g}", f"{self.hilbert[j]:.12g}"])


def solve_grid(profile: SpectralProfile, t: float, lambdas,
               eta_schedule=DEFAULT_ETA_SCHEDULE, tol: float = DEFAULT_TOL) -> StieltjesSolution:
    """Solve on a lambda grid for every eta in the schedule.

    A serial continuation pass seeds warm starts: the largest eta sweeps
    lambda left to right, each smaller eta reuses the value one level up.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    etas = sorted(set(float(e) for e in eta_schedule), reverse=True)
    if not etas or etas[-1] <= 0:
        raise DomainError("eta schedule must be positive")
    if t == 0:
        values = np.empty((len(etas), len(lambdas)), dtype=complex)
        for i, eta in enumerate(etas):
            for j, lam in enumerate(lambdas):
                values[i, j] = solve_fixed_point(profile, 0.0, complex(lam, eta), tol=tol)
    else:
        values = np.empty((len(etas), len(lambdas)), dtype=complex)
        warm = None
        for j, lam in enumerate(lambdas):
            values[0, j] = solve_fixed_point(profile, t, complex(lam, etas[0]),
                                             tol=tol, m0=warm)
            warm = values[0, j]
        for i in range(1, len(etas)):
            for j, lam in enumerate(lambdas):
                values[i, j] = solve_fixed_point(profile, t, complex(lam, etas[i]),
                                                 tol=tol, m0=values[i - 1, j])
    rho = np.empty(len(lambdas))
    hilbert = np.empty(len(lambdas))
    for j in range(len(lambdas)):
        g0 = richardson_extrapolate(etas, values[:, j])
        r = g0.imag / math.pi
        rho[j] = r if r > SUPPORT_RHO_THRESHOLD else 0.0
        hilbert[j] = g0.real
    return StieltjesSolution(profile=profile, t=t, lambdas=lambdas,
                             eta_schedule=tuple(etas), values=values, tol=tol,
                             rho=rho, hilbert=hilbert)


# ---------------------------------------------------------------------------
# limiting functionals


def theta_limit(profile: SpectralProfile, t: float, z: complex, g,
                tol: float = DEFAULT_TOL) -> complex:
    """Limit of (1/N) Tr((M_t - z)^{-1} g(A)): one fixed-point solve followed
    by a weighted quadrature with the same kernel."""
    z = complex(z)
    if z.imag == 0:
        raise DomainError("z must have nonzero imaginary part")
    m = solve_fixed_point(profile, t, z, tol=tol)
    return weighted_resolvent_integral(profile, z + t * m, g, tol=tol)


_support_cache: dict = {}


def support_bounds(profile: SpectralProfile, t: float) -> tuple[float, float]:
    """Edges of the time-t spectral support, located by bisection on the
    inside-support test to width SUPPORT_TOL."""
    key = (profile.cache_token, round(t, 12))
    if key in _support_cache:
        return _support_cache[key]
    lo0, hi0 = profile.support
    if t == 0:
        return (lo0, hi0)
    pad = 2.0 * math.sqrt(t) + 0.25
    center = 0.5 * (lo0 + hi0)

    def inside(lam):
        return density_and_hilbert(profile, t, lam, tol=1e-10).inside_support

    lo_out, hi_in = lo0 - pad, center
    while hi_in - lo_out > SUPPORT_TOL:
        mid = 0.5 * (lo_out + hi_in)
        if inside(mid):
            hi_in = mid
        else:
            lo_out = mid
    lower = 0.5 * (lo_out + hi_in)
    lo_in, hi_out = center, hi0 + pad
    while hi_out - lo_in > SUPPORT_TOL:
        mid = 0.5 * (lo_in + hi_out)
        if inside(mid):
            lo_in = mid
        else:
            hi_out = mid
    upper = 0.5 * (lo_in + hi_out)
    _support_cache[key] = (lower, upper)
    return (lower, upper)


def _overlap_kernel_mass(profile, t, line: DensityLine, alpha) -> float:
    """int_{s <= alpha} rho0(s) * t / ((s - lam - t H)^2 + (t pi rho)^2) ds.

    Uses Im[1/(s - w)] = Im(w)/|s - w|^2 with w = lam + t(H + i pi rho),
    so the kernel mass is the imaginary part of a truncated weighted
    resolvent integral.
    """
    b = t * math.pi * line.rho
    if b <= 0:
        return 0.0
    w = complex(line.lam + t * line.hilbert, b)
    val = weighted_resolvent_integral(profile, w, lambda s: 1.0, tol=CDF_QUAD_TOL,
                                      upper=alpha)
    return val.imag * t / b


def cdf_limit(profile: SpectralProfile, t: float, lam: float, alpha: float) -> float:
    """Limiting bivariate CDF Phi(lambda, alpha) of the overlap weights.

    Outer integral over xi up to `lam` against rho_t, inner integral of the
    shifted Cauchy kernel over the initial spectrum up to `alpha`.
    """
    if t <= 0:
        raise DomainError("cdf_limit needs t > 0")
    lo0, hi0 = profile.support
    if alpha <= lo0:
        return 0.0
    lower, upper = support_bounds(profile, t)
    xi_hi = min(lam, upper)
    if xi_hi <= lower:
        return 0.0
    n_nodes = max(48, int(math.ceil((xi_hi - lower) / CDF_XI_SPACING)))
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    xi = 0.5 * (xi_hi - lower) * nodes + 0.5 * (xi_hi + lower)
    wq = 0.5 * (xi_hi - lower) * weights
    total = 0.0
    warm = None
    for k in np.argsort(xi):
        line = density_and_hilbert(profile, t, float(xi[k]), warm=warm)
        warm = complex(line.hilbert, math.pi * max(line.rho, 1e-6))
        if line.rho <= 0:
            continue
        inner = _overlap_kernel_mass(profile, t, line, alpha)
        total += wq[k] * line.rho * inner
    return float(total)


# ---------------------------------------------------------------------------
# GOE closed forms


def semicircle_density(t: float, lam: float) -> float:
    """rho_t for a unit-scale GOE start: semicircle of variance 1 + t."""
    c = 1.0 + t
    disc = 4.0 * c - lam * lam
    if disc <= 0:
        return 0.0
    return math.sqrt(disc) / (2.0 * math.pi * c)


def semicircle_hilbert(t: float, lam: float) -> float:
    """Real boundary value of the GOE Stieltjes transform; -lam/(2(1+t))
    inside the support, the real branch outside."""
    c = 1.0 + t
    if lam * lam <= 4.0 * c:
        return -lam / (2.0 * c)
    s = math.sqrt(lam * lam - 4.0 * c)
    return (-lam + math.copysign(s, lam)) / (2.0 * c)


def semicircle_stieltjes(t: float, z: complex) -> complex:
    """G(z) = (-z + sqrt(z^2 - 4(1+t)))/(2(1+t)), branch with Im G > 0 in the
    upper half plane."""
    z = complex(z)
    if z.imag == 0:
        raise DomainError("z must have nonzero imaginary part")
    c = 1.0 + t
    s = cmath.sqrt(z * z - 4.0 * c)
    if s.imag * z.imag < 0:
        s = -s
    return (-z + s) / (2.0 * c)


def semicircle_density_line(t: float, lam: float) -> DensityLine:
    return DensityLine(lam=lam, rho=semicircle_density(t, lam),
                       hilbert=semicircle_hilbert(t, lam))
