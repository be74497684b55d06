"""Self-consistent Stieltjes transform of the noisy spectrum.

For noise strength t the limiting transform m(z) = G_{mu_t}(z) solves

    m = int rho0(s) ds / (s - z - t m),

uniquely in the half plane Im(m) * Im(z) > 0 with the convention
G(z) = int mu(dx)/(x - z) (so Im G > 0 above the real axis; this is the
branch that makes the inversion G -> H + i*pi*rho come out right).

w = z + t m is Biane's subordination point. For t > 0 and real z = lam
inside the time-t support, Im w = t pi rho_t(lam) > 0, so the boundary
values rho_t and H_t are solved for on the real axis itself: one Newton
iteration over the whole lambda grid at once.

Every integral against rho0 is one fixed composite Gauss-Legendre sum in
the profile's chart (profiles.ChartRule), clipped at the threshold of a
truncated integral (theta's weight 1(a <= THR), the cdf's alpha), except
on the pieces that hold a pole of 1/(s - w): the profile integrates those
exactly, in one SpectralProfile.pole_moments call per sum that names them
as (point, piece) pairs, so the sums stay exact as Im w -> 0 (t -> 0, lam
at an edge), and at w = lam itself they give the principal value H_0.

The support edges are the real roots x of t int rho0(s)/(s - x)^2 ds = 1
beyond the initial support, at lam = x - t G0(x). Outside them rho_t is
exactly 0 and m is real. Integrals against rho_t (the cdf's outer
integral, the quantiles) are Gauss sums in the sine chart of that support.
"""

from __future__ import annotations

import cmath
import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, EdgeError
from .profiles import SpectralProfile, gauss_legendre, semicircle_angle

#: Default eta offsets of the off-axis rows of the stieltjes CSV.
DEFAULT_ETA_SCHEDULE = (1e-2, 5e-3, 2.5e-3, 1.25e-3)

DEFAULT_TOL = 1e-12
#: Newton iterations before a solve raises ConvergenceError, and step
#: halvings within one iteration.
MAX_ITER = 200
HALVINGS = 6
#: Points per vectorized block: bounds the (points x nodes) temporaries.
BLOCK = 64
#: Edge search: grid points per end and bracketing round (both ends make one
#: block).
EDGE_GRID = BLOCK // 2

#: cdf_limit: spacing of the outer xi Gauss rule. quantile_limit: nodes of
#: the rule that integrates rho_t (with the point it solves at, one block).
CDF_XI_SPACING = 0.02
QUANTILE_NODES = BLOCK - 1


# ---------------------------------------------------------------------------
# quadrature


def _resolvent_moments(profile: SpectralProfile, w, rule=None):
    """(int rho0(s)/(s-w) ds, int rho0(s)/(s-w)^2 ds) for every entry of w,
    over the chart rule `rule` (the profile's whole rule, or a clip of it).

    The pieces of the rule that hold a pole of W(u)/(S(u) - w) are
    integrated exactly by one profile.pole_moments call for all of w, which
    returns them as (point, piece) pairs. Every other piece is summed in one
    pass over its nodes, BLOCK points at a time.

    At a real w inside the support the first moment is the principal value
    (its real part) and the second the Hadamard finite part. On a knot
    value of a tabulated profile the second diverges logarithmically and
    is NaN; no caller asks for it there.
    """
    rule = profile.chart_rule if rule is None else rule
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    rows, pieces, pole_val, pole_der = profile.pole_moments(w, rule)
    if len(rule.lo) == 1 and rows.size == len(w):
        # every point's one piece holds its pole (the semicircle near its
        # support): every node would be zeroed, and the plain pass would add +0
        return pole_val + 0.0, pole_der + 0.0
    val, der = np.empty((2, len(w)), dtype=complex)
    # one temporary for all blocks: a fresh one per block pays its page faults
    buf = np.empty((min(len(w), BLOCK), rule.s.size), dtype=complex)
    for b in range(0, len(w), BLOCK):
        wb = w[b:b + BLOCK]
        plain = buf[:len(wb)]
        np.reciprocal(np.subtract(rule.s.ravel(), wb[:, None], out=plain), out=plain)
        lo, hi = np.searchsorted(rows, (b, b + BLOCK))  # zero the pole pieces' nodes
        plain.reshape(len(wb), *rule.s.shape)[rows[lo:hi] - b, pieces[lo:hi]] = 0.0
        val[b:b + BLOCK] = plain @ rule.ws.ravel() + pole_val[b:b + BLOCK]
        plain *= plain
        der[b:b + BLOCK] = plain @ rule.ws.ravel() + pole_der[b:b + BLOCK]
    return val, der


def _rule_below(profile: SpectralProfile, threshold: float):
    """The profile's chart rule clipped to s <= threshold."""
    rule, (lo, hi) = profile.chart_rule, profile.support
    return rule if threshold >= hi else rule.clip(lo, max(threshold, lo))


# ---------------------------------------------------------------------------
# fixed point


def _solve(profile, t, z, m, tol):
    """Newton on G0(z + t m) = m for every point of z at once; returns
    (m, residual). `m` is the start, or None for G0(z + i sqrt(t)). At
    t = 0, F(m) = G0(z) does not depend on m, and the first step lands on it.

    The Newton step is halved until it stays in the half plane of z and
    cuts the residual (Armijo); after HALVINGS halvings the point takes the
    damped step (m + F(m))/2 instead, which stays in the half plane because
    F maps it into itself.
    """
    sign = np.where(z.imag < 0, -1.0, 1.0)
    if m is None:
        m = _resolvent_moments(profile, z + 1j * sign * math.sqrt(t))[0]
    m = np.where(m.imag * sign > 0, m, m.real + 1e-8j * sign)
    F, dF = _resolvent_moments(profile, z + t * m)
    g = F - m
    res = np.abs(g)
    with np.errstate(all="ignore"):
        for _ in range(MAX_ITER):
            act = np.flatnonzero(~(res <= tol))
            if act.size == 0:
                # one more Newton step, kept where it lowers the residual
                cand = m - g / (t * dF - 1.0)
                gc = _resolvent_moments(profile, z + t * cand)[0] - cand
                better = (cand.imag * sign > 0) & (np.abs(gc) < res)
                return np.where(better, cand, m), np.where(better, np.abs(gc), res)
            step = -g[act] / (t * dF[act] - 1.0)
            cand, gc, dFc = m[act].copy(), g[act].copy(), dF[act].copy()
            todo, alpha = np.arange(act.size), 1.0
            for _ in range(HALVINGS + 1):
                last = alpha < 0.5 ** HALVINGS
                k = act[todo]
                c = m[k] + (0.5 * g[k] if last else alpha * step[todo])
                Fc, dFk = _resolvent_moments(profile, z[k] + t * c)
                cand[todo], gc[todo], dFc[todo] = c, Fc - c, dFk
                if last:
                    break
                ok = (c.imag * sign[k] > 0) & (np.abs(Fc - c) <= (1.0 - alpha / 4.0) * res[k])
                todo, alpha = todo[~ok], alpha / 2.0
                if todo.size == 0:
                    break
            m[act], g[act], dF[act], res[act] = cand, gc, dFc, np.abs(gc)
    worst = int(np.nanargmax(np.where(np.isfinite(res), res, np.inf)))
    raise ConvergenceError(
        f"fixed point not converged at z={z[worst]} (residual {res[worst]:.3e})",
        residual=float(res[worst]), iterations=MAX_ITER)


def solve_fixed_point(profile: SpectralProfile, t: float, z: complex) -> complex:
    """G_{mu_t}(z) with self-consistency residual <= DEFAULT_TOL."""
    z = complex(z)
    if z.imag == 0:
        raise DomainError("z must have nonzero imaginary part")
    if t < 0:
        raise DomainError("t must be nonnegative")
    m, _ = _solve(profile, t, np.array([z]), None, DEFAULT_TOL)
    return complex(m[0])


# ---------------------------------------------------------------------------
# support edges and the real-axis line


@functools.lru_cache(maxsize=32)
def _edges(profile: SpectralProfile, t: float):
    """(x, lam) of the lower and of the upper time-t support edge, kept per
    (profile, t) for the next caller (a quantile and the line at it).

    Beyond the initial support t G0'(x) falls from +inf to 0 and is at most
    t/(x - end)^2, so the root of t G0'(x) = 1 lies within sqrt(t) of the
    end. It is bracketed on a log grid and the bracket zoomed to rounding,
    at both ends at once: one moments call per round. lam = x - t G0(x) is
    stationary in x there. A t that is not positive is a DomainError.
    """
    if not t > 0:
        raise DomainError(f"the time-t support needs t > 0, got t={t}")
    lo0, hi0 = profile.support
    ends, sides = np.array([lo0, hi0]), np.array([-1.0, 1.0])
    delta = np.array([np.geomspace(np.spacing(max(1.0, abs(end))), math.sqrt(t), EDGE_GRID)
                      for end in ends])
    bracket = np.empty((2, 2))
    active = [0, 1]
    for _ in range(MAX_ITER):
        if not active:
            break
        w = ends[active, None] + sides[active, None] * delta[active]
        g1 = _resolvent_moments(profile, w.ravel())[1].real.reshape(w.shape)
        with np.errstate(over="ignore"):  # t G0' = inf > 1 at a huge t: the edge is further out
            excess = t * g1 - 1.0
        zoom = []
        for i, ex in zip(active, excess):
            k = int(np.argmax(~(ex > 0)))
            if ex[k] > 0 or k == 0:  # no sign change: the edge sits at a grid end
                bracket[i] = delta[i, -1] if ex[k] > 0 else delta[i, 0]
                continue
            a, b = bracket[i] = delta[i, k - 1], delta[i, k]
            if b - a > 4.0 * np.spacing(abs(ends[i]) + b):
                delta[i] = np.linspace(a, b, EDGE_GRID)
                zoom.append(i)
        active = zoom
    x = ends + sides * 0.5 * (bracket[:, 0] + bracket[:, 1])
    lam = x - t * _resolvent_moments(profile, x)[0].real
    return (float(x[0]), float(lam[0])), (float(x[1]), float(lam[1]))


def _outside(profile, t, lams, x_edge, upper, tol):
    """Real m = G_t(lam) beyond the support. lam -> w = lam + t m is
    inverted by Newton from w = lam: w - t G0(w) is increasing and convex
    above the upper edge (concave below the lower), so the iterates move
    monotonically onto the root, and they are clamped at the edge x. Every
    point has its own edge x_edge and side (upper), so both sides take one
    Newton."""
    m = np.zeros(len(lams))
    bound = (x_edge - lams) / t
    F, dF = _resolvent_moments(profile, lams + t * m)
    g = F.real - m
    res, done = np.abs(g), False
    with np.errstate(all="ignore"):
        for _ in range(MAX_ITER):
            step = g / (1.0 - t * dF.real)
            cand = m + np.where(np.isfinite(step), step, 0.0)
            cand = np.where(upper, np.maximum(cand, bound), np.minimum(cand, bound))
            F, dF = _resolvent_moments(profile, lams + t * cand)
            g = F.real - cand
            if done:  # one step past convergence, kept where it lowers the residual
                better = np.abs(g) < res
                return np.where(better, cand, m), np.where(better, np.abs(g), res)
            m, res = cand, np.abs(g)
            done = bool(np.all(res <= tol))
    worst = int(np.argmax(res))
    raise ConvergenceError(f"real fixed point not converged at lambda={lams[worst]} "
                           f"(residual {res[worst]:.3e})",
                           residual=float(res[worst]), iterations=MAX_ITER)


def boundary_values(profile: SpectralProfile, t: float, lams, tol: float = DEFAULT_TOL):
    """Boundary values m = G_t(lam + i0) = H_t + i pi rho_t at every lam
    (t >= 0), and the residuals of the solve. A t that is neither 0 nor
    positive (_edges) or a non-finite lam is a DomainError.

    At t = 0 the line is exact, with zero residuals: rho_0 from the profile,
    H_0 (off the support the real G_0) the real part of the moments at
    w = lam, a principal value. On an edge H_0 is finite where rho_0
    vanishes (semicircle) and diverges where it jumps (EdgeError)."""
    lams = np.asarray(lams, dtype=float)
    if not np.isfinite(lams).all():
        raise DomainError("lambda must be finite")
    if t == 0:
        if not profile.edge_singular and np.isin(lams, profile.support).any():
            raise EdgeError("H_0 diverges on a support edge where rho_0 jumps")
        with np.errstate(divide="ignore", invalid="ignore"):
            m = _resolvent_moments(profile, lams + 0j)[0]
        m.imag = math.pi * profile.density(lams)
        return m, np.zeros(len(lams))
    (x_lo, lam_lo), (x_hi, lam_hi) = _edges(profile, t)
    inside = (lams > lam_lo) & (lams < lam_hi)
    upper = lams >= lam_hi
    outside = (lams <= lam_lo) | upper
    m = np.empty(len(lams), dtype=complex)
    res = np.zeros(len(lams))
    if inside.any():
        m[inside], res[inside] = _solve(profile, t, lams[inside] + 0j, None, tol)
    if outside.any():
        upper = upper[outside]
        m[outside], res[outside] = _outside(profile, t, lams[outside],
                                            np.where(upper, x_hi, x_lo), upper, tol)
    return m, res


@dataclass
class StieltjesSolution:
    """Solved transform on a (lambda, eta) grid plus the boundary values."""

    lambdas: np.ndarray
    eta_schedule: tuple
    values: np.ndarray  # shape (n_eta, n_lambda), etas descending
    rho: np.ndarray
    hilbert: np.ndarray
    residual: np.ndarray  # self-consistency residuals of every solved point

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
    """Boundary values on a lambda grid, plus the transform at lambda + i eta
    for every eta in the schedule.

    The off-axis rows are solved from the smallest eta up, each warm-started
    from the one below it and the lowest from the real-axis line.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    etas = sorted(set(float(e) for e in eta_schedule), reverse=True)
    if not etas or etas[-1] <= 0:
        raise DomainError("eta schedule must be positive")
    values = np.empty((len(etas), len(lambdas)), dtype=complex)
    residual = np.zeros((len(etas) + 1, len(lambdas)))
    m, residual[-1] = boundary_values(profile, t, lambdas, tol)
    rho, hilbert = m.imag / math.pi, m.real
    for i in reversed(range(len(etas))):
        values[i], residual[i] = _solve(profile, t, lambdas + 1j * etas[i], m, tol)
        m = values[i]
    return StieltjesSolution(lambdas=lambdas, eta_schedule=tuple(etas), values=values,
                             rho=rho, hilbert=hilbert, residual=residual)


# ---------------------------------------------------------------------------
# limiting functionals


def theta_limit(profile: SpectralProfile, t: float, z: complex, threshold: float) -> complex:
    """Limit of (1/N) Tr((M_t - z)^{-1} 1(A <= threshold)): G0 clipped at the
    threshold, at the subordination point w = z + t m."""
    m = solve_fixed_point(profile, t, z)
    return complex(_resolvent_moments(profile, z + t * m, _rule_below(profile, threshold))[0][0])


def _sine_rule(lower: float, upper: float, v: float, n: int):
    """n-point Gauss rule (xi, weights) for int f d xi from lower to xi(v) in
    the sine chart xi(u) = lower + (upper - lower) sin^2(u), 0 <= u <= pi/2,
    of the support, in which the square-root edges of rho_t are smooth."""
    nodes, weights = gauss_legendre(n)
    u = (nodes + 1.0) * (v / 2.0)
    span = upper - lower
    return lower + span * np.sin(u) ** 2, (v / 2.0) * span * weights * np.sin(2.0 * u)


def cdf_limit(profile: SpectralProfile, t: float, lam: float, alpha: float) -> float:
    """Limiting bivariate CDF Phi(lambda, alpha) of the overlap weights.

    Outer integral over xi <= lam against rho_t (_sine_rule), inner one of
    the shifted Cauchy kernel over s <= alpha. As Im[1/(s - w)] =
    Im(w)/|s - w|^2 and Im w = t pi rho_t at w = xi + t m(xi), rho_t times
    the inner one is Im G0(w)/pi, G0 clipped at alpha: one call for all xi.
    """
    if t <= 0:
        raise DomainError("cdf_limit needs t > 0")
    if alpha <= profile.support[0]:
        return 0.0
    (_, lower), (_, upper) = _edges(profile, t)
    top = min(lam, upper)
    if top <= lower:
        return 0.0
    v = math.asin(math.sqrt((top - lower) / (upper - lower)))
    xi, wq = _sine_rule(lower, upper, v, max(48, math.ceil((top - lower) / CDF_XI_SPACING)))
    m, _ = boundary_values(profile, t, xi)
    g = _resolvent_moments(profile, xi + t * m, _rule_below(profile, alpha))[0]
    return float(wq @ g.imag / math.pi)


def quantile_limit(profile: SpectralProfile, t: float, x: float) -> float:
    """Location of the x-quantile of the time-t spectrum (t > 0): the root of
    the CDF int_lower^xi rho_t = x, by Newton in the sine chart coordinate,
    safeguarded by bisection, from the root for the semicircle-shaped CDF
    (2v - sin(4v)/2)/pi. Every CDF value is one _sine_rule sum."""
    (_, lower), (_, upper) = _edges(profile, t)
    a, b, v = 0.0, math.pi / 2.0, (float(semicircle_angle(x)) + math.pi / 2.0) / 2.0
    for _ in range(MAX_ITER):
        xi, wq = _sine_rule(lower, upper, v, QUANTILE_NODES)
        xv = lower + (upper - lower) * math.sin(v) ** 2
        rho = boundary_values(profile, t, np.append(xi, xv))[0].imag / math.pi
        excess = float(wq @ rho[:-1]) - x
        if abs(excess) <= DEFAULT_TOL:
            return float(xv)
        a, b = (a, v) if excess > 0 else (v, b)
        slope = rho[-1] * (upper - lower) * math.sin(2.0 * v)
        v = v - excess / slope if slope > 0 else math.inf
        if not a <= v <= b:
            v = 0.5 * (a + b)
    raise ConvergenceError(f"quantile x={x} not converged", residual=abs(excess),
                           iterations=MAX_ITER)


# ---------------------------------------------------------------------------
# GOE closed form
#
# A semicircle of radius r at time t is the semicircle of variance
# c = r^2/4 + t (radius e = 2 sqrt(c)); at the default r = 2, c = 1 + t exactly.


def semicircle_stieltjes(t: float, z: complex, radius: float = 2.0) -> complex:
    """G(z) = (-z + sqrt(z - e) sqrt(z + e))/(2c): the branch with Im G > 0
    above the axis and G -> 0 at infinity. At a real z it is the upper
    boundary value H_t + i pi rho_t, with H_t = -z/(2c) inside the support
    and rho_t = 0 beyond it."""
    c = radius * radius / 4.0 + t
    if not 0 < c < math.inf:
        raise DomainError(f"the semicircle variance r^2/4 + t must be positive and finite, "
                          f"got {c}")
    z, e = complex(z), 2.0 * math.sqrt(c)
    return (-z + cmath.sqrt(z - e) * cmath.sqrt(z + e)) / (2.0 * c)
