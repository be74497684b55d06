"""Allocation functions a(.) on [0,1]: the quantile profiles of the initial
spectrum, with inverse, derivative and the eigenvalue density they induce.

The induced density rho0(alpha) = 1/a'(a^{-1}(alpha)) is the inverse-function
theorem applied to the quantile a: its histogram is what the diagonal entries
a((i-1/2)/n) fill in as n grows.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, DomainError, EdgeError, InvalidProfileError

# Operations needing a' refuse points this close to {0,1} when the
# derivative diverges there (semicircle quantile).
EDGE_MARGIN = 1e-6

#: Gauss-Legendre order of every panel of a chart rule.
RULE_ORDER = 12
#: Newton steps that polish a pole on a tabulated profile's cubic piece, at most.
TABULATED_NEWTON = 24
#: (point, piece) pairs a tabulated profile's pole screen tests at once.
NEAR_CELLS = 1 << 13


def _bisect(f, lo, hi):
    """Root of f, increasing on [lo, hi] (width <= 2), entrywise, to rounding."""
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = f(mid) < 0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _legendre(n, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=None)
def gauss_legendre(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], read-only. The
    nodes are the eigenvalues of the Jacobi matrix of the Legendre recurrence,
    off-diagonal k/sqrt(4k^2 - 1) (Golub & Welsch, Math. Comp. 23:221, 1969),
    polished by two Newton steps on P_n; the weights are
    2/((1 - x^2) P_n'(x)^2). Both are made exactly symmetric about 0."""
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    for _ in range(2):
        p, dp = _legendre(n, x)
        x = x - p / dp
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _same_bits(a, b):
    """Entrywise: do the complex arrays a and b hold the same bits?"""
    return (a.view(np.int64) == b.view(np.int64)).reshape(*a.shape, 2).all(axis=-1)


def semicircle_angle(x):
    """theta in [-pi/2, pi/2] with theta + sin(theta) cos(theta) = pi (x - 1/2),
    solved for e = pi/2 - |theta| (e - sin(e) cos(e) = pi min(x, 1 - x)): exact
    at the edges x = 0, 1, where both sides are small together; odd in x - 1/2."""
    target = math.pi * np.minimum(x, 1.0 - x)
    e = _bisect(lambda e: e - np.sin(e) * np.cos(e) - target,
                np.zeros_like(target), np.full_like(target, math.pi / 2.0))
    return np.where(x < 0.5, e - math.pi / 2.0, math.pi / 2.0 - e)


@dataclass(frozen=True)
class ChartRule:
    """Fixed composite rule in a profile's chart s = S(u), weight
    W(u) = rho0(S(u)) S'(u):  sum(ws * f(s)) ~= int rho0(s) f(s) ds.

    Row p holds the nodes of piece p, the chart interval [lo[p], hi[p]] on
    which S and W are single analytic functions; where it holds a pole of
    the resolvent, SpectralProfile.pole_moments integrates it instead."""

    s: np.ndarray   # S(u), (pieces, nodes per piece)
    ws: np.ndarray  # Gauss weights in u times W(u)
    lo: np.ndarray  # (pieces,)
    hi: np.ndarray
    edges: np.ndarray  # panel edges in u
    S: Callable
    W: Callable
    U: Callable  # inverse of S on the support, s -> u

    @classmethod
    def build(cls, edges, S, W, U, pieces=1):
        """RULE_ORDER-point Gauss-Legendre panels between consecutive
        `edges`, split evenly into `pieces` pieces."""
        x, w = gauss_legendre(RULE_ORDER)
        edges = np.asarray(edges, dtype=float)
        half = np.diff(edges)[:, None] / 2.0
        u = ((edges[:-1, None] + edges[1:, None]) / 2.0 + half * x).reshape(pieces, -1)
        wt = (half * w).reshape(pieces, -1)
        step = (len(edges) - 1) // pieces
        return cls(s=S(u), ws=wt * W(u), lo=edges[:-1:step], hi=edges[step::step],
                   edges=edges, S=S, W=W, U=U)

    def clip(self, s_lo, s_hi):
        """The rule on [U(s_lo), U(s_hi)] (s in the support): every panel
        clipped to it, so a piece outside has zero length and the piece
        indices stay valid."""
        edges = np.clip(self.edges, self.U(s_lo), self.U(s_hi))
        return self.build(edges, self.S, self.W, self.U, len(self.lo))


class SpectralProfile(ABC):
    """Strictly increasing allocation function a : [0,1] -> [a_min, a_max].

    Subclasses give the --profile `spec` that parses back to the profile,
    its one identity, and the fixed quadrature rule `chart_rule`."""

    #: True when the derivative diverges at x in {0,1}.
    edge_singular: bool = False
    spec: str
    chart_rule: ChartRule

    # -- core surface -----------------------------------------------------

    @abstractmethod
    def eval(self, x):
        """a(x) for x in [0,1]; accepts scalars or arrays."""

    @abstractmethod
    def derivative(self, x):
        """a'(x) for x strictly inside (0,1)."""

    @property
    @abstractmethod
    def support(self) -> tuple[float, float]:
        """(a(0), a(1)), the support of the induced density."""

    def quantiles(self, n: int) -> np.ndarray:
        """a((i - 1/2)/n) for i = 1..n: the n eigenvalues the profile
        allocates to a matrix of size n."""
        return self.eval((np.arange(1, n + 1) - 0.5) / n)

    def inverse(self, alpha):
        """x such that a(x) = alpha, for alpha in [a(0), a(1)], by bisection."""
        lo, hi = self.support
        alpha_arr = np.asarray(alpha, dtype=float)
        if np.any(alpha_arr < lo - 1e-12) or np.any(alpha_arr > hi + 1e-12):
            raise DomainError(f"alpha outside profile range [{lo}, {hi}]")
        al = np.clip(alpha_arr, lo, hi)
        out = _bisect(lambda x: self.eval(x) - al, np.zeros_like(al), np.ones_like(al))
        return float(out) if alpha_arr.ndim == 0 else out

    def induced_density(self, alpha):
        """rho0(alpha) = 1/a'(a^{-1}(alpha)), for alpha strictly inside the
        support."""
        lo, hi = self.support
        alpha_arr = np.asarray(alpha, dtype=float)
        if np.any(alpha_arr <= lo) or np.any(alpha_arr >= hi):
            raise EdgeError("alpha must lie strictly inside the support")
        return self.density(alpha)

    def density(self, alpha):
        """Induced density without the strict-interior guard (0 at/outside the edges)."""
        alpha_arr = np.atleast_1d(np.asarray(alpha, dtype=float))
        lo, hi = self.support
        inside = (alpha_arr > lo) & (alpha_arr < hi)
        out = np.zeros_like(alpha_arr)
        if np.any(inside):
            x = np.asarray(self.inverse(alpha_arr[inside]))
            out[inside] = 1.0 / self.derivative(x)
        if np.ndim(alpha) == 0:
            return float(out[0])
        return out

    @abstractmethod
    def pole_moments(self, w, rule):
        """For complex w of shape (B,), the (point, piece) pairs where the
        piece of `rule` (the chart rule or a clip of it) holds a pole of
        W(u)/(S(u) - w): their point and piece indices, two 1-d arrays
        ordered by point; and per point the exact integrals of W/(S - w) and
        of W/(S - w)^2 over its pieces, shape (B,) each (0 where it has none)."""

    def _check_x(self, x, open_interval=False):
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
            raise DomainError("x outside [0,1]")
        if open_interval and self.edge_singular:
            if np.any(x_arr < EDGE_MARGIN) or np.any(x_arr > 1.0 - EDGE_MARGIN):
                raise EdgeError("derivative diverges at the support edge")
        return x_arr


class SemicircleQuantileProfile(SpectralProfile):
    """Quantile of the Wigner semicircle on [-radius, radius].

    a(x) = r sin(theta) solves F(a) = x, F the closed-form semicircle CDF,
    by the bisection of semicircle_angle; the inverse is F itself.
    """

    edge_singular = True

    def __init__(self, radius=2.0):
        self.radius = float(radius)
        if not 0 < self.radius < math.inf:
            raise InvalidProfileError("radius must be positive and finite")

    def cdf(self, alpha):
        r = self.radius
        a = np.clip(np.asarray(alpha, dtype=float), -r, r)
        u = a / r
        val = 0.5 + (u * np.sqrt(1.0 - u * u) + np.arcsin(u)) / math.pi
        return float(val) if np.ndim(alpha) == 0 else val

    def density(self, alpha):
        r = self.radius
        a = np.asarray(alpha, dtype=float)
        inside = np.abs(a) < r
        out = np.where(inside, 2.0 * np.sqrt(np.maximum(r * r - a * a, 0.0)) / (math.pi * r * r), 0.0)
        return float(out) if a.ndim == 0 else out

    def eval(self, x):
        x_arr = self._check_x(x)
        out = self.radius * np.sin(semicircle_angle(x_arr))
        return float(out) if x_arr.ndim == 0 else out

    def inverse(self, alpha):
        alpha_arr = np.asarray(alpha, dtype=float)
        r = self.radius
        if np.any(alpha_arr < -r - 1e-12) or np.any(alpha_arr > r + 1e-12):
            raise DomainError(f"alpha outside [-{r}, {r}]")
        return self.cdf(alpha_arr)

    def derivative(self, x):
        x_arr = self._check_x(x, open_interval=True)
        return 1.0 / self.density(self.eval(x_arr))

    @property
    def support(self):
        return (-self.radius, self.radius)

    @cached_property
    def chart_rule(self):
        # s = r sin(u) turns the sqrt edge factor into cos^2(u): two panels of half width
        # pi/4 hold the smooth integrands (subspace's strips, window masses) and 1/(s - w)
        # at |w| > 4r, where 12 Gauss nodes err by about 5^-24 (Bernstein ellipse).
        r = self.radius
        return ChartRule.build(np.linspace(-math.pi / 2.0, math.pi / 2.0, 3),
                               lambda u: r * np.sin(u),
                               lambda u: (2.0 / math.pi) * np.cos(u) ** 2,
                               lambda s: np.arcsin(s / r))

    @property
    def spec(self):
        return f"semicircle:{self.radius!r}"

    def pole_moments(self, w, rule):
        # The one piece [a, b] holds both roots of r sin(u) = w; in closed form
        # cos^2 u/(r sin u - w) = -sin u/r - w/r^2 + (s/r)^2/(r sin u - w),
        # s = sqrt(r^2 - w^2), and tau = tan(u/2) makes the last term's integral
        # Lam/s, Lam the log of the cross ratio 1 + x of tau_a, tau_b and the
        # roots t1 = w/(r + s), 1/t1 of w tau^2 - 2 r tau + w. The w-derivative
        # comes from d/du cos u/(r sin u - w), at the rounded tau so that it
        # cancels with Lam as w nears +-r. Beyond |w| = 4r, where the terms
        # cancel to (|w|/r)^2 ulps, the plain rule takes the piece, exact there.
        r, a, b = self.radius, rule.lo[0], rule.hi[0]
        w = np.asarray(w, dtype=complex)
        ta, tb = math.tan(a / 2.0), math.tan(b / 2.0)
        with np.errstate(all="ignore"):  # G0' diverges at w = +-r
            s = np.sqrt((r - w) * (r + w))
            t1 = w / (r + s)
            x = 2.0 * s * (ta - tb) / ((r + s) * (ta - t1) * (tb * t1 - 1.0))
            lam = np.where(np.abs(x) < 0.5, 2.0 * np.arctanh(x / (2.0 + x)),
                           np.log((tb - t1) / (ta - t1)) - np.log((tb * t1 - 1.0) / (ta * t1 - 1.0)))
            # cos u and cos u/(r sin u - w) at u = a and u = b
            (ca, ga), (cb, gb) = (((1.0 - t * t) / (1.0 + t * t),
                                   (1.0 - t * t) / (2.0 * r * t - w * (1.0 + t * t))) for t in (ta, tb))
            k = 2.0 / (math.pi * r * r)
            val = k * (r * (cb - ca) - w * (b - a) + s * lam)
            der = k * ((a - b) - w * lam / s - r * (gb - ga))
        near = np.abs(w) <= 4.0 * r
        pt = np.flatnonzero(near)
        return pt, np.zeros_like(pt), np.where(near, val, 0.0), np.where(near, der, 0.0)


class _Pchip:
    """Monotone piecewise cubic of Fritsch & Carlson (SIAM J. Numer. Anal.
    17:238, 1980) through strictly increasing data: Fritsch-Butland weighted
    harmonic interior slopes; at each end the one-sided three-point slope, 0
    where it is not positive (its other guard needs data that change sign);
    the line for two knots. c[:, i] holds piece i's power-basis coefficients
    in s = u - x[i], highest degree first, and c_last[:, i] the same cubic's
    in s = u - x[i+1], from the Hermite data there: exact at both knots.
    Values and derivatives sum the terms in scipy.interpolate.PPoly's order:
    PchipInterpolator's to the bit.
    """

    def __init__(self, x, y):
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.empty_like(y)
        if len(x) == 2:
            d[:] = m[0]
        else:
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
            h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
            end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            d[[0, -1]] = np.where(end > 0, end, 0.0)
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        self.c = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])
        self.c_last = np.stack([self.c[0], self.c[1] + 3.0 * self.c[0] * h, d[1:], y[1:]])
        self._dc = self.c[:-1] * np.array([3.0, 2.0, 1.0])[:, None]

    def _piece(self, u):
        u = np.asarray(u, dtype=float)
        i = np.clip(np.searchsorted(self.x, u, side="right") - 1, 0, len(self.x) - 2)
        return u - self.x[i], i

    def __call__(self, u):
        s, i = self._piece(u)
        c3, c2, c1, c0 = self.c[:, i]
        return c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)

    def derivative(self, u):
        s, i = self._piece(u)
        d2, d1, d0 = self._dc[:, i]
        return d0 + d1 * s + d2 * (s * s)


class TabulatedProfile(SpectralProfile):
    """Profile interpolated from (x_k, a_k) knots by the monotone
    piecewise cubic of _Pchip; the derivative is the interpolant's. Two
    knots give the line through them: the linear and uniform-gap profiles.
    `spec` is the --profile spec that names it, "tabulated" when none does."""

    def __init__(self, x_knots, a_knots, spec="tabulated"):
        x = np.asarray(x_knots, dtype=float)
        a = np.asarray(a_knots, dtype=float)
        if x.ndim != 1 or x.shape != a.shape or len(x) < 2:
            raise InvalidProfileError("need two equal-length 1-d knot arrays")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(a))):
            raise InvalidProfileError("knots must be finite")
        if abs(x[0]) > 1e-12 or abs(x[-1] - 1.0) > 1e-12:
            raise InvalidProfileError("knots must span [0,1]")
        if np.any(np.diff(x) <= 0) or np.any(np.diff(a) <= 0):
            raise InvalidProfileError("knots must be strictly increasing in x and a")
        self._x = x
        self._a = a
        self.spec = spec
        self._interp = _Pchip(x, a)

    @classmethod
    def from_csv(cls, path):
        """Load a two-column (x, a) CSV with a header row."""
        xs, As = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InvalidProfileError("empty profile CSV")
            for row in reader:
                if not row:
                    continue
                xs.append(float(row[0]))
                As.append(float(row[1]))
        return cls(xs, As, spec=f"csv:{path}")

    def eval(self, x):
        x_arr = self._check_x(x)
        out = self._interp(x_arr)
        return float(out) if x_arr.ndim == 0 else out

    def derivative(self, x):
        x_arr = self._check_x(x, open_interval=True)
        out = self._interp.derivative(x_arr)
        return float(out) if x_arr.ndim == 0 else out

    @cached_property
    def chart_rule(self):
        # The interpolant is only C1 at the knots, so each knot interval is
        # one piece, of two Gauss panels.
        edges = np.empty(2 * len(self._x) - 1)
        edges[0::2] = self._x
        edges[1::2] = (self._x[:-1] + self._x[1:]) / 2.0
        return ChartRule.build(edges, self._interp, lambda u: 1.0, self.inverse,
                               pieces=len(self._x) - 1)

    @cached_property
    def _pole_disks(self):
        # pole_moments integrates piece k exactly where a root u of its cubic
        # P = w lies within a width h of the piece's middle, so P(u) - P(mid)
        # is at most |P'| h + |P''/2| h^2 + |c3| h^3, P's Taylor terms at mid.
        # A farther root is two panel half widths from the piece's nearer
        # panel, where its 12 Gauss nodes err by (3 + sqrt 8)^-24 ~ 1e-18. The
        # slack, 1e-12 (1 + the cubic's terms at |u - x_k| = 1.5h), holds the
        # residual of a polished root and the rounding of every cubic there.
        c3, c2, c1, c0 = self._interp.c
        h = np.diff(self._x)
        m, r, g = h / 2.0, h, 1.5 * h
        centre = ((c3 * m + c2) * m + c1) * m + c0
        radius = (np.abs((3.0 * c3 * m + 2.0 * c2) * m + c1) * r
                  + np.abs(3.0 * c3 * m + c2) * r * r + np.abs(c3) * r ** 3)
        slack = 1e-12 * (1.0 + np.abs(c0) + np.abs(c1) * g + np.abs(c2) * g * g
                         + np.abs(c3) * g ** 3)
        return centre, radius + slack

    @cached_property
    def _complex_pieces(self):
        # pole_moments' cubic and derivative coefficients, each piece expanded
        # at its first knot (columns :K) and at its last (K:), cast once: numpy
        # would cast them to complex at every Newton step
        c = np.concatenate([self._interp.c, self._interp.c_last], axis=1)
        return np.concatenate([c, c[:-1] * np.array([3.0, 2.0, 1.0])[:, None]]).astype(complex)

    def pole_moments(self, w, rule):
        # Each cubic piece continues to its own analytic function, so every
        # piece whose disk holds w (_pole_disks) is a candidate, one (point,
        # piece) pair each, a row of the arrays below; the disks are tested
        # NEAR_CELLS // pieces points at a time. A pair works in d = u - knot
        # from its piece's knot nearer in value, where the cubic holds that
        # knot's value and slope exactly. A root of P(d) = w is Newton-polished
        # from the root of the quadratic c0 + c1 d + c2 d^2 (it reaches the
        # complex pair of roots by an end of slope 0), until every root stands
        # still or swaps between two values in the last bit.
        w = np.asarray(w, dtype=complex)
        centre, radius = self._pole_disks
        chunk = max(1, NEAR_CELLS // len(centre))
        pt, k = np.concatenate([np.argwhere(np.abs(w[b:b + chunk, None] - centre) <= radius) + (b, 0)
                                for b in range(0, max(len(w), 1), chunk)]).T
        moments = np.zeros((2, len(w)), dtype=complex)
        if not pt.size:
            return pt, k, moments[0], moments[1]
        x, a, wk = self._x, self._a, w[pt, None]
        last = wk.real > (a[k] + a[k + 1])[:, None] / 2.0
        h = (x[k + 1] - x[k])[:, None]
        knot = np.where(last, x[k + 1, None], x[k, None])
        # d2, d1, d0 = 3 c3, 2 c2, c1; take, unlike [:, j], leaves each contiguous
        c3, c2, c1, c0, d2, d1, d0 = np.take(self._complex_pieces, k[:, None] + last * len(centre), axis=1)
        c0 = c0 - wk  # P - w, exact by the knot
        with np.errstate(all="ignore"):  # a flat, straight end starts at inf or nan: rejected below
            d = -2.0 * c0 / (c1 + np.sqrt(c1 * c1 - 4.0 * c2 * c0))
            older = d
            for _ in range(TABULATED_NEWTON):
                new = d - (((c3 * d + c2) * d + c1) * d + c0) / ((d2 * d + d1) * d + d0)
                cycle = _same_bits(new, older)
                if (cycle | _same_bits(new, d)).all():
                    break
                older, d = d, new
            d = np.where(cycle, np.minimum(d, older), d)  # the same value whichever step ended it
            ad = np.abs(d)
            tol = 1e-13 * (1.0 + np.abs(wk) + np.abs(c0 + wk)
                           + ((np.abs(c3) * ad + np.abs(c2)) * ad + np.abs(c1)) * ad)
            ok = np.isfinite(d) & (np.abs(((c3 * d + c2) * d + c1) * d + c0) <= tol)
            # the other two roots: deflate by d (synthetic division), the
            # stable quadratic formula, one Newton step on P; on a quadratic
            # piece or a line they are not finite, and drop out
            q1 = c2 + c3 * d
            q0 = c1 + q1 * d
            disc = np.sqrt(q1 * q1 - 4.0 * c3 * q0)
            q = -0.5 * np.where((q1.conjugate() * disc).real >= 0, q1 + disc, q1 - disc)
            r = np.concatenate([d, q / c3, q0 / q], axis=1)
            r[:, 1:] -= (((c3 * r[:, 1:] + c2) * r[:, 1:] + c1) * r[:, 1:] + c0) / (
                (d2 * r[:, 1:] + d1) * r[:, 1:] + d0)
            fin = np.isfinite(r)
            ok &= (fin & (np.abs(r - np.where(last, -h, h) / 2.0) <= h)).any(axis=1, keepdims=True)
            # 1/(P - w) = sum_j c_j/(d - r_j) exactly, c_j = 1/P'(r_j), and
            # 1/(P - w)^2 = sum_j c_j^2/(d - r_j)^2 + b_j/(d - r_j)
            c = 1.0 / ((d2 * r + d1) * r + d0)
            b = -(2.0 * d2 * r + d1) * c ** 3
            lo, hi = rule.lo[k, None] - knot - r, rule.hi[k, None] - knot - r
            # a real w can put a root exactly on a piece end (a knot), where
            # the real parts of the divergent logs of the two pieces cancel
            log = np.log(np.where(hi == 0, 1.0, hi)) - np.log(np.where(lo == 0, 1.0, lo))
            use = ok & fin
            np.add.at(moments, (slice(None), pt), [np.where(use, c * log, 0.0).sum(axis=1),
                                                   np.where(use, c * c * (1.0 / lo - 1.0 / hi) + b * log,
                                                            0.0).sum(axis=1)])
        ok = ok[:, 0]
        return pt[ok], k[ok], moments[0], moments[1]

    @property
    def support(self):
        return (float(self._a[0]), float(self._a[-1]))


def parse_profile(spec: str) -> SpectralProfile:
    """The profile a spec names: goe | linear[:lo,hi] | semicircle[:radius] |
    uniform-gap[:span] | csv:path. A malformed or unknown spec raises
    ConfigError; a well-formed spec of an invalid profile, InvalidProfileError."""
    kind, _, rest = spec.partition(":")
    kind = kind.lower()
    try:
        if kind == "goe" and not rest:
            return SemicircleQuantileProfile()
        if kind in ("linear", "uniform-gap"):
            if kind == "linear":
                lo, hi = (float(v) for v in rest.split(",")) if rest else (0.0, 1.0)
            else:
                span = float(rest) if rest else 1.0
                lo, hi = -span / 2.0, span / 2.0
            return TabulatedProfile([0.0, 1.0], [lo, hi], spec=f"linear:{lo!r},{hi!r}")
        if kind in ("semicircle", "semicircle-quantile"):
            return SemicircleQuantileProfile(float(rest) if rest else 2.0)
        if kind == "csv":
            return TabulatedProfile.from_csv(rest)
    except InvalidProfileError:
        raise
    except (ValueError, IndexError, OSError) as exc:
        raise ConfigError(f"malformed profile spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown profile spec {spec!r}")
