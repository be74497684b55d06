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
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, EdgeError, InvalidProfileError

# Operations needing a' refuse points this close to {0,1} when the
# derivative diverges there (semicircle quantile).
EDGE_MARGIN = 1e-6

#: Gauss-Legendre order of every panel of a chart rule.
RULE_ORDER = 12
#: Newton steps that polish a pole on a tabulated profile's cubic piece.
TABULATED_NEWTON = 8


def _bisect(f, lo, hi):
    """Root of f, increasing on [lo, hi] (width <= 2), entrywise, to rounding."""
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = f(mid) < 0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


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
    which S and W are single analytic functions; the resolvent subtracts
    its pole piece by piece (see SpectralProfile.chart_poles)."""

    u: np.ndarray   # (pieces, nodes per piece)
    wt: np.ndarray  # weights in u
    s: np.ndarray   # S(u)
    ws: np.ndarray  # wt * W(u)
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
        x, w = np.polynomial.legendre.leggauss(RULE_ORDER)
        edges = np.asarray(edges, dtype=float)
        half = np.diff(edges)[:, None] / 2.0
        u = ((edges[:-1, None] + edges[1:, None]) / 2.0 + half * x).reshape(pieces, -1)
        wt = (half * w).reshape(pieces, -1)
        step = (len(edges) - 1) // pieces
        return cls(u=u, wt=wt, s=S(u), ws=wt * W(u), lo=edges[:-1:step], hi=edges[step::step],
                   edges=edges, S=S, W=W, U=U)

    def clip(self, s_lo, s_hi):
        """The rule on [U(s_lo), U(s_hi)] (s in the support): every panel
        clipped to it, so a piece outside has zero length and chart_poles'
        piece indices stay valid."""
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
            out[inside] = 1.0 / self.derivative(np.clip(x, EDGE_MARGIN, 1.0 - EDGE_MARGIN))
        if np.ndim(alpha) == 0:
            return float(out[0])
        return out

    def chart_poles(self, w):
        """Poles of W(u)/(S(u) - w) near the chart, for complex w of shape
        (B,): the pieces that hold them, shape (B, K) (-1 for none), and on
        each piece J roots u of S(u) = w, shape (B, K, J), with the residue c
        of W/(S - w) and the coefficients a2, b1 of
        W/(S - w)^2 = a2/(u - u_j)^2 + b1/(u - u_j) + regular.
        """
        raise NotImplementedError

    def chart_gap(self, piece, u, u0):
        """S(u) - S(u0) on the given pieces, computed without cancellation
        as u approaches any root of S(u) = S(u0) (u0 is a root from
        chart_poles)."""
        raise NotImplementedError

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
        # s = r sin(u) turns the sqrt edge factor into cos^2(u); with both
        # poles subtracted the resolvent is analytic in a strip of half width
        # ~pi/2 around the chart, so 16 panels suffice.
        r = self.radius
        return ChartRule.build(np.linspace(-math.pi / 2.0, math.pi / 2.0, 17),
                               lambda u: r * np.sin(u),
                               lambda u: (2.0 / math.pi) * np.cos(u) ** 2,
                               lambda s: np.arcsin(s / r))

    @property
    def spec(self):
        return f"semicircle:{self.radius!r}"

    def chart_poles(self, w):
        # r sin(u) = w has the root u0 and its mirror in the other half
        # period; near the support edges both approach the chart, so both are
        # subtracted. With the residues written out, W/(S - w) and its square
        # stay finite as the two roots meet at an edge.
        r = self.radius
        u0 = np.arcsin(np.asarray(w, dtype=complex) / r)
        u = np.stack([u0, np.where(u0.real >= 0, math.pi, -math.pi) - u0], axis=-1)[:, None]
        k = 2.0 / (math.pi * r * r)
        c = r * k * np.cos(u)
        return np.zeros(u.shape[:2], dtype=int), u, c, np.full_like(c, k), -k * np.tan(u)

    def chart_gap(self, piece, u, u0):
        # sin u - sin u0 as a product that vanishes at both roots
        return 2.0 * self.radius * np.cos((u + u0) / 2.0) * np.sin((u - u0) / 2.0)


class _Pchip:
    """Monotone piecewise cubic of Fritsch & Carlson (SIAM J. Numer. Anal.
    17:238, 1980) through strictly increasing data: Fritsch-Butland weighted
    harmonic interior slopes; at each end the one-sided three-point slope, 0
    where it is not positive (its other guard needs data that change sign);
    the line for two knots. c[:, i] holds piece i's power-basis coefficients
    in s = u - x[i], highest degree first. Values and derivatives sum the
    terms in scipy.interpolate.PPoly's order: PchipInterpolator's to the bit.
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

    def chart_poles(self, w):
        # Each cubic piece continues to its own analytic function with its
        # own root near the pole, so the root is Newton-polished on the
        # piece that holds Re(w) and on its two neighbours.
        w = np.asarray(w, dtype=complex)[:, None]
        x, a = self._x, self._a
        last = len(x) - 2
        xr = np.interp(w.real, a, x)
        xr = np.where(w.real > a[-1], 1.0 + (w.real - a[-1]) / self._interp.derivative(1.0), xr)
        xr = np.where(w.real < a[0], (w.real - a[0]) / self._interp.derivative(0.0), xr)
        piece = np.clip(np.searchsorted(x, xr, side="right") - 1, 0, last) + np.arange(-1, 2)
        valid = (piece >= 0) & (piece <= last)
        k = np.clip(piece, 0, last)
        c3, c2, c1, c0 = self._interp.c[:, k]
        base = x[k]
        u = xr + 0j
        with np.errstate(all="ignore"):
            for _ in range(TABULATED_NEWTON):
                d = u - base
                u = u - ((((c3 * d + c2) * d + c1) * d + c0) - w) / ((3 * c3 * d + 2 * c2) * d + c1)
            # roots of adjacent pieces that only rounding tells apart (w on or
            # by a knot) are made one, so their logs at the shared knot cancel
            gap = np.abs((u - u[:, 1:2]) * ((3 * c3 * d + 2 * c2) * d + c1))  # in s
            u = np.where(gap <= 1e-13 * (1.0 + np.abs(w)), u[:, 1:2], u)
            d = u - base
            miss = np.abs(((c3 * d + c2) * d + c1) * d + c0 - w)
            width = x[k + 1] - base
            ok = (valid & np.isfinite(u) & (miss <= 1e-13 * (1.0 + np.abs(w)))
                  & (np.abs(d - width / 2) <= 2.0 * width))
            c = 1.0 / ((3 * c3 * d + 2 * c2) * d + c1)
            b1 = -(6 * c3 * d + 2 * c2) * c ** 3
        piece = np.where(ok, piece, -1)
        u = np.where(ok, u, 1j)[..., None]  # off the axis: finite, and never used
        c, b1 = (np.where(ok, v, 0.0)[..., None] for v in (c, b1))
        return piece, u, c, c * c, b1

    def chart_gap(self, piece, u, u0):
        # exact divided difference of the cubic on each piece
        c3, c2, c1, _ = self._interp.c[:, piece][..., None]
        base = self._x[piece][..., None]
        d, d0 = u - base, u0 - base
        return (u - u0) * (c1 + c2 * (d + d0) + c3 * (d * d + d * d0 + d0 * d0))

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
