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

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .errors import DomainError, EdgeError, InvalidProfileError

# Operations needing a' refuse points this close to {0,1} when the
# derivative diverges there (semicircle quantile).
EDGE_MARGIN = 1e-6


class SpectralProfile(ABC):
    """Strictly increasing allocation function a : [0,1] -> [a_min, a_max]."""

    kind: str = "abstract"
    #: True when the derivative diverges at x in {0,1}.
    edge_singular: bool = False

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
        """x such that a(x) = alpha, for alpha in [a(0), a(1)]."""
        lo, hi = self.support
        alpha_arr = np.asarray(alpha, dtype=float)
        if np.any(alpha_arr < lo - 1e-12) or np.any(alpha_arr > hi + 1e-12):
            raise DomainError(f"alpha outside profile range [{lo}, {hi}]")

        def _one(al):
            al = min(max(al, lo), hi)
            if al <= lo:
                return 0.0
            if al >= hi:
                return 1.0
            return brentq(lambda x: self.eval(x) - al, 0.0, 1.0,
                          xtol=1e-14, rtol=8.9e-16)

        if alpha_arr.ndim == 0:
            return _one(float(alpha_arr))
        return np.array([_one(a) for a in alpha_arr.ravel()]).reshape(alpha_arr.shape)

    def induced_density(self, alpha):
        """rho0(alpha) = 1/a'(a^{-1}(alpha)), for alpha strictly inside the
        support."""
        lo, hi = self.support
        alpha_arr = np.asarray(alpha, dtype=float)
        if np.any(alpha_arr <= lo) or np.any(alpha_arr >= hi):
            raise EdgeError("alpha must lie strictly inside the support")
        return self.density(alpha)

    def density(self, alpha):
        """Induced density without the strict-interior guard (0 at/outside the
        edges). Quadrature code integrates this."""
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

    def quad_chart(self):
        """Parametrization (S, W, u_lo, u_hi, u_from_s) such that
        int rho0(s) f(s) ds = int_{u_lo}^{u_hi} W(u) f(S(u)) du with smooth W.

        The default chart is the quantile variable itself (W = 1); profiles
        with edge-singular densities override it to keep quadrature cheap.
        """
        return (lambda u: self.eval(float(u)),
                lambda u: 1.0,
                0.0, 1.0,
                lambda s: float(self.inverse(s)))

    def _check_x(self, x, open_interval=False):
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
            raise DomainError("x outside [0,1]")
        if open_interval and self.edge_singular:
            if np.any(x_arr < EDGE_MARGIN) or np.any(x_arr > 1.0 - EDGE_MARGIN):
                raise EdgeError("derivative diverges at the support edge")
        return x_arr

    def __call__(self, x):
        return self.eval(x)

    # -- validation --------------------------------------------------------

    def validate(self):
        """Check strict monotonicity, inverse round trip and derivative
        consistency on a probe grid of spacing 1e-3. Raises
        InvalidProfileError on failure."""
        xs = np.arange(0.0, 1.0005, 1e-3)
        vals = np.asarray(self.eval(xs))
        if np.any(np.diff(vals) <= 0):
            raise InvalidProfileError(f"{self.kind} profile not strictly increasing")
        interior = xs[(xs > 1e-2) & (xs < 1 - 1e-2)]
        back = np.asarray(self.inverse(self.eval(interior)))
        if np.max(np.abs(back - interior)) > 1e-9:
            raise InvalidProfileError("inverse round trip exceeds 1e-9")
        h = 1e-6
        fd = (np.asarray(self.eval(interior + h)) - np.asarray(self.eval(interior - h))) / (2 * h)
        deriv = np.asarray(self.derivative(interior))
        rel = np.max(np.abs(deriv - fd) / np.maximum(np.abs(deriv), 1e-30))
        if rel > 1e-5:
            raise InvalidProfileError(f"derivative inconsistent with finite difference (rel {rel:.2e})")
        return self

    @property
    def cache_token(self):
        """Hashable identity used to memoize per-(profile, t) solver state."""
        return (self.kind,) + self._params()

    def _params(self) -> tuple:
        return ()


class LinearProfile(SpectralProfile):
    """Affine allocation a(x) = lo + (hi - lo) x; induces the uniform density
    on [lo, hi]. Covers both the plain linear profile and uniform-gap
    spectra."""

    kind = "linear"

    def __init__(self, lo=0.0, hi=1.0):
        if not hi > lo:
            raise InvalidProfileError("need hi > lo")
        self.lo = float(lo)
        self.hi = float(hi)

    def eval(self, x):
        x_arr = self._check_x(x)
        out = self.lo + (self.hi - self.lo) * x_arr
        return float(out) if x_arr.ndim == 0 else out

    def derivative(self, x):
        x_arr = self._check_x(x, open_interval=True)
        if x_arr.ndim == 0:
            return self.hi - self.lo
        return np.full_like(x_arr, self.hi - self.lo)

    def inverse(self, alpha):
        alpha_arr = np.asarray(alpha, dtype=float)
        if np.any(alpha_arr < self.lo - 1e-12) or np.any(alpha_arr > self.hi + 1e-12):
            raise DomainError(f"alpha outside [{self.lo}, {self.hi}]")
        x = (alpha_arr - self.lo) / (self.hi - self.lo)
        x = np.clip(x, 0.0, 1.0)
        return float(x) if alpha_arr.ndim == 0 else x

    def density(self, alpha):
        alpha_arr = np.asarray(alpha, dtype=float)
        inside = (alpha_arr > self.lo) & (alpha_arr < self.hi)
        out = np.where(inside, 1.0 / (self.hi - self.lo), 0.0)
        return float(out) if alpha_arr.ndim == 0 else out

    @property
    def support(self):
        return (self.lo, self.hi)

    def _params(self):
        return (self.lo, self.hi)


class SemicircleQuantileProfile(SpectralProfile):
    """Quantile of the Wigner semicircle on [-radius, radius].

    a(x) solves F(a) = x where F is the closed-form semicircle CDF; the
    inverse direction is the closed form, only eval needs root finding
    (bisection bracket polished by brentq to 1e-14).
    """

    kind = "semicircle-quantile"
    edge_singular = True

    def __init__(self, radius=2.0):
        if not radius > 0:
            raise InvalidProfileError("radius must be positive")
        self.radius = float(radius)

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

        def _one(xv):
            if xv <= 0.0:
                return -self.radius
            if xv >= 1.0:
                return self.radius
            return brentq(lambda a: self.cdf(a) - xv, -self.radius, self.radius,
                          xtol=1e-14, rtol=8.9e-16)

        if x_arr.ndim == 0:
            return _one(float(x_arr))
        return np.array([_one(v) for v in x_arr.ravel()]).reshape(x_arr.shape)

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

    def quad_chart(self):
        # s = r sin(u) turns the sqrt edge factor into cos^2(u): smooth
        # integrands, no adaptive refinement piling up at the edges.
        r = self.radius

        def S(u):
            return r * math.sin(u)

        def W(u):
            c = math.cos(u)
            return (2.0 / math.pi) * c * c

        def u_from_s(s):
            return math.asin(min(max(s / r, -1.0), 1.0))

        return (S, W, -math.pi / 2.0, math.pi / 2.0, u_from_s)

    def _params(self):
        return (self.radius,)


class TabulatedProfile(SpectralProfile):
    """Profile interpolated from (x_k, a_k) knots with a monotone
    piecewise-cubic (PCHIP) scheme; derivative comes from the interpolant."""

    kind = "tabulated"

    def __init__(self, x_knots, a_knots):
        x = np.asarray(x_knots, dtype=float)
        a = np.asarray(a_knots, dtype=float)
        if x.ndim != 1 or x.shape != a.shape or len(x) < 2:
            raise InvalidProfileError("need two equal-length 1-d knot arrays")
        if abs(x[0]) > 1e-12 or abs(x[-1] - 1.0) > 1e-12:
            raise InvalidProfileError("knots must span [0,1]")
        if np.any(np.diff(x) <= 0) or np.any(np.diff(a) <= 0):
            raise InvalidProfileError("knots must be strictly increasing in x and a")
        self._x = x
        self._a = a
        self._interp = PchipInterpolator(x, a)
        self._deriv = self._interp.derivative()

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
        return cls(xs, As)

    def eval(self, x):
        x_arr = self._check_x(x)
        out = self._interp(x_arr)
        return float(out) if x_arr.ndim == 0 else out

    def derivative(self, x):
        x_arr = self._check_x(x, open_interval=True)
        out = self._deriv(x_arr)
        return float(out) if x_arr.ndim == 0 else out

    def quad_rule(self):
        """Fixed nodes/weights with sum_k w_k f(s_k) ~= int rho0(s) f(s) ds.

        The interpolant is only C1 at the knots, so adaptive quadrature
        subdivides at every knot to reach tight tolerances; a composite
        Gauss-Legendre rule per knot interval (vectorized through the
        interpolant) is orders of magnitude faster at the same accuracy.
        """
        if not hasattr(self, "_quad_rule"):
            order = 12
            gl_x, gl_w = np.polynomial.legendre.leggauss(order)
            # two panels per knot interval
            lo = np.repeat(self._x[:-1], 2)
            hi = np.repeat(self._x[1:], 2)
            mid = (self._x[:-1] + self._x[1:]) / 2.0
            lo[1::2] = mid
            hi[0::2] = mid
            half = (hi - lo)[:, None] / 2.0
            nodes = (lo[:, None] + hi[:, None]) / 2.0 + half * gl_x[None, :]
            weights = half * gl_w[None, :]
            self._quad_rule = (self._interp(nodes.ravel()), weights.ravel())
        return self._quad_rule

    @property
    def support(self):
        return (float(self._a[0]), float(self._a[-1]))

    def _params(self):
        return (tuple(self._x), tuple(self._a))


def make_profile(kind, **params):
    """Factory used by the CLI. Kinds: linear, uniform-gap,
    semicircle-quantile (alias: goe), tabulated (csv=path)."""
    kind = kind.lower()
    if kind == "linear":
        return LinearProfile(params.get("lo", 0.0), params.get("hi", 1.0))
    if kind == "uniform-gap":
        span = params.get("span", 1.0)
        return LinearProfile(-span / 2.0, span / 2.0)
    if kind in ("semicircle-quantile", "semicircle", "goe"):
        return SemicircleQuantileProfile(params.get("radius", 2.0))
    if kind == "tabulated":
        if "csv" in params:
            return TabulatedProfile.from_csv(params["csv"])
        return TabulatedProfile(params["x"], params["a"])
    raise InvalidProfileError(f"unknown profile kind {kind!r}")
