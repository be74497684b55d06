"""The fixed-rule solver against independent oracles.

* mpmath: the boundary value m = H_t + i pi rho_t solves
  m = int rho0(s) ds / (s - lam - t m); here the integral is mpmath's
  adaptive quadrature at 30 digits and the root mpmath's findroot, started
  from one fixed-point step off i/sqrt(t) inside the support and from
  w = lam (the physical real branch) outside it.
* The semicircle closed forms, for a tabulated copy of the semicircle
  quantile, to the interpolation error of its 33 knots.
* mpmath again for the chart rule clipped at a threshold: the truncated
  resolvent int_{s <= THR} rho0(s)/(s - w) ds by mpmath's quadrature in
  the same chart, at 30 digits, split at the real part of the pole.
* The exact pole pieces, where the pole sits on or next to the chart: G0
  and G0' of tabulated profiles by mpmath at 40 digits, of the Hermite
  cubics of their knot data, graded toward every root; the semicircle's
  against its closed form at 40 digits.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import hermite_piece, support_bounds
from specdrift import (SemicircleQuantileProfile, TabulatedProfile, density_and_hilbert,
                       parse_profile, semicircle_density, semicircle_hilbert, solve_grid)
from specdrift.stieltjes import _edges, _resolvent_moments, _rule_below

DIGITS = 30
TIMES = (0.001, 0.01, 0.5, 1.0, 4.0)


def _linear_g0(lo, hi):
    lo, hi = mp.mpf(lo), mp.mpf(hi)

    def g0(w):
        pts = [lo, mp.re(w), hi] if lo < mp.re(w) < hi else [lo, hi]
        return mp.quad(lambda s: 1 / ((hi - lo) * (s - w)), pts)

    return g0


def _semicircle_g0(radius):
    # s = r sin(u): the density's square-root edges become cos(u)^2
    r = mp.mpf(radius)

    def g0(w):
        u = mp.re(mp.asin(w / r))
        pts = [-mp.pi / 2, u, mp.pi / 2] if abs(u) < mp.pi / 2 else [-mp.pi / 2, mp.pi / 2]
        return mp.quad(lambda v: 2 / mp.pi * mp.cos(v) ** 2 / (r * mp.sin(v) - w), pts)

    return g0


def _linear_edge(t):
    # uniform density on [-1, 1]
    x = math.sqrt(1.0 + t)
    return x + (t / 2.0) * math.log((x + 1.0) / (x - 1.0))


CASES = {
    "linear": (parse_profile("linear:-1,1"), _linear_g0(-1, 1), _linear_edge),
    "semicircle2": (SemicircleQuantileProfile(2.0), _semicircle_g0(2),
                    lambda t: 2.0 * math.sqrt(1.0 + t)),
    "semicircle4": (SemicircleQuantileProfile(4.0), _semicircle_g0(4),
                    lambda t: 2.0 * math.sqrt(4.0 + t)),
}


def _oracle(g0, t, lam, inside):
    with mp.workdps(DIGITS):
        t, lam = mp.mpf(t), mp.mpf(lam)
        start = g0(lam + 1j * mp.sqrt(t)) if inside else mp.mpf(0)
        m = mp.mpc(mp.findroot(lambda m: g0(lam + t * m) - m, start))
        assert abs(g0(lam + t * m) - m) <= mp.mpf(10) ** (5 - DIGITS)
        return float(m.imag) / math.pi, float(m.real)


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("name", CASES)
def test_mpmath_line(name, t):
    profile, g0, edge = CASES[name]
    e = edge(t)
    for lam, inside in ((0.3 * e, True), (e - 1e-3, True), (e + 0.1, False)):
        rho, hilbert = _oracle(g0, t, lam, inside)
        line = density_and_hilbert(profile, t, lam)
        assert (rho > 0) == inside and (line.rho > 0) == inside
        assert abs(line.rho - rho) <= 1e-10, (lam, line.rho, rho)
        assert abs(line.hilbert - hilbert) <= 1e-10, (lam, line.hilbert, hilbert)


class TestTabulatedSemicircle:
    """The semicircle quantile on 33 knots: the flow may not move the line
    further from the semicircle closed forms than the interpolant's own
    density is off at t = 0 (both on the bulk |lam| <= 0.8 edge)."""

    x = np.linspace(0.0, 1.0, 33)

    @pytest.fixture(scope="class")
    def tab(self):
        return TabulatedProfile(self.x, SemicircleQuantileProfile().eval(self.x))

    def test_closed_form_to_interpolation_error(self, tab):
        goe = SemicircleQuantileProfile()
        bulk0 = np.linspace(-1.6, 1.6, 201)
        interp_err = float(np.max(np.abs(tab.density(bulk0) - goe.density(bulk0))))
        t = 1.0
        grid = np.linspace(-0.8, 0.8, 201) * 2.0 * math.sqrt(1.0 + t)
        sol = solve_grid(tab, t, grid)
        err_rho = max(abs(r - semicircle_density(t, lam)) for r, lam in zip(sol.rho, grid))
        err_h = max(abs(h - semicircle_hilbert(t, lam)) for h, lam in zip(sol.hilbert, grid))
        assert 0 < interp_err < 0.01
        assert err_rho <= interp_err and err_h <= interp_err

    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_positive_unit_mass_symmetric(self, tab, t):
        lo, hi = support_bounds(tab, t)
        assert abs(lo + hi) <= 1e-12
        grid = np.linspace(lo, hi, 401)
        sol = solve_grid(tab, t, grid)
        assert np.all(sol.rho >= 0)
        assert abs(np.trapezoid(sol.rho, grid) - 1.0) <= 1e-3
        assert np.max(np.abs(sol.rho - sol.rho[::-1])) <= 1e-12
        inner = slice(1, -1)  # H has a square-root edge: symmetric off the end points
        assert np.max(np.abs(sol.hilbert[inner] + sol.hilbert[::-1][inner])) <= 1e-12


# ---------------------------------------------------------------------------
# the chart rule clipped at a threshold


def _linear_chart(lo, hi):
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    return [(lo, hi, lambda s, w: 1 / ((hi - lo) * (s - w)))], lambda s: s


def _semicircle_chart(radius):
    r = mp.mpf(radius)
    f = lambda v, w: 2 / mp.pi * mp.cos(v) ** 2 / (r * mp.sin(v) - w)
    return [(-mp.pi / 2, mp.pi / 2, f)], lambda s: mp.asin(s / r)


def _tabulated_chart(tab):
    # the knot chart: int_0^x(THR) dx / (a(x) - w), a the profile's own
    # cubic on each knot interval
    x, a = tab._x, tab._a
    cubics = []
    for j in range(len(x) - 1):
        c3, c2, c1, c0 = (mp.mpf(float(v)) for v in tab._interp.c[:, j])
        b = mp.mpf(float(x[j]))
        cubics.append(lambda u, c3=c3, c2=c2, c1=c1, c0=c0, b=b:
                      ((c3 * (u - b) + c2) * (u - b) + c1) * (u - b) + c0)
    pieces = [(mp.mpf(float(x[j])), mp.mpf(float(x[j + 1])), lambda u, w, cub=cub: 1 / (cub(u) - w))
              for j, cub in enumerate(cubics)]

    def u_of(s):
        j = min(max(int(np.searchsorted(a, float(s), side="right")) - 1, 0), len(x) - 2)
        start = x[j] + (x[j + 1] - x[j]) * (float(s) - a[j]) / (a[j + 1] - a[j])
        return mp.findroot(lambda u: cubics[j](u) - s, mp.mpf(start))

    return pieces, u_of


def _truncated_oracle(chart, threshold, w):
    pieces, u_of = chart
    with mp.workdps(DIGITS):
        w = mp.mpc(w)
        top = u_of(mp.mpf(threshold))
        pole = mp.re(u_of(mp.re(w)))
        total = mp.mpc(0)
        for a, b, f in pieces:
            b = min(b, top)
            if b > a:
                total += mp.quad(lambda u: f(u, w), [a, pole, b] if a < pole < b else [a, b])
        return complex(total)


_KNOTS = np.linspace(0.0, 1.0, 33)
_TAB = TabulatedProfile(_KNOTS, SemicircleQuantileProfile().eval(_KNOTS))
# name: (profile, chart, interior thresholds)
CLIPPED = {
    "linear": (parse_profile("linear:-1,1"), _linear_chart(-1, 1), (-0.6, 0.45)),
    "semicircle2": (SemicircleQuantileProfile(2.0), _semicircle_chart(2), (-1.2, 0.9)),
    "semicircle4": (SemicircleQuantileProfile(4.0), _semicircle_chart(4), (-2.4, 1.8)),
    # between two knots, and on one
    "tabulated": (_TAB, _tabulated_chart(_TAB),
                  (float(_TAB.eval((_KNOTS[8] + _KNOTS[9]) / 2.0)), float(_TAB._a[20]))),
}


@pytest.mark.parametrize("eta", [1.0, 1e-3, 1e-8])
@pytest.mark.parametrize("name", CLIPPED)
def test_mpmath_truncated_resolvent(name, eta):
    _check_truncated(name, complex(-0.37 * CLIPPED[name][0].support[1], eta))


@pytest.mark.parametrize("side", [-1.0, 1.0])
@pytest.mark.parametrize("name", ["semicircle2", "semicircle4"])
def test_mpmath_truncated_resolvent_at_edge(name, side):
    # within 1e-10 of an edge and 1e-9 of the axis, where the two poles the
    # two-panel semicircle rule subtracts nearly meet
    _check_truncated(name, complex(side * (CLIPPED[name][0].radius - 1e-10), 1e-9))


def _check_truncated(name, w):
    profile, chart, interior = CLIPPED[name]
    lo, hi = profile.support
    full = _resolvent_moments(profile, w)[0][0]
    for threshold in (lo - 0.5, *interior, hi + 0.5):
        oracle = 0.0 if threshold < lo else _truncated_oracle(chart, min(threshold, hi), w)
        value = _resolvent_moments(profile, w, _rule_below(profile, threshold))[0][0]
        assert abs(value - oracle) <= 1e-12, (threshold, value, oracle)
        # the rule clipped above the threshold is the complement
        rule = profile.chart_rule
        above = rule.clip(min(max(threshold, lo), hi), hi)
        assert abs(value + _resolvent_moments(profile, w, above)[0][0] - full) <= 1e-12


# ---------------------------------------------------------------------------
# exact pole pieces: the moments against mpmath where the pole sits on or
# next to the chart (beyond an end of slope 0, on a Gauss node, by an edge)

POLE_DIGITS = 40
POLE_RTOL = 1e-12


def _near_points(a, b, roots):
    """Split points of [a, b] that grade geometrically (ratio 10) toward the
    real foot of every complex root within the interval's length, so that no
    subinterval holds a singularity closer than a tenth of its length."""
    pts = {a, b}
    for r in roots:
        foot = min(max(mp.re(r), a), b)
        dist = abs(r - foot)
        if dist >= b - a:
            continue
        pts.add(foot)
        step = max(dist, mp.mpf(10) ** -POLE_DIGITS)
        while step < b - a:
            pts.update(p for p in (foot - step, foot + step) if a < p < b)
            step *= 10
    return sorted(pts)


def _tabulated_moments(tab, w):
    """(G0, G0') of the profile's pieces, each the Hermite cubic of its knot
    data built in mpmath (conftest.hermite_piece), by mpmath's quadrature,
    each knot interval split near the roots of its cubic = w."""
    with mp.workdps(POLE_DIGITS):
        w = mp.mpc(w)
        g0 = g1 = mp.mpc(0)
        for j in range(len(tab._x) - 1):
            coeffs, h = hermite_piece(tab, j)
            coeffs[-1] -= w
            c3, c2, c1, c0 = coeffs
            while coeffs[0] == 0:  # a quadratic piece or a line
                coeffs.pop(0)
            roots = mp.polyroots(coeffs, maxsteps=200, extraprec=200)
            pts = _near_points(mp.mpf(0), h, roots)
            p = lambda d: ((c3 * d + c2) * d + c1) * d + c0
            g0 += mp.quad(lambda d: 1 / p(d), pts)
            g1 += mp.quad(lambda d: 1 / p(d) ** 2, pts)
        return complex(g0), complex(g1)


def _assert_moments(got, want, rtol=POLE_RTOL):
    for g, v in zip(got, want):
        assert abs(g - v) <= rtol * abs(v), (g, v, abs(g - v) / abs(v))


@st.composite
def _knots_and_w(draw):
    """Knots in the style of test_profiles' _random_knots (2-12 knots,
    secants over six decades, so end slopes are kept and cut to 0), and a w
    beyond an end of the support (Im w in {1, 1e-3, 1e-9, 0} of the span) or
    on one of the rule's Gauss nodes (Im w in {1e-9, 1e-12, 1e-15})."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 12))
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]])
    a = np.cumsum(np.concatenate([[rng.normal()], rng.exponential(size=n - 1)
                                  * 10.0 ** rng.uniform(-3.0, 3.0, n - 1)]))
    tab = TabulatedProfile(x, a)
    span = a[-1] - a[0]
    if draw(st.booleans()):
        end, side = (a[0], -1.0) if draw(st.booleans()) else (a[-1], 1.0)
        re = end + side * span * 10.0 ** -draw(st.integers(1, 10))
        im = draw(st.sampled_from([1.0, 1e-3, 1e-9, 0.0]))
    else:
        nodes = tab.chart_rule.s.ravel()
        re = float(nodes[draw(st.integers(0, len(nodes) - 1))])
        im = draw(st.sampled_from([1e-9, 1e-12, 1e-15]))
    return tab, complex(re, im * span)


_ZERO_SLOPE = TabulatedProfile([0.0, 0.5, 1.0], [0.0, 0.1, 1.0])
_UPPER_FLAT = TabulatedProfile([0.0, 0.5, 1.0], [0.0, 0.9, 1.0])  # its mirror: slope 0 at the top
_NARROW_LINE = parse_profile("linear:0.31428722912918317,0.31661910435385526")
_BENCH_X = np.linspace(0.0, 1.0, 33)
_BENCH = TabulatedProfile(_BENCH_X, 2.0 * _BENCH_X - 1.0 + 0.15 * np.sin(2.0 * math.pi * _BENCH_X))
_BENCH_NODE = float(min(_BENCH.chart_rule.s.ravel(), key=lambda s: abs(s + 0.312)))


class TestTabulatedPoleMoments:
    """G0 and G0' of tabulated profiles against mpmath of the Hermite
    cubics of their knot data, to 1e-12 relative, and the Herglotz sign
    Im G0 Im w > 0. Each root is placed from its piece's knot nearer in
    value, where the stored cubic holds the knot's value and slope exactly,
    so the bound holds by either knot: beyond the upper end of slope 0 of
    (0, .5, 1) -> (0, .9, 1) as well as below the lower one of its mirror."""

    @given(case=_knots_and_w())
    @example(case=(_ZERO_SLOPE, complex(-1e-6, 0.0)))
    @example(case=(_ZERO_SLOPE, complex(-1e-8, 1e-8)))
    @example(case=(_ZERO_SLOPE, complex(-1e-10, 0.0)))
    @example(case=(_BENCH, complex(_BENCH_NODE, 1e-12)))
    @example(case=(_BENCH, complex(_BENCH_NODE, 1e-15)))
    @example(case=(_UPPER_FLAT, complex(1.0 + 1e-8, 0.0)))
    @example(case=(_UPPER_FLAT, complex(1.0 + 1e-10, 1e-10)))
    @example(case=(_NARROW_LINE, complex(0.3166191043561871, 0.0)))  # 1e-9 widths above
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_against_mpmath(self, case):
        tab, w = case
        got = [g[0] for g in _resolvent_moments(tab, w)]
        _assert_moments(got, _tabulated_moments(tab, w))
        if w.imag != 0:
            assert got[0].imag * w.imag > 0


def _semicircle_moments(w, threshold):
    """(G0, G0') of the unit semicircle (radius 2) clipped at threshold
    (None: whole) at 40 digits: the whole one in closed form, the branch of
    sqrt(w - 2) sqrt(w + 2) with its cut on [-2, 2] (at a real w inside,
    G0 + i0: the principal value and, for G0', the Hadamard finite part in
    the real part), and a clipped one as the whole minus mpmath's quad of
    the other side of the threshold, or as the quad itself, whichever side
    keeps the pole off its interval (s = 2 sin u)."""
    with mp.workdps(POLE_DIGITS):
        w = mp.mpc(w)
        root = mp.sqrt(w - 2) * mp.sqrt(w + 2)
        whole = ((root - w) / 2, (w / root - 1) / 2)
        if threshold is None:
            return tuple(complex(v) for v in whole)
        cut = mp.asin(mp.mpf(threshold) / 2)
        f = lambda u, p: 2 / mp.pi * mp.cos(u) ** 2 / (2 * mp.sin(u) - w) ** p
        if mp.re(w) < threshold:
            return tuple(complex(v - mp.quad(lambda u: f(u, p), [cut, mp.pi / 2]))
                         for v, p in zip(whole, (1, 2)))
        return tuple(complex(mp.quad(lambda u: f(u, p), [-mp.pi / 2, cut])) for p in (1, 2))


_GOE_NODE = float(min(SemicircleQuantileProfile().chart_rule.s.ravel(), key=lambda s: abs(s + 1.5463)))


class TestSemicirclePoleMoments:
    """The semicircle's closed form, whole and clipped, against mpmath: on
    the Gauss node nearest -1.5463 just above the axis, within 1e-12 of an
    edge, beyond the support, and at real w inside it (principal value and
    Hadamard finite part, the real parts)."""

    @pytest.mark.parametrize("threshold", [None, 0.4, -1.0])
    @pytest.mark.parametrize("w", [
        complex(_GOE_NODE, 1e-9), complex(_GOE_NODE, 1e-11), complex(_GOE_NODE, 1e-13),
        complex(2.0 - 1e-12, 1e-12), complex(-2.0 + 1e-12, 1e-12),
        complex(2.0 + 1e-12, 0.0), complex(-2.0 - 1e-12, 0.0), complex(-2.7, 0.0),
        complex(7.5, 0.3)])
    def test_against_mpmath(self, goe_profile, threshold, w):
        rule = None if threshold is None else _rule_below(goe_profile, threshold)
        got = [g[0] for g in _resolvent_moments(goe_profile, w, rule)]
        _assert_moments(got, _semicircle_moments(w, threshold))

    @pytest.mark.parametrize("threshold", [None, 0.4, -1.0])
    @pytest.mark.parametrize("lam", [-1.3, 0.1, 1.9])
    def test_real_inside(self, goe_profile, threshold, lam):
        rule = None if threshold is None else _rule_below(goe_profile, threshold)
        got = [g[0].real for g in _resolvent_moments(goe_profile, complex(lam, 0.0), rule)]
        for g, v in zip(got, _semicircle_moments(complex(lam, 0.0), threshold)):
            assert abs(g - v.real) <= POLE_RTOL * max(1.0, abs(v.real)), (g, v)


def _moments_mp(x):
    # (G0, G0') of _ZERO_SLOPE at a real x below its support, in mpmath
    g0 = g1 = mp.mpf(0)
    for j in range(2):
        c3, c2, c1, c0 = (mp.mpf(float(v)) for v in _ZERO_SLOPE._interp.c[:, j])
        p = lambda d: ((c3 * d + c2) * d + c1) * d + c0 - x
        g0 += mp.quad(lambda d: 1 / p(d), [0, mp.mpf(1) / 1000, mp.mpf(1) / 2])
        g1 += mp.quad(lambda d: 1 / p(d) ** 2, [0, mp.mpf(1) / 1000, mp.mpf(1) / 2])
    return g0, g1


class TestZeroSlopeEdges:
    """The lower support edge of a profile whose end slope is 0: x the root
    of t G0'(x) = 1 below the support and lam = x - t G0(x), by mpmath."""

    @pytest.mark.parametrize("t", [1e-6, 1e-8])
    def test_against_mpmath(self, t):
        x, lam = _edges(_ZERO_SLOPE, t)[0]
        with mp.workdps(POLE_DIGITS):
            root = mp.findroot(lambda v: t * _moments_mp(v)[1] - 1, mp.mpf(x))
            want = root - t * _moments_mp(root)[0]
        assert abs(x - float(root)) <= 1e-10 * abs(float(root))
        assert abs(lam - float(want)) <= POLE_RTOL * abs(float(want))

