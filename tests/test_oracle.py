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
"""

import math

import mpmath as mp
import numpy as np
import pytest

from conftest import support_bounds
from specdrift import (SemicircleQuantileProfile, TabulatedProfile, density_and_hilbert,
                       parse_profile, semicircle_density, semicircle_hilbert, solve_grid)
from specdrift.stieltjes import _resolvent_moments, _rule_below

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
