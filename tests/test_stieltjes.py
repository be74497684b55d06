import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boundary_value, support_bounds
from specdrift import (ConvergenceError, DomainError, EdgeError, SemicircleQuantileProfile,
                       TabulatedProfile, cdf_limit, parse_profile, semicircle_stieltjes,
                       solve_fixed_point, solve_grid, theta_limit)
from specdrift import profiles, stieltjes
from specdrift.profiles import ChartRule
from specdrift.stieltjes import BLOCK, DEFAULT_TOL, _resolvent_moments, boundary_values


def fixed_point_residual(profile, t, z, m):
    """|F(m) - m| for the self-consistency map F(m) = G0(z + t m)."""
    val, _ = _resolvent_moments(profile, complex(z) + t * complex(m))
    return float(abs(val[0] - m))


def sine_profile(knots=33, seed=20260823):
    """The tabulated profile of the benchmark's limit-solver workload:
    a(x) = 2x - 1 + A sin(2 pi x) on `knots` knots, A in [0.1, 0.2) drawn
    from the seed, the upper half the exact mirror of the lower."""
    amplitude = 0.1 + 0.1 * random.Random(seed).random()
    last = knots - 1
    lower = [2.0 * (k / last) - 1.0 + amplitude * math.sin(2.0 * math.pi * (k / last))
             for k in range(last // 2)]
    a = lower + [0.0] * (knots - 2 * len(lower)) + [-v for v in reversed(lower)]
    return TabulatedProfile([k / last for k in range(knots)], a)


def semicircle_oracle(z):
    """Quadratic-formula Stieltjes transform of the unit semicircle, point
    mass profile at 0 with t=1 (free addition of pure noise)."""
    s = cmath.sqrt(z * z - 4.0)
    if s.imag * z.imag < 0:
        s = -s
    return (-z + s) / 2.0


class TestSolveFixedPoint:
    def test_t0_pure_quadrature(self, linear_profile):
        z = 0.5 + 0.3j
        # int_0^1 dx/(x - z) = log((1-z)/(-z))
        oracle = cmath.log((1.0 - z) / (-z))
        m = solve_fixed_point(linear_profile, 0.0, z)
        assert abs(m - oracle) <= 1e-12

    def test_goe_t1_matches_closed_form(self, goe_profile):
        for z in (1j, 0.5 + 0.2j, -1.0 + 0.05j, 2.5 + 0.01j):
            m = solve_fixed_point(goe_profile, 1.0, z)
            assert abs(m - semicircle_stieltjes(1.0, z)) <= 1e-9
            assert fixed_point_residual(goe_profile, 1.0, z, m) <= 1e-12

    def test_near_axis_density_anchor(self, goe_profile):
        # Im G(0 + i eta) -> pi rho_1(0) = sqrt(2)/2 as eta -> 0
        m = solve_fixed_point(goe_profile, 1.0, 1e-6j)
        assert abs(m.real) <= 1e-6
        assert m.imag == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-5)

    def test_real_z_rejected(self, goe_profile):
        with pytest.raises(DomainError):
            solve_fixed_point(goe_profile, 1.0, 2.0 + 0j)

    def test_iterations_reported(self, goe_profile, monkeypatch):
        monkeypatch.setattr(stieltjes, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as info:
            solve_fixed_point(goe_profile, 1.0, 0.3 + 0.01j)
        assert info.value.iterations == 1
        assert info.value.residual > DEFAULT_TOL

    def test_lower_half_plane(self, goe_profile):
        m_up = solve_fixed_point(goe_profile, 1.0, 0.3 + 0.1j)
        m_dn = solve_fixed_point(goe_profile, 1.0, 0.3 - 0.1j)
        assert abs(m_dn - m_up.conjugate()) <= 1e-10

    def test_far_field_asymptotic(self, goe_profile):
        for z in (50.0 + 1j, 1j * 50.0, -40.0 + 5j):
            m = solve_fixed_point(goe_profile, 1.0, z)
            assert abs(m + 1.0 / z) <= 2.0 / abs(z) ** 2


class TestDensityAndHilbert:
    @pytest.mark.parametrize("t,lam", [(1.0, 0.0), (1.0, 1.0), (0.5, -0.7), (4.0, 2.0)])
    def test_goe_closed_forms(self, goe_profile, t, lam):
        m, want = boundary_value(goe_profile, t, lam), semicircle_stieltjes(t, lam)
        assert m.imag / math.pi == pytest.approx(want.imag / math.pi, abs=1e-8)
        assert m.real == pytest.approx(want.real, abs=1e-8)

    def test_goe_t1_hilbert_quarter(self, goe_profile):
        m = boundary_value(goe_profile, 1.0, 1.0)
        assert m.real == pytest.approx(-0.25, abs=1e-8)

    def test_outside_support(self, goe_profile):
        m = boundary_value(goe_profile, 1.0, 5.0)
        assert m.imag == 0.0
        assert m.real == pytest.approx(semicircle_stieltjes(1.0, 5.0).real, abs=1e-6)

    def test_t0_shortcut(self, linear_profile):
        m = boundary_value(linear_profile, 0.0, 0.5)
        assert m.imag / math.pi == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("profile,lam,rho,hilbert", [
        (parse_profile("linear:0,1"), 0.2, 1.0, math.log(4.0)),
        (SemicircleQuantileProfile(), 1.9, semicircle_stieltjes(0.0, 1.9).imag / math.pi,
         semicircle_stieltjes(0.0, 1.9).real),
    ], ids=["linear", "goe"])
    def test_t0_exact_line(self, profile, lam, rho, hilbert):
        # rho_0 straight from the profile, H_0 as one principal-value integral
        m = boundary_value(profile, 0.0, lam)
        assert abs(m.imag / math.pi - rho) <= 1e-12
        assert abs(m.real - hilbert) <= 1e-12

    def test_t0_real_g0_off_support(self):
        # just below linear:0,1 the real G0(lam) = log((1 - lam)/(-lam))
        m = boundary_value(parse_profile("linear:0,1"), 0.0, -1e-12)
        assert m.imag == 0.0
        assert abs(m.real - math.log1p(1e12)) <= 1e-12 * math.log1p(1e12)

    @pytest.mark.parametrize("radius", [2.0, 4.0])
    def test_t0_semicircle_edge_finite(self, radius):
        # rho_0 vanishes at the edge, so H_0 = -/+ 2/r is finite there
        profile = SemicircleQuantileProfile(radius)
        for lam in (radius, -radius):
            m = boundary_value(profile, 0.0, lam)
            assert m.imag == 0.0
            assert abs(m.real + 2.0 / lam) <= 1e-15

    @pytest.mark.parametrize("which", ["linear", "tabulated"])
    def test_t0_jump_edge_rejected(self, which):
        # rho_0 jumps at the edge and H_0 diverges there logarithmically
        x = np.linspace(0.0, 1.0, 33)
        profile = (parse_profile("linear:0,1") if which == "linear"
                   else TabulatedProfile(x, SemicircleQuantileProfile().eval(x)))
        for lam in profile.support:
            with pytest.raises(EdgeError):
                boundary_value(profile, 0.0, lam)
            with pytest.raises(EdgeError):
                solve_grid(profile, 0.0, [lam])

    def test_t0_tabulated_knot(self):
        # on or next to a knot the pole sits by the end of two pieces, whose
        # logs must cancel: H_0 continuous across the semicircle's knots, and
        # odd on the steep antisymmetric 5-knot profile, where Newton alone
        # leaves the two pieces' roots an ulp apart
        x = np.linspace(0.0, 1.0, 33)
        tab = TabulatedProfile(x, SemicircleQuantileProfile().eval(x))
        for k in (16, 20):
            lam = float(tab.eval(x[k]))
            h = [boundary_value(tab, 0.0, lam + d).real for d in (-1e-9, 0.0, 1e-9)]
            assert math.isfinite(h[1]) and abs(h[1] - (h[0] + h[2]) / 2.0) <= 1e-12
        x = np.linspace(0.0, 1.0, 5)
        steep = TabulatedProfile(x, np.sinh(5.0 * (2.0 * x - 1.0)))
        for d in (0.0, 1e-12, 1e-9, -1e-9):
            h1 = boundary_value(steep, 0.0, float(steep.eval(x[1])) + d).real
            h3 = boundary_value(steep, 0.0, float(steep.eval(x[3])) - d).real
            assert abs(h1 + h3) <= 1e-12


    def test_small_t_on_knot(self):
        # Im w = t pi rho_t is tiny and Re w on a knot: the two pieces' roots
        # must still cancel at the knot, so the line tends to the t = 0 one
        x = np.linspace(0.0, 1.0, 5)
        steep = TabulatedProfile(x, np.sinh(5.0 * (2.0 * x - 1.0)))
        lam = float(steep.eval(x[1]))
        exact = boundary_value(steep, 0.0, lam)
        for t in (1e-12, 1e-10, 1e-8):
            m = boundary_value(steep, t, lam)
            assert abs(m.imag - exact.imag) / math.pi <= 1e-8 and abs(m.real - exact.real) <= 1e-8

    def test_two_knot_tabulated_is_linear(self):
        # linear:lo,hi is the two-knot tabulated profile: one cubic piece, so
        # the one-piece sum must read the neighbour candidate that holds the
        # pole, not an invalid one. Checked against the uniform density's
        # closed forms G0 = log((hi - w)/(lo - w))/(hi - lo) and its derivative.
        lo, hi = -1.0, 1.0
        tab = parse_profile("linear:-1,1")
        assert isinstance(tab, TabulatedProfile)

        def g0(w):
            return np.log((hi - w) / (lo - w)) / (hi - lo)

        def g0_prime(w):
            return (1.0 / (lo - w) - 1.0 / (hi - w)) / (hi - lo)

        x = np.linspace(-1.4, 1.4, 15)
        w = np.concatenate([x + 1j * eta for eta in (1.0, 1e-3, 1e-8)]
                           + [np.array([-3.0, -1.5, 1.2, 3.0, 10.0]) + 0j])
        for got, want in zip(_resolvent_moments(tab, w), (g0(w), g0_prime(w))):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
        # the t = 0.5 boundary values solve m = G0(lam + t m)
        lams = np.linspace(-1.5, 1.5, 13)
        m = boundary_values(tab, 0.5, lams)[0]
        assert np.all(m.imag > 0)
        assert np.max(np.abs(m - g0(lams + 0.5 * m))) <= 1e-14
        # the exact t = 0 line: rho_0 = 1/(hi - lo), H_0 the principal value
        inner = np.linspace(-0.9, 0.9, 7)
        want = (np.full_like(inner, 1.0 / (hi - lo)),
                np.log((hi - inner) / (inner - lo)) / (hi - lo))
        m = boundary_values(tab, 0.0, inner)[0]
        for got, exact in zip((m.imag / math.pi, m.real), want):
            assert np.max(np.abs(got - exact)) <= 1e-14


_X33 = np.linspace(0.0, 1.0, 33)
_X5 = np.linspace(0.0, 1.0, 5)
MOMENT_PROFILES = {
    "two-knot": parse_profile("linear:-1,1"),
    "steep-5-knot": TabulatedProfile(_X5, np.sinh(5.0 * (2.0 * _X5 - 1.0))),
    "33-knot": TabulatedProfile(_X33, 2.0 * _X33 - 1.0 + 0.15 * np.sin(2.0 * math.pi * _X33)),
    "semicircle": SemicircleQuantileProfile(),
}


@pytest.mark.parametrize("name", MOMENT_PROFILES)
def test_masked_pass_against_refined_rule(name):
    # One block mixes w whose pole sits on a piece (Im w = 1, 1e-3, and real
    # w inside the support) with w beyond the support, near and far, real or
    # not; a second block holds the rest. Every w must get the plain sums of
    # exactly the pieces without its pole, and far from the support no piece
    # may hold one. The reference is
    # the same rule with every panel split in six, whose pole pieces are
    # integrated exactly too: the two agree to rounding, where a plain sum
    # over a pole piece is off by far more. Far from the support the plain
    # sums of the refined rule alone are exact.
    profile = MOMENT_PROFILES[name]
    rule = profile.chart_rule
    e = rule.edges
    fine = ChartRule.build(np.interp(np.arange(6 * len(e) - 5) / 6.0, np.arange(len(e)), e),
                           rule.S, rule.W, rule.U, len(rule.lo))
    lo, hi = profile.support
    span = hi - lo
    x = lo + span * np.linspace(0.013, 0.987, 20)
    far = np.array([lo - span / 2.0, hi + span / 2.0])
    far = np.concatenate([far, far + 0.3j * span])
    w = np.concatenate([x + 1j, x + 1e-3j, x + 0j, [lo - 1e-3, hi + 1e-3], far])
    assert len(w) > BLOCK
    got = _resolvent_moments(profile, w)
    for g, want in zip(got, _resolvent_moments(profile, w, fine)):
        assert np.max(np.abs(g - want) / np.maximum(1.0, np.abs(want))) <= 1e-13
    plain = 1.0 / (fine.s.ravel() - far[:, None])
    for g, want in zip(got, (plain @ fine.ws.ravel(), (plain * plain) @ fine.ws.ravel())):
        assert np.max(np.abs(g[-len(far):] - want) / np.abs(want)) <= 1e-13


@pytest.mark.parametrize("im", [0.0, 1e-9])
@pytest.mark.parametrize("k", [1, 3])
def test_odd_symmetry_by_a_knot(k, im):
    # a = sinh(5(2x - 1)) is odd about x = 1/2, so rho0 is even and H0(-lam) =
    # -H0(lam). Both pieces at knot k place their roots from that knot, where
    # each holds the knot's value and slope exactly, so the symmetry holds to
    # rounding from 1e-12 to 1e-3 off the knot value.
    profile = MOMENT_PROFILES["steep-5-knot"]
    delta = np.geomspace(1e-12, 1e-3, 28)
    lam = np.concatenate([profile._a[k] - delta, profile._a[k] + delta])
    h_plus, h_minus = (_resolvent_moments(profile, v + 1j * im)[0].real for v in (lam, -lam))
    assert np.max(np.abs(h_plus + h_minus) / np.abs(h_plus)) <= 1e-14


SCREEN_PROFILES = {**MOMENT_PROFILES,
                   "zero-end-slope": TabulatedProfile([0.0, 0.5, 1.0], [0.0, 0.1, 1.0])}


class TestPoleScreen:
    """The pole screen, the disk test in a tabulated profile's
    pole_moments, runs NEAR_CELLS // pieces points at a time: chunked to one
    point or unchunked, the moments are the same bits. _resolvent_moments
    makes one pole_moments call per call."""

    @pytest.mark.parametrize("n", [1, 64, 65, 201, 600])
    @pytest.mark.parametrize("name", SCREEN_PROFILES)
    def test_bit_identical_to_unscreened(self, name, n, monkeypatch):
        profile = SCREEN_PROFILES[name]
        lo, hi = profile.support
        span = hi - lo
        rng = np.random.default_rng(n)
        w = (rng.uniform(lo - span / 2.0, hi + span / 2.0, n)
             + 1j * span * rng.choice([0.0, 1e-14, 1e-9, 1e-3, 0.5, 10.0], n))
        w[:4] = [lo, hi, 0.5 * (lo + hi), hi + 1e-9][:n]
        rules = (None, stieltjes._rule_below(profile, lo + 0.4 * span))
        if isinstance(profile, TabulatedProfile) and n >= 64:
            near = np.unique(profile.pole_moments(w, profile.chart_rule)[0])
            assert 0 < len(near) < n
        got = []
        with np.errstate(all="ignore"):  # G0' on a knot value (w = lo, hi) is not finite
            for cells in (1, 1 << 30):
                monkeypatch.setattr(profiles, "NEAR_CELLS", cells)
                got.append([_resolvent_moments(profile, w, rule) for rule in rules])
        for chunked, whole in zip(*got):
            for g, want in zip(chunked, whole):
                assert g.tobytes() == want.tobytes()

    def test_one_pole_call_per_moments_call(self, monkeypatch):
        profile = MOMENT_PROFILES["33-knot"]
        poles, moments, calls, pairs = type(profile).pole_moments, stieltjes._resolvent_moments, [], []

        def counted(self, w, rule):
            out = poles(self, w, rule)
            calls.append(len(w))
            pairs.append(len(out[0]))
            return out

        monkeypatch.setattr(type(profile), "pole_moments", counted)
        lam = np.linspace(-0.5, 0.5, 201)
        far = _resolvent_moments(profile, lam + 0.5j)
        assert calls == [len(lam)] and pairs == [0]  # every point is far: no pair
        pt, k, val, der = poles(profile, lam + 0.5j, profile.chart_rule)
        assert pt.size == k.size == 0 and not val.any() and not der.any()
        mixed = _resolvent_moments(profile, np.concatenate([lam + 0.5j, lam + 1e-3j]))
        assert calls[1:] == [2 * len(lam)] and pairs[1] > 0
        for got, want in zip(mixed, far):
            assert got[:len(lam)].tobytes() == want.tobytes()
        # through a whole solve: one pole_moments call per moments call
        counts = []
        monkeypatch.setattr(stieltjes, "_resolvent_moments",
                            lambda *a: counts.append(1) or moments(*a))
        del calls[:]
        solve_grid(profile, 0.5, np.linspace(-1.5, 1.5, 31))
        assert len(calls) == len(counts) > 0


class TestNonFiniteLambda:
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_rejected(self, goe_profile, linear_profile, lam):
        for profile in (goe_profile, linear_profile):
            with pytest.raises(DomainError):
                boundary_values(profile, 1.0, [0.0, lam])
            for t in (0.0, 1.0):
                with pytest.raises(DomainError):
                    boundary_value(profile, t, lam)


T0_PROFILES = {
    "goe": SemicircleQuantileProfile(),
    "linear": parse_profile("linear:-1,1"),
    "tabulated-semicircle": TabulatedProfile(_X33, SemicircleQuantileProfile().eval(_X33)),
    "zero-end-slope": TabulatedProfile([0.0, 0.5, 1.0], [0.0, 0.1, 1.0]),
}


class TestInitialLine:
    """t = 0 takes the same path as every t > 0: boundary_values returns the
    exact line, and every off-axis solve lands on G0(z) itself, since
    F(m) = G0(z) does not depend on m."""

    @staticmethod
    def _grid(profile):
        # beyond both ends and across the support, no point on an edge
        lo, hi = profile.support
        return lo + (hi - lo) * np.linspace(-0.25, 1.25, 41)

    @pytest.mark.parametrize("name", T0_PROFILES)
    def test_off_axis_rows_are_g0(self, name):
        profile = T0_PROFILES[name]
        grid = self._grid(profile)
        sol = solve_grid(profile, 0.0, grid)
        for eta, row in zip(sol.eta_schedule, sol.values):
            assert row.tobytes() == _resolvent_moments(profile, grid + 1j * eta)[0].tobytes()
        assert not sol.residual.any()

    @pytest.mark.parametrize("name", T0_PROFILES)
    def test_fixed_point_is_g0(self, name):
        profile = T0_PROFILES[name]
        lo, hi = profile.support
        for z in (0.5 * (lo + hi) + 1j, lo + 0.3 * (hi - lo) + 1e-3j, hi + 0.1 - 1e-2j, 5.0 + 2j):
            want = complex(_resolvent_moments(profile, z)[0][0])
            assert solve_fixed_point(profile, 0.0, z) == want

    @pytest.mark.parametrize("name", T0_PROFILES)
    def test_exact_line(self, name):
        # H_0 the principal value at w = lam, rho_0 the profile's density up
        # to the pi round trip, zero residuals
        profile = T0_PROFILES[name]
        grid = self._grid(profile)
        m, res = boundary_values(profile, 0.0, grid)
        assert not res.any()
        assert m.real.tobytes() == _resolvent_moments(profile, grid + 0j)[0].real.tobytes()
        rho0 = profile.density(grid)
        assert np.all(np.abs(m.imag / math.pi - rho0) <= np.spacing(rho0))

    @pytest.mark.parametrize("name", T0_PROFILES)
    def test_typed_errors(self, name):
        profile = T0_PROFILES[name]
        if not profile.edge_singular:
            for lam in profile.support:
                with pytest.raises(EdgeError):
                    boundary_values(profile, 0.0, [0.0, lam])
        with pytest.raises(DomainError):
            boundary_values(profile, 0.0, [0.0, math.nan])
        for t in (-1.0, -1e-300):
            with pytest.raises(DomainError):
                boundary_values(profile, t, [0.0])


class TestSemicircleClosedForms:
    def test_t0_center(self):
        assert semicircle_stieltjes(0.0, 0.0).imag / math.pi == pytest.approx(1.0 / math.pi)

    def test_edges(self):
        assert semicircle_stieltjes(1.0, 2.0 * math.sqrt(2.0)).imag == 0.0
        assert semicircle_stieltjes(1.0, -2.0 * math.sqrt(2.0)).imag == 0.0

    def test_hilbert_value(self):
        assert semicircle_stieltjes(3.0, 2.0).real == pytest.approx(-0.25)

    @pytest.mark.parametrize("t,lam", [(0.0, 0.3), (0.05, -1.7), (1.0, 2.5), (4.0, -0.2)])
    def test_radius_2_bit_identical(self, t, lam):
        # the variance r^2/4 + t is exactly 1 + t at the default radius, and
        # inside the support H_t is exactly -lam/(2c)
        c = 1.0 + t
        m = semicircle_stieltjes(t, lam)
        assert m == semicircle_stieltjes(t, lam, 2.0)
        assert 4.0 * c - lam * lam > 0 and m.real == -lam / (2.0 * c)

    @pytest.mark.parametrize("radius", [2.0, 4.0])
    @pytest.mark.parametrize("t", [0.0, 0.05, 1.0])
    def test_real_axis_against_formulas(self, radius, t):
        # the upper boundary value H + i pi rho: inside the support
        # rho = sqrt(4c - lam^2)/(2 pi c), and beyond it the real branch
        # (-lam +- sqrt(lam^2 - 4c))/(2c) that decays to 0 on its side
        c = radius * radius / 4.0 + t
        edge = 2.0 * math.sqrt(c)
        for lam in edge * np.linspace(-0.99, 0.99, 23):
            m = semicircle_stieltjes(t, lam, radius)
            rho = math.sqrt(4.0 * c - lam * lam) / (2.0 * math.pi * c)
            assert m.real == -lam / (2.0 * c)
            assert abs(m.imag / math.pi - rho) <= 1e-15 * (1.0 + rho)
        for lam in (edge, -edge):
            assert semicircle_stieltjes(t, lam, radius) == -lam / (2.0 * c)
        for side in (1.0, -1.0):
            for lam in side * edge * np.array([1.0 + 1e-6, 1.01, 1.5, 10.0]):
                m = semicircle_stieltjes(t, lam, radius)
                want = (-lam + side * math.sqrt(lam * lam - 4.0 * c)) / (2.0 * c)
                assert m.imag == 0.0
                assert abs(m.real - want) <= 1e-12 * abs(want)
            lams = side * edge * np.geomspace(1.0, 1e6, 13)
            far = [abs(semicircle_stieltjes(t, lam, radius)) for lam in lams]
            assert far == sorted(far, reverse=True)
            assert abs(far[-1] * abs(lams[-1]) - 1.0) <= 1e-3  # G ~ -1/lam

    @pytest.mark.parametrize("t,radius", [(-1.0, 2.0), (-4.0, 4.0), (math.inf, 2.0),
                                          (math.nan, 2.0), (0.0, math.nan), (0.0, 0.0)])
    def test_variance_not_positive_finite(self, t, radius):
        with pytest.raises(DomainError):
            semicircle_stieltjes(t, 0.5, radius)
        with pytest.raises(DomainError):
            semicircle_stieltjes(t, 0.5 + 1j, radius)

    @pytest.mark.parametrize("t", [0.05, 1.0])
    def test_radius_4_matches_solver(self, t):
        edge = 2.0 * math.sqrt(4.0 + t)
        grid = np.linspace(-1.2 * edge, 1.2 * edge, 48)  # no point on an edge
        sol = solve_grid(SemicircleQuantileProfile(4.0), t, grid)
        for j, lam in enumerate(grid):
            m = semicircle_stieltjes(t, lam, 4.0)
            assert abs(sol.rho[j] - m.imag / math.pi) <= 1e-12
            assert abs(sol.hilbert[j] - m.real) <= 1e-12
        for z in (0.3 + 0.2j, -4.0 + 0.01j):
            m = solve_fixed_point(SemicircleQuantileProfile(4.0), t, z)
            assert abs(m - semicircle_stieltjes(t, z, 4.0)) <= 1e-12

    def test_point_mass_oracle(self):
        # m(-z-m)=1 at z=i: m = i(sqrt(5)-1)/2
        z = 1j
        m = semicircle_oracle(z)
        assert m == pytest.approx(1j * (math.sqrt(5.0) - 1.0) / 2.0, abs=1e-14)
        assert abs(m * (-z - m) - 1.0) <= 1e-14


class TestSolveGrid:
    def test_residuals_and_extrapolation(self, goe_profile):
        grid = np.linspace(-2.0, 2.0, 9)
        sol = solve_grid(goe_profile, 1.0, grid)
        assert sol.residual.max() <= 1e-10
        for j, lam in enumerate(grid):
            assert sol.rho[j] == pytest.approx(semicircle_stieltjes(1.0, lam).imag / math.pi,
                                               abs=1e-8)
        # Herglotz at every stored point
        assert np.all(sol.values.imag > 0)

    def test_unreachable_tol_raises(self, goe_profile, linear_profile):
        # no NaN and no silent return: a residual that cannot reach tol raises
        for profile in (goe_profile, linear_profile):
            with pytest.raises(ConvergenceError) as info:
                solve_grid(profile, 1.0, [0.3, 5.0], tol=1e-30)
            assert info.value.iterations > 0
            assert math.isfinite(info.value.residual)

    def test_nonpositive_eta_rejected(self, goe_profile):
        for etas in ((-0.01, -0.005), (0.01, 0.0), ()):
            with pytest.raises(DomainError):
                solve_grid(goe_profile, 1.0, [0.0], eta_schedule=etas)

    def test_t0_linear_uniform(self, linear_profile):
        grid = np.linspace(0.1, 0.9, 5)
        sol = solve_grid(linear_profile, 0.0, grid)
        assert np.allclose(sol.rho, 1.0, atol=1e-6)

    def test_csv_columns(self, goe_profile, tmp_path):
        sol = solve_grid(goe_profile, 1.0, [0.0, 1.0])
        path = tmp_path / "s.csv"
        sol.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "lambda,eta,reG,imG,rho,hilbert"

    @pytest.mark.parametrize("profile", [
        SemicircleQuantileProfile(), parse_profile("linear:-1,1"), sine_profile(),
    ], ids=["goe", "linear", "benchmark-33"])
    def test_outer_line_both_sides(self, profile):
        # the points beyond both edges take one real Newton together; each
        # side's m is the one a grid on that side alone gets
        t = 0.5
        lo, hi = support_bounds(profile, t)
        below, above = np.linspace(lo - 2.0, lo, 6), np.linspace(hi, hi + 2.0, 6)
        both = solve_grid(profile, t, np.concatenate([below, above]))
        apart = [solve_grid(profile, t, side) for side in (below, above)]
        assert np.all(both.rho == 0.0)
        for got, want in ((both.hilbert, np.concatenate([s.hilbert for s in apart])),
                          (both.values, np.concatenate([s.values for s in apart], axis=1))):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14

    def test_density_normalized(self, goe_profile):
        lo, hi = support_bounds(goe_profile, 1.0)
        grid = np.linspace(lo + 1e-3, hi - 1e-3, 201)
        sol = solve_grid(goe_profile, 1.0, grid)
        mass = np.trapezoid(sol.rho, grid)
        assert mass == pytest.approx(1.0, abs=1e-3)


class TestSupportBounds:
    def test_goe_edges(self, goe_profile):
        lo, hi = support_bounds(goe_profile, 1.0)
        edge = 2.0 * math.sqrt(2.0)
        assert lo == pytest.approx(-edge, abs=5e-3)
        assert hi == pytest.approx(edge, abs=5e-3)

    def test_t0_profile_support(self, linear_profile):
        assert support_bounds(linear_profile, 0.0) == (0.0, 1.0)

    @staticmethod
    def _linear_edge(t):
        # uniform density on [-1, 1]: t G0'(x) = t / (x^2 - 1) = 1 at x = sqrt(1 + t)
        x = math.sqrt(1.0 + t)
        return x + (t / 2.0) * math.log((x + 1.0) / (x - 1.0))

    @pytest.mark.parametrize("profile,t,edge", [
        (parse_profile("linear:-1,1"), 0.5, _linear_edge(0.5)),
        (parse_profile("linear:-1,1"), 0.05, _linear_edge(0.05)),
        (SemicircleQuantileProfile(), 1.0, 2.0 * math.sqrt(2.0)),
        (SemicircleQuantileProfile(), 0.05, 2.0 * math.sqrt(1.05)),
        (SemicircleQuantileProfile(4.0), 0.2, 2.0 * math.sqrt(4.2)),
    ], ids=["linear-0.5", "linear-0.05", "goe-1", "goe-0.05", "radius4-0.2"])
    def test_exact_edges(self, profile, t, edge):
        lo, hi = support_bounds(profile, t)
        assert abs(hi - edge) <= 1e-9
        assert abs(lo + edge) <= 1e-9

    @pytest.mark.parametrize("profile", [
        SemicircleQuantileProfile(), parse_profile("linear:-1,1"), sine_profile(),
    ], ids=["goe", "linear", "benchmark-33"])
    def test_both_ends_one_call_per_round(self, profile, monkeypatch):
        # both ends are bracketed in one moments call per zoom round, each
        # call one block, and one more call takes lam at both edges
        moments, sizes = stieltjes._resolvent_moments, []

        def counted(profile, w, rule=None):
            sizes.append(np.size(w))
            return moments(profile, w, rule)

        monkeypatch.setattr(stieltjes, "_resolvent_moments", counted)
        for t in (1e-8, 1e-4, 0.5, 4.0):
            sizes.clear()
            stieltjes._edges.__wrapped__(profile, t)  # past the per-(profile, t) cache
            assert 0 < len(sizes) <= 13, t
            assert max(sizes) <= BLOCK and sizes[-1] == 2

    @pytest.mark.parametrize("t", [1e-10, 1e-8, 1e-4, 0.5, 4.0])
    def test_semicircle_edges(self, goe_profile, t):
        # t G0'(x) = 1 at x = (2 + t)/sqrt(1 + t), where lam = 2 sqrt(1 + t).
        # At t <= 1e-8, x - 2 = t^2/4 is below an ulp of 2, where the
        # search's first point sits: x and lam are still off by a few ulps
        (x_lo, lam_lo), (x_hi, lam_hi) = stieltjes._edges(goe_profile, t)
        x, lam = (2.0 + t) / math.sqrt(1.0 + t), 2.0 * math.sqrt(1.0 + t)
        for got, want in ((x_hi, x), (-x_lo, x), (lam_hi, lam), (-lam_lo, lam)):
            assert abs(got - want) <= 3.0 * np.spacing(want)

    @pytest.mark.parametrize("profile", [
        parse_profile("linear:-1,1"), SemicircleQuantileProfile(),
        TabulatedProfile(np.linspace(0, 1, 33), np.linspace(0, 1, 33) ** 2 + np.linspace(0, 1, 33)),
    ], ids=["linear", "goe", "tabulated"])
    def test_line_on_edge(self, profile):
        # exactly on a root-found edge: finite, rho = 0, and positive just inside
        for t in (0.01, 1.0):
            lo, hi = support_bounds(profile, t)
            for lam in (lo, hi):
                m = boundary_value(profile, t, lam)
                assert m.imag == 0.0 and math.isfinite(m.real)
            inside = boundary_value(profile, t, hi - 1e-6 * (hi - lo))
            assert inside.imag > 0


class TestThetaLimit:
    def test_g_one_equals_fixed_point(self, goe_profile):
        z = 0.4 + 0.05j
        m = solve_fixed_point(goe_profile, 1.0, z)
        theta = theta_limit(goe_profile, 1.0, z, math.inf)
        assert abs(theta - m) <= 1e-12

    def test_g_zero(self, goe_profile):
        # a threshold below the support leaves g = 0 on it
        assert abs(theta_limit(goe_profile, 1.0, 1j, -10.0)) <= 1e-12

    def test_indicator_symmetry(self, goe_profile):
        # at z = i eta the half-line indicators split Im G evenly and carry
        # opposite real parts; together they reassemble the g=1 integral.
        # The a > 0 half is the full integral minus a <= 0.
        z = 0.7j
        m = solve_fixed_point(goe_profile, 1.0, z)
        neg = theta_limit(goe_profile, 1.0, z, 0.0)
        pos = theta_limit(goe_profile, 1.0, z, math.inf) - neg
        assert abs(neg.imag - m.imag / 2.0) <= 1e-9
        assert abs(neg.real + pos.real) <= 1e-9
        assert abs((neg + pos) - m) <= 1e-9

    def test_scale_invariance(self):
        # radius 4 is twice radius 2: G_4(t, z) = G_2(t/4, z/2) / 2
        for z in (0.1j, 1.0 + 0.05j):
            wide = theta_limit(SemicircleQuantileProfile(4.0), 1.0, z, math.inf)
            unit = theta_limit(SemicircleQuantileProfile(2.0), 0.25, z / 2, math.inf)
            assert abs(wide - unit / 2) <= 1e-12


class TestCdfLimit:
    def test_total_mass(self, goe_profile):
        assert cdf_limit(goe_profile, 1.0, 10.0, 10.0) == pytest.approx(1.0, abs=1e-3)

    def test_below_support(self, goe_profile):
        assert cdf_limit(goe_profile, 1.0, -10.0, 10.0) == 0.0
        assert cdf_limit(goe_profile, 1.0, 10.0, -10.0) == 0.0

    def test_lambda_marginal_symmetric(self, goe_profile):
        assert cdf_limit(goe_profile, 1.0, 0.0, 10.0) == pytest.approx(0.5, abs=1e-3)

    def test_monotone(self, goe_profile):
        vals = [cdf_limit(goe_profile, 1.0, lam, 0.5) for lam in (-1.0, 0.0, 1.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_scale_invariance(self):
        # radius 4 at (t, lam, alpha) is radius 2 at (t/4, lam/2, alpha/2)
        for lam, alpha in ((0.0, 0.0), (1.0, -0.6)):
            wide = cdf_limit(SemicircleQuantileProfile(4.0), 1.0, lam, alpha)
            unit = cdf_limit(SemicircleQuantileProfile(2.0), 0.25, lam / 2, alpha / 2)
            assert abs(wide - unit) <= 1e-9

    def test_marginal_derivative_recovers_density(self, goe_profile):
        # d Phi(lam, +inf)/d lam == rho_t(lam)
        h = 0.05
        for lam in (-1.0, 0.5):
            d = (cdf_limit(goe_profile, 1.0, lam + h, 10.0)
                 - cdf_limit(goe_profile, 1.0, lam - h, 10.0)) / (2 * h)
            assert d == pytest.approx(semicircle_stieltjes(1.0, lam).imag / math.pi, abs=1e-3)


class TestProperties:
    @given(lam=st.floats(min_value=-2.5, max_value=2.5),
           eta=st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_herglotz(self, lam, eta):
        p = SemicircleQuantileProfile()
        m = solve_fixed_point(p, 1.0, complex(lam, eta))
        assert m.imag > 0

    @given(t=st.floats(min_value=0.05, max_value=4.0),
           lam=st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=15, deadline=None)
    def test_linear_profile_residual(self, t, lam):
        p = parse_profile("linear:0,1")
        z = complex(lam, 0.01)
        m = solve_fixed_point(p, t, z)
        assert fixed_point_residual(p, t, z, m) <= 1e-12
