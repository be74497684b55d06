import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from specdrift import (ConfigError, DomainError, EdgeError, InvalidProfileError,
                       SemicircleQuantileProfile, TabulatedProfile, parse_profile)
from specdrift.profiles import gauss_legendre

from conftest import hermite_piece


def assert_valid_profile(p):
    """Strictly increasing, inverse round trip within 1e-9 and derivative
    against a central difference within 1e-5 relative, on a probe grid of
    spacing 1e-3."""
    xs = np.arange(0.0, 1.0005, 1e-3)
    assert np.all(np.diff(np.asarray(p.eval(xs))) > 0)
    interior = xs[(xs > 1e-2) & (xs < 1 - 1e-2)]
    assert np.max(np.abs(np.asarray(p.inverse(p.eval(interior))) - interior)) <= 1e-9
    h = 1e-6
    fd = (np.asarray(p.eval(interior + h)) - np.asarray(p.eval(interior - h))) / (2 * h)
    deriv = np.asarray(p.derivative(interior))
    assert np.max(np.abs(deriv - fd) / np.maximum(np.abs(deriv), 1e-30)) <= 1e-5


class TestGaussLegendre:
    @staticmethod
    def _mpmath_rule(x):
        """Nodes and weights at 40 digits: three Newton steps on P_n from x."""
        n = len(x)
        with mp.workdps(40):
            def legendre(t):
                p0, p1 = mp.mpf(1), t
                for k in range(1, n):
                    p0, p1 = p1, ((2 * k + 1) * t * p1 - k * p0) / (k + 1)
                return p1, n * (t * p1 - p0) / (t * t - 1)

            nodes, weights = [], []
            for start in x:
                t = mp.mpf(float(start))
                for _ in range(3):
                    p, dp = legendre(t)
                    t -= p / dp
                _, dp = legendre(t)
                nodes.append(t)
                weights.append(2 / ((1 - t * t) * dp * dp))
            return nodes, weights

    @pytest.mark.parametrize("n", [1, 2, 12, 48, 64, 200])
    def test_against_mpmath(self, n):
        x, w = gauss_legendre(n)
        nodes, weights = self._mpmath_rule(x)
        assert max(abs(float(a - b)) for a, b in zip(x, nodes)) <= 2e-16
        assert max(abs(float((a - b) / b)) for a, b in zip(w, weights)) <= 2e-13
        assert abs(w.sum() - 2.0) <= 1e-14
        assert np.all(x == -x[::-1]) and np.all(w == w[::-1])

    @pytest.mark.parametrize("n", [1, 2, 12, 48, 63, 64])
    def test_against_leggauss(self, n):
        # numpy's own rule, within its weights' error (1.3e-12 at n = 64,
        # 2.2e-11 at n = 200); the program never imports numpy.polynomial
        from numpy.polynomial.legendre import leggauss
        x, w = gauss_legendre(n)
        nodes, weights = leggauss(n)
        assert np.max(np.abs(x - nodes)) <= 2e-12
        assert np.max(np.abs(w - weights) / weights) <= 2e-12

    def test_cached_read_only(self):
        x, w = gauss_legendre(12)
        assert gauss_legendre(12)[0] is x
        with pytest.raises(ValueError):
            w[0] = 0.0


class TestLinearProfile:
    def test_eval_identity(self):
        p = parse_profile("linear:0,1")
        assert p.eval(0.25) == pytest.approx(0.25, abs=1e-15)

    def test_inverse_identity(self):
        p = parse_profile("linear:0,1")
        assert p.inverse(0.3) == pytest.approx(0.3, abs=1e-12)

    def test_derivative_constant(self):
        p = parse_profile("linear:0,1")
        xs = np.linspace(0.01, 0.99, 11)
        assert np.allclose(p.derivative(xs), 1.0)

    def test_induced_density_uniform(self):
        p = parse_profile("linear:0,1")
        assert p.induced_density(0.5) == pytest.approx(1.0)
        assert p.induced_density(0.001) == pytest.approx(1.0)

    def test_domain_errors(self):
        p = parse_profile("linear:0,1")
        with pytest.raises(DomainError):
            p.eval(1.5)
        with pytest.raises(DomainError):
            p.inverse(2.0)
        with pytest.raises(EdgeError):
            p.induced_density(0.0)

    def test_invalid_bounds(self):
        with pytest.raises(InvalidProfileError):
            parse_profile("linear:1,1")


class TestSemicircleQuantile:
    def test_symmetry_midpoint(self, goe_profile):
        assert goe_profile.eval(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_of_zero(self, goe_profile):
        assert goe_profile.inverse(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_quantile_08_figure_anchor(self, goe_profile):
        # independent oracle: root of the closed-form CDF at level 0.8
        a = goe_profile.eval(0.8)
        assert 0.0 < a < 2.0
        assert goe_profile.cdf(a) == pytest.approx(0.8, abs=1e-12)
        assert a == pytest.approx(0.983, abs=1e-3)
        assert goe_profile.inverse(0.983) == pytest.approx(0.8, abs=1e-3)

    def test_derivative_center(self, goe_profile):
        # inverse-function theorem: a'(1/2) = 1/rho_sc(0) = pi
        assert goe_profile.derivative(0.5) == pytest.approx(math.pi, rel=1e-10)

    def test_density_values(self, goe_profile):
        assert goe_profile.induced_density(0.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert goe_profile.induced_density(1.0) == pytest.approx(
            math.sqrt(3.0) / (2.0 * math.pi), rel=1e-12)

    def test_density_derivative_identity(self, goe_profile):
        # 1/a'(a^{-1}(alpha)) == sqrt(4-alpha^2)/(2 pi)
        for alpha in (-1.5, -0.3, 0.7, 1.9):
            lhs = 1.0 / goe_profile.derivative(goe_profile.inverse(alpha))
            rhs = math.sqrt(4.0 - alpha * alpha) / (2.0 * math.pi)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_edge_rejection(self, goe_profile):
        with pytest.raises(EdgeError):
            goe_profile.derivative(0.0)
        with pytest.raises(EdgeError):
            goe_profile.induced_density(2.0)


def _semicircle_quantile_mp(x, radius):
    """r sin(theta), theta + sin(theta) cos(theta) = pi (x - 1/2), by
    bisection in 40-digit arithmetic."""
    with mp.workdps(40):
        target = mp.pi * (mp.mpf(x) - mp.mpf(1) / 2)
        lo, hi = -mp.pi / 2, mp.pi / 2
        for _ in range(140):
            mid = (lo + hi) / 2
            if mid + mp.sin(mid) * mp.cos(mid) < target:
                lo = mid
            else:
                hi = mid
        return float(radius * mp.sin((lo + hi) / 2))


class TestSemicircleQuantileMpmath:
    @pytest.mark.parametrize("radius", [2.0, 4.0])
    def test_eval(self, radius):
        p = SemicircleQuantileProfile(radius)
        xs = [1e-12, 1e-6, 0.3, 0.8, 1.0 - 1e-12]
        for x, a in zip(xs, p.eval(np.array(xs))):
            assert abs(a - _semicircle_quantile_mp(x, radius)) <= 1e-11
        assert p.eval(0.0) == -radius and p.eval(1.0) == radius
        assert list(p.eval(np.array([0.0, 1.0]))) == [-radius, radius]


_KNOTS_33 = np.linspace(0.0, 1.0, 33)
_KNOTS_5 = np.linspace(0.0, 1.0, 5)
_TABULATED = {
    "semicircle-33": TabulatedProfile(_KNOTS_33, SemicircleQuantileProfile().eval(_KNOTS_33)),
    "sinh-5": TabulatedProfile(_KNOTS_5, np.sinh(5.0 * (2.0 * _KNOTS_5 - 1.0))),
}


class TestTabulatedProfile:
    def test_matches_knots(self):
        x = np.linspace(0, 1, 21)
        p = TabulatedProfile(x, x ** 2 + x)
        assert p.eval(0.5) == pytest.approx(0.75, abs=1e-12)
        assert_valid_profile(p)

    def test_from_csv_roundtrip(self, tmp_path):
        path = tmp_path / "prof.csv"
        x = np.linspace(0, 1, 11)
        with open(path, "w") as fh:
            fh.write("x,a\n")
            for xi, ai in zip(x, 2 * x - 1):
                fh.write(f"{xi},{ai}\n")
        p = TabulatedProfile.from_csv(path)
        assert p.support == pytest.approx((-1.0, 1.0))
        assert p.eval(0.25) == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("x", [1e-9, 1e-7])
    @pytest.mark.parametrize("profile", [
        TabulatedProfile([0.0, 0.5, 1.0], [0.0, 0.1, 1.0]),
        TabulatedProfile(np.linspace(0, 1, 33), np.sinh(5.0 * (2.0 * np.linspace(0, 1, 33) - 1.0))),
    ], ids=["zero-end-slope", "sinh-33"])
    def test_density_near_the_end(self, profile, x):
        # rho_0 = 1/a'(x) right by the end, uncapped where a' -> 0 there; the
        # bisection that inverts a holds x to 2^-65, 3e-11 of x = 1e-9
        alpha = float(profile.eval(x))
        assert profile.density(alpha) == pytest.approx(1.0 / profile.derivative(x), rel=1e-9)

    def test_nonmonotone_rejected(self):
        with pytest.raises(InvalidProfileError):
            TabulatedProfile([0.0, 0.5, 1.0], [0.0, 1.0, 0.5])

    @pytest.mark.parametrize("rows", ["0,-1\nnan,0\n1,1", "0,-1\n0.5,0\n1,inf",
                                      "0,-1\n0.5,nan\n1,1", "0,-inf\n1,1"],
                             ids=["nan-x", "inf-last", "nan-a", "-inf-first"])
    def test_non_finite_knots_rejected(self, tmp_path, rows):
        # comparisons with nan are false, so only an explicit check refuses it
        path = tmp_path / "prof.csv"
        path.write_text(f"x,a\n{rows}\n")
        with pytest.raises(InvalidProfileError):
            TabulatedProfile.from_csv(path)
        with pytest.raises(InvalidProfileError):
            parse_profile(f"csv:{path}")


def _random_knots(rng):
    """Strictly increasing knots on [0, 1] with values whose secants range
    over six decades, so that end slopes are both kept and cut to 0."""
    n = int(rng.integers(2, 41))
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]])
    a = np.cumsum(np.concatenate([[rng.normal()], rng.exponential(size=n - 1)
                                  * 10.0 ** rng.uniform(-3.0, 3.0, n - 1)]))
    return x, a


def _benchmark_knots(amplitude=0.15):
    """33 knots of the antisymmetric a(x) = 2x - 1 + A sin(2 pi x), the shape
    of the benchmark's tabulated profile."""
    x = np.linspace(0.0, 1.0, 33)
    lower = 2.0 * x[:16] - 1.0 + amplitude * np.sin(2.0 * np.pi * x[:16])
    return x, np.concatenate([lower, [0.0], -lower[::-1]])


_NAMED_KNOT_SETS = pytest.mark.parametrize("x,a", [
    ([0.0, 1.0], [-2.0, 3.0]),
    ([0.0, 0.5, 1.0], [0.0, 0.1, 1.0]),  # end slope cut to 0
    (_KNOTS_5, np.sinh(5.0 * (2.0 * _KNOTS_5 - 1.0))),
    _benchmark_knots(),
], ids=["two-knots", "zero-end-slope", "sinh-5", "benchmark-33"])


class TestPchipAgainstScipy:
    """The numpy PCHIP equals scipy.interpolate.PchipInterpolator (used here
    only) bit for bit: coefficients, values and derivatives."""

    @staticmethod
    def _assert_identical(x, a, rng):
        from scipy.interpolate import PchipInterpolator
        ref = PchipInterpolator(x, a)
        p = TabulatedProfile(x, a)
        u = np.concatenate([x, [0.0, 1.0], rng.uniform(0.0, 1.0, 64)])
        assert np.array_equal(p._interp.c, ref.c)
        assert np.array_equal(p.eval(u), ref(u))
        assert np.array_equal(p.derivative(u), ref.derivative()(u))
        for end in (0.0, 1.0):
            assert p.eval(end) == ref(end) and p.derivative(end) == ref.derivative()(end)

    def test_random_knot_sets(self):
        rng = np.random.default_rng(20260823)
        for _ in range(200):
            self._assert_identical(*_random_knots(rng), rng)

    @_NAMED_KNOT_SETS
    def test_named_knot_sets(self, x, a):
        self._assert_identical(np.asarray(x, dtype=float), np.asarray(a, dtype=float),
                               np.random.default_rng(1))

    def test_zero_end_slope(self):
        assert TabulatedProfile([0.0, 0.5, 1.0], [0.0, 0.1, 1.0]).derivative(0.0) == 0.0


class TestChartNear:
    """Which points are near which chart piece: every mpmath root of
    P_k(u) = w within one width of piece k's middle (P_k the Hermite cubic
    of the knot data) has w inside piece k's disk, and pole_moments returns
    the pair (point, k). The w are P_k at points u inside that circle of
    one width (0.4 and 0.999 of the way out, at eight angles) and
    at the knots, so that roots sit where the promise is tightest."""

    RING = [mp.mpf(rho) * mp.expjpi(mp.mpf(j) / 4) for rho in ("0.4", "0.999") for j in range(8)]

    @classmethod
    def _check(cls, profile, pieces):
        centre, radius = profile._pole_disks
        for k in pieces:
            coeffs, h = hermite_piece(profile, k)
            # a knot of slope 0 is a double root, on the chart: no pair there
            us = [s for s, d in ((0, coeffs[2]), (h, profile._interp.c_last[2, k])) if d != 0]
            us += [h / 2 + h * z for z in cls.RING]
            w = np.array([complex(mp.polyval(coeffs, u)) for u in us])
            pt, pk, *_ = profile.pole_moments(w, profile.chart_rule)
            pairs = set(zip(pt.tolist(), pk.tolist()))
            while coeffs[0] == 0:  # a line
                coeffs = coeffs[1:]
            for i, wi in enumerate(w):
                roots = mp.polyroots(coeffs[:-1] + [coeffs[-1] - wi], maxsteps=100, extraprec=60)
                if any(abs(r - h / 2) <= h for r in roots):
                    assert abs(wi - centre[k]) <= radius[k], (k, wi)
                    assert (i, k) in pairs, (k, wi)

    def test_random_knot_sets(self):
        rng = np.random.default_rng(20260823)
        for _ in range(60):
            profile = TabulatedProfile(*_random_knots(rng))
            self._check(profile, rng.choice(len(profile._x) - 1, 2))

    @_NAMED_KNOT_SETS
    def test_named_knot_sets(self, x, a):
        profile = TabulatedProfile(x, a)
        self._check(profile, range(len(profile._x) - 1))

    def test_rules_out_far_points(self):
        # every piece's disk on the 33-knot profile has a radius below 0.2:
        # a point one unit above the axis holds no pole, one on the support does
        profile = TabulatedProfile(*_benchmark_knots())
        re = np.linspace(-2.0, 2.0, 101)
        pt, _, val, der = profile.pole_moments(np.concatenate([re + 1j, re]), profile.chart_rule)
        assert not val[:len(re)].any() and not der[:len(re)].any()
        assert set(pt.tolist()) >= set(np.flatnonzero(np.abs(re) < 0.9) + len(re))
        assert (pt >= len(re)).all()

    def test_semicircle_pairs_within_four_radii(self, goe_profile):
        w = np.array([0.0, 2.0, 5.0 + 3.0j, 8.0, -8.0, 8.0 + 1e-3j, 6.0 + 6.0j, -40.0 + 1e-9j, 9.0j])
        pt, k, val, der = goe_profile.pole_moments(w, goe_profile.chart_rule)
        assert pt.tolist() == [0, 1, 2, 3, 4] and not k.any()
        assert not val[5:].any() and not der[5:].any()


class TestNormalization:
    @pytest.mark.parametrize("spec", ["linear", "goe", "uniform-gap:2"])
    def test_density_integrates_to_one(self, spec):
        p = parse_profile(spec)
        lo, hi = p.support
        total, _ = quad(p.density, lo, hi, epsabs=1e-9, epsrel=1e-9, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestFactory:
    def test_aliases(self):
        assert isinstance(parse_profile("goe"), SemicircleQuantileProfile)
        assert isinstance(parse_profile("semicircle-quantile"), SemicircleQuantileProfile)
        assert isinstance(parse_profile("uniform-gap:1"), TabulatedProfile)
        assert parse_profile("uniform-gap:1").spec == "linear:-0.5,0.5"
        with pytest.raises(ConfigError):
            parse_profile("nope")

    def test_spec_is_identity(self):
        # floats echo by repr, so the spec parses back to the same profile
        p = parse_profile("linear:-1,1")
        assert p.spec == "linear:-1.0,1.0"
        again = parse_profile(p.spec)
        assert again.spec == p.spec and again.support == p.support
        x = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(again.eval(x), p.eval(x))
        assert parse_profile("semicircle:4").spec == "semicircle:4.0"
        assert parse_profile("goe").spec == "semicircle:2.0"
        assert TabulatedProfile([0.0, 1.0], [0.0, 1.0]).spec == "tabulated"

    @pytest.mark.parametrize("spec", ["semicircle:inf", "semicircle:nan", "linear:0,inf",
                                      "linear:nan,1", "uniform-gap:inf", "uniform-gap:nan"])
    def test_non_finite_rejected(self, spec):
        with pytest.raises(InvalidProfileError):
            parse_profile(spec)

    def test_uniform_gap_symmetric(self):
        p = parse_profile("uniform-gap:3")
        assert p.support == pytest.approx((-1.5, 1.5))

    @pytest.mark.parametrize("spec", ["goe:4", "linear:1", "linear:0,1,2", "semicircle:abc",
                                      "uniform-gap:x", "tabulated", ""])
    def test_malformed_spec(self, spec):
        # goe takes no parameter: goe:4 is not the semicircle of radius 4
        with pytest.raises(ConfigError):
            parse_profile(spec)


class TestProperties:
    @given(x=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_semicircle(self, x):
        p = SemicircleQuantileProfile()
        assert p.inverse(p.eval(x)) == pytest.approx(x, abs=1e-9)

    @given(x=st.floats(min_value=0.0, max_value=1.0),
           lo=st.floats(min_value=-3, max_value=0),
           width=st.floats(min_value=0.1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_linear(self, x, lo, width):
        p = parse_profile(f"linear:{lo!r},{lo + width!r}")
        assert p.inverse(p.eval(x)) == pytest.approx(x, abs=1e-9)

    @pytest.mark.parametrize("knots", ["semicircle-33", "sinh-5"])
    @given(x=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_tabulated(self, knots, x):
        p = _TABULATED[knots]
        xs = np.concatenate([[x], p._x])  # the knots and both ends too
        assert np.max(np.abs(p.inverse(p.eval(xs)) - xs)) <= 1e-12
        alphas = np.concatenate([[p.eval(x)], p._a, [0.5 * (p._a[0] + p._a[1])]])
        assert np.max(np.abs(p.eval(p.inverse(alphas)) - alphas)) <= 1e-12

    def test_validate_all_builtins(self, goe_profile, linear_profile):
        for p in (goe_profile, linear_profile, _TABULATED["semicircle-33"]):
            assert_valid_profile(p)
