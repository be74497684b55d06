import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from specdrift import (DomainError, EdgeError, InvalidProfileError, LinearProfile,
                       SemicircleQuantileProfile, TabulatedProfile, make_profile)


class TestLinearProfile:
    def test_eval_identity(self):
        p = LinearProfile(0.0, 1.0)
        assert p.eval(0.25) == pytest.approx(0.25, abs=1e-15)

    def test_inverse_identity(self):
        p = LinearProfile(0.0, 1.0)
        assert p.inverse(0.3) == pytest.approx(0.3, abs=1e-12)

    def test_derivative_constant(self):
        p = LinearProfile(0.0, 1.0)
        xs = np.linspace(0.01, 0.99, 11)
        assert np.allclose(p.derivative(xs), 1.0)

    def test_induced_density_uniform(self):
        p = LinearProfile(0.0, 1.0)
        assert p.induced_density(0.5) == pytest.approx(1.0)
        assert p.induced_density(0.001) == pytest.approx(1.0)

    def test_domain_errors(self):
        p = LinearProfile(0.0, 1.0)
        with pytest.raises(DomainError):
            p.eval(1.5)
        with pytest.raises(DomainError):
            p.inverse(2.0)
        with pytest.raises(EdgeError):
            p.induced_density(0.0)

    def test_invalid_bounds(self):
        with pytest.raises(InvalidProfileError):
            LinearProfile(1.0, 1.0)


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
        p.validate()

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

    def test_nonmonotone_rejected(self):
        with pytest.raises(InvalidProfileError):
            TabulatedProfile([0.0, 0.5, 1.0], [0.0, 1.0, 0.5])


class TestNormalization:
    @pytest.mark.parametrize("kind,params", [
        ("linear", {}),
        ("goe", {}),
        ("uniform-gap", {"span": 2.0}),
    ])
    def test_density_integrates_to_one(self, kind, params):
        p = make_profile(kind, **params)
        lo, hi = p.support
        total, _ = quad(p.density, lo, hi, epsabs=1e-9, epsrel=1e-9, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestFactory:
    def test_aliases(self):
        assert isinstance(make_profile("goe"), SemicircleQuantileProfile)
        assert isinstance(make_profile("semicircle-quantile"), SemicircleQuantileProfile)
        assert isinstance(make_profile("uniform-gap", span=1.0), LinearProfile)
        with pytest.raises(InvalidProfileError):
            make_profile("nope")

    def test_uniform_gap_symmetric(self):
        p = make_profile("uniform-gap", span=3.0)
        assert p.support == pytest.approx((-1.5, 1.5))


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
        p = LinearProfile(lo, lo + width)
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
        goe_profile.validate()
        linear_profile.validate()
