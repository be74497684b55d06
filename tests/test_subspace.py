import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from specdrift import (DomainError, EmptyWindowError, ExperimentConfig, GOEInitial,
                       WindowSpec, distance_from_singular_values, gram_entry_predictions,
                       overlap_block, predicted_distance, run_subspace_experiment)
from specdrift.montecarlo import _draw_sample
from specdrift.profiles import SemicircleQuantileProfile, TabulatedProfile
from specdrift.subspace import determinant_distance, escape_rate, select_window


def _sample(n=80, t=0.05, seed=12345):
    """(a, lam, vecs) of one draw from a unit GOE start."""
    config = ExperimentConfig(n=n, t=t, samples=1, initial=GOEInitial(1.0),
                              master_seed=seed)
    return _draw_sample(config, 0)


def _distance(block):
    return distance_from_singular_values(np.linalg.svd(block, compute_uv=False),
                                         block.shape[1])


class TestWindowSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            WindowSpec(1.0, -1.0, 0.2)
        with pytest.raises(DomainError):
            WindowSpec(-1.0, 1.0, 0.0)

    def test_intervals(self):
        w = WindowSpec(-1.0, 1.0, 0.2)
        assert w.inner == (-1.0, 1.0)
        assert w.outer == (-1.2, 1.2)


class TestDistance:
    def test_all_ones(self):
        assert distance_from_singular_values(np.ones(5), 5) == 0.0

    def test_arithmetic(self):
        assert distance_from_singular_values([1.0, math.exp(-1.0)], 2) == pytest.approx(0.5)

    def test_rank_deficient_infinite(self):
        assert distance_from_singular_values([1.0, 0.0], 2) == math.inf
        assert distance_from_singular_values([1.0], 2) == math.inf


class TestOverlapBlock:
    def test_t0_identity_block(self):
        block = overlap_block(*_sample(n=50, t=0.0), WindowSpec(-1.0, 1.0, 1e-9))
        assert np.allclose(np.linalg.svd(block, compute_uv=False), 1.0, atol=1e-12)
        assert _distance(block) == pytest.approx(0.0, abs=1e-12)

    def test_window_count_matches_density_mass(self):
        a, _lam, _vecs = _sample(n=400, t=0.0)
        cols = select_window(a, -1.0, 1.0)
        # N * int_{-1}^{1} rho_sc = 400 * 0.6090 ~ 244
        assert abs(len(cols) - 244) <= 15

    def test_rotation_squares(self):
        # vecs[j, k] = <psi_k|phi_j>; the inner window holds a_0 only, the
        # widened one both lambdas, so the block is column 0 of vecs^T
        theta = 0.7
        c, s = np.cos(theta), np.sin(theta)
        vecs = np.array([[c, -s], [s, c]])
        block = overlap_block(np.array([0.0, 1.0]), np.array([0.0, 1.0]), vecs,
                              WindowSpec(-0.5, 0.5, 0.6))
        assert np.allclose(block, [[c], [-s]], atol=1e-14)
        assert np.allclose(block ** 2, [[c * c], [s * s]], atol=1e-14)

    def test_column_norms_bounded(self):
        block = overlap_block(*_sample(), WindowSpec(-1.0, 1.0, 0.2))
        assert np.max(np.sum(block ** 2, axis=0)) <= 1.0 + 1e-10

    def test_singular_values_in_unit_interval(self):
        block = overlap_block(*_sample(), WindowSpec(-1.0, 1.0, 0.2))
        s = np.linalg.svd(block, compute_uv=False)
        assert np.all(s <= 1.0 + 1e-10)
        assert np.all(s >= 0.0)
        q, p = block.shape
        assert q >= p

    def test_determinant_identity(self):
        block = overlap_block(*_sample(), WindowSpec(-1.0, 1.0, 0.2))
        assert determinant_distance(block) == pytest.approx(_distance(block), abs=1e-10)

    def test_empty_window(self):
        with pytest.raises(EmptyWindowError):
            overlap_block(*_sample(), WindowSpec(10.0, 11.0, 0.1))

    def test_delta_monotonicity(self):
        sample = _sample()
        prev = math.inf
        for delta in (0.05, 0.1, 0.2, 0.4):
            d = _distance(overlap_block(*sample, WindowSpec(-1.0, 1.0, delta)))
            assert d <= prev + 1e-12
            prev = d


class TestPredictedDistance:
    def test_delta_covers_support(self, goe_profile):
        w = WindowSpec(-1.0, 1.0, 5.0)
        assert predicted_distance(0.05, w.inner, w.outer, goe_profile) == 0.0

    def test_linear_in_t(self, goe_profile):
        w = WindowSpec(-1.0, 1.0, 0.2)
        v1 = predicted_distance(0.01, w.inner, w.outer, goe_profile)
        v2 = predicted_distance(0.02, w.inner, w.outer, goe_profile)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_dual_quadrature_oracle(self, goe_profile):
        # independent scheme: scipy dblquad over each strip
        w = WindowSpec(-1.0, 1.0, 0.2)
        t = 0.05
        rho = goe_profile.density
        from scipy.integrate import quad
        mass, _ = quad(rho, -1.0, 1.0, epsabs=1e-10, epsrel=1e-10)
        total = 0.0
        for lo, hi in ((-2.0, -1.2), (1.2, 2.0)):
            val, _ = dblquad(lambda y, x: rho(x) * rho(y) / (x - y) ** 2,
                             -1.0, 1.0, lo, hi, epsabs=1e-9, epsrel=1e-9)
            total += val
        oracle = t * total / (2.0 * mass)
        assert predicted_distance(t, w.inner, w.outer, goe_profile) == pytest.approx(
            oracle, rel=1e-5)
        # pin the regression golden after the dual-scheme verification
        assert oracle == pytest.approx(0.006504, abs=2e-5)

    @pytest.mark.parametrize("outer", [(-0.9, 0.9), (-0.8, 1.0), (-1.0, 0.85)])
    def test_margins_must_be_positive(self, goe_profile, outer):
        with pytest.raises(DomainError):
            predicted_distance(0.05, (-0.9, 0.9), outer, goe_profile)


# ---------------------------------------------------------------------------
# nested adaptive quadrature references, in a variable v with rho0(s) ds =
# weight(v) dv: s itself with the closed-form semicircle density, and the
# quantile variable of a 33-knot tabulated semicircle (scipy's own PCHIP of
# the knots, inverted by brentq)

_QUAD = dict(epsabs=0.0, epsrel=1e-13, limit=400)
_KNOTS = np.linspace(0.0, 1.0, 33)
_KNOT_VALUES = SemicircleQuantileProfile().eval(_KNOTS)
_PCHIP = PchipInterpolator(_KNOTS, _KNOT_VALUES)
_CHARTS = {
    # (s(v), weight(v), v(s), v range, breakpoints, profile)
    "goe": (lambda v: v, lambda v: math.sqrt(max(4.0 - v * v, 0.0)) / (2.0 * math.pi),
            lambda s: s, (-2.0, 2.0), [], SemicircleQuantileProfile()),
    "tabulated": (lambda v: float(_PCHIP(v)), lambda v: 1.0,
                  lambda s: brentq(lambda v: float(_PCHIP(v)) - s, 0.0, 1.0,
                                   xtol=1e-16, rtol=8.9e-16),
                  (0.0, 1.0), list(_KNOTS), TabulatedProfile(_KNOTS, _KNOT_VALUES)),
}


def _quad(f, lo, hi, breaks):
    inside = [b for b in breaks if lo < b < hi]
    return quad(f, lo, hi, points=inside or None, **_QUAD)[0]


def _strip_integral(chart, outer, f):
    """int rho0(y) f(y) dy over the support outside `outer`."""
    s, weight, v_of, (v_lo, v_hi), breaks, _ = chart
    return sum(_quad(lambda v: weight(v) * f(s(v)), lo, hi, breaks)
               for lo, hi in ((v_lo, v_of(outer[0])), (v_of(outer[1]), v_hi)))


def _nested_distance(t, inner, outer, chart):
    s, weight, v_of, _, breaks, _ = chart
    a, b = v_of(inner[0]), v_of(inner[1])
    mass = _quad(weight, a, b, breaks)

    def inner_integral(y):
        return _quad(lambda v: weight(v) / (s(v) - y) ** 2, a, b, breaks)

    return t * _strip_integral(chart, outer, inner_integral) / (2.0 * mass)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestChartRuleAgainstNestedQuad:
    """The chart-rule predictions against nested adaptive quad, down to a
    margin of 1e-3, where the integrands peak sharply at the window edge."""

    inner = (-0.5, 0.9)

    @pytest.mark.parametrize("name", sorted(_CHARTS))
    @pytest.mark.parametrize("delta", [0.2, 0.01, 0.001])
    def test_predictions(self, name, delta):
        chart = _CHARTS[name]
        profile = chart[-1]
        outer = (self.inner[0] - delta, self.inner[1] + delta)
        ref = _nested_distance(0.1, self.inner, outer, chart)
        assert predicted_distance(0.1, self.inner, outer, profile) == pytest.approx(ref, rel=1e-12)
        for a in (0.3, self.inner[1]):
            ref = _strip_integral(chart, outer, lambda y: 1.0 / (a - y) ** 2)
            assert escape_rate(a, outer, profile) == pytest.approx(ref, rel=1e-12)
        a_i, a_j = self.inner[1], 0.3
        diag, bound = gram_entry_predictions(0.1, a_i, a_j, self.inner, outer, profile)
        ref = _strip_integral(chart, outer, lambda y: 1.0 / ((y - a_i) * (y - a_j)))
        assert bound == pytest.approx(0.1 * ref, rel=1e-12)
        assert diag == pytest.approx(1.0 - 0.1 * escape_rate(a_i, outer, profile), rel=1e-15)


class TestGramEntryPredictions:
    def test_t0(self, goe_profile):
        w = WindowSpec(-1.0, 1.0, 0.2)
        diag, bound = gram_entry_predictions(0.0, 0.0, 0.5, w.inner, w.outer, goe_profile)
        assert diag == 1.0 and bound == 0.0

    def test_outside_window_rejected(self, goe_profile):
        w = WindowSpec(-1.0, 1.0, 0.2)
        with pytest.raises(DomainError):
            gram_entry_predictions(0.02, 1.5, 0.0, w.inner, w.outer, goe_profile)

    def test_diag_monte_carlo(self):
        # E[(G^T G)_{ii}] vs 1 - t * escape integral, bulk column
        n, t, samples = 400, 0.02, 200
        w = WindowSpec(-1.0, 1.0, 0.2)
        profile = SemicircleQuantileProfile()
        config = ExperimentConfig(n=n, t=t, samples=samples,
                                  initial=GOEInitial(1.0), master_seed=4242)
        diag_samples, off_samples = [], []
        for k in range(samples):
            a, lam, vecs = _draw_sample(config, k)
            cols = select_window(a, *w.inner)
            rows = select_window(lam, *w.outer)
            block = vecs[cols][:, rows].T
            gram = block.T @ block
            mid = len(cols) // 2
            diag_samples.append((gram[mid, mid], a[cols[mid]]))
            off_samples.append((gram[mid, mid + 5], a[cols[mid]], a[cols[mid + 5]]))
        gmean = np.mean([g for g, _ in diag_samples])
        gerr = np.std([g for g, _ in diag_samples], ddof=1) / math.sqrt(samples)
        a_mid = np.mean([a for _, a in diag_samples])
        diag_pred, _ = gram_entry_predictions(t, a_mid, a_mid, w.inner, w.outer, profile)
        assert abs(gmean - diag_pred) <= 3.0 * gerr + 1e-4

        omean = np.mean([g for g, _, _ in off_samples])
        oerr = np.std([g for g, _, _ in off_samples], ddof=1) / math.sqrt(samples)
        ai = np.mean([x for _, x, _ in off_samples])
        aj = np.mean([x for _, _, x in off_samples])
        _, bound = gram_entry_predictions(t, ai, aj, w.inner, w.outer, profile)
        assert abs(omean) <= bound + 3.0 * oerr


class TestExperiment:
    def test_ratio_band_small_t(self):
        profile = SemicircleQuantileProfile()
        w = WindowSpec(-1.0, 1.0, 0.2)
        config = ExperimentConfig(n=200, t=0.02, samples=60,
                                  initial=GOEInitial(1.0), master_seed=7)
        result = run_subspace_experiment(config, w)
        predicted = predicted_distance(0.02, w.inner, w.outer, profile)
        assert 0.8 <= result.distance.value.real / predicted <= 1.2

    def test_deterministic(self):
        w = WindowSpec(-1.0, 1.0, 0.2)
        config = ExperimentConfig(n=80, t=0.02, samples=10,
                                  initial=GOEInitial(1.0), master_seed=3)
        r1 = run_subspace_experiment(config, w)
        r2 = run_subspace_experiment(config, w)
        assert np.array_equal(r1.distances, r2.distances)

    def test_rank_deficient_samples_counted(self):
        # a thin margin at n = 40 makes some blocks rank deficient (Q < P)
        w = WindowSpec(-1.0, 1.0, 0.001)
        config = ExperimentConfig(n=40, t=0.05, samples=20,
                                  initial=GOEInitial(1.0), master_seed=5)
        result = run_subspace_experiment(config, w)
        finite = result.distances[np.isfinite(result.distances)]
        assert 0 < result.rank_deficient < config.samples
        assert result.rank_deficient == config.samples - len(finite)
        assert result.distance.samples == len(finite)
        assert result.distance.value.real == pytest.approx(finite.mean(), abs=1e-15)
        assert math.isfinite(result.distance.stderr_re)


class TestProperties:
    @given(s=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_distance_nonnegative(self, s):
        assert distance_from_singular_values(sorted(s, reverse=True), len(s)) >= 0.0

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=10, deadline=None)
    def test_identity_routes_agree(self, seed):
        block = overlap_block(*_sample(n=40, t=0.05, seed=seed), WindowSpec(-1.0, 1.0, 0.3))
        d = _distance(block)
        if math.isfinite(d):
            assert determinant_distance(block) == pytest.approx(d, abs=1e-10)


class TestScaleInvariance:
    def test_predicted_distance(self):
        # in law, a scale-s GOE start at time t is sqrt(s) (A_1 + H_{t/s}):
        # at s = 4 the window edges halve and t quarters
        wide, unit = GOEInitial(4.0).profile, GOEInitial(1.0).profile
        w4, w1 = WindowSpec(-1.0, 1.0, 0.2), WindowSpec(-0.5, 0.5, 0.1)
        d4 = predicted_distance(0.02, w4.inner, w4.outer, wide)
        d1 = predicted_distance(0.005, w1.inner, w1.outer, unit)
        assert d4 == pytest.approx(d1, rel=1e-10)
