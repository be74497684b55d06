import itertools
import math
import threading

import numpy as np
import pytest
from conftest import draw_sample
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from specdrift import (DomainError, EmptyWindowError, ExperimentConfig, GOEInitial,
                       ProfileInitial, WindowSpec, block_distance, gram_entry_predictions,
                       overlap_block, parse_profile, predicted_distance,
                       run_subspace_experiment)
from specdrift.montecarlo import _map_samples
from specdrift.profiles import SemicircleQuantileProfile, TabulatedProfile
from specdrift.subspace import (SINGULAR_VALUE_FLOOR, determinant_distance, escape_rate,
                                select_window)


def _sample(n=80, t=0.05, seed=12345):
    """(a, lam, vecs) of one draw from a unit GOE start."""
    config = ExperimentConfig(n=n, t=t, samples=1, initial=GOEInitial(1.0),
                              master_seed=seed)
    return draw_sample(config, 0)


def _svd_distance(block):
    """The singular-value reference: -(1/P) sum ln s_k, +inf when Q < P or
    some s_k <= SINGULAR_VALUE_FLOOR."""
    q, p = block.shape
    s = np.linalg.svd(block, compute_uv=False)
    if q < p or np.any(s <= SINGULAR_VALUE_FLOOR):
        return math.inf
    return float(-np.sum(np.log(s)) / p)


def _block_with(s, q, seed=None):
    """A q x len(s) block with singular values s: [diag(s); 0] as it stands
    (its QR factor is exact), or turned by random orthogonal factors U (q x p,
    orthonormal columns) and V (p x p) from `seed`."""
    p = len(s)
    block = np.zeros((q, p))
    block[np.arange(p), np.arange(p)] = s
    if seed is None:
        return block
    gen = np.random.default_rng(seed)
    u = np.linalg.qr(gen.standard_normal((q, p)))[0]
    v = np.linalg.qr(gen.standard_normal((p, p)))[0]
    return u @ block[:p] @ v.T


def _assert_same_distances(got, want):
    """Equal +inf entries, finite ones within 1e-12 relative."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.allclose(got[finite], want[finite], rtol=1e-12, atol=0.0)


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
    """Blocks with known singular values: [diag(s); 0] exactly, and turned by
    the orthogonal factors of seeds 1 and 2 to rounding."""

    def test_all_ones(self):
        assert block_distance(_block_with(np.ones(5), 7)) == 0.0
        for seed in (1, 2):
            assert abs(block_distance(_block_with(np.ones(5), 7, seed))) <= 1e-15

    def test_arithmetic(self):
        for seed in (None, 1, 2):
            d = block_distance(_block_with([1.0, math.exp(-1.0)], 4, seed))
            assert d == pytest.approx(0.5, rel=1e-15)

    def test_rank_deficient_infinite(self):
        for seed in (None, 1, 2):
            assert block_distance(_block_with([1.0, 0.0], 3, seed)) == math.inf
            assert block_distance(_block_with([1.0, 1e-15], 3, seed)) == math.inf
        for q in (0, 1):  # fewer rows than columns
            assert block_distance(np.ones((q, 2))) == math.inf


class TestOverlapBlock:
    def test_t0_identity_block(self):
        block = overlap_block(*_sample(n=50, t=0.0), WindowSpec(-1.0, 1.0, 1e-9))
        assert np.allclose(np.linalg.svd(block, compute_uv=False), 1.0, atol=1e-12)
        assert block_distance(block) == pytest.approx(0.0, abs=1e-12)

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
        assert determinant_distance(block) == pytest.approx(block_distance(block), abs=1e-10)

    def test_empty_window(self):
        with pytest.raises(EmptyWindowError):
            overlap_block(*_sample(), WindowSpec(10.0, 11.0, 0.1))
        # a widened window with no perturbed eigenvalue around a nonempty
        # inner one gives a rank-deficient 0 x P block
        a, lam = np.array([0.0, 1.0]), np.array([-2.0, 2.0])
        block = overlap_block(a, lam, np.eye(2), WindowSpec(-0.5, 0.5, 0.1))
        assert block.shape == (0, 1)
        assert block_distance(block) == math.inf

    def test_delta_monotonicity(self):
        sample = _sample()
        prev = math.inf
        for delta in (0.05, 0.1, 0.2, 0.4):
            d = block_distance(overlap_block(*sample, WindowSpec(-1.0, 1.0, delta)))
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

        def entries(k, a, lam, vecs):
            cols = select_window(a, *w.inner)
            rows = select_window(lam, *w.outer)
            block = vecs[cols][:, rows].T
            gram = block.T @ block
            mid = len(cols) // 2
            return ((gram[mid, mid], a[cols[mid]]),
                    (gram[mid, mid + 5], a[cols[mid]], a[cols[mid + 5]]))

        diag_samples, off_samples = zip(*_map_samples(config, entries, workers=2))
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
        blocks = [overlap_block(*draw_sample(config, k), w) for k in range(config.samples)]
        _assert_same_distances(result.distances, [_svd_distance(b) for b in blocks])

    def test_empty_widened_window_counted(self):
        # P = 1 in every sample; Q = 0 in samples 3, 5, 13 and 19, and Q
        # sums to 17 over the 20: those four are rank deficient, not an
        # EmptyWindowError
        config = ExperimentConfig(n=10, t=0.5, samples=20,
                                  initial=ProfileInitial(parse_profile("linear:-1,1")),
                                  master_seed=1)
        result = run_subspace_experiment(config, WindowSpec(0.0, 0.25, 0.01))
        assert result.rank_deficient == 4
        assert np.flatnonzero(np.isinf(result.distances)).tolist() == [3, 5, 13, 19]
        assert result.mean_p == 1.0 and result.mean_q == 17 / 20

    @pytest.mark.parametrize("samples, t", [(1, 0.02), (5, 0.02), (4, 0.0)])
    def test_workers_byte_identical(self, samples, t):
        # helpers draw ahead; per-sample distances, mean, standard errors and
        # window sizes match the serial route bit for bit, and the serial
        # distances match the singular-value reference to rounding
        w = WindowSpec(-1.0, 1.0, 0.3)
        config = ExperimentConfig(n=80, t=t, samples=samples, initial=GOEInitial(1.0),
                                  master_seed=11)
        blocks = [overlap_block(*draw_sample(config, k), w) for k in range(samples)]
        serial = np.array([block_distance(b) for b in blocks])
        _assert_same_distances(serial, [_svd_distance(b) for b in blocks])
        for workers in (1, 2, 3):
            r = run_subspace_experiment(config, w, workers=workers)
            assert r.distances.tobytes() == serial.tobytes()
            assert r.mean_q == np.mean([b.shape[0] for b in blocks])
            assert r.mean_p == np.mean([b.shape[1] for b in blocks])
            got = [r.distance.value, r.distance.stderr_re, r.distance.stderr_im]
            if workers == 1:
                first = got
            assert np.array(got).tobytes() == np.array(first).tobytes()

    def test_reduction_error_reaches_caller(self, monkeypatch):
        # a LinAlgError in the QR that reduces a block to its distance
        # surfaces with its type, and no helper thread outlives the call
        qr, calls = np.linalg.qr, itertools.count()

        def failing(*args, **kwargs):
            if next(calls) == 3:
                raise np.linalg.LinAlgError("QR failed")
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", failing)
        config = ExperimentConfig(n=40, t=0.02, samples=8, initial=GOEInitial(1.0),
                                  master_seed=3)
        before = threading.active_count()
        for workers in (1, 2, 3):
            calls = itertools.count()
            with pytest.raises(np.linalg.LinAlgError):
                run_subspace_experiment(config, WindowSpec(-1.0, 1.0, 0.3), workers=workers)
            assert threading.active_count() == before

    def test_no_svd(self, monkeypatch):
        # the distance comes from a QR on the calling thread: no SVD anywhere
        def failing(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", failing)
        config = ExperimentConfig(n=40, t=0.02, samples=8, initial=GOEInitial(1.0),
                                  master_seed=3)
        for workers in (1, 2, 3):
            result = run_subspace_experiment(config, WindowSpec(-1.0, 1.0, 0.3),
                                             workers=workers)
            assert result.distance.samples == config.samples


class TestProperties:
    @given(s=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=10),
           extra=st.integers(min_value=0, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_distance_nonnegative(self, s, extra):
        d = block_distance(_block_with(s, len(s) + extra))
        assert d >= 0.0 and d == pytest.approx(-np.mean(np.log(s)), rel=1e-15)

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=10, deadline=None)
    def test_identity_routes_agree(self, seed):
        block = overlap_block(*_sample(n=40, t=0.05, seed=seed), WindowSpec(-1.0, 1.0, 0.3))
        d, reference = block_distance(block), _svd_distance(block)
        _assert_same_distances([d], [reference])
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
