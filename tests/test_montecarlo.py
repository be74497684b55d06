import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdrift import (ConfigError, DomainError, ExperimentConfig, GOEInitial,
                       OverlapAccumulator, ProfileInitial, bin_overlap_curve,
                       empirical_cdf, estimate_theta, resolvent_diagonal,
                       WindowSpec, parse_profile, run_overlap_experiment,
                       run_subspace_experiment, solve_fixed_point)
from specdrift import montecarlo
from specdrift.montecarlo import (OverlapCurve, _band_smoother, _draw_sample, _map_samples,
                                  accumulate_overlaps,
                                  curves_from_accumulator, theta_sample,
                                  theta_sample_resolvent)


def small_config(**overrides):
    base = dict(n=40, t=0.5, samples=8, initial=GOEInitial(1.0),
                target_indices=(20,), master_seed=99)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            small_config(samples=0)
        with pytest.raises(ConfigError):
            small_config(target_indices=(0,))
        with pytest.raises(ConfigError):
            small_config(target_indices=(41,))
        with pytest.raises(ConfigError):
            small_config(t=-1.0)

    def test_describe_roundtrip(self):
        d = small_config().describe()
        assert d["n"] == 40 and d["target_indices"] == [20]

    def test_profile_start_echoes_spec(self, tmp_path):
        x = np.linspace(0.0, 1.0, 11)
        blocks = [small_config(initial=ProfileInitial(parse_profile(spec))).describe()["initial"]
                  for spec in ("linear:0,1", "linear:-1,1")]
        assert blocks[0] != blocks[1]
        path = tmp_path / "knots.csv"
        path.write_text("x,a\n0,-1\n0.5,0.25\n1,1\n")
        for spec in ("linear:-1,1", "linear", "uniform-gap:2", "goe", "semicircle:4",
                     f"csv:{path}"):
            profile = parse_profile(spec)
            echoed = ProfileInitial(profile).describe()["profile"]
            again = parse_profile(echoed)
            assert again.spec == echoed and again.support == profile.support
            assert np.array_equal(again.eval(x), profile.eval(x))


class TestGOEInitial:
    def test_limit_profile(self):
        # semicircle of radius 2 sqrt(scale); scale 1 is the goe profile
        assert GOEInitial(4.0).profile.support == (-4.0, 4.0)
        assert GOEInitial(1.0).profile.spec == parse_profile("goe").spec
        assert GOEInitial(4.0).profile.spec == parse_profile("semicircle:4").spec

    def test_nonpositive_scale(self):
        with pytest.raises(DomainError):
            GOEInitial(0.0)

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_non_finite_scale(self, scale):
        with pytest.raises(DomainError):
            GOEInitial(scale)


class TestDrawSample:
    def test_row_sums(self):
        config = small_config()
        _a, _lam, vecs = _draw_sample(config, 0)
        sq = vecs ** 2
        assert np.max(np.abs(sq.sum(axis=0) - 1.0)) <= 1e-10
        assert np.max(np.abs(sq.sum(axis=1) - 1.0)) <= 1e-10

    def test_determinism(self):
        config = small_config()
        a1, l1, v1 = _draw_sample(config, 3)
        a2, l2, v2 = _draw_sample(config, 3)
        assert np.array_equal(a1, a2) and np.array_equal(l1, l2) and np.array_equal(v1, v2)

    def test_t0_identity(self):
        config = small_config(t=0.0)
        _a, lam, vecs = _draw_sample(config, 0)
        assert np.array_equal(vecs, np.eye(config.n))

    def test_profile_initial_deterministic_diagonal(self, linear_profile):
        config = small_config(initial=ProfileInitial(linear_profile))
        a, _lam, _vecs = _draw_sample(config, 0)
        assert np.allclose(a, (np.arange(1, 41) - 0.5) / 40)
        # evaluated once per n, shared read-only, bit-identical to eval
        a1, _lam, _vecs = _draw_sample(config, 1)
        assert a1 is a and not a.flags.writeable
        assert np.array_equal(a, linear_profile.eval((np.arange(1, 41) - 0.5) / 40))


class TestMapSamples:
    def test_single_sample_and_t0(self):
        for config in (small_config(samples=1), small_config(t=0.0)):
            serial = run_overlap_experiment(config, workers=1)[20]
            ahead = run_overlap_experiment(config, workers=2)[20]
            assert serial.values.tobytes() == ahead.values.tobytes()
        # at t = 0 the target eigenvector is the initial one
        assert ahead.values[19] == config.n and np.count_nonzero(ahead.values) == 1

    def test_workers_on_calling_thread_drawing_ahead(self, monkeypatch, linear_profile):
        # decompositions and worker calls run on the calling thread in
        # ascending k; helpers draw at most workers - 1 groups ahead; a
        # reduction runs on a helper, or on the calling thread while the next
        # draw is unfinished, with at most workers - 1 pending. A group is one
        # sample with eigenvectors, _group_size(n) samples without.
        main = threading.get_ident()
        draw, started, decomposed, reduced = montecarlo._draw, [], [], []

        def counted(config, k):
            started.append(threading.get_ident())
            return draw(config, k)

        def on_thread(fn):
            def call(*args, **kwargs):
                decomposed.append(threading.get_ident())
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(montecarlo, "_draw", counted)
        monkeypatch.setattr(np.linalg, "eigh", on_thread(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", on_thread(np.linalg.eigvalsh))
        # a profile start draws no eigvalsh; at n = 200 groups are 3, 3 and 2
        config = small_config(n=200, samples=8, initial=ProfileInitial(linear_profile))
        for vectors in (True, False):
            size = 1 if vectors else montecarlo._group_size(config.n)
            assert size == (1 if vectors else 3)
            for workers in (1, 2, 3):
                for log in (started, decomposed, reduced):
                    log.clear()

                def worker(k, a, lam, vecs):
                    assert len(started) <= min((k // size + workers) * size, config.samples)
                    assert len(reduced) >= k - k % size - (workers - 1)
                    assert (vecs is not None) == vectors
                    return k, threading.get_ident()

                def reduce(part):
                    reduced.append((part[0], threading.get_ident()))
                    return part

                rows = _map_samples(config, worker, workers, vectors=vectors, reduce=reduce)
                assert rows == [(k, main) for k in range(config.samples)]
                assert len(started) == len(reduced) == config.samples
                assert decomposed == [main] * -(-config.samples // size)
                # with nothing left to draw, the last reduction goes to a helper
                last = dict(reduced)[config.samples - 1]
                if workers == 1:
                    assert set(started) == {last} == {t for _, t in reduced} == {main}
                else:
                    assert main not in started and last != main

    def test_stress_more_helpers_than_cores(self, linear_profile):
        # helpers share the config and a ProfileInitial's per-n cache; with a
        # short switch interval and 8 helpers, every drawn sample still
        # matches a serial draw bit for bit, in groups and through reductions
        def run(workers):
            config = small_config(samples=24, initial=ProfileInitial(linear_profile))
            return (_map_samples(config, lambda k, *sample: sample, workers)
                    + _map_samples(config, lambda k, a, lam, _v: (a, lam), workers,
                                   vectors=False, reduce=lambda part: part))

        serial = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stressed = run(9)
        finally:
            sys.setswitchinterval(interval)
        for one, other in zip(serial, stressed, strict=True):
            for x, y in zip(one, other, strict=True):
                assert x.tobytes() == y.tobytes()

    def test_draw_error_reaches_caller(self, monkeypatch):
        draw = montecarlo._draw

        def failing(config, k):
            if k == 3:
                raise KeyError(k)
            return draw(config, k)

        monkeypatch.setattr(montecarlo, "_draw", failing)
        before = threading.active_count()
        for workers in (1, 2, 3):
            with pytest.raises(KeyError):
                run_overlap_experiment(small_config(), workers=workers)
            assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one(self, workers):
        with pytest.raises(ConfigError):
            _map_samples(small_config(), lambda k, *sample: k, workers)


class TestValuesOnlyGroups:
    @pytest.mark.parametrize("n", [2, 60, 200, 250, 400, 500, 501])
    def test_group_rule(self, n):
        # the smallest group whose stacked eigvalsh output exceeds 500 elements
        g = montecarlo._group_size(n)
        assert g * n > 500 and (g - 1) * n <= 500

    @pytest.mark.parametrize("n, t, samples", [(200, 0.5, 7), (200, 0.5, 1), (200, 0.0, 5),
                                               (60, 0.5, 20), (2, 0.5, 9)])
    def test_theta_g_one_matches_per_matrix_eigvalsh(self, n, t, samples):
        # groups of 3 at n = 200 (a partial last group at 7 samples), of 9 at
        # n = 60, of 251 > samples at n = 2; t = 0 has no M_t to stack. The
        # stacked eigvalsh equals one call per matrix bit for bit, whatever
        # the number of threads
        config = small_config(n=n, t=t, samples=samples, target_indices=())
        z = 0.3 + 0.2j

        def per_matrix(k):
            a, m = montecarlo._draw(config, k)
            lam = a.copy() if m is None else np.linalg.eigvalsh(m)
            return complex(np.sum(1.0 / (lam - z)) / n)

        want = montecarlo._scalar_estimate([per_matrix(k) for k in range(samples)])
        for workers in (1, 2, 3):
            got = estimate_theta(config, z, math.inf, workers)
            assert got.samples == samples
            assert (np.array([got.value, got.stderr_re, got.stderr_im]).tobytes()
                    == np.array([want.value, want.stderr_re, want.stderr_im]).tobytes())


class TestAccumulator:
    def _accs(self, config):
        full = accumulate_overlaps(config)
        left = OverlapAccumulator(config.n, config.target_indices)
        right = OverlapAccumulator(config.n, config.target_indices)
        for k, (a, sq) in full._parts.items():
            (left if k % 2 == 0 else right).add_sample(k, a, sq)
        return full, left, right

    def test_merge_associative_and_order_free(self):
        config = small_config()
        full, left, right = self._accs(config)
        lr = left.merge(right).finalize()
        rl = right.merge(left).finalize()
        ref = full.finalize()
        for x, y in zip(lr, ref):
            assert np.array_equal(x, y)
        for x, y in zip(rl, ref):
            assert np.array_equal(x, y)

    def test_duplicate_substream_rejected(self):
        config = small_config()
        full, left, _right = self._accs(config)
        with pytest.raises(ConfigError):
            full.merge(left)

    def test_bad_rows_rejected(self):
        acc = OverlapAccumulator(4, (1,))
        with pytest.raises(Exception):
            acc.add_sample(0, np.zeros(4), np.full((1, 4), 0.3))


class TestOverlapExperiment:
    def test_bit_exact_rerun(self):
        c1 = run_overlap_experiment(small_config())[20]
        c2 = run_overlap_experiment(small_config())[20]
        assert np.array_equal(c1.values, c2.values)
        assert np.array_equal(c1.a, c2.a)

    def test_workers_match_serial(self):
        # all five estimators, values and standard errors, are byte-identical
        # whatever the number of drawing threads
        config, z = small_config(), 0.1 + 0.5j

        def outputs(workers):
            curve = run_overlap_experiment(config, workers=workers)[20]
            sub = run_subspace_experiment(small_config(t=0.02), WindowSpec(-1.0, 1.0, 0.3),
                                          workers=workers)
            scalars = [estimate_theta(config, z, math.inf, workers),
                       estimate_theta(config, z, 0.0, workers),
                       empirical_cdf(config, 0.0, 0.0, workers), sub.distance]
            return [curve.a, curve.values, curve.stderr, sub.distances,
                    resolvent_diagonal(config, z, workers),
                    *(np.array([e.value, e.stderr_re, e.stderr_im]) for e in scalars)]

        serial = outputs(1)
        for workers in (2, 3):
            for x, y in zip(serial, outputs(workers), strict=True):
                assert x.tobytes() == y.tobytes(), workers

    def test_single_sample_row_sum(self):
        curve = run_overlap_experiment(small_config(samples=1))[20]
        assert curve.values.sum() / curve.n == pytest.approx(1.0, abs=1e-10)

    def test_small_t_diagonal_dominates(self, linear_profile):
        config = small_config(t=1e-8, initial=ProfileInitial(linear_profile),
                              samples=2)
        curve = run_overlap_experiment(config)[20]
        sq = curve.values / curve.n  # back to raw mean
        assert sq[19] >= 1.0 - 1e-4
        assert np.max(np.delete(sq, 19)) <= 1e-4

    def test_csv_export(self, tmp_path):
        curve = run_overlap_experiment(small_config(samples=2))[20]
        path = tmp_path / "c.csv"
        curve.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "j,a_j_mean,overlap_mean_timesN,stderr_timesN"
        assert len(lines) == curve.n + 1


class TestBinning:
    def _flat_curve(self, n=50):
        return OverlapCurve(index=1, n=n, t=1.0, a=np.linspace(-1, 1, n),
                            values=np.full(n, 3.0), stderr=np.full(n, 0.1),
                            samples=10)

    def test_window_one_identity(self):
        c = self._flat_curve()
        b = bin_overlap_curve(c, 1)
        assert np.array_equal(b.values, c.values)

    def test_constant_curve_unchanged(self):
        b = bin_overlap_curve(self._flat_curve(), 5)
        assert np.max(np.abs(b.values - 3.0)) <= 1e-12

    def test_mass_preserved(self):
        gen = np.random.default_rng(0)
        c = self._flat_curve()
        c.values = gen.uniform(0, 2, c.n)
        b = bin_overlap_curve(c, 5)
        assert b.values.sum() == pytest.approx(c.values.sum(), abs=1e-12)

    def test_window_too_large(self):
        with pytest.raises(Exception):
            bin_overlap_curve(self._flat_curve(), 51)


class TestTheta:
    def test_g_one_is_empirical_stieltjes(self):
        config = small_config(samples=1)
        a, lam, vecs = _draw_sample(config, 0)
        z = 0.3 + 0.2j
        direct = np.mean(1.0 / (lam - z))
        assert abs(theta_sample(a, lam, vecs, z, math.inf) - direct) <= 1e-12

    @pytest.mark.parametrize("initial", [GOEInitial(1.0),
                                         ProfileInitial(parse_profile("linear:-1,1"))])
    def test_g_one_reads_eigenvalues_only(self, monkeypatch, initial):
        # g = 1 takes mean 1/(lam - z) from eigvalsh; the theta_sample route
        # on the same draws agrees to rounding
        config = small_config(initial=initial)
        z = 0.3 + 0.2j
        routes = [theta_sample(*_draw_sample(config, k), z, math.inf)
                  for k in range(config.samples)]
        monkeypatch.setattr(np.linalg, "eigh", None)
        est = estimate_theta(config, z, math.inf)
        assert abs(est.value - np.mean(routes)) <= 1e-12
        assert est.stderr_re == pytest.approx(np.std(np.real(routes), ddof=1)
                                              / math.sqrt(config.samples), rel=1e-9)

    def test_two_routes_agree(self):
        config = small_config(samples=1)
        gen_a, lam, vecs = _draw_sample(config, 0)
        m_t = (vecs * lam) @ vecs.T
        z = -0.5 + 0.1j
        v1 = theta_sample(gen_a, lam, vecs, z, 0.0)
        v2 = theta_sample_resolvent(gen_a, m_t, z, 0.0)
        assert abs(v1 - v2) <= 1e-10

    def test_indicator_real_parts_antisymmetric(self):
        # at z = i eta the two half-line indicators carry opposite real
        # parts (joint spectrum symmetry); their sum is the g=1 trace whose
        # real part vanishes. The a > 0 half is the full trace minus a <= 0,
        # so the sum is bounded by the full trace's own standard error.
        config = small_config(n=100, samples=40)
        neg = estimate_theta(config, 0.5j, 0.0)
        full = estimate_theta(config, 0.5j, math.inf)
        pos = full.value - neg.value
        tol = 3.0 * max(full.stderr_re, 1e-3)
        assert abs(neg.value.real + pos.real) <= tol
        assert abs(neg.value.real) > 0.05  # each half alone is not zero

    def test_real_z_rejected(self):
        with pytest.raises(Exception):
            estimate_theta(small_config(), 1.0 + 0j, math.inf)


class TestEmpiricalCdf:
    def test_total_mass(self):
        est = empirical_cdf(small_config(samples=2), 100.0, 100.0)
        assert est.value.real == pytest.approx(1.0, abs=1e-12)

    def test_empty_below(self):
        est = empirical_cdf(small_config(samples=2), -100.0, 100.0)
        assert est.value.real == 0.0

    def test_monotone(self):
        config = small_config(samples=4)
        v = [empirical_cdf(config, lam, 0.0).value.real for lam in (-1.0, 0.0, 1.0)]
        assert v[0] <= v[1] <= v[2]


class TestResolventDiagonal:
    def test_far_field(self):
        config = small_config(samples=2)
        vals = resolvent_diagonal(config, 100.0 + 1.0j)
        assert np.max(np.abs(vals + 1.0 / (100.0 + 1.0j))) <= 1e-3

    def test_t0_exact(self, linear_profile):
        config = small_config(t=0.0, initial=ProfileInitial(linear_profile), samples=1)
        z = 0.5 + 0.2j
        vals = resolvent_diagonal(config, z)
        a = (np.arange(1, 41) - 0.5) / 40
        assert np.max(np.abs(vals - 1.0 / (a - z))) <= 1e-12

    def test_profile_initial_matches_fixed_point_kernel(self, linear_profile):
        config = ExperimentConfig(n=400, t=1.0, samples=200,
                                  initial=ProfileInitial(linear_profile),
                                  master_seed=11)
        z = 0.5 + 0.05j
        rows = []
        for k in range(config.samples):
            _a, lam, vecs = _draw_sample(config, k)
            rows.append(vecs ** 2 @ (1.0 / (lam - z)))
        rows = np.array(rows)
        vals = rows.mean(axis=0)
        stderr = np.abs(rows - vals).std(axis=0, ddof=1) / np.sqrt(config.samples)
        m = solve_fixed_point(linear_profile, 1.0, z)
        x = (np.arange(1, 401) - 0.5) / 400
        predicted = 1.0 / (linear_profile.eval(x) - z - 1.0 * m)
        bulk = slice(20, 380)
        dev = np.abs(vals - predicted)[bulk]
        # sup-norm bias allowance plus a noise band for the sampled mean
        assert np.all(dev <= 0.03 + 3.0 * stderr[bulk])
        assert np.median(dev) <= 0.03


class TestProperties:
    @given(seed=st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=10, deadline=None)
    def test_row_sums_any_seed(self, seed):
        config = small_config(n=20, samples=1, master_seed=seed, target_indices=(10,))
        _a, _lam, vecs = _draw_sample(config, 0)
        assert np.max(np.abs((vecs ** 2).sum(axis=0) - 1.0)) <= 1e-10

    def test_binning_mass_any_window(self):
        # every window of several sizes, odd and even: mass preserved, and the
        # smoothing matrix is a symmetric doubly stochastic band
        for n in (2, 3, 7, 60):
            gen = np.random.default_rng(n)
            i, j = np.indices((n, n))
            for window in range(1, n + 1):
                c = OverlapCurve(index=1, n=n, t=1.0, a=np.linspace(-1, 1, n),
                                 values=gen.uniform(0, 2, n), stderr=np.zeros(n),
                                 samples=1)
                b = bin_overlap_curve(c, window)
                assert b.values.sum() == pytest.approx(c.values.sum(), abs=1e-10)
                k = _band_smoother(n, window)
                assert np.array_equal(k, k.T)
                assert np.max(np.abs(k.sum(axis=0) - 1.0)) <= 1e-12
                assert np.max(np.abs(k.sum(axis=1) - 1.0)) <= 1e-12
                assert np.all(k >= 0)
                assert np.all(k[np.abs(i - j) > window // 2] == 0)
                if window % 2:
                    h = window // 2
                    for row in range(h, n - h):
                        assert np.all(k[row, row - h:row + h + 1] == 1.0 / window)
