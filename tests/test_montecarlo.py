import math
import sys
import threading

import numpy as np
import pytest
from conftest import draw_sample
from hypothesis import given, settings
from hypothesis import strategies as st

from specdrift import (ConfigError, DomainError, ExperimentConfig, GOEInitial,
                       OverlapAccumulator, ProfileInitial, bin_overlap_curve,
                       empirical_cdf, estimate_theta, resolvent_diagonal,
                       WindowSpec, parse_profile, run_overlap_experiment,
                       run_subspace_experiment, solve_fixed_point)
from specdrift import cli, matrices, montecarlo
from specdrift.montecarlo import (OverlapCurve, _map_samples, accumulate_overlaps,
                                  theta_sample, theta_sample_resolvent)


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
            small_config(target_indices=(20, 7, 20))
        with pytest.raises(ConfigError):
            small_config(t=-1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_t(self, t):
        # a NaN or infinite time would reach the eigensolver as a
        # non-finite matrix and end in numpy's LinAlgError
        with pytest.raises(ConfigError):
            small_config(t=t)

    def test_negative_seed(self):
        # numpy's SeedSequence refuses a negative entropy with a ValueError,
        # raised only once a sample is drawn, maybe in a helper thread
        with pytest.raises(ConfigError):
            small_config(master_seed=-1)

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
        _a, _lam, vecs = draw_sample(config, 0)
        sq = vecs ** 2
        assert np.max(np.abs(sq.sum(axis=0) - 1.0)) <= 1e-10
        assert np.max(np.abs(sq.sum(axis=1) - 1.0)) <= 1e-10

    def test_determinism(self):
        config = small_config()
        a1, l1, v1 = draw_sample(config, 3)
        a2, l2, v2 = draw_sample(config, 3)
        assert np.array_equal(a1, a2) and np.array_equal(l1, l2) and np.array_equal(v1, v2)

    def test_t0_identity(self):
        config = small_config(t=0.0)
        _a, lam, vecs = draw_sample(config, 0)
        assert np.array_equal(vecs, np.eye(config.n))

    def test_profile_initial_deterministic_diagonal(self, linear_profile):
        config = small_config(initial=ProfileInitial(linear_profile))
        a, _lam, _vecs = draw_sample(config, 0)
        assert np.allclose(a, (np.arange(1, 41) - 0.5) / 40)
        # evaluated once per n, shared read-only, bit-identical to eval
        a1, _lam, _vecs = draw_sample(config, 1)
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

    # columns -> (V's columns, and calls per sample of eigh, eigvalsh,
    # eigenpair, of each stage of a split eigh, tridiagonalize and
    # finish_eigh, and of finish_eigvalsh); on the numpy route eigenpair and
    # finish_eigh each take one eigh and finish_eigvalsh one eigvalsh, and on
    # the LAPACK route no request calls either
    NUMPY = int(matrices.eigen_route() == "numpy")
    REQUESTS = {"all": (montecarlo.ALL, 200, NUMPY, 0, 0, 1, 0),
                "none": ((), 0, 0, NUMPY, 0, 0, 1),
                "one": ((19,), 1, NUMPY, 0, 1, 0, 0),
                "two": ((19, 39), 2, NUMPY, 0, 0, 1, 0)}

    @pytest.mark.parametrize("request_name", REQUESTS)
    def test_workers_on_calling_thread_drawing_ahead(self, monkeypatch, linear_profile,
                                                     request_name):
        # decompositions and worker calls run on the calling thread in
        # ascending k, one n x n matrix at a time; helpers draw at most
        # workers - 1 samples ahead. No column takes the values-only finish,
        # reduced to tridiagonal form on the calling thread; one column one
        # eigenpair, whose lam is lambda_i alone; any other request an eigh
        # in two stages, reduced to tridiagonal form where it is drawn and
        # finished on the calling thread. No request solves a linear system
        columns, width, eighs, eigvalshs, pairs, splits, values = self.REQUESTS[request_name]
        main = threading.get_ident()
        stream, started, eighed, eigvalshed, solved, paired, reduced, finished, valued = (
            montecarlo.RngStream, [], [], [], [], [], [], [], [])

        def counted(master_seed, k):
            # one stream per sample, made on the thread that draws it
            started.append(threading.get_ident())
            return stream(master_seed, k)

        def on_thread(log, fn):
            # the calling thread and the stack shape of the matrix argument
            def call(m, *args, **kwargs):
                log.append((threading.get_ident(), m.shape[:-2]))
                return fn(m, *args, **kwargs)
            return call

        monkeypatch.setattr(montecarlo, "RngStream", counted)
        monkeypatch.setattr(np.linalg, "eigh", on_thread(eighed, np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", on_thread(eigvalshed, np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "solve", on_thread(solved, np.linalg.solve))
        monkeypatch.setattr(montecarlo, "eigenpair", on_thread(paired, montecarlo.eigenpair))
        monkeypatch.setattr(montecarlo, "tridiagonalize",
                            on_thread(reduced, montecarlo.tridiagonalize))
        monkeypatch.setattr(montecarlo, "finish_eigh", on_thread(finished, montecarlo.finish_eigh))
        monkeypatch.setattr(montecarlo, "finish_eigvalsh",
                            on_thread(valued, montecarlo.finish_eigvalsh))
        # a profile start draws no eigenvalues
        config = small_config(n=200, samples=8, initial=ProfileInitial(linear_profile))

        def per_sample(calls):
            return [(main, ()) for _ in range(config.samples) for _ in range(calls)]

        for workers in (1, 2, 3):
            for log in (started, eighed, eigvalshed, solved, paired, reduced, finished, valued):
                log.clear()

            def worker(k, a, lam, vecs):
                assert len(started) <= min(k + workers, config.samples)
                # sample k finished, and no later one
                assert len(finished) == splits * (k + 1)
                assert len(valued) == values * (k + 1)
                assert vecs.shape == (config.n, width)
                assert lam.shape == ((1,) if width == 1 else (config.n,))
                return k, threading.get_ident()

            rows = _map_samples(config, worker, workers, columns=columns)
            assert rows == [(k, main) for k in range(config.samples)]
            assert len(started) == config.samples
            assert eighed == per_sample(eighs)
            assert eigvalshed == per_sample(eigvalshs)
            assert paired == per_sample(pairs)
            assert finished == per_sample(splits)
            assert valued == per_sample(values)
            assert solved == []
            if workers == 1:
                assert set(started) == {main}
                assert reduced == per_sample(splits + values)
            else:
                assert main not in started
                assert len(reduced) == len(per_sample(splits + values))
                on_main = [thread == main for thread, _shape in reduced]
                assert on_main == [bool(values)] * len(reduced)

    def test_stress_more_helpers_than_cores(self, linear_profile):
        # helpers share the config and a ProfileInitial's per-n cache; with a
        # short switch interval and 8 helpers, every drawn sample still
        # matches a serial draw bit for bit, for every column and for none
        def run(workers):
            config = small_config(samples=24, initial=ProfileInitial(linear_profile))
            return (_map_samples(config, lambda k, *sample: sample, workers)
                    + _map_samples(config, lambda k, a, lam, _v: (a, lam), workers,
                                   columns=()))

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
        stream = montecarlo.RngStream

        def failing(master_seed, k):
            if k == 3:
                raise KeyError(k)
            return stream(master_seed, k)

        monkeypatch.setattr(montecarlo, "RngStream", failing)
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
    @pytest.mark.parametrize("n, t, samples", [(200, 0.5, 7), (200, 0.5, 1), (200, 0.0, 5),
                                               (60, 0.5, 20), (2, 0.5, 9)])
    def test_theta_g_one_matches_per_matrix_eigvalsh(self, n, t, samples):
        # the values-only finish (dsterf after dsytrd on the LAPACK route)
        # equals one eigvalsh per matrix bit for bit, whatever the number of
        # threads, at n = 2 and on one, odd and many samples; t = 0 has no M_t
        config = small_config(n=n, t=t, samples=samples, target_indices=())
        z = 0.3 + 0.2j

        def per_matrix(k):
            a, m = montecarlo._draw(config, k, columns=())
            lam = a.copy() if m is None else np.linalg.eigvalsh(m)
            return complex(np.sum(1.0 / (lam - z)) / n)

        want = montecarlo._scalar_estimate([per_matrix(k) for k in range(samples)])
        for workers in (1, 2, 3):
            got = estimate_theta(config, z, math.inf, workers)
            assert got.samples == samples
            assert (np.array([got.value, got.stderr_re, got.stderr_im]).tobytes()
                    == np.array([want.value, want.stderr_re, want.stderr_im]).tobytes())


class TestSingleColumn:
    """One target: one `eigenpair` per sample instead of one eigh."""

    @pytest.mark.parametrize("n, t, samples", [(260, 0.5, 1), (260, 0.5, 7), (260, 0.5, 20),
                                               (260, 0.0, 7), (2, 0.5, 9), (2, 0.0, 3)])
    def test_workers_byte_identical_and_eigh_agree(self, n, t, samples):
        # one sample at a time at any n, drawn ahead by up to two helpers;
        # t = 0 has no M_t and keeps the identity
        config = small_config(n=n, t=t, samples=samples, target_indices=(n // 2,))
        parts = [accumulate_overlaps(config, workers)._parts for workers in (1, 2, 3)]
        for other in parts[1:]:
            assert list(other) == list(parts[0])
            for (a1, sq1), (a2, sq2) in zip(parts[0].values(), other.values()):
                assert a1.tobytes() == a2.tobytes() and sq1.tobytes() == sq2.tobytes()
        for k, (a, sq) in parts[0].items():
            a_ref, _lam, vecs = draw_sample(config, k)
            assert a.tobytes() == a_ref.tobytes()
            assert sq.shape == (1, n)
            assert np.max(np.abs(sq[0] - vecs[:, n // 2 - 1] ** 2)) <= 1e-12

    @staticmethod
    def assert_eigh_column(m, columns):
        # eigenpair's eigenvalue and squared vector against eigh's; eigenpair
        # overwrites a triangle of its argument, so it gets a copy
        lam, vecs = np.linalg.eigh(m)
        for column in columns:
            got_lam, got_v = matrices.eigenpair(m.copy(), column)
            assert got_lam.shape == (1,) and got_v.shape == (len(m), 1)
            assert abs(got_lam[0] - lam[column]) <= 1e-13 * np.max(np.abs(lam))
            assert np.max(np.abs(got_v[:, 0] ** 2 - vecs[:, column] ** 2)) <= 1e-12

    @pytest.mark.parametrize("initial, t", [
        (GOEInitial(1.0), 1.0), (GOEInitial(1.0), 0.01),
        (ProfileInitial(parse_profile("linear:-1,1")), 1e-4),
        (ProfileInitial(parse_profile("linear:-1,1")), 1.0)])
    def test_eigenpair_matches_eigh(self, initial, t):
        # both ends of the spectrum and its middle, at a large t and at
        # small ones, where M_t is nearly diagonal
        config = small_config(n=400, t=t, samples=4, initial=initial)
        for k in range(4):
            _a, m = montecarlo._draw(config, k, columns=(0,))
            self.assert_eigh_column(m, (0, 199, 399))

    def test_fig1_substreams_match_eigh(self):
        # fig1 at the default seed; its substream 301 made M - lam_200 I
        # exactly singular for numpy's LU under the draw before the
        # tridiagonal start
        params = cli.FIGURE_PARAMS["fig1"]
        config = ExperimentConfig(n=params["n"], t=params["t"], samples=params["samples"],
                                  initial=GOEInitial(1.0), target_indices=(params["index"],),
                                  master_seed=cli.DEFAULT_SEED)
        for k in (0, 301):
            _a, m = montecarlo._draw(config, k, columns=(0,))
            self.assert_eigh_column(m, (0, params["index"] - 1, 399))


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

    def test_two_targets_are_eigh_columns(self):
        # two targets take one split eigh per sample and keep its two columns
        config = small_config(samples=5, target_indices=(20, 40))
        for workers in (1, 2, 3):
            parts = accumulate_overlaps(config, workers)._parts
            assert list(parts) == list(range(config.samples))
            for k, (_a, sq) in parts.items():
                _a, _lam, vecs = draw_sample(config, k)
                assert sq.tobytes() == (vecs[:, [19, 39]].T ** 2).tobytes()

    def test_duplicate_substream_rejected(self):
        config = small_config()
        full, left, _right = self._accs(config)
        with pytest.raises(ConfigError):
            full.merge(left)

    def test_bad_rows_rejected(self):
        acc = OverlapAccumulator(4, (1,))
        with pytest.raises(Exception):
            acc.add_sample(0, np.zeros(4), np.full((1, 4), 0.3))

    def test_nan_row_rejected(self):
        # the row-sum error is NaN, and NaN compares false against the bound
        acc = OverlapAccumulator(4, (1, 2))
        rows = np.full((2, 4), 0.25)
        rows[1, 0] = np.nan
        with pytest.raises(DomainError):
            acc.add_sample(0, np.zeros(4), rows)
        assert acc.count == 0


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

    def test_stderr_is_sample_standard_error(self):
        # N std(ddof=1)/sqrt(samples) of the per-sample squared overlaps, the
        # convention of the scalar estimates
        config = small_config()
        curve = run_overlap_experiment(config)[20]
        sq = np.array([draw_sample(config, k)[2][:, 19] ** 2 for k in range(config.samples)])
        want = config.n * sq.std(axis=0, ddof=1) / math.sqrt(config.samples)
        assert np.max(np.abs(curve.stderr - want)) <= 1e-9 * np.max(want)

    def test_csv_export(self, tmp_path):
        curve = run_overlap_experiment(small_config(samples=2))[20]
        path = tmp_path / "c.csv"
        curve.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "j,a_j_mean,overlap_mean_timesN,stderr_timesN"
        assert len(lines) == curve.n + 1


class TestBinning:
    def _flat_curve(self, n=50):
        return OverlapCurve(a=np.linspace(-1, 1, n), values=np.full(n, 3.0),
                            stderr=np.full(n, 0.1), samples=10)

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
        with pytest.raises(DomainError):
            bin_overlap_curve(self._flat_curve(), 51)


class TestTheta:
    def test_g_one_is_empirical_stieltjes(self):
        config = small_config(samples=1)
        a, lam, vecs = draw_sample(config, 0)
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
        routes = [theta_sample(*draw_sample(config, k), z, math.inf)
                  for k in range(config.samples)]
        monkeypatch.setattr(np.linalg, "eigh", None)
        est = estimate_theta(config, z, math.inf)
        assert abs(est.value - np.mean(routes)) <= 1e-12
        assert est.stderr_re == pytest.approx(np.std(np.real(routes), ddof=1)
                                              / math.sqrt(config.samples), rel=1e-9)

    def test_two_routes_agree(self):
        config = small_config(samples=1)
        gen_a, lam, vecs = draw_sample(config, 0)
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

    def test_nan_threshold_rejected(self):
        with pytest.raises(DomainError):
            estimate_theta(small_config(samples=1), 0.5j, math.nan)


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

    @pytest.mark.parametrize("lam, alpha", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_rejected(self, lam, alpha):
        with pytest.raises(DomainError):
            empirical_cdf(small_config(samples=1), lam, alpha)

    def test_no_eigh(self, monkeypatch):
        # every sample's eigh runs in two LAPACK stages, never numpy's eigh;
        # the estimate agrees with eigh's to rounding
        if matrices.eigen_route() != "lapack":
            pytest.skip("without LAPACKE the split eigh finishes by numpy's eigh")
        config = small_config(samples=6)

        def by_eigh(k):
            a, m = montecarlo._draw(config, k, columns=())
            lam, vecs = np.linalg.eigh(m)
            return np.sum(vecs[np.ix_(a <= 0.0, lam <= 0.0)] ** 2) / config.n

        want = np.mean([by_eigh(k) for k in range(config.samples)])

        def failing(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        for workers in (1, 2, 3):
            est = empirical_cdf(config, 0.0, 0.0, workers)
            assert est.samples == config.samples
            assert abs(est.value.real - want) <= 1e-13


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
            _a, lam, vecs = draw_sample(config, k)
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
        _a, _lam, vecs = draw_sample(config, 0)
        assert np.max(np.abs((vecs ** 2).sum(axis=0) - 1.0)) <= 1e-10

    def test_binning_mass_any_window(self):
        # every window of several sizes, odd and even: mass preserved, and the
        # smoothing operator, rebuilt column by column from the unit vectors,
        # is a symmetric doubly stochastic band, equal bit for bit to the
        # reflect-boundary box counts (units of 1/(2 window)) built by a loop
        def binned(values, window):
            return bin_overlap_curve(OverlapCurve(a=np.linspace(-1, 1, len(values)),
                                                  values=values, stderr=np.zeros(len(values)),
                                                  samples=1), window).values

        for n in (2, 3, 7, 60):
            gen = np.random.default_rng(n)
            i, j = np.indices((n, n))
            for window in range(1, n + 1):
                values = gen.uniform(0, 2, n)
                assert binned(values, window).sum() == pytest.approx(values.sum(), abs=1e-10)
                k = np.column_stack([binned(e, window) for e in np.eye(n)])
                h = window // 2
                counts = np.zeros((n, n), dtype=np.int64)
                for row in range(n):
                    for offset in range(-h, h + 1):
                        col = row + offset
                        col = -1 - col if col < 0 else 2 * n - 1 - col if col >= n else col
                        counts[row, col] += 1 if window % 2 == 0 and abs(offset) == h else 2
                assert np.array_equal(k, counts / (2 * window))
                assert np.array_equal(k, k.T)
                assert np.max(np.abs(k.sum(axis=0) - 1.0)) <= 1e-12
                assert np.max(np.abs(k.sum(axis=1) - 1.0)) <= 1e-12
                assert np.all(k >= 0)
                assert np.all(k[np.abs(i - j) > window // 2] == 0)
                if window % 2:
                    for row in range(h, n - h):
                        assert np.all(k[row, row - h:row + h + 1] == 1.0 / window)
