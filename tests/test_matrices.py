import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdrift import ConvergenceError, DomainError, RngStream, parse_profile
from specdrift import matrices
from specdrift.matrices import (eigenpair, ensure_symmetric, finish_eigh, finish_eigvalsh,
                                goe_spectrum, sample_goe, tridiagonalize)


class TestRngStream:
    def test_determinism(self):
        a = RngStream(7, 3).generator().standard_normal(10)
        b = RngStream(7, 3).generator().standard_normal(10)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = RngStream(7, 0).generator().standard_normal(10)
        b = RngStream(7, 1).generator().standard_normal(10)
        assert not np.array_equal(a, b)


class TestSampleGOE:
    def test_symmetric(self, gen):
        h = sample_goe(50, 1.0, gen)
        assert np.array_equal(h, h.T)

    def test_variances(self, gen):
        n, draws = 100, 10000
        offdiag = np.array([sample_goe(n, 1.0, gen)[0, 1] for _ in range(draws)])
        # entry mean is 0 within 3 sigma, variance 1/n within sampling error
        assert abs(offdiag.mean()) <= 3.0 / np.sqrt(draws * n)
        assert offdiag.var() == pytest.approx(1.0 / n, rel=0.1)

    def test_spectrum_in_support(self, gen):
        lam = np.linalg.eigvalsh(sample_goe(400, 1.0, gen))
        assert lam.min() > -2.3 and lam.max() < 2.3

    def test_spectrum_histogram_semicircle(self, gen, goe_profile):
        lams = np.concatenate([np.linalg.eigvalsh(sample_goe(400, 1.0, gen))
                               for _ in range(10)])
        edges = np.linspace(-2, 2, 21)
        hist, _ = np.histogram(lams, bins=edges, density=True)
        mids = (edges[:-1] + edges[1:]) / 2
        assert np.max(np.abs(hist - goe_profile.density(mids))) <= 0.05

    def test_invalid_scale(self, gen):
        with pytest.raises(DomainError):
            sample_goe(50, 0.0, gen)

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_non_finite_scale(self, gen, scale):
        with pytest.raises(DomainError):
            sample_goe(50, scale, gen)

    def test_brownian_scaling(self):
        # same substream, t=4 draw equals 2x the t=1 draw entrywise
        h1 = sample_goe(20, 1.0, RngStream(5, 0).generator())
        h4 = sample_goe(20, 4.0, RngStream(5, 0).generator())
        assert np.allclose(h4, 2.0 * h1, atol=1e-14)

    def test_noisy_spectrum_radius(self, gen):
        a = sample_goe(400, 1.0, gen)
        h = sample_goe(400, 1.0, gen)
        top = np.linalg.eigvalsh(a + h).max()
        assert abs(top - 2.0 * np.sqrt(2.0)) <= 0.15

    def test_invalid_time(self, gen):
        # the noise H_t at time t = 0 is sample_goe at scale 0
        with pytest.raises(DomainError):
            sample_goe(20, 0.0, gen)


def tridiagonal_model(n, scale, gen):
    """The diagonal d and off-diagonal e that goe_spectrum draws from gen,
    drawn and scaled as it does."""
    d = gen.standard_normal(n) * math.sqrt(2.0 * scale / n)
    e = np.sqrt(gen.chisquare(np.arange(n - 1, 0, -1))) * math.sqrt(scale / n)
    return d, e


class TestGOESpectrum:
    @pytest.mark.parametrize("n, scale", [(2, 1.0), (3, 0.5), (50, 1.0), (400, 1.0), (400, 4.0)])
    def test_trace_identities(self, n, scale):
        # per draw, the traces of T and T^2: sum lam = sum d and
        # sum lam^2 = sum d^2 + 2 sum e^2, to rounding; ascending values
        eps = np.finfo(float).eps
        for k in range(5):
            d, e = tridiagonal_model(n, scale, RngStream(11, k).generator())
            lam = goe_spectrum(n, scale, RngStream(11, k).generator())
            assert lam.shape == (n,) and np.all(np.diff(lam) >= 0)
            assert abs(lam.sum() - d.sum()) <= 4 * n * eps * np.max(np.abs(lam))
            squares = np.sum(d ** 2) + 2 * np.sum(e ** 2)
            assert abs(np.sum(lam ** 2) - squares) <= 4 * n * eps * squares

    def test_law_against_dense_draws(self):
        # two-sample KS tests at n = 100, 2000 draws a side at fixed seeds:
        # lambda_min, the median, lambda_max and sum lam^2 of the tridiagonal
        # model against those of dense GOE draws decomposed by eigvalsh
        stats = pytest.importorskip("scipy.stats")
        n, draws = 100, 2000

        def features(spectra):
            spectra = np.array(spectra)
            return (spectra[:, 0], np.median(spectra, axis=1), spectra[:, -1],
                    np.sum(spectra ** 2, axis=1))

        tridiagonal = features([goe_spectrum(n, 1.0, RngStream(3, k).generator())
                                for k in range(draws)])
        dense = features([np.linalg.eigvalsh(sample_goe(n, 1.0, RngStream(4, k).generator()))
                          for k in range(draws)])
        for x, y in zip(tridiagonal, dense):
            assert stats.ks_2samp(x, y).pvalue > 0.01
        # E sum lam^2 = E tr H^2 = n + 1 at scale 1
        assert np.mean(tridiagonal[3]) == pytest.approx(n + 1, rel=0.01)

    @pytest.mark.parametrize("n, scale", [(1, 1.0), (50, 0.0), (50, math.nan)])
    def test_invalid_arguments(self, gen, n, scale):
        with pytest.raises(DomainError):
            goe_spectrum(n, scale, gen)


def noisy_start(start, n, t, k):
    """M_t = diag(a) + H_t of substream k as the Monte Carlo draws it: a GOE
    start ("goe") or the linear:-1,1 profile's quantiles ("profile")."""
    gen = RngStream(21, k).generator()
    if start == "goe":
        a = goe_spectrum(n, 1.0, gen)
    else:
        a = parse_profile("linear:-1,1").quantiles(n)
    m = sample_goe(n, t, gen)
    m[np.diag_indices(n)] += a
    return m


class TestSplitEigh:
    """eigh in two stages, tridiagonalize then finish_eigh: the stages of
    numpy's dsyevd, so the same eigenvalues bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 400])
    @pytest.mark.parametrize("start, t", [("goe", 1.0), ("goe", 0.02), ("profile", 1.0)])
    def test_matches_eigh(self, start, t, n):
        for k in range(3):
            m = noisy_start(start, n, t, k)
            lam, vecs = np.linalg.eigh(m)
            got_lam, got_v = finish_eigh(*tridiagonalize(m.copy()))
            assert got_lam.tobytes() == lam.tobytes()
            assert got_v.shape == (n, n)
            assert np.max(np.abs(got_v ** 2 - vecs ** 2)) <= 1e-13

    def test_reduction_in_place(self):
        # the reduction overwrites its argument and returns it first
        m = noisy_start("goe", 50, 1.0, 0)
        reduced = tridiagonalize(m)
        assert reduced[0] is m
        if matrices.eigen_route() == "lapack":
            assert [len(x) for x in reduced[1:]] == [50, 49, 49]

    def test_fallback_matches_lapack(self, monkeypatch):
        if matrices.eigen_route() != "lapack":
            pytest.skip("this numpy ships no LAPACKE to compare with")
        m = noisy_start("goe", 400, 1.0, 0)
        lam, v = finish_eigh(*tridiagonalize(m.copy()))
        monkeypatch.setattr(matrices, "_lapack", lambda: None)
        reduced = tridiagonalize(m.copy())
        assert len(reduced) == 1 and np.array_equal(reduced[0], m)
        lam_np, v_np = finish_eigh(*reduced)
        assert np.max(np.abs(lam_np - lam)) <= 1e-13
        assert np.max(np.abs(v_np ** 2 - v ** 2)) <= 1e-13

    @pytest.mark.parametrize("routine", ["dsytrd", "dstedc", "dormtr"])
    def test_nonzero_info_raises(self, monkeypatch, routine):
        lapack = matrices._lapack()
        if lapack is None:
            pytest.skip("this numpy ships no LAPACKE")
        failing = lapack._replace(**{routine: lambda *args: 7})
        monkeypatch.setattr(matrices, "_lapack", lambda: failing)
        with pytest.raises(ConvergenceError, match=f"{routine} failed \\(info 7\\)"):
            finish_eigh(*tridiagonalize(noisy_start("goe", 20, 1.0, 0)))


class TestValuesFinish:
    """The eigenvalues alone, tridiagonalize then finish_eigvalsh: the stages
    of numpy's dsyevd without vectors, so eigvalsh's eigenvalues bit for
    bit."""

    @pytest.mark.parametrize("n", [2, 3, 400, 501])
    @pytest.mark.parametrize("start, t", [("goe", 1.0), ("goe", 0.02), ("profile", 1.0)])
    def test_matches_eigvalsh(self, start, t, n):
        for k in range(3):
            m = noisy_start(start, n, t, k)
            got = finish_eigvalsh(*tridiagonalize(m.copy()))
            assert got.tobytes() == np.linalg.eigvalsh(m).tobytes()

    def test_fallback_matches_lapack(self, monkeypatch):
        if matrices.eigen_route() != "lapack":
            pytest.skip("this numpy ships no LAPACKE to compare with")
        m = noisy_start("goe", 400, 1.0, 0)
        lam = finish_eigvalsh(*tridiagonalize(m.copy()))
        monkeypatch.setattr(matrices, "_lapack", lambda: None)
        reduced = tridiagonalize(m.copy())
        assert len(reduced) == 1
        assert finish_eigvalsh(*reduced).tobytes() == lam.tobytes()

    @pytest.mark.parametrize("routine", ["dsytrd", "dsterf"])
    def test_nonzero_info_raises(self, monkeypatch, routine):
        lapack = matrices._lapack()
        if lapack is None:
            pytest.skip("this numpy ships no LAPACKE")
        failing = lapack._replace(**{routine: lambda *args: 7})
        monkeypatch.setattr(matrices, "_lapack", lambda: failing)
        with pytest.raises(ConvergenceError, match=f"{routine} failed \\(info 7\\)"):
            finish_eigvalsh(*tridiagonalize(noisy_start("goe", 20, 1.0, 0)))


class TestNumpyFallback:
    """Where numpy ships no LAPACKE, both calls take numpy.linalg: the same
    values to rounding."""

    def test_fallback_matches_lapack(self, monkeypatch):
        if matrices.eigen_route() != "lapack":
            pytest.skip("this numpy ships no LAPACKE to compare with")
        spectrum = goe_spectrum(400, 1.0, RngStream(8, 0).generator())
        m = sample_goe(400, 1.0, RngStream(8, 1).generator()) + np.diag(spectrum)
        pairs = [eigenpair(m.copy(), i) for i in (0, 199, 399)]
        monkeypatch.setattr(matrices, "_lapack", lambda: None)
        assert matrices.eigen_route() == "numpy"
        fallback = goe_spectrum(400, 1.0, RngStream(8, 0).generator())
        assert np.max(np.abs(fallback - spectrum)) <= 1e-13
        for i, (lam, v) in zip((0, 199, 399), pairs):
            lam_np, v_np = eigenpair(m.copy(), i)
            assert lam_np.shape == (1,) and v_np.shape == (400, 1)
            assert abs(lam_np[0] - lam[0]) <= 1e-13
            assert np.max(np.abs(v_np ** 2 - v ** 2)) <= 1e-12


class TestEnsureSymmetric:
    def test_rejects_nonsymmetric(self):
        with pytest.raises(DomainError):
            ensure_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DomainError):
            ensure_symmetric(np.eye(3)[:2])

    def test_rejects_nan(self):
        # a NaN compares false against anything, and a symmetric infinite
        # entry would make inf - inf in m - m.T
        for value in (np.nan, np.inf):
            m = np.eye(3)
            m[1, 2] = m[2, 1] = value
            with pytest.raises(DomainError, match="finite"):
                ensure_symmetric(m)


class TestBuildDiagonal:
    """The Monte Carlo keeps the initial matrix diagonal in its own
    eigenbasis; that rests on the rotational invariance of the noise."""

    def test_rotational_invariance_smoke(self, gen):
        h = sample_goe(60, 1.0, gen)
        q, _ = np.linalg.qr(gen.standard_normal((60, 60)))
        lam1 = np.linalg.eigvalsh(h)
        lam2 = np.linalg.eigvalsh(q @ h @ q.T)
        assert np.max(np.abs(lam1 - lam2)) <= 1e-8


class TestProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31), k=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_stream_reproducible(self, seed, k):
        a = RngStream(seed, k).generator().standard_normal(5)
        b = RngStream(seed, k).generator().standard_normal(5)
        assert np.array_equal(a, b)
