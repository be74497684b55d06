import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdrift import DomainError, RngStream
from specdrift.matrices import ensure_symmetric, sample_goe


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
