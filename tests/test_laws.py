import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from specdrift import (DegenerateGapError, LinearProfile, OutsideSupportError,
                       RngStream, SemicircleQuantileProfile, density_and_hilbert, ldos, overlap_cauchy, overlap_full, overlap_goe,
                       perturbation_expansion, perturbative_diag, perturbative_offdiag,
                       perturbed_quantile)
from specdrift.laws import density_line_at
from specdrift.matrices import sample_goe
from specdrift.stieltjes import DensityLine, quantile_limit, semicircle_density_line


class TestOverlapFull:
    def test_peak_value(self):
        line = DensityLine(lam=0.3, rho=0.2, hilbert=-0.1)
        t = 0.7
        peak = overlap_full(t, 0.3, 0.3 + t * line.hilbert, line)
        assert peak == pytest.approx(1.0 / (t * math.pi ** 2 * line.rho ** 2), rel=1e-12)

    def test_goe_center_value(self):
        line = semicircle_density_line(1.0, 0.0)
        assert overlap_full(1.0, 0.0, 0.0, line) == pytest.approx(2.0, rel=1e-12)

    def test_tail_matches_perturbative(self):
        line = semicircle_density_line(0.01, 0.0)
        n = 1000
        for gap in (5.0, 10.0):
            full = overlap_full(0.01, 0.0, gap, line)
            pert = n * perturbative_offdiag(0.01, n, 0.0, gap)
            assert full == pytest.approx(pert, rel=1e-3)

    def test_outside_support_rejected(self):
        line = DensityLine(lam=5.0, rho=0.0, hilbert=-0.2)
        with pytest.raises(OutsideSupportError):
            overlap_full(1.0, 5.0, 0.0, line)


class TestOverlapGOE:
    def test_center_value(self):
        assert overlap_goe(1.0, 0.0, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_spec_point(self):
        assert overlap_goe(1.0, 0.0, 2.0) == pytest.approx(2.0 / 9.0, rel=1e-14)

    def test_large_t_forgets_initial_state(self):
        a = np.linspace(-1.5, 1.5, 7)
        for t in (100.0, 1000.0):
            vals = overlap_goe(t, 0.5, a)
            assert np.max(np.abs(vals - 1.0)) <= 3.0 / t

    def test_outside_support_rejected(self):
        with pytest.raises(OutsideSupportError):
            overlap_goe(1.0, 3.0, 0.0)

    @pytest.mark.parametrize("t,lam", [(0.05, 0.3), (1.0, -1.1), (4.0, 2.5)])
    def test_radius_2_bit_identical(self, t, lam):
        a = np.linspace(-1.9, 1.9, 9)
        d = a - lam
        old = t / (d * d + (t / (1.0 + t)) * lam * d + t * t / (1.0 + t))
        assert np.array_equal(overlap_goe(t, lam, a), old)
        assert np.array_equal(overlap_goe(t, lam, a, radius=2.0), old)

    @pytest.mark.parametrize("t,lam", [(0.05, 0.3), (1.0, -3.1), (4.0, 2.5)])
    def test_radius_4_matches_solver(self, t, lam):
        # the closed form at radius 4 against the kernel on the solver's line
        a = np.linspace(-3.9, 3.9, 25)
        line = density_and_hilbert(SemicircleQuantileProfile(4.0), t, lam)
        rel = np.abs(overlap_goe(t, lam, a, radius=4.0) / overlap_full(t, lam, a, line) - 1.0)
        assert np.max(rel) <= 1e-12
        assert density_line_at(SemicircleQuantileProfile(4.0), t, lam).rho == pytest.approx(
            line.rho, abs=1e-12)

    def test_identity_with_full_kernel(self):
        lams = np.linspace(-2.5, 2.5, 25)
        a = np.linspace(-1.9, 1.9, 25)
        for t in (0.5, 1.0, 2.0):
            edge = 2.0 * math.sqrt(1.0 + t)
            for lam in lams[np.abs(lams) < edge - 0.05]:
                line = semicircle_density_line(t, lam)
                lhs = overlap_full(t, lam, a, line)
                rhs = overlap_goe(t, lam, a)
                assert np.max(np.abs(lhs / rhs - 1.0)) <= 1e-12


class TestOverlapCauchy:
    def test_peak_and_half_width(self):
        # Lorentzian centred at lam + t H_0 with half width t pi rho_0
        t, lam = 0.3, 0.1
        line = semicircle_density_line(0.0, lam)
        centre, half = lam + t * line.hilbert, t * math.pi * line.rho
        peak = 1.0 / (t * math.pi ** 2 * line.rho ** 2)
        assert overlap_cauchy(t, lam, centre, line) == pytest.approx(peak, rel=1e-14)
        for a in (centre - half, centre + half):
            assert overlap_cauchy(t, lam, a, line) == pytest.approx(peak / 2, rel=1e-14)

    def test_small_t_matches_goe_near_center(self):
        # the limit chain bound: rel error <= 2t for |a - lam| <= 1, lam = 0
        t = 0.01
        a = np.linspace(-1.0, 1.0, 41)
        line = semicircle_density_line(0.0, 0.0)
        rel = np.abs(overlap_cauchy(t, 0.0, a, line) / overlap_goe(t, 0.0, a) - 1.0)
        assert np.max(rel) <= 2 * t


class TestLdos:
    @pytest.mark.parametrize("t,lam", [(0.5, 0.0), (1.0, 0.0), (1.0, 1.0),
                                       (1.0, -1.0), (2.0, 1.0)])
    def test_goe_normalization(self, goe_profile, t, lam):
        line = semicircle_density_line(t, lam)
        total, _ = quad(lambda a: ldos(goe_profile, t, lam, a, line),
                        -2.0, 2.0, epsabs=1e-10, epsrel=1e-10, limit=200)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_linear_profile_reduces_to_kernel(self, linear_profile):
        line = density_line_at(linear_profile, 0.5, 0.5)
        assert ldos(linear_profile, 0.5, 0.5, 0.3, line) == pytest.approx(
            overlap_full(0.5, 0.5, 0.3, line), rel=1e-12)

    def test_linear_profile_normalization(self, linear_profile):
        t, lam = 0.5, 0.5
        line = density_line_at(linear_profile, t, lam)
        total, _ = quad(lambda a: ldos(linear_profile, t, lam, a, line),
                        0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)
        assert total == pytest.approx(1.0, abs=1e-3)


class TestPerturbative:
    def test_offdiag_arithmetic(self):
        assert perturbative_offdiag(1e-4, 100, 1.0, 0.0) == pytest.approx(1e-6, rel=1e-14)

    def test_gap_scaling(self):
        v1 = perturbative_offdiag(0.01, 50, 0.0, 1.0)
        v2 = perturbative_offdiag(0.01, 50, 0.0, 2.0)
        assert v1 == pytest.approx(4.0 * v2, rel=1e-14)

    def test_degenerate_gap(self):
        with pytest.raises(DegenerateGapError):
            perturbative_offdiag(0.01, 50, 1.0, 1.0)

    def test_diag_t0(self):
        assert perturbative_diag(0.0, 100, 50, np.linspace(0, 1, 100)) == 1.0

    def test_diag_offdiag_complement(self):
        spectrum = np.linspace(0, 1, 100)
        t, n, i = 1e-6, 100, 50
        diag = perturbative_diag(t, n, i, spectrum)
        off = sum(perturbative_offdiag(t, n, spectrum[i], spectrum[j])
                  for j in range(n) if j != i)
        assert diag + off == pytest.approx(1.0, abs=1e-14)

    def test_diag_direct_summation(self):
        spectrum = np.linspace(0, 1, 100)
        t, n, i = 1e-6, 100, 50
        expected = 1.0 - (t / n) * sum(1.0 / (spectrum[i] - spectrum[j]) ** 2
                                       for j in range(n) if j != i)
        assert perturbative_diag(t, n, i, spectrum) == pytest.approx(expected, rel=1e-14)


class TestPerturbationExpansion:
    def test_diagonal_h1(self):
        exp = perturbation_expansion(np.array([0.0, 1.0, 2.0]),
                                     np.diag([0.5, -0.2, 0.1]), 1)
        assert exp.alpha_i == -0.2
        assert exp.beta_i == 0.0
        assert np.allclose(exp.gamma, 0.0)
        assert exp.gamma_i == 0.0

    def test_2x2_hand_evaluation(self):
        # first eigenpair of diag(0,1) + sqrt(t) [[0,c],[c,0]]:
        # gamma_2 = c/(a_1-a_2) = -c, beta_1 = c^2/(a_1-a_2) = -c^2
        c = 0.3
        h1 = np.array([[0.0, c], [c, 0.0]])
        exp = perturbation_expansion(np.array([0.0, 1.0]), h1, 0)
        assert exp.alpha_i == 0.0
        assert exp.gamma[1] == pytest.approx(-c, rel=1e-14)
        assert exp.beta_i == pytest.approx(-c * c, rel=1e-14)

    def test_gamma_normalization_identity(self, gen):
        h1 = sample_goe(20, 1.0, gen)
        exp = perturbation_expansion(np.linspace(0, 1, 20), h1, 7)
        assert exp.gamma_i == pytest.approx(0.5 * np.sum(exp.gamma ** 2), rel=1e-14)

    def test_eigenvalue_prediction_vs_solver(self, gen):
        n, i, t = 30, 15, 1e-8
        spectrum = np.linspace(0, 1, n)
        h1 = sample_goe(n, 1.0, gen)
        exp = perturbation_expansion(spectrum, h1, i)
        lam = np.linalg.eigvalsh(np.diag(spectrum) + math.sqrt(t) * h1)[i]
        assert abs(lam - exp.eigenvalue_at(t, spectrum[i])) <= 1e-10

    def test_degenerate_spectrum_rejected(self, gen):
        with pytest.raises(DegenerateGapError):
            perturbation_expansion(np.array([0.0, 0.0, 1.0]),
                                   sample_goe(3, 1.0, gen), 0)


class TestPerturbedQuantile:
    def test_t0_is_profile(self, goe_profile):
        assert perturbed_quantile(goe_profile, 0.0, 0.3) == pytest.approx(
            goe_profile.eval(0.3), abs=1e-12)

    def test_goe_scaling(self, goe_profile):
        assert perturbed_quantile(goe_profile, 1.0, 0.8) == pytest.approx(
            math.sqrt(2.0) * goe_profile.eval(0.8), abs=1e-12)

    def test_semicircle_any_radius(self, goe_profile):
        # radius 4 at time t is twice radius 2 at time t/4
        for t, q in ((0.05, 0.2), (1.0, 0.65), (4.0, 0.97)):
            wide = perturbed_quantile(SemicircleQuantileProfile(4.0), t, q)
            assert wide == pytest.approx(2.0 * perturbed_quantile(goe_profile, t / 4.0, q),
                                         rel=1e-12)

    def test_general_profile_matches_goe_shortcut(self, goe_profile):
        # route the GOE profile through the generic grid/CDF path via a
        # tabulated copy and compare with the closed-form shortcut
        from specdrift import TabulatedProfile
        x = np.linspace(0, 1, 201)
        tab = TabulatedProfile(x, goe_profile.eval(x))
        t, q = 1.0, 0.65
        assert perturbed_quantile(tab, t, q) == pytest.approx(
            perturbed_quantile(goe_profile, t, q), abs=5e-3)

    @pytest.mark.parametrize("radius", [2.0, 4.0])
    def test_density_quantile_on_semicircle(self, radius):
        # the general route (Gauss CDF in the sine chart, Newton inversion)
        # against the closed form it bypasses
        profile = SemicircleQuantileProfile(radius)
        c0 = radius * radius / 4.0
        for t in (0.5, 1.0):
            for q in (0.5, 0.9, 0.99, 0.999):
                exact = math.sqrt((c0 + t) / c0) * profile.eval(q)
                assert abs(quantile_limit(profile, t, q) - exact) <= 1e-10


class TestProperties:
    @given(t=st.floats(min_value=0.05, max_value=5.0),
           lam=st.floats(min_value=-1.5, max_value=1.5),
           a=st.floats(min_value=-1.9, max_value=1.9))
    @settings(max_examples=100, deadline=None)
    def test_goe_positive(self, t, lam, a):
        assert overlap_goe(t, lam, a) > 0

    @given(t=st.floats(min_value=1e-4, max_value=1.0),
           lam=st.floats(min_value=-2, max_value=2),
           a=st.floats(min_value=-2, max_value=2))
    @settings(max_examples=50, deadline=None)
    def test_cauchy_positive_and_bounded(self, t, lam, a):
        line = semicircle_density_line(0.0, lam)
        if not line.inside_support:
            with pytest.raises(OutsideSupportError):
                overlap_cauchy(t, lam, a, line)
            return
        v = overlap_cauchy(t, lam, a, line)
        assert 0 < v <= (1.0 + 1e-12) / (t * math.pi ** 2 * line.rho ** 2)
