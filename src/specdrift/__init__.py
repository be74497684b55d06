"""specdrift: eigenvector decoherence of symmetric matrices under additive
Gaussian orthogonal noise.

Simulates finite-N overlap statistics of M_t = A + H_t, solves the limiting
self-consistent Stieltjes equation, evaluates the closed-form overlap /
local-density-of-states / subspace-distance laws, and cross-validates the
two routes against each other.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, ConvergenceError, DegenerateGapError, DomainError,
                     EdgeError, EmptyWindowError, InvalidProfileError,
                     OutsideSupportError, RankDeficientError, SpecdriftError)
from .laws import (PerturbationExpansion, ldos, overlap_cauchy, overlap_full,
                   overlap_goe, perturbation_expansion, perturbative_diag,
                   perturbative_offdiag, perturbed_quantile)
from .matrices import RngStream, sample_goe
from .montecarlo import (ExperimentConfig, GOEInitial, OverlapAccumulator,
                         OverlapCurve, ProfileInitial, bin_overlap_curve,
                         empirical_cdf, estimate_theta, resolvent_diagonal,
                         run_overlap_experiment)
from .profiles import (LinearProfile, SemicircleQuantileProfile, SpectralProfile,
                       TabulatedProfile, parse_profile)
from .stieltjes import (DensityLine, StieltjesSolution, cdf_limit, density_and_hilbert,
                        semicircle_density, semicircle_hilbert, semicircle_stieltjes,
                        solve_fixed_point, solve_grid, support_bounds, theta_limit)
from .subspace import (WindowSpec, distance_from_singular_values, gram_entry_predictions,
                       overlap_block, predicted_distance, run_subspace_experiment)
