"""specdrift: eigenvector decoherence of symmetric matrices under additive
Gaussian orthogonal noise.

Simulates finite-N overlap statistics of M_t = A + H_t, solves the limiting
self-consistent Stieltjes equation, evaluates the closed-form overlap /
local-density-of-states / subspace-distance laws, and cross-validates the
two routes against each other.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public names by module, imported on first access (PEP 562) so that
# `import specdrift` does not load numpy: the CLI pins the BLAS thread count
# in the environment first, which only takes effect before numpy loads.
_EXPORTS = {
    "errors": ("ConfigError", "ConvergenceError", "DegenerateGapError", "DomainError",
               "EdgeError", "EmptyWindowError", "InvalidProfileError",
               "OutsideSupportError", "RankDeficientError", "SpecdriftError"),
    "laws": ("PerturbationExpansion", "ldos", "overlap_full", "overlap_goe",
             "perturbation_expansion", "perturbative_diag", "perturbative_offdiag",
             "perturbed_quantile"),
    "matrices": ("RngStream", "sample_goe"),
    "montecarlo": ("ExperimentConfig", "GOEInitial", "OverlapAccumulator",
                   "OverlapCurve", "ProfileInitial", "bin_overlap_curve",
                   "empirical_cdf", "estimate_theta", "resolvent_diagonal",
                   "run_overlap_experiment"),
    "profiles": ("SemicircleQuantileProfile", "SpectralProfile", "TabulatedProfile",
                 "parse_profile"),
    "stieltjes": ("StieltjesSolution", "cdf_limit", "semicircle_stieltjes",
                  "solve_fixed_point", "solve_grid", "theta_limit"),
    "subspace": ("WindowSpec", "block_distance", "gram_entry_predictions",
                 "overlap_block", "predicted_distance", "run_subspace_experiment"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
