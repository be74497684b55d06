import os

# One BLAS thread, as the CLI sets it: the Monte Carlo fixtures overlap
# draws with decompositions instead. Only takes effect before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import mpmath as mp
import numpy as np
import pytest

from specdrift import RngStream, SemicircleQuantileProfile, parse_profile
from specdrift.montecarlo import _decompose, _draw
from specdrift.stieltjes import _edges, boundary_values

#: one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES = []


def record_acceptance(name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} -- {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def goe_profile():
    return SemicircleQuantileProfile()


@pytest.fixture(scope="session")
def linear_profile():
    return parse_profile("linear:0,1")


@pytest.fixture
def gen():
    return RngStream(master_seed=12345, substream_index=0).generator()


def draw_sample(config, k):
    """Eigenvalues a of the initial matrix, eigenvalues lam of M_t and the
    eigenvector matrix V of M_t in the initial eigenbasis (V[j, i] =
    <psi_i(t)|phi_j>) of substream k, drawn and decomposed as the pipeline
    does."""
    return _decompose(*_draw(config, k))


def assert_close(a, b, tol, msg=""):
    err = np.max(np.abs(np.asarray(a) - np.asarray(b)))
    assert err <= tol, f"{msg} max abs error {err:.3e} > {tol:.1e}"


def boundary_value(profile, t, lam):
    """The solver's boundary value m = H_t + i pi rho_t at one lambda."""
    return boundary_values(profile, t, [lam])[0][0]


def support_bounds(profile, t):
    """Edges (lower, upper) of the time-t spectral support: the profile's
    support at t = 0, else the lam of the root-found edges."""
    if t == 0:
        return profile.support
    (_, lower), (_, upper) = _edges(profile, t)
    return lower, upper


def hermite_piece(profile, k):
    """Piece k of a tabulated profile as the Hermite cubic of its knot data
    (a_k, a_{k+1}, d_k, d_{k+1}, h), in mpmath at the working precision:
    power-basis coefficients in s = u - x_k, highest degree first, and h."""
    (a0, a1), (x0, x1) = (map(mp.mpf, v[k:k + 2]) for v in (profile._a, profile._x))
    d0, d1 = mp.mpf(profile._interp.c[2, k]), mp.mpf(profile._interp.c_last[2, k])
    h = x1 - x0
    m = (a1 - a0) / h
    return [(d0 + d1 - 2 * m) / h ** 2, (3 * m - 2 * d0 - d1) / h, d0, a0], h
