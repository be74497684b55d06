import os

# One BLAS thread, as the CLI sets it: the Monte Carlo fixtures overlap
# draws with decompositions instead. Only takes effect before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from specdrift import RngStream, SemicircleQuantileProfile, parse_profile

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


def assert_close(a, b, tol, msg=""):
    err = np.max(np.abs(np.asarray(a) - np.asarray(b)))
    assert err <= tol, f"{msg} max abs error {err:.3e} > {tol:.1e}"
