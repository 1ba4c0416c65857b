import dataclasses
import tracemalloc

import numpy as np
import pytest

from tmsvlab import io as tio
from tmsvlab.fock import FockSpace
from tmsvlab.homodyne import Samples, Shots
from tmsvlab.tomography import _Kernel

from source_oracle import basis_state


@pytest.fixture(scope="session")
def space10():
    return FockSpace(10)


@pytest.fixture(scope="session")
def space4():
    return FockSpace(4)


@pytest.fixture(scope="session")
def vacuum10(space10):
    return basis_state(space10, 0, 0).projector()


# field spellings that io.read_samples refuses: numbers that are not finite,
# and numbers outside JSON's grammar, whitespace, an empty or an extra
# field, and JSON values that are not numbers
NON_FINITE_TOKENS = ["nan", "inf", "-inf", "1e400", "-1e400", "1e0400", "1" * 400]
MALFORMED_TOKENS = ["01", "-00", "1.", ".5", "+1", "1_0", " 1.0", "\t1.0", "1.0\r", "", "1,2",
                    "true", "null", "[1]", "\"1\""]


def assert_within_se(value, expected, se, n_se=3.0):
    assert abs(value - expected) <= n_se * se, (
        f"{value} deviates from {expected} by more than {n_se} standard errors ({se})")


def loglik_under(rho, hists, dx):
    """Log-likelihood sum(n log P) of data binned at dx under rho.

    Uses the same bin model and dropped constants as ``ml_reconstruct``'s
    ``loglik_trace``, so an ML estimate must score at least this for any
    rho, the true state included.
    """
    return _Kernel(rho.space.n_cut, dx, hists)(rho.entries)[1]


def floored_samples():
    """100 shots at two phases, sd 1e-9: at dx 1e-12 their bins span fewer
    than MAX_GRID_CELLS lattice cells, but the probability of each, about
    dx^2 / pi, lies far below MIN_BIN_PROB."""
    rng = np.random.default_rng(0)
    return Samples(np.repeat([0.0, 1.0], 50), *rng.normal(0.0, 1e-9, (2, 100)))


def assert_same_batch(a, b):
    """Two Samples or Shots batches hold the same columns bit for bit."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        column_a, column_b = getattr(a, f.name), getattr(b, f.name)
        assert column_a.dtype == column_b.dtype and column_a.tobytes() == column_b.tobytes(), f.name


def loadtxt_shots(path) -> Shots:
    """The shots of a file that io.write_shots wrote, read back by np.loadtxt
    as int64 (the package reads no shot file)."""
    with open(path, encoding="utf-8") as file:
        assert file.readline() == tio.SHOTS_HEADER + "\n"
        return Shots(*np.loadtxt(file, dtype=np.int64, delimiter=",", ndmin=2).T)


def concat(*batches):
    """The shots of several batches of one type, in order."""
    return type(batches[0])(*(np.concatenate([getattr(b, f.name) for b in batches])
                              for f in dataclasses.fields(batches[0])))


def traced_peak_mb(fn):
    """Peak of the memory that Python and numpy allocate while fn() runs,
    in MiB, as tracemalloc sees it (from a fresh trace)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
