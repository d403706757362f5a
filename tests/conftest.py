import contextlib
import os
from unittest import mock

import pytest
from hypothesis import strategies as st


@pytest.fixture(scope="session", autouse=True)
def unicode_tables():
    """Build Hypothesis's Unicode tables before the first @given test runs.

    The first st.text() in a process computes the set of characters
    UTF-8 can encode, unless Hypothesis's cache directory already holds
    it: about 3 s on a fresh checkout.  Inside a test that time counts as
    data generation, and the too_slow health check fails the test.
    Validating a text strategy here pays it once, outside every test.
    """
    st.text().validate()


# The split paths: the trace parser and the trace emitter cut their work
# into parts, one per core this process may run on, or fewer so that each
# holds at least a least part size, and fork a child for each part after
# the first.  Their tests lower that size so that small inputs split, and
# fix the affinity at a number of cores so that the part count does not
# depend on the host's.


@contextlib.contextmanager
def split(module, name, size, cores=2):
    """module's least part size, the constant name, at size, on an
    affinity of cores cores."""
    with mock.patch.object(module, name, size), mock.patch.object(
        os, "sched_getaffinity", return_value=set(range(cores)), create=True
    ):
        yield


@pytest.fixture
def no_child_left():
    """Checks, after the test, that every child it forked was reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
