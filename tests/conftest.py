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
