import os

import pytest

from adjkit import GenericContext


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "stress: opt-in heavy test, run only when ADJKIT_STRESS "
        "is set to a value other than 0")


def pytest_runtest_setup(item):
    if (item.get_closest_marker("stress")
            and os.environ.get("ADJKIT_STRESS", "") in ("", "0")):
        pytest.skip("opt-in stress test (set ADJKIT_STRESS=1)")


@pytest.fixture(scope="session")
def ctx2():
    return GenericContext(2)


@pytest.fixture(scope="session")
def ctx3():
    return GenericContext(3)


@pytest.fixture(scope="session")
def ctx4():
    return GenericContext(4)


@pytest.fixture(scope="session")
def ctx5():
    return GenericContext(5)
