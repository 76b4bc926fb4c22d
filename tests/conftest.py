import pytest

from rydsim.budget import optimize_gate
from rydsim.params import load_preset


@pytest.fixture(scope="session")
def current_params():
    return load_preset("current")


@pytest.fixture(scope="session")
def projected_params():
    return load_preset("projected")


@pytest.fixture(scope="session")
def current_opt(current_params):
    return optimize_gate(current_params)


@pytest.fixture(scope="session")
def projected_opt(projected_params):
    return optimize_gate(projected_params)
