import pytest

from autores import SystemParams
from autores.integrators import reference_solution
from autores.lyapunov import StabilityCertificate, certify
from oracles import PlainReference


@pytest.fixture(scope="session")
def params() -> SystemParams:
    return SystemParams(lam=1.0, gamma=0.1)


@pytest.fixture(scope="session")
def ref(params):
    return reference_solution(params)


@pytest.fixture(scope="session")
def plain_ref(params):
    return PlainReference(params)


@pytest.fixture(scope="session")
def cert(params, ref) -> StabilityCertificate:
    c = certify(params, ref)
    assert isinstance(c, StabilityCertificate), c
    return c
