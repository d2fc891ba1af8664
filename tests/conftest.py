import numpy as np
import pytest

from spgrad.testbeds import (
    bandit_instance,
    binned_gaussian_instance,
    chain_instance,
    lqg_instance,
    two_state_instance,
)


@pytest.fixture(scope="session")
def two_state():
    return two_state_instance()


@pytest.fixture(scope="session")
def bandit():
    return bandit_instance()


@pytest.fixture(scope="session")
def binned_gaussian():
    return binned_gaussian_instance()


@pytest.fixture(scope="session")
def chain():
    return chain_instance()


@pytest.fixture(scope="session")
def lqg():
    env, policy = lqg_instance()
    return env, policy


def random_theta(rng: np.random.Generator, dim: int, scale: float = 0.5) -> np.ndarray:
    return scale * rng.standard_normal(dim)


def iteration_generator(seed: int, k: int) -> np.random.Generator:
    """Iteration k's uniform rows from their start, as documented: a PCG64DXSM
    on the ``SeedSequence`` of entropy ``2**64 + seed`` and spawn key ``(k,)``.
    Drawing ``random((rows, width))`` from it in order gives rows 0 .. rows-1,
    with no ``advance``."""
    address = np.random.SeedSequence(2**64 + seed, spawn_key=(k,))
    return np.random.Generator(np.random.PCG64DXSM(address))
