import itertools

import numpy as np
import pytest

from spgrad.mdp import sample_block
from spgrad.rng import box_muller
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


def record_block(env, actor, draws) -> "tuple[np.ndarray, np.ndarray]":
    """Rewards (n, T) and scores (n, T, m) of ``sample_block`` on ``draws``,
    recorded step by step by a consumer that copies each step it is handed."""
    n, horizon = len(draws), env.spec.horizon
    rewards, scores = np.empty((horizon, n)), np.empty((horizon, n, actor.dim))

    def record(t, step_rewards, step_scores):
        rewards[t], scores[t] = step_rewards, step_scores

    sample_block(env, actor, draws, record)
    return rewards.T, scores.swapaxes(0, 1)


class Scripted:
    """A stand-in generator that returns the given uniforms and normals in
    turn: one at a time, or the next ``count`` of them as an array, and a
    uniform on [low, high) from the next uniform."""

    def __init__(self, uniforms, normals=(0.0,)):
        self._uniforms, self._normals = itertools.cycle(uniforms), itertools.cycle(normals)

    @staticmethod
    def _next(values, count):
        if count is None:
            return next(values)
        return np.array([next(values) for _ in range(count)])

    def random(self, count=None):
        return self._next(self._uniforms, count)

    def standard_normal(self, count=None):
        return self._next(self._normals, count)

    def uniform(self, low, high):
        # Generator.uniform's formula on the next scripted uniform
        return low + (high - low) * self.random()


def scripted_rows(env, actor, draws) -> "list[Scripted]":
    """One stand-in generator per row of ``draws``, serving the row as the
    scalar path reads it: the uniform of each one-column draw, and the
    standard normal that ``box_muller`` makes of each two-column draw, made
    elementwise over all the column pairs at once."""
    widths = [env.reset_draws] + [actor.draws, env.step_draws] * env.spec.horizon
    starts = np.cumsum([0] + widths[:-1]).tolist()
    uniform_cols = [c for c, w in zip(starts, widths) if w == 1]
    normal_cols = [c for c, w in zip(starts, widths) if w == 2]
    normals = box_muller(draws[:, normal_cols], draws[:, [c + 1 for c in normal_cols]]).tolist()
    return [Scripted(draws[i, uniform_cols].tolist(), normals[i]) for i in range(len(draws))]
