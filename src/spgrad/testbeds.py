"""Canonical desk-scale instances used by the validation suite and tests.

Each builder returns the pieces needed to drive both the sampling path and
the exact oracles: an enumerable MDP (where applicable), the policy, and
any discrete view required for enumeration.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import (
    ChainConfig,
    EnumerableEnv,
    EnumerableMdp,
    Lqg1dConfig,
    Lqg1dEnv,
    MdpSpec,
    make_bandit,
    make_chain,
)
from .policies import (
    ActionIndicatorFeatures,
    BinnedGaussianPolicy,
    GaussianPolicy,
    PolynomialFeatures,
    SoftmaxPolicy,
    StateTabularFeatures,
    TabularFeatures,
)


@dataclass
class DiscreteInstance:
    mdp: EnumerableMdp
    env: EnumerableEnv
    policy: object  # samples raw actions
    oracle_policy: object  # exposes action_probabilities / score over discrete actions


def two_state_instance() -> DiscreteInstance:
    """2 states, 2 actions, T=3: the workhorse for exact-oracle checks (64 paths)."""
    transition = np.array(
        [
            [[0.9, 0.1], [0.2, 0.8]],
            [[0.7, 0.3], [0.05, 0.95]],
        ]
    )
    reward = np.array([[0.8, -0.3], [-1.0, 0.5]])
    mdp = EnumerableMdp(
        n_states=2,
        n_actions=2,
        transition=transition,
        reward=reward,
        initial=np.array([0.6, 0.4]),
        spec=MdpSpec(gamma=0.9, r_max=1.0, horizon=3),
    )
    policy = SoftmaxPolicy(
        TabularFeatures(2, 2), feature_bound=1.0, tau=1.0, n_actions=2, n_states=2
    )
    return DiscreteInstance(mdp=mdp, env=EnumerableEnv(mdp), policy=policy, oracle_policy=policy)


def bandit_instance(gamma: float = 0.5) -> DiscreteInstance:
    """Two-armed bandit with rewards 1 and 0; J(theta) is the sigmoid of theta."""
    mdp = make_bandit([1.0, 0.0], gamma=gamma, horizon=1)
    policy = SoftmaxPolicy(
        ActionIndicatorFeatures(active=0), feature_bound=1.0, tau=1.0, n_actions=2, n_states=1
    )
    return DiscreteInstance(mdp=mdp, env=EnumerableEnv(mdp), policy=policy, oracle_policy=policy)


def chain_instance(
    n_states: int = 3, slip: float = 0.1, gamma: float = 0.9, horizon: int = 5, tau: float = 1.0
) -> DiscreteInstance:
    mdp = make_chain(
        ChainConfig(n_states=n_states, slip=slip, gamma=gamma, horizon=horizon)
    )
    policy = SoftmaxPolicy(
        TabularFeatures(n_states, 2), feature_bound=1.0, tau=tau, n_actions=2, n_states=n_states
    )
    return DiscreteInstance(mdp=mdp, env=EnumerableEnv(mdp), policy=policy, oracle_policy=policy)


def binned_gaussian_instance() -> DiscreteInstance:
    """2-state, 3-binned-action MDP driven by a Gaussian policy.

    Gives the Gaussian policy class an enumerable substrate: bin
    probabilities are Gaussian CDF differences, so the exact oracles apply.
    """
    transition = np.array(
        [
            [[0.8, 0.2], [0.5, 0.5], [0.1, 0.9]],
            [[0.6, 0.4], [0.3, 0.7], [0.9, 0.1]],
        ]
    )
    reward = np.array([[0.5, -0.2, 1.0], [-0.6, 0.3, -1.0]])
    mdp = EnumerableMdp(
        n_states=2,
        n_actions=3,
        transition=transition,
        reward=reward,
        initial=np.array([0.5, 0.5]),
        spec=MdpSpec(gamma=0.8, r_max=1.0, horizon=3),
    )
    edges = np.array([-0.5, 0.5])
    gaussian = GaussianPolicy(StateTabularFeatures(2), feature_bound=1.0, sigma=0.6)
    return DiscreteInstance(
        mdp=mdp,
        env=EnumerableEnv(mdp, bin_edges=edges),
        policy=gaussian,
        oracle_policy=BinnedGaussianPolicy(gaussian, edges, n_states=2),
    )


def lqg_instance(sigma: float = 0.5, gamma: float = 0.9, horizon: int = 10) -> tuple[Lqg1dEnv, GaussianPolicy]:
    """Bounded 1-D LQG with phi(s) = [s]; feature norm is bounded by s_max = 1."""
    env = Lqg1dEnv(Lqg1dConfig(gamma=gamma, horizon=horizon))
    policy = GaussianPolicy(PolynomialFeatures(degree=1), feature_bound=1.0, sigma=sigma)
    return env, policy
