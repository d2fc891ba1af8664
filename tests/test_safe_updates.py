import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import spgrad.safe_updates as safe_updates
from spgrad.config import build_experiment, load_config
from spgrad.errors import ConfigurationError, NumericError
from spgrad.estimators import (
    BaselineKind,
    EstimatorKind,
    GradientAccumulator,
    error_bound,
    variance_bound,
)
from spgrad.mdp import (
    EnumerableEnv,
    Lqg1dConfig,
    Lqg1dEnv,
    MdpSpec,
    make_bandit,
    row_draws,
    sample_block,
)
from spgrad.oracle import grid_maximize
from spgrad.policies import GaussianPolicy, PolynomialFeatures, SmoothingConstants, TabularFeatures, SoftmaxPolicy
from spgrad.rng import UniformRows, substream
from spgrad.runlog import RUN_CSV_COLUMNS, read_run_csv, render_run_csv, write_run_csv
from spgrad.safe_updates import (
    MetaParams,
    RunLimits,
    RunRecord,
    certified_improvement,
    certified_step,
    exact_improvement_bound,
    lipschitz_constant,
    optimal_step_exact,
    required_batch_size,
    spg_run,
    stochastic_improvement_bound,
)
from spgrad.testbeds import (
    bandit_instance,
    binned_gaussian_instance,
    chain_instance,
    lqg_instance,
    two_state_instance,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestLipschitzConstant:
    def test_gaussian_closed_form(self):
        policy = GaussianPolicy(PolynomialFeatures(1), feature_bound=1.0, sigma=1.0)
        spec = MdpSpec(gamma=0.5, r_max=1.0, horizon=5)
        lip = lipschitz_constant(policy.smoothing_constants(), spec)
        expected = 2.0 / 0.25 * (1.0 + 2.0 * 0.5 / (math.pi * 0.5))
        assert lip == pytest.approx(expected, rel=1e-12)
        assert lip == pytest.approx(13.0929582, rel=1e-8)

    def test_softmax_closed_form(self):
        policy = SoftmaxPolicy(
            TabularFeatures(1, 2), feature_bound=1.0, tau=1.0, n_actions=2, n_states=1
        )
        spec = MdpSpec(gamma=0.9, r_max=1.0, horizon=5)
        lip = lipschitz_constant(policy.smoothing_constants(), spec)
        assert lip == pytest.approx(7800.0, rel=1e-12)

    def test_constant_policy_has_zero_constant(self):
        spec = MdpSpec(gamma=0.7, r_max=2.0, horizon=3)
        lip = lipschitz_constant(SmoothingConstants(0.0, 0.0, 0.0), spec)
        assert lip == 0.0

    def test_generic_formula_matches_per_class_forms(self):
        rng = substream(40, 0)
        for _ in range(50):
            bound = rng.uniform(0.1, 3.0)
            gamma = rng.uniform(0.05, 0.95)
            r = rng.uniform(0.1, 5.0)
            sigma = rng.uniform(0.1, 2.0)
            tau = rng.uniform(0.1, 2.0)
            spec = MdpSpec(gamma=gamma, r_max=r, horizon=5)
            gauss = lipschitz_constant(
                GaussianPolicy(PolynomialFeatures(1), bound, sigma).smoothing_constants(), spec
            )
            gauss_expected = (
                2 * bound**2 * r / (sigma**2 * (1 - gamma) ** 2)
                * (1 + 2 * gamma / (math.pi * (1 - gamma)))
            )
            soft = lipschitz_constant(
                SmoothingConstants(2 * bound / tau, 4 * bound**2 / tau**2, 2 * bound**2 / tau**2),
                spec,
            )
            soft_expected = (
                2 * bound**2 * r / (tau**2 * (1 - gamma) ** 2) * (3 + 4 * gamma / (1 - gamma))
            )
            assert gauss == pytest.approx(gauss_expected, rel=1e-12)
            assert soft == pytest.approx(soft_expected, rel=1e-12)


class TestExactBound:
    def test_example_value(self):
        assert exact_improvement_bound(0.5, 1.0, 2.0) == pytest.approx(0.25)

    def test_zero_step(self):
        assert exact_improvement_bound(0.0, 3.0, 2.0) == 0.0

    def test_vanishes_at_twice_optimal_step(self):
        assert exact_improvement_bound(1.0, 1.0, 2.0) == 0.0


class TestOptimalStepExact:
    def test_inverse_of_lipschitz(self):
        alpha = optimal_step_exact(10.0)
        assert alpha == 0.1
        assert exact_improvement_bound(alpha, 2.0, 10.0) == pytest.approx(4.0 / 20.0)

    def test_dominates_grid(self):
        lip, grad_norm = 3.7, 1.4
        best = exact_improvement_bound(1.0 / lip, grad_norm, lip)
        _, _, grid_best = grid_maximize(
            lambda a: exact_improvement_bound(a, grad_norm, lip), (0.0, 3.0 / lip)
        )
        assert best >= grid_best - 1e-15

    def test_monotone_in_lipschitz(self):
        alphas = [optimal_step_exact(l) for l in (1.0, 10.0, 100.0, 1e6)]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            optimal_step_exact(0.0)


class TestStochasticBound:
    def test_example_value(self):
        assert stochastic_improvement_bound(0.5, 1.0, 1.0, 4, 1.0) == pytest.approx(0.125)

    def test_zero_margin_never_positive(self):
        # estimate norm equals the error level: no alpha can certify progress
        for alpha in np.linspace(0.0, 2.0, 50):
            value = stochastic_improvement_bound(alpha, 1.0, 2.0, 4, 1.0)
            assert value <= 0.0
        assert stochastic_improvement_bound(0.0, 1.0, 2.0, 4, 1.0) == 0.0

    def test_reduces_to_exact_bound_without_error(self):
        for alpha in np.linspace(0.0, 1.0, 25):
            stochastic = stochastic_improvement_bound(alpha, 1.3, 0.0, 7, 2.0)
            exact = exact_improvement_bound(alpha, 1.3, 2.0)
            assert stochastic == pytest.approx(exact, rel=1e-12, abs=1e-15)

    def test_max_branch_selection(self):
        # below the error level the averaged branch is the active one
        value = stochastic_improvement_bound(1.0, 0.5, 2.0, 1, 0.0)
        assert value == pytest.approx((0.5 - 2.0) * (0.5 + 2.0) / 2.0)


class TestOptimalStepAndBatch:
    """The jointly optimal (alpha, N) and its guarantee: ``certified_step``,
    ``required_batch_size`` and ``certified_improvement``."""

    def test_example_values(self):
        alpha, batch = certified_step(2.0), required_batch_size(2.0, 10.0)
        assert alpha == 0.25
        assert batch == 100
        assert certified_improvement(2.0, 2.0) == 0.25
        improvement = stochastic_improvement_bound(alpha, 2.0, 10.0, batch, 2.0)
        assert improvement == pytest.approx(4.0 / 16.0)

    def test_scaling_law(self):
        # doubling the estimate's norm quarters the batch and quadruples the guarantee
        assert required_batch_size(2.0, 10.0) * 4 == required_batch_size(1.0, 10.0)
        assert certified_improvement(2.0, 2.0) == 4 * certified_improvement(1.0, 2.0)

    def test_zero_gradient_signalled(self):
        assert required_batch_size(0.0, 1.0) is None
        for lip in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="no certified step exists"):
                certified_step(lip)

    def test_required_batch_size(self):
        assert required_batch_size(2.0, 10.0) == 100
        assert required_batch_size(0.0, 10.0) is None
        assert required_batch_size(1e9, 1e-9) == 1

    @pytest.mark.parametrize(
        "norm, eps",
        [
            (1e-160, 1.0),  # ||g||^2 is subnormal, 4 eps^2 / ||g||^2 overflows
            (1e-170, 1.0),  # ||g||^2 underflows to 0
            (1e-10, 1e150),  # the quotient overflows
            (1.0, 1e154),  # 4 eps^2 overflows
            (1.0, 1e160),  # eps^2 is past the float range
            (1e160, 1.0),  # ||g||^2 is past the float range: no certificate, not an error
            (math.inf, 1.0),
            (math.nan, 1.0),
        ],
    )
    def test_no_finite_batch_is_none(self, norm, eps):
        assert required_batch_size(norm, eps) is None

    def test_stop_never_certifies_a_row_without_a_batch(self):
        # rows 1 and 2 pass the stop's screen (S^2 overflows to inf), but at
        # eps = 1e154 the rule has no finite batch for any row
        sums = np.array([[1.3e154, 0.0], [2e154, 0.0], [3e154, 0.0]])
        counts = np.array([1.0, 2.0, 3.0])
        norms = [float(np.linalg.norm(s / w)) for s, w in zip(sums, counts)]
        assert [required_batch_size(norm, 1e154) for norm in norms] == [None] * 3
        assert safe_updates._first_certified(1e154)(counts, sums) is None
        # at eps = 1 the rule asks one trajectory of every row
        assert safe_updates._first_certified(1.0)(counts, sums) == 0

    def test_stop_never_certifies_an_infinite_norm(self):
        # S^2 and the norm of S / N overflow: no warning, and no certificate
        # for the first row; the second row's norm is finite and certifies
        sums = np.array([[1e200, 0.0], [1e150, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert safe_updates._first_certified(1.0)(np.array([1]), sums[:1]) is None
            assert safe_updates._first_certified(1.0)(np.array([1, 2]), sums) == 1


class TestSpgRun:
    def test_constant_reward_stalls_without_update(self):
        mdp = make_bandit([0.5, 0.5], gamma=0.5, horizon=1)
        inst_policy = SoftmaxPolicy(
            TabularFeatures(1, 2), feature_bound=1.0, tau=1.0, n_actions=2, n_states=1
        )
        theta0 = np.array([0.1, -0.2])
        result = spg_run(
            EnumerableEnv(mdp),
            inst_policy,
            theta0,
            n_iterations=1,
            delta=0.2,
            limits=RunLimits(max_trajectories_per_iteration=2000),
            seed=5,
        )
        record = result.records[0]
        assert record.stalled
        assert record.batch_size == 2000
        assert record.guaranteed_improvement == 0.0
        np.testing.assert_array_equal(result.thetas[-1], theta0)

    @pytest.mark.parametrize("theta", [360.0, 376.0, 400.0])
    def test_tiny_estimate_forecasts_no_finite_batch(self, theta):
        # at theta = (360, 0) the scores are ~1e-157, so 4 eps^2 / ||g||^2
        # overflows; at (400, 0) they are ~2e-174, and ||g||^2 underflows to 0
        # and with it the norm (the sqrt of the square).  At (376, 0) the
        # running sums S have S^2 > 0 on almost every row while the estimate's
        # (S / w)^2 is 0, so the stop's screen must not certify them.  Each way
        # the blocks after the pilot take ROLLOUT_ROWS rows and the iteration
        # stalls at the cap
        mdp = make_bandit([1.0, 0.0], gamma=0.5, horizon=1)
        policy = SoftmaxPolicy(
            TabularFeatures(1, 2), feature_bound=1.0, tau=1.0, n_actions=2, n_states=1
        )
        result = spg_run(
            EnumerableEnv(mdp), policy, np.array([theta, 0.0]), n_iterations=1, delta=0.5,
            limits=RunLimits(max_trajectories_per_iteration=5000), seed=5,
        )
        assert result.records[0].grad_norm < 1e-150
        assert result.records[0].stalled and result.records[0].batch_size == 5000

    def test_forecast_rows_at_extreme_norms(self):
        rows = safe_updates.ROLLOUT_ROWS
        # no finite batch: a zero norm, or one whose square underflows to 0
        assert safe_updates._forecast_rows(0.0, 1.0, 10) == rows
        assert safe_updates._forecast_rows(1e-170, 1.0, 10) == rows
        # 4 eps^2 / ||g||^2 = 1e4 rows, 2e3 of them drawn
        assert safe_updates._forecast_rows(0.02, 1.0, 2000) == rows
        assert safe_updates._forecast_rows(0.02, 1.0, 8000) == 2100

    def test_loop_postcondition_and_certified_rows(self, bandit):
        result = spg_run(
            bandit.env, bandit.policy, np.zeros(1), n_iterations=4, delta=0.2, seed=17
        )
        eps = result.eps_delta
        lip = result.lipschitz
        # the float the run log records as L
        derived = render_run_csv(result, {}).splitlines()[1].removeprefix("# derived: ")
        assert type(lip) is float and float(dict(f.split("=") for f in derived.split())["L"]) == lip
        cum_prev = 0
        for record in result.records:
            assert record.cum_trajectories >= cum_prev
            cum_prev = record.cum_trajectories
            if not record.stalled:
                assert record.batch_size >= math.ceil(4 * eps**2 / record.grad_norm**2)
                assert record.guaranteed_improvement == pytest.approx(
                    record.grad_norm**2 / (8 * lip)
                )
                assert record.guaranteed_improvement > 0.0

    def test_run_csv_round_trips_edge_values(self, bandit, tmp_path):
        result = spg_run(bandit.env, bandit.policy, np.zeros(1), n_iterations=1, delta=0.2, seed=17)
        edges = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]
        # each edge value in each float column, and both values of stalled
        result.records = [
            RunRecord(
                iteration=k,
                batch_size=k + 1,
                alpha=edges[k],
                grad_norm=edges[k - 1],
                j_hat=edges[k - 2],
                guaranteed_improvement=edges[k - 3],
                cum_trajectories=2**63 + k,
                stalled=k % 2 == 1,
            )
            for k in range(len(edges))
        ]
        path = tmp_path / "run.csv"
        write_run_csv(str(path), result, {"seed": 17})
        read = read_run_csv(str(path)).records
        assert len(read) == len(result.records)
        for written, parsed in zip(result.records, read):
            for name in (f.name for f in dataclasses.fields(RunRecord)):
                expected, got = getattr(written, name), getattr(parsed, name)
                assert type(got) is type(expected), name
                # hex tells -0.0 from 0.0 and shows every bit
                assert (got.hex() == expected.hex()) if type(got) is float else got == expected

    @pytest.mark.parametrize(
        "body, message",
        [
            pytest.param("iteration,batch_size\n", "unexpected CSV header", id="wrong-header"),
            pytest.param(",".join(RUN_CSV_COLUMNS) + "\n1,2,3\n", "malformed CSV row", id="short-row"),
            pytest.param("", "contains no CSV header", id="no-header"),
        ],
    )
    def test_read_run_csv_rejects_malformed_logs(self, tmp_path, body, message):
        path = tmp_path / "run.csv"
        path.write_text("# config: {}\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            read_run_csv(str(path))

    def test_total_cap_stops_run(self, bandit):
        result = spg_run(
            bandit.env,
            bandit.policy,
            np.zeros(1),
            n_iterations=50,
            delta=0.2,
            limits=RunLimits(max_total_trajectories=8000),
            seed=17,
        )
        assert result.records[-1].cum_trajectories <= 8000
        assert len(result.records) < 50

    def test_deterministic_given_seed(self, bandit):
        kwargs = dict(n_iterations=2, delta=0.3, seed=99)
        first = spg_run(bandit.env, bandit.policy, np.zeros(1), **kwargs)
        second = spg_run(bandit.env, bandit.policy, np.zeros(1), **kwargs)
        assert first.records == second.records
        for a, b in zip(first.thetas, second.thetas):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ["bandit", "lqg"])
    def test_theta_of_wrong_shape_rejected(self, name):
        env, policy = INSTANCES[name]()
        with pytest.raises(ConfigurationError, match="policy expects"):
            spg_run(env, policy, np.zeros(policy.dim + 1), n_iterations=1, delta=0.5, seed=0)

    def test_zero_lipschitz_rejected(self, bandit):
        degenerate = SoftmaxPolicy(
            TabularFeatures(1, 2), feature_bound=0.0, tau=1.0, n_actions=2, n_states=1
        )
        with pytest.raises(ConfigurationError):
            spg_run(bandit.env, degenerate, np.zeros(2), n_iterations=1, delta=0.2, seed=0)


class TestFixedMetaRun:
    def test_baseline_is_coerced_and_checked(self):
        assert MetaParams(alpha=0.1, batch_size=5).baseline is BaselineKind.ZERO
        fixed = MetaParams(alpha=0.1, batch_size=5, baseline="peters")
        assert fixed.baseline is BaselineKind.PETERS
        assert fixed == MetaParams(alpha=0.1, batch_size=5, baseline=BaselineKind.PETERS)
        with pytest.raises(ConfigurationError, match="unknown baseline 'median'"):
            MetaParams(alpha=0.1, batch_size=5, baseline="median")

    @pytest.mark.parametrize(
        "count", [2.5, 40.0, True, np.float64(40.0), "40", None],
        ids=["2.5", "40.0", "True", "float64", "str", "None"],
    )
    def test_counts_must_be_integers(self, count):
        # a float count used to construct and then fail inside numpy; True ran batches of 1
        with pytest.raises(ConfigurationError, match=r"^batch_size must be an integer, got "):
            MetaParams(alpha=0.1, batch_size=count)
        for field in ("max_trajectories_per_iteration", "max_total_trajectories"):
            with pytest.raises(ConfigurationError, match=rf"^{field} must be an integer, got "):
                RunLimits(**{field: count})

    def test_numpy_integer_counts_are_ints(self, bandit):
        fixed = MetaParams(alpha=0.02, batch_size=np.int64(40))
        limits = RunLimits(np.int32(100), np.uint64(10_000))
        assert type(fixed.batch_size) is int and fixed == MetaParams(alpha=0.02, batch_size=40)
        assert limits == RunLimits(100, 10_000)
        assert all(type(cap) is int for cap in dataclasses.astuple(limits))
        runs = [
            spg_run(bandit.env, bandit.policy, np.zeros(1), n_iterations=2, delta=0.5,
                    fixed=f, limits=l, seed=3)
            for f, l in ((fixed, limits), (MetaParams(alpha=0.02, batch_size=40), RunLimits(100, 10_000)))
        ]
        assert runs[0].records == runs[1].records

    def test_baseline_is_not_a_run_parameter(self, bandit):
        # a certified run always estimates with the zero baseline; only a
        # fixed schedule carries another
        with pytest.raises(TypeError, match="baseline"):
            spg_run(
                bandit.env, bandit.policy, np.zeros(1), n_iterations=1, delta=0.5,
                baseline=BaselineKind.PETERS,
            )

    def test_runs_requested_iterations(self, bandit):
        result = spg_run(
            bandit.env, bandit.policy, np.zeros(1), n_iterations=5, delta=0.5,
            fixed=MetaParams(alpha=0.02, batch_size=40), seed=3,
        )
        assert len(result.records) == 5
        assert all(r.batch_size == 40 for r in result.records)
        assert all(not r.stalled for r in result.records)
        assert result.records[-1].cum_trajectories == 200

    def test_respects_total_cap(self, bandit):
        result = spg_run(
            bandit.env, bandit.policy, np.zeros(1), n_iterations=10, delta=0.5,
            fixed=MetaParams(alpha=0.02, batch_size=40),
            limits=RunLimits(max_total_trajectories=100), seed=3,
        )
        assert len(result.records) == 2


def one_at_a_time(env, policy, theta0, n_iterations, delta, kind, limits, seed, fixed=None):
    """(records, thetas) of the rule checked after every single trajectory:
    trajectory i of iteration k is one row through ``sample_block`` on row i
    of iteration k's ``UniformRows``, added with ``add_block``."""
    theta = np.asarray(theta0, dtype=float).copy()
    constants = policy.smoothing_constants()
    lip = lipschitz_constant(constants, env.spec)
    eps = error_bound(variance_bound(kind, env.spec, constants.kappa), delta)
    alpha = 1.0 / (2.0 * lip) if fixed is None else fixed.alpha
    baseline = BaselineKind.ZERO if fixed is None else fixed.baseline
    records, thetas, total = [], [theta.copy()], 0
    for k in range(n_iterations):
        if fixed is not None and total + fixed.batch_size > limits.max_total_trajectories:
            break
        acc = GradientAccumulator(policy, theta, env.spec.gamma, kind, baseline)
        actor = policy.actor(theta)
        width = row_draws(env, actor)
        stalled = False
        while True:
            if (
                acc.count >= limits.max_trajectories_per_iteration
                or total >= limits.max_total_trajectories
            ):
                stalled = True
                break
            acc.add_block(*sample_block(env, actor, UniformRows(seed, k, width).take(acc.count, 1)))
            total += 1
            if fixed is None:
                needed = required_batch_size(acc.finalize().norm, eps)
            else:
                needed = fixed.batch_size
            if needed is not None and acc.count >= needed:
                break
        if acc.count == 0:
            break
        estimate = acc.finalize()
        guaranteed = 0.0
        if not stalled:
            if fixed is None:
                guaranteed = estimate.norm**2 / (8.0 * lip)
            theta = theta + alpha * estimate.vector
        records.append(
            RunRecord(
                iteration=k,
                batch_size=acc.count,
                alpha=alpha,
                grad_norm=estimate.norm,
                j_hat=acc.mean_return(),
                guaranteed_improvement=guaranteed,
                cum_trajectories=total,
                stalled=stalled,
            )
        )
        thetas.append(theta.copy())
        if total >= limits.max_total_trajectories:
            break
    return records, thetas


def _discrete(build):
    def make():
        inst = build()
        return inst.env, inst.policy

    return make


INSTANCES = {
    "bandit": _discrete(bandit_instance),
    "chain": _discrete(chain_instance),
    "two-state": _discrete(two_state_instance),
    "binned-gaussian": _discrete(binned_gaussian_instance),
    "lqg": lqg_instance,
}


def assert_same_run(result, records, thetas):
    assert result.records == records
    assert len(result.thetas) == len(thetas)
    for got, want in zip(result.thetas, thetas):
        np.testing.assert_array_equal(got, want)


class TestBlockSamplingIsExact:
    """spg_run samples blocks; its records equal the one-at-a-time loop's."""

    LIMITS = RunLimits(max_trajectories_per_iteration=2500, max_total_trajectories=5000)

    @pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("name", list(INSTANCES))
    def test_certified_run_matches_reference(self, name, kind):
        # delta = 0.9 keeps N small enough that most cases certify updates;
        # chain and two-state GPOMDP stall at the per-iteration cap
        env, policy = INSTANCES[name]()
        theta0 = np.full(policy.dim, 0.3)
        args = (env, policy, theta0, 3, 0.9, kind, self.LIMITS, 11)
        records, thetas = one_at_a_time(*args)
        result = spg_run(*args[:5], estimator_kind=kind, limits=self.LIMITS, seed=11)
        assert_same_run(result, records, thetas)
        assert records[-1].cum_trajectories <= self.LIMITS.max_total_trajectories

    @pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("name", ["chain", "binned-gaussian", "lqg"])
    def test_fixed_schedule_with_peters_baseline(self, name, kind):
        env, policy = INSTANCES[name]()
        fixed = MetaParams(alpha=0.05, batch_size=700, baseline=BaselineKind.PETERS)
        limits = RunLimits(max_trajectories_per_iteration=1000, max_total_trajectories=2500)
        theta0 = np.zeros(policy.dim)
        records, thetas = one_at_a_time(env, policy, theta0, 4, 0.5, kind, limits, 5, fixed)
        result = spg_run(
            env, policy, theta0, 4, 0.5, estimator_kind=kind, limits=limits, seed=5, fixed=fixed
        )
        assert_same_run(result, records, thetas)
        assert [r.batch_size for r in records] == [700, 700, 700]

    @pytest.mark.parametrize("baseline", list(BaselineKind), ids=lambda b: b.value)
    @pytest.mark.parametrize("name", ["bandit", "chain"])
    def test_fixed_schedule_across_blocks(self, name, baseline, monkeypatch):
        # N = 155 spans several blocks under each patched pilot (3, 32 and 100
        # rows) and is a multiple of none; the total cap of 500 refuses the
        # fourth iteration, whose batch would cross it
        env, policy = INSTANCES[name]()
        fixed = MetaParams(alpha=0.05, batch_size=155, baseline=baseline)
        limits = RunLimits(max_trajectories_per_iteration=200, max_total_trajectories=500)
        kind, theta0 = EstimatorKind.REINFORCE, np.zeros(policy.dim)
        records, thetas = one_at_a_time(env, policy, theta0, 5, 0.5, kind, limits, 4, fixed)
        assert [r.cum_trajectories for r in records] == [155, 310, 465]
        for bound in (7, 64, 200):
            monkeypatch.setattr(safe_updates, "ROLLOUT_ROWS", bound)
            result = spg_run(
                env, policy, theta0, 5, 0.5, estimator_kind=kind, limits=limits, seed=4, fixed=fixed
            )
            assert_same_run(result, records, thetas)

    def test_per_iteration_cap_stall(self):
        env, policy = INSTANCES["chain"]()
        limits = RunLimits(max_trajectories_per_iteration=300, max_total_trajectories=10_000)
        args = (env, policy, np.zeros(policy.dim), 2, 0.5, EstimatorKind.GPOMDP, limits, 3)
        records, thetas = one_at_a_time(*args)
        assert [(r.batch_size, r.stalled) for r in records] == [(300, True), (300, True)]
        assert_same_run(spg_run(*args[:5], limits=limits, seed=3), records, thetas)

    def test_total_cap_hit_mid_iteration(self):
        env, policy = INSTANCES["bandit"]()
        limits = RunLimits(max_trajectories_per_iteration=100_000, max_total_trajectories=3000)
        args = (env, policy, np.zeros(policy.dim), 5, 0.5, EstimatorKind.GPOMDP, limits, 8)
        records, thetas = one_at_a_time(*args)
        assert not records[0].stalled
        assert records[-1].stalled and records[-1].cum_trajectories == 3000
        assert 0 < records[-1].batch_size < 3000
        assert_same_run(spg_run(*args[:5], limits=limits, seed=8), records, thetas)

    @pytest.mark.parametrize("name", ["bandit", "chain", "lqg"])
    def test_block_bound_does_not_change_records(self, name, monkeypatch):
        # REINFORCE at delta = 0.9 certifies every bandit update and one lqg
        # update inside a block; chain stalls at the per-iteration cap, which
        # the default 2048-row block and 4096 both cross
        env, policy = INSTANCES[name]()
        limits = RunLimits(max_trajectories_per_iteration=2000, max_total_trajectories=5000)
        runs = []
        for bound in (1, 7, 512, 2048, 4096):
            monkeypatch.setattr(safe_updates, "ROLLOUT_ROWS", bound)
            runs.append(
                spg_run(
                    env, policy, np.full(policy.dim, 0.2), 3, 0.9,
                    estimator_kind=EstimatorKind.REINFORCE, limits=limits, seed=21,
                )
            )
        for other in runs[1:]:
            assert_same_run(other, runs[0].records, runs[0].thetas)
        assert any(not r.stalled for r in runs[0].records) == (name != "chain")

    def test_one_row_source_per_iteration(self, monkeypatch):
        # every block of an iteration reads on from the iteration's one generator
        built, reads = [], []

        class Counting(safe_updates.UniformRows):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

            def take(self, first, n, out=None):
                reads.append(first)
                return super().take(first, n, out)

        monkeypatch.setattr(safe_updates, "UniformRows", Counting)
        env, policy = INSTANCES["bandit"]()
        result = spg_run(env, policy, np.zeros(policy.dim), 3, 0.5, seed=8)
        assert [args[:2] for args in built] == [(8, 0), (8, 1), (8, 2)]
        assert len(reads) > len(built)
        assert all(not r.stalled for r in result.records)

    @pytest.mark.parametrize("name", ["bandit", "chain", "lqg"])
    def test_certified_update_memory_is_bounded(self, name):
        # one certified update of each shipped config holds one rollout block
        # of at most ROLLOUT_ROWS rows at a time, however many rows the stop
        # needs (1.9k / 30k / 12k): at 4096 rows the peak is ~0.23 / 2.1 /
        # 2.3 MiB, in one block of the per-iteration cap 11 / 34 / 52 MiB
        config = load_config(str(CONFIGS / f"{name}.yaml"))
        built = build_experiment(config)
        tracemalloc.start()
        try:
            result = spg_run(
                built.env, built.policy, built.theta0, 1, config.delta,
                estimator_kind=config.estimator_kind, limits=config.limits, seed=config.seed,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not result.records[0].stalled
        assert peak < 4 * 2**20, f"{name} peaked at {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize(
        "name, delta", [("bandit", 0.5), ("bandit", 0.2), ("chain", None), ("lqg", None)]
    )
    def test_blocks_follow_the_stop_rule_forecast(self, name, delta, monkeypatch):
        # a pilot of ROLLOUT_ROWS // 2 rows, then blocks of the rows the stop
        # rule forecasts: none longer than ROLLOUT_ROWS, and few rows rolled
        # out past the stops of a whole shipped run
        sizes = []

        def counting(env, actor, draws, out=None):
            sizes.append(len(draws))
            return sample_block(env, actor, draws, out)

        monkeypatch.setattr(safe_updates, "sample_block", counting)
        config = load_config(str(CONFIGS / f"{name}.yaml"))
        built = build_experiment(config)
        result = spg_run(
            built.env, built.policy, built.theta0, config.iterations, delta or config.delta,
            estimator_kind=config.estimator_kind, limits=config.limits, seed=config.seed,
        )
        assert not any(r.stalled for r in result.records)
        assert sizes[0] == safe_updates.ROLLOUT_ROWS // 2
        assert max(sizes) <= safe_updates.ROLLOUT_ROWS
        assert sum(sizes) <= 1.10 * result.records[-1].cum_trajectories


class TestBlockPathErrors:
    """Typed errors from the array methods, with no numpy warning."""

    @pytest.fixture(autouse=True)
    def no_scalar_rollout(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("spg_run left the block path")

        monkeypatch.setattr(safe_updates, "sample_trajectory", refuse)

    @staticmethod
    def run_lqg(policy, theta0, **kwargs):
        env = Lqg1dEnv(Lqg1dConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return spg_run(env, policy, np.asarray(theta0), 1, 0.5, seed=2, **kwargs)

    def test_gaussian_mean_overflow(self):
        policy = GaussianPolicy(PolynomialFeatures(1, scale=2.0), feature_bound=2.0, sigma=0.5)
        with pytest.raises(NumericError, match="non-finite policy mean"):
            self.run_lqg(policy, [1e308])

    def test_feature_bound_breach(self):
        policy = GaussianPolicy(PolynomialFeatures(1), feature_bound=0.5, sigma=0.5)
        with pytest.raises(ConfigurationError, match="exceeds feature_bound"):
            self.run_lqg(policy, [0.0])

    def test_non_finite_lqg_action(self):
        policy = GaussianPolicy(PolynomialFeatures(1), feature_bound=1.0, sigma=1e308)
        with pytest.raises(NumericError, match="non-finite action"):
            self.run_lqg(policy, [0.0], fixed=MetaParams(alpha=0.1, batch_size=50))
