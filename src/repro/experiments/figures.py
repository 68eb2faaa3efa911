"""One driver per paper figure (plus the ablations of DESIGN.md).

Simulation figures (Fig. 2–3) run over GT-ITM-style random networks; testbed
figures (Fig. 5–7) run inside the :class:`repro.testbed.Testbed` emulator on
the AS1755 overlay, exactly as the paper splits them. Every driver returns
:class:`~repro.experiments.harness.SweepResult` objects that
:func:`repro.experiments.report.render_sweep` prints as the rows the figures
plot.

Every market/algorithm builder here is a module-level function bound with
``functools.partial`` — never a closure — so the sweep grids can cross the
process-pool boundary when ``config.workers`` enables parallel execution
(results are identical at any worker count; see
:mod:`repro.experiments.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.appro import appro
from repro.core.assignment import CachingAssignment
from repro.core.baselines import jo_offload_cache, offload_cache
from repro.core.bounds import appro_ratio_bound, optimal_v, stackelberg_poa_bound
from repro.core.lcf import lcf
from repro.core.optimal import optimal_caching
from repro.core.virtual_cloudlets import VirtualCloudletSplit
from repro.experiments.harness import (
    AlgorithmMetrics,
    AlgorithmTable,
    AssignmentRecord,
    SweepResult,
    default_algorithms,
    evaluate_algorithms,
    sweep,
)
from repro.experiments.parallel import map_tasks
from repro.experiments.settings import ExperimentConfig, PAPER
from repro.game.engine import market_game
from repro.game.poa import worst_equilibrium_cost
from repro.market.costs import LinearCongestion, MM1Congestion, QuadraticCongestion
from repro.market.market import ServiceMarket
from repro.market.workload import WorkloadParams, generate_market
from repro.network.generators import random_mec_network
from repro.testbed.emulator import Testbed


# --------------------------------------------------------------------- #
# Picklable sweep builders (bound with functools.partial per driver)
# --------------------------------------------------------------------- #
def _sized_market(config: ExperimentConfig, size: object, seed: int) -> ServiceMarket:
    """``make_market`` for sweeps whose x-axis is the network size."""
    network = random_mec_network(int(size), rng=seed)
    return generate_market(
        network, config.n_providers, params=config.workload, rng=seed + 1
    )


def _fixed_size_market(config: ExperimentConfig, _x: object, seed: int) -> ServiceMarket:
    """``make_market`` for sweeps at the fixed default network size."""
    network = random_mec_network(config.default_size, rng=seed)
    return generate_market(
        network, config.n_providers, params=config.workload, rng=seed + 1
    )


def _fixed_xi_algorithms(config: ExperimentConfig, _x: object) -> AlgorithmTable:
    return default_algorithms(config.one_minus_xi, config.allow_remote)


def _swept_xi_algorithms(config: ExperimentConfig, x: object) -> AlgorithmTable:
    return default_algorithms(float(x), config.allow_remote)


# --------------------------------------------------------------------- #
# Simulation figures
# --------------------------------------------------------------------- #
def fig2_network_size(config: ExperimentConfig = PAPER) -> SweepResult:
    """Fig. 2: the three algorithms across network sizes 50–400
    (|N| = 100 providers, 1 - xi = 0.3)."""
    return sweep(
        name="fig2",
        x_label="network size",
        x_values=list(config.network_sizes),
        make_market=partial(_sized_market, config),
        make_algorithms=partial(_fixed_xi_algorithms, config),
        repetitions=config.repetitions,
        workers=config.workers,
    )


def fig3_selfish_fraction(config: ExperimentConfig = PAPER) -> SweepResult:
    """Fig. 3: the impact of ``1 - xi`` at network size 250."""
    return sweep(
        name="fig3",
        x_label="1 - xi",
        x_values=list(config.xi_sweep),
        make_market=partial(_fixed_size_market, config),
        make_algorithms=partial(_swept_xi_algorithms, config),
        repetitions=config.repetitions,
        workers=config.workers,
    )


# --------------------------------------------------------------------- #
# Testbed figures
# --------------------------------------------------------------------- #
def _provider_count_params(
    config: ExperimentConfig, x: object
) -> Tuple[int, WorkloadParams]:
    return int(x), config.workload


def _fixed_provider_params(
    config: ExperimentConfig, _x: object
) -> Tuple[int, WorkloadParams]:
    return config.testbed_providers, config.workload


def _volume_params(config: ExperimentConfig, x: object) -> Tuple[int, WorkloadParams]:
    gb = float(x)
    workload = config.workload.__class__(
        **{
            **config.workload.__dict__,
            "data_volume_gb_range": (gb, gb),
        }
    )
    return config.testbed_providers, workload


def _compute_scale_params(
    config: ExperimentConfig, x: object
) -> Tuple[int, WorkloadParams]:
    return config.testbed_providers, config.workload.scaled(compute_scale=float(x))


def _bandwidth_scale_params(
    config: ExperimentConfig, x: object
) -> Tuple[int, WorkloadParams]:
    return config.testbed_providers, config.workload.scaled(bandwidth_scale=float(x))


def _as_float(x: object) -> float:
    return float(x)


@dataclass(frozen=True)
class _TestbedTask:
    """One (sweep point, repetition) cell of a testbed experiment
    (picklable, like :class:`repro.experiments.parallel.PointTask`)."""

    x_index: int
    rep: int
    x: object
    seed: int
    config: ExperimentConfig
    market_params: Callable[[object], Tuple[int, WorkloadParams]]
    one_minus_xi_of: Optional[Callable[[object], float]]


def _run_testbed_task(
    task: _TestbedTask,
) -> Dict[str, Tuple[AssignmentRecord, float, Dict[str, float]]]:
    """Build the task's seeded testbed + market and run every algorithm.

    Ships back ``(record, controller_runtime_s, flow_metrics)`` per
    algorithm — the slim summary both serial and parallel sweeps aggregate.
    """
    testbed = Testbed(rng=task.seed)
    n_providers, workload = task.market_params(task.x)
    market = generate_market(
        testbed.network, n_providers, params=workload, rng=task.seed + 1
    )
    omx = (
        task.one_minus_xi_of(task.x)
        if task.one_minus_xi_of is not None
        else task.config.one_minus_xi
    )
    algorithms = default_algorithms(omx, task.config.allow_remote)
    for alg_name, alg in algorithms.items():
        testbed.register_algorithm(alg_name, alg)
    out: Dict[str, Tuple[AssignmentRecord, float, Dict[str, float]]] = {}
    for alg_name in algorithms:
        run = testbed.run(alg_name, market)
        out[alg_name] = (
            AssignmentRecord.from_assignment(run.assignment),
            float(run.runtime_s),
            dict(run.flow_metrics),
        )
    return out


def _testbed_sweep(
    name: str,
    x_label: str,
    x_values: Sequence[object],
    config: ExperimentConfig,
    market_params: Callable[[object], Tuple[int, WorkloadParams]],
    one_minus_xi_of: Optional[Callable[[object], float]] = None,
) -> SweepResult:
    """Shared grid of the Fig. 5–7 testbed experiments.

    ``market_params(x)`` maps a sweep value to ``(n_providers, workload)``;
    ``one_minus_xi_of(x)`` optionally makes the selfish fraction the x-axis.
    The ``(x, repetition)`` grid runs through :func:`map_tasks`, so
    ``config.workers`` parallelises it with identical results.
    """
    tasks = [
        _TestbedTask(
            x_index=xi_idx,
            rep=rep,
            x=x,
            # Paired seeds across sweep points (common random numbers).
            seed=config.point_seed(0, rep),
            config=config,
            market_params=market_params,
            one_minus_xi_of=one_minus_xi_of,
        )
        for xi_idx, x in enumerate(x_values)
        for rep in range(config.repetitions)
    ]
    results = map_tasks(_run_testbed_task, tasks, workers=config.workers)

    points: List[Dict[str, AlgorithmMetrics]] = []
    flow_rows: List[Dict[str, Dict[str, float]]] = []
    for xi_idx in range(len(x_values)):
        collected: Dict[
            str, List[Tuple[AssignmentRecord, float, Dict[str, float]]]
        ] = {}
        for task, result in zip(tasks, results):
            if task.x_index != xi_idx:
                continue
            for alg_name, entry in result.items():
                collected.setdefault(alg_name, []).append(entry)
        point: Dict[str, AlgorithmMetrics] = {}
        flows: Dict[str, Dict[str, float]] = {}
        for alg_name, entries in collected.items():
            metrics = AlgorithmMetrics.from_records([e[0] for e in entries])
            # The controller's wall clock is the testbed's runtime metric.
            metrics.runtime_s = float(np.mean([e[1] for e in entries]))
            point[alg_name] = metrics
            flows[alg_name] = {
                key: float(np.mean([e[2][key] for e in entries]))
                for key in entries[0][2]
            }
        points.append(point)
        flow_rows.append(flows)
    return SweepResult(
        name=name,
        x_label=x_label,
        x_values=list(x_values),
        points=points,
        extra={"flow_metrics": flow_rows},
    )


def fig5_testbed(config: ExperimentConfig = PAPER) -> SweepResult:
    """Fig. 5: social cost and running time on the AS1755 testbed
    (1 - xi = 0.3), across the provider population."""
    return _testbed_sweep(
        name="fig5",
        x_label="providers",
        x_values=list(config.provider_sweep),
        config=config,
        market_params=partial(_provider_count_params, config),
    )


def fig6_testbed_parameters(config: ExperimentConfig = PAPER) -> Dict[str, SweepResult]:
    """Fig. 6: testbed parameter studies.

    * ``"a"`` — impact of ``1 - xi`` (social cost; panel (b)'s running
      times are the same sweep's ``runtime_s`` series);
    * ``"c"`` — impact of the number of service-caching requests;
    * ``"d"`` — impact of the update data volume (service data volume 1–5
      GB at the paper's 10% sync ratio).
    """
    fig_a = _testbed_sweep(
        name="fig6a",
        x_label="1 - xi",
        x_values=list(config.xi_sweep),
        config=config,
        market_params=partial(_fixed_provider_params, config),
        one_minus_xi_of=_as_float,
    )
    fig_c = _testbed_sweep(
        name="fig6c",
        x_label="requests (providers)",
        x_values=list(config.provider_sweep),
        config=config,
        market_params=partial(_provider_count_params, config),
    )
    fig_d = _testbed_sweep(
        name="fig6d",
        x_label="update data volume (GB)",
        x_values=list(config.data_volume_sweep),
        config=config,
        market_params=partial(_volume_params, config),
    )
    return {"a": fig_a, "c": fig_c, "d": fig_d}


def fig7_max_demands(config: ExperimentConfig = PAPER) -> Dict[str, SweepResult]:
    """Fig. 7: impact of ``a_max`` (panel a) and ``b_max`` (panel b).

    Scaling the maximum demands shrinks every ``n_i`` (Eq. 7), so the
    approximation has fewer virtual cloudlets to work with and rejects more
    services — the cost grows, verifying Lemma 2's sensitivity."""
    fig_a = _testbed_sweep(
        name="fig7a",
        x_label="a_max scale",
        x_values=list(config.demand_scale_sweep),
        config=config,
        market_params=partial(_compute_scale_params, config),
    )
    fig_b = _testbed_sweep(
        name="fig7b",
        x_label="b_max scale",
        x_values=list(config.bandwidth_scale_sweep),
        config=config,
        market_params=partial(_bandwidth_scale_params, config),
    )
    return {"a": fig_a, "b": fig_b}


# --------------------------------------------------------------------- #
# Ablations (DESIGN.md A1–A4)
# --------------------------------------------------------------------- #
_SELECTION_STRATEGIES = {
    "LCF(largest)": "largest_cost",
    "LCF(smallest)": "smallest_cost",
    "LCF(random)": "random",
}


def _run_lcf_selection(
    config: ExperimentConfig, strategy: str, one_minus_xi: float, market: ServiceMarket
) -> CachingAssignment:
    return lcf(
        market,
        xi=1.0 - one_minus_xi,
        selection=strategy,
        allow_remote=config.allow_remote,
        rng=config.seed,
    ).assignment


def _selection_algorithms(config: ExperimentConfig, x: object) -> AlgorithmTable:
    return {
        name: partial(_run_lcf_selection, config, strategy, float(x))
        for name, strategy in _SELECTION_STRATEGIES.items()
    }


def ablation_selection_strategies(config: ExperimentConfig = PAPER) -> SweepResult:
    """A2: LCF's Largest-Cost-First selection vs smallest-cost vs random."""
    return sweep(
        name="ablation-selection",
        x_label="1 - xi",
        x_values=[0.3, 0.5, 0.7],
        make_market=partial(_fixed_size_market, config),
        make_algorithms=partial(_selection_algorithms, config),
        repetitions=config.repetitions,
        workers=config.workers,
    )


def ablation_congestion_models(config: ExperimentConfig = PAPER) -> SweepResult:
    """A3: the paper's linear congestion vs quadratic vs M/M/1."""
    models = {
        "linear": LinearCongestion(),
        "quadratic": QuadraticCongestion(scale=8.0),
        "mm1": MM1Congestion(capacity=64),
    }

    def make_market_for(model_name: str, seed: int) -> ServiceMarket:
        network = random_mec_network(config.default_size, rng=seed)
        return generate_market(
            network,
            config.n_providers,
            params=config.workload,
            rng=seed + 1,
            congestion=models[model_name],
        )

    points: List[Dict[str, AlgorithmMetrics]] = []
    for model_name in models:
        collected: Dict[str, List[CachingAssignment]] = {}
        for rep in range(config.repetitions):
            seed = config.point_seed(list(models).index(model_name), rep)
            market = make_market_for(model_name, seed)
            algorithms = default_algorithms(
                config.one_minus_xi, config.allow_remote
            )
            for alg, assignment in evaluate_algorithms(market, algorithms).items():
                collected.setdefault(alg, []).append(assignment)
        points.append(
            {
                alg: AlgorithmMetrics.from_assignments(assignments)
                for alg, assignments in collected.items()
            }
        )
    return SweepResult(
        name="ablation-congestion",
        x_label="congestion model",
        x_values=list(models),
        points=points,
    )


def _run_appro_solver(
    config: ExperimentConfig, gap_solver: str, market: ServiceMarket
) -> CachingAssignment:
    return appro(market, gap_solver=gap_solver, allow_remote=config.allow_remote)


def _gap_algorithms(config: ExperimentConfig, _x: object) -> AlgorithmTable:
    return {
        "Appro(shmoys_tardos)": partial(_run_appro_solver, config, "shmoys_tardos"),
        "Appro(greedy)": partial(_run_appro_solver, config, "greedy"),
    }


def ablation_gap_solvers(config: ExperimentConfig = PAPER) -> SweepResult:
    """A4: the GAP engine inside Appro — Shmoys–Tardos vs greedy."""
    return sweep(
        name="ablation-gap",
        x_label="variant",
        x_values=["default"],
        make_market=partial(_fixed_size_market, config),
        make_algorithms=partial(_gap_algorithms, config),
        repetitions=config.repetitions,
        workers=config.workers,
    )


def ablation_topologies(config: ExperimentConfig = PAPER) -> SweepResult:
    """A5: the Fig. 2 ordering across topology families.

    GT-ITM transit-stub (the paper's), Waxman flat-random and
    Barabási–Albert scale-free — the algorithms should keep their ordering
    regardless of where the cloudlets live."""
    models = ("transit_stub", "waxman", "scale_free")

    points: List[Dict[str, AlgorithmMetrics]] = []
    for model in models:
        collected: Dict[str, List[CachingAssignment]] = {}
        for rep in range(config.repetitions):
            seed = 7_919 * rep + 13
            network = random_mec_network(config.default_size, rng=seed, model=model)
            market = generate_market(
                network, config.n_providers, params=config.workload, rng=seed + 1
            )
            algorithms = default_algorithms(
                config.one_minus_xi, config.allow_remote
            )
            for alg, assignment in evaluate_algorithms(market, algorithms).items():
                collected.setdefault(alg, []).append(assignment)
        points.append(
            {
                alg: AlgorithmMetrics.from_assignments(assignments)
                for alg, assignments in collected.items()
            }
        )
    return SweepResult(
        name="ablation-topology",
        x_label="topology model",
        x_values=list(models),
        points=points,
    )


def poa_study(
    n_providers: int = 8,
    n_nodes: int = 30,
    repetitions: int = 5,
    seed: int = 11,
) -> Dict[str, float]:
    """A1: empirical approximation ratio and PoA against the closed forms.

    Returns the measured worst ratios against the exact optimum (the
    Eq. 6 MILP) plus the Lemma 2 / Theorem 1 bounds, and the worst
    certified gap of marginal-priced Appro against the LP lower bound.
    """
    from repro.core.lower_bound import social_cost_lower_bound

    ratio_worst = 0.0
    poa_worst = 0.0
    bound_ratio = 0.0
    bound_poa = 0.0
    certified_gap_worst = 0.0
    xi = 0.5
    for rep in range(repetitions):
        network = random_mec_network(n_nodes, rng=seed + rep)
        market = generate_market(network, n_providers, rng=seed + 100 + rep)
        optimum = optimal_caching(market)
        opt_cost = optimum.social_cost

        approx = appro(market, slot_pricing="flat")
        ratio_worst = max(ratio_worst, approx.social_cost / opt_cost)

        marginal = appro(market, slot_pricing="marginal")
        lb = social_cost_lower_bound(market)
        certified_gap_worst = max(certified_gap_worst, marginal.social_cost / lb)

        split = VirtualCloudletSplit(market)
        bound_ratio = max(bound_ratio, appro_ratio_bound(split.delta, split.kappa))
        bound_poa = max(
            bound_poa, stackelberg_poa_bound(split.delta, split.kappa, xi)
        )

        game = market_game(market)
        worst, _ = worst_equilibrium_cost(game, trials=10, rng=seed + rep)
        poa_worst = max(poa_worst, worst / opt_cost)

    return {
        "empirical_appro_ratio": ratio_worst,
        "lemma2_bound": bound_ratio,
        "empirical_poa": poa_worst,
        "theorem1_bound": bound_poa,
        "optimal_v": optimal_v(xi),
        "appro_marginal_certified_gap": certified_gap_worst,
    }


__all__ = [
    "ablation_topologies",
    "fig2_network_size",
    "fig3_selfish_fraction",
    "fig5_testbed",
    "fig6_testbed_parameters",
    "fig7_max_demands",
    "ablation_selection_strategies",
    "ablation_congestion_models",
    "ablation_gap_solvers",
    "poa_study",
]
