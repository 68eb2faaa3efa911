"""Extension benchmark — the dynamic market.

Two questions, one per test:

1. **Throughput** — what did the mutation protocol buy? Epochs/sec of the
   replan policy under three arms: the object-graph oracle
   (``ObjectRebuildSimulation``: market object graph rebuilt and LCF
   cold-started every epoch), delta-patched compiled
   tables with cold replans, and delta + warm-started replans (survivors
   keep strategies, the GAP LP is skipped). The acceptance bar for PR 4 is
   delta+warm >= 5x the cold rebuild.
2. **Quality** — the stability/optimality trade-off implied by the paper's
   "temporarily cached" services: replan vs hysteresis vs incremental.

Results land in ``BENCH_dynamics.json`` next to this file.
"""

import time

from repro.dynamics import DynamicMarketSimulation, PopulationProcess
from repro.network.generators import random_mec_network
from repro.utils.tables import Table

from benchmarks.conftest import bench_path, record_bench
from tests.oracles.object_graph_reference import ObjectRebuildSimulation

RESULTS_PATH = bench_path("BENCH_dynamics.json")

N_NODES = 100
EPOCHS = 12
ARRIVAL_RATE = 5.0
MEAN_LIFETIME = 8.0
INITIAL_POPULATION = 40


def _record(section: str, payload: dict) -> None:
    record_bench("BENCH_dynamics.json", section, payload)


def _best_of(fn, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _network():
    return random_mec_network(N_NODES, rng=1)


def _run(
    network, policy, simulation=DynamicMarketSimulation, warm_start=True, **kwargs
):
    population = PopulationProcess(
        network, arrival_rate=ARRIVAL_RATE, mean_lifetime=MEAN_LIFETIME,
        rng=3, initial_population=INITIAL_POPULATION,
    )
    sim = simulation(
        network, population, policy=policy, warm_start=warm_start, **kwargs,
    )
    return sim.run(EPOCHS)


def test_bench_epochs_per_second(emit):
    """Cold rebuild vs delta-patched vs delta+warm, replan policy."""
    network = _network()
    arms = {
        "cold_object_rebuild": dict(
            simulation=ObjectRebuildSimulation, warm_start=False
        ),
        "cold_compiled_delta": dict(warm_start=False),
        "warm_compiled_delta": dict(warm_start=True),
    }
    times = {
        name: _best_of(lambda kw=kw: _run(network, "replan", **kw))
        for name, kw in arms.items()
    }
    eps = {name: EPOCHS / t for name, t in times.items()}
    speedup = {
        name: eps[name] / eps["cold_object_rebuild"] for name in arms
    }

    table = Table(["arm", "time (s)", "epochs/sec", "speedup"])
    for name in arms:
        table.add_row([name, times[name], eps[name], speedup[name]])
    emit(table.render(
        title=f"[dynamics] replan throughput, {EPOCHS} epochs, "
              f"{N_NODES} nodes, pop ~{INITIAL_POPULATION}"
    ))

    _record("throughput", {
        "epochs": EPOCHS,
        "n_nodes": N_NODES,
        "initial_population": INITIAL_POPULATION,
        "seconds": times,
        "epochs_per_sec": eps,
        "speedup_vs_cold": speedup,
    })

    # PR 4's acceptance bar: delta-patched tables + warm-started replans
    # beat the full cold recompile by at least 5x.
    assert speedup["warm_compiled_delta"] >= 5.0, speedup
    # ...and the delta patching alone must never be a regression.
    assert speedup["cold_compiled_delta"] >= 1.0, speedup


def test_bench_policy_tradeoff(emit):
    """Replan vs hysteresis vs incremental: cost, migrations, replans."""
    network = _network()
    summaries = {}
    times = {}
    for policy in ("replan", "hysteresis", "incremental"):
        t0 = time.perf_counter()
        summaries[policy] = _run(network, policy)
        times[policy] = time.perf_counter() - t0

    table = Table([
        "policy", "total cost", "social/epoch", "migrations",
        "migration $", "replans", "epochs/sec",
    ])
    for policy, summary in summaries.items():
        table.add_row([
            policy,
            summary.total_cost,
            summary.mean_social_cost,
            summary.total_migrations,
            summary.total_migration_cost,
            summary.total_replans,
            EPOCHS / times[policy],
        ])
    emit(table.render(
        title=f"[dynamics] policy trade-off, {EPOCHS} epochs"
    ))

    _record("policies", {
        policy: {
            "total_cost": summary.total_cost,
            "mean_social_cost": summary.mean_social_cost,
            "migrations": summary.total_migrations,
            "migration_cost": summary.total_migration_cost,
            "replans": summary.total_replans,
            "epochs_per_sec": EPOCHS / times[policy],
        }
        for policy, summary in summaries.items()
    })

    replan = summaries["replan"]
    hysteresis = summaries["hysteresis"]
    incremental = summaries["incremental"]
    # Replanning buys per-epoch quality; incremental never migrates;
    # hysteresis sits in between on both axes. The warm replan is a
    # heuristic, so the hysteresis comparisons get 5% slack — a lucky
    # anchor can nose ahead of epoch-by-epoch replanning.
    assert replan.mean_social_cost <= incremental.mean_social_cost
    assert replan.mean_social_cost <= hysteresis.mean_social_cost * 1.05
    assert hysteresis.mean_social_cost <= incremental.mean_social_cost * 1.05
    assert incremental.total_migrations == 0
    assert incremental.total_replans == 0
    assert 0 < hysteresis.total_replans <= EPOCHS
