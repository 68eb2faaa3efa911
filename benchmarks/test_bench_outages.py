"""Extension benchmark — outage recovery.

How fast can the market absorb cloudlet failures?  The same outage trace
is replayed against two recovery paths:

* **cold replan** — the reference (``ObjectRebuildSimulation``, the
  object-graph oracle): market object graph rebuilt every epoch, every
  epoch replanned from a cold LCF start, outages absorbed by yet another
  cold replan;
* **warm failover** — the fault-tolerant path this PR ships: one
  persistent delta-patched compiled market, displaced providers re-enter
  greedily at posted prices, survivors never move.

The acceptance bar: warm failover sustains at least 5x the epochs/sec of
the cold replan.  A warm *replan* arm sits in between for context (full
recovery quality, warm speed).

Each arm builds its own identically-seeded network and trace, because
outages mutate the shared cloudlet objects in place.

Results land in ``BENCH_outages.json`` next to this file.
"""

import time

from repro.dynamics import (
    DynamicMarketSimulation,
    IndependentOutageTrace,
    PopulationProcess,
)
from repro.network.generators import random_mec_network
from repro.utils.tables import Table

from benchmarks.conftest import bench_path, record_bench
from tests.oracles.object_graph_reference import ObjectRebuildSimulation

RESULTS_PATH = bench_path("BENCH_outages.json")

N_NODES = 100
EPOCHS = 12
ARRIVAL_RATE = 5.0
MEAN_LIFETIME = 8.0
INITIAL_POPULATION = 40
MTTF = 4.0
MTTR = 2.0


def _record(section: str, payload: dict) -> None:
    record_bench("BENCH_outages.json", section, payload)


def _best_of(fn, repeats: int = 2):
    best_t, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best_t:
            best_t, out = elapsed, result
    return best_t, out


def _run(policy, warm_start, recovery, simulation=DynamicMarketSimulation):
    # Fresh network + trace per run: outages zero the live cloudlet
    # capacities, so arms must not share topology objects.
    network = random_mec_network(N_NODES, rng=1)
    population = PopulationProcess(
        network, arrival_rate=ARRIVAL_RATE, mean_lifetime=MEAN_LIFETIME,
        rng=3, initial_population=INITIAL_POPULATION,
    )
    trace = IndependentOutageTrace(network, mttf=MTTF, mttr=MTTR, rng=5)
    sim = simulation(
        network, population, policy=policy, warm_start=warm_start,
        outages=trace, recovery=recovery,
    )
    return sim.run(EPOCHS)


def test_bench_outage_recovery(emit):
    """Warm failover vs warm replan vs the cold-replan reference."""
    arms = {
        "cold_replan": dict(
            policy="replan", simulation=ObjectRebuildSimulation,
            warm_start=False, recovery="replan",
        ),
        "warm_replan": dict(
            policy="replan", warm_start=True, recovery="replan",
        ),
        "warm_failover": dict(
            policy="incremental", warm_start=True, recovery="failover",
        ),
    }
    times, summaries = {}, {}
    for name, kw in arms.items():
        times[name], summaries[name] = _best_of(lambda kw=kw: _run(**kw))

    eps = {name: EPOCHS / t for name, t in times.items()}
    speedup = {name: eps[name] / eps["cold_replan"] for name in arms}

    table = Table([
        "arm", "time (s)", "epochs/sec", "speedup",
        "displaced", "SLA viol.", "mean social",
    ])
    for name, summary in summaries.items():
        table.add_row([
            name, times[name], eps[name], speedup[name],
            summary.total_displaced, summary.total_sla_violations,
            summary.mean_social_cost,
        ])
    emit(table.render(
        title=f"[outages] recovery throughput, {EPOCHS} epochs, "
              f"{N_NODES} nodes, MTTF={MTTF:g}, MTTR={MTTR:g}"
    ))

    _record("recovery", {
        "epochs": EPOCHS,
        "n_nodes": N_NODES,
        "initial_population": INITIAL_POPULATION,
        "mttf": MTTF,
        "mttr": MTTR,
        "seconds": times,
        "epochs_per_sec": eps,
        "speedup_vs_cold_replan": speedup,
        "availability": {
            name: {
                "displaced": summary.total_displaced,
                "sla_violations": summary.total_sla_violations,
                "cloudlet_downtime": summary.cloudlet_downtime,
                "mean_social_cost": summary.mean_social_cost,
            }
            for name, summary in summaries.items()
        },
    })

    # The trace must actually have exercised the recovery machinery.
    for name, summary in summaries.items():
        assert summary.cloudlet_downtime > 0, name
        assert summary.total_displaced > 0, name

    # The acceptance bar: the warm failover path absorbs the same outage
    # trace at >= 5x the cold-replan reference's epoch rate.
    assert speedup["warm_failover"] >= 5.0, speedup
    # Warm replanning must itself never regress below the cold reference.
    assert speedup["warm_replan"] >= 1.0, speedup
