"""Sharded-equilibrium benchmark (writes ``BENCH_shard.json``).

Times :func:`repro.game.partitioned.partitioned_best_response` against the
global batch kernel on latency-budgeted markets (budget 3.0 ms — the
regime where most providers are interior to one region shard), over a
shards x instance-size grid. Three assertions ride along:

* single-shard runs are **bit-identical** to the global batch engine
  (same profile, same float social cost) on every tier;
* on the large tier the best sharded configuration must be at least
  ``SPEEDUP_BAR`` x the global engine in providers/sec, and must stay
  within 10% of the previously recorded number (the CI regression bar);
* interiors settled on a ``Runtime(workers=2)`` must be at
  least as fast as the serial path (skipped on single-CPU hosts, where
  process-pool parallelism cannot win).
"""

import os
import time

import pytest

from benchmarks.conftest import record_bench
from repro.game.batch import batch_best_response
from repro.game import game_from_compiled, partitioned_best_response, sequential_entry
from repro.market.shard import classify_providers, partition_market
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network

RESULTS_NAME = "BENCH_shard.json"

#: (network nodes, providers) tiers; the last is the CI regression tier.
TIERS = ((400, 4000), (1000, 10000))
LARGE_TIER_NODES = TIERS[-1][0]
SHARD_COUNTS = (1, 4, 8, 16)

#: The large tier's sharded settle must beat the global batch engine by
#: at least this factor (best configuration over ``SHARD_COUNTS``).
SPEEDUP_BAR = 1.5
#: Allowed slowdown against the previously recorded providers/sec.
REGRESSION_SLACK = 0.9

LATENCY_BUDGET_MS = 3.0


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _prior_sharded_pps(section):
    import json

    from benchmarks.conftest import bench_path

    path = bench_path(RESULTS_NAME)
    if not path.exists():
        return 0.0
    data = json.loads(path.read_text())
    return float(data.get(section, {}).get("best_sharded_pps", 0.0))


def _shard_instance(n_nodes, n_providers):
    """A latency-budgeted market plus a greedy start (one sequential
    entry on the compiled tables; a provider with no feasible cloudlet
    stays out)."""
    network = random_mec_network(
        n_nodes, rng=n_nodes, vms_per_cloudlet=(90, 180)
    )
    market = generate_market(
        network, n_providers, rng=n_nodes + 1,
        latency_budget_ms=LATENCY_BUDGET_MS,
    )
    cm = market.compile()
    start = {}
    sequential_entry(game_from_compiled(cm), start, cm.provider_ids)
    return market, cm, start


@pytest.mark.parametrize("n_nodes,n_providers", TIERS)
def test_bench_shard_tier(n_nodes, n_providers, emit):
    section = f"shard_{n_nodes}"
    prior_pps = _prior_sharded_pps(section)
    market, cm, start = _shard_instance(n_nodes, n_providers)
    placed = len(start)

    game = game_from_compiled(cm, players=sorted(start))
    g_profile, g_converged, _r, _m, _t, _l = batch_best_response(
        game, dict(start), max_rounds=1000
    )
    assert g_converged
    t_global = _best_of(lambda: batch_best_response(
        game, dict(start), max_rounds=1000
    ))
    g_cost = cm.social_cost(g_profile)

    curve = {}
    for k in SHARD_COUNTS:
        partition = partition_market(market, n_shards=k)
        classification = classify_providers(cm, partition)
        result = None

        def run():
            nonlocal result
            result = partitioned_best_response(
                market, start, partition=partition,
                classification=classification,
            )

        t_shard = _best_of(run)
        assert result.converged and result.certified
        if k == 1:
            # Degenerate case: bit-identical to the global engine.
            assert result.profile == g_profile
            assert result.social_cost == g_cost
        curve[str(k)] = {
            "interior": sum(
                len(v) for v in classification.interior.values()
            ),
            "boundary": len(classification.boundary),
            "settle_s": t_shard,
            "sharded_pps": placed / t_shard,
            "speedup_vs_global": t_global / t_shard,
            "social_cost_gap": abs(result.social_cost - g_cost)
            / max(abs(g_cost), 1e-12),
        }

    best_k = max(curve, key=lambda k: curve[k]["sharded_pps"])
    payload = {
        "n_nodes": n_nodes,
        "n_providers": n_providers,
        "placed": placed,
        "latency_budget_ms": LATENCY_BUDGET_MS,
        "global_s": t_global,
        "global_pps": placed / t_global,
        "shards": curve,
        "best_shards": int(best_k),
        "best_sharded_pps": curve[best_k]["sharded_pps"],
        "best_speedup": curve[best_k]["speedup_vs_global"],
    }
    record_bench(RESULTS_NAME, section, payload)
    emit(
        f"[shard {n_nodes}n/{n_providers}p] global "
        f"{placed / t_global:.0f} pps; best k={best_k}: "
        f"{curve[best_k]['sharded_pps']:.0f} pps "
        f"({curve[best_k]['speedup_vs_global']:.2f}x), "
        + " ".join(
            f"k={k}:{curve[k]['speedup_vs_global']:.2f}x"
            for k in curve
        )
    )

    if n_nodes == LARGE_TIER_NODES:
        assert curve[best_k]["speedup_vs_global"] >= SPEEDUP_BAR, (
            f"sharded settle fell below the {SPEEDUP_BAR}x bar on the "
            f"large tier: best {curve[best_k]['speedup_vs_global']:.2f}x "
            f"at k={best_k}"
        )
        if prior_pps:
            assert curve[best_k]["sharded_pps"] >= (
                REGRESSION_SLACK * prior_pps
            ), (
                f"sharded providers/sec regressed more than 10% against "
                f"the recorded baseline: "
                f"{curve[best_k]['sharded_pps']:.0f} < "
                f"{REGRESSION_SLACK:.2f} * {prior_pps:.0f}"
            )


def test_bench_shard_parallel_dispatch(emit):
    """Publish-once blobs must make parallel interiors pay off wherever a
    second CPU exists (the old parallel-dispatch overhead bar)."""
    from repro.runtime import Runtime

    if (os.cpu_count() or 1) < 2:
        pytest.skip("parallel >= serial needs at least two CPUs")

    n_nodes, n_providers = TIERS[-1]
    market, cm, start = _shard_instance(n_nodes, n_providers)
    partition = partition_market(market, n_shards=8)
    classification = classify_providers(cm, partition)

    t_serial = _best_of(lambda: partitioned_best_response(
        market, start, partition=partition, classification=classification,
    ))
    with Runtime(workers=2) as runtime:
        serial_result = partitioned_best_response(
            market, start, partition=partition, classification=classification,
        )
        parallel_result = partitioned_best_response(
            market, start, partition=partition, classification=classification,
            runtime=runtime,
        )
        assert parallel_result.profile == serial_result.profile
        t_parallel = _best_of(lambda: partitioned_best_response(
            market, start, partition=partition, classification=classification,
            runtime=runtime,
        ))

    record_bench(RESULTS_NAME, "parallel_dispatch", {
        "workers": 2,
        "serial_s": t_serial,
        "parallel_s": t_parallel,
        "speedup": t_serial / t_parallel,
    })
    emit(
        f"[shard parallel] serial {t_serial * 1e3:.0f} ms, "
        f"2 workers {t_parallel * 1e3:.0f} ms "
        f"({t_serial / t_parallel:.2f}x)"
    )
    assert t_parallel <= t_serial, (
        f"parallel interiors slower than serial: "
        f"{t_parallel:.3f}s > {t_serial:.3f}s"
    )
