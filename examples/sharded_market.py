"""A region-sharded service market: partitioned equilibria at scale.

The market's topology is regional (GT-ITM transit stubs), and with a
latency budget armed most providers can only cache inside their own
region. This example shards the market along that structure:

1. partition the cloudlets by region (`partition_market`),
2. classify providers interior / boundary / unreachable,
3. settle each shard's interior independently and reconcile the
   boundary providers on the global tables
   (`partitioned_best_response`), certifying the result as a global
   Nash equilibrium,
4. run a churning market with the sharded settle riding the
   sequence-numbered delta replication log
   (`DynamicMarketSimulation(sharding="region")`).

A single shard reproduces the global batch engine bit for bit; several
shards trade the exact equilibrium basin for locality (another certified
equilibrium of the same potential game) and, past ~10³ providers, for
speed — see docs/sharding.md and benchmarks/BENCH_shard.json.

Run:  python examples/sharded_market.py
      python examples/sharded_market.py --shards 8 --epochs 10
      python examples/sharded_market.py --shards 4 --boundary-rounds 2 --workers 2
"""

import argparse
import time

from repro.dynamics import DynamicMarketSimulation, PopulationProcess
from repro.game.batch import batch_best_response
from repro.game import game_from_compiled, partitioned_best_response, sequential_entry
from repro.market.shard import classify_providers, partition_market
from repro.market.workload import generate_market
from repro.network import random_mec_network
from repro.runtime import Runtime
from repro.utils.tables import Table


def greedy_start(cm):
    """Cheapest-feasible sequential entry over the compiled tables; a
    provider with no feasible cloudlet stays out."""
    start = {}
    sequential_entry(game_from_compiled(cm), start, cm.provider_ids)
    return start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=200)
    parser.add_argument("--providers", type=int, default=300)
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count (default: one per region)")
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--boundary-rounds", type=int, default=8)
    parser.add_argument("--workers", type=int, default=1,
                        help="shard worker processes (default: serial)")
    parser.add_argument("--latency-budget", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    network = random_mec_network(args.nodes, rng=args.seed)
    market = generate_market(
        network, args.providers, rng=args.seed + 1,
        latency_budget_ms=args.latency_budget,
    )
    cm = market.compile()
    partition = partition_market(market, args.shards)
    classification = classify_providers(cm, partition)
    print(f"{partition!r}")
    interior = sum(len(v) for v in classification.interior.values())
    print(
        f"population: {interior} interior, "
        f"{len(classification.boundary)} boundary, "
        f"{len(classification.unreachable)} unreachable"
    )

    # One static settle, sharded vs global, from the same greedy start.
    start = greedy_start(cm)
    game = game_from_compiled(cm, players=sorted(start))
    t0 = time.perf_counter()
    g_profile, _, _, g_moves, _, _ = batch_best_response(
        game, dict(start), max_rounds=1000
    )
    t_global = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = partitioned_best_response(
        market, start, partition=partition, classification=classification,
        boundary_rounds=args.boundary_rounds,
    )
    t_shard = time.perf_counter() - t0
    g_cost = cm.social_cost(g_profile)
    print()
    print("static settle from one greedy start:")
    table = Table(("engine", "moves", "social cost", "certified", "ms"))
    table.add_row(("global batch", g_moves, f"{g_cost:.2f}", "-",
                   f"{t_global * 1e3:.1f}"))
    table.add_row((
        f"sharded x{partition.n_shards}", result.moves,
        f"{result.social_cost:.2f}", str(result.certified),
        f"{t_shard * 1e3:.1f}",
    ))
    print(table.render())
    gap = abs(result.social_cost - g_cost) / max(abs(g_cost), 1e-12)
    print(f"relative social-cost gap: {gap:.2e}"
          + (" (single shard: bit-identical)" if partition.n_shards == 1
             else ""))

    # A churning market with the sharded settle on the delta log.
    population = PopulationProcess(
        network, arrival_rate=max(2.0, args.providers / 20),
        mean_lifetime=8.0, rng=args.seed + 2,
        initial_population=args.providers,
    )
    with Runtime(workers=args.workers) as runtime:
        sim = DynamicMarketSimulation(
            network, population, policy="incremental",
            sharding="region", n_shards=args.shards,
            boundary_rounds=args.boundary_rounds,
            latency_budget_ms=args.latency_budget,
            shard_runtime=runtime,
        )
        t0 = time.perf_counter()
        summary = sim.run(args.epochs)
        elapsed = time.perf_counter() - t0
    print()
    print(f"sharded dynamic run ({elapsed:.2f}s, "
          f"{args.epochs / elapsed:.1f} epochs/s):")
    epoch_table = Table(
        ("epoch", "population", "settle moves", "certified", "total cost")
    )
    for e in summary.epochs:
        epoch_table.add_row((
            e.epoch, e.population, e.settle_moves,
            str(e.equilibrium_certified), f"{e.total_cost:.1f}",
        ))
    print(epoch_table.render())
    print(f"total: {summary.total_cost:.1f} "
          f"({summary.total_settle_moves} settle moves)")


if __name__ == "__main__":
    main()
