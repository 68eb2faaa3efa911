"""Quickstart: a parallel xi-sweep on the compiled instance representation.

The Fig. 3 experiment — social cost as the coordination fraction xi varies —
run through the sweep harness with every speed lever of the compiled layer
engaged:

* markets are compiled once up front (``precompile=True``) and the
  array-backed :class:`~repro.market.compiled.CompiledMarket` blob is
  shipped to the workers, instead of every task re-deriving costs from the
  object graph;
* all algorithm layers (Appro's GAP build, LP assembly, the repair, LCF's
  follower game, the baselines) read the same shared tables;
* ``--workers N`` fans the ``(xi, repetition)`` grid over a process pool —
  metrics are bit-identical at any worker count, only wall-clock changes.

Run:  python examples/compiled_sweep.py --workers 4
      python examples/compiled_sweep.py --nodes 60 --providers 24 --reps 1
"""

from __future__ import annotations

import argparse
import time
from functools import partial

from repro.core.lcf import lcf
from repro.experiments.harness import sweep
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.utils.tables import Table

XI_VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)


def make_market(n_nodes: int, n_providers: int, _xi: object, seed: int):
    """Market builder for one (xi, repetition) cell. xi does not change the
    market — the harness's per-repetition seeding keeps environments
    comparable across the x-axis (common random numbers)."""
    network = random_mec_network(n_nodes, rng=seed)
    return generate_market(network, n_providers=n_providers, rng=seed + 1)


def run_lcf(xi: float, market):
    return lcf(market, xi=float(xi)).assignment


def make_algorithms(xi: object):
    return {"LCF": partial(run_lcf, float(xi))}  # type: ignore[arg-type]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=100, help="network size")
    parser.add_argument("--providers", type=int, default=40, help="provider count")
    parser.add_argument("--reps", type=int, default=2, help="repetitions per xi")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="sweep worker processes (0 = one per CPU; metrics are "
        "identical at any setting)",
    )
    args = parser.parse_args()

    t0 = time.perf_counter()
    result = sweep(
        name="compiled-xi-sweep",
        x_label="xi",
        x_values=list(XI_VALUES),
        make_market=partial(make_market, args.nodes, args.providers),
        make_algorithms=make_algorithms,
        repetitions=args.reps,
        workers=args.workers,
        precompile=True,
    )
    elapsed = time.perf_counter() - t0

    table = Table(["xi", "social cost", "coordinated", "selfish", "rejected"])
    for xi, point in zip(result.x_values, result.points):
        m = point["LCF"]
        table.add_row([xi, m.social_cost, m.coordinated_cost, m.selfish_cost, m.rejected])
    print(table.render())
    print(
        f"\n{len(XI_VALUES)} xi values x {args.reps} repetitions "
        f"(workers={args.workers}, precompiled) in {elapsed:.2f} s"
    )


if __name__ == "__main__":
    main()
