"""Micro-benchmarks of the core substrates (pytest-benchmark timings).

These time the individual building blocks — the Shmoys–Tardos step on a
slot-form GAP (its relaxation solved as one assignment), best-response
dynamics, Algorithm 1 end-to-end, the routing table's
per-source rows (next to the networkx oracle it replaced) and the
flow-level emulator — so regressions in any layer show up independently
of the figure-level sweeps.
"""

import numpy as np
import pytest

from repro.core.appro import appro
from repro.core import market_game
from repro.core.lcf import lcf
from repro.game.best_response import best_response_dynamics, greedy_feasible_profile
from repro.gap.instance import GAPInstance
from repro.gap.shmoys_tardos import shmoys_tardos
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.network.routing import RoutingTable
from repro.network.zoo import as1755_mec_network
from repro.testbed.emulator import Testbed
from repro.testbed.flows import FlowSimulator
from tests.oracles.routing_reference import ReferenceRoutingTable


@pytest.fixture(scope="module")
def medium_market():
    network = random_mec_network(150, rng=1)
    return generate_market(network, n_providers=60, rng=2)


def test_bench_gap_shmoys_tardos(benchmark):
    rng = np.random.default_rng(1)
    instance = GAPInstance(
        costs=rng.uniform(1, 10, size=(60, 40)),
        slots=np.full(40, 2),
    )
    solution = benchmark(shmoys_tardos, instance)
    assert len(solution.assignment) == 60
    assert max(np.bincount(solution.assignment)) <= 2


def test_bench_best_response(benchmark, medium_market):
    game = market_game(medium_market)

    def run():
        start = greedy_feasible_profile(game)
        return best_response_dynamics(game, start)

    result = benchmark(run)
    assert result.converged


def test_bench_appro(benchmark, medium_market):
    result = benchmark(lambda: appro(medium_market, allow_remote=True))
    assert result.social_cost > 0


def test_bench_lcf(benchmark, medium_market):
    result = benchmark(lambda: lcf(medium_market, xi=0.7, allow_remote=True))
    assert result.assignment.social_cost > 0


def test_bench_topology_generation(benchmark):
    network = benchmark(lambda: random_mec_network(250, rng=3))
    assert network.num_nodes == 250


@pytest.fixture(scope="module")
def routing_graph():
    return random_mec_network(1000, rng=1).graph


def _all_rows(table_cls, graph):
    table = table_cls(graph)
    for u in graph.nodes:
        table.delay_row(u)
        table.hop_row(u)
    return table


def test_bench_routing_rows(benchmark, routing_graph):
    # Every delay and hop row of a 1000-node topology on a fresh table.
    table = benchmark(_all_rows, RoutingTable, routing_graph)
    assert len(table._delay_rows) == routing_graph.number_of_nodes()


def test_bench_routing_rows_reference(benchmark, routing_graph):
    # The same rows on the networkx oracle, for the before/after.
    table = benchmark.pedantic(
        _all_rows, args=(ReferenceRoutingTable, routing_graph), rounds=2
    )
    assert len(table._delay_rows) == routing_graph.number_of_nodes()


def test_bench_testbed_build(benchmark):
    testbed = benchmark(lambda: Testbed(rng=4))
    assert testbed.network.num_nodes == 87


def test_bench_flow_emulation(benchmark):
    def run():
        sim = FlowSimulator({("l", i): 100.0 for i in range(50)})
        rng = np.random.default_rng(5)
        for k in range(200):
            resources = [("l", int(r)) for r in rng.choice(50, size=3, replace=False)]
            sim.add_flow(0, 1, float(rng.uniform(0.5, 3.0)), resources)
        return sim.run()

    metrics = benchmark(run)
    assert metrics["total_gb"] > 0
