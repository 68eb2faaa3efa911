"""Ablations A2–A4 — design choices DESIGN.md calls out.

A2: the Largest-Cost-First coordination rule vs smallest-cost vs random.
A3: the paper's linear congestion model vs quadratic vs M/M/1.
A4: the GAP engine inside Appro (Shmoys–Tardos vs greedy), plus Appro
    against the exact social optimum.
"""

import numpy as np

from repro.core.appro import appro
from repro.core.optimal import optimal_caching
from repro.experiments.figures import (
    ablation_congestion_models,
    ablation_gap_solvers,
    ablation_selection_strategies,
    ablation_topologies,
)
from repro.experiments.report import render_sweep
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.utils.tables import Table


def test_bench_ablation_selection(benchmark, config, emit):
    result = benchmark.pedantic(
        ablation_selection_strategies, args=(config,), rounds=1, iterations=1
    )
    emit(render_sweep(result, metrics=("social_cost",)))
    # The three selection rules are close (how many providers are
    # coordinated matters more than which); see EXPERIMENTS.md A2 for the
    # honest finding that LCF's largest-cost rule is not the best of them
    # under the posted-price market.
    largest = np.mean(result.series("LCF(largest)"))
    random_sel = np.mean(result.series("LCF(random)"))
    smallest = np.mean(result.series("LCF(smallest)"))
    spread = max(largest, random_sel, smallest) / min(largest, random_sel, smallest)
    assert spread < 1.25


def test_bench_ablation_topologies(benchmark, config, emit):
    result = benchmark.pedantic(
        ablation_topologies, args=(config,), rounds=1, iterations=1
    )
    emit(render_sweep(result, metrics=("social_cost",)))
    # The headline ordering holds on every topology family.
    for i, _model in enumerate(result.x_values):
        point = result.points[i]
        assert point["LCF"].social_cost < point["JoOffloadCache"].social_cost


def test_bench_ablation_optimum(benchmark, config, emit):
    """How much headroom does Appro leave? Compare against the exact
    social optimum on the same (fully cacheable) markets."""

    def run():
        rows = []
        for seed in range(min(3, config.repetitions)):
            network = random_mec_network(config.default_size, rng=seed)
            market = generate_market(network, config.n_providers, rng=seed + 50)
            ap = appro(market, allow_remote=False)
            opt = optimal_caching(market)
            rows.append((seed, ap.social_cost, opt.social_cost))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(["seed", "Appro", "Optimal", "ratio"])
    for seed, ap_cost, opt_cost in rows:
        table.add_row([seed, ap_cost, opt_cost, ap_cost / opt_cost])
    emit(table.render(title="[A4+] Appro vs the exact optimum"))
    # Appro's marginal pricing should stay within a few percent of the
    # social optimum.
    mean_ratio = np.mean([ap / opt for _, ap, opt in rows])
    assert mean_ratio < 1.10


def test_bench_ablation_congestion(benchmark, config, emit):
    result = benchmark.pedantic(
        ablation_congestion_models, args=(config,), rounds=1, iterations=1
    )
    emit(render_sweep(result, metrics=("social_cost",)))
    # The ordering LCF < Jo holds under every non-decreasing model (the
    # paper's claim that only monotonicity matters).
    for i, _model in enumerate(result.x_values):
        assert result.points[i]["LCF"].social_cost < (
            result.points[i]["JoOffloadCache"].social_cost
        )


def test_bench_ablation_gap(benchmark, config, emit):
    result = benchmark.pedantic(
        ablation_gap_solvers, args=(config,), rounds=1, iterations=1
    )
    emit(render_sweep(result, metrics=("social_cost", "runtime_s")))
    st = result.points[0]["Appro(shmoys_tardos)"]
    greedy = result.points[0]["Appro(greedy)"]
    # The LP-based rounding never loses to the regret-greedy on quality
    # (runtimes are reported above; on one-service-per-slot instances the
    # LP + matching is in fact *faster* than the O(n^2 m) regret loop).
    assert st.social_cost <= greedy.social_cost * 1.02
