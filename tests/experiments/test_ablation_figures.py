"""Tests for the ablation drivers not covered by test_figures."""

from dataclasses import replace

import pytest

from repro.experiments.figures import ablation_congestion_models, ablation_topologies
from repro.experiments.harness import (
    AlgorithmMetrics,
    default_algorithms,
    evaluate_algorithms,
    legacy_point_seed,
)
from repro.experiments.settings import QUICK, ExperimentConfig
from repro.market.costs import LinearCongestion, MM1Congestion, QuadraticCongestion
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network

TINY = ExperimentConfig(
    network_sizes=(40,),
    default_size=50,
    n_providers=12,
    repetitions=1,
)


class TestAblationTopologies:
    @pytest.fixture(scope="class")
    def result(self):
        return ablation_topologies(TINY)

    def test_covers_three_families(self, result):
        assert result.x_values == ["transit_stub", "waxman", "scale_free"]

    def test_all_algorithms_evaluated(self, result):
        for point in result.points:
            assert set(point) == {"LCF", "JoOffloadCache", "OffloadCache"}
            for metrics in point.values():
                assert metrics.social_cost > 0

    def test_same_seeds_across_families(self):
        """Paired seeds: rerunning must reproduce bit-identically."""
        a = ablation_topologies(TINY)
        b = ablation_topologies(TINY)
        for pa, pb in zip(a.points, b.points):
            for alg in pa:
                assert pa[alg].social_cost == pytest.approx(pb[alg].social_cost)


def hand_rolled_ablation(config, x_values, make_market, seed_of):
    """The per-point loop A3 and A5 ran before they went through ``sweep``:
    every repetition's market, every default algorithm, metrics averaged
    per point (run times dropped)."""
    points = []
    for x_index, x in enumerate(x_values):
        collected = {}
        for rep in range(config.repetitions):
            market = make_market(x, seed_of(x_index, rep))
            algorithms = default_algorithms(config.one_minus_xi, config.allow_remote)
            for alg, assignment in evaluate_algorithms(market, algorithms).items():
                collected.setdefault(alg, []).append(assignment)
        points.append({
            alg: replace(AlgorithmMetrics.from_assignments(a), runtime_s=0.0)
            for alg, a in collected.items()
        })
    return points


def metrics(result):
    return [
        {alg: replace(m, runtime_s=0.0) for alg, m in point.items()}
        for point in result.points
    ]


class TestAblationsThroughSweep:
    """A3 and A5 run on ``sweep``: the same seeds, markets and averages as
    their hand-rolled loops, at any worker count."""

    def test_congestion_models_match_hand_rolled_loop(self):
        models = {
            "linear": LinearCongestion(),
            "quadratic": QuadraticCongestion(scale=8.0),
            "mm1": MM1Congestion(capacity=64),
        }

        def make_market(x, seed):
            network = random_mec_network(QUICK.default_size, rng=seed)
            return generate_market(
                network, QUICK.n_providers, params=QUICK.workload,
                rng=seed + 1, congestion=models[x],
            )

        result = ablation_congestion_models(QUICK)
        assert result.x_values == list(models)
        assert metrics(result) == hand_rolled_ablation(
            QUICK, list(models), make_market, QUICK.point_seed
        )

    def test_topologies_match_hand_rolled_loop(self):
        families = ["transit_stub", "waxman", "scale_free"]

        def make_market(x, seed):
            network = random_mec_network(QUICK.default_size, rng=seed, model=x)
            return generate_market(
                network, QUICK.n_providers, params=QUICK.workload, rng=seed + 1
            )

        result = ablation_topologies(QUICK)
        assert result.x_values == families
        assert metrics(result) == hand_rolled_ablation(
            QUICK, families, make_market, legacy_point_seed
        )

    @pytest.mark.parametrize(
        "driver", [ablation_congestion_models, ablation_topologies]
    )
    def test_two_workers_match_serial(self, driver):
        assert metrics(driver(QUICK.with_(workers=2))) == metrics(driver(QUICK))
