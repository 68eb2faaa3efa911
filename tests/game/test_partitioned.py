"""Differential lockdown of the partitioned equilibrium driver.

The two tolerance regimes from ``repro.game.partitioned``'s module doc:

* **single shard** — the loop degenerates to the global batch engine and
  the result is *bit-identical* (same profile dict, same float social
  cost);
* **multiple shards** — a different certified Nash equilibrium of the
  same potential game, social cost within ``BOUNDARY_TOLERANCE``.

Plus: certification semantics, movable restriction, serial == parallel
executors, and the armed ``invariant_shard_ownership`` contract.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, InvariantViolation
from repro.game.batch import batch_best_response
from repro.game.best_response import sequential_entry
from repro.game.engine import game_from_compiled
from repro.game.partitioned import (
    BOUNDARY_TOLERANCE,
    certify_equilibrium,
    partitioned_best_response,
)
from repro.market.shard import classify_providers, partition_market
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.utils.contracts import ENV_FLAG, check_shard_ownership

SEED = 41


def make_instance(seed=SEED, n_nodes=150, n_providers=120,
                  latency_budget_ms=3.0):
    network = random_mec_network(n_nodes, rng=seed)
    market = generate_market(
        network, n_providers, rng=seed + 1,
        latency_budget_ms=latency_budget_ms,
    )
    cm = market.compile()
    start = {}
    sequential_entry(game_from_compiled(cm), start, cm.provider_ids)
    return market, cm, start


def global_equilibrium(cm, start):
    game = game_from_compiled(cm, players=sorted(start))
    profile, converged, _r, moves, _t, _l = batch_best_response(
        game, dict(start), max_rounds=1000
    )
    assert converged
    return profile, moves


class TestSingleShard:
    def test_bit_identical_to_global_batch_engine(self):
        market, cm, start = make_instance()
        g_profile, g_moves = global_equilibrium(cm, start)
        result = partitioned_best_response(market, start, n_shards=1)
        assert result.profile == g_profile
        assert result.moves == g_moves
        assert result.social_cost == cm.social_cost(g_profile)
        assert result.converged
        assert result.certified

    def test_precomputed_partition_and_repeat_change_nothing(self):
        market, cm, start = make_instance()
        partition = partition_market(market, n_shards=1)
        classification = classify_providers(cm, partition)
        a = partitioned_best_response(market, start, n_shards=1)
        b = partitioned_best_response(
            market, start, partition=partition, classification=classification,
        )
        c = partitioned_best_response(
            market, start, partition=partition, classification=classification,
        )
        assert a.profile == b.profile == c.profile
        assert a.social_cost == b.social_cost == c.social_cost


class TestMultiShard:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_certified_within_tolerance(self, n_shards):
        market, cm, start = make_instance()
        g_profile, _ = global_equilibrium(cm, start)
        g_cost = cm.social_cost(g_profile)
        result = partitioned_best_response(market, start, n_shards=n_shards)
        assert result.converged
        assert result.certified
        gap = abs(result.social_cost - g_cost) / max(abs(g_cost), 1e-12)
        assert gap <= BOUNDARY_TOLERANCE
        # Settled placements only use real cloudlets, every starter kept.
        assert set(result.profile) == set(start)
        nodes = {cl.node_id for cl in market.network.cloudlets}
        assert set(result.profile.values()) <= nodes

    def test_interior_providers_stay_in_their_shard(self):
        market, cm, start = make_instance()
        partition = partition_market(market, n_shards=4)
        classification = classify_providers(cm, partition)
        result = partitioned_best_response(
            market, start, partition=partition, classification=classification,
        )
        for pid, node in result.profile.items():
            s = classification.interior_shard.get(pid)
            if s is not None:
                assert partition.shard_of_cloudlet[node] == s

    def test_movable_restriction_pins_everyone_else(self):
        market, cm, start = make_instance()
        movable = sorted(start)[: len(start) // 3]
        result = partitioned_best_response(
            market, start, n_shards=3, movable=movable
        )
        for pid, node in start.items():
            if pid not in movable:
                assert result.profile[pid] == node

    def test_empty_profile_trivial(self):
        market, _cm, _start = make_instance(n_nodes=60, n_providers=10)
        result = partitioned_best_response(market, {}, n_shards=2)
        assert result.profile == {}
        assert result.converged and result.certified
        assert result.social_cost == 0.0
        assert result.moves == 0

    def test_boundary_rounds_must_be_positive(self):
        market, _cm, start = make_instance(n_nodes=60, n_providers=10)
        with pytest.raises(ConfigurationError, match="boundary_rounds"):
            partitioned_best_response(market, start, boundary_rounds=0)


class TestCertification:
    def test_greedy_start_with_improving_moves_not_certified(self):
        market, cm, start = make_instance()
        game = game_from_compiled(cm, players=sorted(start))
        _profile, moves = global_equilibrium(cm, start)
        assert moves > 0  # the fixture leaves room to improve
        assert not certify_equilibrium(game, start)

    def test_settled_profile_certified(self):
        market, cm, start = make_instance()
        profile, _ = global_equilibrium(cm, start)
        game = game_from_compiled(cm, players=sorted(profile))
        assert certify_equilibrium(game, profile)


class TestExecutorEquivalence:
    def test_parallel_interiors_bit_identical_to_serial(self):
        from repro.runtime import Runtime

        market, cm, start = make_instance(n_nodes=100, n_providers=60)
        partition = partition_market(market, n_shards=3)
        classification = classify_providers(cm, partition)
        serial = partitioned_best_response(
            market, start, partition=partition, classification=classification,
        )
        with Runtime(workers=2) as runtime:
            parallel = partitioned_best_response(
                market, start, partition=partition,
                classification=classification, runtime=runtime,
            )
        assert parallel.profile == serial.profile
        assert parallel.social_cost == serial.social_cost
        assert parallel.moves == serial.moves


class TestShardOwnershipContract:
    def test_checker_accepts_interior_in_own_shard(self):
        market, cm, start = make_instance(n_nodes=100, n_providers=60)
        partition = partition_market(market, n_shards=3)
        classification = classify_providers(cm, partition)
        result = partitioned_best_response(
            market, start, partition=partition, classification=classification,
        )
        check_shard_ownership(partition, classification, result.profile)

    def test_checker_rejects_interior_in_foreign_shard(self):
        market, cm, start = make_instance(n_nodes=100, n_providers=60)
        partition = partition_market(market, n_shards=3)
        classification = classify_providers(cm, partition)
        victim = None
        for s, ids in classification.interior.items():
            for pid in ids:
                if pid in start:
                    victim, home = pid, s
                    break
            if victim is not None:
                break
        if victim is None:
            pytest.skip("instance has no placed interior provider")
        foreign = next(
            node for node, s in partition.shard_of_cloudlet.items()
            if s != home
        )
        bad = dict(start)
        bad[victim] = foreign
        with pytest.raises(InvariantViolation):
            check_shard_ownership(partition, classification, bad)

    def test_checker_rejects_placement_on_unknown_node(self):
        market, cm, start = make_instance(n_nodes=100, n_providers=60)
        partition = partition_market(market, n_shards=3)
        classification = classify_providers(cm, partition)
        pid = next(iter(start))
        bad = {pid: -1}
        with pytest.raises(InvariantViolation):
            check_shard_ownership(partition, classification, bad)

    def test_armed_driver_passes_under_contract(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        market, cm, start = make_instance(n_nodes=100, n_providers=60)
        result = partitioned_best_response(market, start, n_shards=3)
        assert result.certified
