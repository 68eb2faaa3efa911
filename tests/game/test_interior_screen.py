"""The interior-phase screen of the partitioned settle is exact.

Before an interior phase, one Jacobi propose over the global tables
decides which dirty shards to settle: a shard none of whose interior
movers can strictly improve is skipped. The claim pinned here is that a
skip never changes anything — the shard's own settle on its sub-view
would have committed zero moves and returned its input — and that a kept
shard really has a mover that fires on its own sub-view. Also pinned:
serial and pooled settles stay equal, a skipped shard's capacity check is
not lost, and a transport that is not colocated dispatches a phase of a
single shard instead of running it in the caller's process.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

from repro.exceptions import CapacityError
from repro.game import partitioned
from repro.game.batch import _BatchState
from repro.game.engine import IMPROVEMENT_EPS, game_from_compiled
from repro.game.partitioned import partitioned_best_response
from repro.market.shard import classify_providers, partition_market, shard_view
from repro.runtime import Runtime
from repro.runtime.transport import SerialTransport
from tests.game.test_partitioned import make_instance

SEEDS = (1, 2, 3, 4, 5)
NODES = (150, 300)
BUDGETS_MS = (3.0, 5.0, 8.0)
#: ``None`` is the default partition: one shard per cloudlet region.
SHARD_COUNTS = (2, 4, 8, None)
GRID = list(itertools.product(SEEDS, NODES, BUDGETS_MS, SHARD_COUNTS))


@lru_cache(maxsize=None)
def instance(seed, n_nodes, budget_ms):
    return make_instance(seed=seed, n_nodes=n_nodes, latency_budget_ms=budget_ms)


@lru_cache(maxsize=None)
def sharded(seed, n_nodes, budget_ms, n_shards):
    market, cm, start = instance(seed, n_nodes, budget_ms)
    partition = partition_market(market, n_shards)
    return market, cm, start, partition, classify_providers(cm, partition)


@pytest.fixture(scope="module")
def pool():
    with Runtime(workers=2) as runtime:
        yield runtime


def sub_profile(partition, profile, s):
    return {p: n for p, n in profile.items() if partition.shard_of_cloudlet[n] == s}


def sub_view_fires(view, sub, movers):
    """Does any mover strictly improve in a propose on its shard's view?"""
    game = game_from_compiled(view, players=sorted(sub))
    _targets, best, cur_cost = _BatchState(game.compile(), sub, movers).propose(0)
    return bool(np.any(best < cur_cost - IMPROVEMENT_EPS))


def spy_screens(monkeypatch):
    """Record ``(profile, movers, fires)`` of every screen propose. The
    screen looks the propose up as ``partitioned._improving``; the
    certificate at the end of the settle calls its own module's
    propose, so it is not recorded."""
    screens = []
    real_improving = partitioned._improving

    def improving(game, profile, move_order):
        fires = real_improving(game, profile, move_order)
        screens.append((dict(profile), list(move_order), fires.tolist()))
        return fires

    monkeypatch.setattr(partitioned, "_improving", improving)
    return screens


@pytest.mark.parametrize("seed,n_nodes,budget_ms,n_shards", GRID)
def test_screen_skips_only_shards_that_cannot_move(
    seed, n_nodes, budget_ms, n_shards, pool, monkeypatch
):
    market, cm, start, partition, cls = sharded(seed, n_nodes, budget_ms, n_shards)
    screens = spy_screens(monkeypatch)
    serial = partitioned_best_response(
        market, start, partition=partition, classification=cls
    )
    monkeypatch.undo()
    assert serial.certified

    for profile, movers, fires in screens:
        by_shard = {}
        for p in movers:
            by_shard.setdefault(cls.interior_shard[p], []).append(p)
        kept = {cls.interior_shard[p] for p, fired in zip(movers, fires) if fired}
        for s, shard_movers in by_shard.items():
            view = shard_view(cm, partition, s, cls)
            sub = sub_profile(partition, profile, s)
            if s in kept:
                assert sub_view_fires(view, sub, shard_movers)
            else:
                settled, moves = partitioned._settle_shard(
                    view, dict(sub), shard_movers, 1000
                )
                assert moves == 0
                assert settled == sub

    pooled = partitioned_best_response(
        market, start, partition=partition, classification=cls, runtime=pool,
    )
    assert pooled == serial


class TestCapacity:
    def overloaded(self):
        """A placement that overloads one cloudlet and whose only movable
        provider is an interior one with a single finite option (so it
        can never improve and the screen skips its shard)."""
        for seed in (1, 2, 3, 4, 5):
            market, cm, start, partition, cls = sharded(seed, 150, 3.0, None)
            finite = np.isfinite(cm.fixed)
            for m in sorted(set(cls.interior_shard) & set(start)):
                cols = np.flatnonzero(finite[cm.provider_index[m]])
                if len(cols) != 1:
                    continue
                j = int(cols[0])
                crowd = [p for p in start if finite[cm.provider_index[p], j]]
                load = cm.demand[[cm.provider_index[p] for p in crowd]].sum(axis=0)
                if np.any(load > cm.capacity[j]):
                    bad = dict(start)
                    bad.update({p: cm.cloudlet_nodes[j] for p in crowd})
                    return market, partition, cls, bad, m
        pytest.fail("no instance admits an overloaded placement")  # pragma: no cover

    def test_overload_without_boundary_movers_raises(self, monkeypatch):
        market, partition, cls, bad, m = self.overloaded()
        settled = []
        real_settle = partitioned._settle_shard

        def settle(*args):
            settled.append(args)
            return real_settle(*args)

        monkeypatch.setattr(partitioned, "_settle_shard", settle)
        with pytest.raises(CapacityError):
            partitioned_best_response(
                market, bad, partition=partition, classification=cls,
                movable=[m],
            )
        assert settled == []

    def test_overload_with_boundary_movers_raises(self):
        market, partition, cls, bad, _m = self.overloaded()
        assert cls.boundary
        with pytest.raises(CapacityError):
            partitioned_best_response(
                market, bad, partition=partition, classification=cls
            )


class _RemoteLike(SerialTransport):
    """An in-process transport that says its work does not belong here."""

    colocated = False

    def __init__(self):
        super().__init__()
        self.batches = []

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.batches.append(len(tasks))
        return super().map(fn, tasks)


class TestDispatchGate:
    def one_improving_shard(self):
        """A settled equilibrium with one interior provider moved to a
        worse cloudlet of its shard: exactly that shard can move."""
        market, cm, start, partition, cls = sharded(1, 150, 3.0, None)
        eq = partitioned_best_response(
            market, start, partition=partition, classification=cls
        ).profile
        finite = np.isfinite(cm.fixed)
        for p in sorted(set(cls.interior_shard) & set(eq)):
            s = cls.interior_shard[p]
            for j in np.flatnonzero(finite[cm.provider_index[p]]).tolist():
                node = cm.cloudlet_nodes[j]
                if node == eq[p]:
                    continue
                profile = dict(eq)
                profile[p] = node
                if np.any(cm.load_matrix(profile) > cm.capacity):
                    continue
                moving = {
                    t for t in partition.shard_ids
                    if set(cls.interior.get(t, ())) & set(profile)
                    and sub_view_fires(
                        shard_view(cm, partition, t, cls),
                        sub_profile(partition, profile, t),
                        sorted(set(cls.interior.get(t, ())) & set(profile)),
                    )
                }
                if moving == {s}:
                    return market, partition, cls, profile
        pytest.fail("no single-shard perturbation found")  # pragma: no cover

    def test_non_colocated_transport_dispatches_a_lone_shard(self):
        market, partition, cls, profile = self.one_improving_shard()
        serial = partitioned_best_response(
            market, profile, partition=partition, classification=cls
        )
        transport = _RemoteLike()
        with Runtime(transport=transport) as runtime:
            remote = partitioned_best_response(
                market, profile, partition=partition, classification=cls,
                runtime=runtime,
            )
        assert transport.batches and transport.batches[0] == 1
        assert remote == serial

    def test_local_pool_settles_a_lone_shard_in_process(self, monkeypatch):
        market, partition, cls, profile = self.one_improving_shard()
        serial = partitioned_best_response(
            market, profile, partition=partition, classification=cls
        )
        with Runtime(workers=2) as runtime:
            submit = mock.Mock(wraps=runtime.transport.submit)
            monkeypatch.setattr(runtime.transport, "submit", submit)
            pooled = partitioned_best_response(
                market, profile, partition=partition, classification=cls,
                runtime=runtime,
            )
            assert submit.call_count == 0
            assert runtime.transport._pool is None
        assert pooled == serial
