"""Slim shard views settle exactly like the all-boundary reference views.

A slim view (:func:`repro.market.shard.shard_view`) carries only the rows
its shard can price and a congestion prefix cut to its row count; the
oracle (``tests/oracles/shard_view_reference.py``) carries every boundary
provider and the global-length prefix. The partitioned settle must not
tell them apart: profile, moves, rounds, certificate and social cost are
compared bit for bit, serially and on a two-worker pool.

Also pinned here: a placement no view can price is rejected, and pool
dispatch really happens — one ``Runtime.map`` call per interior phase
with two or more shards whose interior can move, one task per worker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InfeasibleError
from repro.game import partitioned
from repro.game.batch import batch_best_response
from repro.game.engine import game_from_compiled
from repro.game.partitioned import partitioned_best_response
from repro.market.shard import classify_providers, partition_market, shard_view
from repro.runtime import Runtime
from tests.game.test_partitioned import make_instance
from tests.oracles.shard_view_reference import (
    reference_shard_view,
    use_reference_views,
)

SEEDS = (1, 2, 3)
#: ``None`` is the default partition: one shard per cloudlet region.
SHARD_COUNTS = (2, 4, None)


def reaching_shards(cm, partition, pid):
    """Shards holding a finite entry of ``pid``'s ``fixed`` row."""
    row = cm.provider_index[pid]
    return {
        partition.shard_of_cloudlet[cm.cloudlet_nodes[j]]
        for j in np.flatnonzero(np.isfinite(cm.fixed[row])).tolist()
    }


def settle(market, start, partition, classification, movable, workers):
    """One settle; a pool gets its own runtime so no view blob leaks
    between the two calls under the same ``("shard", s, 0)`` key."""
    kwargs = dict(
        partition=partition, classification=classification, movable=movable
    )
    if workers == 1:
        return partitioned_best_response(market, start, **kwargs)
    with Runtime(workers=workers) as runtime:
        return partitioned_best_response(
            market, start, runtime=runtime, **kwargs
        )


def assert_same_result(a, b):
    assert a.profile == b.profile
    assert a.interior_moves == b.interior_moves
    assert a.boundary_moves == b.boundary_moves
    assert a.rounds == b.rounds
    assert a.converged == b.converged
    assert a.certified == b.certified
    assert a.social_cost == b.social_cost


class TestSlimViews:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_rows_are_interior_plus_reaching_boundary(self, seed, n_shards):
        market, cm, _start = make_instance(seed=seed)
        partition = partition_market(market, n_shards)
        cls = classify_providers(cm, partition)
        for s in partition.shard_ids:
            reach = {
                pid for pid in cls.boundary
                if s in reaching_shards(cm, partition, pid)
            }
            view = shard_view(cm, partition, s, cls)
            assert view.provider_ids == sorted(set(cls.interior[s]) | reach)
            assert cls.boundary_reach[s] == tuple(sorted(reach))
            assert len(view.g) == len(view.provider_ids) + 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tables_are_row_slices_of_the_reference(self, seed):
        market, cm, _start = make_instance(seed=seed)
        partition = partition_market(market)
        cls = classify_providers(cm, partition)
        for s in partition.shard_ids:
            view = shard_view(cm, partition, s, cls)
            ref = reference_shard_view(cm, partition, s, cls)
            rows = [ref.provider_index[pid] for pid in view.provider_ids]
            n = len(rows)
            for name in ("fixed", "access", "update", "user_delay",
                         "instantiation", "remote", "demand"):
                assert np.array_equal(
                    getattr(view, name), getattr(ref, name)[rows],
                    equal_nan=True,
                ), name
            assert view.cloudlet_nodes == ref.cloudlet_nodes
            assert np.array_equal(view.coeff, ref.coeff)
            assert np.array_equal(view.capacity, ref.capacity)
            assert np.array_equal(view.g, ref.g[: n + 1])
            assert np.array_equal(view.shared, ref.shared[:, : n + 1])


class TestDifferentialSettle:
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool2"])
    @pytest.mark.parametrize("restrict", [False, True], ids=["all", "movable"])
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_to_reference_views(
        self, seed, n_shards, restrict, workers
    ):
        market, cm, start = make_instance(seed=seed)
        partition = partition_market(market, n_shards)
        cls = classify_providers(cm, partition)
        movable = sorted(start)[::2] if restrict else None
        slim = settle(market, start, partition, cls, movable, workers)
        with use_reference_views():
            ref = settle(market, start, partition, cls, movable, workers)
        assert_same_result(slim, ref)
        assert slim.certified


class TestUnpriceablePlacement:
    def test_interior_provider_on_a_foreign_shard_is_rejected(self):
        market, cm, start = make_instance(seed=2)
        partition = partition_market(market, n_shards=4)
        cls = classify_providers(cm, partition)
        pid = next(p for p in sorted(start) if p in cls.interior_shard)
        node = next(
            n for n, s in partition.shard_of_cloudlet.items()
            if s != cls.interior_shard[pid]
        )
        bad = dict(start)
        bad[pid] = node
        with pytest.raises(InfeasibleError, match=f"provider {pid} .* node {node}"):
            partitioned_best_response(
                market, bad, partition=partition, classification=cls
            )

    def test_boundary_provider_on_an_unreached_shard_is_rejected(self):
        for seed in SEEDS:
            market, cm, start = make_instance(seed=seed)
            partition = partition_market(market)
            cls = classify_providers(cm, partition)
            for pid in cls.boundary:
                unreached = [
                    n for n, s in partition.shard_of_cloudlet.items()
                    if s not in reaching_shards(cm, partition, pid)
                ]
                if pid in start and unreached:
                    break
            else:
                continue
            break
        else:  # pragma: no cover - fixture guard
            pytest.fail("no placed boundary provider misses a shard")
        bad = dict(start)
        bad[pid] = unreached[0]
        with pytest.raises(
            InfeasibleError, match=f"provider {pid} .* node {unreached[0]}"
        ):
            partitioned_best_response(
                market, bad, partition=partition, classification=cls
            )


def improving_shards(cm, partition, cls, profile, candidates):
    """The candidate shards whose interior moves when settled alone on its
    own view: each one's settle is run serially, independently of the
    global screen the settle loop uses to pick them."""
    moving = set()
    for s in candidates:
        sub = {
            p: n for p, n in profile.items()
            if partition.shard_of_cloudlet[n] == s
        }
        movers = sorted(set(cls.interior.get(s, ())) & set(sub))
        if not movers:
            continue
        game = game_from_compiled(
            shard_view(cm, partition, s, cls), players=sorted(sub)
        )
        _profile, _conv, _rounds, moves, _trace, _log = batch_best_response(
            game, sub, movable=movers
        )
        if moves:
            moving.add(s)
    return moving


class TestPoolDispatch:
    def test_one_map_call_per_interior_phase_one_task_per_worker(
        self, monkeypatch
    ):
        market, cm, start = make_instance(seed=1, n_nodes=300, n_providers=300)
        partition = partition_market(market)
        cls = classify_providers(cm, partition)
        serial = partitioned_best_response(
            market, start, partition=partition, classification=cls
        )

        # The event log: ("map", shard ids per task) for each Runtime.map
        # call, ("boundary", shards its moves touched, placement after it)
        # for each boundary phase — the only kernel call that records its
        # move log.
        events = []
        kernel = partitioned.batch_best_response

        def spy_kernel(*args, **kwargs):
            out = kernel(*args, **kwargs)
            if kwargs.get("record_moves"):
                touched = set()
                for _p, old, new, _d in out[-1]:
                    touched.add(partition.shard_of_cloudlet[old])
                    touched.add(partition.shard_of_cloudlet[new])
                events.append(("boundary", touched, dict(out[0])))
            return out

        monkeypatch.setattr(partitioned, "batch_best_response", spy_kernel)
        with Runtime(workers=2) as runtime:
            inner = runtime.map

            def spy_map(fn, tasks):
                tasks = list(tasks)
                events.append(
                    ("map", [[item[1] for item in t[0]] for t in tasks])
                )
                return inner(fn, tasks)

            monkeypatch.setattr(runtime, "map", spy_map)
            pooled = partitioned_best_response(
                market, start, partition=partition, classification=cls,
                runtime=runtime,
            )
        assert_same_result(pooled, serial)

        # A phase dispatches the dirty shards whose interior can still
        # move; a lone such shard settles in-process.
        dirty = set(partition.shard_ids)
        profile = dict(start)
        phases = 0
        i = 0
        while i < len(events):
            expected = improving_shards(cm, partition, cls, profile, dirty)
            if len(expected) > 1:
                kind, tasks = events[i]
                assert kind == "map"
                assert 1 <= len(tasks) <= 2 and all(tasks)
                covered = [s for task in tasks for s in task]
                assert sorted(covered) == sorted(expected)
                assert all(task == sorted(task) for task in tasks)
                phases += 1
                i += 1
            if i == len(events):
                break
            kind, dirty, profile = events[i]
            assert kind == "boundary"
            i += 1
        assert phases >= 1
