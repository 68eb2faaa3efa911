"""The region sharding layer: partition, classification, routing, replay.

The load-bearing contract is the replay property at the bottom: routed
per-shard sub-deltas of one sequence number touch disjoint state, so any
interleaving of them that respects per-shard sequence order rebuilds
compiled tables *gathered-view identical* (same doubles per provider and
cloudlet — physical row layout may differ) to the global
``MarketDelta`` stream, including boundary-tombstoning departures and
shard-emptying outages.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.market.delta import MarketDelta
from repro.market.market import ServiceMarket
from repro.market.shard import (
    ShardDelta,
    ShardLog,
    classify_providers,
    partition_market,
    route_delta,
    shard_view,
)
from repro.market.workload import generate_market, generate_providers
from repro.network.generators import random_mec_network, region_map
from repro.utils.rng import as_rng


def make_market(seed, n_providers=40, n_nodes=120, latency_budget_ms=3.0):
    network = random_mec_network(n_nodes, rng=seed)
    return generate_market(
        network, n_providers=n_providers, rng=seed + 1,
        latency_budget_ms=latency_budget_ms,
    )


def fresh_providers(market, count, start_id, seed):
    drawn = generate_providers(market.network, count, rng=as_rng(seed))
    renumbered = []
    for offset, provider in enumerate(drawn):
        service = provider.service
        service.service_id = start_id + offset
        renumbered.append(type(provider)(
            provider_id=start_id + offset, service=service,
        ))
    return renumbered


# --------------------------------------------------------------------- #
# Partition
# --------------------------------------------------------------------- #
class TestPartition:
    def test_every_cloudlet_owned_exactly_once(self):
        market = make_market(3)
        partition = partition_market(market)
        seen = []
        for s in partition.shard_ids:
            seen.extend(partition.cloudlets[s])
        assert sorted(seen) == sorted(
            cl.node_id for cl in market.network.cloudlets
        )
        for s in partition.shard_ids:
            for node in partition.cloudlets[s]:
                assert partition.shard_of_cloudlet[node] == s

    def test_owner_covers_every_node(self):
        market = make_market(3)
        partition = partition_market(market)
        for node in market.network.graph.nodes:
            assert 0 <= partition.owner[node] < partition.n_shards

    def test_default_one_shard_per_cloudlet_region(self):
        market = make_market(5)
        partition = partition_market(market)
        regions = region_map(market.network)
        cloudlet_regions = {
            regions[cl.node_id] for cl in market.network.cloudlets
        }
        assert partition.n_shards == len(cloudlet_regions)

    def test_coalescing_hits_requested_count(self):
        market = make_market(5)
        full = partition_market(market)
        for k in (1, 2, min(4, full.n_shards)):
            part = partition_market(market, n_shards=k)
            assert part.n_shards == k

    def test_deterministic(self):
        market = make_market(7)
        a = partition_market(market, n_shards=3)
        b = partition_market(market, n_shards=3)
        assert a.cloudlets == b.cloudlets
        assert a.owner == b.owner

    def test_shard_cloudlets_keep_global_column_order(self):
        """Sub-view columns must preserve compile-column order so argmin
        tie-breaking matches the global engine."""
        market = make_market(9)
        cm = market.compile()
        partition = partition_market(market, n_shards=3)
        for s in partition.shard_ids:
            cols = [cm.cloudlet_index[n] for n in partition.cloudlets[s]]
            assert cols == sorted(cols)

    def test_invalid_shard_count_rejected(self):
        market = make_market(3)
        with pytest.raises(ConfigurationError):
            partition_market(market, n_shards=0)
        with pytest.raises(ConfigurationError):
            partition_market(market, n_shards=-2)


# --------------------------------------------------------------------- #
# Classification and sub-views
# --------------------------------------------------------------------- #
class TestClassification:
    def test_partition_of_population(self):
        market = make_market(11, n_providers=60)
        cm = market.compile()
        partition = partition_market(market, n_shards=4)
        cls = classify_providers(cm, partition)
        interior = [p for ids in cls.interior.values() for p in ids]
        everyone = sorted(interior) + sorted(cls.boundary) + sorted(
            cls.unreachable
        )
        assert sorted(everyone) == sorted(cm.provider_ids)
        assert len(everyone) == len(set(everyone))

    def test_interior_masks_stay_inside_one_shard(self):
        market = make_market(11, n_providers=60)
        cm = market.compile()
        partition = partition_market(market, n_shards=4)
        cls = classify_providers(cm, partition)
        for s, ids in cls.interior.items():
            for pid in ids:
                row = cm.provider_index[pid]
                feasible = np.flatnonzero(np.isfinite(cm.fixed[row]))
                shards = {
                    partition.shard_of_cloudlet[cm.cloudlet_nodes[j]]
                    for j in feasible.tolist()
                }
                assert shards == {s}
                assert cls.interior_shard[pid] == s

    def test_boundary_masks_span_shards(self):
        market = make_market(11, n_providers=60)
        cm = market.compile()
        partition = partition_market(market, n_shards=4)
        cls = classify_providers(cm, partition)
        for pid in cls.boundary:
            row = cm.provider_index[pid]
            feasible = np.flatnonzero(np.isfinite(cm.fixed[row]))
            shards = {
                partition.shard_of_cloudlet[cm.cloudlet_nodes[j]]
                for j in feasible.tolist()
            }
            assert len(shards) > 1

    def test_shard_view_tables_are_bit_equal_slices(self):
        market = make_market(13, n_providers=60)
        cm = market.compile()
        partition = partition_market(market, n_shards=3)
        cls = classify_providers(cm, partition)
        for s in partition.shard_ids:
            view = shard_view(cm, partition, s, cls)
            for pid in view.provider_ids:
                gi = cm.provider_index[pid]
                vi = view.provider_index[pid]
                for node in view.cloudlet_nodes:
                    gj = cm.cloudlet_index[node]
                    vj = view.cloudlet_index[node]
                    assert view.fixed[vi, vj] == cm.fixed[gi, gj] or (
                        np.isnan(view.fixed[vi, vj])
                        and np.isnan(cm.fixed[gi, gj])
                    )
                assert np.array_equal(view.demand[vi], cm.demand[gi])
            for node in view.cloudlet_nodes:
                gj = cm.cloudlet_index[node]
                vj = view.cloudlet_index[node]
                assert np.array_equal(view.capacity[vj], cm.capacity[gj])
                n = len(view.provider_ids)
                assert np.array_equal(
                    view.shared[vj, : n + 1], cm.shared[gj, : n + 1]
                )


# --------------------------------------------------------------------- #
# Routing and the log
# --------------------------------------------------------------------- #
class TestRouting:
    def test_arrivals_route_by_user_node_owner(self):
        market = make_market(17)
        partition = partition_market(market, n_shards=3)
        arrivals = fresh_providers(market, 6, start_id=1000, seed=21)
        delta = MarketDelta(arrivals=tuple(arrivals))
        routed = route_delta(delta, partition, 1, {})
        for sd in routed:
            assert sd.seq == 1
            for p in sd.delta.arrivals:
                assert partition.owner[p.service.user_node] == sd.shard_id

    def test_departures_route_to_recorded_owner(self):
        market = make_market(17)
        partition = partition_market(market, n_shards=3)
        log = ShardLog(partition, providers=market.providers)
        pid = market.providers[0].provider_id
        owner = log.owner_of(pid)
        (sd,) = log.append(MarketDelta(departures=(pid,)))
        assert sd.shard_id == owner
        assert sd.delta.departures == (pid,)

    def test_unknown_departure_rejected(self):
        market = make_market(17)
        partition = partition_market(market, n_shards=3)
        with pytest.raises(ConfigurationError):
            route_delta(MarketDelta(departures=(99999,)), partition, 1, {})

    def test_cloudlet_events_route_by_shard(self):
        market = make_market(17)
        partition = partition_market(market, n_shards=3)
        nodes = [cl.node_id for cl in market.network.cloudlets][:4]
        routed = route_delta(
            MarketDelta(outages=tuple(nodes)), partition, 1, {}
        )
        for sd in routed:
            for node in sd.delta.outages:
                assert partition.shard_of_cloudlet[node] == sd.shard_id

    def test_payload_roundtrip(self):
        market = make_market(19)
        partition = partition_market(market, n_shards=2)
        arrivals = fresh_providers(market, 3, start_id=500, seed=23)
        node = market.network.cloudlets[0].node_id
        log = ShardLog(partition, providers=market.providers)
        routed = log.append(
            MarketDelta(
                arrivals=tuple(arrivals),
                departures=(market.providers[0].provider_id,),
                outages=(node,),
            )
        )
        for sd in routed:
            back = ShardDelta.from_payload(sd.to_payload())
            assert back.shard_id == sd.shard_id
            assert back.seq == sd.seq
            assert back.delta.departures == sd.delta.departures
            assert back.delta.outages == sd.delta.outages
            for p, q in zip(back.delta.arrivals, sd.delta.arrivals):
                assert p.provider_id == q.provider_id
                assert p.service.__dict__ == q.service.__dict__

    def test_log_sequencing_and_journal_replay(self):
        market = make_market(19)
        partition = partition_market(market, n_shards=2)

        class DictJournal:
            def __init__(self):
                self.records = {}

            def record(self, key, value):
                assert key not in self.records
                self.records[key] = value

            def load(self):
                return dict(self.records)

        journal = DictJournal()
        log = ShardLog(partition, providers=market.providers, journal=journal)
        routed = log.append(MarketDelta(
            arrivals=tuple(fresh_providers(market, 4, start_id=700, seed=29))
        ))
        routed += log.append(
            MarketDelta(departures=(market.providers[1].provider_id,))
        )
        assert log.seq == 2
        replayed = ShardLog.replay(journal)
        assert [(sd.seq, sd.shard_id) for sd in replayed] == sorted(
            (sd.seq, sd.shard_id) for sd in routed
        )

    def test_append_records_once_per_global_delta(self):
        """The global delta is the unit of durability: one ``record``
        per sequence number, holding every routed sub-delta, and none
        for a delta that routes nowhere."""
        market = make_market(29, n_providers=30)
        partition, deltas = churn_trace(market, None)
        deltas.insert(2, MarketDelta())

        class CountingJournal:
            def __init__(self):
                self.calls = []

            def record(self, key, value):
                self.calls.append((key, value))

        journal = CountingJournal()
        log = ShardLog(partition, providers=market.providers, journal=journal)
        routed = {seq: log.append(d) for seq, d in enumerate(deltas, 1)}
        assert routed[3] == ()
        assert max(len(subs) for subs in routed.values()) > 1
        assert [key for key, _ in journal.calls] == [
            (seq,) for seq in routed if seq != 3
        ]
        for key, value in journal.calls:
            assert value == [sd.to_payload() for sd in routed[key[0]]]


# --------------------------------------------------------------------- #
# The replay property (satellite: delta-log equivalence)
# --------------------------------------------------------------------- #
def gathered_state(cm):
    """Layout-independent view of the compiled tables: per-provider and
    per-cloudlet doubles keyed by id, g/shared clipped to the active
    population (physical row order and transient g length may differ
    between interleavings)."""
    pids = sorted(cm.provider_ids)
    rows = [cm.provider_index[p] for p in pids]
    nodes = sorted(cm.cloudlet_index)
    cols = [cm.cloudlet_index[n] for n in nodes]
    n = len(pids)
    return {
        "pids": pids,
        "fixed": cm.fixed[np.ix_(rows, cols)],
        "demand": cm.demand[rows],
        "remote": cm.remote[rows],
        "capacity": cm.capacity[cols],
        "g": cm.g[: n + 1],
        "shared": cm.shared[np.ix_(cols, list(range(n + 1)))],
    }


def assert_states_equal(a, b):
    assert a["pids"] == b["pids"]
    for key in ("fixed", "demand", "remote", "capacity", "g", "shared"):
        assert np.array_equal(a[key], b[key], equal_nan=True), key


def churn_trace(market, rng):
    """A global delta stream with arrivals, boundary-tombstoning
    departures, and an outage wave that empties one shard."""
    partition = partition_market(market, n_shards=3)
    cm = market.compile()
    cls = classify_providers(cm, partition)
    boundary = list(cls.boundary)
    # Shard-emptying outage wave: every cloudlet of shard 1 goes down.
    empty_shard = partition.cloudlets[1]
    deltas = [
        MarketDelta(
            arrivals=tuple(fresh_providers(market, 5, start_id=2000, seed=31))
        ),
        # Boundary providers tombstone out (and one interior one).
        MarketDelta(departures=tuple(
            sorted(boundary[:2] + [market.providers[0].provider_id])
        )),
        MarketDelta(outages=empty_shard),
        MarketDelta(
            arrivals=tuple(fresh_providers(market, 4, start_id=3000, seed=37)),
            departures=(2001,),
        ),
        MarketDelta(recoveries=empty_shard),
        MarketDelta(departures=(2000, 3000)),
    ]
    return partition, deltas


@pytest.mark.parametrize("interleaving_seed", [0, 1, 2, 3])
def test_sharded_replay_rebuilds_global_tables(interleaving_seed):
    market_global = make_market(23, n_providers=50)
    market_shard = make_market(23, n_providers=50)
    market_global.compile()
    market_shard.compile()
    partition, deltas = churn_trace(market_global, None)

    log = ShardLog(partition, providers=market_shard.providers)
    routed_by_seq = [log.append(d) for d in deltas]

    rng = as_rng(interleaving_seed)
    for delta, routed in zip(deltas, routed_by_seq):
        market_global.apply(delta)
        # Any within-sequence shard order is legal: sub-deltas of one
        # sequence number touch disjoint providers/cloudlets.
        order = rng.permutation(len(routed)).tolist()
        for i in order:
            market_shard.apply(routed[i].delta)
        assert_states_equal(
            gathered_state(market_global.compile()),
            gathered_state(market_shard.compile()),
        )


def _assert_replay_matches_live(journal, log, live):
    replayed = ShardLog.replay(journal)
    assert len(replayed) == len(live)
    live = sorted(live, key=lambda sd: (sd.seq, sd.shard_id))
    for a, b in zip(replayed, live):
        assert a.to_payload() == b.to_payload()


def test_replayed_journal_stream_matches_live_routing(tmp_path):
    """Crash consistency: the journal's replay stream is exactly the live
    routed stream, payload for payload, from the one-line-per-delta
    journal :class:`ShardLog` writes."""
    _assert_replay_matches_live(*_journaled_churn(tmp_path, "delta"))


def test_replayed_legacy_journal_stream_matches_live_routing(tmp_path):
    """Older one-line-per-sub-delta journals replay to the same live
    routed stream."""
    _assert_replay_matches_live(*_journaled_churn(tmp_path, "legacy"))


# --------------------------------------------------------------------- #
# Replay over a damaged journal (shared-filesystem crash artefacts)
# --------------------------------------------------------------------- #
def _journaled_churn(tmp_path, layout):
    """A churn trace fully journaled to disk; returns the journal, the
    live log and every sub-delta it routed, in append order, for
    comparison.

    ``layout="delta"`` is what :class:`ShardLog` writes: one line per
    global delta, keyed ``(seq,)``. ``layout="legacy"`` is the older
    one line per sub-delta, keyed ``(seq, shard_id)``, which replay must
    keep reading.
    """
    from repro.runtime import CheckpointJournal

    market = make_market(29, n_providers=30)
    partition, deltas = churn_trace(market, None)
    journal = CheckpointJournal(tmp_path / "shard-log.jsonl")
    log = ShardLog(
        partition, providers=market.providers,
        journal=journal if layout == "delta" else None,
    )
    live = []
    for d in deltas:
        for sd in log.append(d):
            live.append(sd)
            if layout == "legacy":
                journal.record((sd.seq, sd.shard_id), sd.to_payload())
    return journal, log, live


def _live_payloads(live):
    return {(sd.seq, sd.shard_id): sd.to_payload() for sd in live}


class TestReplayOverDamagedJournal:
    """Damage to a legacy one-line-per-sub-delta journal: each line is
    one ``(seq, shard_id)``, so damage costs single sub-deltas."""

    def test_corrupt_midfile_record_is_skipped_with_warning(self, tmp_path):
        """Bit rot in the middle of the log: the failed-checksum record
        drops out of the replay stream — counted and warned, never
        silently replayed as garbage."""
        import json

        journal, log, live = _journaled_churn(tmp_path, "legacy")
        lines = open(journal.path).read().splitlines()
        victim = json.loads(lines[len(lines) // 2])
        # Mutate the payload without touching the stored crc.
        victim["value"]["seq"] = 9999
        lines[len(lines) // 2] = json.dumps(victim, sort_keys=True)
        open(journal.path, "w").write("\n".join(lines) + "\n")

        with pytest.warns(RuntimeWarning, match="1 corrupt record"):
            replayed = ShardLog.replay(journal)
        assert journal.last_load_corrupt == 1
        lost = tuple(victim["key"])
        expected = dict(_live_payloads(live))
        expected.pop(lost)
        assert {
            (sd.seq, sd.shard_id): sd.to_payload() for sd in replayed
        } == expected

    def test_torn_trailing_record_is_dropped_silently(self, tmp_path):
        """A crash mid-append tears the final line; replay resumes from
        the intact prefix with no warning — the lost sub-delta re-routes
        when the global delta re-runs."""
        import warnings

        journal, log, live = _journaled_churn(tmp_path, "legacy")
        raw = open(journal.path).read()
        open(journal.path, "w").write(raw[: len(raw) - 15])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            replayed = ShardLog.replay(journal)
        assert journal.last_load_corrupt == 0
        live = sorted(live, key=lambda sd: (sd.seq, sd.shard_id))
        torn = max(_live_payloads(live))  # the file tail is the max key
        assert [(sd.seq, sd.shard_id) for sd in replayed] == [
            (sd.seq, sd.shard_id) for sd in live
            if (sd.seq, sd.shard_id) != torn
        ]

    def test_resumed_replay_rebuilds_the_uninterrupted_tables(self, tmp_path):
        """End-to-end resume equivalence: lose a mid-file record to bit
        rot *and* the tail to a torn append, re-record the lost
        sub-deltas (the resume path: the owning sequence numbers re-run
        and re-journal), and the repaired replay stream rebuilds compiled
        tables gathered-view identical to applying the live stream."""
        import json
        import warnings

        journal, _, routed = _journaled_churn(tmp_path, "legacy")
        lines = open(journal.path).read().splitlines()
        victim = json.loads(lines[2])
        victim["value"]["seq"] = 9999
        lines[2] = json.dumps(victim, sort_keys=True)
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # torn tail
        open(journal.path, "w").write("\n".join(lines) + "\n")

        live = _live_payloads(routed)
        with pytest.warns(RuntimeWarning):
            survivors = {
                (sd.seq, sd.shard_id) for sd in ShardLog.replay(journal)
            }
        # Resume: re-append every sub-delta the damaged journal lost.
        for key in sorted(set(live) - survivors):
            journal.record(key, live[key])
        with warnings.catch_warnings():
            # The inert corrupt line is still counted on re-load.
            warnings.simplefilter("ignore", RuntimeWarning)
            repaired = ShardLog.replay(journal)
        assert {
            (sd.seq, sd.shard_id): sd.to_payload() for sd in repaired
        } == live

        # The repaired stream drives a market to the same tables as the
        # live stream (replay order is a legal interleaving).
        market_live = make_market(29, n_providers=30)
        market_resumed = make_market(29, n_providers=30)
        market_live.compile()
        market_resumed.compile()
        for sd in sorted(routed, key=lambda s: (s.seq, s.shard_id)):
            market_live.apply(sd.delta)
        for sd in repaired:
            market_resumed.apply(sd.delta)
        assert_states_equal(
            gathered_state(market_live.compile()),
            gathered_state(market_resumed.compile()),
        )


def _sub_delta_keys(live, seq):
    return [(sd.seq, sd.shard_id) for sd in live if sd.seq == seq]


def _rewrite(journal, lines):
    open(journal.path, "w").write("\n".join(lines) + "\n")


class TestReplayOverDamagedDeltaJournal:
    """The same damage on the one-line-per-global-delta layout
    :class:`ShardLog` writes: a line is a whole sequence number, so
    damage costs whole global deltas, never part of one."""

    def test_corrupt_midfile_delta_drops_every_sub_delta(self, tmp_path):
        import json

        journal, log, live = _journaled_churn(tmp_path, "delta")
        lines = open(journal.path).read().splitlines()
        assert len(lines) == log.seq
        # The widest delta, so the loss spans several shards.
        index = max(
            range(len(lines)),
            key=lambda i: len(_sub_delta_keys(live, i + 1)),
        )
        victim = json.loads(lines[index])
        lost_seq = victim["key"][0]
        assert len(victim["value"]) == len(_sub_delta_keys(live, lost_seq)) > 1
        victim["value"][-1]["seq"] = 9999  # crc left stale
        lines[index] = json.dumps(victim, sort_keys=True)
        _rewrite(journal, lines)

        with pytest.warns(RuntimeWarning, match="1 corrupt record"):
            replayed = ShardLog.replay(journal)
        assert journal.last_load_corrupt == 1
        expected = {
            key: payload for key, payload in _live_payloads(live).items()
            if key[0] != lost_seq
        }
        assert {
            (sd.seq, sd.shard_id): sd.to_payload() for sd in replayed
        } == expected

    def test_torn_tail_drops_the_whole_last_delta_silently(self, tmp_path):
        """A crash mid-append of a delta routed to several shards leaves
        none of its sub-deltas behind, and no warning."""
        import warnings

        journal, log, live = _journaled_churn(tmp_path, "delta")
        lines = open(journal.path).read().splitlines()
        torn_seq = max(
            seq for seq in range(1, log.seq + 1)
            if len(_sub_delta_keys(live, seq)) > 1
        )
        torn = lines[torn_seq - 1]
        _rewrite(journal, lines[: torn_seq - 1] + [torn[: len(torn) // 2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            replayed = ShardLog.replay(journal)
        assert journal.last_load_corrupt == 0
        live = sorted(live, key=lambda sd: (sd.seq, sd.shard_id))
        assert [(sd.seq, sd.shard_id) for sd in replayed] == [
            (sd.seq, sd.shard_id) for sd in live if sd.seq < torn_seq
        ]

    def test_resumed_replay_rebuilds_the_uninterrupted_tables(self, tmp_path):
        """Lose one delta to bit rot and the tail from a torn append,
        re-record the lost sequence numbers (the resume path re-runs
        them), and the repaired stream rebuilds the live tables."""
        import json
        import warnings

        journal, log, routed = _journaled_churn(tmp_path, "delta")
        lines = open(journal.path).read().splitlines()
        victim = json.loads(lines[1])
        victim["value"][0]["seq"] = 9999
        lines[1] = json.dumps(victim, sort_keys=True)
        torn = lines[3]
        _rewrite(journal, lines[:3] + [torn[: len(torn) // 2]])

        live = _live_payloads(routed)
        with pytest.warns(RuntimeWarning):
            survivors = {sd.seq for sd in ShardLog.replay(journal)}
        lost = sorted({key[0] for key in live} - survivors)
        assert lost == [2] + list(range(4, log.seq + 1))
        for seq in lost:
            journal.record(
                (seq,), [live[key] for key in _sub_delta_keys(routed, seq)]
            )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            repaired = ShardLog.replay(journal)
        assert {
            (sd.seq, sd.shard_id): sd.to_payload() for sd in repaired
        } == live

        market_live = make_market(29, n_providers=30)
        market_resumed = make_market(29, n_providers=30)
        market_live.compile()
        market_resumed.compile()
        for sd in sorted(routed, key=lambda s: (s.seq, s.shard_id)):
            market_live.apply(sd.delta)
        for sd in repaired:
            market_resumed.apply(sd.delta)
        assert_states_equal(
            gathered_state(market_live.compile()),
            gathered_state(market_resumed.compile()),
        )


def test_every_crash_point_replays_a_prefix_of_whole_deltas(tmp_path):
    """Truncate the journal at every byte offset: replay always returns
    exactly the sub-deltas of sequence numbers ``1..m`` for some ``m``,
    payload for payload, and never warns."""
    import warnings

    journal, log, live = _journaled_churn(tmp_path, "delta")
    raw = open(journal.path, "rb").read()
    live = sorted(live, key=lambda sd: (sd.seq, sd.shard_id))
    prefixes = {
        m: [sd.to_payload() for sd in live if sd.seq <= m]
        for m in range(log.seq + 1)
    }
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for offset in range(len(raw) + 1):
            with open(journal.path, "wb") as fh:
                fh.write(raw[:offset])
            replayed = [sd.to_payload() for sd in ShardLog.replay(journal)]
            m = max((p["seq"] for p in replayed), default=0)
            assert replayed == prefixes[m], offset
            assert journal.last_load_corrupt == 0
            seen.add(m)
    assert seen == set(prefixes)


def test_mixed_legacy_and_delta_lines_replay_each_sub_delta_once(tmp_path):
    """A legacy journal resumed by the current writer: legacy lines for the
    first sequence numbers (the last one only partly written), then
    whole-delta lines from the re-run of that sequence number on."""
    import json

    (tmp_path / "legacy").mkdir()
    (tmp_path / "delta").mkdir()
    legacy, log, live = _journaled_churn(tmp_path / "legacy", "legacy")
    delta, _, _ = _journaled_churn(tmp_path / "delta", "delta")
    legacy_lines = open(legacy.path).read().splitlines()
    delta_lines = open(delta.path).read().splitlines()
    resumed_seq = 4
    keyed = [(json.loads(line)["key"][0], line) for line in legacy_lines]
    head = [line for seq, line in keyed if seq < resumed_seq]
    partial = [line for seq, line in keyed if seq == resumed_seq]
    assert len(partial) > 1
    lines = head + partial[:1] + delta_lines[resumed_seq - 1:]
    _rewrite(legacy, lines)

    replayed = ShardLog.replay(legacy)
    live = sorted(live, key=lambda sd: (sd.seq, sd.shard_id))
    assert [sd.to_payload() for sd in replayed] == [
        sd.to_payload() for sd in live
    ]
