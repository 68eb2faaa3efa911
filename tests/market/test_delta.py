"""MarketDelta and the mutation protocol: validation, patching, equivalence.

The contract under test is the tentpole of the delta layer: after any
sequence of ``ServiceMarket.apply(delta)`` calls, the delta-patched
:class:`CompiledMarket` is *per-entry identical* (same doubles, not just
close) to a fresh ``CompiledMarket.from_market`` of the mutated market.
Long churn traces live in tests/dynamics/test_delta_equivalence.py; here we
pin the value type, the apply semantics, and the row-management machinery
(tombstones, growth, compaction, g-extension).
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, TopologyError
from repro.market.compiled import COMPACTION_SLACK, CompiledMarket
from repro.market.delta import MarketDelta
from repro.market.service import ServiceProvider
from repro.market.workload import generate_market, generate_providers
from repro.network.generators import random_mec_network
from repro.utils.rng import as_rng


def make_market(seed, n_providers=12, n_nodes=30):
    network = random_mec_network(n_nodes, rng=seed)
    return generate_market(network, n_providers=n_providers, rng=seed + 1)


def fresh_providers(market, count, start_id, seed):
    """New providers with ids ``start_id, start_id+1, ...`` (population idiom)."""
    drawn = generate_providers(market.network, count, rng=as_rng(seed))
    renumbered = []
    for offset, provider in enumerate(drawn):
        service = provider.service
        service.service_id = start_id + offset
        renumbered.append(
            ServiceProvider(provider_id=start_id + offset, service=service)
        )
    return renumbered


def assert_equivalent(cm, market):
    """Patched view == fresh compile, entry by entry, via the id maps."""
    fresh = CompiledMarket.from_market(market)
    assert cm.provider_ids == fresh.provider_ids
    assert cm.cloudlet_nodes == fresh.cloudlet_nodes
    for pid in fresh.provider_ids:
        i, k = cm.provider_index[pid], fresh.provider_index[pid]
        np.testing.assert_array_equal(cm.fixed[i], fresh.fixed[k])
        np.testing.assert_array_equal(cm.access[i], fresh.access[k])
        np.testing.assert_array_equal(cm.update[i], fresh.update[k])
        np.testing.assert_array_equal(cm.demand[i], fresh.demand[k])
        assert cm.instantiation[i] == fresh.instantiation[k]
        assert cm.remote[i] == fresh.remote[k]
    n = len(fresh.provider_ids)
    np.testing.assert_array_equal(cm.g[: n + 1], fresh.g)
    np.testing.assert_array_equal(cm.shared[:, : n + 1], fresh.shared)
    np.testing.assert_array_equal(cm.coeff, fresh.coeff)
    np.testing.assert_array_equal(cm.capacity, fresh.capacity)
    cm.verify_against(market)


# --------------------------------------------------------------------- #
# The value type
# --------------------------------------------------------------------- #
class TestMarketDelta:
    def test_normalises_departures_sorted(self):
        delta = MarketDelta(departures=(7, 2, 5))
        assert delta.departures == (2, 5, 7)

    def test_coerces_change_values_to_float(self):
        delta = MarketDelta(
            capacity_changes={3: (10, 20)}, price_changes={3: (1, 2)}
        )
        assert delta.capacity_changes[3] == (10.0, 20.0)
        assert delta.price_changes[3] == (1.0, 2.0)
        assert isinstance(delta.capacity_changes[3][0], float)

    def test_rejects_duplicate_arrival_ids(self):
        market = make_market(0, n_providers=2)
        p = market.providers[0]
        with pytest.raises(ConfigurationError, match="duplicate"):
            MarketDelta(arrivals=(p, p))

    def test_rejects_arrive_and_depart_overlap(self):
        market = make_market(0, n_providers=2)
        p = market.providers[0]
        with pytest.raises(ConfigurationError, match="both arrive and depart"):
            MarketDelta(arrivals=(p,), departures=(p.provider_id,))

    def test_rejects_duplicate_departures(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            MarketDelta(departures=(4, 4))

    def test_rejects_negative_capacity(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            MarketDelta(capacity_changes={1: (-1.0, 5.0)})

    def test_rejects_negative_price(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            MarketDelta(price_changes={1: (0.5, -0.1)})

    def test_emptiness_and_churn(self):
        market = make_market(0, n_providers=2)
        empty = MarketDelta()
        assert empty.is_empty and not empty
        delta = MarketDelta(
            arrivals=(market.providers[0],), departures=(market.providers[1].provider_id,)
        )
        assert delta and not delta.is_empty
        assert delta.churn == 2
        assert delta.arriving_ids == (market.providers[0].provider_id,)

    def test_frozen(self):
        delta = MarketDelta()
        with pytest.raises(AttributeError):
            delta.departures = (1,)


# --------------------------------------------------------------------- #
# ServiceMarket.apply — object graph semantics
# --------------------------------------------------------------------- #
class TestServiceMarketApply:
    def test_rejects_unknown_departure(self):
        market = make_market(1)
        with pytest.raises(ConfigurationError, match="unknown provider"):
            market.apply(MarketDelta(departures=(9999,)))

    def test_rejects_already_present_arrival(self):
        market = make_market(1)
        with pytest.raises(ConfigurationError, match="already present"):
            market.apply(MarketDelta(arrivals=(market.providers[0],)))

    def test_departed_id_may_be_readmitted(self):
        market = make_market(1)
        p = market.providers[0]
        before = market.num_providers
        market.apply(MarketDelta(departures=(p.provider_id,)))
        market.apply(MarketDelta(arrivals=(p,)))
        assert market.num_providers == before
        assert market.provider(p.provider_id) is p

    def test_rejects_unknown_cloudlet_in_changes(self):
        market = make_market(1)
        with pytest.raises(TopologyError):
            market.apply(MarketDelta(capacity_changes={-1: (1.0, 1.0)}))

    def test_updates_object_graph(self):
        market = make_market(2)
        node = market.network.cloudlets[0].node_id
        gone = market.providers[0].provider_id
        newcomers = fresh_providers(market, 2, start_id=1000, seed=5)
        market.apply(
            MarketDelta(
                arrivals=tuple(newcomers),
                departures=(gone,),
                capacity_changes={node: (123.0, 456.0)},
                price_changes={node: (0.25, 0.75)},
            )
        )
        ids = [p.provider_id for p in market.providers]
        assert ids == sorted(ids)
        assert gone not in ids and 1000 in ids and 1001 in ids
        cl = market.network.cloudlet_at(node)
        assert (cl.compute_capacity, cl.bandwidth_capacity) == (123.0, 456.0)
        assert (cl.alpha, cl.beta) == (0.25, 0.75)

    def test_departure_prunes_fixed_cost_cache(self):
        market = make_market(3)
        p = market.providers[0]
        cl = market.network.cloudlets[0]
        market.cost_model.fixed_cost(p, cl)
        market.cost_model.remote_cost(p)
        cache = market.cost_model._fixed_cache
        assert any(
            key == ("remote", p.provider_id) or key[0] == p.provider_id
            for key in cache
        )
        market.apply(MarketDelta(departures=(p.provider_id,)))
        assert not any(
            key == ("remote", p.provider_id) or key[0] == p.provider_id
            for key in cache
        )

    def test_apply_may_empty_the_market(self):
        market = make_market(4, n_providers=3)
        market.apply(
            MarketDelta(departures=tuple(p.provider_id for p in market.providers))
        )
        assert market.num_providers == 0

    def test_apply_without_compiled_cache_is_fine(self):
        market = make_market(5)
        gone = market.providers[0].provider_id
        market.apply(MarketDelta(departures=(gone,)))
        # first compile after the fact sees the mutated graph
        cm = market.compile()
        assert gone not in cm.provider_index


# --------------------------------------------------------------------- #
# apply_delta — compiled patching
# --------------------------------------------------------------------- #
class TestApplyDelta:
    def test_patches_cached_view_in_place(self):
        market = make_market(6)
        cm = market.compile()
        newcomers = fresh_providers(market, 1, start_id=500, seed=7)
        market.apply(MarketDelta(arrivals=tuple(newcomers)))
        assert market.compile() is cm  # no rebuild
        assert 500 in cm.provider_index
        assert_equivalent(cm, market)

    def test_price_patch(self):
        market = make_market(7)
        cm = market.compile()
        node = market.network.cloudlets[1].node_id
        market.apply(MarketDelta(price_changes={node: (0.4, 1.1)}))
        j = cm.cloudlet_col(node)
        assert cm.coeff[j] == 0.4 + 1.1
        assert_equivalent(cm, market)

    def test_capacity_patch(self):
        market = make_market(8)
        cm = market.compile()
        node = market.network.cloudlets[0].node_id
        market.apply(MarketDelta(capacity_changes={node: (9.0, 8.0)}))
        j = cm.cloudlet_col(node)
        np.testing.assert_array_equal(cm.capacity[j], [9.0, 8.0])
        assert_equivalent(cm, market)

    def test_departure_tombstones_row(self):
        market = make_market(9)
        cm = market.compile()
        gone = market.providers[0].provider_id
        row = cm.provider_index[gone]
        rows_before = cm.n_rows
        market.apply(MarketDelta(departures=(gone,)))
        assert gone not in cm.provider_index
        assert cm.n_rows == rows_before  # tombstoned, not compacted
        assert np.all(np.isinf(cm.fixed[row]))
        assert math.isinf(cm.remote[row])
        assert np.all(cm.demand[row] == 0.0)
        assert row not in set(cm.active_rows.tolist())
        assert_equivalent(cm, market)

    def test_arrival_reuses_tombstoned_row(self):
        market = make_market(10)
        cm = market.compile()
        gone = market.providers[0].provider_id
        market.apply(MarketDelta(departures=(gone,)))
        rows_before = cm.n_rows
        newcomer = fresh_providers(market, 1, start_id=600, seed=3)[0]
        market.apply(MarketDelta(arrivals=(newcomer,)))
        assert cm.n_rows == rows_before  # reused the free row
        assert_equivalent(cm, market)

    def test_growth_extends_g_and_shared(self):
        market = make_market(11, n_providers=6)
        cm = market.compile()
        cols_before = cm.g.shape[0]
        newcomers = fresh_providers(market, 5, start_id=700, seed=4)
        market.apply(MarketDelta(arrivals=tuple(newcomers)))
        assert cm.g.shape[0] >= cols_before + 5
        assert cm.shared.shape[1] == cm.g.shape[0]
        assert_equivalent(cm, market)

    def test_growing_deltas_reallocate_g_logarithmically(self):
        """One arrival per delta: g and shared are reserved geometrically,
        so 120 growing deltas reallocate them O(log n) times."""
        market = make_market(15, n_providers=4)
        cm = market.compile()
        newcomers = fresh_providers(market, 120, start_id=900, seed=5)
        reallocations = 0
        for newcomer in newcomers:
            g, shared = cm.g, cm.shared
            market.apply(MarketDelta(arrivals=(newcomer,)))
            assert (cm.g is g) == (cm.shared is shared)
            reallocations += cm.g is not g
        n = cm.n_providers
        assert n == 124
        assert 1 < reallocations <= math.ceil(math.log(n / 4, 1.5))
        assert cm.g.shape[0] > n + 1
        assert_equivalent(cm, market)

    def test_compaction_after_mass_departure(self):
        n = COMPACTION_SLACK + 8
        market = make_market(12, n_providers=n + 4, n_nodes=40)
        cm = market.compile()
        doomed = tuple(p.provider_id for p in market.providers[:n])
        market.apply(MarketDelta(departures=doomed))
        # free rows exceeded max(COMPACTION_SLACK, n_active) -> compacted
        assert cm.n_rows == cm.n_providers
        assert cm.g.shape[0] == cm.n_providers + 1
        assert_equivalent(cm, market)

    def test_emptied_then_refilled_market(self):
        market = make_market(13, n_providers=4)
        cm = market.compile()
        market.apply(
            MarketDelta(departures=tuple(p.provider_id for p in market.providers))
        )
        assert cm.n_providers == 0
        assert cm.social_cost({}) == 0.0
        newcomers = fresh_providers(market, 3, start_id=800, seed=9)
        market.apply(MarketDelta(arrivals=tuple(newcomers)))
        assert cm.n_providers == 3
        assert_equivalent(cm, market)

    def test_pickle_round_trip_after_deltas(self):
        market = make_market(14)
        cm = market.compile()
        gone = market.providers[0].provider_id
        market.apply(MarketDelta(departures=(gone,)))
        market.apply(
            MarketDelta(arrivals=tuple(fresh_providers(market, 2, 900, seed=2)))
        )
        clone = pickle.loads(pickle.dumps(cm))
        assert clone.provider_ids == cm.provider_ids
        np.testing.assert_array_equal(
            clone.fixed[clone.active_rows], cm.fixed[cm.active_rows]
        )
        clone.verify_against(market)

    def test_invariants_armed_verify_runs_on_apply(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_INVARIANTS", "1")
        market = make_market(15)
        market.compile()
        # invariant verification runs inside apply_delta and must pass
        market.apply(
            MarketDelta(departures=(market.providers[0].provider_id,))
        )

    def test_churn_sequence_stays_equivalent(self):
        rng = as_rng(99)
        market = make_market(16, n_providers=10, n_nodes=36)
        cm = market.compile()
        next_id = 10
        for step in range(25):
            present = [p.provider_id for p in market.providers]
            departures = tuple(
                pid for pid in present if rng.random() < 0.25
            )
            n_new = int(rng.integers(0, 4))
            arrivals = tuple(
                fresh_providers(market, n_new, next_id, seed=1000 + step)
            ) if n_new else ()
            next_id += n_new
            changes = {}
            prices = {}
            if rng.random() < 0.3:
                cl = market.network.cloudlets[
                    int(rng.integers(len(market.network.cloudlets)))
                ]
                changes[cl.node_id] = (
                    cl.compute_capacity * 0.9,
                    cl.bandwidth_capacity * 1.1,
                )
            if rng.random() < 0.3:
                cl = market.network.cloudlets[
                    int(rng.integers(len(market.network.cloudlets)))
                ]
                prices[cl.node_id] = (cl.alpha * 1.05, cl.beta * 0.95)
            market.apply(
                MarketDelta(
                    arrivals=arrivals,
                    departures=departures,
                    capacity_changes=changes,
                    price_changes=prices,
                )
            )
            assert_equivalent(cm, market)
