"""REPRO_SANITIZE: frozen compiled tables raise on stray in-place writes.

The runtime witness for reprolint R9 — with the flag set, every
``CompiledMarket`` freezes its numpy tables outside the internal
writable context the build/patch paths use, so a write that escapes the
static rule still fails loudly *at the write site* instead of corrupting
every holder of the shared arrays.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.market.delta import MarketDelta
from repro.market.service import ServiceProvider
from repro.market.workload import generate_market, generate_providers
from repro.network.generators import random_mec_network
from repro.utils.contracts import SANITIZE_ENV_FLAG, sanitize_active
from repro.utils.rng import as_rng


def make_market(seed=7, n_providers=14, n_nodes=30):
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


@pytest.fixture
def sanitized(monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV_FLAG, "1")
    assert sanitize_active()


class TestFrozenTables:
    def test_all_tables_frozen(self, sanitized):
        cm = make_market().compile()
        for name in cm._TABLE_FIELDS:
            assert not getattr(cm, name).flags.writeable, name

    def test_injected_write_raises_at_the_write_site(self, sanitized):
        cm = make_market().compile()
        with pytest.raises(ValueError, match="read-only"):
            cm.capacity[0, 0] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            cm.fixed[0, :] = np.inf
        with pytest.raises(ValueError, match="read-only"):
            cm.shared.sort()
        with pytest.raises(ValueError, match="read-only"):
            np.add(cm.remote, 1.0, out=cm.remote)

    def test_unsanitized_default_stays_writable(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV_FLAG, raising=False)
        assert not sanitize_active()
        cm = make_market().compile()
        assert cm.fixed.flags.writeable

    def test_active_rows_cache_is_always_frozen(self):
        # Unconditional, not just under the flag: the cache is handed out
        # by reference on every call.
        cm = make_market().compile()
        rows = cm.active_rows
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 5


class TestWritableContext:
    def test_apply_delta_patches_through_the_frozen_state(self, sanitized):
        market = make_market()
        cm = market.compile()
        node = market.network.cloudlets[0].node_id
        pid = market.providers[0].provider_id
        market.apply(
            MarketDelta(departures=[pid], capacity_changes={node: (5.0, 5.0)})
        )
        j = cm.cloudlet_col(node)
        assert cm.capacity[j, 0] == 5.0
        assert pid not in cm.provider_index
        # ...and the tables re-freeze after the patch.
        assert not cm.capacity.flags.writeable
        assert not cm.fixed.flags.writeable

    def test_row_growth_leaves_new_arrays_frozen(self, sanitized):
        market = make_market(n_providers=6)
        cm = market.compile()
        arrivals = fresh_providers(market, 8, start_id=1000, seed=99)
        market.apply(MarketDelta(arrivals=tuple(arrivals)))
        assert cm.n_providers == 6 + len(arrivals)
        assert not cm.fixed.flags.writeable

    def test_context_is_reentrant(self, sanitized):
        cm = make_market().compile()
        with cm._writable_tables():
            with cm._writable_tables():
                cm.capacity[0, 0] = 1.0
            # Still inside the outer context: must remain writable.
            cm.capacity[0, 1] = 2.0
        assert not cm.capacity.flags.writeable

    def test_delta_equivalence_under_sanitizer(self, sanitized):
        """A patched market equals a from-scratch compile, frozen or not."""
        market = make_market()
        node = market.network.cloudlets[1].node_id
        pid = market.providers[2].provider_id
        market.apply(
            MarketDelta(departures=[pid], price_changes={node: (0.9, 1.7)})
        )
        patched = market.compile()
        fresh = type(patched).from_market(market)
        rows_p, rows_f = patched.active_rows, fresh.active_rows
        np.testing.assert_array_equal(
            patched.fixed[rows_p], fresh.fixed[rows_f]
        )
        np.testing.assert_array_equal(patched.capacity, fresh.capacity)


class TestPickling:
    def test_sanitized_blob_refreezes_in_receiving_process(self, sanitized):
        cm = make_market().compile()
        clone = pickle.loads(pickle.dumps(cm))
        assert not clone.fixed.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            clone.capacity[0, 0] = 1.0

    def test_unpickling_without_flag_thaws(self, sanitized, monkeypatch):
        cm = make_market().compile()
        blob = pickle.dumps(cm)
        monkeypatch.delenv(SANITIZE_ENV_FLAG)
        clone = pickle.loads(blob)
        assert clone.fixed.flags.writeable

    def test_unpickling_with_flag_freezes_writable_blob(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV_FLAG, raising=False)
        cm = make_market().compile()
        assert cm.fixed.flags.writeable
        blob = pickle.dumps(cm)
        monkeypatch.setenv(SANITIZE_ENV_FLAG, "1")
        clone = pickle.loads(blob)
        assert not clone.fixed.flags.writeable

    def test_delta_still_applies_after_round_trip(self, sanitized):
        market = make_market()
        cm = market.compile()
        clone = pickle.loads(pickle.dumps(cm))
        node = market.network.cloudlets[0].node_id
        delta = MarketDelta(capacity_changes={node: (3.0, 4.0)})
        market.apply(delta)  # market's own compiled copy
        clone.apply_delta(delta, market)
        j = clone.cloudlet_col(node)
        assert clone.capacity[j, 0] == 3.0
        assert not clone.capacity.flags.writeable

    @pytest.mark.parametrize("protocol", [4, pickle.HIGHEST_PROTOCOL])
    def test_round_trip_at_scale(self, sanitized, monkeypatch, protocol):
        """Tables of 1 KB or more may unpickle as read-only views on
        bytes: the clone still freezes, thaws for a delta, and unpickles
        writable without the flag."""
        market = make_market(n_providers=60, n_nodes=150)
        blob = pickle.dumps(market.compile(), protocol=protocol)
        clone = pickle.loads(blob)
        for name in clone._TABLE_FIELDS:
            assert not getattr(clone, name).flags.writeable, name
        node = market.network.cloudlets[0].node_id
        delta = MarketDelta(
            capacity_changes={node: (3.0, 4.0)},
            arrivals=tuple(fresh_providers(market, 2, 10_000, seed=3)),
        )
        market.apply(delta)
        clone.apply_delta(delta, market)
        for name in ("fixed", "remote", "capacity"):
            np.testing.assert_array_equal(
                getattr(clone, name), getattr(market.compile(), name)
            )
        assert not clone.fixed.flags.writeable
        monkeypatch.delenv(SANITIZE_ENV_FLAG)
        thawed = pickle.loads(blob)
        for name in thawed._TABLE_FIELDS:
            assert getattr(thawed, name).flags.writeable, name
