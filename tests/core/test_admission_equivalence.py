"""The one sequential-admission rule on the compiled tables vs its
object-graph oracles.

:func:`repro.core.assignment.sequential_admission` is the admission step of
both baselines, Appro's capacity repair and warm newcomer entry, LCF's
posted-price selfish entry, and the posted-price entry the dynamic
simulation and the toll extension share. Every caller must agree with its
per-pair cost-model twin in :mod:`tests.oracles.object_graph_reference`
exactly: the same placement in the same dict order, the same rejected set
and the same count.

Three pins fix what the kernel leaves to its callers: warm Appro keeps a
newcomer whose remote cost ties its cheapest cloudlet at the edge, the
posted-price entries (the simulation's and LCF's) send it remote, and the
repair re-places evicted services on the loads its eviction phase kept, not
on a fresh sum that can differ in the last bit.
"""

from __future__ import annotations

from contextlib import ExitStack
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.core.appro import _enter_newcomers, _repair_capacities, appro
from repro.core.assignment import sequential_admission
from repro.core.baselines import _admit_in_id_order, jo_offload_cache, offload_cache
from repro.core.lcf import _posted_entry, lcf, posted_price_entry
from repro.dynamics.population import PopulationProcess
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.game.engine import market_game
from repro.market.delta import MarketDelta
from repro.market.market import ServiceMarket
from repro.market.workload import WorkloadParams, generate_market
from repro.network.generators import random_mec_network
from repro.utils.rng import as_rng
from repro.utils.validation import CAPACITY_EPS

from tests.oracles.best_response_reference import naive_selfish_entry
from tests.oracles.object_graph_reference import (
    _SEAMS,
    object_enter_newcomers,
    object_jo_offload_cache,
    object_offload_cache,
    object_posted_entry,
    object_repair_capacities,
    use_object_graph,
)


def _paper_market(nodes, seed, **settings):
    return generate_market(
        random_mec_network(nodes, rng=seed), nodes // 3, rng=seed + 10, **settings
    )


def _patched_market():
    """A market moved by three population deltas: its compiled tables
    have tombstoned rows and arrivals in reused ones."""
    network = random_mec_network(80, rng=5)
    population = PopulationProcess(
        network, arrival_rate=6.0, mean_lifetime=3.0, rng=6, initial_population=30
    )
    market = ServiceMarket(network, population.present)
    market.compile()
    for _ in range(3):
        event = population.step()
        by_id = {p.provider_id: p for p in population.present}
        market.apply(
            MarketDelta(
                arrivals=tuple(by_id[pid] for pid in event.arrived),
                departures=event.departed,
            )
        )
    return market


def _overfull_market():
    """Twice as many providers as nodes at three times the demand: no
    algorithm can cache everyone."""
    return generate_market(
        random_mec_network(60, rng=7), 120,
        params=WorkloadParams().scaled(compute_scale=3.0, bandwidth_scale=3.0),
        rng=8,
    )


MARKETS = {
    **{
        f"paper-{nodes}-s{seed}": (lambda nodes=nodes, seed=seed: _paper_market(nodes, seed))
        for nodes in (60, 150, 250)
        for seed in (1, 2, 3)
    },
    "budget-4ms": lambda: _paper_market(150, 5, latency_budget_ms=4.0),
    "population-deltas": _patched_market,
    "over-full": _overfull_market,
}


@pytest.fixture(scope="module", params=sorted(MARKETS))
def market(request):
    return MARKETS[request.param]()


def test_markets_cover_the_admission_cases():
    budget = MARKETS["budget-4ms"]().compile()
    assert np.isinf(budget.fixed[budget.active_rows]).any()
    patched = MARKETS["population-deltas"]().compile()
    assert not np.array_equal(patched.active_rows, np.arange(patched.n_providers))
    overfull = MARKETS["over-full"]()
    assert jo_offload_cache(overfull).rejected
    assert offload_cache(overfull).rejected


def overloaded(market):
    """Every provider on the cloudlet with the least compute: a placement
    the repair must evict from."""
    cm = market.compile()
    node = cm.cloudlet_nodes[int(np.argmin(cm.capacity[:, 0]))]
    return {p.provider_id: node for p in market.providers}


def survivors(market):
    """A feasible partial placement (every other provider of
    ``JoOffloadCache``'s) and the providers left to enter, in id order."""
    placed = jo_offload_cache(market).placement
    kept = dict(list(placed.items())[::2])
    return kept, [p.provider_id for p in market.providers if p.provider_id not in kept]


def assert_same_entry(got, want):
    """``(placement, rejected, count)`` triples agree, dict order included."""
    assert list(got[0].items()) == list(want[0].items())
    assert got[1] == want[1]
    assert got[2] == want[2]


# --------------------------------------------------------------------- #
# Every caller against its oracle
# --------------------------------------------------------------------- #
class TestCallersMatchOracles:
    @pytest.mark.parametrize(
        "algorithm, oracle",
        [(jo_offload_cache, object_jo_offload_cache), (offload_cache, object_offload_cache)],
        ids=["JoOffloadCache", "OffloadCache"],
    )
    def test_baselines(self, market, algorithm, oracle):
        got, want = algorithm(market), oracle(market)
        assert_same_entry(
            (got.placement, got.rejected, None), (want.placement, want.rejected, None)
        )

    def test_appro_repair(self, market):
        placement = overloaded(market)
        got = _repair_capacities(market, dict(placement), market.compile())
        want = object_repair_capacities(market, dict(placement))
        assert got[2] > 0 or got[1]
        assert_same_entry(got, want)

    @pytest.mark.parametrize("allow_remote", [False, True])
    def test_warm_entry(self, market, allow_remote):
        placement, entrants = survivors(market)
        got_p, got_r, want_p, want_r = dict(placement), set(), dict(placement), set()
        got_n = _enter_newcomers(
            market, market.compile(), got_p, entrants, got_r, allow_remote
        )
        want_n = object_enter_newcomers(
            market, None, want_p, entrants, want_r, allow_remote
        )
        assert_same_entry((got_p, got_r, got_n), (want_p, want_r, want_n))

    def test_posted_price_entry(self, market):
        placement, entrants = survivors(market)
        got_p, got_r, want_p, want_r = dict(placement), set(), dict(placement), set()
        posted_price_entry(market.compile(), got_p, got_r, entrants)
        object_posted_entry(market, want_p, entrants, want_r, allow_remote=True)
        assert_same_entry((got_p, got_r, None), (want_p, want_r, None))

    @pytest.mark.parametrize("allow_remote", [False, True])
    def test_lcf_posted_entry(self, market, allow_remote):
        placement, entrants = survivors(market)
        got_p, got_r, want_p, want_r = dict(placement), set(), dict(placement), set()
        _posted_entry(market, got_p, entrants, got_r, allow_remote)
        object_posted_entry(market, want_p, entrants, want_r, allow_remote)
        assert_same_entry((got_p, got_r, None), (want_p, want_r, None))

    @pytest.mark.parametrize("allow_remote", [False, True])
    def test_lcf_cold_and_warm(self, market, allow_remote):
        """Whole LCF runs, cold and warm-started, replayed on the
        object-graph seams (a market Appro cannot place without the remote
        bin must fail on both)."""
        def run():
            try:
                cold = lcf(market, allow_remote=allow_remote).assignment
            except InfeasibleError:
                return None
            seed = SimpleNamespace(
                placement=dict(list(cold.placement.items())[1::2]),
                rejected=frozenset(),
            )
            warm = lcf(market, allow_remote=allow_remote, warm_start=seed).assignment
            return [(list(a.placement.items()), a.rejected) for a in (cold, warm)]

        got = run()
        with use_object_graph():
            want = run()
        assert got == want


# --------------------------------------------------------------------- #
# The seams
# --------------------------------------------------------------------- #
def spied(target, oracle):
    """Patch ``target`` with ``oracle`` behind a ``Mock(wraps=...)`` spy.
    The patch is a plain function, so a patched method still binds."""
    spy = mock.Mock(wraps=oracle)
    return spy, mock.patch(target, lambda *args, **kwargs: spy(*args, **kwargs))


class TestSeamsFire:
    def test_every_object_graph_seam_fires(self):
        market = MARKETS["paper-60-s1"]()
        compiled = lcf(market, gap_solver="greedy", allow_remote=True).assignment
        spies = {}
        with ExitStack() as stack:
            for target, oracle in _SEAMS:
                spies[target], patch = spied(target, oracle)
                stack.enter_context(patch)
            cold = lcf(market, gap_solver="greedy", allow_remote=True).assignment
            seed = SimpleNamespace(
                placement=dict(list(cold.placement.items())[1::2]),
                rejected=frozenset(),
            )
            lcf(market, allow_remote=True, warm_start=seed)
            # Posted-price LCF builds no game; full information does.
            lcf(market, gap_solver="greedy", allow_remote=True, information="full")
        assert list(cold.placement.items()) == list(compiled.placement.items())
        assert cold.rejected == compiled.rejected
        assert [t for t, spy in spies.items() if not spy.called] == []
        assert spies["repro.core.lcf._posted_entry"].call_count == 2
        assert spies["repro.core.appro._enter_newcomers"].call_count == 1

    def test_full_information_entry_seam_fires(self):
        market = MARKETS["paper-60-s1"]()
        compiled = lcf(market, information="full", allow_remote=True).assignment
        spy, patch = spied("repro.core.lcf._selfish_entry", naive_selfish_entry)
        with patch:
            naive = lcf(market, information="full", allow_remote=True).assignment
            lcf(market, allow_remote=True)
        assert spy.call_count == 1
        assert list(naive.placement.items()) == list(compiled.placement.items())
        assert naive.rejected == compiled.rejected

    def test_posted_lcf_builds_no_game(self):
        market = MARKETS["paper-60-s1"]()
        spy, patch = spied("repro.core.lcf.market_game", market_game)
        with patch:
            result = lcf(market, allow_remote=True)
        assert spy.call_count == 0
        assert (result.br_rounds, result.br_moves) == (0, 0)


# --------------------------------------------------------------------- #
# Pins
# --------------------------------------------------------------------- #
def _tie_market():
    return _paper_market(60, 1)


class TestTiePins:
    """A remote cost equal to the chosen cloudlet's price: warm Appro
    caches (it rejects only when remote is strictly cheaper), the
    posted-price entries go remote (they admit only when the cloudlet is
    strictly cheaper)."""

    def test_warm_appro_keeps_a_tied_newcomer_at_the_edge(self):
        market = _tie_market()
        cm = market.compile()
        cold = appro(market, allow_remote=True)
        for pid in cold.placement:
            seed = SimpleNamespace(
                placement={p: n for p, n in cold.placement.items() if p != pid},
                rejected=cold.rejected,
            )
            node = appro(market, allow_remote=True, warm_start=seed).placement.get(pid)
            if node is not None:
                break
        row = cm.provider_row(pid)
        price = cm.gap_costs()[row, cm.cloudlet_col(node)]
        assert cm.remote[row] > price
        with cm._writable_tables():
            cm.remote[row] = price
        warm = appro(market, allow_remote=True, warm_start=seed)
        assert warm.placement[pid] == node

    def test_posted_entry_sends_a_tied_entrant_remote(self):
        cm = _tie_market().compile()
        for pid in cm.provider_ids:
            placement = {}
            posted_price_entry(cm, placement, set(), [pid])
            if pid in placement:
                break
        row, col = cm.provider_row(pid), cm.cloudlet_col(placement[pid])
        with cm._writable_tables():
            cm.remote[row] = cm.shared[col, 1] + cm.fixed[row, col]
        placement, rejected = {}, set()
        posted_price_entry(cm, placement, rejected, [pid])
        assert placement == {} and rejected == {pid}

    def test_lcf_sends_a_tied_selfish_provider_remote(self):
        market = _tie_market()
        cm = market.compile()
        # With xi = 0 nobody is coordinated: the first provider enters an
        # empty market.
        first = market.providers[0].provider_id
        node = lcf(market, xi=0.0, allow_remote=True).assignment.placement[first]
        row, col = cm.provider_row(first), cm.cloudlet_col(node)
        with cm._writable_tables():
            cm.remote[row] = cm.shared[col, 1] + cm.fixed[row, col]
        tied = lcf(market, xi=0.0, allow_remote=True).assignment
        assert first in tied.rejected


class TestFirstMinimumWins:
    """Two cloudlets tie exactly as an entrant's cheapest: the lower column
    wins, under a baseline preference table, the gap prices and the posted
    prices. (The remote-vs-cloudlet ties above cannot tell the first
    minimum from the last.)"""

    LOW, HIGH = 1, 4

    def tied(self):
        """A compiled market whose first provider's gap and posted prices
        are 0 at columns LOW and HIGH and positive elsewhere."""
        market = _tie_market()
        cm = market.compile()
        pid = cm.provider_ids[0]
        row = cm.provider_row(pid)
        cols = [self.LOW, self.HIGH]
        with cm._writable_tables():
            cm.fixed[row, cols] = 0.0
            cm.coeff[cols] = 0.0
            cm.shared[cols, :] = 0.0
        assert cm.fits_mask(row, np.zeros((cm.n_cloudlets, 2)))[cols].all()
        for prices in (cm.gap_costs()[row], cm.shared[:, 1] + cm.fixed[row]):
            assert list(np.flatnonzero(prices == prices.min())) == cols
        return market, cm, pid

    def test_baseline_preference_tie(self):
        _, cm, pid = self.tied()
        preference = np.ones_like(cm.fixed)
        preference[:, [self.LOW, self.HIGH]] = 0.0
        placement, _ = _admit_in_id_order(cm, preference)
        assert placement[pid] == cm.cloudlet_nodes[self.LOW]

    @pytest.mark.parametrize("allow_remote", [False, True])
    def test_gap_price_tie(self, allow_remote):
        market, cm, pid = self.tied()
        placement = {}
        _enter_newcomers(market, cm, placement, [pid], set(), allow_remote)
        assert placement == {pid: cm.cloudlet_nodes[self.LOW]}

    def test_posted_price_tie(self):
        _, cm, pid = self.tied()
        placement = {}
        posted_price_entry(cm, placement, set(), [pid])
        assert placement == {pid: cm.cloudlet_nodes[self.LOW]}


def argmin_admission(cm, loads, placement, rejected, entrants, price, threshold=None):
    """The per-entrant kernel the sorted walk replaced: one capacity mask
    and one first argmin per entrant."""
    admitted = 0
    for pid in entrants:
        row = cm.provider_row(pid)
        mask = cm.fits_mask(row, loads) & np.isfinite(cm.fixed[row])
        costs = np.where(mask, price(row), np.inf)
        j = int(np.argmin(costs))
        if not costs[j] < (np.inf if threshold is None else threshold[row]):
            rejected.add(pid)
            continue
        placement[pid] = cm.cloudlet_nodes[j]
        loads[j] += cm.demand[row]
        admitted += 1
    return admitted


@pytest.mark.parametrize("name", ["over-full", "budget-4ms"])
def test_sorted_walk_equals_per_entrant_argmin(name):
    """Random price tables full of ties, with NaN and ±inf prices, on a
    market that fills its cloudlets and one with forbidden pairs."""
    cm = MARKETS[name]().compile()
    rng = as_rng(3)
    specials = np.array([np.nan, np.inf, -np.inf])
    for _ in range(60):
        table = rng.integers(0, 4, size=cm.fixed.shape).astype(float)
        odd = rng.random(cm.fixed.shape) < 0.05
        table[odd] = rng.choice(specials, size=int(odd.sum()))
        threshold = None if rng.random() < 0.3 else rng.choice(
            [0.5, 1.5, 2.5, np.inf], size=len(cm.fixed)
        )
        entrants = list(rng.permutation(cm.provider_ids))
        start = rng.random((cm.n_cloudlets, 2)) * cm.capacity * 0.5
        got = ({}, set(), start.copy())
        want = ({}, set(), start.copy())
        n_got = sequential_admission(
            cm, got[2], got[0], got[1], entrants, table.__getitem__, threshold
        )
        n_want = argmin_admission(
            cm, want[2], want[0], want[1], entrants, table.__getitem__, threshold
        )
        assert_same_entry((got[0], got[1], n_got), (want[0], want[1], n_want))
        assert got[2].tobytes() == want[2].tobytes()


def test_an_unknown_entrant_raises_before_anyone_is_admitted():
    cm = _tie_market().compile()
    placement, rejected, loads = {}, set(), np.zeros((cm.n_cloudlets, 2))
    with pytest.raises(ConfigurationError, match="unknown provider id"):
        sequential_admission(
            cm, loads, placement, rejected, [cm.provider_ids[0], -1],
            cm.gap_costs().__getitem__,
        )
    assert placement == {} and rejected == set() and not loads.any()


class TestRepairLoadPin:
    def test_re_placement_reads_the_eviction_phase_loads(self):
        """An evicted service re-enters on ``(total - d) + d``, the loads
        the eviction phase kept, which here sits just above the
        capacity's tolerance while a fresh sum of the remaining members
        plus ``d`` sits just inside it: the service is rejected, not put
        back."""
        market = generate_market(random_mec_network(30, rng=5), 12, rng=6)
        cm = market.compile()
        big = max(
            market.providers, key=lambda p: max(p.compute_demand, p.bandwidth_demand)
        )
        others = [p for p in market.providers if p is not big]
        rng = as_rng(0)
        for _ in range(500):
            order = [others[i] for i in rng.permutation(len(others))]
            total = big.compute_demand
            fresh = 0.0
            for p in order:
                total += p.compute_demand
                fresh += p.compute_demand
            kept_then_back = (total - big.compute_demand) + big.compute_demand
            fresh += big.compute_demand
            if fresh < min(total, kept_then_back):
                break
        else:
            pytest.fail("no placement order separates the two sums")
        cap = fresh - CAPACITY_EPS
        while cap + CAPACITY_EPS < fresh:
            cap = np.nextafter(cap, np.inf)
        assert cap + CAPACITY_EPS < min(total, kept_then_back)

        home, *elsewhere = cm.cloudlet_nodes
        market.apply(MarketDelta(capacity_changes={
            home: (float(cap), 1e12), **{node: (0.0, 0.0) for node in elsewhere},
        }))
        placement = {p.provider_id: home for p in [big, *order]}
        got = _repair_capacities(market, dict(placement), market.compile())
        assert got[1] == {big.provider_id} and got[2] == 0
        assert_same_entry(got, object_repair_capacities(market, dict(placement)))
