"""Appro's slot-table GAP against the weighted per-pair build it replaced.

The library states the Eq. (7) reduction as one slot table: a cost table
from the compiled market and a slot count per bin (one per virtual
cloudlet, ``n`` for the remote bin), solved by :mod:`repro.gap`.
:func:`~tests.oracles.object_graph_reference.use_weighted_gap` replays
cold Appro the way it ran before: the split recomputed per cloudlet, a
weighted GAP built one (provider, slot) pair at a time from the cost model
(every item weighs one slot's capacity), solved by the general-GAP
reference, and mapped back slot by slot. Placement, rejected set,
``gap_cost`` and ``gap_lower_bound`` must agree with ``==`` — or both
runs raise the same exception with the same message — for both pricings,
with and without the remote bin, for both GAP solvers, cold and warm.
The lower bound is also held to the reference's HiGHS relaxation and,
where the instance is small enough, to the exact GAP optimum.
"""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np
import pytest

from repro.core.appro import appro
from repro.core.virtual_cloudlets import VirtualCloudletSplit
from repro.dynamics.population import PopulationProcess
from repro.exceptions import InfeasibleError, ReproError
from repro.market.costs import MM1Congestion, QuadraticCongestion
from repro.market.delta import MarketDelta
from repro.market.market import ServiceMarket
from repro.market.pricing import Pricing
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network

from tests.conftest import build_line_network, build_provider
from tests.oracles import gap_reference
from tests.oracles.object_graph_reference import (
    object_weighted_gap_instance,
    use_weighted_gap,
)

OPTIONS = [
    dict(slot_pricing=pricing, allow_remote=remote, gap_solver=solver)
    for pricing in ("flat", "marginal")
    for remote in (False, True)
    for solver in ("shmoys_tardos", "greedy")
]


def _paper(size: int, seed: int, budget=None) -> ServiceMarket:
    return generate_market(
        random_mec_network(size, rng=seed), 60, rng=seed + 1, latency_budget_ms=budget
    )


def _paper_sized(size: int, n_providers: int) -> ServiceMarket:
    return generate_market(random_mec_network(size, rng=11), n_providers, rng=111)


def _congested(congestion) -> ServiceMarket:
    # Tight: many providers per slot, so the remote bin and the repair work.
    return generate_market(
        random_mec_network(25, rng=60), 20, rng=61, congestion=congestion
    )


def _delta_patched() -> ServiceMarket:
    network = random_mec_network(150, rng=4)
    population = PopulationProcess(
        network, arrival_rate=8.0, mean_lifetime=4.0, rng=5, initial_population=60
    )
    market = ServiceMarket(network, population.present, pricing=Pricing())
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


def _line(n_providers: int, **capacities) -> ServiceMarket:
    providers = [build_provider(i) for i in range(n_providers)]
    return ServiceMarket(
        build_line_network(**capacities), providers, pricing=Pricing()
    )


MARKETS = {
    **{
        f"paper-{size}-s{seed}": functools.partial(_paper, size, seed)
        for size in (50, 100, 150, 200, 250)
        for seed in range(1, 6)
    },
    "quadratic": functools.partial(_congested, QuadraticCongestion(scale=2.0)),
    "mm1": functools.partial(_congested, MM1Congestion(capacity=64)),
    "delta-patched": _delta_patched,
    # A 3 ms budget forbids (provider, cloudlet) pairs: inf costs.
    "latency-budget": functools.partial(_paper, 150, 2, 3.0),
    # Every cloudlet splits into zero slots: only the remote bin is left.
    "zero-slots": functools.partial(_line, 3, compute=0.5),
    # 2 cloudlets x 2 slots for 5 providers.
    "too-few-slots": functools.partial(_line, 5, compute=2.0, bandwidth=25.0),
    # Six providers: small enough for the exact GAP search.
    "small": functools.partial(_paper_sized, 30, 6),
}


@functools.lru_cache(maxsize=None)
def market(name: str) -> ServiceMarket:
    return MARKETS[name]()


def outcome(m: ServiceMarket, options: dict):
    """Everything the differential compares about one cold + warm run."""
    try:
        cold = appro(m, **options)
    except ReproError as exc:
        return ("raised", type(exc), str(exc))
    warm = appro(m, warm_start=cold, **options)
    return (
        list(cold.placement.items()),
        cold.rejected,
        cold.info["gap_cost"],
        cold.info["gap_lower_bound"],
        cold.social_cost,
        list(warm.placement.items()),
        warm.rejected,
    )


@pytest.mark.parametrize("name", sorted(MARKETS))
def test_appro_matches_the_weighted_build(name):
    m = market(name)
    for options in OPTIONS:
        expected = outcome(m, options)
        with use_weighted_gap():
            assert outcome(m, options) == expected, options


@pytest.mark.parametrize("name", sorted(MARKETS))
def test_lower_bound_is_the_weighted_lp_optimum(name):
    m = market(name)
    for pricing in ("flat", "marginal"):
        for remote in (False, True):
            try:
                split = VirtualCloudletSplit(m, allow_remote=remote, slot_pricing=pricing)
                weighted = object_weighted_gap_instance(split)
                highs = gap_reference._highs_relaxation(weighted).value
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    appro(m, allow_remote=remote, slot_pricing=pricing)
                continue
            bound = appro(m, allow_remote=remote, slot_pricing=pricing).info[
                "gap_lower_bound"
            ]
            assert bound == pytest.approx(highs, rel=1e-9)
            if weighted.n_items <= 6:
                exact = gap_reference.exact_gap(weighted).cost
                assert bound == pytest.approx(exact, rel=1e-9)


def test_the_markets_cover_each_case():
    # The budget market has forbidden pairs, the zero-slot split leaves
    # only the remote bin, the tight one raises without it, and the
    # delta-patched market is not id-ordered in its compiled rows.
    budget = VirtualCloudletSplit(market("latency-budget")).build_gap_instance()
    assert np.isinf(budget.costs).any()
    zero = VirtualCloudletSplit(market("zero-slots"), allow_remote=True)
    assert zero.build_gap_instance().slots.tolist() == [3]
    with pytest.raises(InfeasibleError, match="5 items but only 4 slots"):
        appro(market("too-few-slots"))
    patched = market("delta-patched").compile()
    assert patched.active_rows.tolist() != list(range(patched.n_providers))
    small = object_weighted_gap_instance(VirtualCloudletSplit(market("small")))
    assert gap_reference.exact_gap(small).cost > 0


def test_the_weighted_replay_is_not_vacuous():
    m = market("paper-100-s1")
    relax = mock.patch.object(
        gap_reference,
        "_assignment_relaxation",
        wraps=gap_reference._assignment_relaxation,
    )
    greedy = mock.patch.object(
        gap_reference, "greedy_gap", wraps=gap_reference.greedy_gap
    )
    with relax as relaxation, use_weighted_gap():
        appro(m, allow_remote=True)
    (instance, slots), _ = relaxation.call_args
    assert isinstance(instance, gap_reference.WeightedGAPInstance)
    assert slots.tolist() == [1] * (instance.n_bins - 1) + [instance.n_items]
    with greedy as solver, use_weighted_gap():
        appro(m, gap_solver="greedy")
    solver.assert_called_once()
