"""The Eq. (6) MILP optimum against the branch-and-bound oracle.

:func:`repro.core.optimal_caching` solves the integral Eq. (6) program on
the compiled tables;
:func:`tests.oracles.optimal_reference.optimal_caching` is the exhaustive
branch-and-bound it replaced. Both are exact, so their social costs must
agree to solver precision. Placements are not compared: ties between
optimal placements are common.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.core.optimal import optimal_caching
from repro.dynamics import PopulationProcess
from repro.exceptions import InfeasibleError
from repro.market.costs import CongestionFunction, QuadraticCongestion
from repro.market.delta import MarketDelta
from repro.market.market import ServiceMarket
from repro.market.pricing import Pricing
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network

from tests.conftest import build_line_network, build_provider
from tests.oracles.optimal_reference import optimal_caching as reference_optimum

SIZES = (25, 30, 50)
SEEDS = (1, 2, 3, 4, 5)
N_PROVIDERS = 8
RTOL = 1e-9

STEP_SEEDS = (1, 2, 3)


class StepCongestion(CongestionFunction):
    """``g(k) = 1`` up to two occupants, ``6`` beyond. The marginal charge
    ``k*g(k) - (k-1)*g(k-1)`` runs 1, 1, 16, 6, 6, ...: not monotone, so
    only the ordering rows keep the integral program exact."""

    def __call__(self, occupancy: int) -> float:
        return 1.0 if occupancy <= 2 else 6.0


CASES = [f"paper-{n}-{s}" for n in SIZES for s in SEEDS] + [
    "quadratic", "delta", "budget",
] + [f"step-{s}" for s in STEP_SEEDS]


@lru_cache(maxsize=None)
def _market(case: str) -> ServiceMarket:
    if case == "quadratic":
        return generate_market(
            random_mec_network(30, rng=5), N_PROVIDERS, rng=6,
            congestion=QuadraticCongestion(scale=2.0),
        )
    if case == "delta":
        # A live market patched by three population deltas: tombstoned and
        # recycled rows, a grown congestion table.
        network = random_mec_network(30, rng=7)
        population = PopulationProcess(
            network, arrival_rate=2.0, mean_lifetime=3.0, rng=8,
            initial_population=6,
        )
        market = ServiceMarket(network, population.present, pricing=Pricing.random(9))
        market.compile()
        for _ in range(3):
            event = population.step()
            by_id = {p.provider_id: p for p in population.present}
            market.apply(MarketDelta(
                arrivals=tuple(by_id[pid] for pid in sorted(event.arrived)),
                departures=event.departed,
            ))
        return market
    if case == "budget":
        return generate_market(
            random_mec_network(25, rng=3), 6, rng=4, latency_budget_ms=8.0,
        )
    kind, *rest = case.split("-")
    if kind == "step":
        (seed,) = rest
        return generate_market(
            random_mec_network(30, rng=int(seed)), 9, rng=int(seed) + 1,
            congestion=StepCongestion(),
        )
    n, seed = rest
    return generate_market(
        random_mec_network(int(n), rng=int(seed)), N_PROVIDERS, rng=int(seed) + 1
    )


class TestAgainstBranchAndBound:
    @pytest.mark.parametrize("case", CASES)
    def test_equals_the_reference_optimum(self, case):
        market = _market(case)
        assert market.num_providers <= 10
        result = optimal_caching(market)
        reference = reference_optimum(market)
        assert result.social_cost == pytest.approx(reference.social_cost, rel=RTOL)
        assert result.info["optimal_cost"] == result.social_cost
        result.check_capacities()

    def test_the_cases_exercise_what_they_name(self):
        cm = _market("delta").compile()
        assert cm.n_rows > cm.n_providers  # tombstoned rows survive the deltas
        assert np.isinf(_market("budget").compile().fixed).any()
        # Some step optimum stacks three or more occupants on one cloudlet,
        # where the unordered slot prices would undercut Eq. (6).
        assert any(
            max(optimal_caching(_market(f"step-{s}")).occupancy().values()) >= 3
            for s in STEP_SEEDS
        )


class TestInfeasible:
    def test_over_full_market_raises_in_both(self):
        # Two cloudlets of compute 2.0 hold four providers; five arrive.
        network = build_line_network(n_cloudlets=2, compute=2.0)
        market = ServiceMarket(
            network, [build_provider(i) for i in range(5)], pricing=Pricing()
        )
        with pytest.raises(InfeasibleError):
            optimal_caching(market)
        with pytest.raises(InfeasibleError):
            reference_optimum(market)
