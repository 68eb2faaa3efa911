"""VCG-style payments for the coordinated service market (extension).

The paper coordinates providers through bulk-lease contracts but never
prices the coordination. The Clarke pivot rule supplies the canonical
answer: each coordinated provider pays the **externality** it imposes —

``p_l = C(OPT of everyone else without l) - [C(OPT with l) - c_l]``

i.e. how much costlier its presence makes everybody else. With an *exact*
allocation oracle these payments make truthful demand reporting a dominant
strategy; with an approximate oracle (we use marginal-priced Appro, which
the LP bound certifies near-optimal) the same formula yields approximately
truthful payments — the standard practical compromise, stated explicitly in
:class:`VCGOutcome.truthful` and the docstrings.

Properties that do hold exactly and are tested:

* payments are computed from runs that never consult the paying provider's
  own report beyond its resource demand;
* no-externality providers pay ~0;
* total payments equal the aggregate externality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.appro import appro
from repro.core.assignment import CachingAssignment, Stopwatch
from repro.exceptions import ConfigurationError
from repro.market.market import ServiceMarket


@dataclass
class VCGOutcome:
    """Allocation plus Clarke payments."""

    assignment: CachingAssignment
    #: provider_id -> Clarke payment (>= 0 up to oracle approximation).
    payments: Dict[int, float]
    #: Social cost of the chosen allocation.
    social_cost: float
    #: Whether the oracle was exact (payments then dominant-strategy
    #: truthful). False for the Appro oracle.
    truthful: bool
    runtime_s: float

    @property
    def total_payments(self) -> float:
        return sum(self.payments.values())

    def payment(self, provider_id: int) -> float:
        try:
            return self.payments[provider_id]
        except KeyError:
            raise ConfigurationError(f"no payment for provider {provider_id}") from None


def _submarket(market: ServiceMarket, exclude: int) -> ServiceMarket:
    """The market without one provider (same network and all four settings)."""
    providers = [p for p in market.providers if p.provider_id != exclude]
    if not providers:
        raise ConfigurationError("cannot build a submarket with zero providers")
    model = market.cost_model
    return ServiceMarket(
        market.network,
        providers,
        pricing=model.pricing,
        congestion=model.congestion,
        latency_budget_ms=model.latency_budget_ms,
        remote_premium=model.remote_premium,
    )


def vcg_payments(
    market: ServiceMarket,
    allow_remote: bool = True,
) -> VCGOutcome:
    """Run the allocation oracle and compute Clarke payments for everyone.

    Cost: one oracle run on the full market plus one per provider (the
    counterfactual markets), so O(|N|) Appro invocations.
    """
    if market.num_providers < 2:
        raise ConfigurationError("VCG needs at least two providers")

    with Stopwatch() as watch:
        allocation = appro(market, allow_remote=allow_remote)
        total_cost = allocation.social_cost

        own_costs = allocation.provider_costs()
        payments: Dict[int, float] = {}
        for provider in market.providers:
            pid = provider.provider_id
            own_cost = own_costs[pid]
            others_with_l = total_cost - own_cost
            sub = _submarket(market, exclude=pid)
            without_l = appro(sub, allow_remote=allow_remote).social_cost
            # Clarke pivot: what the others lose by l's presence. Clamp at
            # zero — a negative externality estimate is oracle slack.
            payments[pid] = max(0.0, others_with_l - without_l)

    return VCGOutcome(
        assignment=allocation,
        payments=payments,
        social_cost=total_cost,
        truthful=False,  # Appro is an (excellent) approximation, not exact
        runtime_s=watch.elapsed,
    )


__all__ = ["VCGOutcome", "vcg_payments", "_submarket"]
