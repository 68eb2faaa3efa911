"""Provider population dynamics.

Each epoch, a geometric number of new providers arrives (mean
``arrival_rate``) and every present provider departs independently with
probability ``1 / mean_lifetime``. Arrivals draw their services from the
same Section IV.A workload distributions as the static experiments, so a
long-running dynamic market is statistically the paper's market in steady
state with mean population ``arrival_rate * mean_lifetime``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.exceptions import ConfigurationError
from repro.market.service import ServiceProvider
from repro.market.workload import WorkloadParams, generate_providers
from repro.network.topology import MECNetwork
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class PopulationEvent:
    """What happened to the population in one epoch."""

    epoch: int
    arrived: tuple
    departed: tuple

    @property
    def churn(self) -> int:
        return len(self.arrived) + len(self.departed)


class PopulationProcess:
    """Generates the provider population epoch by epoch."""

    def __init__(
        self,
        network: MECNetwork,
        arrival_rate: float = 4.0,
        mean_lifetime: float = 10.0,
        params: Optional[WorkloadParams] = None,
        rng: RandomSource = None,
        initial_population: int = 0,
    ) -> None:
        check_positive(arrival_rate, "arrival_rate")
        check_positive(mean_lifetime, "mean_lifetime")
        if mean_lifetime < 1.0:
            raise ConfigurationError("mean_lifetime must be >= 1 epoch")
        self.network = network
        self.arrival_rate = arrival_rate
        self.departure_prob = 1.0 / mean_lifetime
        self.params = params if params is not None else WorkloadParams()
        self.rng = as_rng(rng)
        self._next_id = 0
        self._present: Dict[int, ServiceProvider] = {}
        self._epoch = 0
        if initial_population:
            for provider in self._draw_providers(initial_population):
                self._present[provider.provider_id] = provider

    def _draw_providers(self, count: int) -> List[ServiceProvider]:
        """Draw new providers with globally unique, increasing ids."""
        drawn = generate_providers(
            self.network, count, params=self.params, rng=self.rng
        )
        renumbered = []
        for provider in drawn:
            service = provider.service
            service.service_id = self._next_id
            renumbered.append(
                ServiceProvider(provider_id=self._next_id, service=service)
            )
            self._next_id += 1
        return renumbered

    @property
    def present(self) -> List[ServiceProvider]:
        """Providers currently in the market, ordered by id."""
        return [self._present[k] for k in sorted(self._present)]

    @property
    def population(self) -> int:
        return len(self._present)

    @property
    def expected_population(self) -> float:
        """Steady-state mean: arrival_rate * mean_lifetime."""
        return self.arrival_rate / self.departure_prob

    def step(self) -> PopulationEvent:
        """Advance one epoch: departures first, then arrivals."""
        self._epoch += 1
        # One uniform per present provider, in insertion order: the same
        # doubles, in the same order, as one scalar draw each.
        present = list(self._present)
        leaves = self.rng.random(len(present)) < self.departure_prob
        departed: Set[int] = {
            pid for pid, leaving in zip(present, leaves.tolist()) if leaving
        }
        for pid in departed:
            del self._present[pid]

        n_arrivals = int(self.rng.poisson(self.arrival_rate))
        arrived = self._draw_providers(n_arrivals) if n_arrivals else []
        for provider in arrived:
            self._present[provider.provider_id] = provider

        return PopulationEvent(
            epoch=self._epoch,
            arrived=tuple(p.provider_id for p in arrived),
            departed=tuple(sorted(departed)),
        )


__all__ = ["PopulationEvent", "PopulationProcess"]
