"""Shared dynamics-test helpers: scripted populations and provider drawing."""

from __future__ import annotations

import pytest

from repro.dynamics.population import PopulationEvent
from repro.market.service import ServiceProvider
from repro.market.workload import generate_providers
from repro.utils.rng import as_rng


class ScriptedPopulation:
    """Drop-in for :class:`PopulationProcess` that replays a fixed trace.

    ``script`` is a list of ``(arrivals, departures)`` pairs — one per
    epoch, arrivals as :class:`ServiceProvider` objects, departures as
    provider ids. Mirrors the real process: departures apply first.
    """

    def __init__(self, script):
        self.script = list(script)
        self._present = {}
        self._epoch = 0
        self.arrival_rate = 0.0  # trace-profile compatibility

    @property
    def present(self):
        return [self._present[k] for k in sorted(self._present)]

    @property
    def population(self):
        return len(self._present)

    def step(self) -> PopulationEvent:
        arrivals, departures = self.script[self._epoch]
        self._epoch += 1
        for pid in departures:
            del self._present[pid]
        for provider in arrivals:
            self._present[provider.provider_id] = provider
        return PopulationEvent(
            epoch=self._epoch,
            arrived=tuple(p.provider_id for p in arrivals),
            departed=tuple(sorted(departures)),
        )


def draw_providers(network, count, start_id, seed, params=None):
    """New providers with ids ``start_id..start_id+count-1``."""
    drawn = generate_providers(network, count, params=params, rng=as_rng(seed))
    renumbered = []
    for offset, provider in enumerate(drawn):
        service = provider.service
        service.service_id = start_id + offset
        renumbered.append(
            ServiceProvider(provider_id=start_id + offset, service=service)
        )
    return renumbered


@pytest.fixture
def scripted_population_cls():
    return ScriptedPopulation


@pytest.fixture
def provider_factory():
    return draw_providers
