"""Tests for the provider population process."""

import numpy as np
import pytest

from repro.dynamics.population import PopulationEvent, PopulationProcess
from repro.exceptions import ConfigurationError
from repro.network.generators import random_mec_network


@pytest.fixture(scope="module")
def network():
    return random_mec_network(60, rng=1)


class TestPopulationProcess:
    def test_initial_population(self, network):
        pop = PopulationProcess(network, rng=1, initial_population=10)
        assert pop.population == 10
        assert [p.provider_id for p in pop.present] == list(range(10))

    def test_ids_never_reused(self, network):
        pop = PopulationProcess(
            network, arrival_rate=5.0, mean_lifetime=2.0, rng=2,
            initial_population=10,
        )
        seen = {p.provider_id for p in pop.present}
        for _ in range(20):
            event = pop.step()
            for pid in event.arrived:
                assert pid not in seen
                seen.add(pid)

    def test_departed_leave_and_arrived_join(self, network):
        pop = PopulationProcess(
            network, arrival_rate=3.0, mean_lifetime=3.0, rng=3,
            initial_population=20,
        )
        event = pop.step()
        present_ids = {p.provider_id for p in pop.present}
        for pid in event.departed:
            assert pid not in present_ids
        for pid in event.arrived:
            assert pid in present_ids

    def test_steady_state_population(self, network):
        pop = PopulationProcess(
            network, arrival_rate=6.0, mean_lifetime=5.0, rng=4,
        )
        sizes = []
        for _ in range(200):
            pop.step()
            sizes.append(pop.population)
        # E[pop] = 30; allow generous monte-carlo slack.
        assert 20 <= np.mean(sizes[50:]) <= 40
        assert pop.expected_population == pytest.approx(30.0)

    def test_deterministic_under_seed(self, network):
        a = PopulationProcess(network, rng=5, initial_population=5)
        b = PopulationProcess(network, rng=5, initial_population=5)
        for _ in range(10):
            ea, eb = a.step(), b.step()
            assert ea.arrived == eb.arrived
            assert ea.departed == eb.departed

    def test_epoch_counter_and_churn(self, network):
        pop = PopulationProcess(network, rng=6, initial_population=5)
        event = pop.step()
        assert event.epoch == 1
        assert event.churn == len(event.arrived) + len(event.departed)

    def test_invalid_parameters(self, network):
        with pytest.raises(ConfigurationError):
            PopulationProcess(network, arrival_rate=0.0)
        with pytest.raises(ConfigurationError):
            PopulationProcess(network, mean_lifetime=0.5)

    def test_arrivals_have_valid_services(self, network):
        pop = PopulationProcess(network, arrival_rate=8.0, rng=7)
        pop.step()
        dc_nodes = {d.node_id for d in network.data_centers}
        for p in pop.present:
            assert p.service.home_dc in dc_nodes
            assert p.provider_id == p.service.service_id


class ScalarDeparturePopulation(PopulationProcess):
    """The departure draw as one scalar ``rng.random()`` per present
    provider: the reference for the vectorised draw of ``step``."""

    def step(self):
        self._epoch += 1
        departed = {
            pid
            for pid in list(self._present)
            if self.rng.random() < self.departure_prob
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


@pytest.mark.parametrize("seed", [0, 1, 11, 12345])
@pytest.mark.parametrize(
    "arrival_rate, mean_lifetime, initial",
    [(0.5, 1.0, 0), (4.0, 10.0, 30), (12.0, 2.5, 5), (40.0, 50.0, 200)],
)
def test_vectorised_departures_match_the_scalar_loop(
    network, seed, arrival_rate, mean_lifetime, initial
):
    kwargs = dict(
        arrival_rate=arrival_rate, mean_lifetime=mean_lifetime,
        rng=seed, initial_population=initial,
    )
    fast = PopulationProcess(network, **kwargs)
    ref = ScalarDeparturePopulation(network, **kwargs)
    for _ in range(30):
        assert fast.step() == ref.step()
        assert list(fast._present) == list(ref._present)
    assert fast.rng.random() == ref.rng.random()
