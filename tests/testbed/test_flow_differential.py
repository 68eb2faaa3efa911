"""Differential tests: the flow emulator against the references in tests/oracles.

:mod:`repro.testbed.flows` compiles each run's flows into arrays once and
steps from event time to event time on them. :mod:`tests.oracles.flows_reference`
keeps two references:

* the original set-based filling with one heap event per flow start and
  completion. Max-min fair allocations are unique, so every flow's finish
  time and the four summary metrics must agree to 1e-9 relative. This
  reference charges a flow once per listing of a resource, so the
  generator draws distinct resources per flow (see the oracle's docstring);
* the coalesced event-time loop on ``Flow`` objects, which rebuilt the
  incidence at every event time. The compiled loop performs the same float
  operations in the same order, so results must be equal with ``==``.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.harness import default_algorithms
from repro.experiments.settings import PAPER
from repro.market.workload import generate_market
from repro.testbed.emulator import Testbed
from repro.testbed.flows import FlowSimulator
from tests.oracles.flows_reference import (
    CoalescedReferenceFlowSimulator,
    ReferenceFlowSimulator,
)

RTOL = 1e-9
RATE_CAP_MBPS = 500.0


def assert_matches_reference(simulator: FlowSimulator) -> None:
    """Run ``simulator`` and a reference replay of its flows; compare."""
    reference = ReferenceFlowSimulator.replay(simulator)
    expected = reference.run()
    metrics = simulator.run()
    assert metrics.keys() == expected.keys()
    for key, value in expected.items():
        assert math.isclose(metrics[key], value, rel_tol=RTOL), (key, metrics[key], value)
    for got, want in zip(simulator.flows, reference.flows):
        assert got.flow_id == want.flow_id
        assert math.isclose(got.finish_time, want.finish_time, rel_tol=RTOL), (
            got.flow_id, got.finish_time, want.finish_time,
        )


def assert_equals_coalesced(simulator: FlowSimulator) -> None:
    """Run ``simulator`` and a coalesced-reference replay; require ``==``."""
    reference = CoalescedReferenceFlowSimulator.replay(simulator)
    expected = reference.run()
    assert simulator.run() == expected
    assert [
        (f.flow_id, f.finish_time, f.remaining_gbits, f.rate_mbps) for f in simulator.flows
    ] == [
        (f.flow_id, f.finish_time, f.remaining_gbits, f.rate_mbps) for f in reference.flows
    ]


def fig5_epoch_simulators(n_providers: int):
    """The flow set of every algorithm's epoch on the Fig. 5 AS1755 testbed."""
    testbed = Testbed(rng=n_providers)
    market = generate_market(
        testbed.network, n_providers, params=PAPER.workload, rng=n_providers + 1
    )
    algorithms = default_algorithms(PAPER.one_minus_xi, PAPER.allow_remote)
    for name, app in algorithms.items():
        testbed.register_algorithm(name, app)
        run = testbed.run(name, market)
        assert run.flow_metrics == testbed.emulate_traffic(run.assignment)
        simulator = testbed.build_flow_simulator(run.assignment)
        assert len(simulator.flows) > n_providers // 2
        yield simulator


@st.composite
def flow_sets(draw):
    """1-60 flows over 1-20 resources plus one resource no flow crosses.

    Starts are all at t = 0 or staggered; volumes are all equal (exact
    completion ties) or drawn; a flow may cross no resource, which leaves
    it at the rate cap.
    """
    n_resources = draw(st.integers(1, 20))
    capacities = {
        f"r{j}": draw(st.floats(1.0, 1000.0)) for j in range(n_resources)
    }
    capacities["idle"] = draw(st.floats(1.0, 1000.0))
    staggered = draw(st.booleans())
    equal_volumes = draw(st.booleans())
    simulator = FlowSimulator(capacities, default_rate_cap_mbps=RATE_CAP_MBPS)
    for _ in range(draw(st.integers(1, 60))):
        crossed = draw(
            st.lists(
                st.integers(0, n_resources - 1),
                unique=True,
                max_size=min(5, n_resources),
            )
        )
        volume = 1.0 if equal_volumes else draw(st.floats(0.01, 10.0))
        start = draw(st.sampled_from([0.0, 5.0, 12.5, 40.0])) if staggered else 0.0
        simulator.add_flow(0, 1, volume, [f"r{j}" for j in crossed], start_time=start)
    return simulator


class TestAgainstReference:
    @given(simulator=flow_sets())
    @settings(deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_random_flow_sets(self, simulator):
        assert_matches_reference(simulator)

    @pytest.mark.parametrize("n_providers", [20, 40])
    def test_fig5_testbed_runs(self, n_providers):
        """Every algorithm's epoch on the Fig. 5 AS1755 testbed."""
        testbed = Testbed(rng=n_providers)
        market = generate_market(
            testbed.network, n_providers, params=PAPER.workload, rng=n_providers + 1
        )
        algorithms = default_algorithms(PAPER.one_minus_xi, PAPER.allow_remote)
        for name, app in algorithms.items():
            testbed.register_algorithm(name, app)
            run = testbed.run(name, market)
            assert run.flow_metrics == testbed.emulate_traffic(run.assignment)
            simulator = testbed.build_flow_simulator(run.assignment)
            assert len(simulator.flows) > n_providers // 2
            assert_matches_reference(simulator)


class TestAgainstCoalescedReference:
    @given(simulator=flow_sets())
    @settings(deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_random_flow_sets(self, simulator):
        assert_equals_coalesced(simulator)

    @pytest.mark.parametrize("n_providers", [20, 40, 60, 80])
    def test_fig5_testbed_runs(self, n_providers):
        """Every algorithm's epoch on the Fig. 5 AS1755 testbed."""
        for simulator in fig5_epoch_simulators(n_providers):
            assert_equals_coalesced(simulator)
