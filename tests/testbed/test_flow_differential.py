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

Several simulators run side by side (``run(*alongside)``, and
``Testbed.run_all`` through it) must end ``==`` to each run alone.
"""

import copy
import math
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, EmulationError
from repro.experiments import figures
from repro.experiments.harness import AssignmentRecord, default_algorithms
from repro.experiments.settings import PAPER
from repro.market.workload import generate_market
from repro.network.zoo import as1755_mec_network
from repro.testbed import flows
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


def fig_testbed_market(n_providers: int, seed: int, one_minus_xi: float):
    """A seeded AS1755 testbed, its market and algorithm table."""
    testbed = Testbed(rng=seed)
    market = generate_market(
        testbed.network, n_providers, params=PAPER.workload, rng=seed + 1
    )
    algorithms = default_algorithms(one_minus_xi, PAPER.allow_remote)
    for name, app in algorithms.items():
        testbed.register_algorithm(name, app)
    return testbed, market, list(algorithms)


def fig5_epoch_simulators(n_providers: int):
    """The flow set of every algorithm's epoch on the Fig. 5 AS1755 testbed."""
    testbed, market, names = fig_testbed_market(
        n_providers, n_providers, PAPER.one_minus_xi
    )
    for name in names:
        run = testbed.run(name, market)
        assert run.flow_metrics == testbed.emulate_traffic(run.assignment)
        simulator = testbed.build_flow_simulator(run.assignment)
        assert len(simulator.flows) > n_providers // 2
        yield simulator


@st.composite
def flow_sets(draw, rate_cap_mbps=st.just(RATE_CAP_MBPS)):
    """1-60 flows over 1-20 resources plus one resource no flow crosses.

    Starts are all at t = 0 or staggered; volumes are all equal (exact
    completion ties) or drawn; a flow may cross no resource, which leaves
    it at the rate cap, drawn from ``rate_cap_mbps``.
    """
    n_resources = draw(st.integers(1, 20))
    capacities = {
        f"r{j}": draw(st.floats(1.0, 1000.0)) for j in range(n_resources)
    }
    capacities["idle"] = draw(st.floats(1.0, 1000.0))
    staggered = draw(st.booleans())
    equal_volumes = draw(st.booleans())
    simulator = FlowSimulator(capacities, default_rate_cap_mbps=draw(rate_cap_mbps))
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


def flow_state(simulator: FlowSimulator):
    return [
        (f.flow_id, f.finish_time, f.remaining_gbits, f.rate_mbps) for f in simulator.flows
    ]


@st.composite
def simulator_groups(draw):
    """1-4 simulators to run side by side: mostly flow_sets, each with its
    own rate cap, but also simulators without flows and simulators whose
    flows already ran."""
    group = []
    for kind in draw(st.lists(st.sampled_from(["fresh"] * 4 + ["empty", "ran"]),
                              min_size=1, max_size=4)):
        if kind == "empty":
            group.append(FlowSimulator({"r0": draw(st.floats(1.0, 1000.0))}))
            continue
        simulator = draw(flow_sets(rate_cap_mbps=st.sampled_from([50.0, 500.0, 1e4])))
        if kind == "ran":
            simulator.run()
        group.append(simulator)
    return group


class TestRunAlongside:
    """``run(*alongside)`` steps every simulator on its own clock in one
    loop; each must end exactly as when it runs alone."""

    @given(group=simulator_groups())
    @settings(deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_equals_running_each_set_alone(self, group):
        alone = copy.deepcopy(group)
        expected = [simulator.run() for simulator in alone]
        first, *others = group
        assert first.run(*others) == expected[0]
        assert [simulator.metrics() for simulator in group] == expected
        assert [flow_state(s) for s in group] == [flow_state(s) for s in alone]

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("fault", ["unknown resource", "negative start"])
    def test_bad_set_raises_before_any_flow_moves(self, position, fault):
        group = [FlowSimulator({"a": 10.0, "b": 20.0}) for _ in range(3)]
        for simulator in group:
            simulator.add_flow(0, 1, 1.0, ["a"])
            simulator.add_flow(0, 1, 2.0, ["a", "b"], start_time=3.0)
        if fault == "unknown resource":
            group[position].add_flow(0, 1, 1.0, ["a", "missing"])
        else:
            group[position].add_flow(0, 1, 1.0, ["b"], start_time=-1.0)
        before = [flow_state(s) for s in group]
        first, *others = group
        with pytest.raises(EmulationError):
            first.run(*others)
        assert [flow_state(s) for s in group] == before

    def test_a_simulator_joins_once(self):
        simulator = FlowSimulator({"a": 10.0})
        simulator.add_flow(0, 1, 1.0, ["a"])
        with pytest.raises(ConfigurationError):
            simulator.run(simulator)
        assert not simulator.flows[0].done


class TestTestbedRunAll:
    @pytest.mark.parametrize(
        "n_providers, seed, one_minus_xi",
        [
            # Fig. 5: the provider sweep at 1 - xi = 0.3.
            (20, 20, PAPER.one_minus_xi),
            (40, 40, PAPER.one_minus_xi),
            (60, 60, PAPER.one_minus_xi),
            (80, 80, PAPER.one_minus_xi),
            # Fig. 6(a): the testbed population at another selfish share.
            (PAPER.testbed_providers, 7, 0.7),
        ],
    )
    def test_equals_sequential_runs(self, n_providers, seed, one_minus_xi):
        batched, market, names = fig_testbed_market(n_providers, seed, one_minus_xi)
        runs = batched.run_all(names, market)
        sequential, market_again, _ = fig_testbed_market(n_providers, seed, one_minus_xi)
        assert list(runs) == names
        for name in names:
            got, want = runs[name], sequential.run(name, market_again)
            assert replace(
                AssignmentRecord.from_assignment(got.assignment), runtime_s=0.0
            ) == replace(AssignmentRecord.from_assignment(want.assignment), runtime_s=0.0)
            assert got.flow_metrics == want.flow_metrics
            assert got.telemetry == want.telemetry
            assert got.vm_utilization == want.vm_utilization
        assert batched.controller.installed == sequential.controller.installed
        assert batched.vm_manager.utilization() == sequential.vm_manager.utilization()

    def test_repeated_name_rejected(self):
        testbed, market, names = fig_testbed_market(20, 20, PAPER.one_minus_xi)
        with pytest.raises(ConfigurationError):
            testbed.run_all([names[0], names[0]], market)

    def test_one_cell_runs_one_event_loop(self, monkeypatch):
        """A Fig. 5 cell runs its flow sets in one ``FlowSimulator.run``
        whose filling calls follow the longest set, not the sum."""
        task = figures._TestbedTask(
            x_index=0, rep=0, x=40, seed=PAPER.point_seed(0, 0), config=PAPER,
            market_params=partial(figures._provider_count_params, PAPER),
            one_minus_xi_of=None,
            networks=figures._SeededNetworks(as1755_mec_network),
        )
        calls = {"run": 0, "rates": 0}
        run, rates = FlowSimulator.run, flows.max_min_fair_rates

        def counted_run(simulator, *alongside):
            calls["run"] += 1
            return run(simulator, *alongside)

        def counted_rates(*args):
            calls["rates"] += 1
            return rates(*args)

        monkeypatch.setattr(FlowSimulator, "run", counted_run)
        monkeypatch.setattr(flows, "max_min_fair_rates", counted_rates)
        out = figures._run_testbed_task(task)
        assert calls["run"] == 1
        batched_rates = calls["rates"]

        testbed, market, names = fig_testbed_market(40, task.seed, PAPER.one_minus_xi)
        alone = []
        for name in names:
            simulator = testbed.build_flow_simulator(
                testbed.controller.run_app(name, market)
            )
            calls["rates"] = 0
            assert simulator.run() == out[name][2]
            alone.append(calls["rates"])
        assert min(alone) > 0
        assert batched_rates == max(alone) < sum(alone)
