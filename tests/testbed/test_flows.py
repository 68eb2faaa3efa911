"""Tests for flow-level emulation and max-min fair sharing."""

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, EmulationError
from repro.testbed import flows as flows_module
from repro.testbed.flows import Flow, FlowSimulator, compile_flows, GBITS_PER_GB


def flow(fid, resources, volume=1.0):
    return Flow(flow_id=fid, src=0, dst=1, volume_gb=volume, resources=tuple(resources))


def max_min_fair_rates(flows, capacities):
    """``flow_id -> rate`` of the kernel on the compiled not-done flows."""
    active = [f for f in flows if not f.done]
    flow_of, resource_of, capacity = compile_flows(active, capacities)
    alive = np.ones(len(active), dtype=bool)
    rates = flows_module.max_min_fair_rates(flow_of, resource_of, capacity, alive)
    return dict(zip([f.flow_id for f in active], rates.tolist()))


class TestMaxMinFairRates:
    def test_equal_share_single_bottleneck(self):
        flows = [flow(0, ["l"]), flow(1, ["l"])]
        rates = max_min_fair_rates(flows, {"l": 100.0})
        assert rates[0] == pytest.approx(50.0)
        assert rates[1] == pytest.approx(50.0)

    def test_unshared_resources_full_capacity(self):
        flows = [flow(0, ["a"]), flow(1, ["b"])]
        rates = max_min_fair_rates(flows, {"a": 100.0, "b": 30.0})
        assert rates[0] == pytest.approx(100.0)
        assert rates[1] == pytest.approx(30.0)

    def test_water_filling_two_bottlenecks(self):
        # f0 crosses a only; f1 crosses a and b; f2 crosses b only.
        # a=90, b=30: b gives 15 each to f1/f2; a then gives f0 = 90-15 = 75.
        flows = [flow(0, ["a"]), flow(1, ["a", "b"]), flow(2, ["b"])]
        rates = max_min_fair_rates(flows, {"a": 90.0, "b": 30.0})
        assert rates[1] == pytest.approx(15.0)
        assert rates[2] == pytest.approx(15.0)
        assert rates[0] == pytest.approx(75.0)

    def test_flow_without_resources_uncapped(self):
        flows = [flow(0, [])]
        rates = max_min_fair_rates(flows, {})
        assert math.isinf(rates[0])

    def test_unknown_resource_raises(self):
        with pytest.raises(EmulationError):
            max_min_fair_rates([flow(0, ["ghost"])], {})

    def test_duplicate_resource_charged_once(self):
        # f0 lists "a" twice; "b" bottlenecks it at 20, and f1 gets the
        # rest of "a". Charging f0 once per listing would leave f1 only 60.
        flows = [flow(0, ["b", "a", "a"]), flow(1, ["a"])]
        rates = max_min_fair_rates(flows, {"a": 100.0, "b": 20.0})
        assert rates[0] == pytest.approx(20.0)
        assert rates[1] == pytest.approx(80.0)

    def test_unused_resources_ignored(self):
        rates = max_min_fair_rates([flow(0, ["a"])], {"a": 40.0, "idle": 1.0})
        assert rates == {0: pytest.approx(40.0)}

    def test_done_flows_ignored(self):
        f0, f1 = flow(0, ["l"]), flow(1, ["l"])
        f0.finish_time = 1.0
        rates = max_min_fair_rates([f0, f1], {"l": 100.0})
        assert 0 not in rates
        assert rates[1] == pytest.approx(100.0)


class TestFlowSimulator:
    def test_single_flow_timing(self):
        sim = FlowSimulator({"l": 100.0})
        sim.add_flow(0, 1, volume_gb=1.0, resources=["l"])
        metrics = sim.run()
        # 1 GB = 8 Gbit at 100 Mbps = 80 s.
        assert metrics["makespan"] == pytest.approx(80.0)
        assert metrics["total_gb"] == pytest.approx(1.0)

    def test_two_flows_share_then_speed_up(self):
        sim = FlowSimulator({"l": 100.0})
        f_small = sim.add_flow(0, 1, volume_gb=0.5, resources=["l"])
        f_big = sim.add_flow(0, 1, volume_gb=1.0, resources=["l"])
        sim.run()
        # share 50/50: small needs 4 Gbit -> 80 s. Big then has 4 Gbit left
        # at 100 Mbps -> 40 s more.
        assert f_small.finish_time == pytest.approx(80.0)
        assert f_big.finish_time == pytest.approx(120.0)

    def test_staggered_start(self):
        sim = FlowSimulator({"l": 100.0})
        first = sim.add_flow(0, 1, volume_gb=0.5, resources=["l"], start_time=0.0)
        late = sim.add_flow(0, 1, volume_gb=0.5, resources=["l"], start_time=40.0)
        sim.run()
        # first runs alone 0-40 (4 Gbit done), then done exactly at t=40.
        assert first.finish_time == pytest.approx(40.0)
        assert late.finish_time == pytest.approx(80.0)

    def test_empty_run(self):
        metrics = FlowSimulator({"l": 10.0}).run()
        assert metrics["makespan"] == 0.0

    def test_rate_cap_applied_to_uncapped_flows(self):
        sim = FlowSimulator({}, default_rate_cap_mbps=1000.0)
        f = sim.add_flow(0, 1, volume_gb=1.0, resources=[])
        metrics = sim.run()
        assert f.finish_time == pytest.approx(8.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowSimulator({"l": 0.0})

    def test_non_positive_volume_rejected(self):
        sim = FlowSimulator({"l": 10.0})
        with pytest.raises(ConfigurationError):
            sim.add_flow(0, 1, volume_gb=0.0, resources=["l"])

    def test_mean_completion(self):
        sim = FlowSimulator({"l": 100.0})
        sim.add_flow(0, 1, 0.5, ["l"])
        sim.add_flow(0, 1, 0.5, ["l"])
        metrics = sim.run()
        assert metrics["mean_completion"] == pytest.approx(80.0)

    def test_one_rate_allocation_per_event_time(self, monkeypatch):
        """Simultaneous starts and tied completions share one allocation."""
        calls = []
        real = flows_module.max_min_fair_rates

        def counting(flow_of, resource_of, capacity, alive):
            calls.append(int(alive.sum()))
            return real(flow_of, resource_of, capacity, alive)

        monkeypatch.setattr(flows_module, "max_min_fair_rates", counting)
        sim = FlowSimulator({"l": 100.0})
        tied = [sim.add_flow(0, 1, 0.5, ["l"]) for _ in range(3)]
        late = sim.add_flow(0, 1, 0.5, ["l"], start_time=200.0)
        sim.run()
        # t=0: three starts; t=120: three tied completions; t=200: one start.
        assert calls == [3, 1]
        assert [f.finish_time for f in tied] == [pytest.approx(120.0)] * 3
        assert late.finish_time == pytest.approx(240.0)

    def test_near_tie_completions_stay_apart(self):
        sim = FlowSimulator({"a": 100.0, "b": 100.0})
        first = sim.add_flow(0, 1, 1.0, ["a"])
        second = sim.add_flow(0, 1, 1.0 + 1e-8, ["b"])
        sim.run()
        assert first.finish_time == pytest.approx(80.0, rel=1e-12)
        assert second.finish_time == pytest.approx(80.0 * (1.0 + 1e-8), rel=1e-12)

    def test_rerun_keeps_finished_flows(self):
        sim = FlowSimulator({"l": 100.0})
        sim.add_flow(0, 1, 0.5, ["l"])
        sim.add_flow(0, 1, 1.0, ["l"], start_time=10.0)
        first = sim.run()
        assert sim.run() == first

    def test_unknown_resource_rejected_before_any_flow_moves(self):
        sim = FlowSimulator({"l": 100.0})
        early = sim.add_flow(0, 1, 0.5, ["l"])
        late = sim.add_flow(0, 1, 0.5, ["l", "ghost"], start_time=10.0)
        with pytest.raises(EmulationError, match="flow 1 crosses unknown resource 'ghost'"):
            sim.run()
        for f in (early, late):
            assert f.remaining_gbits == 0.5 * GBITS_PER_GB
            assert f.finish_time is None

    def test_negative_start_rejected(self):
        sim = FlowSimulator({"l": 10.0})
        sim.add_flow(0, 1, 1.0, ["l"], start_time=-1.0)
        with pytest.raises(EmulationError):
            sim.run()

    def test_conservation_of_volume(self):
        sim = FlowSimulator({"a": 50.0, "b": 80.0})
        sim.add_flow(0, 1, 1.0, ["a"])
        sim.add_flow(1, 2, 2.0, ["b"])
        sim.add_flow(2, 3, 0.5, ["a", "b"])
        metrics = sim.run()
        assert metrics["total_gb"] == pytest.approx(3.5)
