"""Tests for the discrete-event engine the reference flow emulator runs on."""

import pytest

from repro.exceptions import EmulationError
from tests.oracles.events_reference import EventQueue, Simulator


class TestEventQueue:
    def test_fifo_among_simultaneous(self):
        q = EventQueue()
        order = []
        q.push(1.0, lambda: order.append("a"))
        q.push(1.0, lambda: order.append("b"))
        while True:
            item = q.pop()
            if item is None:
                break
            item[1]()
        assert order == ["a", "b"]

    def test_time_ordering(self):
        q = EventQueue()
        order = []
        q.push(2.0, lambda: order.append("late"))
        q.push(1.0, lambda: order.append("early"))
        times = []
        while True:
            item = q.pop()
            if item is None:
                break
            times.append(item[0])
            item[1]()
        assert order == ["early", "late"]
        assert times == [1.0, 2.0]

    def test_cancellation(self):
        q = EventQueue()
        fired = []
        eid = q.push(1.0, lambda: fired.append(1))
        q.cancel(eid)
        assert q.pop() is None
        assert fired == []

    def test_negative_time_rejected(self):
        with pytest.raises(EmulationError):
            EventQueue().push(-1.0, lambda: None)

    def test_len(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        assert len(q) == 1


class TestSimulator:
    def test_clock_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        end = sim.run()
        assert seen == [5.0]
        assert end == 5.0

    def test_chained_scheduling(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(2.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [1.0, 3.0]

    def test_run_until(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(10.0, lambda: seen.append("b"))
        sim.run(until=5.0)
        assert seen == ["a"]
        assert sim.now == 5.0
        sim.run()
        assert seen == ["a", "b"]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(EmulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(EmulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_cancel_via_simulator(self):
        sim = Simulator()
        fired = []
        eid = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(eid)
        sim.run()
        assert fired == []

    def test_runaway_loop_guard(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.0, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(EmulationError):
            sim.run(max_events=100)

    def test_processed_events_counter(self):
        sim = Simulator()
        for k in range(3):
            sim.schedule(float(k), lambda: None)
        sim.run()
        assert sim.processed_events == 3
