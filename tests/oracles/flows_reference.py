"""Reference flow emulator: set-based max-min filling and one event per flow.

:func:`max_min_fair_rates` and :meth:`ReferenceFlowSimulator.run` are the
library's original implementations, kept verbatim as the oracle the
coalesced, array-based :mod:`repro.testbed.flows` is tested against. The
reference schedules one start event per flow on the heap engine of
:mod:`tests.oracles.events_reference`, recomputes every rate at every start
and completion, and cancels and reschedules every completion each time.

Max-min fair allocations are unique, so the library must agree with this
oracle up to floating-point rounding (the differential tests allow 1e-9
relative) — with one known exception. The reference charges a flow against
a resource once per *occurrence* in ``Flow.resources`` while counting it
once in that resource's fair share, so a flow listing a resource twice
under-serves the other flows on it. The library counts each resource once
per flow; differential generators therefore draw distinct resources per
flow.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Sequence, Set

from repro.exceptions import EmulationError
from repro.testbed.flows import GBITS_PER_GB, Flow, FlowSimulator
from tests.oracles.events_reference import Simulator


def max_min_fair_rates(
    flows: Sequence[Flow],
    capacities_mbps: Dict[Hashable, float],
) -> Dict[int, float]:
    """Progressive-filling max-min fair allocation.

    Every resource a flow lists constrains it; flows not crossing any listed
    resource get ``inf`` (uncapped locally, the caller may clamp). Returns
    ``flow_id -> rate (Mbps)``.
    """
    active = [f for f in flows if not f.done]
    rates: Dict[int, float] = {}
    remaining_cap = dict(capacities_mbps)
    unfrozen: Set[int] = {f.flow_id for f in active}
    flows_on: Dict[Hashable, Set[int]] = {}
    for f in active:
        for r in f.resources:
            if r not in remaining_cap:
                raise EmulationError(f"flow {f.flow_id} crosses unknown resource {r!r}")
            flows_on.setdefault(r, set()).add(f.flow_id)

    while unfrozen:
        # Bottleneck = resource with the smallest fair share.
        best_share = math.inf
        best_resource = None
        for r, members in flows_on.items():
            live = members & unfrozen
            if not live:
                continue
            share = remaining_cap[r] / len(live)
            if share < best_share:
                best_share = share
                best_resource = r
        if best_resource is None:
            # Remaining flows cross no contended resource: uncapped.
            for fid in unfrozen:
                rates[fid] = math.inf
            break
        saturated = flows_on[best_resource] & unfrozen
        for fid in saturated:
            rates[fid] = best_share
        unfrozen -= saturated
        # Charge the frozen flows against every other resource they cross.
        for f in active:
            if f.flow_id in saturated:
                for r in f.resources:
                    remaining_cap[r] = max(0.0, remaining_cap[r] - best_share)
        remaining_cap[best_resource] = 0.0
        del flows_on[best_resource]

    return rates


class ReferenceFlowSimulator(FlowSimulator):
    """:class:`FlowSimulator` with the original event-per-flow ``run``."""

    @classmethod
    def replay(cls, simulator: FlowSimulator) -> "ReferenceFlowSimulator":
        """A fresh reference simulator holding copies of ``simulator``'s
        flows (same ids, volumes, resources and start times)."""
        reference = cls(simulator.capacities, simulator.default_rate_cap)
        for f in simulator.flows:
            reference.add_flow(f.src, f.dst, f.volume_gb, f.resources, f.start_time)
        return reference

    def run(self) -> Dict[str, float]:
        """Simulate all flows to completion; returns summary metrics.

        Metrics: ``makespan`` (seconds until the last flow finishes),
        ``mean_completion``, ``total_gb``, ``mean_rate_mbps``.
        """
        if not self.flows:
            return {"makespan": 0.0, "mean_completion": 0.0, "total_gb": 0.0,
                    "mean_rate_mbps": 0.0}

        sim = Simulator()
        pending = sorted(self.flows, key=lambda f: (f.start_time, f.flow_id))
        started: List[Flow] = []

        def recompute(now: float) -> None:
            """Advance remaining volumes to ``now`` happens implicitly via
            completion events; here we only reassign rates."""
            rates = max_min_fair_rates(started, self.capacities)
            for f in started:
                if f.done:
                    continue
                f.rate_mbps = min(rates.get(f.flow_id, math.inf), self.default_rate_cap)

        # Because rates change only at start/finish events, we track the
        # last event time and drain volume between events.
        state = {"last": 0.0}

        def drain(now: float) -> None:
            dt = now - state["last"]
            if dt > 0:
                for f in started:
                    if not f.done:
                        f.remaining_gbits = max(
                            0.0, f.remaining_gbits - f.rate_mbps * dt / 1000.0
                        )
            state["last"] = now

        completion_event: Dict[int, int] = {}

        def schedule_completions(now: float) -> None:
            for f in started:
                if f.done:
                    continue
                if f.flow_id in completion_event:
                    sim.cancel(completion_event[f.flow_id])
                if f.rate_mbps <= 0:
                    continue
                eta = f.remaining_gbits * 1000.0 / f.rate_mbps
                completion_event[f.flow_id] = sim.schedule_at(
                    now + eta, lambda f=f: finish(f)
                )

        def finish(f: Flow) -> None:
            drain(sim.now)
            if f.done:
                return
            f.remaining_gbits = 0.0
            f.finish_time = sim.now
            recompute(sim.now)
            schedule_completions(sim.now)

        def start(f: Flow) -> None:
            drain(sim.now)
            started.append(f)
            recompute(sim.now)
            schedule_completions(sim.now)

        for f in pending:
            sim.schedule_at(f.start_time, lambda f=f: start(f))
        sim.run()

        unfinished = [f for f in self.flows if not f.done]
        if unfinished:
            raise EmulationError(
                f"{len(unfinished)} flows never completed (zero rate?)"
            )
        makespan = max(f.finish_time for f in self.flows)
        completions = [f.completion_time for f in self.flows]
        total_gb = sum(f.volume_gb for f in self.flows)
        mean_rate = (
            sum(
                f.volume_gb * GBITS_PER_GB * 1000.0 / f.completion_time
                for f in self.flows
                if f.completion_time and f.completion_time > 0
            )
            / len(self.flows)
        )
        return {
            "makespan": makespan,
            "mean_completion": sum(completions) / len(completions),
            "total_gb": total_gb,
            "mean_rate_mbps": mean_rate,
        }


__all__ = ["ReferenceFlowSimulator", "max_min_fair_rates"]
