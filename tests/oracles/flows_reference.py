"""Reference flow emulators: set-based filling, and the coalesced object loop.

Two references live here, each kept verbatim as an oracle for
:mod:`repro.testbed.flows`.

* :func:`max_min_fair_rates` and :meth:`ReferenceFlowSimulator.run` are the
  library's original implementations. The reference schedules one start
  event per flow on the heap engine of :mod:`tests.oracles.events_reference`,
  recomputes every rate at every start and completion, and cancels and
  reschedules every completion each time.
* :func:`coalesced_max_min_fair_rates` and
  :meth:`CoalescedReferenceFlowSimulator.run` are the event-time loop on
  :class:`~repro.testbed.flows.Flow` objects that preceded the compiled
  array loop: one filling call per event time, each rebuilding the
  (flow x resource) incidence from the flows it is given. The library
  compiles that incidence once per run and must reproduce this reference
  bit for bit (the differential tests compare with ``==``).

Max-min fair allocations are unique, so the library must agree with the
set-based oracle up to floating-point rounding (the differential tests
allow 1e-9 relative) — with one known exception. The set-based reference
charges a flow against a resource once per *occurrence* in
``Flow.resources`` while counting it once in that resource's fair share, so
a flow listing a resource twice under-serves the other flows on it. The
library counts each resource once per flow; differential generators
therefore draw distinct resources per flow.
"""

from __future__ import annotations

import math
from itertools import chain, count
from typing import Dict, Hashable, List, Sequence, Set

import numpy as np

from repro.exceptions import EmulationError, InvariantViolation
from repro.testbed.flows import GBITS_PER_GB, Flow, FlowSimulator
from repro.utils.contracts import invariants_active
from repro.utils.validation import CAPACITY_EPS
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


def coalesced_max_min_fair_rates(
    flows: Sequence[Flow],
    capacities_mbps: Dict[Hashable, float],
) -> Dict[int, float]:
    """Progressive-filling max-min fair allocation.

    Every resource a flow lists constrains it, counted once however often
    the flow lists it; flows not crossing any listed resource get ``inf``
    (uncapped locally, the caller may clamp). Done flows are skipped.
    Returns ``flow_id -> rate (Mbps)``.

    The filling runs on the nonzero entries of the (flows x resources)
    incidence array, one vectorised pass per bottleneck level. A pass
    takes every resource's fair share (remaining capacity over unfrozen
    flows) and each flow's smallest share. A resource is a bottleneck when
    no flow crossing it has a smaller share elsewhere: a share can only
    grow as flows crossing it freeze below it, so such a resource
    saturates at its current share. The pass freezes every flow on a
    bottleneck at that share and charges it to every resource it crosses.
    The resource with the globally smallest share is always a bottleneck,
    so each pass makes progress; a long chain of bottlenecks costs as many
    passes as it has levels.
    """
    active = [f for f in flows if not f.done]
    crossed = list(chain.from_iterable([f.resources for f in active]))
    column = dict(zip(dict.fromkeys(crossed), count()))
    unknown = [r for r in column if r not in capacities_mbps]
    if unknown:
        culprit = next(f for f in active if unknown[0] in f.resources)
        raise EmulationError(
            f"flow {culprit.flow_id} crosses unknown resource {unknown[0]!r}"
        )

    rates = np.full(len(active), math.inf)
    if crossed:
        incidence = np.zeros((len(active), len(column)), dtype=bool)
        incidence[
            np.repeat(np.arange(len(active)), [len(f.resources) for f in active]),
            np.array(list(map(column.__getitem__, crossed)), dtype=np.intp),
        ] = True
        # One (flow, resource) pair per crossing, duplicates merged.
        flow_of, resource_of = np.nonzero(incidence)
        capacity = np.array([capacities_mbps[r] for r in column], dtype=float)
        remaining = capacity.copy()
        live = np.bincount(resource_of, minlength=len(column)).astype(float)
        on, at = flow_of, resource_of  # the pairs of still unfrozen flows
        # A saturated resource has no unfrozen flow left; its 0/0 share is
        # never read.
        with np.errstate(divide="ignore", invalid="ignore"):
            while on.size:
                shares = remaining / live
                share_at = shares[at]
                smallest = np.full(len(active), math.inf)
                np.minimum.at(smallest, on, share_at)
                smallest_on = smallest[on]
                least = np.full(len(column), math.inf)
                np.minimum.at(least, at, smallest_on)
                freeze = np.zeros(len(active), dtype=bool)
                freeze[on[share_at <= least[at]]] = True
                rates[freeze] = smallest[freeze]
                hit = freeze[on]
                charged = at[hit]
                remaining -= np.bincount(
                    charged, weights=smallest_on[hit], minlength=len(column)
                )
                np.maximum(remaining, 0.0, out=remaining)
                live -= np.bincount(charged, minlength=len(column))
                keep = ~hit
                on, at = on[keep], at[keep]
        if invariants_active():
            _check_max_min_fair(active, flow_of, resource_of, capacity, rates)

    return dict(zip([f.flow_id for f in active], rates.tolist()))


def _check_max_min_fair(
    active: Sequence[Flow],
    flow_of: np.ndarray,
    resource_of: np.ndarray,
    capacity: np.ndarray,
    rates: np.ndarray,
) -> None:
    """Contract: ``rates`` is the max-min fair allocation.

    No resource carries more than its capacity, and every flow with a
    finite rate has a bottleneck: a saturated resource on which no other
    flow gets more. The two properties characterise the unique max-min
    fair allocation; both are checked up to ``CAPACITY_EPS`` relative slack.
    """
    rate_of = rates[flow_of]
    load = np.bincount(resource_of, weights=rate_of, minlength=capacity.size)
    slack = CAPACITY_EPS * np.maximum(capacity, 1.0)
    over = np.flatnonzero(load > capacity + slack)
    if over.size:
        j = int(over[0])
        raise InvariantViolation(
            f"max-min allocation overloads resource {j}: load {float(load[j])!r} > "
            f"capacity {float(capacity[j])!r} beyond CAPACITY_EPS={CAPACITY_EPS}"
        )
    top = np.full(capacity.size, -math.inf)
    np.maximum.at(top, resource_of, rate_of)
    full = load >= capacity - slack
    bottlenecked = np.zeros(len(active), dtype=bool)
    bottlenecked[
        flow_of[full[resource_of] & (rate_of >= top[resource_of] - slack[resource_of])]
    ] = True
    starved = np.flatnonzero(~bottlenecked & np.isfinite(rates))
    # Flows crossing no resource are uncapped (inf), so every starved flow
    # crosses one.
    if starved.size:
        f = active[int(starved[0])]
        raise InvariantViolation(
            f"flow {f.flow_id} at {float(rates[starved[0]])!r} Mbps has no bottleneck "
            f"resource: the allocation is not max-min fair"
        )


class CoalescedReferenceFlowSimulator(ReferenceFlowSimulator):
    """:class:`FlowSimulator` with the coalesced event-time ``run`` on
    :class:`Flow` objects (replays like :class:`ReferenceFlowSimulator`)."""

    def run(self) -> Dict[str, float]:
        """Simulate all flows to completion; returns summary metrics.

        Metrics: ``makespan`` (seconds until the last flow finishes),
        ``mean_completion``, ``total_gb``, ``mean_rate_mbps``.
        """
        if not self.flows:
            return {"makespan": 0.0, "mean_completion": 0.0, "total_gb": 0.0,
                    "mean_rate_mbps": 0.0}

        pending = sorted(
            (f for f in self.flows if not f.done), key=lambda f: (f.start_time, f.flow_id)
        )
        if pending and pending[0].start_time < 0:
            raise EmulationError(
                f"flow {pending[0].flow_id} starts at negative time {pending[0].start_time}"
            )
        active: List[Flow] = []
        now = 0.0
        k = 0
        while True:
            next_start = pending[k].start_time if k < len(pending) else math.inf
            etas = [
                now + f.remaining_gbits * 1000.0 / f.rate_mbps if f.rate_mbps > 0
                else math.inf
                for f in active
            ]
            t = min(next_start, min(etas, default=math.inf))
            if t == math.inf:
                break
            dt = t - now
            still: List[Flow] = []
            for f, eta in zip(active, etas):
                if eta == t:
                    f.remaining_gbits = 0.0
                    f.finish_time = t
                    continue
                if dt > 0:
                    f.remaining_gbits = max(0.0, f.remaining_gbits - f.rate_mbps * dt / 1000.0)
                still.append(f)
            while k < len(pending) and pending[k].start_time <= t:
                still.append(pending[k])
                k += 1
            active, now = still, t
            if active:
                rates = coalesced_max_min_fair_rates(active, self.capacities)
                for f in active:
                    f.rate_mbps = min(rates[f.flow_id], self.default_rate_cap)

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


__all__ = [
    "CoalescedReferenceFlowSimulator",
    "ReferenceFlowSimulator",
    "coalesced_max_min_fair_rates",
    "max_min_fair_rates",
]
