"""Flow-level transfer emulation with max-min fair bandwidth sharing.

Each :class:`Flow` carries a volume across a set of capacitated resources
(overlay links and underlay cables). Rates follow the classic max-min
fair / progressive-filling allocation: repeatedly saturate the most
contended resource and freeze the flows crossing it.
:func:`max_min_fair_rates` runs that filling on a (flows x resources)
incidence array, one vectorised pass per bottleneck level.

Rates are piecewise constant between events, so :meth:`FlowSimulator.run`
steps from event time to event time and the emulation is exact. The next
event time is the earlier of the next flow start and the first completion
``now + remaining / rate`` under the current rates. At that time the loop
drains every active flow's volume, finishes every flow whose completion
falls exactly on it, admits every flow starting at it, and then recomputes
all rates once. Simultaneous starts (every epoch of the testbed starts all
its flows at t = 0) and completion ties thus cost one allocation, not one
each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, EmulationError, InvariantViolation
from repro.utils.contracts import invariants_active
from repro.utils.validation import CAPACITY_EPS

GBITS_PER_GB = 8.0


@dataclass
class Flow:
    """One transfer: ``volume_gb`` across the given capacitated resources."""

    flow_id: int
    src: int
    dst: int
    volume_gb: float
    #: Resource ids the flow crosses (overlay links, underlay cables, ...).
    resources: Tuple[Hashable, ...]
    start_time: float = 0.0

    # Runtime state.
    remaining_gbits: float = field(init=False)
    rate_mbps: float = field(default=0.0, init=False)
    finish_time: Optional[float] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.volume_gb <= 0:
            raise ConfigurationError(f"flow volume must be positive, got {self.volume_gb}")
        self.remaining_gbits = self.volume_gb * GBITS_PER_GB

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    @property
    def completion_time(self) -> Optional[float]:
        """Seconds from start to finish, once finished."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.start_time


def max_min_fair_rates(
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


class FlowSimulator:
    """Completion of a set of flows under max-min sharing, stepped from
    event time to event time (see the module docstring)."""

    def __init__(
        self,
        capacities_mbps: Dict[Hashable, float],
        default_rate_cap_mbps: float = 10_000.0,
    ) -> None:
        for r, c in capacities_mbps.items():
            if c <= 0:
                raise ConfigurationError(f"resource {r!r} has non-positive capacity {c}")
        self.capacities = dict(capacities_mbps)
        self.default_rate_cap = default_rate_cap_mbps
        self.flows: List[Flow] = []
        self._next_id = 0
        #: Each resource id mapped to itself: flows hold the capacity
        #: table's own key objects, so the per-event dict lookups in
        #: :func:`max_min_fair_rates` match by identity, not by ``==``.
        self._interned: Dict[Hashable, Hashable] = {r: r for r in self.capacities}

    def add_flow(
        self,
        src: int,
        dst: int,
        volume_gb: float,
        resources: Sequence[Hashable],
        start_time: float = 0.0,
    ) -> Flow:
        flow = Flow(
            flow_id=self._next_id,
            src=src,
            dst=dst,
            volume_gb=volume_gb,
            resources=tuple(self._interned.get(r, r) for r in resources),
            start_time=start_time,
        )
        self._next_id += 1
        self.flows.append(flow)
        return flow

    def resource_volumes(self) -> Dict[Hashable, float]:
        """GB carried by each resource (telemetry counters).

        Attribution is static — every flow bills its full volume to every
        resource it crosses, which is exactly what interface byte counters
        on the switches would report.
        """
        volumes: Dict[Hashable, float] = {r: 0.0 for r in self.capacities}
        for flow in self.flows:
            # dict.fromkeys dedups while keeping path order deterministic.
            for resource in dict.fromkeys(flow.resources):
                volumes[resource] = volumes.get(resource, 0.0) + flow.volume_gb
        return volumes

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
                rates = max_min_fair_rates(active, self.capacities)
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


__all__ = ["GBITS_PER_GB", "Flow", "max_min_fair_rates", "FlowSimulator"]
