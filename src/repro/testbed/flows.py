"""Flow-level transfer emulation with max-min fair bandwidth sharing.

Each :class:`Flow` carries a volume across a set of capacitated resources
(overlay links and underlay cables). Rates follow the classic max-min
fair / progressive-filling allocation: repeatedly saturate the most
contended resource and freeze the flows crossing it.

Rates are piecewise constant between events, so :meth:`FlowSimulator.run`
steps from event time to event time and the emulation is exact. It works
on arrays compiled once per run:

* :func:`compile_flows` lists the (flow, resource) pairs of the pending
  flows in ``(start_time, flow_id)`` order, one pair per resource a flow
  crosses however often it lists it, plus the capacity vector in the
  simulator's resource order. A flow crossing an unknown resource is
  rejected here, before any flow moves.
* The event loop keeps ``remaining``/``rate``/``finish`` arrays and an
  ``alive`` mask over those flows. The next event time is the earlier of
  the next flow start and the first completion ``now + remaining / rate``
  under the current rates. At that time the loop drains every alive flow's
  volume, finishes every flow whose completion falls exactly on it, admits
  every flow starting at it, and then recomputes all rates once. The
  results are written back to the :class:`Flow` objects at the end.
  Simultaneous starts (every epoch of the testbed starts all its flows at
  t = 0) and completion ties thus cost one allocation, not one each.
* :func:`max_min_fair_rates` is the filling kernel ``run`` calls once per
  event time: ``(flow_of, resource_of, capacity, alive) -> rates``, one
  vectorised pass per bottleneck level over the pairs of the alive flows.

Several flow sets share one loop: ``run(*alongside)`` runs the other
simulators' flows with this one's (the testbed emulates every algorithm's
epoch of a market this way). Their compiled pairs are concatenated, each
set with its own flow and resource offsets, so no two sets share a
resource column even where they name the same link. Each set keeps its
own clock: a step takes every set that has a next event to *its own* next
event time (a segmented min over its flows), drains its flows with its
own ``dt``, admits its starts against its own time and clamps to its own
rate cap; a set with no next event sits the step out. One kernel call per
step fills the union of the alive flows. The filling is local to each
set: its shares, minima, freezes and charges touch only its pairs and
resources, and a pass that freezes nothing of a set charges its resources
nothing. So each set performs exactly the float operations it performs
when run alone, and ends bit-equal to a run of its own, in as many steps
as its longest companion rather than their sum.

The clocks are per simulator, not per connected component of a
simulator's resource graph. A set alone drains every one of its flows at
each of its event times, including flows of components the event does not
touch; ``remaining - rate * dt`` summed over different splits of the same
interval rounds differently. Per-component clocks would therefore break
bit-equality with a set run alone (and with the coalesced reference the
differential tests pin the loop to).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
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


def compile_flows(
    flows: Sequence[Flow],
    capacities_mbps: Dict[Hashable, float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (flow, resource) incidence of ``flows`` as pair arrays.

    Returns ``(flow_of, resource_of, capacity)``: one pair per resource a
    flow crosses, counted once however often the flow lists it, grouped by
    flow in the order of ``flows``; ``resource_of`` indexes ``capacity``,
    the capacities in the order of ``capacities_mbps``. Raises
    :class:`EmulationError` for the first flow crossing a resource
    ``capacities_mbps`` does not list.
    """
    column = {r: j for j, r in enumerate(capacities_mbps)}
    flow_of: List[int] = []
    resource_of: List[int] = []
    for i, f in enumerate(flows):
        for r in dict.fromkeys(f.resources):
            j = column.get(r)
            if j is None:
                raise EmulationError(f"flow {f.flow_id} crosses unknown resource {r!r}")
            flow_of.append(i)
            resource_of.append(j)
    capacity = np.fromiter(
        capacities_mbps.values(), dtype=float, count=len(capacities_mbps)
    )
    return (
        np.array(flow_of, dtype=np.intp),
        np.array(resource_of, dtype=np.intp),
        capacity,
    )


def max_min_fair_rates(
    flow_of: np.ndarray,
    resource_of: np.ndarray,
    capacity: np.ndarray,
    alive: np.ndarray,
) -> np.ndarray:
    """Progressive-filling max-min fair allocation among the ``alive`` flows.

    ``flow_of``/``resource_of``/``capacity`` are :func:`compile_flows`
    arrays and ``alive`` a bool mask over the flows they index. Returns
    every flow's rate (Mbps); a flow crossing no resource gets ``inf``
    (uncapped locally, the caller may clamp), and so does every flow
    outside ``alive``.

    The filling runs on the pairs of the alive flows, one vectorised pass
    per bottleneck level. A pass takes every resource's fair share
    (remaining capacity over unfrozen flows) and each flow's smallest
    share. A resource is a bottleneck when no flow crossing it has a
    smaller share elsewhere: a share can only grow as flows crossing it
    freeze below it, so such a resource saturates at its current share.
    The pass freezes every flow on a bottleneck at that share and charges
    it to every resource it crosses. The resource with the globally
    smallest share is always a bottleneck, so each pass makes progress; a
    long chain of bottlenecks costs as many passes as it has levels.
    """
    n_flows, n_resources = alive.size, capacity.size
    rates = np.full(n_flows, math.inf)
    crossing = alive[flow_of]
    on, at = flow_of[crossing], resource_of[crossing]
    if on.size:
        pairs = on, at
        remaining = capacity.copy()
        live = np.bincount(at, minlength=n_resources).astype(float)
        # A saturated resource has no unfrozen flow left; its 0/0 share is
        # never read.
        with np.errstate(divide="ignore", invalid="ignore"):
            while on.size:
                shares = remaining / live
                share_at = shares[at]
                smallest = np.full(n_flows, math.inf)
                np.minimum.at(smallest, on, share_at)
                smallest_on = smallest[on]
                least = np.full(n_resources, math.inf)
                np.minimum.at(least, at, smallest_on)
                freeze = np.zeros(n_flows, dtype=bool)
                freeze[on[share_at <= least[at]]] = True
                rates[freeze] = smallest[freeze]
                hit = freeze[on]
                charged = at[hit]
                remaining -= np.bincount(
                    charged, weights=smallest_on[hit], minlength=n_resources
                )
                np.maximum(remaining, 0.0, out=remaining)
                live -= np.bincount(charged, minlength=n_resources)
                keep = ~hit
                on, at = on[keep], at[keep]
        if invariants_active():
            _check_max_min_fair(*pairs, capacity, rates)
    return rates


def _check_max_min_fair(
    flow_of: np.ndarray,
    resource_of: np.ndarray,
    capacity: np.ndarray,
    rates: np.ndarray,
) -> None:
    """Contract: ``rates`` is the max-min fair allocation on these pairs.

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
    bottlenecked = np.zeros(rates.size, dtype=bool)
    bottlenecked[
        flow_of[full[resource_of] & (rate_of >= top[resource_of] - slack[resource_of])]
    ] = True
    starved = np.flatnonzero(~bottlenecked & np.isfinite(rates))
    # Flows crossing no resource, and flows outside the pairs, are uncapped
    # (inf), so every starved flow crosses one.
    if starved.size:
        i = int(starved[0])
        raise InvariantViolation(
            f"flow {i} of the compiled set at {float(rates[i])!r} Mbps has no "
            f"bottleneck resource: the allocation is not max-min fair"
        )


class FlowSimulator:
    """Completion of a set of flows under max-min sharing, stepped from
    event time to event time on arrays compiled once per run (see the
    module docstring)."""

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
            resources=tuple(resources),
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

    def run(self, *alongside: "FlowSimulator") -> Dict[str, float]:
        """Simulate this simulator's flows and those of every simulator in
        ``alongside`` to completion, in one event loop; returns this
        simulator's :meth:`metrics`.

        Each simulator keeps its own clock, rate cap and resources, so its
        flows end exactly as when it runs alone (see the module
        docstring). Every simulator's flows are compiled before any flow
        moves: a flow crossing an unknown resource, or starting at a
        negative time, raises :class:`EmulationError` with no flow touched.
        """
        simulators = (self, *alongside)
        if len({id(sim) for sim in simulators}) != len(simulators):
            raise ConfigurationError("a simulator can join a run only once")
        sets = [sim._compile() for sim in simulators]
        loaded = [s for s in sets if s.pending]
        if loaded:
            _run_sets(loaded)
        for sim in alongside:
            sim._require_finished()
        return self.metrics()

    def _compile(self) -> "_FlowSet":
        """The pending flows in ``(start_time, flow_id)`` order, compiled."""
        pending = sorted(
            (f for f in self.flows if not f.done), key=lambda f: (f.start_time, f.flow_id)
        )
        if pending and pending[0].start_time < 0:
            raise EmulationError(
                f"flow {pending[0].flow_id} starts at negative time {pending[0].start_time}"
            )
        return _FlowSet(self, pending, *compile_flows(pending, self.capacities))

    def _require_finished(self) -> None:
        unfinished = [f for f in self.flows if not f.done]
        if unfinished:
            raise EmulationError(
                f"{len(unfinished)} flows never completed (zero rate?)"
            )

    def metrics(self) -> Dict[str, float]:
        """Summary metrics of the finished flows.

        ``makespan`` (seconds until the last flow finishes),
        ``mean_completion``, ``total_gb``, ``mean_rate_mbps``; all 0.0
        without flows. Raises :class:`EmulationError` while a flow is
        unfinished.
        """
        if not self.flows:
            return {"makespan": 0.0, "mean_completion": 0.0, "total_gb": 0.0,
                    "mean_rate_mbps": 0.0}
        self._require_finished()
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


@dataclass
class _FlowSet:
    """One simulator's pending flows and their :func:`compile_flows` arrays."""

    simulator: FlowSimulator
    pending: List[Flow]
    flow_of: np.ndarray
    resource_of: np.ndarray
    capacity: np.ndarray


def _run_sets(sets: Sequence[_FlowSet]) -> None:
    """The event loop over non-empty flow sets, one clock per set.

    The sets' pairs are concatenated with flow and resource offsets, so
    one :func:`max_min_fair_rates` call per step fills every set. A step
    takes each set with a next event to that set's own event time: its
    first completion under the current rates (a segmented min over its
    flows) or its next start. Drains use the set's own ``dt`` and starts
    are admitted against the set's own time.
    """
    sizes = [len(s.pending) for s in sets]
    heads = np.cumsum([0, *sizes[:-1]])
    ends = (heads + sizes).tolist()
    resource_heads = np.cumsum([0, *(s.capacity.size for s in sets[:-1])])
    flow_of = np.concatenate([s.flow_of + h for s, h in zip(sets, heads)])
    resource_of = np.concatenate(
        [s.resource_of + h for s, h in zip(sets, resource_heads)]
    )
    capacity = np.concatenate([s.capacity for s in sets])
    set_of = np.repeat(np.arange(len(sets)), sizes)
    cap = np.repeat([s.simulator.default_rate_cap for s in sets], sizes)
    starts = [f.start_time for s in sets for f in s.pending]
    remaining = np.array(
        [f.remaining_gbits for s in sets for f in s.pending], dtype=float
    )
    n = len(starts)
    rate = np.zeros(n)
    finish = np.full(n, math.nan)
    alive = np.zeros(n, dtype=bool)
    now = np.zeros(len(sets))
    now_of = np.zeros(n)
    k = heads.tolist()
    next_start = np.array([starts[i] for i in k])
    # Masked lanes divide by a zero rate or drain a finished set; np.where
    # discards those values, and every kept lane performs the same float
    # operations as the one-set loop.
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            moving = alive & (rate > 0)
            eta = np.where(moving, now_of + remaining * 1000.0 / rate, math.inf)
            t = np.minimum(next_start, np.minimum.reduceat(eta, heads))
            live = t < math.inf
            if not live.any():
                break
            # A set with no next event is idle: NaN matches no completion
            # and drains nothing.
            t[~live] = math.nan
            t_of = t[set_of]
            ending = eta == t_of
            finish = np.where(ending, t_of, finish)
            alive &= ~ending
            dt_of = t_of - now_of
            drained = np.maximum(0.0, remaining - rate * dt_of / 1000.0)
            remaining = np.where(
                ending, 0.0, np.where(alive & (dt_of > 0), drained, remaining)
            )
            for j, when in enumerate(t.tolist()):
                if not math.isnan(when):
                    first = k[j]
                    k[j] = bisect_right(starts, when, first, ends[j])
                    alive[first:k[j]] = True
                    next_start[j] = starts[k[j]] if k[j] < ends[j] else math.inf
            now = np.where(live, t, now)
            now_of = now[set_of]
            if alive.any():
                rates = max_min_fair_rates(flow_of, resource_of, capacity, alive)
                rate = np.where(alive, np.minimum(rates, cap), rate)

    for s, head, end in zip(sets, heads.tolist(), ends):
        for f, left, r, done_at in zip(
            s.pending,
            remaining[head:end].tolist(),
            rate[head:end].tolist(),
            finish[head:end].tolist(),
        ):
            f.remaining_gbits, f.rate_mbps = left, r
            if not math.isnan(done_at):
                f.finish_time = done_at


__all__ = ["GBITS_PER_GB", "Flow", "compile_flows", "max_min_fair_rates", "FlowSimulator"]
