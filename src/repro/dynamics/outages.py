"""Seeded cloudlet outage traces (extension).

The paper's testbed wires every switch to at least two neighbours "so that
network data can still be transmitted if one switch is down" (Section IV.C)
— a redundancy claim it never exercises.  This module turns that sentence
into event streams: an :class:`OutageTrace` emits one :class:`OutageEvent`
per epoch (which cloudlets fail, which recover), and the dynamic
simulation folds those events into the same :class:`~repro.market.delta.
MarketDelta` protocol that carries provider churn, so outages flow through
the delta-patched compiled tables and warm-started replans like any other
mutation.

Three generators cover the regimes studied by online service-caching work
(Fan et al.; Chen et al., arXiv:2407.03804):

* :class:`IndependentOutageTrace` — each cloudlet fails and repairs
  independently with geometric sojourn times (mean time to failure
  ``mttf`` epochs up, mean time to repair ``mttr`` epochs down);
* :class:`CorrelatedOutageTrace` — regional events: one failure takes its
  nearest neighbours (by hop count) down with it, modelling a shared
  switch or power domain;
* :class:`ScheduledOutageTrace` — an explicit per-epoch script, for
  scripted drills and the differential tests.

Every trace guarantees at least ``min_survivors`` healthy cloudlets
(matching the guard in :meth:`ServiceMarket.apply
<repro.market.market.ServiceMarket.apply>`) and is a deterministic
function of its seed: two traces built with the same arguments emit
identical event streams, which is what lets the compiled/warm simulation
arm be compared bit-for-bit against the object-graph oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.network.topology import MECNetwork
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_int_at_least

__all__ = [
    "OutageEvent",
    "OutageTrace",
    "IndependentOutageTrace",
    "CorrelatedOutageTrace",
    "ScheduledOutageTrace",
]


@dataclass(frozen=True)
class OutageEvent:
    """What happened to the cloudlet fleet in one epoch.

    ``outages`` and ``recoveries`` are disjoint, sorted node-id tuples —
    exactly the shape :class:`~repro.market.delta.MarketDelta` expects.
    """

    epoch: int
    outages: Tuple[int, ...] = ()
    recoveries: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "outages", tuple(sorted(int(n) for n in self.outages))
        )
        object.__setattr__(
            self, "recoveries", tuple(sorted(int(n) for n in self.recoveries))
        )
        flapping = set(self.outages) & set(self.recoveries)
        if flapping:
            raise ConfigurationError(
                f"cloudlets {sorted(flapping)} both fail and recover in one event"
            )

    @property
    def is_quiet(self) -> bool:
        """True when nothing failed and nothing recovered."""
        return not (self.outages or self.recoveries)


class OutageTrace:
    """Base class: tracks which cloudlets are down and clips failure draws
    so at least ``min_survivors`` cloudlets stay healthy.

    Subclasses implement :meth:`_draw`, returning the failure and recovery
    *candidates* for the epoch; the base class enforces the survivor floor
    (dropping excess failure candidates in ascending node-id order, so the
    clipping itself is deterministic) and updates the down-set.
    """

    def __init__(self, network: MECNetwork, min_survivors: int = 1) -> None:
        self.nodes: Tuple[int, ...] = tuple(
            sorted(cl.node_id for cl in network.cloudlets)
        )
        if not self.nodes:
            raise ConfigurationError("outage traces need a network with cloudlets")
        check_int_at_least(min_survivors, 1, "min_survivors")
        if min_survivors > len(self.nodes):
            raise ConfigurationError(
                f"min_survivors={min_survivors} exceeds the fleet size "
                f"{len(self.nodes)}"
            )
        self.min_survivors = int(min_survivors)
        self._down: Dict[int, int] = {}  # node -> epoch it failed
        self._epoch = 0

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """Epochs stepped so far."""
        return self._epoch

    @property
    def failed(self) -> Tuple[int, ...]:
        """Node ids currently down, in id order."""
        return tuple(sorted(self._down))

    def downtime_start(self, node: int) -> int:
        """The epoch at which a currently-failed cloudlet went down."""
        try:
            return self._down[node]
        except KeyError:
            raise ConfigurationError(f"cloudlet {node} is not failed") from None

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def _draw(
        self, up: Tuple[int, ...], down: Tuple[int, ...]
    ) -> Tuple[Sequence[int], Sequence[int]]:
        """Return ``(failure_candidates, recovery_candidates)`` for this
        epoch, drawn from ``up`` and ``down`` respectively."""
        raise NotImplementedError

    def step(self) -> OutageEvent:
        """Advance one epoch and return what failed and what recovered."""
        self._epoch += 1
        up = tuple(n for n in self.nodes if n not in self._down)
        down = self.failed
        fail_cand, recover_cand = self._draw(up, down)

        bad = set(fail_cand) - set(up)
        if bad:
            raise ConfigurationError(
                f"trace tried to fail cloudlets {sorted(bad)} that are not up"
            )
        bad = set(recover_cand) - set(down)
        if bad:
            raise ConfigurationError(
                f"trace tried to recover cloudlets {sorted(bad)} that are not down"
            )

        recoveries = tuple(sorted(set(int(n) for n in recover_cand)))
        # Survivor floor: after the delta, |up| - |outages| + |recoveries|
        # cloudlets are healthy.  Admit failure candidates in node-id order
        # until the floor binds.
        budget = len(up) + len(recoveries) - self.min_survivors
        outages = tuple(sorted(set(int(n) for n in fail_cand)))[: max(budget, 0)]

        for node in outages:
            self._down[node] = self._epoch
        for node in recoveries:
            del self._down[node]
        return OutageEvent(epoch=self._epoch, outages=outages, recoveries=recoveries)


class IndependentOutageTrace(OutageTrace):
    """Independent geometric failure/repair per cloudlet.

    Each healthy cloudlet fails with probability ``1/mttf`` per epoch and
    each failed cloudlet recovers with probability ``1/mttr``, giving
    geometric up/down sojourns with the stated means — the classic
    MTTF/MTTR renewal model.  Draws happen in ascending node-id order so
    the stream is a pure function of the seed.
    """

    def __init__(
        self,
        network: MECNetwork,
        mttf: float = 50.0,
        mttr: float = 5.0,
        rng: RandomSource = None,
        min_survivors: int = 1,
    ) -> None:
        super().__init__(network, min_survivors=min_survivors)
        if mttf < 1 or mttr < 1:
            raise ConfigurationError(
                f"mttf and mttr are epoch counts and must be >= 1, "
                f"got mttf={mttf}, mttr={mttr}"
            )
        self.mttf = float(mttf)
        self.mttr = float(mttr)
        self.rng = as_rng(rng)

    def _draw(
        self, up: Tuple[int, ...], down: Tuple[int, ...]
    ) -> Tuple[Sequence[int], Sequence[int]]:
        recover = [n for n in down if self.rng.random() < 1.0 / self.mttr]
        fail = [n for n in up if self.rng.random() < 1.0 / self.mttf]
        return fail, recover


class CorrelatedOutageTrace(OutageTrace):
    """Regional failures: one event takes a neighbourhood down together.

    With probability ``1/mttf`` per epoch a regional event fires: a seed
    cloudlet is drawn uniformly among the healthy ones and fails together
    with its ``region_size - 1`` nearest healthy cloudlets by hop count
    (ties broken by node id) — a shared aggregation switch or power domain
    going dark.  Repairs stay per-cloudlet geometric with mean ``mttr``:
    correlated failure, independent repair.
    """

    def __init__(
        self,
        network: MECNetwork,
        mttf: float = 50.0,
        mttr: float = 5.0,
        region_size: int = 2,
        rng: RandomSource = None,
        min_survivors: int = 1,
    ) -> None:
        super().__init__(network, min_survivors=min_survivors)
        if mttf < 1 or mttr < 1:
            raise ConfigurationError(
                f"mttf and mttr are epoch counts and must be >= 1, "
                f"got mttf={mttf}, mttr={mttr}"
            )
        check_int_at_least(region_size, 1, "region_size")
        self.mttf = float(mttf)
        self.mttr = float(mttr)
        self.region_size = int(region_size)
        self.rng = as_rng(rng)
        self._network = network

    def _region(self, seed_node: int, up: Tuple[int, ...]) -> List[int]:
        others = [n for n in up if n != seed_node]
        others.sort(key=lambda n: (self._network.hop_count(seed_node, n), n))
        return [seed_node, *others[: self.region_size - 1]]

    def _draw(
        self, up: Tuple[int, ...], down: Tuple[int, ...]
    ) -> Tuple[Sequence[int], Sequence[int]]:
        recover = [n for n in down if self.rng.random() < 1.0 / self.mttr]
        fail: List[int] = []
        if up and self.rng.random() < 1.0 / self.mttf:
            seed_node = up[int(self.rng.integers(0, len(up)))]
            fail = self._region(seed_node, up)
        return fail, recover


class ScheduledOutageTrace(OutageTrace):
    """An explicit per-epoch outage script, for tests and one-shot drills.

    ``script`` maps epoch number (1-based, matching :meth:`OutageTrace.
    step`) to ``(outages, recoveries)`` node-id sequences; epochs absent
    from the script are quiet.  The base class still validates the script
    against the live up/down state and enforces the survivor floor, so an
    inconsistent script fails loudly instead of desynchronising the
    market.
    """

    def __init__(
        self,
        network: MECNetwork,
        script: Optional[
            Dict[int, Tuple[Sequence[int], Sequence[int]]]
        ] = None,
        min_survivors: int = 1,
    ) -> None:
        super().__init__(network, min_survivors=min_survivors)
        self.script: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        for epoch, (outs, recs) in (script or {}).items():
            check_int_at_least(int(epoch), 1, "script epoch")
            self.script[int(epoch)] = (
                tuple(int(n) for n in outs),
                tuple(int(n) for n in recs),
            )

    def _draw(
        self, up: Tuple[int, ...], down: Tuple[int, ...]
    ) -> Tuple[Sequence[int], Sequence[int]]:
        return self.script.get(self._epoch, ((), ()))
