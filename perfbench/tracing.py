"""Per-layer span tracing for the benchmark's traced run.

The program has no spans of its own yet, so the traced run wraps the public
entry point of each layer from the outside: every wrapped call opens a span,
and a span's *self time* is its duration minus the time its child spans
(wrapped calls made while it was open) cover. Counters ride the same
wrappers (rows patched, LP columns, best-response rounds, ...).

Wrappers are installed where the calling module looks the name up: a
function is replaced in every loaded ``repro`` module whose globals hold it
and in every module-level dict that maps to it (``core.appro`` reaches
``shmoys_tardos`` both as a global and through ``_GAP_SOLVERS``,
``game.best_response`` reaches ``batch_best_response`` through
``_COMPILED_ENGINES``); methods are replaced on their class. Only the
calling process is seen: work inside pool workers shows up as the
caller's wait in ``runtime.map``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Mapping, Optional, Tuple

#: Counter hook: ``(args, kwargs, result) -> {counter name: increment}``.
Counter = Callable[[tuple, dict, object], Mapping[str, int]]


def _lp_vars(args: tuple, kwargs: dict, result: object) -> Mapping[str, int]:
    instance = args[0] if args else kwargs["instance"]
    return {"gap.lp.vars": int(instance.allowed_mask().sum())}


def _delta_rows(args: tuple, kwargs: dict, result: object) -> Mapping[str, int]:
    delta = args[1] if len(args) > 1 else kwargs["delta"]
    return {
        "compiled.apply_delta.rows": len(delta.arrivals) + len(delta.departures)
    }


def _br_counts(args: tuple, kwargs: dict, result: object) -> Mapping[str, int]:
    _profile, _converged, rounds, moves, _trace, _log = result
    return {"br.rounds": int(rounds), "br.moves": int(moves)}


def _map_tasks(args: tuple, kwargs: dict, result: object) -> Mapping[str, int]:
    tasks = args[2] if len(args) > 2 else kwargs["tasks"]
    return {"runtime.map.tasks": len(tasks)}


#: ``(layer, module, attribute path, counter)`` for every wrapped entry
#: point. Several entries may share a layer (their spans pool).
TARGETS: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    ("routing", "repro.network.routing", "RoutingTable.delay_row", None),
    ("routing", "repro.network.routing", "RoutingTable.hop_row", None),
    ("compiled.build", "repro.market.compiled", "CompiledMarket.from_market", None),
    ("compiled.apply_delta", "repro.market.compiled", "CompiledMarket.apply_delta",
     _delta_rows),
    ("gap.lp", "repro.gap.lp", "solve_lp_relaxation", _lp_vars),
    ("gap.round", "repro.gap.shmoys_tardos", "shmoys_tardos", None),
    ("appro", "repro.core.appro", "appro", None),
    ("lcf", "repro.core.lcf", "lcf", None),
    ("lcf.select", "repro.core.lcf", "select_coordinated_lcf", None),
    ("br", "repro.game.batch", "batch_best_response", _br_counts),
    ("settle", "repro.game.partitioned", "partitioned_best_response", None),
    ("settle.certify", "repro.game.partitioned", "certify_equilibrium", None),
    ("shard.view", "repro.market.shard", "shard_view", None),
    ("shard.classify", "repro.market.shard", "classify_providers", None),
    ("runtime.publish", "repro.runtime.executor", "Runtime.publish", None),
    ("runtime.map", "repro.runtime.executor", "Runtime.map", _map_tasks),
    ("runtime.map", "repro.runtime.executor", "Runtime.run", _map_tasks),
    ("journal", "repro.runtime.journal", "CheckpointJournal.record", None),
    ("flows.rates", "repro.testbed.flows", "max_min_fair_rates", None),
    ("flows.run", "repro.testbed.flows", "FlowSimulator.run", None),
)

#: Every layer, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

#: Extra counters the hooks above produce.
COUNTERS: Tuple[str, ...] = (
    "compiled.apply_delta.rows",
    "gap.lp.vars",
    "br.rounds",
    "br.moves",
    "runtime.map.tasks",
)

#: Layers that must record calls on each workload: the layers whose
#: end-to-end effect the workload exists to measure. A wrapper that never
#: fires there was installed where nobody looks the name up.
EXPECTED_LAYERS: Dict[str, Tuple[str, ...]] = {
    "paper_figs": (
        "routing", "compiled.build", "gap.lp", "gap.round", "appro", "lcf",
        "lcf.select", "flows.rates", "flows.run",
    ),
    "shard_settle": (
        "routing", "compiled.apply_delta", "br", "settle", "settle.certify",
        "shard.view", "shard.classify", "runtime.publish", "runtime.map",
        "journal",
    ),
}

#: Report names that differ from ``<layer>.calls`` / ``<layer>.self_s``:
#: the caller's self time inside ``Runtime.map``/``run`` is time spent
#: waiting on workers, and each journal call is one durable record.
_CALLS_NAME = {"journal": "journal.records"}
_SELF_NAME = {"runtime.map": "runtime.map.wait_s"}


def calls_metric(layer: str) -> str:
    return _CALLS_NAME.get(layer, f"{layer}.calls")


def self_metric(layer: str) -> str:
    return _SELF_NAME.get(layer, f"{layer}.self_s")


class Tracer:
    """Span stack plus per-layer calls, self time and counters.

    Spans are recorded only while :attr:`on` is set, so the benchmark can
    keep its own output checks (which may reach a wrapped layer) out of
    the per-layer numbers.
    """

    def __init__(self) -> None:
        self.on = False
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Child time accumulated by each open span, innermost last.
        self._stack: List[float] = []
        #: ``(container, key, original)`` for every replaced reference.
        self._patches: List[Tuple[object, object, object]] = []

    def _wrap(self, layer: str, fn: Callable, counter: Optional[Counter]) -> Callable:
        tracer = self
        stack = self._stack
        calls, self_s, counts = self.calls, self.self_s, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                for name, n in counter(args, kwargs, result).items():
                    counts[name] += n
            return result

        return traced

    @property
    def attributed_s(self) -> float:
        """Summed self time of every span: the traced time some layer
        accounts for."""
        return sum(self.self_s.values())

    def _replace(self, container: object, key: object, new: object) -> None:
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = new
        else:
            self._patches.append((container, key, vars(container)[key]))
            setattr(container, key, new)

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS`."""
        for layer, module_name, path, counter in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    new = classmethod(self._wrap(layer, original.__func__, counter))
                else:
                    new = self._wrap(layer, original, counter)
                self._replace(owner, attr, new)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(layer, original, counter)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._replace(value, dkey, wrapped)

    def uninstall(self) -> None:
        """Restore every replaced reference (newest first)."""
        while self._patches:
            container, key, original = self._patches.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """``name -> (value, unit)`` for every layer and counter."""
        out: Dict[str, Tuple[float, str]] = {}
        for layer in LAYERS:
            out[calls_metric(layer)] = (self.calls.get(layer, 0), "count")
            out[self_metric(layer)] = (self.self_s.get(layer, 0.0), "s")
        for name in COUNTERS:
            out[name] = (self.counts.get(name, 0), "count")
        return out


def _noop() -> None:
    return None


def wrapper_cost_s() -> float:
    """Seconds one traced call adds to the call it wraps: a wrapped no-op
    against the bare no-op, in this process, best of five 20 000-call
    loops. Counter hooks are not included."""
    calls, repeats = 20_000, 5
    tracer = Tracer()
    tracer.on = True
    wrapped = tracer._wrap("calibration", _noop, None)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            wrapped()
        middle = clock()
        for _ in range(calls):
            _noop()
        best = min(best, (middle - start) - (clock() - middle))
    return max(best, 0.0) / calls
