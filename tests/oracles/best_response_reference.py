"""Reference best-response dynamics: the naive and incremental engines.

The library runs Lemma 3's round-robin best response through one kernel,
:func:`repro.game.batch.batch_best_response`. The two engines it replaced
are kept here verbatim as the oracles the differential and property suites
compare it against:

* :func:`naive_best_response_dynamics` — per-resource Python scans and a
  full Rosenthal-potential recomputation every round;
* :func:`incremental_best_response` — compiled cost tables, one vectorised
  argmin per player turn and a delta-maintained potential.

:func:`naive_selfish_entry` is LCF's matching per-resource selfish-entry
scan, the naive twin of :func:`repro.core.lcf._selfish_entry`.

All three engines visit players in the same order with the same strict
improvement threshold and the same first-minimum tie-break, so they
produce the same profiles, move counts and rounds. The incremental engine
and the batch kernel also agree on every potential-trace float; the naive
engine recomputes the potential from scratch, which reorders float
additions (~1e-15 relative drift), so its traces agree to ``allclose``.

:func:`use_kernel` routes the library's best-response callers through an
oracle kernel, so whole pipelines (``lcf``, warm starts) can be replayed
on the reference engines.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple
from unittest import mock

import numpy as np

from repro.exceptions import ConvergenceError, InfeasibleError
from repro.game.best_response import BestResponseResult, best_response_dynamics
from repro.game.congestion import Profile, SingletonCongestionGame
from repro.game.engine import IMPROVEMENT_EPS, CompiledGame
from repro.utils.contracts import (
    check_potential_accumulator,
    invariant_capacity_feasible,
    invariant_potential_descends,
    invariants_active,
)

#: The naive engine's name for the strict-improvement threshold.
_IMPROVEMENT_EPS = IMPROVEMENT_EPS


def _best_feasible_response(
    game: SingletonCongestionGame,
    player: Hashable,
    profile: Profile,
    loads: Dict[Hashable, np.ndarray],
    occ: Dict[Hashable, int],
) -> Optional[Hashable]:
    """The player's cheapest feasible resource, or ``None`` when staying put
    is (weakly) best. Deviating to ``r`` faces occupancy ``occ[r] + 1``."""
    current = profile[player]
    current_cost = game.cost(player, current, occ[current])
    best_r = None
    best_cost = current_cost - _IMPROVEMENT_EPS
    for r in game.resources:
        if r == current:
            continue
        if not game.move_is_feasible(player, r, profile, loads):
            continue
        c = game.cost(player, r, occ.get(r, 0) + 1)
        if c < best_cost:
            best_cost = c
            best_r = r
    return best_r


@invariant_capacity_feasible()
@invariant_potential_descends()
def naive_best_response_dynamics(
    game: SingletonCongestionGame,
    initial_profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]] = None,
    max_rounds: int = 1000,
    raise_on_nonconvergence: bool = False,
    compiled: Optional[CompiledGame] = None,
    record_moves: bool = False,
) -> BestResponseResult:
    """Round-robin best response with per-resource scans and a from-scratch
    potential every round (``compiled`` is accepted and ignored)."""
    game.validate_profile(initial_profile)
    profile: Profile = dict(initial_profile)
    movable_set: Set[Hashable] = set(movable) if movable is not None else set(game.players)
    unknown = movable_set - set(game.players)
    if unknown:
        raise InfeasibleError(f"movable contains unknown players {sorted(unknown, key=str)}")

    move_order = [p for p in game.players if p in movable_set]
    loads = game.loads(profile)
    occ = game.occupancy(profile)
    trace = [game.potential(profile)]
    moves = 0
    rounds = 0
    converged = not move_order  # nothing to move: trivially converged
    move_log: List[Tuple[Hashable, Hashable, Hashable, float]] = []

    for rounds in range(1, max_rounds + 1):
        improved = False
        for p in move_order:
            r_new = _best_feasible_response(game, p, profile, loads, occ)
            if r_new is None:
                continue
            r_old = profile[p]
            if record_moves:
                old_cost = game.cost(p, r_old, occ[r_old])
            profile[p] = r_new
            occ[r_old] -= 1
            if occ[r_old] == 0:
                del occ[r_old]
            occ[r_new] = occ.get(r_new, 0) + 1
            if game.capacitated:
                loads[r_old] = loads[r_old] - game.demand_of(p, r_old)
                d = game.demand_of(p, r_new)
                loads[r_new] = loads.get(r_new, np.zeros_like(d)) + d
            if record_moves:
                new_cost = game.cost(p, r_new, occ[r_new])
                move_log.append((p, r_old, r_new, new_cost - old_cost))
            moves += 1
            improved = True
        trace.append(game.potential(profile))
        if not improved:
            converged = True
            break

    if not converged and raise_on_nonconvergence:
        raise ConvergenceError(
            f"best-response dynamics did not converge in {max_rounds} rounds"
        )
    return BestResponseResult(
        profile=profile,
        converged=converged,
        rounds=rounds,
        moves=moves,
        potential_trace=trace,
        move_log=move_log,
    )


@invariant_capacity_feasible()
@invariant_potential_descends()
def incremental_best_response(
    game: SingletonCongestionGame,
    initial_profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]] = None,
    max_rounds: int = 1000,
    compiled: Optional[CompiledGame] = None,
    record_moves: bool = False,
) -> Tuple[Profile, bool, int, int, List[float], List[Tuple[Hashable, Hashable, Hashable, float]]]:
    """Round-robin best-response dynamics on compiled tables.

    Returns ``(profile, converged, rounds, moves, potential_trace,
    move_log)`` with the same semantics as the naive engine; the potential
    trace is maintained by the per-move accumulator. ``move_log`` holds
    ``(player, old_resource, new_resource, cost_delta)`` tuples when
    ``record_moves`` is set (each ``cost_delta`` is the mover's strict
    improvement, i.e. the exact potential decrease of that move).
    """
    game.validate_profile(initial_profile)
    profile: Profile = dict(initial_profile)
    movable_set = set(movable) if movable is not None else set(game.players)
    unknown = movable_set - set(game.players)
    if unknown:
        raise InfeasibleError(f"movable contains unknown players {sorted(unknown, key=str)}")
    move_order = [p for p in game.players if p in movable_set]

    phi = game.potential(profile)
    trace = [phi]
    moves = 0
    rounds = 0
    converged = not move_order
    move_log: List[Tuple[Hashable, Hashable, Hashable, float]] = []

    if move_order:
        c = compiled if compiled is not None else game.compile()
        occ = c.occupancy_vector(profile)
        loads = c.load_matrix(profile)
        strat = {p: c.resource_index[profile[p]] for p in move_order}
        mover_idx = [c.player_index[p] for p in move_order]
    else:
        c = None

    for rounds in range(1, max_rounds + 1):
        improved = False
        for p, pi in zip(move_order, mover_idx) if move_order else ():
            cur = strat[p]
            current_cost = c.shared[cur, occ[cur]] + c.fixed[pi, cur]
            costs = c.entry_costs(pi, occ, loads)
            costs[cur] = np.inf
            j = int(np.argmin(costs))
            best = costs[j]
            if not best < current_cost - IMPROVEMENT_EPS:
                continue
            # Apply the move delta. The mover's new cost is exactly the
            # selected entry cost, so the exact-potential property gives
            # the accumulator update for free.
            occ[cur] -= 1
            occ[j] += 1
            if loads is not None:
                loads[cur] -= c.demand[pi, cur]
                loads[j] += c.demand[pi, j]
            strat[p] = j
            profile[p] = c.resources[j]
            delta = float(best - current_cost)
            phi += delta
            if record_moves:
                move_log.append((p, c.resources[cur], c.resources[j], delta))
            moves += 1
            improved = True
        trace.append(phi)
        if not improved:
            converged = True
            break

    if invariants_active():
        # The delta updates are exact by the potential property; verify the
        # accumulator against a from-scratch Rosenthal recomputation.
        check_potential_accumulator(game, profile, phi)
    return profile, converged, rounds, moves, trace, move_log


def incremental_best_response_dynamics(
    game: SingletonCongestionGame,
    initial_profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]] = None,
    max_rounds: int = 1000,
    raise_on_nonconvergence: bool = False,
    compiled: Optional[CompiledGame] = None,
    record_moves: bool = False,
) -> BestResponseResult:
    """:func:`incremental_best_response` with the result wrapped like
    :func:`repro.game.best_response.best_response_dynamics` wraps the
    batch kernel's."""
    profile, converged, rounds, moves, trace, move_log = incremental_best_response(
        game,
        initial_profile,
        movable=movable,
        max_rounds=max_rounds,
        compiled=compiled,
        record_moves=record_moves,
    )
    if not converged and raise_on_nonconvergence:
        raise ConvergenceError(
            f"best-response dynamics did not converge in {max_rounds} rounds"
        )
    return BestResponseResult(
        profile=profile,
        converged=converged,
        rounds=rounds,
        moves=moves,
        potential_trace=trace,
        move_log=move_log,
    )


#: Both reference engines and the library's dynamics (``"batch"``) by
#: name, each with the signature and result of
#: :func:`repro.game.best_response.best_response_dynamics`.
DYNAMICS: Dict[str, Callable[..., BestResponseResult]] = {
    "naive": naive_best_response_dynamics,
    "incremental": incremental_best_response_dynamics,
    "batch": best_response_dynamics,
}


def naive_selfish_entry(
    game_all: SingletonCongestionGame,
    profile: Dict[int, int],
    selfish_ids: List[int],
    rejected: Set[int],
    placed_selfish: List[int],
    posted: bool,
    entry_threshold: Callable[[int], float],
) -> None:
    """LCF's sequential selfish entry with per-resource scans over the
    game's cost callables; same arguments and in-place updates as
    :func:`repro.core.lcf._selfish_entry`."""
    occ: Dict[int, int] = game_all.occupancy(profile)
    loads = game_all.loads(profile)
    for pid in selfish_ids:
        best_node = None
        best_cost = entry_threshold(pid)
        for node in game_all.resources:
            if not game_all.move_is_feasible(pid, node, profile, loads):
                continue
            evaluated_occ = 1 if posted else occ.get(node, 0) + 1
            c = game_all.cost(pid, node, evaluated_occ)
            if c < best_cost:
                best_cost = c
                best_node = node
        if best_node is None:
            rejected.add(pid)
            continue
        profile[pid] = best_node
        occ[best_node] = occ.get(best_node, 0) + 1
        d = game_all.demand_of(pid, best_node)
        loads[best_node] = loads.get(best_node, d * 0.0) + d
        placed_selfish.append(pid)


#: Where the library looks the best-response kernel up: the module that
#: defines it (``warm_started_best_response`` imports it at call time) and
#: the module-level name ``best_response_dynamics`` calls.
_KERNEL_SITES = (
    "repro.game.batch.batch_best_response",
    "repro.game.best_response.batch_best_response",
)


@contextmanager
def use_kernel(name: str) -> Iterator[None]:
    """Run the library on a reference engine while the context is open.

    ``"incremental"`` swaps :func:`incremental_best_response` in for the
    batch kernel. ``"naive"`` swaps in :func:`naive_best_response_dynamics`
    for ``lcf``'s dynamics and :func:`naive_selfish_entry` for its entry
    scan — the whole naive LCF pipeline. ``"batch"`` changes nothing.
    """
    if name == "batch":
        yield
    elif name == "incremental":
        with mock.patch(_KERNEL_SITES[0], incremental_best_response), mock.patch(
            _KERNEL_SITES[1], incremental_best_response
        ):
            yield
    elif name == "naive":
        with mock.patch(
            "repro.core.lcf.best_response_dynamics", naive_best_response_dynamics
        ), mock.patch("repro.core.lcf._selfish_entry", naive_selfish_entry):
            yield
    else:
        raise ValueError(f"unknown reference engine {name!r}")


__all__ = [
    "DYNAMICS",
    "incremental_best_response",
    "incremental_best_response_dynamics",
    "naive_best_response_dynamics",
    "naive_selfish_entry",
    "use_kernel",
]
