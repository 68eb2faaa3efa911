"""The best-response kernel: batch-vectorized round-robin dynamics.

A serial engine visits providers one Python turn at a time — ~8 small
numpy calls per player per round even with compiled tables, which caps
equilibria at a few hundred nodes. This kernel computes **all** providers'
candidate moves at once as a (players x cloudlets) delta-cost matrix over the same
compiled tables, with masked infeasibility, and resolves conflicts with a
Jacobi-propose -> Gauss-Seidel-commit rule:

* **Jacobi propose** — one vectorised pass builds every pending player's
  entry-cost row (``shared[i, occ_i + 1] + fixed[l, i]``, capacity- and
  latency-infeasible cells masked to ``+inf``), takes the row argmin, and
  marks the players whose best candidate strictly improves on their
  current cost.
* **Gauss-Seidel commit** — proposals are committed in the deterministic
  round-robin priority order (the serial visiting order), and a
  cached proposal is only trusted while no earlier commit has touched the
  state: the first firing player's move is applied (occupancy, loads and
  the Rosenthal potential updated incrementally, exactly the serial
  delta), after which the remaining players are re-evaluated at the live
  state — vectorised block re-proposals while firings are sparse, or a
  per-turn argmin over incrementally-patched cost columns when they are
  dense (only the two columns a commit touches are rewritten).

Every committed move is therefore evaluated at exactly the state the
serial scan would see at that player's turn, so the kernel reproduces the
serial round-robin move sequence — and its fixed point — **bit for bit**:
same placements, same move count, same potential trace floats as the
per-turn incremental engine. That engine and the naive per-resource one
are kept in ``tests/oracles/best_response_reference.py``;
``tests/game/test_batch_kernel_equivalence.py`` pins the kernel against
both across seeds, congestion functions and instance representations, and
``tests/game/test_batch_kernel_properties.py`` fuzzes the per-round
invariants and the delta-churn path.

This is the only best-response kernel of the library: every caller
(:func:`repro.game.best_response.best_response_dynamics`, LCF, warm
starts, the sharded settle) reaches it.
"""

from __future__ import annotations

from typing import Callable, Final, Hashable, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import InfeasibleError
from repro.game.congestion import Profile, SingletonCongestionGame
from repro.game.engine import IMPROVEMENT_EPS, CompiledGame
from repro.utils.contracts import (
    check_potential_accumulator,
    invariant_capacity_feasible,
    invariant_no_conflicting_commits,
    invariant_potential_descends,
    invariants_active,
)
from repro.utils.validation import CAPACITY_EPS

#: One committed move: ``(player, old_resource, new_resource, cost_delta)``.
Commit = Tuple[Hashable, Hashable, Hashable, float]

#: Element budget for the sparse commit path: after a commit, the pending
#: block is re-proposed vectorised only while ``fired * n_resources`` stays
#: under this bound; denser rounds fall back to the per-turn column-patched
#: scan, whose cost does not scale with the number of commits. The switch
#: is a pure performance heuristic — both paths replay the identical
#: serial move sequence.
SPARSE_REPROPOSE_BUDGET: Final[int] = 2048


class _BatchState:
    """Live array state of one dynamics run (movers in priority order)."""

    def __init__(
        self,
        c: CompiledGame,
        profile: Profile,
        move_order: List[Hashable],
    ) -> None:
        self.c = c
        self.move_order = move_order
        rows = np.fromiter(
            (c.player_index[p] for p in move_order),
            dtype=np.int64,
            count=len(move_order),
        )
        #: Mover-major slices of the compiled tables (row ``t`` is the
        #: ``t``-th player in priority order).
        self.fixed = c.fixed[rows] if len(move_order) else np.empty((0, c.n_resources))
        self.demand = (
            c.demand[rows]
            if c.demand is not None and len(move_order)
            else (np.empty((0, c.n_resources, 1)) if c.demand is not None else None)
        )
        self.occ = c.occupancy_vector(profile)
        self.loads = c.load_matrix(profile)
        #: ``capacity + CAPACITY_EPS``, precomputed once — the same sum the
        #: serial feasibility mask forms on every query.
        self.cap_eps = (
            c.capacity + CAPACITY_EPS if c.capacity is not None else None
        )
        self.strat = np.fromiter(
            (c.resource_index[profile[p]] for p in move_order),
            dtype=np.int64,
            count=len(move_order),
        )
        self.n_players = c.n_players
        self.m = c.n_resources

    # ------------------------------------------------------------------ #
    # Vectorised queries
    # ------------------------------------------------------------------ #
    def join_costs(self) -> np.ndarray:
        """``shared(i, occ_i + 1)`` per resource — the congestion charge a
        joining player would face (occupancy clamped like the serial scan)."""
        kcol = np.minimum(self.occ + 1, self.n_players)
        return self.c.shared[np.arange(self.m), kcol]

    def feasible_block(self, lo: int) -> Optional[np.ndarray]:
        """Capacity feasibility of every (pending mover, resource) pair.

        The same ``loads + demand <= capacity + CAPACITY_EPS`` comparison
        as ``CompiledGame.feasible_mask``, batched over the mover block."""
        if self.demand is None or self.loads is None or self.cap_eps is None:
            return None
        new_load = self.loads[None, :, :] + self.demand[lo:]
        return np.all(new_load <= self.cap_eps[None, :, :], axis=2)

    def propose(self, lo: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Jacobi phase over pending movers ``[lo:]`` at the live state.

        Returns ``(targets, best, cur_cost)``: the row argmin of the masked
        entry-cost block, its value, and each mover's current cost. Every
        entry is the same IEEE sum of the same two table floats the serial
        scan computes, so the argmin tie-breaking is identical.
        """
        entry = self.join_costs()[None, :] + self.fixed[lo:]
        feas = self.feasible_block(lo)
        if feas is not None:
            entry[~feas] = np.inf
        block = np.arange(entry.shape[0])
        strat = self.strat[lo:]
        entry[block, strat] = np.inf
        cur_cost = (
            self.c.shared[strat, self.occ[strat]] + self.fixed[lo:][block, strat]
        )
        targets = np.argmin(entry, axis=1)
        best = entry[block, targets]
        return targets, best, cur_cost

    def commit(self, t: int, j: int) -> None:
        """Apply mover ``t``'s move to resource column ``j`` — the same
        in-place occupancy/load deltas, in the same order, as the serial
        engine's move application."""
        cur = int(self.strat[t])
        self.occ[cur] -= 1
        self.occ[j] += 1
        if self.loads is not None and self.demand is not None:
            self.loads[cur] -= self.demand[t, cur]
            self.loads[j] += self.demand[t, j]
        self.strat[t] = j


def _dense_scan(
    state: _BatchState,
    lo: int,
    on_commit: Callable[[int, int, int, float, float], None],
) -> int:
    """Gauss-Seidel commit scan over movers ``[lo:]`` with per-turn argmin.

    Maintains the masked entry-cost block incrementally: a commit rewrites
    only the two affected resource columns (congestion re-gathered at the
    new occupancy, feasibility re-checked at the new loads) for the movers
    still pending, so each turn costs one argmin instead of a full row
    rebuild. Returns the number of committed moves.
    """
    n_mov = len(state.move_order)
    if lo >= n_mov:
        return 0
    em = state.join_costs()[None, :] + state.fixed[lo:]
    feas = state.feasible_block(lo)
    if feas is not None:
        em[~feas] = np.inf
    committed = 0
    for t in range(lo, n_mov):
        row = em[t - lo]
        cur = int(state.strat[t])
        saved = row[cur]
        row[cur] = np.inf
        j = int(np.argmin(row))
        best = float(row[j])
        row[cur] = saved
        cur_cost = float(state.c.shared[cur, state.occ[cur]] + state.fixed[t, cur])
        if not best < cur_cost - IMPROVEMENT_EPS:
            continue
        state.commit(t, j)
        on_commit(t, cur, j, best, cur_cost)
        committed += 1
        rel = t + 1 - lo
        if rel < em.shape[0]:
            for col in (cur, j):
                kcol = min(int(state.occ[col]) + 1, state.n_players)
                colvals = state.c.shared[col, kcol] + state.fixed[t + 1 :, col]
                if (
                    state.loads is not None
                    and state.demand is not None
                    and state.cap_eps is not None
                ):
                    fits = np.all(
                        state.loads[col][None, :] + state.demand[t + 1 :, col, :]
                        <= state.cap_eps[col][None, :],
                        axis=1,
                    )
                    colvals = np.where(fits, colvals, np.inf)
                em[rel:, col] = colvals
    return committed


@invariant_no_conflicting_commits()
def _batch_rounds(
    game: SingletonCongestionGame,
    initial_profile: Mapping[Hashable, Hashable],
    c: Optional[CompiledGame],
    move_order: List[Hashable],
    max_rounds: int,
    record_moves: bool,
) -> Tuple[Profile, bool, int, int, List[float], List[Commit], List[List[Commit]]]:
    """The round loop; returns the engine tuple plus per-round commit lists
    (consumed by the no-conflicting-commits contract when armed)."""
    profile: Profile = dict(initial_profile)
    phi = game.potential(profile)
    trace = [phi]
    moves = 0
    rounds = 0
    converged = not move_order
    move_log: List[Commit] = []
    commit_rounds: List[List[Commit]] = []

    state = _BatchState(c, profile, move_order) if c is not None else None

    for rounds in range(1, max_rounds + 1):
        round_commits: List[Commit] = []

        def on_commit(t: int, cur: int, j: int, best: float, cur_cost: float) -> None:
            nonlocal phi, moves  # reprolint: ok[R8] per-call accumulators of this invocation's own locals; nothing outlives the call or is shared across workers
            p = move_order[t]
            profile[p] = state.c.resources[j]
            delta = float(best - cur_cost)
            phi += delta
            moves += 1
            record = (p, state.c.resources[cur], state.c.resources[j], delta)
            round_commits.append(record)
            if record_moves:
                move_log.append(record)

        lo = 0
        n_mov = len(move_order)
        while state is not None and lo < n_mov:
            targets, best, cur_cost = state.propose(lo)
            fire = best < cur_cost - IMPROVEMENT_EPS
            fired = np.flatnonzero(fire)
            if fired.size == 0:
                break
            if fired.size * state.m > SPARSE_REPROPOSE_BUDGET:
                # Dense round: per-turn scan with patched columns — its
                # cost is independent of how many players end up moving.
                _dense_scan(state, lo, on_commit)
                break
            # Sparse round: every cached proposal before the first firing
            # player is still live-fresh (no commit has touched the state
            # since the propose), so those players are skipped outright;
            # the firing move is committed and the rest re-proposed.
            k = int(fired[0])
            t = lo + k
            cur = int(state.strat[t])
            j = int(targets[k])
            state.commit(t, j)
            on_commit(t, cur, j, float(best[k]), float(cur_cost[k]))
            lo = t + 1

        trace.append(phi)
        commit_rounds.append(round_commits)
        if not round_commits:
            converged = True
            break

    if invariants_active():
        check_potential_accumulator(game, profile, phi)
    return profile, converged, rounds, moves, trace, move_log, commit_rounds


@invariant_capacity_feasible()
@invariant_potential_descends()
def batch_best_response(
    game: SingletonCongestionGame,
    initial_profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]] = None,
    max_rounds: int = 1000,
    compiled: Optional[CompiledGame] = None,
    record_moves: bool = False,
) -> Tuple[Profile, bool, int, int, List[float], List[Commit]]:
    """Batch-vectorized round-robin best-response dynamics.

    Returns ``(profile, converged, rounds, moves, potential_trace,
    move_log)``. The potential trace samples the Rosenthal potential
    before the first round and after each round, maintained by a per-move
    accumulator; ``move_log`` holds ``(player, old_resource,
    new_resource, cost_delta)`` records when ``record_moves`` is set (each
    ``cost_delta`` is the mover's strict improvement, i.e. the exact
    potential decrease of that move). The Jacobi/Gauss-Seidel schedule
    commits exactly the serial round-robin move sequence (see the module
    docstring); it just prices the candidates in bulk.
    """
    game.validate_profile(initial_profile)
    movable_set = set(movable) if movable is not None else set(game.players)
    unknown = movable_set - set(game.players)
    if unknown:
        raise InfeasibleError(
            f"movable contains unknown players {sorted(unknown, key=str)}"
        )
    move_order = [p for p in game.players if p in movable_set]
    c = (
        (compiled if compiled is not None else game.compile())
        if move_order
        else None
    )
    profile, converged, rounds, moves, trace, move_log, _ = _batch_rounds(
        game, initial_profile, c, move_order, max_rounds, record_moves
    )
    return profile, converged, rounds, moves, trace, move_log


__all__ = ["SPARSE_REPROPOSE_BUDGET", "batch_best_response"]
