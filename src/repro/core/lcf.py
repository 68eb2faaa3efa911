"""Algorithm 2 — ``LCF``: the approximation-restricted Stackelberg strategy.

Steps (Section III.C):

1. run :func:`~repro.core.appro.appro` to obtain the approximate solution
   ``zeta`` of the non-selfish problem;
2. select the ``floor(xi * |N|)`` providers with the *largest* caching cost
   under ``zeta`` (Largest Cost First) — high-cost providers have the most
   leverage over the social cost, so coordinating them best contains the
   damage of the remaining selfish play;
3. pin the coordinated providers to their ``zeta`` cloudlets;
4. let the remaining providers selfishly "use the location that could incur
   a minimum cost" (Algorithm 2, line 7).

Step 4 supports two information models:

* ``"posted_price"`` (default) — selfish providers see only the
  infrastructure provider's posted price sheet (``alpha_i + beta_i`` plus
  their own fixed costs) and cannot observe each other's simultaneous
  decisions; each choice is then a dominant strategy, so the outcome is
  trivially stable. This mirrors the paper's market narrative (providers do
  not communicate) and reproduces the Fig. 3/6 trend where the social cost
  degrades as ``1 - xi`` grows: uncoordinated providers herd onto
  individually-cheap cloudlets.
* ``"full"`` — selfish providers observe live congestion and play
  best-response dynamics to a pure Nash equilibrium of the capacitated
  congestion game (Lemma 3 guarantees existence and convergence). This is
  the theoretically-stable variant used by the PoA study; with fully
  informed players the equilibrium is close to the coordinated optimum, so
  the ``1 - xi`` trend flattens (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from repro.core.appro import appro
from repro.core.assignment import CachingAssignment, Stopwatch
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.game.best_response import best_response_dynamics
from repro.game.congestion import SingletonCongestionGame
from repro.game.engine import market_game
from repro.game.equilibrium import is_nash_equilibrium
from repro.market.market import ServiceMarket
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_fraction

_SELECTION_STRATEGIES = ("largest_cost", "smallest_cost", "random")


def select_coordinated_lcf(
    market: ServiceMarket,
    reference: CachingAssignment,
    budget: int,
    strategy: str = "largest_cost",
    rng: RandomSource = None,
) -> List[int]:
    """Choose which providers the leader coordinates.

    ``"largest_cost"`` is the paper's LCF rule (step 2 of Algorithm 2);
    ``"smallest_cost"`` and ``"random"`` support ablation A2. Providers the
    reference solution left in the remote cloud are eligible too — their
    prescribed strategy is "do not cache".
    """
    if strategy not in _SELECTION_STRATEGIES:
        raise ConfigurationError(
            f"unknown selection strategy {strategy!r}; choose from {_SELECTION_STRATEGIES}"
        )
    eligible = sorted(set(reference.placement) | set(reference.rejected))
    budget = max(0, min(budget, len(eligible)))
    if budget == 0:  # reprolint: ok[R2] budget is an integer count of coordinated services
        return []
    if strategy == "random":
        rng = as_rng(rng)
        picked = rng.choice(len(eligible), size=budget, replace=False)
        return sorted(eligible[i] for i in picked)
    costs = reference.provider_costs()
    reverse = strategy == "largest_cost"
    ranked = sorted(eligible, key=lambda pid: (costs[pid], pid), reverse=reverse)
    return sorted(ranked[:budget])


def _selfish_entry(
    game_all: SingletonCongestionGame,
    profile: Dict[int, int],
    selfish_ids: List[int],
    rejected: Set[int],
    placed_selfish: List[int],
    posted: bool,
    entry_threshold: Callable[[int], float],
) -> None:
    """Sequential selfish entry with rejection of unplaceable providers.

    Each selfish provider, in order, takes its cheapest feasible cloudlet
    from the compiled entry-cost row (occupancy term at face value under
    ``posted``, else the live occupancy it would join) unless that cost
    does not beat ``entry_threshold``; then it is rejected. Updates
    ``profile``, ``rejected`` and ``placed_selfish`` in place.
    """
    compiled = game_all.compile()
    occ_vec = compiled.occupancy_vector(profile)
    load_mat = compiled.load_matrix(profile)
    for pid in selfish_ids:
        pi = compiled.player_index[pid]
        costs = compiled.entry_costs(pi, occ_vec, load_mat, posted=posted)
        j = int(np.argmin(costs))
        if not costs[j] < entry_threshold(pid):
            rejected.add(pid)
            continue
        node = compiled.resources[j]
        profile[pid] = node
        occ_vec[j] += 1
        if load_mat is not None:
            load_mat[j] += compiled.demand[pi, j]
        placed_selfish.append(pid)


@dataclass
class LCFResult:
    """Everything produced by one LCF run."""

    assignment: CachingAssignment
    appro_assignment: CachingAssignment
    coordinated_ids: List[int]
    br_rounds: int
    br_moves: int
    is_equilibrium: bool

    @property
    def social_cost(self) -> float:
        return self.assignment.social_cost


def lcf(
    market: ServiceMarket,
    xi: float = 0.7,
    gap_solver: str = "shmoys_tardos",
    selection: str = "largest_cost",
    rng: RandomSource = None,
    max_rounds: int = 1000,
    allow_remote: bool = False,
    slot_pricing: str = "marginal",
    information: str = "posted_price",
    warm_start: Optional[object] = None,
) -> LCFResult:
    """Run Algorithm 2 with coordination fraction ``xi`` (so ``1 - xi`` of
    the providers behave selfishly, the x-axis of Fig. 3/6a).

    ``information`` selects the selfish players' information model (see the
    module docstring): ``"posted_price"`` or ``"full"``.

    The selfish phase enters providers with a vectorised scan of the
    compiled cost tables and settles them on the batch best-response
    kernel (:mod:`repro.game.batch`).

    The leader phase (Appro's GAP build and repair) reads the market's
    :class:`~repro.market.compiled.CompiledMarket`, and the follower
    phase's game tables are sliced from the same blob.

    ``warm_start`` carries the previous epoch's result across a market
    delta: a prior :class:`LCFResult` (or any assignment with
    ``placement``/``rejected``) whose leader assignment seeds Algorithm 1
    in place of the GAP rounding — survivors keep their strategies, only
    newcomers are placed, and the LP solve is skipped (see
    :func:`repro.core.appro.appro`). The downstream selection, pinning and
    selfish phases run unchanged on the seeded ``zeta``.

    Marks the market's providers as coordinated/selfish accordingly, so the
    returned assignment's :attr:`coordinated_cost` / :attr:`selfish_cost`
    reproduce the paper's cost splits.
    """
    check_fraction(xi, "xi")
    if information not in ("posted_price", "full"):
        raise ConfigurationError(
            f"information must be 'posted_price' or 'full', got {information!r}"
        )
    seed = (
        warm_start.appro_assignment
        if isinstance(warm_start, LCFResult)
        else warm_start
    )

    with Stopwatch() as watch:
        zeta = appro(
            market,
            gap_solver=gap_solver,
            allow_remote=allow_remote,
            slot_pricing=slot_pricing,
            warm_start=seed,
        )
        budget = market.coordination_budget(xi)
        coordinated_ids = select_coordinated_lcf(
            market, zeta, budget, strategy=selection, rng=rng
        )
        market.set_coordinated(coordinated_ids)

        # Pin coordinated providers; those the approximate solution served
        # remotely are pinned to "do not cache". Everyone else enters
        # selfishly.
        coordinated_set = set(coordinated_ids)
        pinned_remote = coordinated_set & set(zeta.rejected)
        profile: Dict[int, int] = {
            pid: zeta.placement[pid]
            for pid in coordinated_ids
            if pid not in pinned_remote
        }
        selfish_ids = [
            p.provider_id
            for p in market.providers
            if p.provider_id not in coordinated_set
        ]

        # Sequential selfish entry with rejection of unplaceable providers.
        # Under "posted_price" each provider evaluates the published price
        # sheet only (occupancy term at its face value of one unit); under
        # "full" it sees the live occupancy it would join.
        rejected: Set[int] = set(pinned_remote)
        game_all = market_game(market)
        placed_selfish: List[int] = []
        posted = information == "posted_price"
        # With the remote option open, "not to cache" competes with every
        # cloudlet at the provider's remote-serving cost.
        entry_threshold = (
            market.compile().remote_cost
            if allow_remote
            else (lambda pid: float("inf"))
        )

        _selfish_entry(
            game_all, profile, selfish_ids, rejected, placed_selfish,
            posted, entry_threshold,
        )

        game = market_game(market, players=list(profile))
        if posted:
            # Posted-price choices are dominant strategies (no player's
            # evaluated cost depends on others), so the profile is already
            # a stable outcome; only capacity-driven compromises deviate
            # from each player's unconstrained optimum.
            result = best_response_dynamics(
                game, profile, movable=[], max_rounds=1
            )
            equilibrium = True
        else:
            result = best_response_dynamics(
                game, profile, movable=placed_selfish, max_rounds=max_rounds
            )
            equilibrium = is_nash_equilibrium(
                game, result.profile, movable=placed_selfish
            )

    assignment = CachingAssignment(
        market=market,
        placement=dict(result.profile),
        rejected=frozenset(rejected),
        algorithm=f"LCF[xi={xi:.2f}]",
        runtime_s=watch.elapsed,
        info={
            "xi": xi,
            "selection": selection,
            "coordinated": len(coordinated_ids),
            "br_rounds": result.rounds,
            "br_moves": result.moves,
            "appro_social_cost": zeta.social_cost,
            "is_equilibrium": equilibrium,
            "warm_start": warm_start is not None,
        },
    )
    return LCFResult(
        assignment=assignment,
        appro_assignment=zeta,
        coordinated_ids=coordinated_ids,
        br_rounds=result.rounds,
        br_moves=result.moves,
        is_equilibrium=equilibrium,
    )


__all__ = ["lcf", "LCFResult", "select_coordinated_lcf"]
