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
  the theoretically-stable variant; with fully informed players the
  equilibrium is close to the coordinated optimum, so the ``1 - xi`` trend
  flattens (see EXPERIMENTS.md). (The PoA study does not run LCF: it
  bounds the worst equilibrium of ``market_game`` directly.)

Posted-price entry is :func:`~repro.core.assignment.sequential_admission`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set

import numpy as np

from repro.core.appro import appro
from repro.core.assignment import CachingAssignment, Stopwatch, sequential_admission
from repro.exceptions import CapacityError, ConfigurationError
from repro.game.best_response import best_response_dynamics, sequential_entry
from repro.game.congestion import SingletonCongestionGame
from repro.game.engine import market_game
from repro.game.equilibrium import certify_equilibrium
from repro.market.compiled import CompiledMarket
from repro.market.market import ServiceMarket
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import CAPACITY_EPS, check_fraction

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
    entry_threshold: Callable[[int], float],
) -> None:
    """Full-information sequential selfish entry with rejection of
    unplaceable providers: :func:`~repro.game.best_response.sequential_entry`
    at the live occupancy each provider would join, turned away when its
    cheapest feasible cost does not beat ``entry_threshold``. Updates
    ``profile``, ``rejected`` and ``placed_selfish`` in place.
    """
    refused = set(sequential_entry(game_all, profile, selfish_ids, entry_threshold))
    rejected |= refused
    placed_selfish.extend(p for p in selfish_ids if p not in refused)


def _posted_prices(
    cm: CompiledMarket, tolls: Optional[np.ndarray] = None
) -> Callable[[int], np.ndarray]:
    """Posted price rows ``shared[:, 1] + fixed[row]`` (as
    ``CostModel.cost(provider, cl, 1)``), plus ``tolls`` per column."""
    posted = cm.shared[:, 1]
    if tolls is None:
        return lambda row: posted + cm.fixed[row]
    return lambda row: (posted + cm.fixed[row]) + tolls


def posted_price_entry(
    cm: CompiledMarket, placement: Dict[int, int], rejected: Set[int],
    entrants: Iterable[int], tolls: Optional[np.ndarray] = None,
) -> None:
    """Posted-price sequential entry: each entrant, in order, takes the
    first cheapest cloudlet with room at its posted price (plus ``tolls``
    per cloudlet column when given) unless that does not beat its remote
    cost; then it is rejected. Updates ``placement`` and ``rejected`` in
    place."""
    sequential_admission(
        cm, cm.load_matrix(placement), placement, rejected, entrants,
        _posted_prices(cm, tolls), cm.remote,
    )


def _posted_entry(
    market: ServiceMarket, profile: Dict[int, int], selfish_ids: List[int],
    rejected: Set[int], allow_remote: bool,
) -> None:
    """LCF's posted-price selfish entry: :func:`posted_price_entry` with
    the remote threshold only when ``allow_remote``. Updates ``profile``
    and ``rejected`` of ``market`` in place."""
    cm = market.compile()
    sequential_admission(
        cm, cm.load_matrix(profile), profile, rejected, selfish_ids,
        _posted_prices(cm), cm.remote if allow_remote else None,
    )


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
    compiled cost tables, settles them on the batch best-response kernel
    (:mod:`repro.game.batch`) and certifies the equilibrium with the
    kernel's own move rule.

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
        # "full" it sees the live occupancy it would join. With the remote
        # option open, "not to cache" competes with every cloudlet at the
        # provider's remote-serving cost.
        rejected: Set[int] = set(pinned_remote)
        placed_selfish: List[int] = []
        cm = market.compile()
        if information == "posted_price":
            _posted_entry(market, profile, selfish_ids, rejected, allow_remote)
            # Posted-price choices are dominant strategies (no player's
            # evaluated cost depends on others), so the profile is already
            # a stable outcome and no best-response round can move anyone;
            # only capacity-driven compromises deviate from each player's
            # unconstrained optimum.
            if np.any(cm.load_matrix(profile) > cm.capacity + CAPACITY_EPS):
                raise CapacityError(
                    "posted-price entry left a cloudlet over capacity"
                )
            placement = dict(profile)
            br_rounds = br_moves = 0
            equilibrium = True
        else:
            entry_threshold = (
                cm.remote_cost if allow_remote else (lambda pid: float("inf"))
            )
            _selfish_entry(
                market_game(market), profile, selfish_ids, rejected,
                placed_selfish, entry_threshold,
            )
            game = market_game(market, players=list(profile))
            result = best_response_dynamics(
                game, profile, movable=placed_selfish, max_rounds=max_rounds
            )
            equilibrium = certify_equilibrium(
                game, result.profile, movable=placed_selfish
            )
            placement = dict(result.profile)
            br_rounds, br_moves = result.rounds, result.moves

    assignment = CachingAssignment(
        market=market,
        placement=placement,
        rejected=frozenset(rejected),
        algorithm=f"LCF[xi={xi:.2f}]",
        runtime_s=watch.elapsed,
        info={
            "xi": xi,
            "selection": selection,
            "coordinated": len(coordinated_ids),
            "br_rounds": br_rounds,
            "br_moves": br_moves,
            "appro_social_cost": zeta.social_cost,
            "is_equilibrium": equilibrium,
            "warm_start": warm_start is not None,
        },
    )
    return LCFResult(
        assignment=assignment,
        appro_assignment=zeta,
        coordinated_ids=coordinated_ids,
        br_rounds=br_rounds,
        br_moves=br_moves,
        is_equilibrium=equilibrium,
    )


__all__ = ["lcf", "LCFResult", "posted_price_entry", "select_coordinated_lcf"]
