"""Convergence study of the equilibrium dynamics (extension).

Lemma 3 says a Nash equilibrium *exists*; for the mechanism to be "an
efficient, stable Stackelberg congestion game" the dynamics must also reach
one quickly. This module measures that: rounds, improving moves and wall
clock of best-response vs better-response vs random-order dynamics, as the
selfish population grows.

Empirically, singleton congestion games with affine costs converge in a
handful of round-robin rounds — the study quantifies "handful" and how it
scales, which is what an operator needs to size the control loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.game.best_response import best_response_dynamics, greedy_feasible_profile
from repro.game.dynamics_variants import VARIANTS, improvement_dynamics
from repro.game.engine import market_game
from repro.game.equilibrium import certify_equilibrium
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network


@dataclass(frozen=True)
class ConvergencePoint:
    """Averaged convergence statistics at one population size."""

    n_providers: int
    variant: str
    rounds: float
    moves: float
    wall_s: float
    all_converged: bool
    all_equilibria: bool


def convergence_study(
    populations: Sequence[int] = (20, 40, 80),
    network_size: int = 150,
    repetitions: int = 3,
    variants: Sequence[str] = ("best", "better", "best_random_order"),
    seed: int = 17,
) -> List[ConvergencePoint]:
    """Measure dynamics convergence across population sizes.

    ``variants``: ``"best"`` (round-robin best response), ``"better"``
    (first improving move), ``"best_random_order"``.
    """
    if not populations or not variants:
        raise ConfigurationError("need at least one population and one variant")
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
    unknown = [v for v in variants if v != "best" and v not in VARIANTS]
    if unknown:
        raise ConfigurationError(
            f"unknown variants {unknown}; choose from {('best',) + VARIANTS}"
        )
    points: List[ConvergencePoint] = []
    for n in populations:
        per_variant: Dict[str, List] = {v: [] for v in variants}
        for rep in range(repetitions):
            network = random_mec_network(network_size, rng=seed + rep)
            market = generate_market(network, n, rng=seed + 100 + rep)
            game = market_game(market)
            start = greedy_feasible_profile(game)
            for variant in variants:
                t0 = time.perf_counter()
                if variant == "best":
                    result = best_response_dynamics(game, dict(start))
                else:
                    result = improvement_dynamics(
                        game, dict(start), variant=variant, rng=seed
                    )
                wall = time.perf_counter() - t0
                equilibrium = certify_equilibrium(game, result.profile)
                per_variant[variant].append(
                    (result.rounds, result.moves, wall, result.converged, equilibrium)
                )
        for variant in variants:
            rows = per_variant[variant]
            points.append(
                ConvergencePoint(
                    n_providers=int(n),
                    variant=variant,
                    rounds=float(np.mean([r[0] for r in rows])),
                    moves=float(np.mean([r[1] for r in rows])),
                    wall_s=float(np.mean([r[2] for r in rows])),
                    all_converged=all(r[3] for r in rows),
                    all_equilibria=all(r[4] for r in rows),
                )
            )
    return points


__all__ = ["ConvergencePoint", "convergence_study"]
