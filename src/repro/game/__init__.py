"""Congestion-game machinery (Section II.E).

The selfish providers play a *capacitated singleton congestion game*: each
player picks one resource (cloudlet); the cost is a shared non-decreasing
congestion term plus a player-and-resource-specific fixed term. This package
provides the game model, Rosenthal's exact potential, the one sequential
cheapest-feasible entry (:func:`sequential_entry`; the greedy start
:func:`greedy_feasible_profile` is one call of it), best-response dynamics,
the one Nash-equilibrium certificate (:func:`certify_equilibrium`, the
kernel's own move rule) and empirical Price-of-Anarchy measurement.
"""

from repro.game.congestion import Profile, SingletonCongestionGame
from repro.game.engine import game_from_compiled
from repro.game.batch import batch_best_response
from repro.game.best_response import (
    BestResponseResult,
    best_response_dynamics,
    greedy_feasible_profile,
    sequential_entry,
)
from repro.game.equilibrium import certify_equilibrium
from repro.game.poa import empirical_poa, enumerate_equilibria, worst_equilibrium_cost
from repro.game.dynamics_variants import improvement_dynamics
from repro.game.partitioned import (
    BOUNDARY_TOLERANCE,
    PartitionedResult,
    partitioned_best_response,
)

__all__ = [
    "Profile",
    "SingletonCongestionGame",
    "BestResponseResult",
    "batch_best_response",
    "best_response_dynamics",
    "greedy_feasible_profile",
    "sequential_entry",
    "certify_equilibrium",
    "empirical_poa",
    "enumerate_equilibria",
    "worst_equilibrium_cost",
    "improvement_dynamics",
    "BOUNDARY_TOLERANCE",
    "PartitionedResult",
    "game_from_compiled",
    "partitioned_best_response",
]
