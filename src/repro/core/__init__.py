"""The paper's primary contribution: Appro, LCF and their analysis.

* :func:`~repro.core.appro.appro` — Algorithm 1, the ``2*delta*kappa``
  approximation for the non-selfish problem (virtual-cloudlet split + GAP +
  Shmoys–Tardos + merge-back + capacity repair).
* :func:`~repro.core.lcf.lcf` — Algorithm 2, the Largest-Cost-First
  approximation-restricted Stackelberg strategy.
* :mod:`~repro.core.baselines` — ``JoOffloadCache`` [23] and
  ``OffloadCache`` [20].
* :func:`~repro.core.optimal.optimal_caching` and
  :func:`~repro.core.lower_bound.social_cost_lower_bound` — one Eq. (6)
  program on the compiled tables, solved integral for the exact optimum
  and relaxed for the LP lower bound (empirical ratio / PoA studies).
* :mod:`~repro.core.bounds` — Lemma 2 and Theorem 1 closed forms.
"""

from repro.core.assignment import CachingAssignment
from repro.core.virtual_cloudlets import VirtualCloudletSplit
from repro.game.engine import market_game
from repro.core.appro import appro
from repro.core.lcf import lcf, LCFResult, select_coordinated_lcf
from repro.core.baselines import jo_offload_cache, offload_cache
from repro.core.optimal import optimal_caching
from repro.core.bounds import appro_ratio_bound, stackelberg_poa_bound
from repro.core.multicache import (
    MultiCacheAssignment,
    greedy_multicache,
)
from repro.core.tolls import optimize_toll_level, tolled_selfish_market
from repro.core.lower_bound import social_cost_lower_bound
from repro.core.vcg import VCGOutcome, vcg_payments
from repro.core.planning import CapacityPlan, capacity_plan

__all__ = [
    "CachingAssignment",
    "VirtualCloudletSplit",
    "market_game",
    "appro",
    "lcf",
    "LCFResult",
    "select_coordinated_lcf",
    "jo_offload_cache",
    "offload_cache",
    "optimal_caching",
    "appro_ratio_bound",
    "stackelberg_poa_bound",
    "MultiCacheAssignment",
    "greedy_multicache",
    "optimize_toll_level",
    "tolled_selfish_market",
    "social_cost_lower_bound",
    "VCGOutcome",
    "vcg_payments",
    "CapacityPlan",
    "capacity_plan",
]
