"""Per-player loop builds of the batch kernel's occupancy and load state.

``CompiledGame`` and ``CompiledMarket`` build a profile's occupancy with
``np.bincount`` and its loads with ``np.add.at`` in profile order. These
are the loops they replaced, one player at a time, in profile order: the
differential suite ``tests/game/test_bulk_state.py`` pins the bulk builds
to them with ``==``.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Optional

import numpy as np

from repro.game.engine import CompiledGame
from repro.market.compiled import CompiledMarket


def loop_occupancy(c: CompiledGame, profile: Mapping[Hashable, Hashable]) -> np.ndarray:
    """Integer occupancy per resource index of ``c``."""
    occ = np.zeros(c.n_resources, dtype=np.int64)
    for r in profile.values():
        occ[c.resource_index[r]] += 1
    return occ


def loop_loads(
    c: CompiledGame, profile: Mapping[Hashable, Hashable]
) -> Optional[np.ndarray]:
    """Per-resource load vectors of ``c``, added in profile order."""
    if c.demand is None:
        return None
    loads = np.zeros_like(c.capacity)
    for p, r in profile.items():
        loads[c.resource_index[r]] += c.demand[c.player_index[p], c.resource_index[r]]
    return loads


def loop_market_occupancy(cm: CompiledMarket, placement: Mapping[int, int]) -> np.ndarray:
    """``|sigma_i|`` per cloudlet column of ``cm``."""
    occ = np.zeros(cm.n_cloudlets, dtype=np.int64)
    for node in placement.values():
        occ[cm.cloudlet_index[node]] += 1
    return occ


def loop_market_loads(cm: CompiledMarket, placement: Mapping[int, int]) -> np.ndarray:
    """Per-cloudlet ``(compute, bandwidth)`` loads of ``cm``, added in
    placement order."""
    loads = np.zeros((cm.n_cloudlets, 2), dtype=float)
    for pid, node in placement.items():
        loads[cm.cloudlet_index[node]] += cm.demand[cm.provider_index[pid]]
    return loads


__all__ = [
    "loop_loads",
    "loop_market_loads",
    "loop_market_occupancy",
    "loop_occupancy",
]
