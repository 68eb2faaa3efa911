"""Congestion tolls: steering the posted-price market without coordination.

LCF contains selfish damage by *pinning* a coordinated subset. A classic
alternative from the congestion-pricing literature is for the leader to
publish **tolls** on top of each cloudlet's price sheet: selfish providers
then minimise ``posted cost + toll`` when choosing, but tolls are transfers
back to the infrastructure provider — they steer behaviour without being a
social cost (Eq. 6 is evaluated without them). The tolled market is the
dynamic simulation's posted-price entry on the compiled tables
(:func:`~repro.core.lcf.posted_price_entry`) with the tolls added.

With the paper's linear congestion model the marginal externality of one
more instance at ``CL_i`` with ``k`` residents is ``(alpha_i + beta_i) * k``
— so a toll proportional to the *anticipated* load internalises it
(Pigou). :func:`anticipatory_tolls` implements that with one scalar knob
(the toll level), and :func:`optimize_toll_level` grid-searches the knob
against the realised social cost. The result: even with **zero coordinated
providers**, tolls recover most of the gap between the posted-price anarchy
and the coordinated optimum — a complement to the paper's mechanism that
needs no bulk-lease contracts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.appro import appro
from repro.core.assignment import CachingAssignment, Stopwatch
from repro.core.lcf import posted_price_entry
from repro.exceptions import ConfigurationError
from repro.market.compiled import CompiledMarket
from repro.market.market import ServiceMarket
from repro.utils.validation import check_non_negative


def _scaled_tolls(cm: CompiledMarket, occupancy: np.ndarray, level: float) -> Dict[int, float]:
    """``level * (alpha_i + beta_i) * load_i`` per cloudlet node."""
    return dict(zip(cm.cloudlet_nodes, (level * cm.coeff * occupancy).tolist()))


def _reference_occupancy(market: ServiceMarket) -> np.ndarray:
    """Per-column load of the social optimum (Appro with marginal pricing)."""
    return market.compile().occupancy_vector(appro(market, allow_remote=True).placement)


def anticipatory_tolls(market: ServiceMarket, level: float) -> Dict[int, float]:
    """Per-cloudlet tolls ``level * (alpha_i + beta_i) * load_i`` where
    ``load_i`` is the load the social optimum (Appro with marginal pricing)
    would put there — the leader's anticipation of a healthy allocation."""
    check_non_negative(level, "level")
    return _scaled_tolls(market.compile(), _reference_occupancy(market), level)


def tolled_selfish_market(
    market: ServiceMarket, tolls: Optional[Dict[int, float]] = None
) -> CachingAssignment:
    """Run the fully selfish posted-price market under the given tolls.

    Every provider (no coordination at all), in provider-id order, enters
    through :func:`~repro.core.lcf.posted_price_entry` with the tolls added
    to the posted prices. Tolls are excluded from the reported social cost.
    """
    tolls = tolls or {}
    cm = market.compile()
    unknown = set(tolls) - set(cm.cloudlet_index)
    if unknown:
        raise ConfigurationError(f"tolls reference unknown cloudlets {sorted(unknown)}")

    with Stopwatch() as watch:
        toll_vector = np.array([tolls.get(node, 0.0) for node in cm.cloudlet_nodes])
        placement: Dict[int, int] = {}
        rejected: Set[int] = set()
        posted_price_entry(cm, placement, rejected, cm.provider_ids, toll_vector)

    return CachingAssignment(
        market=market,
        placement=placement,
        rejected=frozenset(rejected),
        algorithm="TolledSelfish",
        runtime_s=watch.elapsed,
        info={"toll_revenue": sum(tolls.get(n, 0.0) for n in placement.values())},
    )


@dataclass
class TollOptimum:
    """Result of the toll-level grid search."""

    level: float
    assignment: CachingAssignment
    social_cost: float
    #: Realised social cost per candidate level (for plotting/diagnosis).
    sweep: Dict[float, float]

    @property
    def toll_revenue(self) -> float:
        return float(self.assignment.info["toll_revenue"])


def optimize_toll_level(
    market: ServiceMarket,
    levels: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0),
) -> TollOptimum:
    """Grid-search the anticipatory toll level minimising realised social
    cost of the fully selfish market."""
    if not levels:
        raise ConfigurationError("need at least one candidate toll level")
    occupancy = _reference_occupancy(market)
    sweep: Dict[float, float] = {}
    best: Optional[Tuple[float, CachingAssignment]] = None
    for level in levels:
        tolls = _scaled_tolls(market.compile(), occupancy, check_non_negative(level, "level"))
        assignment = tolled_selfish_market(market, tolls)
        cost = assignment.social_cost
        sweep[float(level)] = cost
        if best is None or cost < best[1].social_cost:
            best = (float(level), assignment)
    level, assignment = best
    return TollOptimum(
        level=level,
        assignment=assignment,
        social_cost=assignment.social_cost,
        sweep=sweep,
    )


__all__ = [
    "anticipatory_tolls",
    "tolled_selfish_market",
    "TollOptimum",
    "optimize_toll_level",
]
