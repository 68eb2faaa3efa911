"""Compiled game tables and the market congestion game built on them.

:class:`CompiledGame` evaluates a game's cost structure exactly once —
fixed costs, shared congestion costs at every occupancy, demands and
capacities all become numpy tables — so the best-response kernel of
:mod:`repro.game.batch` prices moves with array gathers instead of
Python-level calls into the cost callables. Every table entry is the same
``float(...)`` evaluation the cost callables return, so compiled cost
comparisons are bit-equal to the object-graph ones.

:class:`MarketGame` is the congestion game of Section II.E on a concrete
market, read off its :class:`~repro.market.compiled.CompiledMarket`;
:func:`market_game` and :func:`game_from_compiled` are its two
constructors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CapacityError, ConfigurationError
from repro.game.congestion import SingletonCongestionGame

if TYPE_CHECKING:  # pragma: no cover - cycle guard (market.compiled is upstream)
    from repro.market.compiled import CompiledMarket
    from repro.market.market import ServiceMarket
from repro.utils.validation import CAPACITY_EPS

#: Minimum strict cost improvement for a best-response move.
IMPROVEMENT_EPS = 1e-9


class CompiledGame:
    """Dense-array view of a :class:`SingletonCongestionGame`.

    Tables
    ------
    ``fixed``
        ``(n_players, n_resources)`` — ``fixed_cost(p, r)``.
    ``shared``
        ``(n_resources, n_players + 1)`` — ``shared_cost(r, k)`` in column
        ``k`` (column 0 is unused and zero; occupancy never exceeds the
        player count in a singleton game).
    ``demand``
        ``(n_players, n_resources, dims)`` for capacitated games, else
        ``None``.
    ``capacity``
        ``(n_resources, dims)`` for capacitated games, else ``None``.

    All entries are produced by the exact same ``float(...)`` evaluations
    the game's cost callables return, so compiled cost comparisons are
    bit-equal to object-graph ones.
    """

    def __init__(self, game: SingletonCongestionGame) -> None:
        self.game = game
        self.players: List[Hashable] = list(game.players)
        self.resources: List[Hashable] = list(game.resources)
        self.player_index: Dict[Hashable, int] = {
            p: i for i, p in enumerate(self.players)
        }
        self.resource_index: Dict[Hashable, int] = {
            r: j for j, r in enumerate(self.resources)
        }
        n, m = len(self.players), len(self.resources)

        self.fixed = np.empty((n, m), dtype=float)
        for i, p in enumerate(self.players):
            for j, r in enumerate(self.resources):
                self.fixed[i, j] = game.fixed_cost(p, r)

        self.shared = np.zeros((m, n + 1), dtype=float)
        for j, r in enumerate(self.resources):
            for k in range(1, n + 1):
                self.shared[j, k] = game.shared_cost(r, k)

        if game.capacitated:
            self.capacity = np.stack(
                [game.capacity_of(r) for r in self.resources]
            ).astype(float)
            dims = self.capacity.shape[1]
            self.demand = np.empty((n, m, dims), dtype=float)
            for i, p in enumerate(self.players):
                for j, r in enumerate(self.resources):
                    self.demand[i, j] = game.demand_of(p, r)
        else:
            self.capacity = None
            self.demand = None

    @classmethod
    def from_market(
        cls, cm: "CompiledMarket", game: SingletonCongestionGame
    ) -> "CompiledGame":
        """Build the game's tables as slices of a :class:`CompiledMarket`.

        The market game (see :class:`MarketGame`) uses provider ids as
        players and cloudlet node ids as resources, so its tables are
        row/column selections of the market-wide ones — no cost-model
        re-evaluation at all. Entries are bit-equal to what
        ``CompiledGame(game)`` would compute: the fixed table is the same
        memoised ``fixed_cost`` value, and the shared table is the same
        IEEE product ``(alpha_i + beta_i) * g(k)`` of the same two doubles.
        """
        try:
            rows = [cm.provider_index[p] for p in game.players]
            cols = [cm.cloudlet_index[r] for r in game.resources]
        except KeyError as exc:
            raise ConfigurationError(
                f"game player/resource {exc.args[0]!r} is not part of the compiled market"
            ) from None

        self = cls.__new__(cls)
        self.game = game
        self.players = list(game.players)
        self.resources = list(game.resources)
        self.player_index = {p: i for i, p in enumerate(self.players)}
        self.resource_index = {r: j for j, r in enumerate(self.resources)}
        n, m = len(rows), len(cols)

        self.fixed = cm.fixed[np.ix_(rows, cols)]
        self.shared = np.zeros((m, n + 1), dtype=float)
        self.shared[:, 1:] = cm.coeff[cols, None] * cm.g[None, 1 : n + 1]
        self.capacity = cm.capacity[cols].copy()
        self.demand = np.broadcast_to(
            cm.demand[rows][:, None, :], (n, m, cm.demand.shape[1])
        )
        return self

    # ------------------------------------------------------------------ #
    # State construction
    # ------------------------------------------------------------------ #
    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def n_resources(self) -> int:
        return len(self.resources)

    def _columns(self, profile: Mapping[Hashable, Hashable]) -> np.ndarray:
        """Resource column of every placed player, in profile order."""
        return np.fromiter(
            (self.resource_index[r] for r in profile.values()),
            dtype=np.int64, count=len(profile),
        )

    def _gather(self, profile: Mapping[Hashable, Hashable]) -> Tuple[np.ndarray, np.ndarray]:
        """``(player rows, resource columns)`` of a profile, in profile order."""
        rows = np.fromiter(
            (self.player_index[p] for p in profile), dtype=np.int64, count=len(profile)
        )
        return rows, self._columns(profile)

    def occupancy_vector(self, profile: Mapping[Hashable, Hashable]) -> np.ndarray:
        """Integer occupancy per resource index."""
        return np.bincount(self._columns(profile), minlength=self.n_resources)

    def load_matrix(self, profile: Mapping[Hashable, Hashable]) -> Optional[np.ndarray]:
        """Per-resource load vectors, accumulated in profile order:
        ``np.add.at`` applies repeated indices in order, the same addition
        order as ``game.loads``, so values are bit-equal."""
        if self.demand is None:
            return None
        rows, cols = self._gather(profile)
        loads = np.zeros_like(self.capacity)
        np.add.at(loads, cols, self.demand[rows, cols])
        return loads

    # ------------------------------------------------------------------ #
    # Vectorised queries
    # ------------------------------------------------------------------ #
    def feasible_mask(self, player_idx: int, loads: Optional[np.ndarray]) -> np.ndarray:
        """Which resources admit the player's demand on top of ``loads``.

        Matches ``game.move_is_feasible`` for resources the player does not
        currently occupy (the best-response scan never queries the current
        one). Uncapacitated games admit everything.
        """
        if self.demand is None:
            return np.ones(self.n_resources, dtype=bool)
        new_load = loads + self.demand[player_idx]
        return np.all(new_load <= self.capacity + CAPACITY_EPS, axis=1)

    def entry_costs(
        self,
        player_idx: int,
        occ: np.ndarray,
        loads: Optional[np.ndarray],
        posted: bool = False,
    ) -> np.ndarray:
        """Cost of joining each resource (infeasible ones are ``+inf``).

        ``posted=True`` evaluates the congestion term at its face value of
        one occupant (the posted-price information model); otherwise the
        player faces the live occupancy plus itself.
        """
        if posted:
            shared = self.shared[:, 1]
        else:
            kcol = np.minimum(occ + 1, self.n_players)
            shared = self.shared[np.arange(self.n_resources), kcol]
        costs = shared + self.fixed[player_idx]
        costs[~self.feasible_mask(player_idx, loads)] = np.inf
        return costs

    def social_cost(self, profile: Mapping[Hashable, Hashable]) -> float:
        """Eq. (6) evaluated from the tables.

        One vectorised gather of the per-player terms, folded left-to-right
        in profile order — bit-equal to ``game.social_cost(profile)``.
        """
        if not profile:
            return 0.0
        rows, cols = self._gather(profile)
        occ = np.bincount(cols, minlength=self.n_resources)
        terms = self.shared[cols, occ[cols]] + self.fixed[rows, cols]
        total = 0.0
        for t in terms.tolist():
            total += t
        return total


def _first_appearance(cols: np.ndarray) -> List[int]:
    """The distinct entries of ``cols`` in order of first appearance."""
    _values, first = np.unique(cols, return_index=True)
    return cols[np.sort(first)].tolist()


class MarketGame(SingletonCongestionGame):
    """The service-caching congestion game of a market, on compiled tables.

    Players are provider ids, resources are cloudlet node ids, the shared
    cost is ``(alpha_i + beta_i) * g(k)``, the fixed cost
    ``c_l^ins + c_i^bdw``, and capacities are the two-dimensional
    (compute, bandwidth) cloudlet limits. Every value is a gather of the
    :class:`~repro.market.compiled.CompiledMarket` tables, which hold the
    cost model's own evaluations bit for bit
    (``CompiledMarket.verify_against`` pins them); past the congestion
    table an occupancy is priced through the congestion function, as
    ``CompiledMarket.g_at`` does.

    :meth:`compile` slices the market-wide tables wholesale, and the O(n)
    aggregate queries the batch kernel issues once per call — ``loads``,
    ``validate_profile``, ``potential`` — are vectorised table reads that
    add in the same order as the generic profile-order loops, and so give
    the same floats. The game holds only the compiled tables, so a worker
    process can rebuild it from a shipped shard sub-view.
    """

    def __init__(self, cm: "CompiledMarket", players: Sequence[int]) -> None:
        def shared(node: int, occupancy: int) -> float:
            j = cm.cloudlet_index[node]
            if occupancy < len(cm.g):
                return float(cm.shared[j, occupancy])
            return float(cm.coeff[j] * cm.g_at(occupancy))

        def fixed(provider_id: int, node: int) -> float:
            return float(
                cm.fixed[cm.provider_index[provider_id], cm.cloudlet_index[node]]
            )

        def demand(provider_id: int, node: int) -> np.ndarray:
            return cm.demand[cm.provider_index[provider_id]].copy()

        def capacity(node: int) -> np.ndarray:
            return cm.capacity[cm.cloudlet_index[node]].copy()

        super().__init__(
            players=list(players),
            resources=list(cm.cloudlet_nodes),
            shared_cost=shared,
            fixed_cost=fixed,
            demand=demand,
            capacity=capacity,
        )
        self._cm = cm
        self._player_set = frozenset(self.players)

    def compile(self) -> CompiledGame:
        """The game's tables, sliced once from the compiled market and
        cached (see :meth:`CompiledGame.from_market`)."""
        if self._compiled_cache is None:
            self._compiled_cache = CompiledGame.from_market(self._cm, self)
        return self._compiled_cache

    def loads(self, profile: Mapping[int, int]) -> Dict[int, np.ndarray]:
        """Per-cloudlet demand sums, keyed in order of first appearance.

        ``np.add.at`` applies repeated indices in profile order — the
        same addition order, and hence the same floats, as the generic
        loop."""
        if not profile:
            return {}
        cm = self._cm
        rows, cols = cm.gather(profile)
        acc = np.zeros_like(cm.capacity)
        np.add.at(acc, cols, cm.demand[rows])
        return {cm.cloudlet_nodes[j]: acc[j].copy() for j in _first_appearance(cols)}

    def validate_profile(self, profile: Mapping[int, int]) -> None:
        """The generic completeness and capacity check on the tables.

        A profile whose players differ from the game's gets the generic
        check's :class:`ConfigurationError`. Otherwise the loads add in
        profile order (the same floats as :meth:`loads`) and the first
        overloaded cloudlet in order of first appearance raises the
        generic :class:`CapacityError`."""
        if profile.keys() != self._player_set:
            # Raises: some player is missing or unknown.
            SingletonCongestionGame.validate_profile(self, profile)
        cm = self._cm
        loads = cm.load_matrix(profile)
        overloaded = (loads > cm.capacity + CAPACITY_EPS).any(axis=1)
        if overloaded.any():
            _rows, cols = cm.gather(profile)
            j = next(j for j in _first_appearance(cols) if overloaded[j])
            raise CapacityError(
                f"resource {cm.cloudlet_nodes[j]!r} overloaded: "
                f"load {loads[j]} > capacity {cm.capacity[j]}"
            )

    def potential(self, profile: Mapping[int, int]) -> float:
        """Rosenthal's potential, added in the generic order: one builtin
        ``sum`` of shared terms per cloudlet in order of first appearance,
        then the fixed terms in profile order. Occupancy never exceeds the
        player count, which the congestion table always covers."""
        if not profile:
            return 0.0
        cm = self._cm
        rows, cols = cm.gather(profile)
        occ = np.bincount(cols, minlength=cm.n_cloudlets)
        phi = 0.0
        for j in _first_appearance(cols):
            phi += sum(cm.shared[j, 1 : occ[j] + 1].tolist())
        for t in cm.fixed[rows, cols].tolist():
            phi += t
        return phi


def game_from_compiled(
    cm: "CompiledMarket", players: Optional[Sequence[int]] = None
) -> MarketGame:
    """The market congestion game on compiled tables (default players:
    every live provider of ``cm``, in id order)."""
    if players is None:
        # ``provider_ids`` is the live id list (tombstoned rows removed).
        players = list(cm.provider_ids)
    return MarketGame(cm, players)


def market_game(
    market: "ServiceMarket", players: Optional[Sequence[int]] = None
) -> MarketGame:
    """The service-caching congestion game of ``market``.

    ``players`` restricts the game to a subset of provider ids (used when
    some providers were rejected and stay out of the market); the default
    is the full population ``N`` in market order, which is the round-robin
    order of best response.
    """
    if players is None:
        players = [p.provider_id for p in market.providers]
    return game_from_compiled(market.compile(), players)


__all__ = [
    "CompiledGame",
    "IMPROVEMENT_EPS",
    "MarketGame",
    "game_from_compiled",
    "market_game",
]
