"""Deterministic randomness helpers.

Every stochastic component in the library accepts either an integer seed or a
:class:`numpy.random.Generator`; :func:`as_rng` normalises both to a
``Generator``. Experiments therefore replay bit-identically for a fixed seed,
which the test suite and the benchmark harness rely on.
"""

from __future__ import annotations

import itertools
import random
from typing import Final, List, Tuple, Union

import numpy as np

#: Anything accepted where randomness is needed.
RandomSource = Union[int, np.random.Generator, None]

_DEFAULT_SEED: Final[int] = 20200707  # ICDCS 2020 week; arbitrary but fixed.


def as_rng(source: RandomSource = None) -> np.random.Generator:
    """Normalise ``source`` to a :class:`numpy.random.Generator`.

    ``None`` yields a generator seeded with the library default so that
    "unseeded" runs are still reproducible; pass an explicit ``Generator``
    to share a stream across components.
    """
    if isinstance(source, np.random.Generator):
        return source
    if source is None:
        return np.random.default_rng(_DEFAULT_SEED)
    return np.random.default_rng(int(source))


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Used when an experiment fans out over repetitions that must not share a
    stream (e.g. parallel sweep points).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = rng.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(s)) for s in seeds]


def uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """A single uniform draw with argument validation."""
    if high < low:
        raise ValueError(f"empty interval [{low}, {high}]")
    return float(rng.uniform(low, high))


def uniform_int(rng: np.random.Generator, low: int, high: int) -> int:
    """A single integer draw from the inclusive range [low, high]."""
    if high < low:
        raise ValueError(f"empty integer interval [{low}, {high}]")
    return int(rng.integers(low, high + 1))


def gnp_edges(n: int, p: float, seed: int) -> List[Tuple[int, int]]:
    """The edges ``networkx.gnp_random_graph(n, p, seed=seed)`` draws, in
    the order it adds them, without building the graph.

    The same ``random.Random(seed)`` stream is consumed the same way: one
    draw per node pair in ``itertools.combinations`` order, the pair kept
    when the draw is below ``p``. ``p >= 1`` keeps every pair and ``p <= 0``
    none, without a draw.
    """
    pairs = itertools.combinations(range(n), 2)
    if p >= 1:
        return list(pairs)
    if p <= 0:
        return []
    draw = random.Random(seed).random
    return [pair for pair in pairs if draw() < p]


__all__ = [
    "RandomSource", "as_rng", "gnp_edges", "spawn", "uniform", "uniform_int",
    "_DEFAULT_SEED",
]
