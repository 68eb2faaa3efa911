"""Reference shard sub-views: every boundary provider, global-length ``g``.

:func:`reference_shard_view` is the library's original
:func:`~repro.market.shard.shard_view`, kept verbatim as the oracle the
slim views are tested against. Its rows are the shard's interior
providers plus *all* boundary providers, whether or not their feasible
mask reaches the shard, and it carries the congestion prefix ``g`` (and
so the ``shared`` table) at the global length.

A sub-game only ever reads the rows of its placed players and ``g`` up to
their count, so settling on either view gives the same equilibrium bit for
bit (``tests/game/test_shard_view_equivalence.py``).
:func:`use_reference_views` swaps the oracle in where the settle loop
builds its views.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

import numpy as np

from repro.exceptions import ConfigurationError
from repro.market.compiled import CompiledMarket
from repro.market.shard import MarketPartition, ShardClassification


def reference_shard_view(
    compiled: CompiledMarket,
    partition: MarketPartition,
    shard_id: int,
    classification: ShardClassification,
) -> CompiledMarket:
    """One shard's self-contained :class:`CompiledMarket` sub-view.

    Rows: the shard's interior providers plus *all* boundary providers
    (whatever shard a boundary provider currently caches on, its
    occupancy must be priceable here), ascending id order. Columns: the
    shard's cloudlets in global column order. Every table entry is a
    fancy-indexed *copy* of the global entry — bit-equal, and safely
    picklable to a worker without aliasing the parent arrays. The
    congestion prefix ``g`` is carried at global length, so the sub-view
    shares the exact ``coeff * g`` products of the global ``shared``
    table. The view depends only on ``(shard_id, partition,
    classification)`` and the current tables — i.e. on the shard id and
    the delta sequence number — which is what makes worker-side blob
    caching sound.
    """
    if shard_id not in partition.cloudlets:
        raise ConfigurationError(f"unknown shard id {shard_id}")
    pids = sorted(
        set(classification.interior.get(shard_id, ()))
        | set(classification.boundary)
    )
    col_nodes = list(partition.cloudlets[shard_id])
    if not col_nodes:
        raise ConfigurationError(f"shard {shard_id} has no cloudlets")
    rows = [compiled.provider_index[pid] for pid in pids]
    cols = [compiled.cloudlet_index[node] for node in col_nodes]
    if rows:
        sub = np.ix_(rows, cols)
        fixed = compiled.fixed[sub]
        access = compiled.access[sub]
        update = compiled.update[sub]
        user_delay = compiled.user_delay[sub]
        instantiation = compiled.instantiation[rows]
        remote = compiled.remote[rows]
        demand = compiled.demand[rows]
    else:
        m = len(cols)
        fixed = np.empty((0, m))
        access = np.empty((0, m))
        update = np.empty((0, m))
        user_delay = np.empty((0, m))
        instantiation = np.empty(0)
        remote = np.empty(0)
        demand = np.empty((0, 2))
    return CompiledMarket(
        provider_ids=list(pids),
        cloudlet_nodes=col_nodes,
        fixed=fixed,
        instantiation=instantiation,
        access=access,
        update=update,
        coeff=compiled.coeff[cols],
        g=compiled.g.copy(),
        demand=demand,
        capacity=compiled.capacity[cols],
        remote=remote,
        user_delay=user_delay,
        congestion=compiled.congestion,
    )


@contextmanager
def use_reference_views() -> Iterator[None]:
    """Build the settle loop's shard views with :func:`reference_shard_view`
    while the context is open."""
    with mock.patch("repro.game.partitioned.shard_view", reference_shard_view):
        yield
