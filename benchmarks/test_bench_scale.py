"""Scale benchmark for the batch best-response kernel (``BENCH_scale.json``).

Times equilibrium computation on large service markets — 400 to 1000
network nodes, 4000 to 10^4 providers — for the library's batch kernel
and the incremental reference engine of
``tests/oracles/best_response_reference.py``, in providers/sec (placed providers divided by best-of-N dynamics
wall clock from the same greedy start).

Correctness is asserted unconditionally: both engines must reach the
bit-identical fixed point (profile, move log, potential trace) on every
tier. Performance is asserted on the largest tier: the batch kernel must
be at least as fast as the incremental engine, and must stay within 10%
of the previously recorded providers/sec if ``BENCH_scale.json`` already
holds a number for that tier (the CI regression bar).

The start profile is the library's one sequential cheapest-feasible
entry (``repro.game.best_response.sequential_entry``, the loop behind
``greedy_feasible_profile``), which reads the compiled tables with one
vectorised scan per provider; providers it cannot place stay out rather
than failing the fixture. Cloudlet capacity is scaled up
(``vms_per_cloudlet``) so the market can actually absorb 10^4 providers;
the game is restricted to the placed players, exactly as the ``lcf``
selfish phase restricts its dynamics.
"""

import json
import time

import pytest

from benchmarks.conftest import bench_path, record_bench

from repro.core import market_game
from repro.game.best_response import sequential_entry
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from tests.oracles.best_response_reference import DYNAMICS

RESULTS_PATH = bench_path("BENCH_scale.json")

#: (network nodes, providers) tiers; the last is the CI regression tier.
TIERS = ((400, 4000), (700, 7000), (1000, 10000))
LARGE_TIER_NODES = TIERS[-1][0]

#: Allowed slowdown against the previously recorded providers/sec.
REGRESSION_SLACK = 0.9


def _record(section: str, payload: dict) -> None:
    record_bench("BENCH_scale.json", section, payload)


def _prior_batch_pps(section: str) -> float:
    if not RESULTS_PATH.exists():
        return 0.0
    data = json.loads(RESULTS_PATH.read_text())
    return float(data.get(section, {}).get("batch_pps", 0.0))


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _scale_instance(n_nodes: int, n_providers: int):
    """A large market plus a greedy start (one sequential entry on the
    compiled tables; a provider with no feasible cloudlet stays out)."""
    network = random_mec_network(
        n_nodes, rng=n_nodes, vms_per_cloudlet=(90, 180)
    )
    market = generate_market(network, n_providers, rng=n_nodes + 1)
    game_all = market_game(market)
    profile = {}
    sequential_entry(game_all, profile, game_all.players)
    game = market_game(market, players=list(profile))
    return game, profile


@pytest.mark.parametrize("n_nodes,n_providers", TIERS)
def test_bench_scale_tier(n_nodes, n_providers, emit):
    section = f"scale_{n_nodes}"
    prior_pps = _prior_batch_pps(section)
    game, start = _scale_instance(n_nodes, n_providers)
    placed = len(start)
    assert placed >= int(0.9 * n_providers), (
        f"fixture must absorb the tier: only {placed}/{n_providers} placed"
    )

    outcomes = {}
    timings = {}
    repeats = 3 if n_nodes < LARGE_TIER_NODES else 2
    for engine in ("incremental", "batch"):
        dynamics = DYNAMICS[engine]
        outcomes[engine] = dynamics(
            game, dict(start), record_moves=True
        )
        timings[engine] = _best_of(
            lambda d=dynamics: d(game, dict(start)),
            repeats=repeats,
        )

    incr, batch = outcomes["incremental"], outcomes["batch"]
    assert batch.profile == incr.profile
    assert batch.move_log == incr.move_log
    assert batch.potential_trace == incr.potential_trace
    assert batch.converged and incr.converged

    pps = {e: placed / timings[e] for e in timings}
    _record(
        section,
        {
            "n_nodes": n_nodes,
            "n_providers": n_providers,
            "placed": placed,
            "moves": incr.moves,
            "rounds": incr.rounds,
            "incremental_s": timings["incremental"],
            "batch_s": timings["batch"],
            "incremental_pps": pps["incremental"],
            "batch_pps": pps["batch"],
            "speedup": timings["incremental"] / timings["batch"],
        },
    )
    emit(
        f"[scale {n_nodes}n/{n_providers}p] incremental "
        f"{pps['incremental']:.0f} pps, batch {pps['batch']:.0f} pps "
        f"({timings['incremental'] / timings['batch']:.2f}x), "
        f"moves={incr.moves} rounds={incr.rounds}"
    )

    if n_nodes == LARGE_TIER_NODES:
        assert pps["batch"] >= pps["incremental"], (
            f"batch kernel regressed below the incremental engine on the "
            f"large tier: {pps['batch']:.0f} < {pps['incremental']:.0f} "
            f"providers/sec"
        )
        if prior_pps:
            assert pps["batch"] >= REGRESSION_SLACK * prior_pps, (
                f"batch providers/sec regressed more than 10% against the "
                f"recorded baseline: {pps['batch']:.0f} < "
                f"{REGRESSION_SLACK:.2f} * {prior_pps:.0f}"
            )
