"""Engine and parallel-harness benchmarks (writes ``BENCH_engine.json``).

Times the two levers that speed figure regeneration up:

* the library's **batch best-response kernel** (compiled cost tables,
  all players' moves priced per round) against the naive and incremental
  reference engines of ``tests/oracles/best_response_reference.py``, on a
  best-response-heavy game where the dynamics are the hot path;
* the **runtime-dispatched sweep harness** over a workers x
  instance-size scaling grid of the same seeded Fig. 2-style sweep
  (serial reference plus 2- and 4-worker :class:`repro.runtime.Runtime`
  pools on a small and a large tier).

Correctness is asserted unconditionally: all three engines must produce
the identical equilibrium, and every point of the sweep scaling curve must
be bit-identical to the serial reference. Wall-clock assertions are
gated on what the host can honestly deliver — the engine speedup is
single-core and always asserted; the 4-worker break-even bar
additionally needs >= 4 CPUs.

Each test folds its timings into ``benchmarks/BENCH_engine.json`` so the
numbers survive the run (and partial ``-k`` selections merge instead of
clobbering).
"""

import os
import time

from repro.core import market_game
from repro.experiments.figures import fig2_network_size
from repro.game.best_response import greedy_feasible_profile
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from tests.oracles.best_response_reference import DYNAMICS

from benchmarks.conftest import bench_path, record_bench

RESULTS_PATH = bench_path("BENCH_engine.json")

#: Comparable (non-wall-clock) fields of AlgorithmMetrics.
_METRIC_FIELDS = ("social_cost", "coordinated_cost", "selfish_cost", "rejected", "samples")


def _record(section: str, payload: dict) -> None:
    record_bench("BENCH_engine.json", section, payload)


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_engine_vs_naive(emit):
    """The library's kernel vs the naive and incremental reference engines
    on a BR-heavy market: identical equilibria, >= 2x faster than naive."""
    network = random_mec_network(150, rng=1)
    market = generate_market(network, n_providers=120, rng=2)
    game = market_game(market)
    start = greedy_feasible_profile(game)

    outcomes = {}
    timings = {}
    for engine in ("naive", "incremental", "batch"):
        dynamics = DYNAMICS[engine]
        outcomes[engine] = dynamics(game, dict(start))
        timings[engine] = _best_of(
            lambda d=dynamics: d(game, dict(start)), repeats=5
        )

    naive = outcomes["naive"]
    for engine in ("incremental", "batch"):
        result = outcomes[engine]
        assert result.profile == naive.profile
        assert result.moves == naive.moves
        assert result.rounds == naive.rounds
        assert result.converged and naive.converged

    speedup = timings["naive"] / timings["batch"]
    _record(
        "engine",
        {
            "naive_s": timings["naive"],
            "incremental_s": timings["incremental"],
            "batch_s": timings["batch"],
            "speedup": speedup,
            "moves": naive.moves,
        },
    )
    emit(
        f"[engine] best-response 120 players: naive {timings['naive']*1e3:.1f} ms, "
        f"incremental {timings['incremental']*1e3:.1f} ms, "
        f"batch {timings['batch']*1e3:.1f} ms -> {speedup:.1f}x vs naive"
    )
    assert speedup >= 2.0


#: The workers x instance-size scaling grid.  Every cell reruns the same
#: seeded Fig. 2-style sweep through :class:`repro.runtime.Runtime` (the
#: one dispatch substrate the sweep harness now sits on), so the curve
#: measures exactly what a figure regeneration pays at each worker count.
_WORKER_COUNTS = (1, 2, 4)
_SIZE_TIERS = (
    ("small", (50, 100)),
    ("large", (150, 250)),
)


def test_bench_parallel_sweep(config, emit):
    """Workers x instance-size scaling curve of the runtime-dispatched
    sweep: bit-identical metrics at every point of the curve; with >= 4
    real CPUs the 4-worker run must at least break even against serial
    (the publish-once bar — the old inline-pickling path sat at 0.70x)."""
    curve = []
    for tier_name, sizes in _SIZE_TIERS:
        tier_cfg = config.with_(network_sizes=sizes)
        reference = None
        serial_s = None
        for workers in _WORKER_COUNTS:
            run_cfg = tier_cfg.with_(workers=workers)
            t0 = time.perf_counter()
            result = fig2_network_size(run_cfg)
            elapsed = time.perf_counter() - t0

            if reference is None:
                reference = result
                serial_s = elapsed
            else:
                assert result.x_values == reference.x_values
                for point_r, point_w in zip(reference.points, result.points):
                    assert set(point_r) == set(point_w)
                    for alg in point_r:
                        for field in _METRIC_FIELDS:
                            assert getattr(point_w[alg], field) == getattr(
                                point_r[alg], field
                            ), (
                                f"{alg}.{field} differs between serial and "
                                f"{workers}-worker runs on tier {tier_name}"
                            )
            curve.append(
                {
                    "tier": tier_name,
                    "network_sizes": list(sizes),
                    "grid_tasks": len(sizes) * config.repetitions,
                    "workers": workers,
                    "seconds": elapsed,
                    "speedup_vs_serial": serial_s / elapsed,
                }
            )
            emit(
                f"[sweep] fig2 {tier_name} tier ({'x'.join(map(str, sizes))}), "
                f"{workers} worker(s): {elapsed:.2f} s "
                f"({serial_s / elapsed:.2f}x vs serial, cpus={os.cpu_count()})"
            )

    best = max(
        (c for c in curve if c["workers"] > 1),
        key=lambda c: c["speedup_vs_serial"],
    )
    _record(
        "parallel_sweep",
        {
            "curve": curve,
            "best_speedup": best["speedup_vs_serial"],
            "best_workers": best["workers"],
            "best_tier": best["tier"],
        },
    )
    if (os.cpu_count() or 1) >= 4:
        four_large = next(
            c for c in curve
            if c["workers"] == 4 and c["tier"] == "large"
        )
        assert four_large["speedup_vs_serial"] >= 1.0, (
            f"4-worker sweep slower than serial on a >=4-CPU host: "
            f"{four_large['speedup_vs_serial']:.2f}x"
        )
