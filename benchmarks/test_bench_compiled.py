"""Compiled-representation benchmarks (writes ``BENCH_compiled.json``).

Times the array-backed :class:`~repro.market.compiled.CompiledMarket` paths
against the object-graph oracle pipeline (``use_object_graph()`` from
``tests/oracles/object_graph_reference.py``: per-pair cost-model queries,
scalar GAP build, scalar LP assembly, scalar greedy rounds, per-game table
recompilation) on the same markets:

* **Appro per call** — one Algorithm 1 run on a warmed market, for both GAP
  solvers;
* **LCF xi-sweep** — the Fig. 3 shape: every xi evaluated on a common
  per-repetition market, serially (``workers=1`` on both sides, so the
  speedup is pure representation, not parallelism).

Correctness is asserted unconditionally: placements, rejection sets and
social costs must be identical before any timing is trusted. The wall-clock
gates apply where the representation actually is the hot path (the greedy
solver); with ``shmoys_tardos`` both representations feed the identical LP
to the same HiGHS C++ solve, which bounds the achievable ratio — those
timings are recorded but gated only loosely.

Each test folds its timings into ``benchmarks/BENCH_compiled.json`` so the
perf trajectory is recorded from this PR onward (partial ``-k`` selections
merge instead of clobbering).
"""

import contextlib
import time

from repro.core.appro import appro
from repro.core.lcf import lcf
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network

from benchmarks.conftest import bench_path, record_bench
from tests.oracles.object_graph_reference import use_object_graph

RESULTS_PATH = bench_path("BENCH_compiled.json")

N_NODES = 150
N_PROVIDERS = 60
XI_VALUES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
REPETITIONS = 2

#: How each representation runs: the library as is, or on the oracles.
PIPELINES = {"compiled": contextlib.nullcontext, "object": use_object_graph}


def _record(section: str, payload: dict) -> None:
    record_bench("BENCH_compiled.json", section, payload)


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _appro(representation: str, market, gap_solver: str):
    with PIPELINES[representation]():
        return appro(market, gap_solver=gap_solver)


def _make_market(seed: int):
    network = random_mec_network(N_NODES, rng=seed)
    return generate_market(network, n_providers=N_PROVIDERS, rng=seed + 1)


def test_bench_appro_per_call(emit):
    """One Appro run per representation on a warmed market: identical
    assignments; the greedy solver (no C++ LP in the loop) must be >= 2x."""
    market = _make_market(1)
    payload = {"n_nodes": N_NODES, "n_providers": N_PROVIDERS}
    speedups = {}
    for solver in ("greedy", "shmoys_tardos"):
        compiled = _appro("compiled", market, solver)
        obj = _appro("object", market, solver)
        assert compiled.placement == obj.placement
        assert compiled.rejected == obj.rejected
        assert compiled.social_cost == obj.social_cost

        t_c = _best_of(lambda s=solver: _appro("compiled", market, s))
        t_o = _best_of(lambda s=solver: _appro("object", market, s))
        speedups[solver] = t_o / t_c
        payload[solver] = {
            "object_s": t_o,
            "compiled_s": t_c,
            "speedup": speedups[solver],
        }
        emit(
            f"[appro/{solver}] n={N_PROVIDERS}: object {t_o*1e3:.1f} ms, "
            f"compiled {t_c*1e3:.1f} ms -> {speedups[solver]:.2f}x"
        )
    _record("appro", payload)
    assert speedups["greedy"] >= 2.0
    # Both representations hand the identical LP to HiGHS, whose C++ solve
    # dominates this solver — only the Python share can shrink.
    assert speedups["shmoys_tardos"] >= 1.2


def _xi_sweep(representation: str, gap_solver: str) -> float:
    """The Fig. 3 sweep shape: per repetition one market, every xi evaluated
    on it (serial; both representations run the identical schedule).
    Returns the summed social cost as the correctness fingerprint."""
    total = 0.0
    for rep in range(REPETITIONS):
        market = _make_market(100 + rep)
        if representation == "compiled":
            market.compile()
        for xi in XI_VALUES:
            with PIPELINES[representation]():
                result = lcf(market, xi=xi, gap_solver=gap_solver)
            total += result.assignment.social_cost
    return total


def test_bench_lcf_xi_sweep(emit):
    """Object vs compiled xi-sweep, workers unchanged (serial on both
    sides): identical social costs; >= 2x with the greedy solver."""
    payload = {
        "n_nodes": N_NODES,
        "n_providers": N_PROVIDERS,
        "xi_values": list(XI_VALUES),
        "repetitions": REPETITIONS,
        "workers": 1,
    }
    speedups = {}
    for solver in ("greedy", "shmoys_tardos"):
        fingerprint_c = _xi_sweep("compiled", solver)
        fingerprint_o = _xi_sweep("object", solver)
        assert fingerprint_c == fingerprint_o

        t_c = _best_of(lambda s=solver: _xi_sweep("compiled", s), repeats=2)
        t_o = _best_of(lambda s=solver: _xi_sweep("object", s), repeats=2)
        speedups[solver] = t_o / t_c
        payload[solver] = {
            "object_s": t_o,
            "compiled_s": t_c,
            "speedup": speedups[solver],
        }
        emit(
            f"[lcf-sweep/{solver}] {len(XI_VALUES)} xi x {REPETITIONS} reps: "
            f"object {t_o:.2f} s, compiled {t_c:.2f} s -> {speedups[solver]:.2f}x"
        )
    _record("lcf_sweep", payload)
    assert speedups["greedy"] >= 2.0
    assert speedups["shmoys_tardos"] >= 1.2
