"""The repository benchmark: two workloads, every metric with its unit.

Run from the repository root::

    python3 perfbench/run.py --workload shard_settle --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload with tracing off and reports the end-to-end
metrics. ``--trace 1`` runs it once with the per-layer wrappers of
:mod:`tracing` installed and reports the per-layer metrics.
Every operation's output is checked. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run's metadata. Problems the
checks find go to standard error. README.md describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

#: ``run_seconds`` of BENCHMARK.json; ``--seconds`` scales every operation
#: count by ``seconds / NOMINAL_SECONDS``.
NOMINAL_SECONDS = 30
#: Timed passes per untraced run, each on a fresh set-up (see :func:`measure`).
PASSES = 5
#: Times the imports of the program and of the benchmark in a fresh
#: interpreter, the import part of one set-up.
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import workloads; "
    "print(time.perf_counter() - start)"
)

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Outcome:
    """What the timed passes over a workload's operations produced."""

    attempted: int = 0
    #: Wall time of each completed operation, its best over the passes.
    durations: List[float] = field(default_factory=list)
    #: Each operation's result in the first pass.
    results: List[object] = field(default_factory=list)
    #: Construction time of each pass's set-up.
    setups: List[float] = field(default_factory=list)
    #: Import time of a fresh interpreter, one probe after each untraced pass.
    imports: List[float] = field(default_factory=list)
    #: Peak RSS once the first pass is over (see :func:`_peak_rss_mb`).
    peak_rss_mb: float = 0.0
    failed: int = 0
    total_cost: float = 0.0
    problems: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.durations)


def measure(name: str, scale, workdir: Path, passes: int, tracer=None) -> Outcome:
    """Set the workload up and run every operation in order, ``passes``
    times over, each pass on a fresh set-up. Each operation is timed on its
    own and checked outside its timed span: in the first pass against the
    workload's checks, in later passes against the first pass's result.

    An operation's duration is its best over the passes. The host's noise
    only ever slows an operation down and the passes lie seconds apart, so
    the best of them holds the least of that noise. An operation that
    raises fails, and so does every operation after it: the run cannot
    continue from a broken state.

    An untraced run also times the imports in a fresh interpreter after
    each pass, so that the probes lie as far apart as the passes. They run
    after the first pass's peak RSS is read, so that their memory stays out
    of ``peak_rss_mb``.
    """
    import workloads

    out = Outcome()
    best: List[float] = []
    failed = set()
    clock = time.perf_counter
    for rep in range(passes):
        start = clock()
        wl = workloads.prepare(name, scale, workdir)
        out.setups.append(clock() - start)
        if rep == 0:
            out.attempted = done = wl.n_ops
            best = [float("inf")] * done
        if tracer is not None:
            tracer.install()
        try:
            for i in range(done):
                if tracer is not None:
                    tracer.on = True
                start = clock()
                try:
                    result = wl.op(i)
                except Exception:  # report it, the run goes on to its checks
                    failed.update(range(i, out.attempted))
                    out.problems.append(
                        f"operation {i} raised:\n{traceback.format_exc()}"
                    )
                    done = i
                    break
                finally:
                    elapsed = clock() - start
                    if tracer is not None:
                        tracer.on = False
                best[i] = min(best[i], elapsed)
                if rep == 0:
                    out.results.append(result)
                    problems = wl.check(i, result)
                    out.total_cost += wl.cost(result)
                else:
                    problems = wl.check_repeat(i, out.results[i], result)
                if problems:
                    failed.add(i)
                    out.problems.extend(problems)
        finally:
            if tracer is not None:
                tracer.uninstall()
            wl.close()
        if rep == 0:
            out.peak_rss_mb = _peak_rss_mb()
        if tracer is None:
            out.imports.append(import_seconds())
        # Free this pass's market before the next set-up builds another.
        wl = result = None
        gc.collect()
    out.durations = best[:done]
    out.failed = len(failed)
    return out


def _run_checks(name: str, scale, workdir: Path, outcome: Outcome) -> List[str]:
    """Run-level output checks: the recorded total cost, and for the
    sharded workloads the serial settle's bills."""
    import workloads

    problems = []
    recorded = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    expected = recorded.get(name, {}).get(str(outcome.attempted))
    if expected is not None and expected != outcome.total_cost:
        problems.append(f"total_cost {outcome.total_cost!r} != recorded {expected!r}")
    if name in workloads.SHARDED:
        serial = workloads.serial_reference(
            scale, outcome.attempted, workdir.parent / "cache"
        )
        problems += workloads.compare_bills(outcome.results, serial)
    return problems


def _record(outcome: Outcome, run_problems: List[str], metrics: Metrics) -> dict:
    """The run's result; each run-level problem counts as one failed
    operation."""
    problems = outcome.problems + run_problems
    return {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": min(outcome.attempted, outcome.failed + len(run_problems)),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "problems": problems,
    }


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped
    child (pool worker). Read after the first pass: a later
    pass forks its workers from a process whose heap the first pass grew."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _slowest_quarter(durations: List[float]) -> float:
    """Mean of the slowest quarter of the durations (at least one)."""
    slowest = sorted(durations)[-max(1, len(durations) // 4):]
    return statistics.fmean(slowest)


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program and the
    benchmark's workloads."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(HERE), str(SRC)))),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def plain_run(name: str, scale, workdir: Path) -> dict:
    """End-to-end metrics of one untraced run.

    The set-up is the import of the program in a fresh interpreter plus
    the workload's construction, both timed once per pass (see
    :func:`measure`). ``setup_s`` is the sum of the two best times, for the
    reason :func:`measure` gives.
    """
    outcome = measure(name, scale, workdir, PASSES)
    problems = _run_checks(name, scale, workdir, outcome)
    durations = outcome.durations or [0.0]
    metrics: Metrics = {
        "setup_s": (min(outcome.imports) + min(outcome.setups), "s"),
        "wall_s": (outcome.wall_s, "s"),
        "op_ms_p50": (1e3 * statistics.median(durations), "ms"),
        "op_ms_slowest_quarter": (1e3 * _slowest_quarter(durations), "ms"),
        "total_cost": (outcome.total_cost, "usd"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }
    return _record(outcome, problems, metrics)


def trace_run(name: str, scale, workdir: Path) -> dict:
    """Per-layer metrics of one traced pass."""
    import workloads
    from tracing import EXPECTED_LAYERS, Tracer, wrapper_cost_s

    tracer = Tracer()
    traced = measure(name, scale, workdir, 1, tracer)
    problems = _run_checks(name, scale, workdir, traced)
    problems += [
        f"layer {layer} recorded no calls on {name}"
        for layer in EXPECTED_LAYERS[name]
        if not tracer.calls.get(layer)
    ]

    metrics: Metrics = tracer.metrics()
    counters = (
        workloads.sim_counters(traced.results) if name in workloads.SHARDED else {}
    )
    for key in workloads.SIM_COUNTERS:
        metrics[key] = (counters.get(key, 0), "count")
    wrapped_s = wrapper_cost_s() * sum(tracer.calls.values())
    metrics["trace.overhead_frac"] = (wrapped_s / traced.wall_s, "ratio")
    metrics["trace.unattributed_s"] = (traced.wall_s - tracer.attributed_s, "s")
    return _record(traced, problems, metrics)


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def _metadata(args: argparse.Namespace, record: dict) -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": record["attempted"],
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload, check it, print its metrics."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing: {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    # One thread per process: the CPU budget is the main process and the pool
    # workers, not BLAS thread pools.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    # Spill files, journals and the cached serial references stay
    # inside the checkout.
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = None
    try:
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; "
                  f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        scale = workloads.scaled(args.seconds / NOMINAL_SECONDS)
        run = trace_run if args.trace else plain_run
        record = run(args.workload, scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    meta = _metadata(args, record)
    problems = record.pop("problems")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
