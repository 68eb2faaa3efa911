"""The sweep runner shared by every figure driver.

A figure is a *sweep*: for each x-axis value, build ``repetitions``
independent (network, market) environments, run every algorithm on each, and
average the four metrics the paper plots — social cost, selfish-provider
cost, coordinated-provider cost, and running time.

Sweeps can fan their ``(x-value, repetition)`` grid out over a process pool
(see :mod:`repro.experiments.parallel`); every aggregate goes through the
same per-task :class:`AssignmentRecord` extraction in both modes, so serial
and parallel runs of the same seeded sweep produce bit-identical metrics
(wall-clock ``runtime_s`` aside).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import CachingAssignment
from repro.core.baselines import jo_offload_cache, offload_cache
from repro.core.lcf import lcf
from repro.exceptions import ReproError
from repro.market.market import ServiceMarket

#: An algorithm entry: name -> callable(market) -> CachingAssignment.
AlgorithmTable = Mapping[str, Callable[[ServiceMarket], CachingAssignment]]


@dataclass(frozen=True)
class AssignmentRecord:
    """The slim, picklable summary of one algorithm run on one market.

    Worker processes ship these back instead of full
    :class:`CachingAssignment` objects (which drag the whole market and
    network graph across the process boundary).
    """

    social_cost: float
    coordinated_cost: float
    selfish_cost: float
    runtime_s: float
    rejected: int

    @classmethod
    def from_assignment(cls, a: CachingAssignment) -> "AssignmentRecord":
        return cls(
            social_cost=float(a.social_cost),
            coordinated_cost=float(a.coordinated_cost),
            selfish_cost=float(a.selfish_cost),
            runtime_s=float(a.runtime_s),
            rejected=len(a.rejected),
        )


@dataclass
class AlgorithmMetrics:
    """Averaged metrics of one algorithm at one sweep point."""

    social_cost: float
    coordinated_cost: float
    selfish_cost: float
    runtime_s: float
    rejected: float
    samples: int

    @classmethod
    def from_assignments(cls, assignments: Sequence[CachingAssignment]) -> "AlgorithmMetrics":
        if not assignments:
            raise ReproError("no assignments to aggregate")
        return cls.from_records([AssignmentRecord.from_assignment(a) for a in assignments])

    @classmethod
    def from_records(cls, records: Sequence[AssignmentRecord]) -> "AlgorithmMetrics":
        if not records:
            raise ReproError("no assignments to aggregate")
        return cls(
            social_cost=float(np.mean([r.social_cost for r in records])),
            coordinated_cost=float(np.mean([r.coordinated_cost for r in records])),
            selfish_cost=float(np.mean([r.selfish_cost for r in records])),
            runtime_s=float(np.mean([r.runtime_s for r in records])),
            rejected=float(np.mean([r.rejected for r in records])),
            samples=len(records),
        )


@dataclass
class SweepResult:
    """All metrics of one figure: ``points[x][algorithm] -> metrics``."""

    name: str
    x_label: str
    x_values: List[object]
    points: List[Dict[str, AlgorithmMetrics]]
    #: Free-form extras figure drivers attach (bounds, flow metrics, ...).
    extra: Dict[str, object] = field(default_factory=dict)
    #: Cells that exhausted their retry budget (see
    #: :class:`repro.runtime.TaskFailure`); their records
    #: are excluded from ``points`` but the sweep still completed.
    failures: List[object] = field(default_factory=list)

    @property
    def algorithms(self) -> List[str]:
        names: List[str] = []
        for point in self.points:
            for alg in point:
                if alg not in names:
                    names.append(alg)
        return names

    def series(self, algorithm: str, metric: str = "social_cost") -> List[float]:
        """One plotted line: ``metric`` of ``algorithm`` across x values."""
        return [getattr(point[algorithm], metric) for point in self.points]


def _run_lcf(
    one_minus_xi: float, allow_remote: bool, market: ServiceMarket
) -> CachingAssignment:
    return lcf(market, xi=1.0 - one_minus_xi, allow_remote=allow_remote).assignment


def default_algorithms(
    one_minus_xi: float, allow_remote: bool, _unused: object = None
) -> AlgorithmTable:
    """The three algorithms of every paper figure.

    LCF runs first at each point so its coordinated/selfish designation is
    in place when the baselines' cost splits are read (the paper plots the
    same provider partition for all algorithms).

    Every entry is a picklable callable (module-level function or
    ``functools.partial`` thereof), so the table can cross a process-pool
    boundary for parallel sweeps.

    ``_unused`` is ignored: ``perfbench/workloads.py`` still passes
    ``config.engine`` third, from when LCF took an engine name. Drop the
    parameter with that call.
    """
    return {
        "LCF": partial(_run_lcf, one_minus_xi, allow_remote),
        "JoOffloadCache": jo_offload_cache,
        "OffloadCache": offload_cache,
    }


def evaluate_algorithms(
    market: ServiceMarket,
    algorithms: AlgorithmTable,
) -> Dict[str, CachingAssignment]:
    """Run every algorithm on one market (in table order)."""
    return {name: run(market) for name, run in algorithms.items()}


def legacy_point_seed(x_index: int, rep: int) -> int:
    """The seed scheme of the original serial harness.

    Paired seeds: repetition ``k`` draws the same environment at every
    sweep point, so curves are compared on common random numbers and
    monotone trends are not drowned by cross-point sampling noise. The
    figures whose network does not vary with x build one network per
    repetition per sweep and share it across the points.
    """
    return 7_919 * rep + 13


def sweep(
    name: str,
    x_label: str,
    x_values: Sequence[object],
    make_market: Callable[[object, int], ServiceMarket],
    make_algorithms: Callable[[object], AlgorithmTable],
    repetitions: int,
    workers: Optional[int] = None,
    seed_fn: Optional[Callable[[int, int], int]] = None,
    precompile: bool = False,
    retry: Optional[object] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
) -> SweepResult:
    """Run a full sweep.

    Parameters
    ----------
    make_market:
        ``(x_value, seed) -> ServiceMarket`` builder; the harness supplies a
        distinct seed per (point, repetition). Must be picklable (a
        module-level function or ``functools.partial``) when ``workers``
        enables the process pool.
    make_algorithms:
        ``x_value -> AlgorithmTable``; lets drivers bind x-dependent
        parameters (e.g. xi in Fig. 3). Same picklability rule.
    workers:
        ``None`` or ``1`` runs in-process (the default); ``N > 1`` fans the
        ``(x, repetition)`` grid over a ``ProcessPoolExecutor`` with ``N``
        workers; ``0`` means ``os.cpu_count()``. Results are bit-identical
        to the serial run because seeding is per-task, not per-loop.
    seed_fn:
        ``(x_index, rep) -> seed`` override; defaults to
        :func:`legacy_point_seed` (common random numbers across points).
    precompile:
        Build and compile every task's market up front in the parent
        process; workers then receive the array-backed
        :class:`~repro.market.compiled.CompiledMarket` blob with the task
        instead of re-running ``make_market``. Metrics are identical.
    retry:
        A :class:`repro.runtime.RetryPolicy` (attempts,
        backoff, per-task timeout); defaults to three attempts.
    checkpoint:
        Path of a JSONL checkpoint journal; completed cells are durably
        appended as they finish.
    resume:
        With ``checkpoint``, replay already-journaled cells from disk and
        run only the missing ones — bit-identical to the uninterrupted
        sweep. ``False`` (default) truncates any existing journal.
    """
    from repro.experiments.parallel import ParallelSweepRunner

    runner = ParallelSweepRunner(workers=workers)
    return runner.run(
        name=name,
        x_label=x_label,
        x_values=x_values,
        make_market=make_market,
        make_algorithms=make_algorithms,
        repetitions=repetitions,
        seed_fn=seed_fn if seed_fn is not None else legacy_point_seed,
        precompile=precompile,
        retry=retry,  # type: ignore[arg-type]
        checkpoint=checkpoint,
        resume=resume,
    )


__all__ = [
    "AlgorithmTable",
    "AlgorithmMetrics",
    "AssignmentRecord",
    "SweepResult",
    "default_algorithms",
    "evaluate_algorithms",
    "legacy_point_seed",
    "sweep",
]
