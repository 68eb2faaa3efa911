"""Experiment drivers regenerating every evaluation figure of the paper.

Each ``fig*`` function in :mod:`repro.experiments.figures` reproduces one
figure's data series; :mod:`repro.experiments.settings` pins the Section
IV.A parameters (with a ``quick`` preset for CI/benchmarks);
:mod:`repro.experiments.report` renders the series as the tables the
benchmark harness prints.
"""

from repro.experiments.settings import ExperimentConfig, PAPER, QUICK
from repro.experiments.harness import (
    AlgorithmMetrics,
    AssignmentRecord,
    SweepResult,
    evaluate_algorithms,
    legacy_point_seed,
    sweep,
)
from repro.experiments.parallel import (
    ParallelSweepRunner,
    map_tasks,
    resolve_workers,
    sweep_task_seed,
)
from repro.runtime import (
    CheckpointJournal,
    RetryPolicy,
    TaskFailure,
)
from repro.experiments.figures import (
    fig2_network_size,
    fig3_selfish_fraction,
    fig5_testbed,
    fig6_testbed_parameters,
    fig7_max_demands,
    ablation_selection_strategies,
    ablation_congestion_models,
    ablation_gap_solvers,
    ablation_topologies,
    poa_study,
)
from repro.experiments.convergence import ConvergencePoint, convergence_study
from repro.experiments.report import render_sweep, series_of, sweep_to_csv
from repro.experiments.stats import mean_ci, paired_comparison, summarize

__all__ = [
    "ExperimentConfig",
    "PAPER",
    "QUICK",
    "AlgorithmMetrics",
    "AssignmentRecord",
    "CheckpointJournal",
    "ParallelSweepRunner",
    "RetryPolicy",
    "SweepResult",
    "TaskFailure",
    "evaluate_algorithms",
    "legacy_point_seed",
    "map_tasks",
    "resolve_workers",
    "sweep",
    "sweep_task_seed",
    "fig2_network_size",
    "fig3_selfish_fraction",
    "fig5_testbed",
    "fig6_testbed_parameters",
    "fig7_max_demands",
    "ablation_selection_strategies",
    "ablation_congestion_models",
    "ablation_gap_solvers",
    "ablation_topologies",
    "poa_study",
    "render_sweep",
    "series_of",
    "sweep_to_csv",
    "mean_ci",
    "paired_comparison",
    "summarize",
    "ConvergencePoint",
    "convergence_study",
]
