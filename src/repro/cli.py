"""Command-line interface: regenerate any paper figure from a shell.

Usage::

    python -m repro fig2 --scale quick
    python -m repro fig3 --scale paper --metrics social_cost runtime_s
    python -m repro fig2 --workers 4
    python -m repro fig6 --csv out/
    python -m repro poa
    python -m repro outages --mttf 4 --mttr 2 --policy hysteresis
    python -m repro lint --format sarif --output reprolint.sarif
    python -m repro all --scale quick

``--scale`` picks the experiment configuration: ``quick`` (seconds),
``bench`` (the benchmark harness scale, ~a minute) or ``paper`` (the full
Section IV.A scale). ``--workers N`` fans each sweep's (x, repetition)
grid over ``N`` worker processes (``0`` = one per CPU) with bit-identical
results.
``--csv DIR`` additionally writes each figure's rows as CSV files for
external plotting.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro import __version__
from repro.exceptions import ConfigurationError
from repro.experiments.figures import (
    ablation_congestion_models,
    ablation_gap_solvers,
    ablation_selection_strategies,
    fig2_network_size,
    fig3_selfish_fraction,
    fig5_testbed,
    fig6_testbed_parameters,
    fig7_max_demands,
    poa_study,
)
from repro.experiments.harness import SweepResult
from repro.experiments.report import METRIC_LABELS, render_sweep, sweep_to_csv
from repro.experiments.settings import PAPER, QUICK, ExperimentConfig
from repro.utils.ascii_plot import line_chart
from repro.utils.validation import CAPACITY_EPS

#: The benchmark-harness scale (mirrors benchmarks/conftest.py).
BENCH = ExperimentConfig(
    network_sizes=(50, 100, 150, 200, 250),
    default_size=150,
    n_providers=60,
    testbed_providers=40,
    xi_sweep=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    repetitions=3,
    provider_sweep=(20, 40, 60, 80),
)

_SCALES = {"quick": QUICK, "bench": BENCH, "paper": PAPER}
_DEFAULT_METRICS = ("social_cost", "runtime_s")


def _emit_sweeps(
    sweeps: Sequence[SweepResult],
    metrics: Sequence[str],
    csv_dir: Optional[Path],
    chart: bool = False,
) -> None:
    for result in sweeps:
        print(render_sweep(result, metrics=metrics))
        print()
        if chart:
            series = {
                alg: result.series(alg, "social_cost")
                for alg in result.algorithms
            }
            print(line_chart(
                series,
                x_values=result.x_values,
                title=f"[{result.name}] social cost ($)",
                height=10,
                width=max(40, 4 * len(result.x_values)),
            ))
            print()
        if csv_dir is not None:
            path = csv_dir / f"{result.name}.csv"
            path.write_text(sweep_to_csv(result))
            print(f"wrote {path}")


def _run_figure(name: str, config: ExperimentConfig) -> List[SweepResult]:
    if name == "fig2":
        return [fig2_network_size(config)]
    if name == "fig3":
        return [fig3_selfish_fraction(config)]
    if name == "fig5":
        return [fig5_testbed(config)]
    if name == "fig6":
        return list(fig6_testbed_parameters(config).values())
    if name == "fig7":
        return list(fig7_max_demands(config).values())
    if name == "ablations":
        return [
            ablation_selection_strategies(config),
            ablation_congestion_models(config),
            ablation_gap_solvers(config),
        ]
    raise ValueError(f"unknown figure {name!r}")


_FIGURES = ("fig2", "fig3", "fig5", "fig6", "fig7", "ablations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the ICDCS'20 service-caching evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _FIGURES + ("all",):
        p = sub.add_parser(name, help=f"run {name}")
        p.add_argument(
            "--scale", choices=sorted(_SCALES), default="quick",
            help="experiment scale (default: quick)",
        )
        p.add_argument(
            "--metrics", nargs="+", choices=sorted(METRIC_LABELS),
            default=list(_DEFAULT_METRICS),
            help="metrics to tabulate",
        )
        p.add_argument(
            "--csv", type=Path, default=None, metavar="DIR",
            help="also write each sweep as CSV into DIR",
        )
        p.add_argument(
            "--chart", action="store_true",
            help="also draw an ASCII chart of the social-cost series",
        )
        p.add_argument(
            "--workers", type=int, default=0, metavar="N",
            help="sweep worker processes: 0 = one per CPU (default), "
            "1 = serial, N = that many (results identical at any value)",
        )

    poa = sub.add_parser("poa", help="empirical bounds study (A1)")
    poa.add_argument("--providers", type=int, default=8)
    poa.add_argument("--repetitions", type=int, default=5)
    poa.add_argument("--seed", type=int, default=11)

    out = sub.add_parser(
        "outages",
        help="outage-laden dynamic market run (availability ledger)",
    )
    out.add_argument("--nodes", type=int, default=100, metavar="N",
                     help="network size (default 100)")
    out.add_argument("--epochs", type=int, default=20,
                     help="epochs to simulate (default 20)")
    out.add_argument("--mttf", type=float, default=5.0,
                     help="mean epochs between cloudlet failures (default 5)")
    out.add_argument("--mttr", type=float, default=2.0,
                     help="mean epochs to repair a cloudlet (default 2)")
    out.add_argument("--policy", choices=("failover", "replan", "hysteresis"),
                     default="failover",
                     help="recovery policy for displaced providers")
    out.add_argument("--correlated", action="store_true",
                     help="regional outages (neighbourhoods fail together)")
    out.add_argument("--seed", type=int, default=1)

    shard = sub.add_parser(
        "shard",
        help="region-sharded equilibrium demo (partitioned dynamics)",
    )
    shard.add_argument("--nodes", type=int, default=200, metavar="N",
                       help="network size (default 200)")
    shard.add_argument("--providers", type=int, default=300,
                       help="provider population (default 300)")
    shard.add_argument("--shards", type=int, default=None, metavar="K",
                       help="shard count (default: one per region)")
    shard.add_argument("--epochs", type=int, default=5,
                       help="churn epochs to simulate (default 5)")
    shard.add_argument("--boundary-rounds", type=int, default=8,
                       help="interior/boundary reconciliation cap (default 8)")
    shard.add_argument("--workers", type=int, default=1,
                       help="shard worker processes (default 1 = serial)")
    shard.add_argument("--spool", metavar="DIR", default=None,
                       help="shared spool directory: settle shard interiors "
                       "on the `repro host` agents serving DIR instead of a "
                       "local pool (mutually exclusive with --workers)")
    shard.add_argument("--latency-budget", type=float, default=3.0,
                       metavar="MS",
                       help="per-provider latency budget in ms — what makes "
                       "most providers interior to one region (default 3.0)")
    shard.add_argument("--seed", type=int, default=3)

    host = sub.add_parser(
        "host",
        help="serve a shared spool directory as a RemoteTransport host agent",
    )
    host.add_argument("spool", metavar="DIR",
                      help="the shared spool directory to serve (created if "
                      "missing); every agent and the dispatching transport "
                      "must use the same path")
    host.add_argument("--host-id", default=None, metavar="ID",
                      help="stable agent identity (default: "
                      "h<nodename>-<pid>); restarting with the same id "
                      "requeues the previous incarnation's claimed tasks")
    host.add_argument("--lease-s", type=float, default=5.0, metavar="S",
                      help="heartbeat lease duration in seconds (default 5); "
                      "must exceed the longest legitimate task")
    host.add_argument("--poll-interval-s", type=float, default=0.05,
                      metavar="S",
                      help="spool scan cadence in seconds (default 0.05)")
    host.add_argument("--idle-exit-s", type=float, default=None, metavar="S",
                      help="exit after S seconds without work "
                      "(default: serve forever)")
    host.add_argument("--max-tasks", type=int, default=None, metavar="N",
                      help="exit after executing N tasks (default: unlimited)")
    host.add_argument("--slots", type=int, default=1, metavar="N",
                      help="advertised parallelism of this agent (default 1)")

    lint = sub.add_parser(
        "lint",
        help="run the reprolint static analyzer (R1-R10) over the tree",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    lint.add_argument("--select", metavar="RULES", default=None,
                      help="comma-separated rule ids (e.g. R8,R9)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text", dest="fmt",
                      help="output format (default: text)")
    lint.add_argument("--output", metavar="FILE", default=None,
                      help="write the report to FILE instead of stdout")
    return parser


def _run_lint(args) -> int:
    """Delegate to the reprolint CLI (which lives in ``tools/``, outside
    ``src``, so library code can never import analyzer internals)."""
    repo_root = Path(__file__).resolve().parent.parent.parent
    tools_dir = repo_root / "tools"
    if str(tools_dir) not in sys.path and (tools_dir / "reprolint").is_dir():
        sys.path.insert(0, str(tools_dir))
    try:
        from reprolint.cli import main as lint_main
    except ImportError as exc:  # pragma: no cover - broken checkout only
        print(f"error: reprolint is not importable ({exc})", file=sys.stderr)
        return 2
    argv: List[str] = list(args.paths)
    if args.select:
        argv += ["--select", args.select]
    argv += ["--format", args.fmt]
    if args.output:
        argv += ["--output", args.output]
    return lint_main(argv)


def _run_outages(args) -> int:
    from repro.dynamics import (
        CorrelatedOutageTrace,
        DynamicMarketSimulation,
        IndependentOutageTrace,
        PopulationProcess,
    )
    from repro.network.generators import random_mec_network

    network = random_mec_network(args.nodes, rng=args.seed)
    population = PopulationProcess(
        network, arrival_rate=5.0, mean_lifetime=8.0,
        rng=args.seed + 1, initial_population=40,
    )
    trace_cls = (
        CorrelatedOutageTrace if args.correlated else IndependentOutageTrace
    )
    trace = trace_cls(network, mttf=args.mttf, mttr=args.mttr, rng=args.seed + 2)
    sim = DynamicMarketSimulation(
        network, population, policy="incremental",
        outages=trace, recovery=args.policy,
    )
    summary = sim.run(args.epochs)
    print(f"epochs:                {len(summary.epochs)}")
    print(f"cloudlet downtime:     {summary.cloudlet_downtime} cloudlet-epochs")
    print(f"displaced instances:   {summary.total_displaced}")
    print(f"SLA violations:        {summary.total_sla_violations}")
    print(f"provider downtime:     {summary.provider_downtime} provider-epochs")
    print(f"mean time to recover:  {summary.mean_time_to_recover:.2f} epochs")
    print(f"replans triggered:     {summary.total_replans}")
    print(f"total cost:            {summary.total_cost:.1f}")
    return 0


def _run_shard(args) -> int:
    import time

    import numpy as np

    from repro.dynamics import DynamicMarketSimulation, PopulationProcess
    from repro.game.batch import batch_best_response
    from repro.game.partitioned import (
        game_from_compiled,
        partitioned_best_response,
    )
    from repro.market.shard import classify_providers, partition_market
    from repro.market.workload import generate_market
    from repro.network.generators import random_mec_network

    network = random_mec_network(args.nodes, rng=args.seed)
    market = generate_market(
        network, args.providers, rng=args.seed + 1,
        latency_budget_ms=args.latency_budget,
    )
    cm = market.compile()
    partition = partition_market(market, args.shards)
    classification = classify_providers(cm, partition)
    interior = sum(len(v) for v in classification.interior.values())
    print(f"partition:             {partition.n_shards} shards over "
          f"{len(partition.shard_of_cloudlet)} cloudlets")
    print(f"providers:             {interior} interior, "
          f"{len(classification.boundary)} boundary, "
          f"{len(classification.unreachable)} unreachable")

    # Greedy start: cheapest feasible cloudlet at posted occupancy.
    occ = np.zeros(cm.n_cloudlets, dtype=np.int64)
    loads = np.zeros_like(cm.capacity)
    start: Dict[int, int] = {}
    for pid in cm.provider_ids:
        row = cm.provider_index[pid]
        fits = np.isfinite(cm.fixed[row]) & np.all(
            loads + cm.demand[row] <= cm.capacity + CAPACITY_EPS, axis=1
        )
        if not fits.any():
            continue
        cost = cm.shared[
            np.arange(cm.n_cloudlets), np.minimum(occ + 1, len(cm.g) - 1)
        ] + cm.fixed[row]
        cost[~fits] = np.inf
        j = int(np.argmin(cost))
        start[pid] = cm.cloudlet_nodes[j]
        occ[j] += 1
        loads[j] += cm.demand[row]

    t0 = time.perf_counter()
    game = game_from_compiled(cm, players=sorted(start))
    g_profile, _, _, g_moves, _, _ = batch_best_response(
        game, start, max_rounds=1000, compiled=game.compile()
    )
    t_global = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = partitioned_best_response(
        market, start, partition=partition, classification=classification,
        boundary_rounds=args.boundary_rounds,
    )
    t_shard = time.perf_counter() - t0
    gap = abs(result.social_cost - cm.social_cost(g_profile)) / max(
        abs(cm.social_cost(g_profile)), 1e-12
    )
    print(f"global settle:         {g_moves} moves in {t_global*1e3:.1f} ms")
    print(f"sharded settle:        {result.moves} moves in {t_shard*1e3:.1f} ms "
          f"({result.rounds} reconciliation rounds)")
    print(f"certified equilibrium: {result.certified}")
    print(f"social-cost gap:       {gap:.2e} relative")

    population = PopulationProcess(
        network, arrival_rate=max(2.0, args.providers / 20),
        mean_lifetime=8.0, rng=args.seed + 2,
        initial_population=args.providers,
    )
    dispatch = (
        {"shard_spool": args.spool}
        if args.spool is not None
        else {"shard_workers": args.workers}
    )
    with DynamicMarketSimulation(
        network, population, policy="incremental",
        sharding="region", n_shards=args.shards,
        boundary_rounds=args.boundary_rounds,
        latency_budget_ms=args.latency_budget,
        **dispatch,
    ) as sim:
        summary = sim.run(args.epochs)
    certified = sum(
        1 for e in summary.epochs if e.equilibrium_certified
    )
    print(f"dynamic run:           {len(summary.epochs)} epochs, "
          f"{summary.total_settle_moves} settle moves, "
          f"{certified}/{len(summary.epochs)} epochs certified")
    print(f"total cost:            {summary.total_cost:.1f}")
    return 0


def _run_host(args) -> int:
    from repro.runtime import run_host_agent

    try:
        stats = run_host_agent(
            args.spool,
            host_id=args.host_id,
            lease_s=args.lease_s,
            poll_interval_s=args.poll_interval_s,
            idle_exit_s=args.idle_exit_s,
            max_tasks=args.max_tasks,
            slots=args.slots,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"host {stats.host_id}: executed {stats.executed} task(s) "
        f"({stats.failed} failed), requeued {stats.requeued_on_start} on "
        f"start, exit: {stats.exit_reason or 'stopped'}"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "poa":
        out = poa_study(
            n_providers=args.providers,
            repetitions=args.repetitions,
            seed=args.seed,
        )
        width = max(len(k) for k in out)
        for key, value in out.items():
            print(f"{key:<{width}}  {value:.4g}")
        return 0

    if args.command == "outages":
        return _run_outages(args)

    if args.command == "shard":
        try:
            return _run_shard(args)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "host":
        return _run_host(args)

    if args.command == "lint":
        return _run_lint(args)

    try:
        config = _SCALES[args.scale].with_(workers=args.workers)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.csv is not None:
        args.csv.mkdir(parents=True, exist_ok=True)

    figures = _FIGURES if args.command == "all" else (args.command,)
    for name in figures:
        sweeps = _run_figure(name, config)
        _emit_sweeps(sweeps, args.metrics, args.csv, chart=args.chart)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
