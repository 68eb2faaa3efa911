"""The benchmark's workloads: fixed inputs, timed operations, output checks.

Every workload is a closed loop in one main process: the next operation
starts only after the previous one returned. An operation is one
paper-figure sweep cell run by the figure's own task body (``paper_figs``)
or one ``DynamicMarketSimulation.step()`` epoch (``shard_settle``).
:func:`prepare` is the set-up — figure cells, or network, population,
simulation and worker pool; each operation is then timed on its own and
checked right after it returns, outside its timed span.

The sharded workload runs without outages on purpose: region sharding
with outages hits a known defect of the program (see README.md).
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple
from unittest import mock

import numpy as np

import repro
from repro.dynamics import DynamicMarketSimulation, EpochRecord, PopulationProcess
from repro.exceptions import CapacityError
from repro.experiments import figures
from repro.experiments.harness import (
    AssignmentRecord,
    default_algorithms,
    evaluate_algorithms,
    legacy_point_seed,
)
from repro.experiments.parallel import PointTask, run_point_task
from repro.experiments.settings import ExperimentConfig
from repro.market.market import ServiceMarket
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.runtime import CheckpointJournal, Runtime
from repro.testbed.emulator import Testbed
from repro.utils.validation import CAPACITY_EPS

WORKLOADS = ("paper_figs", "shard_settle")
SHARDED = ("shard_settle",)
SIM_COUNTERS = ("sim.epochs", "sim.replans", "sim.displaced", "sim.migrations")

#: The ``BENCH`` sweep configuration of ``benchmarks/conftest.py``.
BENCH_CONFIG = ExperimentConfig(
    network_sizes=(50, 100, 150, 200, 250),
    default_size=150,
    n_providers=60,
    testbed_providers=40,
    xi_sweep=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    repetitions=3,
    provider_sweep=(20, 40, 60, 80),
)

#: Relative tolerance of the cost-model oracle cross-checks (the compiled
#: and object evaluations fold the same terms, possibly in another order).
ORACLE_RTOL = 1e-9


@dataclass(frozen=True)
class Scale:
    """Sizes of one run: :data:`FULL` is the benchmark, the smoke test runs
    the same code at a seconds-scale size."""

    #: Two repetitions instead of ``BENCH``'s three, so that five passes
    #: fit the benchmark's time budget.
    paper: ExperimentConfig = BENCH_CONFIG.with_(repetitions=2)
    sim_nodes: int = 1000
    vms_per_cloudlet: Tuple[int, int] = (90, 180)
    arrival_rate: float = 100.0
    mean_lifetime: float = 30.0
    shard_epochs: int = 40
    #: Check an epoch's billed social cost against the cost-model oracle
    #: every this many epochs (and on the last one).
    oracle_every: int = 10


FULL = Scale()


def scaled(factor: float) -> Scale:
    """:data:`FULL` with every operation count scaled by ``factor``."""
    return replace(
        FULL,
        paper=FULL.paper.with_(
            repetitions=max(1, round(FULL.paper.repetitions * factor))
        ),
        shard_epochs=max(1, round(FULL.shard_epochs * factor)),
    )


def _oracle_social(market: ServiceMarket, placement: Dict[int, int], rejected) -> float:
    """Eq. (6) plus remote costs, evaluated on the cost-model object graph
    (the reference the compiled tables are kept bit-equal to)."""
    model = market.cost_model
    total = model.social_cost(market.providers_by_id(), placement)
    for pid in sorted(rejected):
        total += model.remote_cost(market.provider(pid))
    return total


def reap_children(timeout_s: float = 30.0) -> None:
    """Join every child process this one started (pool workers included);
    terminate stragglers."""
    deadline = time.monotonic() + timeout_s
    for proc in multiprocessing.active_children():
        proc.join(max(0.0, deadline - time.monotonic()))
        if proc.is_alive():
            proc.terminate()
            proc.join(5.0)


# --------------------------------------------------------------------- #
# paper_figs
# --------------------------------------------------------------------- #
#: The figures ``paper_figs`` runs, by name.
FIGURES: Tuple[Tuple[str, Callable[[ExperimentConfig], object]], ...] = (
    ("fig2", figures.fig2_network_size),
    ("fig3", figures.fig3_selfish_fraction),
    ("fig5", figures.fig5_testbed),
)


@dataclass
class Cell:
    """One sweep cell: the figure's own task and the task body that runs
    it (``run_point_task`` or ``_run_testbed_task``)."""

    fig: str
    body: Callable[[object], Dict[str, object]]
    task: object


def figure_cells(config: ExperimentConfig) -> List[Cell]:
    """Every cell of :data:`FIGURES` at ``config``, in sweep order.

    Each figure function is called with its sweep seam replaced: ``sweep``
    (Figs. 2-3) and ``map_tasks`` (Fig. 5) record the grid instead of
    running it. The cells therefore carry the figure's own market and
    algorithm builders and seeds; only the sweep loop and the aggregation
    are left out of what the benchmark runs.
    """
    grid: List[Tuple[Callable, object]] = []

    def record_sweep(*, x_values, make_market, make_algorithms, repetitions,
                     seed_fn=None, **_ignored):
        seed_of = seed_fn if seed_fn is not None else legacy_point_seed
        grid.extend(
            (run_point_task, PointTask(
                x_index=xi, rep=rep, x=x, seed=seed_of(xi, rep),
                make_market=make_market, make_algorithms=make_algorithms,
            ))
            for xi, x in enumerate(x_values)
            for rep in range(repetitions)
        )

    def record_map(fn, tasks, workers=None):
        grid.extend((fn, task) for task in tasks)
        return []

    cells: List[Cell] = []
    with mock.patch.object(figures, "sweep", record_sweep), \
            mock.patch.object(figures, "map_tasks", record_map):
        for fig, run_figure in FIGURES:
            run_figure(config)
            cells.extend(Cell(fig, body, task) for body, task in grid)
            grid.clear()
    return cells


def _records(result: Dict[str, object]) -> Dict[str, AssignmentRecord]:
    """Per-algorithm records of either task body's result (the testbed
    body ships ``(record, controller runtime, flow metrics)``)."""
    return {
        name: entry[0] if isinstance(entry, tuple) else entry
        for name, entry in result.items()
    }


def _outputs(result: Dict[str, object]) -> Dict[str, object]:
    """A cell's result without its run times."""
    return {
        name: (
            replace(record, runtime_s=0.0),
            result[name][2] if isinstance(result[name], tuple) else None,
        )
        for name, record in _records(result).items()
    }


def _rebuild(task: object) -> Tuple[ServiceMarket, Dict[str, Callable]]:
    """A cell's market and algorithm table, built again for the checks."""
    if isinstance(task, PointTask):
        return task.make_market(task.x, task.seed), task.make_algorithms(task.x)
    n_providers, params = task.market_params(task.x)
    network = Testbed(rng=task.seed).network
    market = generate_market(network, n_providers, params=params, rng=task.seed + 1)
    cfg = task.config
    one_minus_xi = (
        task.one_minus_xi_of(task.x) if task.one_minus_xi_of is not None
        else cfg.one_minus_xi
    )
    return market, default_algorithms(one_minus_xi, cfg.allow_remote, cfg.engine)


class PaperFigs:
    """Fig. 2, Fig. 3 and Fig. 5 cells at ``scale.paper``, one cell at a
    time, each through the figure code's own task body (see
    :func:`figure_cells`). Every run measures the paper's own evaluation,
    whatever the run seed."""

    def __init__(self, scale: Scale) -> None:
        self.cells = figure_cells(scale.paper)
        self.n_ops = len(self.cells)

    def op(self, i: int) -> Dict[str, object]:
        cell = self.cells[i]
        return cell.body(cell.task)

    def check(self, i: int, result: Dict[str, object]) -> List[str]:
        """Run every algorithm again on a freshly built copy of the cell's
        market: the records must match bit for bit (run times aside), the
        assignments must fit the capacities and LCF's social cost must
        equal the cost-model oracle."""
        task = self.cells[i].task
        where = f"{self.cells[i].fig} x={task.x} seed={task.seed}"
        records = _records(result)
        market, algorithms = _rebuild(task)
        problems = []
        for name, assignment in evaluate_algorithms(market, algorithms).items():
            record = records.get(name)
            if record is None or not math.isfinite(record.social_cost):
                problems.append(f"{where}: {name} billed {record}")
                continue
            again = replace(
                AssignmentRecord.from_assignment(assignment),
                runtime_s=record.runtime_s,
            )
            if again != record:
                problems.append(f"{where}: {name} {record} but a rerun gives {again}")
            try:
                assignment.check_capacities()
            except CapacityError as exc:
                problems.append(f"{where}: {name} infeasible: {exc}")
            if name == "LCF":
                oracle = _oracle_social(
                    market, dict(assignment.placement), assignment.rejected
                )
                if not math.isclose(oracle, record.social_cost, rel_tol=ORACLE_RTOL):
                    problems.append(
                        f"{where}: LCF social cost {record.social_cost!r} "
                        f"!= oracle {oracle!r}"
                    )
        for name, entry in result.items():
            if isinstance(entry, tuple) and not all(
                math.isfinite(v) for v in entry[2].values()
            ):
                problems.append(f"{where}: {name} flow metrics {entry[2]}")
        return problems

    def check_repeat(
        self, i: int, first: Dict[str, object], again: Dict[str, object]
    ) -> List[str]:
        """A later pass over a cell must return what the first did."""
        if _outputs(again) == _outputs(first):
            return []
        task = self.cells[i].task
        return [f"{self.cells[i].fig} x={task.x} seed={task.seed}: a later pass "
                f"returned {_outputs(again)}, the first {_outputs(first)}"]

    def cost(self, result: Dict[str, object]) -> float:
        return _records(result)["LCF"].social_cost

    def close(self) -> None:
        pass


# --------------------------------------------------------------------- #
# The sharded workloads
# --------------------------------------------------------------------- #
#: Seeds of the sharded scenario's network and provider population: one
#: fixed instance that every run measures (see README.md, "Seeds").
NETWORK_SEED = 20200707
POPULATION_SEED = 20200708


def build_simulation(
    scale: Scale,
    runtime: Optional[Runtime] = None,
    journal: Optional[CheckpointJournal] = None,
) -> DynamicMarketSimulation:
    """The sharded scenario; ``runtime``/``journal`` are where the settle
    runs and what it checkpoints to (both ``None`` gives the serial
    reference)."""
    network = random_mec_network(
        scale.sim_nodes, rng=NETWORK_SEED, vms_per_cloudlet=scale.vms_per_cloudlet
    )
    population = PopulationProcess(
        network,
        arrival_rate=scale.arrival_rate,
        mean_lifetime=scale.mean_lifetime,
        rng=POPULATION_SEED,
    )
    return DynamicMarketSimulation(
        network,
        population,
        policy="incremental",
        latency_budget_ms=3.0,
        sharding="region",
        shard_runtime=runtime,
        shard_journal=journal,
    )


EpochBill = Tuple[float, float, Optional[bool]]


def _bill(rec: EpochRecord) -> EpochBill:
    return rec.social_cost, rec.migration_cost, rec.equilibrium_certified


def _source_digest() -> str:
    """Digest of the program's source files and of this scenario code."""
    src = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def serial_reference(scale: Scale, epochs: int, cache_dir: Path) -> List[EpochBill]:
    """Per-epoch bills of the sharded scenario settled serially.

    The bills are cached in ``cache_dir`` under the scale and a digest of
    the program's source and of this file, so the runs of one checkout
    share one serial run and a cached run only ever checks the code that
    billed it. A longer cached run serves as a prefix.
    """
    key = f"{scale!r}|{_source_digest()}"
    path = Path(cache_dir) / f"serial-{hashlib.sha256(key.encode()).hexdigest()[:24]}.json"
    if path.exists():
        cached = [tuple(bill) for bill in json.loads(path.read_text())]
        if len(cached) >= epochs:
            return cached[:epochs]
    sim = build_simulation(scale)
    bills = [_bill(sim.step()) for _ in range(epochs)]
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f"{path.name}.{os.getpid()}")
    partial.write_text(json.dumps(bills))
    os.replace(partial, path)
    return bills


class Simulation:
    """One ``DynamicMarketSimulation`` run, one epoch per operation."""

    def __init__(self, scale: Scale, workdir: Path) -> None:
        self.scale = scale
        self.n_ops = scale.shard_epochs
        self.runtime = Runtime(workers=2)
        # Fork both workers now, so pool start-up is set-up time.
        self.runtime.map(time.sleep, [0.05, 0.05])
        tag = f"{os.getpid()}-{id(self):x}"
        journal = CheckpointJournal(Path(workdir) / f"shard-{tag}.journal")
        self.sim = build_simulation(scale, self.runtime, journal)

    def op(self, i: int) -> EpochRecord:
        return self.sim.step()

    def check(self, i: int, rec: EpochRecord) -> List[str]:
        where = f"epoch {rec.epoch}"
        problems = []
        if not math.isfinite(rec.total_cost):
            problems.append(f"{where}: billed {rec.total_cost}")
        if rec.equilibrium_certified is not True:
            problems.append(f"{where}: equilibrium not certified")
        sim = self.sim
        if not rec.population:
            return problems
        if len(sim.placement) + len(sim.rejected) != rec.population:
            problems.append(f"{where}: providers lost or duplicated")
        cm = sim.market.compile()
        if np.any(cm.load_matrix(sim.placement) > cm.capacity + CAPACITY_EPS):
            problems.append(f"{where}: cloudlet capacity exceeded")
        if (i + 1) % self.scale.oracle_every == 0 or i == self.n_ops - 1:
            oracle = _oracle_social(sim.market, sim.placement, sim.rejected)
            if not math.isclose(oracle, rec.social_cost, rel_tol=ORACLE_RTOL):
                problems.append(
                    f"{where}: social cost {rec.social_cost!r} != oracle {oracle!r}"
                )
        return problems

    def check_repeat(self, i: int, first: EpochRecord, again: EpochRecord) -> List[str]:
        """A later simulation of the scenario must bill what the first did."""
        if _bill(again) == _bill(first):
            return []
        return [f"epoch {again.epoch}: billed {_bill(again)}, the first pass "
                f"{_bill(first)}"]

    def cost(self, rec: EpochRecord) -> float:
        return rec.total_cost

    def close(self) -> None:
        """Stop the pool and wait for its workers."""
        self.runtime.close()
        reap_children()


def sim_counters(records: List[EpochRecord]) -> Dict[str, int]:
    return {
        "sim.epochs": len(records),
        "sim.replans": sum(r.replanned for r in records),
        "sim.displaced": sum(r.displaced for r in records),
        "sim.migrations": sum(r.migrations for r in records),
    }


def compare_bills(records: List[EpochRecord], reference: List[EpochBill]) -> List[str]:
    """Bit-for-bit comparison with the serial settle's bills."""
    for rec, expected in zip(records, reference):
        if _bill(rec) != expected:
            return [
                f"epoch {rec.epoch}: billed {_bill(rec)} but the serial "
                f"settle billed {expected}"
            ]
    return []


def prepare(name: str, scale: Scale, workdir: Path):
    """Set up one workload run (the part ``setup_s`` times)."""
    if name == "paper_figs":
        return PaperFigs(scale)
    if name == "shard_settle":
        return Simulation(scale, workdir)
    raise ValueError(f"unknown workload {name!r}")
