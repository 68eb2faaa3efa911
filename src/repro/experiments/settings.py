"""Experiment configuration (Section IV.A defaults).

``PAPER`` mirrors the paper's settings: network sizes 50–400 (cloudlets at
10% of nodes, 5 remote DCs), 100 network service providers, ``1 - xi = 0.3``
unless swept, several repetitions per point. ``QUICK`` shrinks sizes and
repetitions so the whole figure suite runs in seconds inside the benchmark
harness; both run the same code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.market.workload import WorkloadParams
from repro.utils.validation import check_fraction


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs a figure driver needs."""

    #: GT-ITM-style network sizes (Fig. 2's x-axis).
    network_sizes: Tuple[int, ...] = (50, 100, 150, 200, 250, 300, 350, 400)
    #: The fixed size used when the x-axis is something else (Fig. 3).
    default_size: int = 250
    #: Provider population |N|.
    n_providers: int = 100
    #: Default selfish fraction 1 - xi (Figs. 2, 5: 0.3).
    one_minus_xi: float = 0.3
    #: Values of 1 - xi swept by Fig. 3 / Fig. 6(a).
    xi_sweep: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    #: Independent repetitions per sweep point (paper averages several runs).
    repetitions: int = 5
    #: Base RNG seed. Only some sweeps read it: the testbed figures (Figs.
    #: 5-7) seed repetition ``k`` with ``point_seed(0, k)`` at every point,
    #: ablation A3 with ``point_seed(x_index, k)``, and A2 uses it as the
    #: random-selection rng. Figs. 2-3, A4 and A5 seed repetition ``k``
    #: with :func:`~repro.experiments.harness.legacy_point_seed` and
    #: ignore it.
    seed: int = 20200707
    #: Workload distributions (Section IV.A).
    workload: WorkloadParams = field(default_factory=WorkloadParams)
    #: Whether algorithms may leave services in the remote cloud.
    allow_remote: bool = True
    #: Provider population on the AS1755 testbed (9 cloudlets; the paper
    #: does not pin the testbed population, and 40 providers load it to the
    #: realistic ~60-90% the simulations use).
    testbed_providers: int = 40
    #: Provider counts swept by the testbed request-count experiment
    #: (Fig. 6c).
    provider_sweep: Tuple[int, ...] = (20, 40, 60, 80, 100)
    #: Data volumes (GB) swept by the update-volume experiment (Fig. 6d).
    data_volume_sweep: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0)
    #: Demand-scale multipliers swept by Fig. 7 (a_max / b_max). The upper
    #: end pushes total demand against the testbed's real capacities, where
    #: Eq. (7)'s shrinking n_i starts forcing rejections.
    demand_scale_sweep: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0)
    #: b_max multipliers for Fig. 7(b). Bandwidth capacities are looser
    #: than compute on the testbed (VMs ship 10-100 Mbps each), so the
    #: sweep reaches further before Eq. (7) binds.
    bandwidth_scale_sweep: Tuple[float, ...] = (1.0, 2.0, 4.0, 6.0, 8.0)
    #: Sweep parallelism: ``None``/``1`` serial, ``0`` one process per CPU,
    #: ``N > 1`` that many worker processes. Results are identical at any
    #: setting (per-task seeding).
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        if self.n_providers < 1:
            raise ConfigurationError("n_providers must be >= 1")
        check_fraction(self.one_minus_xi, "one_minus_xi")
        if not all(0.0 <= x <= 1.0 for x in self.xi_sweep):
            raise ConfigurationError("xi_sweep values must lie in [0, 1]")
        if self.workers is not None and self.workers < 0:
            raise ConfigurationError("workers must be None or >= 0")

    @property
    def engine(self) -> str:
        """The best-response kernel's name, always ``"batch"``.

        Read-only and not a field: there is one kernel. It exists only
        because ``perfbench/workloads.py`` still passes ``config.engine``
        to :func:`repro.experiments.harness.default_algorithms`; remove it
        with that call.
        """
        return "batch"

    def with_(self, **kwargs) -> "ExperimentConfig":
        """A modified copy (dataclasses.replace wrapper)."""
        return replace(self, **kwargs)

    def point_seed(self, x_index: int, repetition: int) -> int:
        """Deterministic seed for repetition ``repetition`` of point
        ``x_index`` — distinct points and repetitions never share streams."""
        return self.seed + 1_000_003 * x_index + 7_919 * repetition


#: The paper's configuration.
PAPER = ExperimentConfig()

#: A seconds-scale configuration exercising identical code paths.
QUICK = ExperimentConfig(
    network_sizes=(50, 100, 150),
    default_size=100,
    n_providers=30,
    testbed_providers=15,
    xi_sweep=(0.0, 0.3, 0.6, 1.0),
    repetitions=2,
    provider_sweep=(10, 20, 30),
    data_volume_sweep=(1.0, 3.0, 5.0),
    demand_scale_sweep=(1.0, 2.0, 3.0),
)

__all__ = ["ExperimentConfig", "PAPER", "QUICK"]
