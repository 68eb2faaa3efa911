"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at API boundaries while still being able to discriminate
the failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An input object (network, market, instance) is malformed."""


class CapacityError(ReproError):
    """A placement or assignment would violate a resource capacity."""


class InfeasibleError(ReproError):
    """No feasible solution exists for the given instance."""


class SolverError(ReproError):
    """An underlying numerical solver failed unexpectedly (e.g. HiGHS
    stopped on an iteration limit, or the Shmoys–Tardos matching found no
    full matching)."""


class TaskTimeout(ReproError):
    """A supervised sweep task exceeded its per-task time budget (see
    :mod:`repro.runtime.supervisor`)."""


class InvariantViolation(ReproError):
    """A debug-mode runtime contract failed: an algorithm produced a state
    that breaks one of the paper's invariants (capacity feasibility,
    Rosenthal potential descent).  Only raised when the
    ``REPRO_DEBUG_INVARIANTS=1`` environment flag is set."""


class TopologyError(ReproError):
    """A topology generator or network query received invalid parameters."""


class EmulationError(ReproError):
    """The discrete-event testbed emulator reached an inconsistent state."""
