"""Statistics for experiment reporting.

The paper plots point estimates; a credible reproduction should say how
sure it is. This module provides the small-sample machinery for reporting
paired runs (the benches use it; the sweep harness does not):

* :func:`mean_ci` — mean with a Student-t confidence interval;
* :func:`paired_comparison` — paired-difference analysis of two algorithms
  run on common random numbers (the harness's paired seeds), including a
  sign test p-value;
* :func:`summarize` — a one-line textual summary for bench output.

``scipy.stats`` is imported on the first call that needs it, not at module
level: it is the heaviest import of the package and no sweep or simulation
path uses it, so ``import repro.experiments`` does not pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class MeanCI:
    """A mean with its confidence interval."""

    mean: float
    lower: float
    upper: float
    confidence: float
    n: int

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g} ({self.confidence:.0%} CI, n={self.n})"


def mean_ci(samples: Sequence[float], confidence: float = 0.95) -> MeanCI:
    """Student-t confidence interval for the mean of i.i.d. samples."""
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must lie in (0, 1), got {confidence}")
    xs = np.asarray(list(samples), dtype=float)
    if xs.size == 0:
        raise ConfigurationError("need at least one sample")
    mean = float(np.mean(xs))
    if xs.size == 1:
        return MeanCI(mean, mean, mean, confidence, 1)
    from scipy import stats as scipy_stats

    sem = float(np.std(xs, ddof=1) / math.sqrt(xs.size))
    t = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=xs.size - 1))
    return MeanCI(mean, mean - t * sem, mean + t * sem, confidence, int(xs.size))


@dataclass(frozen=True)
class PairedComparison:
    """Paired-difference analysis of algorithm A vs B on common seeds."""

    mean_a: float
    mean_b: float
    mean_difference: float  # A - B
    difference_ci: MeanCI
    #: Two-sided sign-test p-value for H0: median difference = 0.
    sign_test_p: float
    n: int

    @property
    def a_wins(self) -> bool:
        """A is significantly cheaper than B (CI excludes zero, below it)."""
        return self.difference_ci.upper < 0.0

    @property
    def b_wins(self) -> bool:
        return self.difference_ci.lower > 0.0


def paired_comparison(
    a: Sequence[float],
    b: Sequence[float],
    confidence: float = 0.95,
) -> PairedComparison:
    """Compare two paired sample sequences (same seeds, same order)."""
    xs = np.asarray(list(a), dtype=float)
    ys = np.asarray(list(b), dtype=float)
    if xs.size != ys.size:
        raise ConfigurationError(
            f"paired samples must align: {xs.size} vs {ys.size}"
        )
    if xs.size == 0:
        raise ConfigurationError("need at least one pair")
    diffs = xs - ys
    ci = mean_ci(diffs, confidence)
    nonzero = diffs[np.abs(diffs) > 1e-12]
    if nonzero.size == 0:
        p = 1.0
    else:
        from scipy import stats as scipy_stats

        wins = int(np.sum(nonzero > 0))
        p = float(
            scipy_stats.binomtest(wins, nonzero.size, p=0.5).pvalue
        )
    return PairedComparison(
        mean_a=float(np.mean(xs)),
        mean_b=float(np.mean(ys)),
        mean_difference=float(np.mean(diffs)),
        difference_ci=ci,
        sign_test_p=p,
        n=int(xs.size),
    )


def summarize(name_a: str, name_b: str, comparison: PairedComparison) -> str:
    """One line: who wins, by how much, how confidently."""
    if comparison.a_wins:
        verdict = f"{name_a} cheaper"
    elif comparison.b_wins:
        verdict = f"{name_b} cheaper"
    else:
        verdict = "no significant difference"
    return (
        f"{name_a} {comparison.mean_a:.4g} vs {name_b} {comparison.mean_b:.4g}: "
        f"{verdict} (Δ = {comparison.mean_difference:+.4g}, "
        f"CI [{comparison.difference_ci.lower:.4g}, "
        f"{comparison.difference_ci.upper:.4g}], sign-test p = "
        f"{comparison.sign_test_p:.3f}, n = {comparison.n})"
    )


__all__ = ["MeanCI", "mean_ci", "PairedComparison", "paired_comparison", "summarize"]
