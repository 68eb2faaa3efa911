"""Shared utilities: seeded randomness, table rendering, validation helpers."""

from repro.utils.ascii_plot import line_chart, sparkline
from repro.utils.rng import RandomSource, as_rng
from repro.utils.tables import Table, format_series
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)

__all__ = [
    "line_chart",
    "sparkline",
    "RandomSource",
    "as_rng",
    "Table",
    "format_series",
    "check_fraction",
    "check_non_negative",
    "check_positive",
]
