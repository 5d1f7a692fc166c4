"""Experiment harness and report formatting."""

from .experiments import (
    DEFAULT_SCALE,
    SENSITIVITY_SCALE,
    ExperimentRunner,
    arithmetic_mean,
    harmonic_mean,
)
from .report import banner, format_grouped_bars, format_series, format_table

__all__ = [
    "DEFAULT_SCALE",
    "ExperimentRunner",
    "SENSITIVITY_SCALE",
    "arithmetic_mean",
    "banner",
    "format_grouped_bars",
    "format_series",
    "format_table",
    "harmonic_mean",
]
