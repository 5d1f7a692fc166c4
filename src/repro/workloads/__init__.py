"""Workload substrate: trace model, pattern generators and the Table II suite."""

from .base import KernelTrace, TBTrace, Workload
from .io import load_workload, save_workload
from .recipes import PATTERNS, RecipeError, build_recipe_workload, validate_recipe
from .patterns import (
    TXN_BYTES,
    align,
    butterfly_pass,
    column_walk,
    make_tb,
    random_lines,
    row_segment,
    strided_gather,
    tile_rows,
)
from .suite import (
    ALL_BENCHMARKS,
    BENCHMARK_BUILDERS,
    NON_VALLEY_BENCHMARKS,
    TABLE2,
    VALLEY_BENCHMARKS,
    build_suite,
    build_workload,
    dwt2d_kernel1,
    srad2_kernel1,
)

__all__ = [
    "ALL_BENCHMARKS",
    "BENCHMARK_BUILDERS",
    "KernelTrace",
    "PATTERNS",
    "RecipeError",
    "build_recipe_workload",
    "validate_recipe",
    "NON_VALLEY_BENCHMARKS",
    "TABLE2",
    "TBTrace",
    "TXN_BYTES",
    "VALLEY_BENCHMARKS",
    "Workload",
    "align",
    "build_suite",
    "build_workload",
    "butterfly_pass",
    "column_walk",
    "dwt2d_kernel1",
    "load_workload",
    "make_tb",
    "save_workload",
    "random_lines",
    "row_segment",
    "srad2_kernel1",
    "strided_gather",
    "tile_rows",
]
