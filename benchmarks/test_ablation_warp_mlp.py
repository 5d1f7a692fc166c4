"""Ablation: per-warp memory-level parallelism.

With one outstanding load per warp the machine is latency-bound and
FAE's extra activates would erase its bandwidth win; at realistic
per-warp MLP the system is throughput-bound and the paper's ordering
(FAE >= PAE on raw speed) appears.  This pins the modelling choice
documented in DESIGN.md.
"""

from dataclasses import replace

from conftest import emit

from repro.analysis.report import banner, format_table
from repro.core import hynix_gddr5_map
from repro.gpu.config import baseline_config
from repro.registry import make_scheme
from repro.sim.gpu_system import GPUSystem
from repro.workloads.suite import build_workload

BENCH = "MT"
SCALE = 0.4
MLPS = (1, 2, 4, 8)


def _run(scheme_name: str, mlp: int):
    config = replace(baseline_config(), max_outstanding_per_warp=mlp)
    system = GPUSystem(make_scheme(scheme_name, hynix_gddr5_map(), seed=0),
                       config=config)
    return system.run(build_workload(BENCH, scale=SCALE))


def _render() -> str:
    rows = []
    for mlp in MLPS:
        base = _run("BASE", mlp)
        pae = _run("PAE", mlp)
        fae = _run("FAE", mlp)
        rows.append([
            mlp, base.cycles / pae.cycles, base.cycles / fae.cycles,
            fae.row_hit_rate * 100,
        ])
    return "\n".join([
        banner(f"Ablation — per-warp MLP vs mapping speedups on {BENCH}"),
        format_table(
            ["warp MLP", "PAE speedup", "FAE speedup", "FAE row-hit %"],
            rows, floatfmt="{:.2f}",
        ),
        "",
        "higher per-warp MLP shifts the machine from latency-bound to "
        "throughput-bound, where FAE's balance advantage dominates its "
        "row-locality loss.",
    ])


def test_ablation_warp_mlp(benchmark, results_dir):
    text = benchmark.pedantic(_render, rounds=1, iterations=1)
    emit(results_dir, "ablation_warp_mlp", text)
    # Both schemes must beat BASE at the baseline MLP of 4.
    base = _run("BASE", 4)
    assert base.cycles / _run("PAE", 4).cycles > 1.5
    assert base.cycles / _run("FAE", 4).cycles > 1.5
