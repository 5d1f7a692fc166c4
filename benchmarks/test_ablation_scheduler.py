"""Ablation: FR-FCFS vs plain FCFS memory scheduling.

The paper argues scheduling is orthogonal to address mapping (it
raises row hits; mapping balances load).  This ablation checks both
halves: FR-FCFS beats FCFS under every mapping, and PAE's advantage
over BASE survives a scheduler swap.
"""

from conftest import emit

from repro.analysis.report import banner, format_table
from repro.core import hynix_gddr5_map
from repro.dram.scheduler import FCFSScheduler
from repro.dram.timing import gddr5_timing
from repro.registry import make_scheme
from repro.sim.gpu_system import GPUSystem
from repro.workloads.suite import build_workload

BENCH = "SRAD2"
SCALE = 0.5


def _run(scheme_name: str, scheduler: str):
    amap = hynix_gddr5_map()
    factory = None
    if scheduler == "FCFS":
        banks = gddr5_timing().banks_per_channel
        factory = lambda _i: FCFSScheduler(banks)
    system = GPUSystem(
        make_scheme(scheme_name, amap, seed=0), dram_scheduler_factory=factory
    )
    return system.run(build_workload(BENCH, scale=SCALE))


def _render() -> str:
    rows = []
    results = {}
    for scheme in ("BASE", "PAE"):
        for sched in ("FR-FCFS", "FCFS"):
            res = _run(scheme, sched)
            results[(scheme, sched)] = res
            rows.append([scheme, sched, res.cycles, res.row_hit_rate * 100])
    base = results[("BASE", "FR-FCFS")].cycles
    for row in rows:
        row.append(base / row[2])
    return "\n".join([
        banner(f"Ablation — FR-FCFS vs FCFS on {BENCH}"),
        format_table(
            ["mapping", "scheduler", "cycles", "row-hit %", "rel. speed"],
            rows, floatfmt="{:.2f}",
        ),
        "",
        "scheduling raises row hits; mapping balances load — the paper's "
        "orthogonality claim requires PAE to win under both schedulers.",
    ])


def test_ablation_scheduler(benchmark, results_dir):
    text = benchmark.pedantic(_render, rounds=1, iterations=1)
    emit(results_dir, "ablation_scheduler", text)
    frfcfs_base = _run("BASE", "FR-FCFS")
    fcfs_base = _run("BASE", "FCFS")
    frfcfs_pae = _run("PAE", "FR-FCFS")
    fcfs_pae = _run("PAE", "FCFS")
    # FR-FCFS never hurts row hits.
    assert frfcfs_base.row_hit_rate >= fcfs_base.row_hit_rate - 0.02
    # Mapping's advantage survives the scheduler swap.
    assert fcfs_base.cycles / fcfs_pae.cycles > 1.2
    assert frfcfs_base.cycles / frfcfs_pae.cycles > 1.2
