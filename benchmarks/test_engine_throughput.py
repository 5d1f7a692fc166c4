"""Event-engine throughput microbenchmark.

Pins the simulator's event-dispatch rate so engine regressions are
*measured*, not guessed.  Two layers:

* **Engine core** — a synthetic schedule shaped like the simulator's
  hot loop (dense same-cycle bursts plus short timer chains from ~64
  components: issue ticks, L1 latencies, NoC deliveries, DRAM wakes),
  driven through ``at_call``/``after_call`` with pre-bound callbacks.

* **Valley-suite hot loop** — an end-to-end run of valley benchmarks
  under the BASE scheme, reporting events/sec, simulated cycles/sec
  and wall time.

The rates are printed, not recorded: wall-clock measurements with a
spread come only from ``benchmarks/perf/bench.py``.

The hard assertions are deliberately conservative floors — an order of
magnitude below the development machine's rates — so the bench fails
on a real regression (e.g. an accidental O(n log n) hot path or a
reintroduced per-event allocation storm), not on a slow CI runner.
"""

import json
import time

from repro.core.address_map import hynix_gddr5_map
from repro.registry import make_scheme
from repro.sim.engine import Engine
from repro.sim.gpu_system import GPUSystem
from repro.workloads.suite import build_workload

# Delay mix mirroring the simulator's schedule profile: same-cycle
# flushes, 1-2 cycle port/bank ticks, NoC/L1-latency style hops.
DELAYS = (0, 1, 1, 2, 5, 28)
N_CHAINS = 64
N_EVENTS = 200_000

# Conservative CI floors (see module docstring).
MIN_ENGINE_CORE_EVENTS_PER_SEC = 200_000
MIN_VALLEY_EVENTS_PER_SEC = 10_000

VALLEY_LOOP = ("MT", "LU", "SC")
VALLEY_SCALE = 0.25


def _drive(engine: Engine, budget: list) -> None:
    def tick(arg):
        budget[0] -= 1
        if budget[0] > 0:
            engine.after_call(DELAYS[budget[0] % len(DELAYS)], tick, arg)

    for chain in range(N_CHAINS):
        engine.at_call(chain % 7, tick, chain)


def _engine_core_rate() -> dict:
    engine = Engine()
    _drive(engine, [N_EVENTS])
    start = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - start
    return {
        "events": engine.events_processed,
        "wall_sec": round(wall, 4),
        "events_per_sec": round(engine.events_processed / wall),
    }


def _valley_loop_rate() -> dict:
    amap = hynix_gddr5_map()
    events = cycles = 0
    wall = 0.0
    per_bench = {}
    for bench in VALLEY_LOOP:
        workload = build_workload(bench, scale=VALLEY_SCALE)
        system = GPUSystem(make_scheme("BASE", amap))
        start = time.perf_counter()
        result = system.run(workload)
        elapsed = time.perf_counter() - start
        events += result.metadata["events"]
        cycles += result.cycles
        wall += elapsed
        per_bench[bench] = {
            "events": result.metadata["events"],
            "cycles": result.cycles,
            "wall_sec": round(elapsed, 4),
        }
    return {
        "benchmarks": per_bench,
        "scale": VALLEY_SCALE,
        "events": events,
        "cycles": cycles,
        "wall_sec": round(wall, 4),
        "events_per_sec": round(events / wall),
        "cycles_per_sec": round(cycles / wall),
    }


def test_engine_throughput():
    core = _engine_core_rate()
    valley = _valley_loop_rate()

    report = {"engine_core": core, "valley_loop": valley}
    print()
    print(json.dumps(report, indent=2, sort_keys=True))

    assert core["events_per_sec"] >= MIN_ENGINE_CORE_EVENTS_PER_SEC
    assert valley["events_per_sec"] >= MIN_VALLEY_EVENTS_PER_SEC
