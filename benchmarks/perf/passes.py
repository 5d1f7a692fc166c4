"""Workload definitions and one measured pass of a workload.

A *pass* is one fresh process doing what a user's process does: import
the package, set up, run the workload from empty caches and render the
reports.  ``bench.py`` runs several passes per workload and reports
medians.  Run a single pass by hand with::

    python3 benchmarks/perf/passes.py REQUEST.json RESULT.json

where ``REQUEST.json`` holds ``{"workload", "seed", "work_dir",
"traced"}``.  Nothing here imports ``repro`` at module level, so the
pass times the package import as part of set-up.

The program sees only generated scenario documents.  ``--seed`` picks
the BIM seed of every grid as ``seed % BIM_SEEDS``; the serve workload
also draws its round schedule and benchmark-ring offset from it.
``reference.json`` pins the report of every input any seed can
produce, so every seed's outputs are checked.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import resource
import signal
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

WORKLOADS = ("fig12-exact", "fig12-auto", "nonvalley-stacked", "serve-overlap")

# The benchmark's inputs are spelled out here rather than read from the
# package, so a change to the package's suite constants cannot silently
# change what the benchmark measures.
VALLEY = ("MT", "LU", "GS", "NW", "LPS", "SC", "SRAD2", "DWT2D", "HS", "SP")
NON_VALLEY = ("FWT", "NN", "SPMV", "LM", "MUM", "BFS")
FIG12_SCHEMES = ("BASE", "PM", "RMP", "PAE", "FAE", "ALL")

# Scales are set so a run of every workload fits its time budget with
# at least two passes.  Auto fidelity runs at 0.5 because at 0.25 its
# plan estimates next to nothing and it degenerates into exact mode; at
# 0.5 it estimates kernels and stores 4 replay streams (20 hits).
FIG12_EXACT_SCALE = 0.25
FIG12_AUTO_SCALE = 0.5
NON_VALLEY_SCALE = 0.5

BIM_SEEDS = 8

# serve-overlap: 2 closed-loop clients of one tenant submit at a
# barrier every round.  Block k of 4 rounds holds one new scenario
# (ring position offset + k, a fresh BIM seed); the other rounds repeat
# an earlier scenario, which the runner memo serves.  The two clients'
# benchmark pairs overlap by one benchmark, so new rounds coalesce.
SERVE_ROUNDS = 40
SERVE_BLOCK = 4
SERVE_SCALE = 0.25
SERVE_SCHEMES = ("PM", "PAE")
SERVE_TENANT = "lab"
SERVE_POLL_S = 0.01
SERVE_SERVER = dict(workers=2, runners=1, max_jobs=4)


def bim_of(seed: int) -> int:
    return seed % BIM_SEEDS


def sweep_doc(workload: str, bim: int) -> dict:
    """The scenario document of a sweep workload at one BIM seed."""
    if workload == "fig12-exact":
        return {"benchmarks": list(VALLEY), "schemes": list(FIG12_SCHEMES),
                "seeds": [bim], "scale": FIG12_EXACT_SCALE}
    if workload == "fig12-auto":
        return dict(sweep_doc("fig12-exact", bim), scale=FIG12_AUTO_SCALE,
                    fidelity="auto")
    if workload == "nonvalley-stacked":
        return {"benchmarks": list(NON_VALLEY),
                "schemes": ["BASE", "PM", "PAE"],
                "memories": ["gddr5", "stacked"],
                "seeds": [bim], "scale": NON_VALLEY_SCALE}
    raise ValueError(f"not a sweep workload: {workload!r}")


def serve_doc(position: int, bim: int) -> dict:
    """A serve job: two ring-adjacent benchmarks starting at *position*."""
    pair = [VALLEY[position % len(VALLEY)],
            VALLEY[(position + 1) % len(VALLEY)]]
    return {"benchmarks": pair, "schemes": list(SERVE_SCHEMES),
            "seeds": [bim], "scale": SERVE_SCALE}


def serve_rounds(seed: int, rounds: int = SERVE_ROUNDS) -> List[List[dict]]:
    """Per round, the two clients' scenario documents."""
    n_new = -(-rounds // SERVE_BLOCK)
    if n_new > len(VALLEY):
        raise ValueError("more new scenarios than ring positions")
    rng = random.Random(seed)
    offset = rng.randrange(len(VALLEY))
    scenarios: List[List[dict]] = []
    schedule: List[List[dict]] = []
    bims: List[int] = []
    for block in range(n_new):
        fresh = 0 if block == 0 else rng.randrange(SERVE_BLOCK)
        for slot in range(SERVE_BLOCK):
            if len(schedule) == rounds:
                break
            if slot == fresh:
                position = offset + block
                # Scenarios within two ring positions share benchmarks.
                # Giving them distinct BIM seeds keeps every config of a
                # new round new, so every seed simulates the same number
                # of configs per pass.
                taken = {
                    bims[j] for j in range(block)
                    if min(block - j, len(VALLEY) - (block - j)) <= 2
                }
                bim = rng.choice([b for b in range(BIM_SEEDS)
                                  if b not in taken])
                bims.append(bim)
                scenarios.append([serve_doc(position, bim),
                                  serve_doc(position + 1, bim)])
                schedule.append(scenarios[-1])
            else:
                schedule.append(scenarios[rng.randrange(len(scenarios))])
    return schedule


def reference_docs(workload: str) -> List[dict]:
    """Every scenario document the workload can submit, at any seed."""
    if workload == "serve-overlap":
        return [serve_doc(position, bim) for bim in range(BIM_SEEDS)
                for position in range(len(VALLEY))]
    return [sweep_doc(workload, bim) for bim in range(BIM_SEEDS)]


def grid_key(grid) -> str:
    """Reference key of an expanded grid (hash of its canonical form)."""
    from repro.core.serialize import stable_hash

    return stable_hash(grid.to_dict())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _events(report: dict) -> Dict[str, int]:
    """Engine events per distinct config of a report."""
    return {
        json.dumps(run["config"], sort_keys=True):
            run["result"]["metadata"]["events"]
        for run in report["runs"]
    }


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def sweep_pass(doc: dict, work_dir: Path, started: float,
               probe: "SpeedProbe") -> dict:
    """Set up, sweep *doc* from empty caches, render the report.

    Set-up is the import (timed from *started*), grid expansion and a
    ``RunContext`` prebuild of every trace and scheme, including the
    RMP suite profile.  The timed sweep starts from an empty result
    cache and an empty warmed-state cache, as ``repro sweep`` does in a
    clean directory; the context's auto plans are not prebuilt.  The
    sweep runs on this thread, so *probe* samples throughout.
    """
    from repro import runner as runner_pkg
    from repro.api import scenario_grid
    from repro.runner import report as report_module

    grid = scenario_grid(doc)
    configs = grid.configs()
    context = runner_pkg.RunContext()
    for config in configs:
        context.workload(config.benchmark, config.scale)
        context.scheme(config.scheme, config.seed, config.memory,
                       config.profile_scale, config.window)
    setup_end = time.perf_counter()

    ticks: List[float] = []
    runner = runner_pkg.SweepRunner(
        workers=1, context=context, cache_dir=str(work_dir / "cache"),
        progress=lambda _progress: ticks.append(time.perf_counter()),
    )
    begin = time.perf_counter()
    report = report_module.sweep_report(grid, runner, strict=False)
    text = report_module.render_report(report)
    end = time.perf_counter()

    marks = [begin] + ticks
    return {
        "setup_span": [started, setup_end],
        "wall_span": [begin, end],
        "job_spans": list(zip(marks, marks[1:])),
        "events": sum(_events(report).values()),
        "kind": "sweep",
        "reports": [{"key": grid_key(grid), "sha256": digest(text),
                     "units": len(configs), "state": "done"}],
        "attempted": len(configs),
        "executed": runner.stats.executed,
        "hmean": report["derived"]["hmean_speedup"],
        "fidelity": doc.get("fidelity", "exact"),
        "bim": grid.seeds[0],
    }


def serve_pass(rounds: List[List[dict]], work_dir: Path, started: float,
               probe: "SpeedProbe") -> dict:
    """Start a server, drive two closed-loop clients, fetch every report.

    Set-up is the import (timed from *started*), server construction
    and the first ``/v1/healthz`` answer.  The timed region runs from
    the first submit to the last report fetched.
    """
    from repro.api import scenario_grid
    from repro.client import ReproClient
    from repro.serve import ReproServer, ServerThread
    from repro.serve.protocol import TERMINAL_STATES

    clock_offset = time.time() - time.perf_counter()
    server = ReproServer(port=0, cache_dir=str(work_dir / "cache"),
                         **SERVE_SERVER)
    thread = ServerThread(server)
    try:
        url = thread.start()
        ReproClient(url, tenant=SERVE_TENANT).healthz()
        setup_end = time.perf_counter()

        # Every job of the previous round has finished when the last
        # client reaches the barrier, so the server is idle and the
        # probe sample taken then measures the host, not contention.
        barrier = threading.Barrier(2, action=probe.sample, timeout=120)
        jobs: List[dict] = []
        requests: List[float] = []
        marks: List[float] = []
        errors: List[str] = []
        lock = threading.Lock()

        def timed(call, *args):
            begin = time.perf_counter()
            value = call(*args)
            with lock:
                requests.append(time.perf_counter() - begin)
            return value

        def drive(index: int) -> None:
            client = ReproClient(url, tenant=SERVE_TENANT)
            try:
                for docs in rounds:
                    barrier.wait()
                    with lock:
                        marks.append(time.perf_counter())
                    job = timed(client.submit, docs[index])
                    while job["state"] not in TERMINAL_STATES:
                        time.sleep(SERVE_POLL_S)
                        job = timed(client.status, job["id"])
                    text = None
                    if job["state"] == "done":
                        text = timed(client.report_text, job["id"])
                    with lock:
                        marks.append(time.perf_counter())
                        jobs.append({"doc": docs[index], "status": job,
                                     "text": text})
            except Exception as error:  # noqa: BLE001 — reported as failed
                barrier.abort()
                with lock:
                    errors.append(f"client {index}: "
                                  f"{type(error).__name__}: {error}")

        clients = [threading.Thread(target=drive, args=(i,))
                   for i in range(2)]
        with probe.paused():
            for client_thread in clients:
                client_thread.start()
            for client_thread in clients:
                client_thread.join()
        wall_span = [min(marks), max(marks)] if marks else [0.0, 0.0]
        health = ReproClient(url, tenant=SERVE_TENANT).healthz()
    finally:
        thread.stop()

    reports = []
    events: Dict[str, int] = {}
    for job in jobs:
        status = job["status"]
        # Job stamps are server wall-clock times; moved onto the
        # perf_counter clock they can be scaled like every other span.
        entry = {"key": grid_key(scenario_grid(job["doc"])),
                 "sha256": None, "units": 1, "state": status["state"],
                 "span": [status["created"] - clock_offset,
                          status["finished"] - clock_offset],
                 "queue_s": status["started"] - status["created"]}
        if job["text"] is not None:
            report = json.loads(job["text"])
            entry["sha256"] = digest(job["text"])
            events.update(_events(report))
        reports.append(entry)
    return {
        "kind": "serve",
        "setup_span": [started, setup_end],
        "wall_span": wall_span,
        "job_spans": [r.pop("span") for r in reports],
        "queue_s": [r.pop("queue_s") for r in reports],
        "request_s": requests,
        "events": sum(events.values()),
        "reports": reports,
        "attempted": len(rounds) * 2,
        "executed": health["runner"]["executed"],
        "coalesced": health["coalesce"]["coalesced"],
        "leaders": health["coalesce"]["leaders"],
        "errors": errors,
        "fidelity": "exact",
    }


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
# The shared host's speed swings by tens of percent within minutes, so
# every pass measures its own speed: a fixed pure-Python kernel
# (dict-of-objects lookups and a small heap, with a working set larger
# than the L2 cache) runs every PROBE_INTERVAL_S on the main thread,
# and at every round barrier of the serve workload.  Each interval is
# reported scaled by PROBE_REF_S / the median kernel time measured
# around it (see scaled()), i.e. in seconds at the reference speed of
# the machine the benchmark was defined on.  The probe adds about 2%
# to every pass.
PROBE_INTERVAL_S = 0.1
PROBE_REF_S = 0.002
PROBE_STEPS = 2500
PROBE_FINAL_SAMPLES = 5
PROBE_WINDOW_S = 1.0
PROBE_MIN_SAMPLES = 3
_PROBE_KEYS = 1 << 15


class _ProbeNode:
    __slots__ = ("key", "count")

    def __init__(self, key: int) -> None:
        self.key = key
        self.count = 0


class SpeedProbe:
    """Samples the calibration kernel on SIGALRM while it is active."""

    def __init__(self) -> None:
        self.samples: List[List[float]] = []  # [end time, kernel seconds]
        self._table = {key: _ProbeNode(key) for key in range(_PROBE_KEYS)}
        self._order = [(i * 2654435761) % _PROBE_KEYS
                       for i in range(_PROBE_KEYS)]
        self._cursor = 0

    def kernel(self) -> int:
        table, order, mask = self._table, self._order, _PROBE_KEYS - 1
        heap: List[int] = []
        total = 0
        for i in range(self._cursor, self._cursor + PROBE_STEPS):
            node = table[order[i & mask]]
            node.count += 1
            heapq.heappush(heap, node.key & 1023)
            if len(heap) > 64:
                total += heapq.heappop(heap)
        self._cursor += PROBE_STEPS
        return total

    def _on_alarm(self, _signum, _frame) -> None:
        self.sample()

    def sample(self) -> None:
        """Time one kernel run and record it."""
        begin = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.samples.append([end, end - begin])

    def _arm(self, interval: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def __enter__(self) -> "SpeedProbe":
        self.kernel()  # first touch of the working set is not a sample
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._arm(PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        self._arm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(PROBE_FINAL_SAMPLES):
            self.sample()

    @contextmanager
    def paused(self):
        """Stop timed sampling while the pass loads every core itself.

        A sample taken then measures contention for the cores, not the
        host's speed; the pass calls :meth:`sample` at idle moments
        instead.
        """
        self._arm(0)
        try:
            yield
        finally:
            self._arm(PROBE_INTERVAL_S)


def speed(samples: List[List[float]], begin: float = float("-inf"),
          end: float = float("inf")) -> float:
    """Host speed: reference kernel time over the median kernel time of
    the samples taken within PROBE_WINDOW_S of [begin, end], or of all
    samples when fewer than PROBE_MIN_SAMPLES fall there."""
    near = [d for t, d in samples
            if begin - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
    if len(near) < PROBE_MIN_SAMPLES:
        near = [d for _t, d in samples]
    return PROBE_REF_S / statistics.median(near)


def scaled(samples: List[List[float]], begin: float, end: float) -> float:
    """Seconds at the reference speed spent in [begin, end].

    The interval is cut into PROBE_WINDOW_S pieces, each scaled by the
    speed measured around it, so a speed change inside a long interval
    is followed rather than averaged away.
    """
    total = 0.0
    while begin < end:
        piece = min(end, begin + PROBE_WINDOW_S)
        total += (piece - begin) * speed(samples, begin, piece)
        begin = piece
    return total


def measure(pass_fn, inputs, work_dir, traced: bool) -> dict:
    """Run ``pass_fn(inputs, work_dir, started, probe)`` under the probe.

    Must run on the main thread (the probe uses SIGALRM).  When
    *traced*, the tracer is installed before any system is built and
    removed afterwards, so in-process callers (the smoke test) are left
    as they were.  Adds the pass's host speed and its peak resident set
    size, including its pool workers.
    """
    work = Path(work_dir)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    probe = SpeedProbe()
    tracer = None
    with probe:
        started = time.perf_counter()
        if traced:
            from tracer import Tracer

            tracer = Tracer(work / "spans")
            tracer.install()
        try:
            result = pass_fn(inputs, work, started, probe)
            if tracer is not None:
                result["trace"] = tracer.collect()
        finally:
            if tracer is not None:
                tracer.uninstall()
    result["traced"] = traced
    result["probe"] = probe.samples
    result["speed"] = speed(probe.samples)
    result["maxrss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return result


def run_pass(workload: str, seed: int, work_dir: str, traced: bool) -> dict:
    """One pass of the named *workload* in this process."""
    if workload == "serve-overlap":
        return measure(serve_pass, serve_rounds(seed), work_dir, traced)
    return measure(sweep_pass, sweep_doc(workload, bim_of(seed)), work_dir,
                   traced)


def main(argv: List[str]) -> int:
    request = json.loads(Path(argv[1]).read_text())
    result = run_pass(**request)
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
