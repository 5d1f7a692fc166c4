"""Performance benchmark: named workloads, gated on correctness.

Usage (from the repository root)::

    python3 benchmarks/perf/bench.py --workload NAME|all [--seed S]
        [--seconds T] [--trace 0|1] [--json OUT] [--update-reference]

Each workload runs as repeated *passes*, each a fresh process (see
``passes.py``), until ``--seconds`` is spent, with at least two passes.
Every metric is printed as ``name value unit (n=samples)``; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs one untraced pass and then
traced passes, and reports the per-layer metrics.  Every report a pass
renders is checked against ``reference.json``; a mismatch counts as a
failed operation and makes the exit code 1.  ``--update-reference``
regenerates ``reference.json``; use it only for deliberate model
changes.  ``README.md`` describes the metrics and how to compare two
commits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_build" / "perf"

import passes  # noqa: E402 — sibling module, found through sys.path[0]
from tracer import layer_totals  # noqa: E402

MIN_PASSES = 2
# Every run must end well inside the 180 s a run may take.
RUN_LIMIT_S = 150.0
DEFAULT_SECONDS = 24

# Layers a serial sweep's timed region calls directly.
TOP_LEVEL = ("runner.sweep", "runner.report.build", "runner.report.render")


class PassError(RuntimeError):
    """A pass process crashed or overran: no result can be reported."""


# ----------------------------------------------------------------------
# Running passes
# ----------------------------------------------------------------------
def spawn_pass(workload: str, seed: int, traced: bool, pass_dir: Path,
               timeout: float) -> dict:
    """Run one pass in a fresh process and return its result."""
    (pass_dir / "tmp").mkdir(parents=True)
    request = pass_dir / "request.json"
    result = pass_dir / "result.json"
    request.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "work_dir": str(pass_dir), "traced": traced,
    }))
    # Temporary files stay inside the checkout.
    env = dict(os.environ, TMPDIR=str(pass_dir / "tmp"))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passes.py"), str(request), str(result)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassError(f"{workload} pass overran its {timeout:.0f} s budget")
    finally:
        try:  # stragglers of the pass's session (pool workers)
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        tail = stderr.decode("utf-8", "replace").strip()[-2000:]
        raise PassError(
            f"{workload} pass exited with code {proc.returncode}:\n{tail}"
        )
    return json.loads(result.read_text())


def run_passes(workload: str, seed: int, seconds: float, traced: bool,
               work_dir: Path) -> List[dict]:
    """Passes until *seconds* are spent (at least :data:`MIN_PASSES`).

    A traced run's first pass is untraced: it gives the tracing
    overhead and the untraced host time per event.
    """
    results: List[dict] = []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        results.append(spawn_pass(
            workload, seed, traced and bool(results),
            work_dir / f"{workload}-{len(results)}",
            timeout=RUN_LIMIT_S - (started - begin),
        ))
        took = time.perf_counter() - started
        elapsed = time.perf_counter() - begin
        if len(results) >= MIN_PASSES and elapsed + took > seconds:
            return results


# ----------------------------------------------------------------------
# Metrics and the correctness gate
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def check(results: List[dict], reference: dict):
    """``(attempted, failed, problems)`` over every pass's reports.

    A report that is missing, not ``done`` or unlike its pinned digest
    fails every operation it covers (a sweep's configs, or one job).
    """
    attempted = failed = 0
    problems: List[str] = []
    pinned = reference.get("reports", {})
    for result in results:
        attempted += result["attempted"]
        problems.extend(result.get("errors", []))
        missing = result["attempted"] - sum(
            report["units"] for report in result["reports"]
        )
        if missing > 0:
            failed += missing
            problems.append(f"{missing} operations never reported")
        for report in result["reports"]:
            expected = pinned.get(report["key"], {}).get("sha256")
            if report["state"] != "done":
                problems.append(f"job for {report['key'][:12]} ended "
                                f"{report['state']}")
            elif expected is None:
                problems.append(f"no reference for grid {report['key'][:12]}")
            elif report["sha256"] != expected:
                problems.append(f"report of grid {report['key'][:12]} "
                                f"differs from the reference")
            else:
                continue
            failed += report["units"]
    return attempted, min(failed, attempted), problems


def fidelity_error_pct(result: dict, reference: dict) -> Optional[float]:
    """Max over non-BASE schemes of |HMEAN / exact HMEAN - 1| x 100."""
    if result.get("fidelity") != "auto":
        return 0.0
    exact = reference.get("fig12_hmean_exact", {}).get(str(result["bim"]))
    if exact is None:
        return None
    return max(abs(value / exact[scheme] - 1.0) * 100.0
               for scheme, value in result["hmean"].items()
               if scheme != "BASE")


def scaled(result: dict, span) -> float:
    """Seconds at the reference host speed spent in *span*."""
    return passes.scaled(result["probe"], *span)


def declared(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares."""
    return {m["name"]: m["unit"]
            for m in json.loads(SPEC.read_text())[kind]}


def end_to_end(results: List[dict]) -> Dict[str, tuple]:
    """``name -> (value, samples)``, times at the reference host speed."""
    jobs = [scaled(r, span) for r in results for span in r["job_spans"]]
    walls = [scaled(r, r["wall_span"]) for r in results]
    return {
        "wall_s": (statistics.median(walls), len(walls)),
        "setup_s": (statistics.median(scaled(r, r["setup_span"])
                                      for r in results), len(results)),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in results) / 1024.0,
                        len(results)),
        "job_p50_s": (percentile(jobs, 0.5), len(jobs)),
        "job_p90_s": (percentile(jobs, 0.9), len(jobs)),
    }


def layer_values(result: dict, untraced: dict, err_pct: float) -> dict:
    """Per-layer metric values of one traced pass (times at the
    reference host speed, like the end-to-end ones)."""
    totals = layer_totals(result["trace"])
    speed = result["speed"]

    def self_s(layer):
        return totals.get(layer, {}).get("self_s", 0.0) * speed

    def total_s(layer):
        return totals.get(layer, {}).get("total_s", 0.0) * speed

    def calls(layer):
        return totals.get(layer, {}).get("calls", 0)

    wall = scaled(result, result["wall_span"])
    untraced_wall = scaled(untraced, untraced["wall_span"])
    return {
        "sim.engine.self_s": self_s("sim.engine"),
        "sim.gpu_system.self_s": self_s("sim.gpu_system"),
        "gpu.sm.self_s": self_s("gpu.sm"),
        "gpu.llc.self_s": self_s("gpu.llc"),
        "gpu.noc.self_s": self_s("gpu.noc"),
        "dram.system.self_s": self_s("dram.system"),
        "dram.scheduler.self_s": self_s("dram.scheduler"),
        "dram.bank.self_s": self_s("dram.bank"),
        "core.decode_s": self_s("core.decode"),
        "core.map_s": self_s("core.map"),
        "workloads.build_s": total_s("workloads.build"),
        "core.scheme_build_s": total_s("core.scheme_build"),
        "runner.cache.get_s": total_s("runner.cache.get"),
        "runner.cache.put_s": total_s("runner.cache.put"),
        "runner.report.build_s": total_s("runner.report.build"),
        "runner.report.render_s": total_s("runner.report.render"),
        "runner.sweep.overhead_s": self_s("runner.sweep") + self_s("runner.run"),
        "sim.host_us_per_event": untraced_wall / untraced["events"] * 1e6,
        "trace_overhead_pct": (wall / untraced_wall - 1.0) * 100.0,
        "sim.replay.share_pct": total_s("sim.replay") / wall * 100.0,
        "sim.plan.share_pct": total_s("sim.plan") / wall * 100.0,
        "sim.fidelity.err_pct": err_pct,
        "sim.engine.events": result["events"],
        "gpu.sm.calls": calls("gpu.sm"),
        "gpu.llc.calls": calls("gpu.llc"),
        "gpu.noc.calls": calls("gpu.noc"),
        "dram.scheduler.calls": calls("dram.scheduler"),
        "core.decode_calls": calls("core.decode"),
        "sim.replay.calls": calls("sim.replay"),
        "runner.state_cache.hits": (calls("runner.state_cache.get")
                                    - calls("runner.state_cache.put")),
        "runner.state_cache.stores": calls("runner.state_cache.put"),
        "runner.cache.gets": calls("runner.cache.get"),
        "runner.cache.puts": calls("runner.cache.put"),
        "runner.executed": result["executed"],
        "serve.coalesced": result.get("coalesced", 0),
        "serve.leaders": result.get("leaders", 0),
    }


def extras(results: List[dict]) -> Dict[str, dict]:
    """Context printed and recorded, but not part of the metric set."""
    out: Dict[str, dict] = {}

    def put(name, values, unit):
        if values:
            out[name] = {"value": percentile(values, 0.5), "unit": unit,
                         "n": len(values)}

    plain = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    put("wall_raw_s", [r["wall_span"][1] - r["wall_span"][0] for r in plain],
        "s")
    put("host.speed", [r["speed"] for r in results], "ratio")
    put("serve.queue_wait_p50_s",
        [s * r["speed"] for r in results for s in r.get("queue_s", [])], "s")
    put("client.request_p50_s",
        [s * r["speed"] for r in results for s in r.get("request_s", [])],
        "s")
    for layer in ("sim.replay", "sim.replay.stream_build", "sim.plan",
                  "runner.state_cache.get", "runner.state_cache.put"):
        put(f"{layer}.total_s",
            [layer_totals(r["trace"]).get(layer, {}).get("total_s", 0.0)
             * r["speed"] for r in traced], "s")
    # A serial sweep's timed region is the sweep's top-level spans; their
    # time minus the runner's own self time is what the named layers
    # below the runner account for.
    coverage = []
    for r in traced:
        if r["kind"] != "sweep":
            continue
        totals = layer_totals(r["trace"])
        top = sum(total for layer, parent, _calls, total, _self
                  in r["trace"]["agg"] if parent == "" and layer in TOP_LEVEL)
        glue = sum(totals.get(layer, {}).get("self_s", 0.0)
                   for layer in ("runner.sweep", "runner.run"))
        wall = r["wall_span"][1] - r["wall_span"][0]
        coverage.append((top - glue) / wall * 100.0)
    put("trace.coverage_pct", coverage, "%")
    return out


def summarize(workload: str, results: List[dict], reference: dict,
              traced: bool) -> dict:
    """Metrics, sample counts and the correctness verdict of one run."""
    attempted, failed, problems = check(results, reference)
    errors = [fidelity_error_pct(r, reference) for r in results]
    if any(e is None for e in errors):
        problems.append("no exact HMEANs in the reference for this seed")
        errors = [0.0 if e is None else e for e in errors]
        failed = max(failed, 1)
    untraced = [r for r in results if not r["traced"]]
    if traced:
        kind = "per_layer"
        layered = [layer_values(r, untraced[0], e)
                   for r, e in zip(results, errors) if r["traced"]]
        values = {name: (statistics.median(v[name] for v in layered),
                         len(layered)) for name in layered[0]}
    else:
        kind = "end_to_end"
        values = end_to_end(untraced)
    metrics = {name: {"value": values[name][0], "unit": unit,
                      "n": values[name][1]}
               for name, unit in declared(kind).items()}
    return {
        "workload": workload,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "extras": extras(results),
    }


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------
def machine() -> dict:
    from importlib import metadata

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def run_record(summary: dict, results: List[dict], args, host: dict) -> dict:
    return {
        "format": "perfbench-record/1",
        **host,
        "workload": summary["workload"],
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "problems": summary["problems"],
        "metrics": summary["metrics"],
        "extras": summary["extras"],
        "passes": [pass_record(result) for result in results],
    }


def pass_record(result: dict) -> dict:
    record = {
        "traced": result["traced"],
        "setup_s": scaled(result, result["setup_span"]),
        "wall_s": scaled(result, result["wall_span"]),
        "wall_raw_s": result["wall_span"][1] - result["wall_span"][0],
        "speed": result["speed"],
        "maxrss_kb": result["maxrss_kb"],
        "events": result["events"],
        "executed": result["executed"],
    }
    if result["traced"]:
        record["layers"] = result["trace"]["agg"]
        record["spans"] = result["trace"]["spans"]
    return record


# ----------------------------------------------------------------------
# Reference
# ----------------------------------------------------------------------
def update_reference() -> None:
    """Render every input any seed can produce, untraced, and pin it."""
    sys.path.insert(0, str(passes.SRC))
    from repro.api import scenario_grid
    from repro.runner import SweepRunner, render_report, sweep_report

    runner = SweepRunner(workers=1)
    reports: Dict[str, dict] = {}
    hmean_exact: Dict[str, dict] = {}
    for workload in passes.WORKLOADS:
        for doc in passes.reference_docs(workload):
            grid = scenario_grid(doc)
            report = sweep_report(grid, runner)
            reports[passes.grid_key(grid)] = {
                "workload": workload,
                "doc": doc,
                "sha256": passes.digest(render_report(report)),
            }
            if workload == "fig12-auto":  # its accuracy reference
                exact = {k: v for k, v in doc.items() if k != "fidelity"}
                hmean_exact[str(doc["seeds"][0])] = sweep_report(
                    scenario_grid(exact), runner
                )["derived"]["hmean_speedup"]
            print(f"pinned {workload} {doc['benchmarks'][:2]} "
                  f"seed={doc['seeds'][0]}", file=sys.stderr)
    REFERENCE.write_text(json.dumps({
        "format": "perfbench-reference/1",
        "bim_seeds": passes.BIM_SEEDS,
        "reports": reports,
        "fig12_hmean_exact": hmean_exact,
    }, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=passes.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--json", metavar="OUT",
                        help="write the run record(s) to OUT")
    parser.add_argument("--update-reference", action="store_true")
    return parser.parse_args(argv)


def print_metrics(summary: dict) -> None:
    for table in (summary["metrics"], summary["extras"]):
        for name, metric in table.items():
            print(f"{summary['workload']} {name} {metric['value']:.6g} "
                  f"{metric['unit']} (n={metric['n']})")
    for problem in summary["problems"]:
        print(f"{summary['workload']} FAILED: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (passes.SRC / "repro" / "__init__.py").is_file():
        print(f"error: the package sources are missing ({passes.SRC})",
              file=sys.stderr)
        return 2
    if args.update_reference:
        update_reference()
        return 0
    reference = json.loads(REFERENCE.read_text())
    workloads = (passes.WORKLOADS if args.workload == "all"
                 else (args.workload,))
    host = machine() if args.json else {}
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    summaries, records = [], []
    try:
        for workload in workloads:
            results = run_passes(workload, args.seed, args.seconds,
                                 bool(args.trace), work_dir)
            summary = summarize(workload, results, reference,
                                bool(args.trace))
            print_metrics(summary)
            summaries.append(summary)
            records.append(run_record(summary, results, args, host))
    except PassError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.json:
        Path(args.json).write_text(json.dumps(
            records[0] if len(records) == 1 else records, indent=1) + "\n")
    single = len(summaries) == 1
    final = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {
            (name if single else f"{s['workload']}/{name}"):
                {"value": m["value"], "unit": m["unit"]}
            for s in summaries for name, m in s["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
