"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``schemes``
    List every registered mapping scheme with its hardware cost.
``map``
    Map one address through a scheme and show the DRAM coordinates.
``entropy``
    Window-based entropy profile of a workload (ASCII bars + valleys).
``simulate``
    Run one workload under one or more schemes and print the paper's
    headline metrics (routed through :func:`repro.api.compare`).
``sweep``
    Run a (benchmark x scheme x seed x SM-count x memory) grid through
    the parallel sweep runner and emit a machine-readable JSON report.
    Results are cached on disk, so re-runs are near-instant; the JSON
    is byte-identical regardless of worker count or cache state.
    ``--spec scenario.json`` loads the whole grid from a grid document
    (:meth:`~repro.runner.config.SweepGrid.from_dict`; it may embed
    custom scheme/workload specs); ``--shard I/N`` runs one deterministic
    slice of the grid and emits a partial shard report instead.
``merge``
    Combine N shard reports — or a shared cache directory plus the
    grid flags / ``--spec`` — into a full report byte-identical to an
    unsharded ``repro sweep`` of the same grid.
``cache``
    Inspect (``ls``, with ``--json`` for machine-readable output) or
    evict stale schema versions from (``prune``) an on-disk result
    cache.
``serve``
    Run the sweep-as-a-service HTTP server (:mod:`repro.serve`): a
    warm runner pool shared across requests whose runners share one
    single-flight result memo, async jobs, and per-tenant cache
    namespaces.
``submit``
    Submit the grid the flags describe to a running ``repro serve``
    (via :mod:`repro.client`), wait, and write the report — the remote
    twin of ``sweep``, with the same output and exit codes.
``profile``
    Run one configuration under :mod:`cProfile` (inline, no cache) and
    print the hottest functions, so perf work starts from a measured
    profile instead of a guess.
``export-scheme``
    Serialize a scheme's realized BIM to JSON (for RTL generators,
    configs, or re-import on another machine).
``import-scheme``
    Validate a scheme file (exported or hand-written spec) and emit
    the normalized :class:`~repro.specs.SchemeSpec` JSON usable as
    ``--schemes @file`` or inside a ``--spec`` grid document.

Anywhere a scheme or benchmark name is accepted, ``@path.json`` loads
a spec file instead — so custom scenarios flow through the same
commands as the paper's built-ins.

Exit codes: 0 success, 2 usage / spec / merge errors, 3 **partial
success** — the sweep (or merge) completed but some configs were
quarantined, each on its first failure (an exception, a timeout or a
worker death); the report's ``"failures"`` section lists them (see
:mod:`repro.runner.faults`).  ``simulate`` and ``profile`` need every
config, so a quarantined one ends them with exit 3 and its summary.

Examples
--------
::

    python -m repro schemes
    python -m repro map 0x12345680 --scheme PAE
    python -m repro entropy MT
    python -m repro simulate SRAD2 --schemes BASE,PM,PAE --scale 0.5
    python -m repro sweep --benchmarks MT,SP --schemes BASE,@my.json -o report.json
    python -m repro sweep --spec scenario.json -o report.json
    python -m repro sweep --shard 1/4 --cache-dir /shared -o shard1.json
    python -m repro merge shard*.json -o report.json
    python -m repro cache ls --cache-dir .repro-cache --json
    python -m repro serve --port 0 --workers 2
    python -m repro submit --server http://127.0.0.1:8731 --benchmarks MT,SP
    python -m repro export-scheme PAE --seed 1 -o pae.json
    python -m repro import-scheme pae.json -o pae.spec.json
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
from pathlib import Path
from typing import List, Optional, Union

from . import api, registry
from .analysis.report import format_table
from .core import SCHEME_NAMES, find_entropy_valleys, hynix_gddr5_map
from .core.serialize import dump_scheme
from .runner import (
    CACHE_SCHEMA_VERSION,
    MergeError,
    ResultCache,
    ShardSpec,
    SweepFailure,
    SweepGrid,
    SweepRunner,
    default_workers,
    merge_shard_reports,
    render_report,
    report_from_cache,
)
from .sim.fidelity import parse_fidelity
from .specs import SchemeSpec, WorkloadSpec
from .workloads.suite import ALL_BENCHMARKS, VALLEY_BENCHMARKS

__all__ = ["main"]


def _scheme_value(text: str) -> Union[str, SchemeSpec]:
    """A scheme CLI token: a registered name, or ``@file`` for a spec."""
    text = text.strip()
    if text.startswith("@"):
        return SchemeSpec.from_file(text[1:])
    return text.upper()


def _workload_value(text: str) -> Union[str, WorkloadSpec]:
    """A benchmark CLI token: a registered name, or ``@file`` for a spec."""
    text = text.strip()
    if text.startswith("@"):
        return WorkloadSpec.from_file(text[1:])
    return text.upper()


def _cmd_schemes(args) -> int:
    amap = hynix_gddr5_map()
    rows = []
    for name in registry.scheme_names():
        entry = registry.scheme_entry(name)
        scheme = registry.make_scheme(name, amap, seed=args.seed)
        rows.append([
            name, scheme.strategy, scheme.bim.xor_gate_count(),
            scheme.bim.xor_tree_depth(), scheme.extra_latency_cycles,
            entry.origin,
        ])
    print(format_table(
        ["scheme", "strategy", "XOR gates", "tree depth", "latency (cyc)",
         "origin"],
        rows,
    ))
    return 0


def _cmd_map(args) -> int:
    amap = hynix_gddr5_map()
    scheme = SchemeSpec.from_value(_scheme_value(args.scheme)).build(
        amap, seed=args.seed
    )
    address = int(args.address, 0)
    if not 0 <= address < amap.capacity:
        print(f"error: address must be within the {amap.width}-bit space",
              file=sys.stderr)
        return 2
    mapped = int(scheme.map(address))
    rows = [
        ["input", f"0x{address:08x}"] + [
            str(v) for v in amap.decode(address).values()
        ],
        ["mapped", f"0x{mapped:08x}"] + [
            str(v) for v in amap.decode(mapped).values()
        ],
    ]
    print(format_table(["", "address"] + list(amap.field_names), rows))
    return 0


def _cmd_entropy(args) -> int:
    amap = hynix_gddr5_map()
    profile = api.entropy_profile(
        _workload_value(args.benchmark), scale=args.scale, window=args.window
    )
    parallel = set(amap.parallel_bits())
    for bit in sorted(amap.non_block_bits(), reverse=True):
        bar = "#" * int(round(profile.values[bit] * 40))
        marker = " <- channel/bank" if bit in parallel else ""
        print(f"bit {bit:2d} |{bar:<40}|{marker}")
    print(f"\nvalleys: {find_entropy_valleys(profile) or 'none'}")
    print(f"channel/bank-bit entropy: {profile.parallel_bit_entropy():.3f}")
    return 0


def _cmd_simulate(args) -> int:
    schemes = [_scheme_value(s) for s in args.schemes.split(",") if s.strip()]
    print(f"simulating {args.benchmark} ...", file=sys.stderr)
    table = api.compare(
        _workload_value(args.benchmark), schemes,
        seed=args.seed, scale=args.scale,
        fidelity=parse_fidelity(args.fidelity),
    )
    rows = [
        [name, m["cycles"], m["speedup"], m["row_hit_rate"] * 100,
         m["channel_parallelism"], m["dram_power_watts"], m["perf_per_watt"]]
        for name, m in table.items()
    ]
    print(format_table(
        ["scheme", "cycles", "speedup", "row-hit %", "chan MLP",
         "DRAM W", "perf/W"],
        rows, floatfmt="{:.2f}",
    ))
    return 0


def _parse_names(text: str) -> List[Union[str, WorkloadSpec]]:
    """Split a comma list, honoring the 'valley'/'all' suite shorthands."""
    cleaned = text.strip().lower()
    if cleaned == "valley":
        return list(VALLEY_BENCHMARKS)
    if cleaned == "all":
        return list(ALL_BENCHMARKS)
    return [
        _workload_value(part) for part in text.split(",") if part.strip()
    ]


def _grid_from_args(args) -> SweepGrid:
    """Build (and eagerly validate) the sweep grid the flags describe."""
    if getattr(args, "spec", ""):
        with open(args.spec) as handle:
            grid = SweepGrid.from_dict(json.load(handle))
    else:
        grid = SweepGrid(
            benchmarks=tuple(_parse_names(args.benchmarks)),
            schemes=tuple(
                _scheme_value(s) for s in args.schemes.split(",") if s.strip()
            ),
            seeds=tuple(int(s) for s in args.seeds.split(",")),
            n_sms=tuple(int(n) for n in args.n_sms.split(",")),
            memories=tuple(m.strip() for m in args.memories.split(",")),
            scale=args.scale,
            window=args.window,
            fidelity=parse_fidelity(args.fidelity),
        )
    grid.configs()  # validates every axis value before any work
    return grid


def _write_report(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w") as handle:
            handle.write(text)
        print(f"wrote {output}", file=sys.stderr)


def _progress_printer():
    """Stderr progress callback: executed count, elapsed, rate-based ETA."""
    def emit(progress) -> None:
        eta = progress.eta_seconds
        eta_text = f"{eta:.0f}s" if math.isfinite(eta) else "?"
        print(
            f"\r[{progress.done}/{progress.total} executed] "
            f"{progress.elapsed_seconds:.0f}s elapsed, eta {eta_text} ",
            end="", file=sys.stderr, flush=True,
        )
    return emit


def _print_failures(report, command: str) -> int:
    """Stderr summary of a report's quarantined configs; 3 if any, else 0."""
    failures = report.get("failures", [])
    if not failures:
        return 0
    print(
        f"warning: {command} completed partially — "
        f"{len(failures)} config(s) quarantined:",
        file=sys.stderr,
    )
    for record in failures:
        print(
            f"  {record['benchmark']}/{record['scheme']} "
            f"[{record['kind']}]: {record['error']}",
            file=sys.stderr,
        )
    return 3


def _cmd_sweep(args) -> int:
    grid = _grid_from_args(args)
    shard = ShardSpec.parse(args.shard) if args.shard else None
    workers = args.workers if args.workers > 0 else default_workers()
    # The CLI sweeps non-strict: a quarantined config yields a partial
    # report plus exit code 3 instead of an aborted run — a fleet's
    # launcher wants the 199 healthy results, not a stack trace.
    with SweepRunner(
        workers=workers,
        cache_dir=args.cache_dir if args.cache_dir else None,
        progress=_progress_printer() if args.progress else None,
        timeout=args.timeout or None,
    ) as runner:  # context manager: deterministic pool shutdown, even on error
        started = time.perf_counter()
        report = api.sweep(grid, shard=shard, runner=runner, strict=False)
        elapsed = time.perf_counter() - started
    if args.progress:
        print(file=sys.stderr)  # terminate the \r progress line
    _write_report(render_report(report), args.output)
    # Accounting goes to stderr only: the JSON must stay byte-identical
    # across worker counts and cache states.
    stats = runner.stats
    slice_note = f" [shard {shard}]" if shard is not None else ""
    print(
        f"{stats.requested} runs{slice_note}: {stats.cache_hits} cache hits, "
        f"{stats.memory_hits} memo hits, {stats.executed} executed, "
        f"{stats.failed} failed ({elapsed:.2f}s, {workers} worker(s))",
        file=sys.stderr,
    )
    return _print_failures(report, "sweep")


def _cmd_merge(args) -> int:
    if args.shard_reports:
        reports = []
        for path in args.shard_reports:
            with open(path) as handle:
                reports.append(json.load(handle))
        merged = merge_shard_reports(reports)
    elif args.cache_dir:
        grid = _grid_from_args(args)
        merged = report_from_cache(grid, _existing_cache(args.cache_dir))
    else:
        print(
            "error: give shard report files, or --cache-dir plus the "
            "grid flags", file=sys.stderr,
        )
        return 2
    _write_report(render_report(merged), args.output)
    print(f"merged {len(merged['runs'])} runs", file=sys.stderr)
    return _print_failures(merged, "merge")


def _existing_cache(cache_dir) -> ResultCache:
    """The result cache at *cache_dir*, which must already exist.

    For the commands that only read or prune a cache: a mistyped path
    is an error (exit 2), never a new empty cache.
    """
    if not Path(cache_dir).is_dir():
        raise ValueError(f"no result cache at {cache_dir}")
    return ResultCache(cache_dir)


def _cmd_cache_ls(args) -> int:
    cache = _existing_cache(args.cache_dir)
    entries = cache.entries()
    if getattr(args, "json", False):
        # Machine-readable form for dashboards / quota scripts: every
        # record plus the totals, deterministically ordered by key.
        walls = [e.wall_seconds for e in entries if e.wall_seconds is not None]
        document = {
            "root": str(cache.root),
            "current_schema": CACHE_SCHEMA_VERSION,
            "totals": {
                "entries": len(entries),
                "bytes": sum(e.size_bytes for e in entries),
                "wall_seconds": round(sum(walls), 6),
            },
            "entries": [
                e.to_dict() for e in sorted(entries, key=lambda e: e.key)
            ],
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    by_schema = {}
    for entry in entries:
        by_schema.setdefault(entry.schema, []).append(entry)
    rows = []
    for schema in sorted(by_schema, key=lambda s: (s is None, s)):
        group = by_schema[schema]
        walls = [e.wall_seconds for e in group if e.wall_seconds is not None]
        rows.append([
            "?" if schema is None else str(schema),
            len(group),
            sum(e.size_bytes for e in group),
            f"{sum(walls):.1f}" if walls else "-",
            f"{sum(walls) / len(walls):.2f}" if walls else "-",
            "current" if schema == CACHE_SCHEMA_VERSION else "stale",
        ])
    print(format_table(
        ["schema", "entries", "bytes", "wall total (s)", "wall mean (s)", ""],
        rows,
    ))
    print(
        f"\n{len(entries)} records under {cache.root} "
        f"(current schema: {CACHE_SCHEMA_VERSION})"
    )
    return 0


def _cmd_cache_prune(args) -> int:
    versions = []
    for chunk in args.schema_version:
        for part in chunk.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                versions.append(int(part))
            except ValueError:
                print(f"error: bad schema version {part!r}", file=sys.stderr)
                return 2
    if not versions and not args.stale:
        print(
            "error: nothing to prune — pass --schema-version N and/or --stale",
            file=sys.stderr,
        )
        return 2
    cache = _existing_cache(args.cache_dir)
    if CACHE_SCHEMA_VERSION in versions:
        print(
            f"error: refusing to prune the current schema version "
            f"({CACHE_SCHEMA_VERSION}); delete the cache dir if you mean it",
            file=sys.stderr,
        )
        return 2
    removed, kept = cache.prune(schema_versions=versions, stale=args.stale)
    print(f"pruned {removed} record(s), kept {kept} ({cache.root})")
    return 0


def _cmd_serve(args) -> int:
    """Run the sweep-as-a-service HTTP server in the foreground."""
    from .serve import ReproServer

    workers = args.workers if args.workers > 0 else default_workers()
    server = ReproServer(
        host=args.host,
        port=args.port,
        workers=workers,
        runners=args.runners,
        max_jobs=args.max_jobs,
        cache_dir=args.cache_dir if args.cache_dir else None,
        timeout=args.timeout or None,
    )
    # SIGTERM (kill, a service manager) stops the server as Ctrl-C
    # does, so the finally below also shuts the worker processes down.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.start()
        # Port file first, announce line second: launchers wait for the
        # line and then read the file, so this order leaves no race.
        if args.port_file:
            with open(args.port_file, "w") as handle:
                handle.write(f"{server.port}\n")
        print(f"repro serve listening on {server.url}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    finally:
        server.close(wait=False)
    return 0


def _cmd_submit(args) -> int:
    """Submit a sweep to a running server and (by default) wait for it."""
    from .client import ReproClient

    grid = _grid_from_args(args)
    client = ReproClient(
        args.server, tenant=args.tenant or None, timeout=args.http_timeout
    )
    job = client.submit(grid.to_dict())
    job_id = job["id"]
    print(f"submitted {job_id} ({job['state']})", file=sys.stderr)
    if args.no_wait:
        print(job_id)
        return 0
    status = client.wait(
        job_id,
        timeout=args.wait_timeout if args.wait_timeout > 0 else None,
        poll_seconds=args.poll,
    )
    state = status.get("state")
    if state == "failed":
        print(f"error: job {job_id} failed: {status.get('error')}",
              file=sys.stderr)
        return 2
    _write_report(client.report_text(job_id), args.output)
    # Same partial-success contract as a local `repro sweep`: exit 3
    # and a stderr summary when any config was quarantined server-side.
    return _print_failures(client.report(job_id), "submit")


def _cmd_profile(args) -> int:
    """Run one config under cProfile and print the hottest rows."""
    import cProfile
    import io as io_module
    import pstats

    # Parse before enabling, and disable on any exit: a bad value must
    # not leave the profiler on.
    fidelity = parse_fidelity(args.fidelity)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = api.simulate(
            _workload_value(args.benchmark),
            _scheme_value(args.scheme),
            seed=args.seed,
            n_sms=args.n_sms,
            memory=args.memory,
            scale=args.scale,
            fidelity=fidelity,
            workers=1,  # inline, in-process: the profile must see the run
        )
    finally:
        profiler.disable()
    stream = io_module.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(args.sort)
    stats.print_stats(args.limit)
    print(stream.getvalue(), end="")
    print(
        f"{args.benchmark}/{args.scheme} @ scale={args.scale} "
        f"fidelity={args.fidelity}: {result.cycles} cycles, "
        f"{result.metadata.get('events', '?')} events",
        file=sys.stderr,
    )
    return 0


def _cmd_export_scheme(args) -> int:
    spec = SchemeSpec.from_value(_scheme_value(args.scheme))
    scheme = spec.build(hynix_gddr5_map(), seed=args.seed)
    dump_scheme(scheme, args.output)
    print(f"wrote {scheme.name} (seed {args.seed}) to {args.output}")
    return 0


def _cmd_import_scheme(args) -> int:
    spec = SchemeSpec.from_file(args.scheme_file)
    # Re-validate: realize the BIM (invertibility is checked by the
    # constructor) against the reference map before vouching for it.
    scheme = spec.build(hynix_gddr5_map(), seed=args.seed)
    text = json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n"
    _write_report(text, args.output)
    print(
        f"imported {spec.name} ({spec.kind}): width {scheme.bim.width}, "
        f"{scheme.bim.xor_gate_count()} XOR gates, spec hash "
        f"{spec.spec_hash()[:16]}",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Get Out of the Valley' (ISCA 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fidelity_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--fidelity", default="exact",
            help="simulation fidelity: 'exact' (default) or 'auto' for "
                 "the per-kernel planned approximation (see "
                 "repro.sim.fidelity)",
        )

    p = sub.add_parser(
        "schemes", help="list registered mapping schemes and hardware cost"
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_schemes)

    p = sub.add_parser("map", help="map one address through a scheme")
    p.add_argument("address", help="address (decimal or 0x-hex)")
    p.add_argument(
        "--scheme", default="PAE",
        help="registered scheme name, or @file for a scheme spec",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("entropy", help="entropy profile of a workload")
    p.add_argument(
        "benchmark", help="registered benchmark, or @file for a workload spec"
    )
    p.add_argument("--window", type=int, default=12)
    p.add_argument("--scale", type=float, default=0.5)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("simulate", help="simulate a workload under schemes")
    p.add_argument(
        "benchmark", help="registered benchmark, or @file for a workload spec"
    )
    p.add_argument("--schemes", default="BASE,PM,PAE",
                   help="comma-separated scheme names (or @file specs)")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    add_fidelity_arg(p)
    p.set_defaults(func=_cmd_simulate)

    def add_grid_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--spec", default="",
            help="JSON grid document describing the whole grid "
                 "(overrides the axis flags below)",
        )
        p.add_argument(
            "--benchmarks", default="valley",
            help="comma-separated names or @file specs, or 'valley' / "
                 "'all' (default: valley)",
        )
        p.add_argument(
            "--schemes", default=",".join(SCHEME_NAMES),
            help="comma-separated scheme names or @file specs (BASE is "
                 "always added)",
        )
        p.add_argument("--seeds", default="0", help="comma-separated BIM seeds")
        p.add_argument("--n-sms", default="12", help="comma-separated SM counts")
        p.add_argument(
            "--memories", default="gddr5",
            help="comma-separated memory kinds (gddr5,stacked)",
        )
        p.add_argument("--scale", type=float, default=0.5)
        p.add_argument("--window", type=int, default=12)
        add_fidelity_arg(p)

    p = sub.add_parser(
        "sweep", help="run a benchmark x scheme grid, emit a JSON report"
    )
    add_grid_args(p)
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; 0 = one per CPU or $REPRO_WORKERS (default: 1)",
    )
    p.add_argument(
        "--cache-dir", default=".repro-cache",
        help="on-disk result cache; pass '' to disable (default: .repro-cache)",
    )
    p.add_argument(
        "--shard", default="",
        help="run only shard I/N of the grid (1-based, e.g. 2/4) and emit "
             "a partial report for 'repro merge'",
    )
    p.add_argument(
        "--progress", action="store_true",
        help="report live executed-count / ETA on stderr",
    )
    p.add_argument(
        "--timeout", type=float, default=0.0,
        help="per-run wall-clock timeout in seconds, enforced by the "
             "parent (needs --workers > 1); 0 = no timeout (default)",
    )
    p.add_argument(
        "-o", "--output", default="-",
        help="report path, or - for stdout (default: -)",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "merge",
        help="combine shard reports (or a shared cache dir) into a full report",
    )
    p.add_argument(
        "shard_reports", nargs="*",
        help="partial reports written by 'repro sweep --shard I/N'",
    )
    p.add_argument(
        "--cache-dir", default="",
        help="merge straight from a shared result cache instead of shard "
             "files (requires the grid flags or --spec to match the "
             "original sweep)",
    )
    add_grid_args(p)
    p.add_argument(
        "-o", "--output", default="-",
        help="report path, or - for stdout (default: -)",
    )
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("cache", help="inspect or prune an on-disk result cache")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    p_ls = cache_sub.add_parser(
        "ls", help="summarize cache entries by schema version"
    )
    p_ls.add_argument("--cache-dir", default=".repro-cache")
    p_ls.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON (per-entry key, size, schema, "
             "wall seconds, mtime, plus totals) instead of the table",
    )
    p_ls.set_defaults(func=_cmd_cache_ls)
    p_prune = cache_sub.add_parser(
        "prune", help="evict records from stale cache schema versions"
    )
    p_prune.add_argument("--cache-dir", default=".repro-cache")
    p_prune.add_argument(
        "--schema-version", action="append", default=[],
        help="schema version(s) to evict (repeatable or comma-separated)",
    )
    p_prune.add_argument(
        "--stale", action="store_true",
        help="evict everything not produced by the current schema version",
    )
    p_prune.set_defaults(func=_cmd_cache_prune)

    p = sub.add_parser(
        "serve",
        help="run the sweep-as-a-service HTTP server (see repro.serve)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8731,
        help="TCP port; 0 binds an ephemeral port, announced on stdout "
             "(default: 8731)",
    )
    p.add_argument(
        "--port-file", default="",
        help="also write the bound port to this file (for launchers "
             "using --port 0)",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per runner; 0 = one per CPU or "
             "$REPRO_WORKERS (default: 1)",
    )
    p.add_argument(
        "--runners", type=int, default=1,
        help="warm SweepRunner instances in the pool — at most "
             "runners x workers simulations run at once (default: 1)",
    )
    p.add_argument(
        "--max-jobs", type=int, default=8,
        help="jobs executing concurrently server-wide; excess queue "
             "(default: 8)",
    )
    p.add_argument(
        "--cache-dir", default=".repro-cache",
        help="cache root; each tenant gets <root>/<tenant>/ — pass '' "
             "to disable persistence (default: .repro-cache)",
    )
    p.add_argument(
        "--timeout", type=float, default=0.0,
        help="per-run wall-clock timeout in seconds; 0 = none (default)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a sweep to a running 'repro serve' and fetch the report",
    )
    add_grid_args(p)
    p.add_argument(
        "--server", required=True, metavar="URL",
        help="base URL of the server, e.g. http://127.0.0.1:8731",
    )
    p.add_argument(
        "--tenant", default="",
        help="cache namespace, sent as the X-Repro-Tenant header "
             "(default: the server's shared namespace)",
    )
    p.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and exit instead of waiting for the report",
    )
    p.add_argument(
        "--wait-timeout", type=float, default=0.0,
        help="give up waiting after this many seconds (the job keeps "
             "running server-side); 0 = wait forever (default)",
    )
    p.add_argument(
        "--poll", type=float, default=0.25,
        help="status poll interval in seconds (default: 0.25)",
    )
    p.add_argument(
        "--http-timeout", type=float, default=30.0,
        help="per-request HTTP timeout in seconds (default: 30)",
    )
    p.add_argument(
        "-o", "--output", default="-",
        help="report path, or - for stdout (default: -)",
    )
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "profile",
        help="run one configuration under cProfile and print the top rows",
    )
    p.add_argument(
        "benchmark", help="registered benchmark, or @file for a workload spec"
    )
    p.add_argument(
        "--scheme", default="BASE",
        help="registered scheme name, or @file for a scheme spec",
    )
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-sms", type=int, default=12)
    p.add_argument("--memory", default="gddr5")
    p.add_argument(
        "--sort", default="cumulative",
        choices=["cumulative", "tottime", "calls", "ncalls", "time"],
        help="pstats sort key (default: cumulative)",
    )
    p.add_argument(
        "--limit", type=int, default=25,
        help="number of rows to print (default: 25)",
    )
    add_fidelity_arg(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "export-scheme", help="serialize a scheme's realized BIM to JSON"
    )
    p.add_argument(
        "scheme", help="registered scheme name, or @file for a scheme spec"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="scheme.json")
    p.set_defaults(func=_cmd_export_scheme)

    p = sub.add_parser(
        "import-scheme",
        help="validate a scheme file and emit its normalized spec JSON",
    )
    p.add_argument(
        "scheme_file",
        help="an exported scheme (export-scheme) or a scheme spec JSON",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "-o", "--output", default="-",
        help="spec path, or - for stdout (default: -)",
    )
    p.set_defaults(func=_cmd_import_scheme)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as error:
        # One shared failure path for every command: bad names, spec
        # files, merge mismatches, missing trace files — including
        # errors raised mid-run, after validation (e.g. a trace file
        # deleted since its spec was written).  RegistryError /
        # SpecError / MergeError are all ValueError subclasses.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except SweepFailure as failure:
        # simulate / profile are strict: a quarantined config (a run
        # that kept raising, e.g. on a corrupt trace file) is the
        # partial-success exit of `repro sweep`, without a report.
        print(f"error: {failure}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
