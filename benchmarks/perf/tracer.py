"""Layer tracer for the performance benchmark.

The tracer measures each simulator layer from outside the program: it
replaces a layer's public functions and methods with timing wrappers
and accounts every wrapped call's *self time* (its span minus the time
covered by wrapped calls nested inside it).  Nothing under ``src/`` is
edited.

Wrappers must be installed before any system is built: components
pre-bind callbacks at construction (the engine's closure-free fast
path), and those bound methods then capture the wrapped versions.

Hot callbacks are aggregated per ``(layer, parent layer)``.  Coarse
per-config spans (``RunContext.execute``) are also kept one by one,
tagged with the config's cache key.  State is per thread, because the
service workload runs job, HTTP and client threads at once.  Forked
pool workers (the service's process pool) start from an empty state
and dump it to a file when they exit; :meth:`Tracer.collect` merges
those files with the calling process's own state.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Dict, List, Tuple

# (layer, module, attribute).  An attribute with a dot is a method of a
# class defined in that module; without one it is a module-level
# binding, patched exactly where callers look it up.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("sim.engine", "repro.sim.engine", "Engine.run"),
    ("gpu.sm", "repro.gpu.sm", "SM.on_fill"),
    ("gpu.sm", "repro.gpu.sm", "SM.assign_tb"),
    ("gpu.llc", "repro.gpu.llc", "LLCSlice.on_read"),
    ("gpu.llc", "repro.gpu.llc", "LLCSlice.on_write"),
    ("gpu.llc", "repro.gpu.llc", "LLCSlice.on_dram_fill"),
    ("gpu.noc", "repro.gpu.noc", "Crossbar.send"),
    ("dram.system", "repro.dram.system", "DRAMSystem.submit_many"),
    ("dram.scheduler", "repro.dram.scheduler", "FRFCFSScheduler.select"),
    ("dram.bank", "repro.dram.bank", "Bank.access"),
    ("core.decode", "repro.sim.gpu_system", "decode_fields"),
    ("core.map", "repro.core.schemes", "MappingScheme.map"),
    ("sim.gpu_system", "repro.sim.gpu_system", "GPUSystem.run"),
    ("sim.replay", "repro.sim.replay", "replay_ops"),
    ("sim.replay.stream_build", "repro.sim.replay", "build_kernel_stream"),
    ("sim.plan", "repro.runner.worker", "RunContext.auto_plan"),
    ("runner.state_cache.get", "repro.runner.state_cache", "StateCache.get"),
    ("runner.state_cache.put", "repro.runner.state_cache", "StateCache.put"),
    ("workloads.build", "repro.runner.worker", "RunContext.workload"),
    ("core.scheme_build", "repro.runner.worker", "RunContext.scheme"),
    ("runner.run", "repro.runner.worker", "RunContext.execute"),
    ("runner.cache.get", "repro.runner.cache", "ResultCache.get"),
    ("runner.cache.put", "repro.runner.cache", "ResultCache.put"),
    ("runner.sweep", "repro.runner.sweep", "SweepRunner.run_outcomes"),
    ("runner.report.build", "repro.runner.report", "report_from_results"),
    ("runner.report.build", "repro.serve.jobs", "report_from_results"),
    ("runner.report.render", "repro.runner.report", "render_report"),
    ("runner.report.render", "repro.serve.jobs", "render_report"),
)

# Layers whose spans are also kept one by one, keyed by the config's
# cache key (the wrapped call's first argument after ``self``).
COARSE = {"runner.run"}

# Aggregate record: [calls, total seconds, self seconds].
Aggregate = Dict[Tuple[str, str], List[float]]


class _ThreadState:
    __slots__ = ("stack", "agg", "spans")

    def __init__(self) -> None:
        self.stack: List[list] = []  # open frames: [layer, child seconds]
        self.agg: Aggregate = {}
        self.spans: List[dict] = []


class Tracer:
    """Installs the layer wrappers and accounts their self time.

    *dump_dir* receives one ``spans-<pid>.json`` per forked worker
    process at its exit; :meth:`collect` reads them back.
    """

    def __init__(self, dump_dir) -> None:
        self.dump_dir = Path(dump_dir)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- per-thread state ------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _after_fork(self) -> None:
        """In a forked worker: drop the parent's spans, dump at exit."""
        self._lock = threading.Lock()
        state = _ThreadState()
        self._local.state = state
        self._states = [state]
        mp_util.Finalize(self, self._dump, exitpriority=10)

    def _dump(self) -> None:
        agg, spans = self._merged()
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps({"agg": _rows(agg), "spans": spans}))

    # -- wrapping --------------------------------------------------------
    def span(self, layer: str, fn, key_of=None):
        """*fn* wrapped so each call is accounted under *layer*."""
        clock = time.perf_counter
        state_of = self._state
        origin = self._origin

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            parent = stack[-1][0] if stack else ""
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = state.agg.get((layer, parent))
                if record is None:
                    record = state.agg[(layer, parent)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                if key_of is not None:
                    state.spans.append({
                        "layer": layer,
                        "parent": parent,
                        "key": key_of(*args),
                        "start": start - origin,
                        "seconds": elapsed,
                    })

        return traced

    def install(self) -> None:
        """Wrap every :data:`WRAPPED` attribute (imports ``repro``).

        Every module is imported before any is patched, so a module
        that imports a function by name binds the original, not a
        wrapper that would then be wrapped twice.
        """
        for _layer, module_name, _attribute in WRAPPED:
            importlib.import_module(module_name)
        for layer, module_name, attribute in WRAPPED:
            owner = importlib.import_module(module_name)
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
            original = getattr(owner, attribute)
            key_of = _config_key if layer in COARSE else None
            setattr(owner, attribute, self.span(layer, original, key_of))
            self._patches.append((owner, attribute, original))
        mp_util.register_after_fork(self, Tracer._after_fork)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (in-process callers, tests)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results ---------------------------------------------------------
    def _merged(self) -> Tuple[Aggregate, List[dict]]:
        with self._lock:
            states = list(self._states)
        agg: Aggregate = {}
        spans: List[dict] = []
        for state in states:
            _merge(agg, state.agg)
            spans.extend(state.spans)
        return agg, spans

    def collect(self) -> dict:
        """This process's spans merged with every worker dump so far."""
        agg, spans = self._merged()
        processes = 1
        for path in sorted(self.dump_dir.glob("spans-*.json")):
            dumped = json.loads(path.read_text())
            _merge(agg, {(r[0], r[1]): r[2:] for r in dumped["agg"]})
            spans.extend(dumped["spans"])
            processes += 1
        return {"agg": _rows(agg), "spans": spans, "processes": processes}


def _config_key(context, config, *rest) -> str:
    return config.config_hash()


def _rows(agg: Aggregate) -> List[list]:
    """JSON rows ``[layer, parent, calls, total_s, self_s]``, sorted."""
    return [[layer, parent, *record]
            for (layer, parent), record in sorted(agg.items())]


def _merge(into: Aggregate, other: Aggregate) -> None:
    for key, (calls, total, self_s) in other.items():
        record = into.setdefault(key, [0, 0.0, 0.0])
        record[0] += calls
        record[1] += total
        record[2] += self_s


def layer_totals(trace: dict) -> Dict[str, Dict[str, float]]:
    """``layer -> {calls, total_s, self_s}`` summed over parents."""
    totals: Dict[str, Dict[str, float]] = {}
    for layer, _parent, calls, total, self_s in trace["agg"]:
        entry = totals.setdefault(
            layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += calls
        entry["total_s"] += total
        entry["self_s"] += self_s
    return totals
