"""Smoke test of the performance benchmark on shrunken shapes.

Runs tiny sweep and serve passes in-process, untraced and traced,
through the harness's own functions, and checks that every metric
``BENCHMARK.json`` names is emitted with its unit, that self times are
sane, that tracing leaves report bytes unchanged, and that a wrong
reference digest counts as a failure.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import passes  # noqa: E402
from tracer import layer_totals  # noqa: E402

TINY_SWEEP = {"benchmarks": ["MT", "SP"], "schemes": ["PM", "PAE"],
              "scale": 0.05, "fidelity": "auto"}
TINY_ROUNDS = [
    [passes.serve_doc(0, 1) | {"scale": 0.05},
     passes.serve_doc(1, 1) | {"scale": 0.05}],
] * 2


@pytest.fixture(scope="module")
def sweep_runs(tmp_path_factory):
    work = tmp_path_factory.mktemp("sweep")
    return [passes.measure(passes.sweep_pass, TINY_SWEEP, work / name, traced)
            for name, traced in (("plain", False), ("traced", True))]


@pytest.fixture(scope="module")
def serve_runs(tmp_path_factory):
    work = tmp_path_factory.mktemp("serve")
    return [passes.measure(passes.serve_pass, TINY_ROUNDS, work / name, traced)
            for name, traced in (("plain", False), ("traced", True))]


def pinned(results):
    """A reference pinning the untraced pass's reports and HMEANs."""
    plain = results[0]
    return {"reports": {r["key"]: {"sha256": r["sha256"]}
                        for r in plain["reports"]},
            "fig12_hmean_exact": {str(plain.get("bim")): plain.get("hmean")}}


@pytest.mark.parametrize("runs", ["sweep_runs", "serve_runs"])
def test_every_declared_metric_is_emitted_with_its_unit(runs, request):
    plain, traced = request.getfixturevalue(runs)
    assert set(bench.end_to_end([plain])) == set(bench.declared("end_to_end"))
    assert set(bench.layer_values(traced, plain, 0.0)) == \
        set(bench.declared("per_layer"))
    reference = pinned([plain])
    for kind, results in (("end_to_end", [plain]),
                          ("per_layer", [plain, traced])):
        summary = bench.summarize("tiny", results, reference,
                                  traced=kind == "per_layer")
        assert summary["correct"], summary["problems"]
        assert {name: m["unit"] for name, m in summary["metrics"].items()} \
            == bench.declared(kind)
        assert all(isinstance(m["value"], (int, float))
                   for m in summary["metrics"].values())


def test_self_times_are_non_negative_and_within_the_traced_wall(sweep_runs):
    traced = sweep_runs[1]
    totals = layer_totals(traced["trace"])
    assert {"sim.engine", "gpu.llc", "dram.scheduler", "sim.plan"} <= set(totals)
    assert all(t["self_s"] >= -1e-9 for t in totals.values())
    spent = traced["wall_span"][1] - traced["setup_span"][0]
    assert sum(t["self_s"] for t in totals.values()) <= spent


def test_serve_workers_report_their_spans(serve_runs):
    trace = serve_runs[1]["trace"]
    assert trace["processes"] == 1 + passes.SERVE_SERVER["workers"]
    assert layer_totals(trace)["sim.engine"]["calls"] > 0


@pytest.mark.parametrize("runs", ["sweep_runs", "serve_runs"])
def test_tracing_leaves_reports_unchanged(runs, request):
    plain, traced = request.getfixturevalue(runs)

    def digests(result):  # serve jobs finish in any order
        return sorted((r["key"], r["sha256"]) for r in result["reports"])

    assert digests(traced) == digests(plain)


def test_a_wrong_reference_digest_fails_the_run(sweep_runs):
    reference = pinned(sweep_runs)
    for entry in reference["reports"].values():
        entry["sha256"] = "0" * 64
    summary = bench.summarize("tiny", sweep_runs[:1], reference, traced=False)
    assert not summary["correct"]
    assert summary["failed"] / summary["attempted"] > 0
