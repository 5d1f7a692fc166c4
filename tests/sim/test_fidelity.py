"""Fidelity modes: parsing, serialization, exact parity, auto runs."""

import numpy as np
import pytest

from repro.core import hynix_gddr5_map
from repro.registry import make_scheme, make_workload
from repro.runner.config import RunConfig
from repro.sim.fidelity import (
    AUTO,
    BIG_KERNEL_OPS,
    EXACT,
    fidelity_to_json,
    parse_fidelity,
)
from repro.sim.auto import Auto, SampledAccounting, plan_auto
from repro.sim.gpu_system import GPUSystem, simulate
from repro.specs import SchemeSpec, WorkloadSpec
from repro.workloads.base import KernelTrace, Workload
from repro.workloads.patterns import make_tb

AMAP = hynix_gddr5_map()


def small_workload(scale=0.25, name="MT"):
    return make_workload(name, scale=scale)


def fresh_system(scheme_name="BASE"):
    return GPUSystem(make_scheme(scheme_name, AMAP))


def run_auto(system, workload):
    return system.run(workload, auto=Auto.standalone(workload, AMAP))


class TestParsing:
    def test_exact_forms(self):
        assert parse_fidelity(None) == EXACT
        assert parse_fidelity("exact") == EXACT
        assert parse_fidelity("  EXACT ") == EXACT
        assert parse_fidelity("") == EXACT

    def test_dict_form(self):
        """A dict may spell out some of auto's fixed values, or none."""
        assert parse_fidelity({"kind": "auto"}) == AUTO
        data = {"kind": "auto", "exemplars": 2, "tail_frac": 0.3}
        assert parse_fidelity(data) == AUTO

    def test_passthrough(self):
        assert parse_fidelity(AUTO) is AUTO
        assert parse_fidelity(EXACT) is EXACT

    @pytest.mark.parametrize(
        "bad",
        [
            "bogus",
            "auto:",  # params promised but none given
            "auto:oops=1",
            # There is no sampled mode: its string and dict forms are
            # errors, never a silent fallback to some default.
            "sampled",
            "sampled:",
            "sampled: , ,",
            "sampled:oops=3",
            "sampled:warmup=x",
            "sampled:warmup=1,window=2,period=16",
            pytest.param(
                {"kind": "sampled", "warmup": 1, "window": 2, "period": 16},
                id="sampled-dict",
            ),
        ],
    )
    def test_bad_strings(self, bad):
        with pytest.raises(ValueError):
            parse_fidelity(bad)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            parse_fidelity(3.14)

    def test_validation(self):
        """A dict value other than auto's fixed one is rejected."""
        with pytest.raises(ValueError):
            parse_fidelity({"kind": "auto", "exemplars": 0})
        with pytest.raises(ValueError):
            parse_fidelity({"kind": "auto", "freeze_frac": 0.99})

    def test_json_round_trip(self):
        assert parse_fidelity(fidelity_to_json(AUTO)) == AUTO
        assert fidelity_to_json(EXACT) == "exact"

    def test_str_form_round_trips(self):
        assert parse_fidelity(str(AUTO)) == AUTO


class TestExactParity:
    def test_exact_is_default_and_identical(self):
        """simulate() with fidelity='exact' matches the plain run() exactly."""
        workload = small_workload()
        default = fresh_system().run(workload)
        explicit = simulate(workload, make_scheme("BASE", AMAP), fidelity="exact")
        assert default.to_dict() == explicit.to_dict()

    def test_exact_metadata_has_no_fidelity_key(self):
        result = fresh_system().run(small_workload())
        assert "fidelity" not in result.metadata
        assert "sampled" not in result.metadata


class TestAutoParsing:
    def test_auto_default(self):
        assert parse_fidelity("auto") == AUTO == "auto"
        assert parse_fidelity(" AUTO ") == AUTO

    def test_auto_with_params(self):
        """Auto has no parameters to set: the ``auto:k=v`` form is an error."""
        with pytest.raises(ValueError, match="unknown fidelity"):
            parse_fidelity("auto:exemplars=3,big_kernel_ops=512")

    def test_auto_json_round_trip(self):
        data = fidelity_to_json(AUTO)
        assert data == {
            "kind": "auto", "exemplars": 2, "big_kernel_ops": 2048,
            "min_freeze_ops": 4096, "warmup_frac": 0.2, "freeze_frac": 0.5,
            "tail_frac": 0.3,
        }
        assert parse_fidelity(data) == AUTO

    def test_validation(self):
        """Each parameter is fixed: any other value fails naming its key."""
        for key, value in fidelity_to_json(AUTO).items():
            if key != "kind":
                with pytest.raises(ValueError, match=key):
                    parse_fidelity({"kind": "auto", key: value * 2})

    def test_integral_float_accepted(self):
        data = {"kind": "auto", "exemplars": 2.0, "min_freeze_ops": 4096.0}
        assert parse_fidelity(data) == AUTO

    @pytest.mark.parametrize(
        "key,value",
        [
            ("exemplar", 3),  # typo of a real key
            ("period", 16),  # not an auto parameter
            ("exemplars", 2.9),
            ("exemplars", True),
            ("big_kernel_ops", "512"),
            ("min_freeze_ops", False),
            ("min_freeze_ops", None),
            ("tail_frac", True),
            ("warmup_frac", "0.1"),
        ],
    )
    def test_dict_rejects_typos_and_bad_types(self, key, value):
        """A malformed dict fails naming its key, never defaulting: the
        cache key must come from values the user asked for."""
        with pytest.raises(ValueError, match=key):
            parse_fidelity({"kind": "auto", key: value})


class TestAutoRuns:
    def test_deterministic(self):
        workload = small_workload(name="SC")
        first = run_auto(fresh_system("PAE"), workload)
        second = run_auto(fresh_system("PAE"), workload)
        assert first.to_dict() == second.to_dict()

    def test_metadata_records_auto_plan(self):
        """SC repeats a kernel even at scale 0.25, so auto estimates >= 1."""
        result = run_auto(fresh_system(), small_workload(name="SC"))
        assert result.metadata["fidelity"]["kind"] == "auto"
        sampled = result.metadata["sampled"]
        assert sampled["estimated_kernels"] >= 1
        assert sampled["ff_requests"] > 0

    def test_requests_conserved(self):
        """Every request still passes an L1 (detailed or replayed)."""
        workload = small_workload(name="SC")
        exact = fresh_system().run(workload)
        auto = run_auto(fresh_system(), workload)
        assert auto.requests == exact.requests

    def test_single_use_still_enforced(self):
        workload = small_workload(name="SC")
        system = fresh_system()
        run_auto(system, workload)
        with pytest.raises(RuntimeError):
            run_auto(system, workload)


class TestPlan:
    """The plan decides every kernel's fate: its action, the class tier
    an estimate draws on, whether it freezes and whether it replays."""

    @pytest.mark.parametrize("name,scale,expected", [
        # Kernels under MIN_FREEZE_OPS never freeze; the estimate
        # after the last measured kernel does not replay.
        ("SC", 0.5, [
            ("cold", None, False, False), ("measure", None, False, False),
            ("estimate", "shape", False, True),
            ("estimate", "shape", False, True),
            ("measure", None, False, False),
            ("estimate", "shape", False, False),
        ]),
        # Cold kernel 0 freezes; measured kernel 1 seeds both estimates,
        # so it runs unfrozen.
        ("SRAD2", 1.0, [
            ("cold", None, True, False), ("measure", None, False, False),
            ("estimate", "shape", False, False),
            ("estimate", "content", False, False),
        ]),
    ], ids=["SC-0.5", "SRAD2-1.0"])
    def test_plan_records_each_kernels_fate(self, name, scale, expected):
        plan = plan_auto(small_workload(scale=scale, name=name), AMAP)
        assert [
            (entry.action, entry.source and entry.source[0], entry.freeze,
             entry.replay)
            for entry in plan
        ] == expected


class TestAccuracyRegression:
    """Pin drift-corrected approximation error against exact runs.

    SC repeats kernels at every scale, so the auto per-kernel
    estimator is exercised.  The band is a generous multiple of the
    currently measured error (<= 1.3% on these points) so it fails on
    regressions, not on noise — auto runs are fully deterministic.
    """

    @pytest.mark.parametrize("scheme", ["BASE", "PAE"])
    @pytest.mark.parametrize("scale", [0.25, 0.5])
    def test_auto_tracks_exact(self, scheme, scale):
        workload = small_workload(scale=scale, name="SC")
        exact = fresh_system(scheme).run(workload)
        auto = run_auto(fresh_system(scheme), workload)
        error = abs(auto.cycles / exact.cycles - 1.0)
        assert error < 0.03, f"auto off by {error:.1%} (SC {scheme} @ {scale})"


def one_op_workload():
    """A degenerate workload: one kernel, one TB, one warp, one read."""
    kernel = KernelTrace("k0", (make_tb(0, [64], gap=0),))
    return Workload("one-op", "OO", (kernel,), expected_valley=False)


class TestDegenerateKernels:
    """Tiny kernels must fall back to exact accounting, not crash."""

    @pytest.mark.parametrize("fidelity", [AUTO], ids=["auto"])
    def test_one_op_kernel_matches_exact(self, fidelity):
        exact = fresh_system().run(one_op_workload())
        approx = simulate(one_op_workload(), make_scheme("BASE", AMAP),
                          fidelity=fidelity)
        assert approx.cycles == exact.cycles
        sampled = approx.metadata["sampled"]
        assert sampled["ff_requests"] == 0
        assert sampled["estimated_kernels"] == 0

    def test_frozen_kernel_refuses_a_window_without_traffic(self):
        """A freeze fires only once its window completed a request in a
        cycle; a window without one has no rate to extrapolate at."""
        for cycles, requests in ((100, 0), (0, 50)):
            accounting = SampledAccounting()
            with pytest.raises(ValueError, match="window needs traffic"):
                accounting.record_frozen_kernel(
                    cycles, requests, [], 10, 0, None
                )
            assert accounting.extrapolated_cycles() == 0

    def test_negative_estimates_rejected(self):
        accounting = SampledAccounting()
        with pytest.raises(ValueError):
            accounting.record_estimated_kernel(-1, 10.0)


class TestCacheKeys:
    """Fidelity must be part of the run identity — except exact, which
    keeps byte-parity with pre-fidelity configs."""

    def config(self, **kwargs):
        return RunConfig(
            benchmark=WorkloadSpec.from_value("MT"),
            scheme=SchemeSpec.from_value("BASE"),
            scale=0.25,
            **kwargs,
        )

    def test_auto_hash_distinct_from_exact(self):
        hashes = {
            self.config().config_hash(),
            self.config(fidelity="auto").config_hash(),
        }
        assert len(hashes) == 2

    def test_exact_dict_omits_fidelity(self):
        assert "fidelity" not in self.config().to_dict()

    def test_auto_round_trips_through_dict(self):
        data = self.config(fidelity=AUTO).to_dict()
        assert data["fidelity"]["big_kernel_ops"] == BIG_KERNEL_OPS
        restored = RunConfig.from_dict(data)
        assert restored.fidelity == AUTO
        assert restored.config_hash() == self.config(fidelity=AUTO).config_hash()
