"""Tests for the serializable SchemeSpec / WorkloadSpec family and grid documents."""

import json

import numpy as np
import pytest

from repro.core.address_map import hynix_gddr5_map
from repro.core.gf2 import GF2Error
from repro.core.serialize import dump_scheme, scheme_to_dict
from repro.core.schemes import SCHEME_NAMES
from repro.registry import make_scheme
from repro.runner.config import RunConfig, SweepGrid
from repro.specs import SchemeSpec, SpecError, WorkloadSpec
from repro.workloads.io import save_workload
from repro.workloads.recipes import build_recipe_workload

AMAP = hynix_gddr5_map()
SAMPLE = np.arange(0, 1 << 30, 9176 * 128, dtype=np.uint64)[:4096]


class TestSchemeSpecRegistered:
    def test_name_normalized_and_compact(self):
        spec = SchemeSpec.registered("pae")
        assert spec.name == "PAE"
        assert spec.is_plain_name
        assert spec.compact() == "PAE"
        assert str(spec) == "PAE"

    def test_from_value_forms_agree(self):
        assert SchemeSpec.from_value("PAE") == SchemeSpec.registered("PAE")
        spec = SchemeSpec.registered("PAE")
        assert SchemeSpec.from_value(spec) is spec
        assert SchemeSpec.from_value(spec.to_dict()) == spec

    def test_reserved_params_rejected(self):
        # seed/scale live on RunConfig; name/kind/type are the envelope.
        with pytest.raises(SpecError, match="reserved"):
            SchemeSpec.registered("PAE", seed=5)
        with pytest.raises(SpecError, match="reserved"):
            SchemeSpec.registered("PAE", kind="bim")
        with pytest.raises(SpecError, match="reserved"):
            WorkloadSpec.registered("MT", scale=0.25)

    def test_unknown_params_rejected_at_build(self):
        # A typo'd param must not silently build the stock scheme under
        # a parameterized cache key.
        spec = SchemeSpec.registered("RMP", sorce_bits=[8, 9, 10, 11, 15, 16])
        with pytest.raises(ValueError, match="sorce_bits"):
            spec.build(AMAP)

    def test_params_break_plainness(self):
        spec = SchemeSpec.registered("RMP", source_bits=[8, 9, 10, 11, 15, 16])
        assert not spec.is_plain_name
        assert isinstance(spec.compact(), dict)
        built = spec.build(AMAP)
        assert built.metadata["source_bits"] == (8, 9, 10, 11, 15, 16)

    def test_bad_kind_rejected(self):
        with pytest.raises(SpecError, match="kind"):
            SchemeSpec("nope", "X")

    def test_malformed_documents_raise_spec_error(self):
        # Missing fields and non-object payloads must surface as
        # SpecError (clean CLI error), never a bare KeyError.
        with pytest.raises(SpecError, match="name"):
            SchemeSpec.from_dict({"type": "scheme_spec", "kind": "registered"})
        with pytest.raises(SpecError, match="name"):
            WorkloadSpec.from_dict({"type": "workload_spec"})
        with pytest.raises(SpecError, match="object"):
            SchemeSpec.from_dict(["not", "a", "dict"])
        with pytest.raises(SpecError, match="benchmarks"):
            SweepGrid.from_dict({"type": "scenario_spec", "schemes": ["PAE"]})
        with pytest.raises(SpecError, match="list"):
            SweepGrid.from_dict({"type": "scenario_spec",
                                 "benchmarks": "SP", "schemes": ["PAE"]})
        with pytest.raises(SpecError, match="seeds"):
            SweepGrid.from_dict({"type": "scenario_spec",
                                 "benchmarks": ["SP"], "schemes": ["PAE"],
                                 "seeds": 3})
        # Malformed integers are refused, never truncated to a run.
        for field, value in (("n_sms", [2.5]), ("window", 2.5),
                             ("seeds", [True]), ("seeds", ["1"]),
                             ("n_sms", [12.0])):
            with pytest.raises(SpecError, match="must be an integer"):
                SweepGrid.from_dict({"type": "scenario_spec",
                                     "benchmarks": ["SP"],
                                     "schemes": ["PAE"], field: value})
        with pytest.raises(SpecError, match="hex"):
            SchemeSpec.from_dict({"type": "scheme_spec", "kind": "bim",
                                  "name": "N", "width": 2, "rows": [1, 2]})
        with pytest.raises(SpecError, match="width"):
            SchemeSpec.from_dict({"type": "mapping_scheme", "name": "X",
                                  "rows": ["0x1"]})


class TestSchemeSpecBim:
    def test_snapshot_maps_identically(self):
        for name in SCHEME_NAMES:
            scheme = make_scheme(name, AMAP, seed=0)
            spec = SchemeSpec.from_scheme(scheme)
            rebuilt = spec.build(AMAP)
            np.testing.assert_array_equal(
                np.asarray(scheme.map(SAMPLE)), np.asarray(rebuilt.map(SAMPLE))
            )
            assert rebuilt.extra_latency_cycles == scheme.extra_latency_cycles

    def test_dict_round_trip_preserves_hash(self):
        spec = SchemeSpec.from_scheme(make_scheme("FAE", AMAP, seed=2))
        again = SchemeSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()

    def test_accepts_exported_scheme_documents(self):
        scheme = make_scheme("PM", AMAP)
        spec = SchemeSpec.from_dict(scheme_to_dict(scheme))
        assert spec.kind == "bim"
        np.testing.assert_array_equal(
            np.asarray(spec.build(AMAP).map(SAMPLE)),
            np.asarray(scheme.map(SAMPLE)),
        )

    def test_width_mismatch_rejected(self):
        spec = SchemeSpec.from_rows("W4", ["0x1", "0x2", "0x4", "0x8"], 4)
        with pytest.raises(SpecError, match="width"):
            spec.build(AMAP)

    def test_singular_matrix_rejected_at_build(self):
        rows = ["0x0"] * AMAP.width  # all-zero: not invertible
        spec = SchemeSpec.from_rows("BAD", rows, AMAP.width)
        with pytest.raises(ValueError):
            spec.build(AMAP)


class TestExportImportRoundTrip:
    """Satellite: export-scheme -> import-scheme -> identical cache key
    and identical mapped addresses, for all six built-ins plus a
    custom-BIM spec."""

    def _round_trip(self, tmp_path, scheme):
        path = tmp_path / f"{scheme.name}.json"
        dump_scheme(scheme, path)  # export
        spec = SchemeSpec.from_file(path)  # import
        # Export the imported spec again and re-import: identical spec.
        again_path = tmp_path / f"{scheme.name}.2.json"
        dump_scheme(spec.build(AMAP), again_path)
        spec2 = SchemeSpec.from_file(again_path)
        assert spec2 == spec
        # Identical cache keys through RunConfig...
        key1 = RunConfig("MT", spec, scale=0.5).config_hash()
        key2 = RunConfig("MT", spec2, scale=0.5).config_hash()
        assert key1 == key2
        # ...and identical mapped addresses vs the original scheme.
        np.testing.assert_array_equal(
            np.asarray(scheme.map(SAMPLE)),
            np.asarray(spec.build(AMAP).map(SAMPLE)),
        )

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_builtins(self, tmp_path, name):
        self._round_trip(tmp_path, make_scheme(name, AMAP, seed=1))

    def test_custom_bim(self, tmp_path):
        custom = SchemeSpec.stages("CUSTOM", [
            {"op": "xor", "target": 8, "sources": [20, 24]},
            {"op": "swap", "a": 9, "b": 22},
        ]).build(AMAP)
        self._round_trip(tmp_path, custom)


class TestSchemeSpecStages:
    def test_xor_stage_semantics(self):
        spec = SchemeSpec.stages("X1", [
            {"op": "xor", "target": 8, "sources": [20]},
        ])
        scheme = spec.build(AMAP)
        assert int(scheme.map(1 << 20)) == (1 << 20) | (1 << 8)
        assert int(scheme.map(1 << 8)) == 1 << 8

    def test_stage_order_composes(self):
        # Swap 8<->20 first, then XOR bit 20 into 9: the XOR sees the
        # swapped value (original bit 8).
        spec = SchemeSpec.stages("X2", [
            {"op": "swap", "a": 8, "b": 20},
            {"op": "xor", "target": 9, "sources": [20]},
        ])
        scheme = spec.build(AMAP)
        assert int(scheme.map(1 << 8)) == (1 << 20) | (1 << 9)

    def test_permute_stage(self):
        sources = list(range(AMAP.width))
        sources[8], sources[21] = 21, 8
        scheme = SchemeSpec.stages("P1", [
            {"op": "permute", "sources": sources},
        ]).build(AMAP)
        assert int(scheme.map(1 << 21)) == 1 << 8
        assert scheme.unmap(scheme.map(12345 * 128)) == 12345 * 128

    def test_block_bits_protected(self):
        with pytest.raises(SpecError, match="block"):
            SchemeSpec.stages("B1", [
                {"op": "xor", "target": 8, "sources": [0]},
            ]).build(AMAP)
        with pytest.raises(SpecError, match="block"):
            SchemeSpec.stages("B2", [
                {"op": "swap", "a": 2, "b": 20},
            ]).build(AMAP)

    def test_singular_pipeline_rejected(self):
        with pytest.raises(SpecError, match="singular"):
            SchemeSpec.stages("S1", [
                {"op": "xor", "target": 8, "sources": [8]},
            ]).build(AMAP)

    def test_bad_stage_shapes_rejected(self):
        with pytest.raises(SpecError, match="op"):
            SchemeSpec.stages("S2", [{"op": "rotate", "by": 3}])
        with pytest.raises(SpecError, match="permutation"):
            SchemeSpec.stages("S3", [
                {"op": "permute", "sources": [0] * AMAP.width},
            ]).build(AMAP)

    def test_missing_stage_fields_raise_spec_error(self):
        # Missing target/a/b or a non-list sources must be SpecError
        # (clean CLI error), never an int(None) TypeError.
        with pytest.raises(SpecError, match="integer"):
            SchemeSpec.stages("S4", [{"op": "xor", "sources": [20]}]).build(AMAP)
        with pytest.raises(SpecError, match="sources"):
            SchemeSpec.stages("S5", [{"op": "xor", "target": 8}]).build(AMAP)
        with pytest.raises(SpecError, match="sources"):
            SchemeSpec.stages("S6", [
                {"op": "xor", "target": 8, "sources": 20},
            ]).build(AMAP)
        with pytest.raises(SpecError, match="integer"):
            SchemeSpec.stages("S7", [{"op": "swap", "a": 8}]).build(AMAP)

    @pytest.mark.parametrize("bad", [8.7, 8.0, "8", True], ids=repr)
    @pytest.mark.parametrize("role", ["target", "source", "swap", "permute"])
    def test_non_integer_bit_rejected_at_construction(self, role, bad):
        """A bit index is an integer: 8.7 used to XOR into bit 8 under a
        cache key of its own, and ``"8"``, ``8.0`` and ``true`` (bit 1)
        were coerced the same way."""
        stage = {
            "target": {"op": "xor", "target": bad, "sources": [20]},
            "source": {"op": "xor", "target": 8, "sources": [20, bad]},
            "swap": {"op": "swap", "a": 9, "b": bad},
            "permute": {"op": "permute",
                        "sources": [bad] + list(range(1, AMAP.width))},
        }[role]
        with pytest.raises(SpecError, match="must be an integer"):
            SchemeSpec.from_dict({"type": "scheme_spec", "kind": "stages",
                                  "name": "F", "stages": [stage]})

    def test_out_of_range_bit_rejected_when_the_config_is_built(self):
        """Range needs the memory's address map, so a config checks it
        before any run instead of the run failing inside a worker."""
        spec = SchemeSpec.stages("WIDE", [
            {"op": "xor", "target": 200, "sources": [20]},
        ])
        for memory in ("gddr5", "stacked"):
            with pytest.raises(SpecError, match="outside"):
                RunConfig(benchmark="SP", scheme=spec, memory=memory)
        with pytest.raises(SpecError, match="singular"):
            SweepGrid(benchmarks=("SP",), schemes=(SchemeSpec.stages("S", [
                {"op": "xor", "target": 8, "sources": [8]},
            ]),)).configs()
        # A literal matrix: its width must be the map's, and a singular
        # one is refused too, whichever memory it is swept on.
        pae = SchemeSpec.from_scheme(make_scheme("PAE", AMAP))
        RunConfig(benchmark="SP", scheme=pae, memory="gddr5")
        with pytest.raises(SpecError, match="width 30 does not match"):
            RunConfig(benchmark="SP", scheme=pae, memory="stacked")
        rows = list(pae.data["rows"])
        rows[1] = rows[0]
        singular = SchemeSpec.from_rows("SING", rows, pae.data["width"])
        with pytest.raises(GF2Error, match="not invertible"):
            SweepGrid(benchmarks=("SP",), schemes=(singular,)).configs()

    def test_integer_bit_documents_keep_their_cache_keys(self):
        spec = SchemeSpec.from_dict({
            "type": "scheme_spec", "kind": "stages", "name": "MYX",
            "stages": [{"op": "xor", "target": 8, "sources": [20, 24]},
                       {"op": "swap", "a": 9, "b": 22}],
            "extra_latency_cycles": 1,
        })
        assert spec.spec_hash() == (
            "2797a70c1b54e602cce73d3f645bdf76f064caa0993c85ade6495141e461caf0"
        )
        assert RunConfig(benchmark="SP", scheme=spec,
                         scale=0.25).config_hash() == (
            "bf6f17b678724f00b7a1cccebcd3274c7e1c4b76ab9731ea1331ea5d70f5ead0"
        )


class TestWorkloadSpec:
    RECIPE = {
        "instructions_per_request": 80,
        "expected_valley": True,
        "kernels": [
            {"pattern": "column_walk", "tbs": 8, "pitch": 4096,
             "rows": 12, "col_byte": 256, "gap": 4},
            {"pattern": "row_segment", "tbs": 4, "width": 1024},
        ],
    }

    def test_registered_round_trip(self):
        spec = WorkloadSpec.registered("mt")
        assert spec.compact() == "MT"
        assert WorkloadSpec.from_value("MT") == spec
        workload = spec.build(scale=0.25)
        assert workload.abbreviation == "MT"

    def test_pattern_recipe_builds_and_scales(self):
        spec = WorkloadSpec.pattern("CW", self.RECIPE)
        workload = spec.build(scale=1.0)
        assert workload.n_tbs == 12
        assert workload.expected_valley
        assert workload.apki == pytest.approx(1000 / 80)
        half = spec.build(scale=0.5)
        assert half.n_tbs == 6
        # Deterministic: same spec, same addresses.
        a = spec.build(scale=0.5).kernels[0].tbs[0].addresses
        np.testing.assert_array_equal(a, half.kernels[0].tbs[0].addresses)

    def test_pattern_recipe_matches_direct_builder(self):
        spec = WorkloadSpec.pattern("CW", self.RECIPE)
        direct = build_recipe_workload("CW", self.RECIPE, scale=1.0)
        built = spec.build(scale=1.0)
        assert built.n_requests == direct.n_requests

    def test_bad_recipe_rejected(self):
        with pytest.raises(ValueError, match="pattern"):
            WorkloadSpec.pattern("BAD", {"kernels": [{"pattern": "mystery"}]})
        with pytest.raises(ValueError, match="kernels"):
            WorkloadSpec.pattern("BAD", {})

    def test_typod_recipe_params_rejected(self):
        # A typo'd kernel param would silently build the default
        # workload under a distinct cache identity — reject it instead.
        with pytest.raises(ValueError, match="widht"):
            WorkloadSpec.pattern("BAD", {
                "kernels": [
                    {"pattern": "row_segment", "tbs": 2, "widht": 65536},
                ],
            })
        with pytest.raises(ValueError, match="recipe key"):
            WorkloadSpec.pattern("BAD", {
                "kernels": [{"pattern": "row_segment", "tbs": 2}],
                "instructions_per_reqest": 80,
            })

    def test_trace_spec_round_trip(self, tmp_path):
        workload = build_recipe_workload("TR", self.RECIPE, scale=0.5)
        path = tmp_path / "trace.npz"
        save_workload(workload, path)
        spec = WorkloadSpec.trace(path, name="TR")
        loaded = spec.build()
        assert loaded.n_requests == workload.n_requests
        np.testing.assert_array_equal(
            loaded.kernels[0].tbs[0].addresses,
            workload.kernels[0].tbs[0].addresses,
        )

    def test_trace_identity_ignores_path(self, tmp_path):
        workload = build_recipe_workload("TR", self.RECIPE, scale=0.5)
        a = tmp_path / "a" / "trace.npz"
        b = tmp_path / "b" / "moved.npz"
        a.parent.mkdir()
        b.parent.mkdir()
        save_workload(workload, a)
        b.write_bytes(a.read_bytes())
        spec_a = WorkloadSpec.trace(a, name="TR")
        spec_b = WorkloadSpec.trace(b, name="TR")
        assert spec_a != spec_b  # different retrieval hints...
        key_a = RunConfig(spec_a, "PAE").config_hash()
        key_b = RunConfig(spec_b, "PAE").config_hash()
        assert key_a == key_b  # ...same cache identity (content hash)

    def test_trace_digest_mismatch_rejected(self, tmp_path):
        workload = build_recipe_workload("TR", self.RECIPE, scale=0.5)
        path = tmp_path / "trace.npz"
        save_workload(workload, path)
        spec = WorkloadSpec.trace(path, name="TR", sha256="0" * 64)
        with pytest.raises(SpecError, match="refusing"):
            spec.build()


class TestScenarioSpec:
    """Scenario spec files: the grid documents ``SweepGrid.from_dict`` parses."""

    def test_round_trip_and_grid(self, tmp_path):
        custom = SchemeSpec.stages(
            "MYX", [{"op": "xor", "target": 8, "sources": [20, 21]}]
        )
        grid = SweepGrid(
            benchmarks=("SP",),
            schemes=("PAE", custom),
            scale=0.25,
        )
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(grid.to_dict()))
        loaded = SweepGrid.from_dict(json.loads(path.read_text()))
        assert loaded == grid
        assert {c.scheme_name for c in loaded.configs()} == {"BASE", "PAE", "MYX"}
        assert loaded.scale == 0.25

    def test_grid_matches_equivalent_flag_grid(self):
        document = {"type": "scenario_spec", "benchmarks": ["MT", "SP"],
                    "schemes": ["PM"], "scale": 0.5, "window": 8}
        flags = SweepGrid(benchmarks=("MT", "SP"), schemes=("PM",),
                          scale=0.5, window=8)
        assert SweepGrid.from_dict(document) == flags

    def test_empty_axes_rejected(self):
        with pytest.raises(SpecError):
            SweepGrid.from_dict({"benchmarks": [], "schemes": ["PAE"]})

    def test_missing_axes_take_the_defaults(self):
        grid = SweepGrid.from_dict({"benchmarks": ["MT"], "schemes": ["PAE"]})
        assert (grid.seeds, grid.n_sms, grid.memories) == ((0,), (12,), ("gddr5",))
        assert (grid.scale, grid.window, grid.fidelity) == (1.0, 12, "exact")
        assert SweepGrid.from_dict(dict(grid.to_dict(), scale=1)).scale == 1.0

    def test_old_spec_file_sweeps_like_the_flag_grid(self):
        # An old-format spec file: the type tag and every axis written out.
        document = {"type": "scenario_spec", "benchmarks": ["MT"],
                    "schemes": ["PAE"], "seeds": [0], "n_sms": [12],
                    "memories": ["gddr5"], "scale": 0.25, "window": 12}
        flags = SweepGrid(benchmarks=("MT",), schemes=("PAE",), scale=0.25)
        grid = SweepGrid.from_dict(document)
        assert grid.to_dict() == flags.to_dict()
        assert [c.config_hash() for c in grid.configs()] == [
            c.config_hash() for c in flags.configs()
        ]

    @pytest.mark.parametrize("document,message", [
        (["MT"], "JSON object"),
        ({"type": "workload_spec", "benchmarks": ["MT"], "schemes": ["PAE"]},
         "type='workload_spec'"),
        ({"benchmarks": ["MT"], "schemes": ["PAE"], "scales": 0.25},
         "unknown sweep grid key 'scales'"),
        ({"benchmarks": ["MT"], "schemes": ["PAE"], "scale": True},
         "scale must be a real number"),
        ({"benchmarks": ["MT"], "schemes": ["PAE"], "scale": "0.25"},
         "scale must be a real number"),
        ({"benchmarks": ["MT"], "schemes": ["PAE"], "scale": 10 ** 400},
         "too large"),
        ({"benchmarks": ["MT"], "schemes": ["PAE"], "fidelity": "fast"},
         "unknown fidelity"),
        ({"benchmarks": ["MT"], "schemes": ["PAE"], "fidelity": 3},
         "fidelity must be a string or dict"),
    ], ids=["not-object", "other-type", "unknown-key", "bool-scale",
            "string-scale", "huge-scale", "bad-fidelity", "int-fidelity"])
    def test_malformed_documents_raise_spec_error(self, document, message):
        with pytest.raises(SpecError, match=message):
            SweepGrid.from_dict(document)
