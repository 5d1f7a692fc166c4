"""Tests for the scheme/workload registries and the memory kinds."""

import numpy as np
import pytest

from repro import registry
from repro.core.address_map import hynix_gddr5_map
from repro.core.bim import BinaryInvertibleMatrix
from repro.core.schemes import SCHEME_NAMES, MappingScheme
from repro.registry import (
    MEMORY_NAMES,
    MemoryConfig,
    RegistryError,
    make_scheme,
    make_workload,
    memory_config,
    register_scheme,
    register_workload,
    scheme_entry,
    scheme_names,
    workload_names,
)
from repro.workloads.suite import ALL_BENCHMARKS

AMAP = hynix_gddr5_map()


@pytest.fixture
def scratch_registry(monkeypatch):
    """Run a test against copies of the registry tables."""
    monkeypatch.setattr(registry, "_SCHEMES", dict(registry._SCHEMES))
    monkeypatch.setattr(registry, "_WORKLOADS", dict(registry._WORKLOADS))
    monkeypatch.setattr(registry, "_MEMORY_CACHE", dict(registry._MEMORY_CACHE))


class TestBuiltins:
    def test_six_paper_schemes_preregistered(self):
        names = scheme_names()
        assert names[: len(SCHEME_NAMES)] == SCHEME_NAMES
        for name in SCHEME_NAMES:
            assert scheme_entry(name).origin == "builtin"

    def test_table2_suite_preregistered(self):
        assert set(ALL_BENCHMARKS) <= set(workload_names())

    def test_memories_preregistered(self):
        assert MEMORY_NAMES == ("gddr5", "stacked")
        gddr5 = memory_config("gddr5")
        assert isinstance(gddr5, MemoryConfig)
        assert gddr5.address_map.width == 30
        assert memory_config("gddr5") is gddr5  # memoized
        stacked = memory_config("stacked")
        assert stacked.power_params is not None

    def test_make_scheme_matches_builders(self):
        pae = make_scheme("PAE", AMAP, seed=3)
        from repro.core.schemes import pae_scheme

        assert pae.bim == pae_scheme(AMAP, seed=3).bim

    def test_rmp_entry_declares_profile_need(self):
        assert scheme_entry("RMP").needs_entropy_profile
        assert not scheme_entry("PAE").needs_entropy_profile

    def test_unknown_names_raise(self):
        with pytest.raises(RegistryError, match="unknown scheme"):
            make_scheme("NOPE", AMAP)
        with pytest.raises(RegistryError, match="unknown benchmark"):
            make_workload("NOPE")
        with pytest.raises(RegistryError, match="unknown memory"):
            memory_config("hbm17")


class TestUserRegistration:
    def test_register_and_build_scheme(self, scratch_registry):
        @register_scheme("TESTSWAP")
        def _swap(address_map):
            source_of = list(range(address_map.width))
            source_of[8], source_of[20] = source_of[20], source_of[8]
            return MappingScheme(
                name="TESTSWAP",
                bim=BinaryInvertibleMatrix.from_permutation(source_of),
                address_map=address_map,
                strategy="remap",
            )

        assert "TESTSWAP" in scheme_names()
        scheme = make_scheme("TESTSWAP", AMAP)
        # Output bit 8 now carries input bit 20.
        assert int(scheme.map(1 << 20)) == 1 << 8

    def test_unknown_user_params_rejected(self, scratch_registry):
        with pytest.raises(RegistryError, match="does not accept"):
            make_scheme("PAE", AMAP, sede=3)  # typo for seed
        with pytest.raises(RegistryError, match="does not accept"):
            make_workload("MT", sacle=0.5)  # typo for scale

    def test_extra_kwargs_are_filtered(self, scratch_registry):
        @register_scheme("TESTID")
        def _ident(address_map):  # accepts neither seed nor entropy profile
            return MappingScheme(
                name="TESTID",
                bim=BinaryInvertibleMatrix.identity(address_map.width),
                address_map=address_map,
                strategy="identity",
                extra_latency_cycles=0,
            )

        scheme = make_scheme("TESTID", AMAP, seed=5, entropy_by_bit=np.ones(30))
        assert scheme.bim.is_identity

    def test_duplicate_registration_rejected(self, scratch_registry):
        with pytest.raises(RegistryError, match="already registered"):
            register_scheme("PAE")(lambda address_map: None)

    def test_replace_allows_override(self, scratch_registry):
        @register_scheme("TESTX")
        def _v1(address_map):
            return "v1"

        @register_scheme("TESTX", replace=True)
        def _v2(address_map):
            return "v2"

        assert scheme_entry("TESTX").builder is _v2

    def test_register_workload(self, scratch_registry):
        from repro.workloads.recipes import build_recipe_workload

        @register_workload("TESTWL")
        def _wl(scale=1.0):
            return build_recipe_workload("TESTWL", {
                "kernels": [{"pattern": "row_segment", "tbs": 4}],
            }, scale=scale)

        workload = make_workload("TESTWL", scale=1.0)
        assert workload.n_tbs == 4
        assert make_workload("testwl", scale=2.0).n_tbs == 8

