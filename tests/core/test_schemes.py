"""Unit tests for the six mapping schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SCHEME_NAMES,
    hynix_gddr5_map,
    stacked_memory_map,
    toy_map,
)
from repro.core.schemes import (
    SchemeError,
    all_scheme,
    base_scheme,
    broad_scheme,
    fae_scheme,
    pae_scheme,
    pm_scheme,
    rmp_scheme,
)
from repro.registry import RegistryError, make_scheme

AMAP = hynix_gddr5_map()


def _block_mask(amap):
    mask = 0
    for b in amap.block_bits():
        mask |= 1 << b
    return mask


class TestAllSchemes:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_bijective_on_samples(self, name):
        scheme = make_scheme(name, AMAP, seed=3)
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 30, size=5000, dtype=np.uint64)
        addrs = np.unique(addrs)
        mapped = np.atleast_1d(scheme.map(addrs))
        assert np.unique(mapped).size == addrs.size
        assert (np.sort(np.atleast_1d(scheme.unmap(mapped))) == np.sort(addrs)).all()

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_block_bits_never_touched(self, name):
        """Block offsets are outside every scheme (paper Section IV-B)."""
        scheme = make_scheme(name, AMAP, seed=5)
        block = _block_mask(AMAP)
        rng = np.random.default_rng(1)
        addrs = rng.integers(0, 1 << 30, size=2000, dtype=np.uint64)
        mapped = np.atleast_1d(scheme.map(addrs))
        assert ((mapped ^ addrs) & np.uint64(block) == 0).all()

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_works_on_stacked_map(self, name):
        smap = stacked_memory_map()
        scheme = make_scheme(name, smap, seed=2)
        addrs = np.arange(0, 1 << 20, 4096, dtype=np.uint64)
        mapped = np.atleast_1d(scheme.map(addrs))
        assert np.unique(mapped).size == addrs.size

    def test_unknown_scheme(self):
        with pytest.raises(RegistryError, match="unknown scheme"):
            make_scheme("XYZ", AMAP)


class TestBase:
    def test_identity(self):
        scheme = base_scheme(AMAP)
        assert scheme.bim.is_identity()
        assert scheme.extra_latency_cycles == 0
        assert scheme.strategy == "identity"
        assert scheme.map(12345) == 12345


class TestPM:
    def test_structure_two_ones_on_parallel_rows(self):
        """PM rows for channel/bank bits have exactly two 1s (Fig. 6c)."""
        scheme = pm_scheme(AMAP)
        matrix = scheme.bim.matrix
        parallel = set(AMAP.parallel_bits())
        for bit in range(AMAP.width):
            expected = 2 if bit in parallel else 1
            assert matrix[bit].sum() == expected

    def test_xors_least_significant_row_bits(self):
        scheme = pm_scheme(AMAP)
        row_lsbs = sorted(AMAP.field("row").bits)[:6]
        matrix = scheme.bim.matrix
        for target, source in zip(AMAP.parallel_bits(), row_lsbs):
            assert matrix[target, source] == 1

    def test_known_mapping(self):
        scheme = pm_scheme(AMAP)
        # Setting row bit 18 must flip channel bit 8 in the output.
        addr = 1 << 18
        assert scheme.map(addr) == (1 << 18) | (1 << 8)


class TestRMP:
    def test_is_permutation(self):
        scheme = rmp_scheme(AMAP)
        assert scheme.bim.is_permutation()
        assert scheme.strategy == "remap"

    def test_paper_default_sources(self):
        scheme = rmp_scheme(AMAP)
        assert scheme.metadata["source_bits"] == (8, 9, 10, 11, 15, 16)

    def test_sources_from_entropy_profile(self):
        profile = np.zeros(30)
        profile[[20, 21, 22, 23, 24, 25]] = 1.0
        scheme = rmp_scheme(AMAP, entropy_by_bit=profile)
        assert scheme.metadata["source_bits"] == (20, 21, 22, 23, 24, 25)
        # Output channel/bank bits must now carry those input bits.
        addr = 1 << 20
        mapped = int(scheme.map(addr))
        assert any(mapped & (1 << b) for b in AMAP.parallel_bits())

    def test_profile_shape_validated(self):
        with pytest.raises(SchemeError):
            rmp_scheme(AMAP, entropy_by_bit=np.zeros(10))

    def test_block_sources_rejected(self):
        with pytest.raises(SchemeError, match="block"):
            rmp_scheme(AMAP, source_bits=(0, 1, 2, 3, 4, 5))

    def test_duplicate_sources_rejected(self):
        with pytest.raises(SchemeError):
            rmp_scheme(AMAP, source_bits=(8, 8, 9, 10, 11, 12))


class TestBroadFamily:
    def test_pae_inputs_are_page_bits_only(self):
        """PAE never reads column bits — the row-locality guarantee."""
        scheme = pae_scheme(AMAP, seed=7)
        matrix = scheme.bim.matrix
        page = set(AMAP.page_bits())
        for bit in AMAP.parallel_bits():
            used = set(np.nonzero(matrix[bit])[0])
            assert used <= page

    def test_pae_preserves_page_grouping(self):
        """All blocks of one DRAM page map to one page (PAE's property)."""
        scheme = pae_scheme(AMAP, seed=7)
        # Addresses differing only in column bits share all page bits.
        base = AMAP.encode(row=123, bank=5, channel=2)
        cols = [AMAP.field("col").insert(base, c) for c in range(64)]
        mapped = [scheme.decode(a) for a in cols]
        banks = {m["bank"] for m in mapped}
        channels = {m["channel"] for m in mapped}
        assert len(banks) == 1 and len(channels) == 1

    def test_fae_scatters_pages(self):
        """FAE reads column bits, so one page spreads over banks/channels."""
        scheme = fae_scheme(AMAP, seed=7)
        base = AMAP.encode(row=123, bank=5, channel=2)
        cols = [AMAP.field("col").insert(base, c) for c in range(64)]
        mapped = [scheme.decode(a) for a in cols]
        units = {(m["bank"], m["channel"]) for m in mapped}
        assert len(units) > 1

    def test_fae_only_rewrites_parallel_bits(self):
        scheme = fae_scheme(AMAP, seed=9)
        rng = np.random.default_rng(2)
        addrs = rng.integers(0, 1 << 30, size=1000, dtype=np.uint64)
        mapped = np.atleast_1d(scheme.map(addrs))
        untouched = ~np.uint64(sum(1 << b for b in AMAP.parallel_bits()))
        assert ((mapped ^ addrs) & untouched == 0).all()

    def test_all_rewrites_row_and_col_bits(self):
        scheme = all_scheme(AMAP, seed=3)
        matrix = scheme.bim.matrix
        non_block = AMAP.non_block_bits()
        rewritten = [
            b for b in non_block
            if not (matrix[b].sum() == 1 and matrix[b, b] == 1)
        ]
        # With a 24x24 random invertible core, essentially all non-block
        # rows differ from identity.
        assert len(rewritten) > 12

    def test_different_seeds_differ(self):
        assert pae_scheme(AMAP, seed=0).bim != pae_scheme(AMAP, seed=1).bim

    def test_same_seed_deterministic(self):
        assert pae_scheme(AMAP, seed=4).bim == pae_scheme(AMAP, seed=4).bim

    def test_broad_rejects_block_bits(self):
        with pytest.raises(SchemeError, match="block"):
            broad_scheme("X", AMAP, input_bits=(0, 8, 9), output_bits=(8, 9), seed=0)

    def test_broad_rejects_outputs_outside_inputs(self):
        with pytest.raises(SchemeError, match="subset"):
            broad_scheme("X", AMAP, input_bits=(20, 21), output_bits=(8,), seed=0)

    def test_broad_rejects_empty(self):
        with pytest.raises(SchemeError):
            broad_scheme("X", AMAP, input_bits=(), output_bits=(), seed=0)


class TestMappingSchemeAPI:
    def test_decode(self):
        scheme = base_scheme(AMAP)
        addr = AMAP.encode(row=7, bank=3, channel=1, col=5, block=9)
        decoded = scheme.decode(addr)
        assert decoded["row"] == 7 and decoded["bank"] == 3

    def test_width_mismatch_rejected(self):
        from repro.core.schemes import MappingScheme
        from repro.core.bim import BinaryInvertibleMatrix

        with pytest.raises(SchemeError):
            MappingScheme("bad", BinaryInvertibleMatrix.identity(5), AMAP)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(SCHEME_NAMES),
    st.integers(min_value=0, max_value=100),
    st.lists(st.integers(min_value=0, max_value=(1 << 30) - 1), min_size=1, max_size=50),
)
def test_scheme_roundtrip_property(name, seed, addrs):
    scheme = make_scheme(name, AMAP, seed=seed)
    arr = np.asarray(addrs, dtype=np.uint64)
    assert (np.atleast_1d(scheme.unmap(scheme.map(arr))) == arr).all()
