"""Unit tests for the address mapper: its field decode and its hardware cost."""

import numpy as np
import pytest

from repro.core import hynix_gddr5_map
from repro.core.mapper import decode_fields
from repro.registry import make_scheme

AMAP = hynix_gddr5_map()


class TestDecodeFields:
    def test_matches_scalar_decode(self):
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 30, size=200, dtype=np.uint64)
        fields = decode_fields(AMAP, addrs)
        for i in (0, 57, 199):
            scalar = AMAP.decode(int(addrs[i]))
            for name, arr in fields.items():
                assert arr[i] == scalar[name], name

    def test_decodes_scheme_mapped_addresses(self):
        scheme = make_scheme("PAE", AMAP, seed=1)
        addrs = np.arange(0, 1 << 16, 128, dtype=np.uint64)
        mapped = np.atleast_1d(scheme.map(addrs))
        fields = decode_fields(AMAP, mapped)
        sample = AMAP.decode(int(mapped[3]))
        assert fields["channel"][3] == sample["channel"]
        assert fields["bank"][3] == sample["bank"]
        assert fields["row"][3] == sample["row"]

    def test_all_fields_present(self):
        fields = decode_fields(AMAP, np.array([0], dtype=np.uint64))
        assert set(fields) == set(AMAP.field_names)



class TestAddressMapper:
    """The XOR tree a scheme stands for: gate count, depth and latency."""

    def test_latency_zero_for_base(self):
        assert make_scheme("BASE", AMAP).extra_latency_cycles == 0

    def test_latency_one_for_mapped(self):
        assert make_scheme("PAE", AMAP).extra_latency_cycles == 1

    def test_hardware_cost(self):
        scheme = make_scheme("PM", AMAP)
        # PM: six two-input XORs, depth 1, one pipeline cycle.
        assert scheme.bim.xor_gate_count() == 6
        assert scheme.bim.xor_tree_depth() == 1
        assert scheme.extra_latency_cycles == 1

    def test_base_cost_is_zero_gates(self):
        bim = make_scheme("BASE", AMAP).bim
        assert bim.xor_gate_count() == 0 and bim.xor_tree_depth() == 0
