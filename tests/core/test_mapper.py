"""Unit tests for the AddressMapper unit."""

import numpy as np
import pytest

from repro.core import AddressMapper, hynix_gddr5_map
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

    def test_all_fields_present(self):
        fields = decode_fields(AMAP, np.array([0], dtype=np.uint64))
        assert set(fields) == set(AMAP.field_names)


class TestAddressMapper:
    def test_map_and_decode_consistent_with_scheme(self):
        scheme = make_scheme("PAE", AMAP, seed=1)
        mapper = AddressMapper(scheme)
        addrs = np.arange(0, 1 << 16, 128, dtype=np.uint64)
        out = mapper.map_and_decode(addrs)
        mapped = np.atleast_1d(scheme.map(addrs))
        assert (out["address"] == mapped.astype(np.int64)).all()
        sample = AMAP.decode(int(mapped[3]))
        assert out["channel"][3] == sample["channel"]
        assert out["bank"][3] == sample["bank"]
        assert out["row"][3] == sample["row"]

    def test_counts_requests(self):
        mapper = AddressMapper(make_scheme("BASE", AMAP))
        mapper.map_addresses(np.zeros(10, dtype=np.uint64))
        mapper.map_addresses(5)
        assert mapper.mapped_requests == 11

    def test_latency_zero_for_base(self):
        assert AddressMapper(make_scheme("BASE", AMAP)).latency_cycles == 0

    def test_latency_one_for_mapped(self):
        assert AddressMapper(make_scheme("PAE", AMAP)).latency_cycles == 1

    def test_hardware_cost(self):
        cost = AddressMapper(make_scheme("PM", AMAP)).hardware_cost()
        # PM: six two-input XORs, depth 1, one pipeline cycle.
        assert cost.xor_gates == 6
        assert cost.tree_depth == 1
        assert cost.latency_cycles == 1
        assert "6 two-input XOR gates" in str(cost)

    def test_base_cost_is_zero_gates(self):
        cost = AddressMapper(make_scheme("BASE", AMAP)).hardware_cost()
        assert cost.xor_gates == 0 and cost.tree_depth == 0
