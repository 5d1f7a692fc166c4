"""Unit tests for BIM/scheme serialization."""

import json

import numpy as np
import pytest

from repro.core import SCHEME_NAMES, hynix_gddr5_map, toy_map
from repro.core.bim import BinaryInvertibleMatrix
from repro.core.serialize import (
    bim_from_dict,
    bim_to_dict,
    dump_scheme,
    load_scheme,
    scheme_from_dict,
    scheme_to_dict,
)
from repro.registry import make_scheme

AMAP = hynix_gddr5_map()


class TestBIMRoundtrip:
    @pytest.mark.parametrize("width", [1, 6, 30])
    def test_random_bim_roundtrip(self, width):
        rng = np.random.default_rng(width)
        bim = BinaryInvertibleMatrix.random(width, rng)
        assert bim_from_dict(bim_to_dict(bim)) == bim

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError, match="not a serialized BIM"):
            bim_from_dict({"type": "nope", "width": 2, "rows": []})

    def test_row_count_validated(self):
        data = bim_to_dict(BinaryInvertibleMatrix.identity(4))
        data["rows"] = data["rows"][:-1]
        with pytest.raises(ValueError, match="expected 4 rows"):
            bim_from_dict(data)

    def test_overwide_row_rejected(self):
        data = bim_to_dict(BinaryInvertibleMatrix.identity(4))
        data["rows"][0] = "0x100"
        with pytest.raises(ValueError, match="beyond width"):
            bim_from_dict(data)

    def test_corrupted_matrix_fails_invertibility(self):
        data = bim_to_dict(BinaryInvertibleMatrix.identity(4))
        data["rows"][0] = data["rows"][1]  # duplicate row -> singular
        from repro.core.gf2 import GF2Error

        with pytest.raises(GF2Error):
            bim_from_dict(data)


class TestSchemeRoundtrip:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_every_scheme_roundtrips(self, name):
        scheme = make_scheme(name, AMAP, seed=5)
        restored = scheme_from_dict(scheme_to_dict(scheme), AMAP)
        assert restored.name == scheme.name
        assert restored.bim == scheme.bim
        assert restored.strategy == scheme.strategy
        assert restored.extra_latency_cycles == scheme.extra_latency_cycles
        # Identical behaviour on addresses.
        addrs = np.arange(0, 1 << 18, 4096, dtype=np.uint64)
        assert (np.atleast_1d(restored.map(addrs))
                == np.atleast_1d(scheme.map(addrs))).all()

    def test_width_mismatch_rejected(self):
        scheme = make_scheme("PAE", AMAP)
        with pytest.raises(ValueError, match="width"):
            scheme_from_dict(scheme_to_dict(scheme), toy_map())

    def test_file_roundtrip(self, tmp_path):
        scheme = make_scheme("FAE", AMAP, seed=9)
        path = tmp_path / "fae.json"
        dump_scheme(scheme, path)
        restored = load_scheme(path, AMAP)
        assert restored.bim == scheme.bim
        # File must be valid, stable JSON.
        data = json.loads(path.read_text())
        assert data["name"] == "FAE"
        assert len(data["rows"]) == 30

    def test_metadata_survives(self):
        scheme = make_scheme("PAE", AMAP, seed=2)
        restored = scheme_from_dict(scheme_to_dict(scheme), AMAP)
        assert list(restored.metadata["output_bits"]) == list(
            scheme.metadata["output_bits"]
        )
