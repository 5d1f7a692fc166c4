"""Unit tests for access-pattern building blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.patterns import (
    TXN_BYTES,
    align,
    banded_rows,
    butterfly_pass,
    column_walk,
    make_tb,
    random_lines,
    row_segment,
    strided_gather,
    tile_rows,
)


class TestRowSegment:
    def test_covers_range(self):
        txns = row_segment(0, 0, 512)
        assert list(txns) == [0, 128, 256, 384]

    def test_partial_transactions_rounded(self):
        txns = row_segment(0, 100, 100)
        assert list(txns) == [0, 128]

    def test_wraps_address_space(self):
        txns = row_segment((1 << 30) - 128, 0, 256)
        assert txns.max() < (1 << 30)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            row_segment(0, 0, 0)


class TestColumnWalk:
    def test_one_txn_per_row(self):
        txns = column_walk(0, 4096, rows=[0, 1, 2], col_byte=256)
        assert list(txns) == [256, 4096 + 256, 8192 + 256]

    def test_alignment(self):
        txns = column_walk(0, 4096, rows=[5], col_byte=100)
        assert txns[0] % TXN_BYTES == 0

    def test_bad_pitch(self):
        with pytest.raises(ValueError):
            column_walk(0, 0, rows=[0], col_byte=0)


class TestTileRows:
    def test_shape(self):
        txns = tile_rows(0, 4096, row0=2, n_rows=3, col_byte=0, width_bytes=256)
        assert len(txns) == 6  # 3 rows x 2 txns
        assert txns[0] == 2 * 4096


class TestStridedGather:
    def test_records(self):
        txns = strided_gather(0, 1024, indices=[0, 2, 5])
        assert list(txns) == [0, 2048, 5120]


class TestBandedRows:
    def test_band_placement(self):
        rows = banded_rows(4096, band=3, r0=0, count=4)
        assert list(rows) == [768, 769, 770, 771]  # 3 * (1 MB / 4 KB)

    def test_address_bits_18_19_stay_dead(self):
        """The property the whole valley design rests on."""
        for pitch in (2048, 4096, 8192, 16384):
            limit = (1 << 18) // pitch
            rows = banded_rows(pitch, band=7, r0=0, count=min(16, limit))
            addrs = rows.astype(np.uint64) * np.uint64(pitch)
            assert ((addrs >> np.uint64(18)) & np.uint64(3) == 0).all(), pitch

    def test_local_overflow_rejected(self):
        with pytest.raises(ValueError, match="local rows"):
            banded_rows(16384, band=0, r0=0, count=32)  # limit is 16

    def test_custom_band_stride(self):
        rows = banded_rows(16384, band=1, count=4, band_stride_bytes=4 << 20)
        assert rows[0] == 256

    def test_non_power_of_two_pitch_rejected(self):
        with pytest.raises(ValueError):
            banded_rows(3000, band=0)

    def test_misaligned_stride_rejected(self):
        with pytest.raises(ValueError):
            banded_rows(4096, band=0, band_stride_bytes=4096 * 3 + 1)


class TestButterfly:
    def test_deduplicated_and_aligned(self):
        txns = butterfly_pass(0, 1 << 16, 4, stage=4, group=0, group_elems=64)
        assert (txns % TXN_BYTES == 0).all()
        assert len(np.unique(txns)) == len(txns)

    def test_negative_stage_rejected(self):
        with pytest.raises(ValueError):
            butterfly_pass(0, 64, 4, stage=-1, group=0, group_elems=8)


class TestRandomLines:
    def test_within_footprint(self):
        rng = np.random.default_rng(0)
        txns = random_lines(rng, base=1 << 20, footprint_bytes=1 << 16, count=100)
        assert (txns >= (1 << 20)).all()
        assert (txns < (1 << 20) + (1 << 16)).all()

    def test_tiny_footprint_rejected(self):
        with pytest.raises(ValueError):
            random_lines(np.random.default_rng(0), 0, 64, 1)


class TestPacking:
    def test_chunking(self):
        txns = np.arange(20, dtype=np.uint64) * 128
        tb = make_tb(0, txns, reqs_per_warp=8)
        assert tb.warp_ends.tolist() == [8, 16, 20]
        assert (tb.addresses == txns).all()

    def test_exact_multiple_has_no_empty_warp(self):
        tb = make_tb(0, np.arange(16, dtype=np.uint64) * 128, reqs_per_warp=8)
        assert tb.warp_ends.tolist() == [8, 16]

    def test_write_flags_follow(self):
        txns = np.arange(4, dtype=np.uint64) * 128
        writes = np.array([True, False, True, False])
        tb = make_tb(0, txns, writes, reqs_per_warp=2)
        assert tb.writes.tolist() == [True, False, True, False]
        assert tb.warp_ends.tolist() == [2, 4]

    def test_flag_length_mismatch(self):
        with pytest.raises(ValueError):
            make_tb(0, np.zeros(3, dtype=np.uint64), np.zeros(2, dtype=bool))

    def test_non_positive_warp_size_rejected(self):
        with pytest.raises(ValueError):
            make_tb(0, np.zeros(3, dtype=np.uint64), reqs_per_warp=0)

    def test_make_tb_empty_rejected(self):
        with pytest.raises(ValueError):
            make_tb(0, np.array([], dtype=np.uint64))

    def test_gap_applied(self):
        tb = make_tb(0, np.arange(4, dtype=np.uint64) * 128, gap=17)
        assert tb.gaps.tolist() == [17] * 4
        assert not tb.writes.any()  # no mask: every op is a read


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=(1 << 29)),
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=1, max_value=4096),
)
def test_row_segment_alignment_property(base, start, width):
    txns = row_segment(base, start, width)
    assert (txns % TXN_BYTES == 0).all()
    assert len(np.unique(txns)) == len(txns)
    assert len(txns) == (base + start + width - 1) // 128 - (base + start) // 128 + 1
