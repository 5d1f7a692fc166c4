"""Unit tests for the workload trace model."""

import numpy as np
import pytest

from repro.workloads.base import KernelTrace, TBTrace, Workload


def tb(tb_id=0, n=4, gap=2, warp_ends=None):
    """A TB of *n* ops; one warp unless *warp_ends* says otherwise."""
    return TBTrace(
        tb_id, np.arange(n, dtype=np.uint64) * 128,
        np.full(n, gap, dtype=np.int64), np.zeros(n, dtype=bool),
        [n] if warp_ends is None else warp_ends,
    )


class TestTBTrace:
    def test_columns_take_their_dtypes(self):
        trace = TBTrace(0, [0, 128], [3, 3], [0, 1], [1, 2])
        assert trace.addresses.dtype == np.uint64
        assert trace.gaps.dtype == np.int64
        assert trace.writes.tolist() == [False, True]
        assert trace.warp_ends.dtype == np.int64

    def test_addresses_concatenated(self):
        trace = tb(n=5, warp_ends=[2, 5])
        assert trace.n_requests == 5
        assert trace.n_warps == 2
        assert trace.addresses.shape == (5,)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="columns disagree"):
            TBTrace(0, np.zeros(3, dtype=np.uint64),
                    np.zeros(2, dtype=np.int64), np.zeros(3, dtype=bool), [3])

    def test_negative_gaps_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            TBTrace(0, [0], [-1], [False], [1])

    def test_no_warps_rejected(self):
        with pytest.raises(ValueError, match="no warps"):
            tb(warp_ends=[])

    @pytest.mark.parametrize("ends", [[3, 2, 4], [2, 3], [2, 5], [-1, 4]])
    def test_warp_ends_must_tile_the_ops(self, ends):
        with pytest.raises(ValueError, match="warp ends"):
            tb(n=4, warp_ends=ends)

    def test_empty_warp_addresses(self):
        assert tb(n=0, warp_ends=[0]).addresses.size == 0
        assert tb(n=2, warp_ends=[0, 2, 2]).n_warps == 3

    def test_no_per_instance_dict(self):
        # The suite holds thousands of TBs: slots, not a __dict__ each.
        assert not hasattr(tb(), "__dict__")


class TestKernelTrace:
    def test_tb_ids_must_ascend(self):
        with pytest.raises(ValueError):
            KernelTrace("k", (tb(1), tb(0)))

    def test_tb_ids_must_be_unique(self):
        with pytest.raises(ValueError):
            KernelTrace("k", (tb(0), tb(0)))

    def test_counts(self):
        k = KernelTrace("k", (tb(0, n=2), tb(1, n=3)))
        assert k.n_tbs == 2
        assert k.n_requests == 5
        assert [a.size for a in k.tb_address_arrays()] == [2, 3]

    def test_no_tbs_rejected(self):
        with pytest.raises(ValueError):
            KernelTrace("k", ())


class TestWorkload:
    def _workload(self, ipr=100.0):
        k = KernelTrace("k", (tb(0, n=4),))
        return Workload("Test", "T", (k,), instructions_per_request=ipr)

    def test_apki_inverse_of_ipr(self):
        wl = self._workload(ipr=200.0)
        assert wl.apki == pytest.approx(5.0)

    def test_approx_instructions(self):
        wl = self._workload(ipr=100.0)
        assert wl.approx_instructions == pytest.approx(400.0)

    def test_entropy_kernel_inputs(self):
        inputs = self._workload().entropy_kernel_inputs()
        assert len(inputs) == 1
        tb_arrays, weight = inputs[0]
        assert weight == 4

    def test_no_kernels_rejected(self):
        with pytest.raises(ValueError):
            Workload("x", "X", ())

    def test_bad_ipr_rejected(self):
        with pytest.raises(ValueError):
            self._workload(ipr=0)
