"""Writeback victims reach DRAM at the coordinates of their own line.

A dirty LLC victim's (channel, bank, row) comes from the run's victim
memo, filled when each kernel's store lines are decoded, or from the
flush's fallback decode for a line the memo has never seen.  Spying on
``DRAMSystem.submit_many`` checks every writeback of a run against a
fresh decode of its line, on both DRAM geometries and in both
fidelities; one case empties the memo after every kernel is prepared,
so the fallback decode produces every coordinate.
"""

import numpy as np
import pytest

from repro import api
from repro.core.mapper import decode_fields
from repro.dram.system import DRAMSystem
from repro.sim.gpu_system import GPUSystem


def decoded(address_map, line):
    """``(channel, bank, row)`` of *line*, decoded on its own."""
    fields = decode_fields(address_map, np.asarray([line], dtype=np.uint64))
    if "channel" in address_map:
        channel = fields["channel"][0]
    else:
        vaults = address_map.field("vault").size
        channel = fields["stack"][0] * vaults + fields["vault"][0]
    return int(channel), int(fields["bank"][0]), int(fields["row"][0])


@pytest.fixture
def writebacks(monkeypatch):
    """Every submitted writeback as ``(channel, request)``."""
    seen = []
    submit_many = DRAMSystem.submit_many

    def spy(self, channel, requests):
        seen.extend(
            (channel, request) for request in requests if request.is_write
        )
        return submit_many(self, channel, requests)

    monkeypatch.setattr(DRAMSystem, "submit_many", spy)
    return seen


@pytest.mark.parametrize(
    "workload,memory,scale,fidelity,empty_memo",
    [
        ("MT", "gddr5", 0.1, "exact", True),
        ("SRAD2", "stacked", 1.0, "auto", False),
    ],
    ids=["exact-MT-gddr5-fallback-only", "auto-SRAD2-stacked"],
)
def test_every_writeback_has_its_lines_coordinates(
    monkeypatch, writebacks, workload, memory, scale, fidelity, empty_memo
):
    memos = []
    address_maps = set()
    prepare = GPUSystem._prepare_kernel

    def prepare_kernel(self, kernel):
        prepared = prepare(self, kernel)
        if empty_memo:
            self._victim_coords.clear()
        memos.append(self._victim_coords)
        address_maps.add(self.address_map)
        return prepared

    monkeypatch.setattr(GPUSystem, "_prepare_kernel", prepare_kernel)
    api.simulate(workload, "PAE", scale=scale, memory=memory,
                 fidelity=fidelity)
    assert writebacks
    (address_map,) = address_maps  # one run, one machine
    for channel, request in writebacks:
        assert (channel, request.bank, request.row) == decoded(
            address_map, request.request_id
        )
    if empty_memo:
        # Emptied after every prepare, the memo was refilled by the
        # flush's fallback decode alone.
        assert len(memos[-1]) == len({r.request_id for _, r in writebacks})
