"""Byte-identity pins for exact-fidelity simulation.

Each case runs one tiny exact configuration and compares the SHA-256
of its canonical result JSON against a digest recorded before the
detailed engine's hot path was last restructured.  The result bytes
include ``metadata.events``, so any change to the event stream (an
event added, dropped or moved to another cycle) fails here, not only
changes to the reported metrics.

The cases cover both DRAM geometries (gddr5 and 3D-stacked), a
write-heavy benchmark (MT: ~40% stores, LLC writebacks reach DRAM)
and a read-only one (SC), and schemes with and without the mapper's
extra pipeline cycle (BASE has none; PAE/FAE/ALL add one).

A deliberate model change that moves these digests must regenerate
them in the same change, together with the figure tables and the
performance benchmark's reference digests.
"""

import hashlib

import pytest

from repro import api
from repro.core.serialize import canonical_json

# (workload, memory, scheme, scale) -> SHA-256 of the canonical result.
PINNED = {
    ("MT", "gddr5", "BASE", 0.1):
        "23d7bc6d9dffc0980e6d6863ddd4ff847854b523a53b50db12ed48c82c9513eb",
    ("MT", "gddr5", "PAE", 0.1):
        "3b0e5a13b464d9edb35b53a00a98ad1c918f9a514848c24a731f661e0759bcf0",
    ("SC", "gddr5", "BASE", 0.1):
        "7bb5e6d54586bbfee094cae582ae003818e457a9624b8c38308ae66b55ef597e",
    ("SC", "gddr5", "FAE", 0.1):
        "02abc5c64e257ef7eba6dfd7e14e9435af39ce1afdf63e7af1e7bc42ddea9343",
    ("MT", "stacked", "PAE", 0.1):
        "6c091006aaf4d8e95906695c46399ad29dd3298835c5c2e5013725165e10fea3",
    ("SC", "stacked", "BASE", 0.1):
        "633627e28566faa1c43ac34909e4eb06d90a9c7d6b3d4e7caf287f6d6f37207b",
    ("LU", "gddr5", "ALL", 0.1):
        "3e5a7a598f1a1a07ffb78be4daa28419e7f4d2c5538afebaa91ff3a67920fb8a",
}

# Event counts of the same runs: a mismatch here names the event
# stream as the cause before the digest comparison does.
EVENTS = {
    ("MT", "gddr5", "BASE", 0.1): 23152,
    ("MT", "gddr5", "PAE", 0.1): 19603,
    ("SC", "gddr5", "BASE", 0.1): 24490,
    ("SC", "gddr5", "FAE", 0.1): 28484,
    ("MT", "stacked", "PAE", 0.1): 18764,
    ("SC", "stacked", "BASE", 0.1): 24459,
    ("LU", "gddr5", "ALL", 0.1): 30950,
}


@pytest.mark.parametrize(
    "workload,memory,scheme,scale", sorted(PINNED),
    ids=lambda value: str(value),
)
def test_exact_result_bytes_pinned(workload, memory, scheme, scale):
    result = api.simulate(workload, scheme, scale=scale, memory=memory)
    key = (workload, memory, scheme, scale)
    assert result.metadata["events"] == EVENTS[key]
    digest = hashlib.sha256(
        canonical_json(result.to_dict()).encode("ascii")
    ).hexdigest()
    assert digest == PINNED[key]
