"""Byte-identity pins for simulation results.

Each case runs one small configuration and compares the SHA-256 of its
canonical result JSON against a digest recorded before the code it
exercises was last restructured.  The result bytes include
``metadata.events``, so any change to the event stream (an event
added, dropped or moved to another cycle) fails here, not only
changes to the reported metrics.

The exact cases pin the detailed engine.  They cover both DRAM
geometries (gddr5 and 3D-stacked), a write-heavy benchmark (MT: ~40%
stores, LLC writebacks reach DRAM) and a read-only one (SC), and
schemes with and without the mapper's extra pipeline cycle (BASE has
none; PAE/FAE/ALL add one).

The sampled and auto cases pin the functional-replay plane, whose
results no exact run reaches.  Sampled SRAD2 @0.5 freezes four times
and replays 54 queued TBs (56 on stacked), sampled SP @1.0 replays 16;
auto SC @0.5 estimates three kernels, and auto SC @1.0 also
skip-middle freezes a measured kernel with 8 queued TBs.

A deliberate model change that moves these digests must regenerate
them in the same change, together with the figure tables and the
performance benchmark's reference digests.
"""

import hashlib

import pytest

from repro import api
from repro.core.serialize import canonical_json

# (workload, memory, scheme, scale, fidelity) -> SHA-256 of the
# canonical result.
PINNED = {
    ("MT", "gddr5", "BASE", 0.1, "exact"):
        "23d7bc6d9dffc0980e6d6863ddd4ff847854b523a53b50db12ed48c82c9513eb",
    ("MT", "gddr5", "PAE", 0.1, "exact"):
        "3b0e5a13b464d9edb35b53a00a98ad1c918f9a514848c24a731f661e0759bcf0",
    ("SC", "gddr5", "BASE", 0.1, "exact"):
        "7bb5e6d54586bbfee094cae582ae003818e457a9624b8c38308ae66b55ef597e",
    ("SC", "gddr5", "FAE", 0.1, "exact"):
        "02abc5c64e257ef7eba6dfd7e14e9435af39ce1afdf63e7af1e7bc42ddea9343",
    ("MT", "stacked", "PAE", 0.1, "exact"):
        "6c091006aaf4d8e95906695c46399ad29dd3298835c5c2e5013725165e10fea3",
    ("SC", "stacked", "BASE", 0.1, "exact"):
        "633627e28566faa1c43ac34909e4eb06d90a9c7d6b3d4e7caf287f6d6f37207b",
    ("LU", "gddr5", "ALL", 0.1, "exact"):
        "3e5a7a598f1a1a07ffb78be4daa28419e7f4d2c5538afebaa91ff3a67920fb8a",
    ("SRAD2", "gddr5", "PAE", 0.5, "sampled"):
        "c51b717a42efca74aeaf5993370616fbc3044bc93b42109791a654145c73bbfe",
    ("SP", "gddr5", "PAE", 1.0, "sampled"):
        "b96fba3da5b1fd127568aa378cf503fa99077bb07ad9e58eaa9d372e61e9555e",
    ("SC", "gddr5", "PAE", 0.5, "auto"):
        "862ef6ec8cb718a922299313e42dcb7e3899d30b423d574e8b4054f6ce8d8c1a",
    ("SC", "gddr5", "PAE", 1.0, "auto"):
        "398de325ff92c1dee257b226f2899a48e271e8c7f4a3e84aabfac223f708a8db",
    ("SRAD2", "stacked", "PAE", 0.5, "sampled"):
        "a8d321ceac766aa96cb3c91a5da6a907ba21b8a0585758ed0bd141dbc0b6f55e",
}

# Event counts of the same runs: a mismatch here names the event
# stream as the cause before the digest comparison does.
EVENTS = {
    ("MT", "gddr5", "BASE", 0.1, "exact"): 23152,
    ("MT", "gddr5", "PAE", 0.1, "exact"): 19603,
    ("SC", "gddr5", "BASE", 0.1, "exact"): 24490,
    ("SC", "gddr5", "FAE", 0.1, "exact"): 28484,
    ("MT", "stacked", "PAE", 0.1, "exact"): 18764,
    ("SC", "stacked", "BASE", 0.1, "exact"): 24459,
    ("LU", "gddr5", "ALL", 0.1, "exact"): 30950,
    ("SRAD2", "gddr5", "PAE", 0.5, "sampled"): 80885,
    ("SP", "gddr5", "PAE", 1.0, "sampled"): 14033,
    ("SC", "gddr5", "PAE", 0.5, "auto"): 52393,
    ("SC", "gddr5", "PAE", 1.0, "auto"): 74370,
    ("SRAD2", "stacked", "PAE", 0.5, "sampled"): 79838,
}


def check_pinned(key):
    workload, memory, scheme, scale, fidelity = key
    result = api.simulate(
        workload, scheme, scale=scale, memory=memory, fidelity=fidelity
    )
    assert result.metadata["events"] == EVENTS[key]
    digest = hashlib.sha256(
        canonical_json(result.to_dict()).encode("ascii")
    ).hexdigest()
    assert digest == PINNED[key]


@pytest.mark.parametrize(
    "workload,memory,scheme,scale",
    sorted(key[:4] for key in PINNED if key[4] == "exact"),
    ids=lambda value: str(value),
)
def test_exact_result_bytes_pinned(workload, memory, scheme, scale):
    check_pinned((workload, memory, scheme, scale, "exact"))


@pytest.mark.parametrize(
    "workload,memory,scheme,scale,fidelity",
    sorted(key for key in PINNED if key[4] != "exact"),
    ids=lambda value: str(value),
)
def test_replayed_result_bytes_pinned(workload, memory, scheme, scale,
                                      fidelity):
    check_pinned((workload, memory, scheme, scale, fidelity))
