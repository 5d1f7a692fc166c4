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

The auto cases pin the functional-replay plane, whose results no
exact run reaches.  Auto SC @0.5 estimates three kernels, and auto
SC @1.0 also skip-middle freezes a measured kernel with 8 queued TBs.
Auto SRAD2 @1.0 freezes once with 14 queued TBs on gddr5 (13 on
3D-stacked, the only stacked replay pin) and estimates two kernels.

A deliberate model change that moves these digests must regenerate
them in the same change, together with the figure tables and the
performance benchmark's reference digests.

The digests belong to one ``CACHE_SCHEMA_VERSION``: result records
cached under that version are only valid while the digests hold, so
the pinned table's own hash is recorded next to the version, and a
change that moves a digest without bumping the version fails
``test_pinned_digests_belong_to_the_schema_version``.

Next to the event pins, three runs also pin host work that the result
bytes cannot see: how often the system decodes addresses and how often
the DRAM scheduler is asked for a pick.  Writeback victims are decoded
once per kernel through a memo; a controller whose queued banks are
all busy does not ask again until an enqueue or an issue; and after a
lone pick (no other queued bank ready) it blocks until the first bank
frees up instead of asking again in the same cycle.  A change that
brings back per-flush victim decodes, blocked rescans or repeat
selects fails here with a count diff rather than only a slower wall.
The same runs count the replay plane's calls and the stream memo's
lookups through the module attributes the performance benchmark's
tracer wraps, so a caller that binds one of them by name (and so
escapes the tracer) fails here too.
"""

import hashlib

import pytest

from repro import api
from repro.core.serialize import canonical_json
from repro.dram.scheduler import FRFCFSScheduler
from repro.runner import worker
from repro.runner.config import CACHE_SCHEMA_VERSION
from repro.runner.state_cache import StateCache
from repro.sim import gpu_system, replay

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
    ("SC", "gddr5", "PAE", 0.5, "auto"):
        "862ef6ec8cb718a922299313e42dcb7e3899d30b423d574e8b4054f6ce8d8c1a",
    ("SC", "gddr5", "PAE", 1.0, "auto"):
        "398de325ff92c1dee257b226f2899a48e271e8c7f4a3e84aabfac223f708a8db",
    ("SRAD2", "gddr5", "PAE", 1.0, "auto"):
        "677b5fce8edb3d6ee17afba3c98c2eda3bf47c51e0634fe95b8c6719b6e22719",
    ("SRAD2", "stacked", "PAE", 1.0, "auto"):
        "3af831692a4cd6d5180be4ff4b7b97efce7e66f40ba2c576e2b105cbc20db0de",
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
    ("SC", "gddr5", "PAE", 0.5, "auto"): 52393,
    ("SC", "gddr5", "PAE", 1.0, "auto"): 74370,
    ("SRAD2", "gddr5", "PAE", 1.0, "auto"): 90264,
    ("SRAD2", "stacked", "PAE", 1.0, "auto"): 89005,
}

# SHA-256 of the canonical PINNED table, per CACHE_SCHEMA_VERSION.  A
# change that moves a pinned digest changes result bytes, so it must
# bump CACHE_SCHEMA_VERSION (repro/runner/config.py) and record the new
# table hash under the new version here.
PINNED_TABLE_BY_SCHEMA = {
    2: "e12cf03d69a72f61fcc690a97ffc6958f17a70765232a58c43cd10a5d9efaa3f",
}

# Host calls of three of the same runs, counted by wrapping the
# bindings the performance benchmark's tracer wraps (``core.decode``,
# ``dram.scheduler``, ``sim.replay``, ``sim.replay.stream_build`` and
# the ``runner.state_cache`` layers), in a fresh process context so the
# auto plan's fingerprint decodes count and the stream memo starts
# empty whatever ran before.  Before the victim memo and the
# blocked-until shortcut the first two counts were 62 and 4,290 (exact
# MT) and 2,129 and 13,252 (auto SRAD2).  The lone-pick rule then cut
# the select counts from 3,056 to 2,565 (exact MT) and from 10,236 to
# 8,993 (auto SRAD2).  Auto SC @0.5 replays two of its three estimated
# kernels through the memo; auto SRAD2 @1.0 replays one freeze's
# in-flight warps and queued TBs, and estimates two kernels after its
# last detailed one, which no replay warms.  The replay plane decodes
# its dirty victims through ``dram_coords`` too, which took auto
# SRAD2's decode count from 9 to 11.
COUNTED = {
    "decode_fields": (gpu_system, "decode_fields"),
    "FRFCFSScheduler.select": (FRFCFSScheduler, "select"),
    "replay_ops": (replay, "replay_ops"),
    "build_kernel_stream": (replay, "build_kernel_stream"),
    "StateCache.get": (StateCache, "get"),
    "StateCache.put": (StateCache, "put"),
}
HOST_CALLS = {
    ("MT", "gddr5", "PAE", 0.1, "exact"):
        {"decode_fields": 8, "FRFCFSScheduler.select": 2565,
         "replay_ops": 0, "build_kernel_stream": 0,
         "StateCache.get": 0, "StateCache.put": 0},
    ("SC", "gddr5", "PAE", 0.5, "auto"):
        {"decode_fields": 11, "FRFCFSScheduler.select": 2865,
         "replay_ops": 2, "build_kernel_stream": 2,
         "StateCache.get": 2, "StateCache.put": 2},
    ("SRAD2", "gddr5", "PAE", 1.0, "auto"):
        {"decode_fields": 11, "FRFCFSScheduler.select": 8993,
         "replay_ops": 2, "build_kernel_stream": 1,
         "StateCache.get": 0, "StateCache.put": 0},
}


def pinned_table_hash():
    rows = sorted([*key, digest] for key, digest in PINNED.items())
    return hashlib.sha256(canonical_json(rows).encode("ascii")).hexdigest()


def test_pinned_digests_belong_to_the_schema_version():
    recorded = PINNED_TABLE_BY_SCHEMA.get(CACHE_SCHEMA_VERSION)
    assert recorded == pinned_table_hash(), (
        f"PINNED no longer hashes to the table recorded for "
        f"CACHE_SCHEMA_VERSION {CACHE_SCHEMA_VERSION}: results cached under "
        f"that version would be stale.  Bump CACHE_SCHEMA_VERSION in "
        f"repro/runner/config.py and record {pinned_table_hash()} under the "
        f"new version in PINNED_TABLE_BY_SCHEMA."
    )


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


@pytest.mark.parametrize("key", sorted(HOST_CALLS), ids=str)
def test_host_call_counts_pinned(monkeypatch, key):
    counts = dict.fromkeys(HOST_CALLS[key], 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name, (owner, attribute) in COUNTED.items():
        monkeypatch.setattr(owner, attribute, counting(
            name, getattr(owner, attribute)
        ))
    monkeypatch.setattr(worker, "_PROCESS_CONTEXT", None)
    workload, memory, scheme, scale, fidelity = key
    api.simulate(
        workload, scheme, scale=scale, memory=memory, fidelity=fidelity
    )
    assert counts == HOST_CALLS[key]
