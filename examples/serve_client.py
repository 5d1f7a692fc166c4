#!/usr/bin/env python3
"""Sweep-as-a-service in one file: boot a server, be three clients.

Starts an in-process ``repro serve`` (ephemeral port, temp cache
root), then exercises the whole service surface through the plain
:mod:`repro.client` library — exactly what a remote client would do
over the network, minus the second machine:

1. two tenants submit **overlapping** scenarios concurrently — the
   warm runner pool's shared result memo makes sure every unique
   config is simulated exactly once;
2. each report is fetched and checked **byte-identical** to a direct
   in-process ``api.sweep`` of the same grid;
3. ``/v1/healthz`` shows the dedup accounting and the per-tenant
   cache namespaces left on disk.

Against a real server, replace ``ServerThread`` with the URL of a
``repro serve`` process — the client code is unchanged.

Run:  python examples/serve_client.py
Env:  REPRO_EXAMPLE_SCALE (default 0.25) sizes the traces.
"""

import json
import os
import tempfile
import threading

from repro import api
from repro.client import ReproClient
from repro.runner import render_report
from repro.serve import ReproServer, ServerThread

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "0.25"))

# Two scenarios that overlap: both need SP under BASE and PM, so of
# the 2 + 4 = 6 submitted configs (each benchmark also runs BASE)
# only 4 are unique.
ALICE_SCENARIO = {"benchmarks": ["SP"], "schemes": ["PM"], "scale": SCALE}
BOB_SCENARIO = {"benchmarks": ["SP", "MT"], "schemes": ["PM"], "scale": SCALE}


def run_tenant(url: str, tenant: str, scenario: dict, out: dict) -> None:
    """One tenant's whole session: submit, wait, fetch the report."""
    client = ReproClient(url, tenant=tenant)
    job = client.submit(scenario)
    print(f"[{tenant}] submitted {job['id']} ({job['state']})")
    done = client.wait(job["id"], timeout=600)
    progress = done["progress"]
    print(
        f"[{tenant}] {done['state']}: {progress['completed']}/"
        f"{progress['total']} configs, {progress['executed']} executed "
        f"here, {progress['coalesced']} coalesced"
    )
    out[tenant] = client.report_text(job["id"])


def main() -> int:
    with tempfile.TemporaryDirectory() as cache_root:
        server = ReproServer(
            port=0,  # ephemeral: no clash with anything else running
            cache_dir=cache_root,
            max_jobs=4,
        )
        with ServerThread(server) as url:
            print(f"server up at {url}\n")

            reports: dict = {}
            threads = [
                threading.Thread(
                    target=run_tenant, args=(url, tenant, scenario, reports)
                )
                for tenant, scenario in [
                    ("alice", ALICE_SCENARIO), ("bob", BOB_SCENARIO),
                ]
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            # The service contract: each report is byte-identical to a
            # direct api.sweep of the same grid.
            for tenant, scenario in [
                ("alice", ALICE_SCENARIO), ("bob", BOB_SCENARIO),
            ]:
                direct = render_report(api.sweep(scenario))
                matches = reports[tenant] == direct
                print(f"[{tenant}] report byte-identical to api.sweep:",
                      matches)
                assert matches

            health = ReproClient(url).healthz()
            print("\nservice counters:")
            print(json.dumps(
                {k: health[k] for k in ("runner", "coalesce", "jobs")},
                indent=2, sort_keys=True,
            ))
            executed = health["runner"]["executed"]
            print(f"\n6 configs submitted, {executed} simulated "
                  f"(every unique config exactly once)")
            assert executed == 4

            namespaces = health["tenants"]["namespaces"]
            print(f"tenant namespaces on disk: {namespaces}")
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
