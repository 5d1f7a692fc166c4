"""CLI surfaces of PR 9: cache ls --json, submit error paths, parsers."""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
import repro.api as api
from repro.cli import build_parser, main
from repro.client import ReproClient
from repro.runner import CACHE_SCHEMA_VERSION


# ----------------------------------------------------------------------
# repro cache ls --json
# ----------------------------------------------------------------------
def test_cache_ls_json_on_populated_cache(tmp_path, capsys):
    api.sweep(
        benchmarks=["SP"], schemes=["PAE"], scale=0.25,
        cache_dir=str(tmp_path),
    )
    assert main(["cache", "ls", "--cache-dir", str(tmp_path), "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["current_schema"] == CACHE_SCHEMA_VERSION
    assert document["totals"]["entries"] == 2  # BASE + PAE
    assert document["totals"]["bytes"] > 0
    assert len(document["entries"]) == 2
    for entry in document["entries"]:
        assert set(entry) == {
            "key", "size_bytes", "schema", "wall_seconds", "benchmark",
            "scheme", "mtime",
        }
        assert entry["schema"] == CACHE_SCHEMA_VERSION
        assert entry["size_bytes"] > 0
        assert entry["wall_seconds"] is not None
        assert entry["mtime"] is not None
    # Deterministic ordering: sorted by key.
    keys = [entry["key"] for entry in document["entries"]]
    assert keys == sorted(keys)


def test_cache_ls_json_on_empty_cache(tmp_path, capsys):
    assert main(["cache", "ls", "--cache-dir", str(tmp_path), "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["totals"] == {"entries": 0, "bytes": 0,
                                  "wall_seconds": 0.0}
    assert document["entries"] == []


def test_cache_ls_table_still_works(tmp_path, capsys):
    assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0 records" in out


# ----------------------------------------------------------------------
# repro submit — client error mapping
# ----------------------------------------------------------------------
def test_submit_unreachable_server_is_a_usage_error(capsys):
    # Reserved TEST-NET address: connection refused / unroutable fast.
    code = main([
        "submit", "--server", "http://127.0.0.1:9",
        "--benchmarks", "SP", "--schemes", "PAE", "--scale", "0.25",
        "--http-timeout", "2",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_submit_validates_grid_before_any_network_io(capsys):
    code = main([
        "submit", "--server", "http://127.0.0.1:9",
        "--benchmarks", "NOPE", "--schemes", "PAE",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_submit_requires_server_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["submit", "--benchmarks", "SP"])
    assert info.value.code == 2


# ----------------------------------------------------------------------
# repro serve — the process
# ----------------------------------------------------------------------
def test_sigterm_stops_the_server_and_its_workers(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    port_file = tmp_path / "port.txt"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--port-file", str(port_file), "--workers", "2",
         "--cache-dir", str(tmp_path / "cache")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not (port_file.exists() and port_file.read_text().endswith("\n")):
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "server never bound"
            time.sleep(0.05)
        client = ReproClient(
            f"http://127.0.0.1:{port_file.read_text().strip()}", timeout=30
        )
        job = client.submit(
            {"benchmarks": ["SP"], "schemes": ["PAE"], "scale": 0.25}
        )
        assert client.wait(job["id"], timeout=180)["state"] == "done"

        proc.send_signal(signal.SIGTERM)
        # The pool's worker processes inherit the pipes, so the output
        # ends only once they have exited too.
        _, err = proc.communicate(timeout=10)
        assert proc.returncode == 0, err
        assert "shutting down" in err
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)


# ----------------------------------------------------------------------
# Parser wiring
# ----------------------------------------------------------------------
def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.host == "127.0.0.1"
    assert args.port == 8731
    assert args.runners == 1
    assert args.max_jobs == 8
    assert not hasattr(args, "tenant_max_bytes")
    assert args.cache_dir == ".repro-cache"


def test_submit_parser_defaults():
    args = build_parser().parse_args(
        ["submit", "--server", "http://x:1"]
    )
    assert args.tenant == ""
    assert args.no_wait is False
    assert args.poll == 0.25
    assert args.output == "-"
