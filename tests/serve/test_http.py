"""End-to-end HTTP tests: ReproServer + ServerThread + ReproClient."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.api as api
import repro.serve.jobs
from repro.client import ClientError, ReproClient
from repro.core import hynix_gddr5_map
from repro.registry import make_scheme
from repro.runner import render_report
from repro.serve import ReproServer, ServerThread
from repro.serve.jobs import Job
from repro.serve.protocol import JOB_QUEUED
from repro.specs import SchemeSpec

SCALE = 0.25
SCENARIO = {"benchmarks": ["SP"], "schemes": ["PAE"], "scale": SCALE}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    srv = ReproServer(
        port=0,
        cache_dir=str(tmp_path_factory.mktemp("cache")),
        max_jobs=4,
    )
    thread = ServerThread(srv)
    url = thread.start()
    yield srv, url
    thread.stop()


def client_for(url, tenant=None):
    return ReproClient(url, tenant=tenant, timeout=30)


# ----------------------------------------------------------------------
# Happy path
# ----------------------------------------------------------------------
def test_healthz(server):
    _, url = server
    health = client_for(url).healthz()
    assert health["ok"] is True
    assert "runner" in health and "jobs" in health and "tenants" in health


def test_submit_wait_report_byte_identical_to_direct_sweep(server):
    _, url = server
    client = client_for(url, tenant="alice")
    job = client.submit(SCENARIO)
    assert job["state"] in ("queued", "running")
    assert job["tenant"] == "alice"

    done = client.wait(job["id"], timeout=180)
    assert done["state"] == "done"
    progress = done["progress"]
    assert progress["completed"] == progress["total"] == 2  # BASE + PAE

    text = client.report_text(job["id"])
    assert text == render_report(api.sweep(SCENARIO))
    assert client.report(job["id"]) == api.sweep(SCENARIO)


def test_job_listing_knows_the_job(server):
    _, url = server
    client = client_for(url)
    job = client.submit(SCENARIO)
    client.wait(job["id"], timeout=180)
    listed = client.jobs()["jobs"]
    assert job["id"] in {entry["id"] for entry in listed}


def test_tenant_namespace_appears_on_disk(server):
    srv, url = server
    client = client_for(url, tenant="diskcheck")
    # A grid no earlier test ran: results served from the warm memo
    # are not re-persisted, so only fresh executions land on disk.
    fresh = dict(SCENARIO, seeds=[7])
    job = client.submit(fresh)
    client.wait(job["id"], timeout=180)
    cache = srv.tenants.cache_for("diskcheck")
    assert cache.root.is_dir()
    assert len(cache) == 2


# ----------------------------------------------------------------------
# Error paths (each status code of the protocol)
# ----------------------------------------------------------------------
def expect_status(callable_, status):
    with pytest.raises(ClientError) as info:
        callable_()
    assert info.value.status == status
    return info.value


def test_400_on_malformed_scenario(server):
    _, url = server
    error = expect_status(
        lambda: client_for(url).submit({"benchmarks": ["NOPE"],
                                        "schemes": ["PAE"]}),
        400,
    )
    assert "invalid scenario" in str(error)
    # Python's json accepts NaN and Infinity literals.
    for scale in (float("nan"), float("inf")):
        error = expect_status(
            lambda: client_for(url).submit(dict(SCENARIO, scale=scale)), 400
        )
        assert "scale and profile_scale must be positive" in str(error)
    for axis, value, message in (
        ("seeds", [-1], "seed must be non-negative"),
        ("n_sms", [2.5], "n_sms must be an integer"),
        ("window", 2.5, "window must be an integer"),
        ("scales", 0.25, "unknown sweep grid key 'scales'"),
        ("scale", True, "scale must be a real number"),
    ):
        error = expect_status(
            lambda: client_for(url).submit(dict(SCENARIO, **{axis: value})),
            400,
        )
        assert message in str(error)
    # A literal matrix is built against the memory's map before any run.
    pae = SchemeSpec.from_scheme(make_scheme("PAE", hynix_gddr5_map()))
    error = expect_status(lambda: client_for(url).submit(dict(
        SCENARIO, schemes=[pae.to_dict()], memories=["stacked"],
    )), 400)
    assert "spec width 30 does not match address map width 32" in str(error)


@pytest.mark.parametrize("target,message", [
    (8.7, "stage target bit must be an integer"),
    (200, "stage target bit 200 outside"),
], ids=["fractional", "out-of-range"])
def test_400_on_bad_stage_bit(server, target, message):
    _, url = server
    scheme = {"type": "scheme_spec", "kind": "stages", "name": "BADBIT",
              "stages": [{"op": "xor", "target": target, "sources": [20]}]}
    error = expect_status(
        lambda: client_for(url).submit(dict(SCENARIO, schemes=[scheme])), 400
    )
    assert message in str(error)


@pytest.mark.parametrize("fidelity", [
    {"kind": "sampled", "warmup": 1, "window": 2, "period": 16},
    {"kind": "auto", "exemplar": 3},
    {"kind": "auto", "exemplars": 3},
], ids=["sampled", "auto-typo", "auto-tuned"])
def test_400_on_bad_fidelity(server, fidelity):
    _, url = server
    error = expect_status(
        lambda: client_for(url).submit(dict(SCENARIO, fidelity=fidelity)),
        400,
    )
    assert "invalid scenario" in str(error)


def test_400_on_non_json_body(server):
    _, url = server
    request = urllib.request.Request(
        f"{url}/v1/sweeps", data=b"not json", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=10)
    assert info.value.code == 400
    info.value.close()


def test_400_on_invalid_tenant_name(server):
    _, url = server
    expect_status(
        lambda: client_for(url, tenant="../escape").submit(SCENARIO), 400
    )


@pytest.mark.parametrize("length", ["abc", "-5", "1.5"])
def test_400_on_malformed_content_length(server, length):
    srv, _ = server
    with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
        sock.sendall(
            f"POST /v1/sweeps HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
            .encode("latin-1")
        )
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400")
    assert "Content-Length" in json.loads(body)["error"]


def read_reply(sock):
    """Read *sock* to its end; return the reply's status line and
    headers, and its body."""
    reply = b""
    while chunk := sock.recv(4096):
        reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head, body


@pytest.mark.parametrize("request_bytes,status", [
    (b"GET /v1/healthz HTTP/1.1\r\nX-Pad: " + b"x" * 70_000 + b"\r\n\r\n",
     431),
    (b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
    (b"GET /v1/healthz HTTP/1.1\r\n"
     + b"".join(b"X-H%d: 1\r\n" % i for i in range(101)) + b"\r\n", 431),
    (b"GARBAGE\r\n\r\n", 400),
    (b"GET /v1/healthz\r\n\r\n", 400),
    (b"DELETE /v1/healthz HTTP/1.1\r\n\r\n", 405),
], ids=["long-header", "long-target", "101-headers", "garbage", "two-words",
        "delete"])
def test_malformed_request_gets_a_json_status(server, request_bytes, status):
    srv, url = server
    with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
        sock.sendall(request_bytes)
        head, body = read_reply(sock)
    assert head.startswith(f"HTTP/1.1 {status} ".encode())
    assert json.loads(body)["error"]
    assert client_for(url).healthz()["ok"] is True


def test_a_stalled_body_does_not_delay_healthz(server):
    srv, url = server
    with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
        sock.sendall(b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: 100\r\n"
                     b"\r\n" + b" " * 50)
        begin = time.monotonic()
        assert ReproClient(url, timeout=5).healthz()["ok"] is True
        assert time.monotonic() - begin < 5
        # A body that ends short of its Content-Length is the client's 400.
        sock.shutdown(socket.SHUT_WR)
        head, body = read_reply(sock)
    assert head.startswith(b"HTTP/1.1 400 ")
    assert "ended after 50 of 100 bytes" in json.loads(body)["error"]


@pytest.mark.parametrize("settings", [
    {"runners": 2}, {"runners": 0}, {"port": 70000}, {"port": -1},
], ids=["runners-2", "runners-0", "port-70000", "port-negative"])
def test_server_refuses_bad_settings(settings):
    with pytest.raises(ValueError):
        ReproServer(**{"port": 0, "cache_dir": None, **settings})


def test_stop_does_not_wait_for_a_stalled_client(tmp_path):
    srv = ReproServer(port=0, cache_dir=str(tmp_path / "c"))
    server_thread = ServerThread(srv)
    url = server_thread.start()
    with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
        sock.sendall(b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: 100\r\n"
                     b"\r\n")
        # Accepted in order: once healthz answers, the stalled request
        # has its thread, blocked reading the body.
        assert client_for(url).healthz()["ok"] is True
        stopper = threading.Thread(target=server_thread.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=10)
        assert not stopper.is_alive(), "stop waited for the stalled client"


def test_404_on_unknown_job_and_path(server):
    _, url = server
    client = client_for(url)
    expect_status(lambda: client.status("job-999999-deadbeef"), 404)
    expect_status(lambda: client._request("GET", "/nonsense"), 404)


def test_405_on_wrong_method(server):
    _, url = server
    expect_status(
        lambda: client_for(url)._request("POST", "/healthz", body={}), 405
    )


def test_409_report_before_terminal(server):
    srv, url = server
    # Deterministic: plant a queued job rather than racing a real one.
    job = Job(id="job-000000-feedface", tenant="public", grid=None,
              state=JOB_QUEUED)
    with srv.jobs._lock:
        srv.jobs._jobs[job.id] = job
        srv.jobs._order.append(job.id)
    error = expect_status(
        lambda: client_for(url).report_text(job.id), 409
    )
    assert "queued" in str(error)


def test_413_on_oversized_body(server):
    _, url = server
    request = urllib.request.Request(
        f"{url}/v1/sweeps", data=b"x", method="POST",
        headers={"Content-Length": str(64 * 1024 * 1024)},
    )
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=10)
    assert info.value.code == 413
    info.value.close()


def test_oldest_finished_job_is_forgotten_past_the_limit(
        tmp_path, monkeypatch):
    monkeypatch.setattr(repro.serve.jobs, "MAX_FINISHED_JOBS", 2)
    srv = ReproServer(port=0, cache_dir=str(tmp_path / "c"))
    with ServerThread(srv) as url:
        client = client_for(url)
        ids = []
        for _ in range(3):
            job = client.submit(SCENARIO)
            assert client.wait(job["id"], timeout=180)["state"] == "done"
            ids.append(job["id"])
        expect_status(lambda: client.status(ids[0]), 404)
        assert [entry["id"] for entry in client.jobs()["jobs"]] == [
            ids[2], ids[1],
        ]
        assert client.report_text(ids[1]) == client.report_text(ids[2])


# ----------------------------------------------------------------------
# Fault containment over HTTP
# ----------------------------------------------------------------------
def test_poisoned_config_yields_partial_job_and_server_survives(tmp_path):
    srv = ReproServer(
        port=0, cache_dir=str(tmp_path / "c"), faults="raise@SP/PM",
    )
    with ServerThread(srv) as url:
        client = client_for(url)
        poison = {"benchmarks": ["SP"], "schemes": ["PM"], "scale": SCALE}
        job = client.submit(poison)
        done = client.wait(job["id"], timeout=180)
        assert done["state"] == "partial"
        failure = done["failures"][0]
        assert failure["benchmark"] == "SP" and failure["scheme"] == "PM"
        report = client.report(job["id"])
        assert report["failures"]

        # The server is still healthy and still serves clean sweeps.
        clean = client.submit({"benchmarks": ["MT"], "schemes": ["PAE"],
                               "scale": SCALE})
        assert client.wait(clean["id"], timeout=180)["state"] == "done"
    srv.close()
