"""End-to-end HTTP tests: ReproServer + ServerThread + ReproClient."""

import urllib.error
import urllib.request

import pytest

import repro.api as api
from repro.client import ClientError, ReproClient
from repro.runner import FailurePolicy, render_report
from repro.serve import ReproServer, ServerThread, TenantQuota
from repro.serve.jobs import Job
from repro.serve.protocol import JOB_QUEUED

SCALE = 0.25
SCENARIO = {"benchmarks": ["SP"], "schemes": ["PAE"], "scale": SCALE}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    srv = ReproServer(
        port=0,
        cache_dir=str(tmp_path_factory.mktemp("cache")),
        max_jobs=4,
        policy=FailurePolicy(max_retries=0),
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
    namespace = srv.tenants.namespace_path("diskcheck")
    assert namespace.is_dir()
    assert srv.tenants.usage("diskcheck")["entries"] == 2


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


def test_400_on_invalid_tenant_name(server):
    _, url = server
    expect_status(
        lambda: client_for(url, tenant="../escape").submit(SCENARIO), 400
    )


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


def test_429_when_tenant_is_at_its_job_limit(tmp_path):
    # Separate server: the limit must not disturb the module fixture.
    srv = ReproServer(port=0, cache_dir=str(tmp_path / "c"),
                      quota=TenantQuota(max_jobs=1), max_jobs=4)
    with ServerThread(srv) as url:
        client = client_for(url, tenant="busy")
        big = {"benchmarks": ["SP", "MT"], "schemes": ["PM", "PAE"],
               "scale": SCALE}
        first = client.submit(big)
        # The first job may finish quickly; only assert 429 if it is
        # still in flight when the second submission lands.
        try:
            second = client.submit(big)
        except ClientError as error:
            assert error.status == 429
        else:
            client.wait(second["id"], timeout=180)
        client.wait(first["id"], timeout=180)
    srv.close()


# ----------------------------------------------------------------------
# Fault containment over HTTP
# ----------------------------------------------------------------------
def test_poisoned_config_yields_partial_job_and_server_survives(tmp_path):
    srv = ReproServer(
        port=0, cache_dir=str(tmp_path / "c"),
        policy=FailurePolicy(max_retries=0),
        faults="raise@SP/PM:times=inf",
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
