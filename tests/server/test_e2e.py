"""End-to-end service tests over real sockets (stdlib fallback server).

The battery exercises the acceptance contract of the experiment service:
POST a sweep, poll the job, and the served report is byte-identical to the
file ``repro report --json`` writes; duplicate and concurrent submissions
of one spec share a single computation; submission floods get 429s.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.server import ServerConfig, ServerCore, start_stdlib_server
from repro.store import ExperimentStore


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = ExperimentStore(tmp_path_factory.mktemp("server-store"))
    config = ServerConfig(job_workers=2, max_concurrent_jobs=2, rate_limit=0)
    running = start_stdlib_server(ServerCore(store, config))
    yield running
    running.stop()


def request(method, url, body=None, timeout=30.0):
    req = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def poll_until_done(base_url, job_id, timeout=300.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, _, body = request("GET", f"{base_url}/jobs/{job_id}")
        assert status == 200
        document = json.loads(body)
        if document["status"] in ("done", "failed"):
            return document
        time.sleep(0.2)
    raise AssertionError(f"job {job_id} still not finished after {timeout}s")


def test_full_sweep_report_is_byte_identical_to_cli(server, tmp_path):
    spec = json.dumps({"arrays": [32], "trials": 2, "workers": 2}).encode()
    status, _, body = request("POST", f"{server.url}/sweeps", spec)
    assert status == 202
    job_id = json.loads(body)["job"]
    document = poll_until_done(server.url, job_id)
    assert document["status"] == "done", document.get("error")
    assert document["launches"] == 1

    status, headers, served = request("GET", f"{server.url}/jobs/{job_id}/report")
    assert status == 200
    assert headers["Content-Type"] == "application/json"

    # The same sweep through the CLI, into a fresh store and JSON file.
    out = tmp_path / "report.json"
    cli_main(
        [
            "--store",
            str(tmp_path / "cli-store"),
            "report",
            "--json",
            str(out),
            "--arrays",
            "32",
            "--trials",
            "2",
        ]
    )
    assert served == out.read_bytes()


def test_concurrent_identical_posts_share_one_computation(server):
    spec = json.dumps({"experiments": ["table1"], "workers": 1}).encode()
    responses = []

    def submit():
        responses.append(request("POST", f"{server.url}/sweeps", spec))

    threads = [threading.Thread(target=submit) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    codes = sorted(status for status, _, _ in responses)
    assert codes == [200, 202]  # one creation, one dedup — never two jobs
    ids = {json.loads(body)["job"] for _, _, body in responses}
    assert len(ids) == 1
    (job_id,) = ids

    document = poll_until_done(server.url, job_id)
    assert document["status"] == "done"
    assert document["launches"] == 1

    # A warm resubmission performs zero new computations: no store writes,
    # no relaunch, and the report bytes come back unchanged.
    puts_before = server.core.store.puts
    _, _, first_report = request("GET", f"{server.url}/jobs/{job_id}/report")
    status, _, body = request("POST", f"{server.url}/sweeps", spec)
    assert status == 200
    again = json.loads(body)
    assert again["job"] == job_id
    assert again["deduplicated"] is True
    assert again["launches"] == 1
    assert server.core.store.puts == puts_before
    _, _, second_report = request("GET", f"{server.url}/jobs/{job_id}/report")
    assert second_report == first_report


def test_submission_flood_gets_429_with_retry_after(tmp_path):
    store = ExperimentStore(tmp_path / "store")
    config = ServerConfig(job_workers=1, rate_limit=60, rate_burst=1)
    limited = start_stdlib_server(ServerCore(store, config))
    try:
        # Invalid bodies spend rate tokens too, so nothing ever computes here.
        first, _, _ = request("POST", f"{limited.url}/sweeps", b"{bad")
        assert first == 400
        second, headers, body = request("POST", f"{limited.url}/sweeps", b"{bad")
        assert second == 429
        assert int(headers["Retry-After"]) >= 1
        assert "rate limit" in json.loads(body)["error"]
    finally:
        limited.stop()


def test_health_workers_and_artifacts_endpoints(server):
    status, _, body = request("GET", f"{server.url}/healthz")
    assert status == 200
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["store"] == str(server.core.store.root)

    status, _, body = request("GET", f"{server.url}/workers")
    assert status == 200
    assert "namespaces" in json.loads(body)

    server.core.store.put("e2e/check", "cd" * 16, {"value": 11})
    status, _, body = request("GET", f"{server.url}/artifacts")
    assert status == 200
    entries = {
        (entry["kind"], entry["fingerprint"])
        for entry in json.loads(body)["artifacts"]
    }
    assert ("e2e/check", "cd" * 16) in entries
    status, _, body = request(
        "GET", f"{server.url}/artifacts/e2e/check/{'cd' * 16}"
    )
    assert status == 200
    assert json.loads(body)["payload"] == {"value": 11}


def raw_exchange(server, head, timeout=2.0):
    """Send raw request bytes, keep the client side open, and return the
    status, headers and body the server answers with within ``timeout``
    seconds."""
    received = b""
    with socket.create_connection(server.address, timeout=timeout) as sock:
        sock.sendall(head)
        # The server closes the connection after its response (HTTP/1.0).
        while chunk := sock.recv(65536):
            received += chunk
    status_line, _, rest = received.partition(b"\r\n")
    header_block, _, body = rest.partition(b"\r\n\r\n")
    headers = dict(
        line.decode("latin-1").split(": ", 1) for line in header_block.split(b"\r\n")
    )
    return int(status_line.split()[1]), headers, body


@pytest.mark.parametrize("length", ["abc", "-1", "-5"])
def test_malformed_content_length_is_a_400_at_once(server, length):
    head = f"POST /sweeps HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
    status, _, body = raw_exchange(server, head.encode())
    assert status == 400
    assert "Content-Length" in json.loads(body)["error"]


def test_chunked_body_is_a_411_and_submits_nothing(server):
    payload = b'{"experiments": ["fig7"], "workers": 1}'
    head = (
        b"POST /sweeps HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
        + f"{len(payload):x}\r\n".encode() + payload + b"\r\n0\r\n\r\n"
    )
    jobs_before = len(server.core.queue.jobs())
    status, _, body = raw_exchange(server, head)
    assert status == 411
    assert "Content-Length" in json.loads(body)["error"]
    assert len(server.core.queue.jobs()) == jobs_before


@pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH", "OPTIONS"])
def test_every_method_gets_the_cores_json_answer(server, method):
    """A method the core does not route is its JSON 404, not an HTML 501."""
    head = f"{method} /sweeps HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
    status, headers, body = raw_exchange(server, head.encode())
    assert status == 404
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body) == {"error": f"no route for {method} /sweeps"}


def test_head_gets_the_cores_status_and_headers_without_a_body(server):
    expected = server.core.handle("HEAD", "/healthz")
    status, headers, body = raw_exchange(server, b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
    assert status == expected.status
    assert headers["Content-Type"] == expected.content_type
    assert headers["Content-Length"] == str(len(expected.body))
    assert body == b""
