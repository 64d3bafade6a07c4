"""The pod's HTTP front end refuses request bodies it cannot or should not read.

A ``Content-Length`` that is not a byte count gets 400 ``bad-request``; one
above :data:`~repro.service.server.MAX_REQUEST_BYTES` gets 413
``payload-too-large`` before any of the body is read.  Either way the
client gets an answer, and the pod keeps serving.  A client that stops
sending mid-request is disconnected after the handler's socket timeout.
"""

import http.client
import json
import socket

import pytest

from repro.service import PodServer, ServerConfig
from repro.service import server as server_module
from repro.service.server import MAX_REQUEST_BYTES


@pytest.fixture
def pod(tmp_path):
    server = PodServer(ServerConfig(store_dir=str(tmp_path / "pod"), port=0, workers=1))
    server.start()
    yield server
    server.shutdown()


def post_with_length(port: int, length: str, body: bytes = b"") -> tuple:
    """POST /v1/jobs declaring *length*, sending only *body*."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.putrequest("POST", "/v1/jobs")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", length)
        connection.endheaders(body)
        response = connection.getresponse()
        return (
            response.status,
            json.loads(response.read()),
            response.getheader("Connection"),
        )
    finally:
        connection.close()


def healthy(port: int) -> bool:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", "/healthz")
        return connection.getresponse().status == 200
    finally:
        connection.close()


@pytest.mark.parametrize("length", ["abc", "-5", "1.5", ""])
def test_malformed_length_is_bad_request(pod, length):
    status, body, connection = post_with_length(pod.port, length, b"{}")
    assert status == 400
    assert body["error"]["code"] == "bad-request"
    assert body["error"]["retryable"] is False
    assert connection == "close"
    assert healthy(pod.port)


def test_oversized_length_is_refused_unread(pod):
    # nothing but the headers is sent: an answer proves the body was not
    # waited for
    status, body, connection = post_with_length(pod.port, str(MAX_REQUEST_BYTES + 1))
    assert status == 413
    assert body["error"]["code"] == "payload-too-large"
    assert body["error"]["retryable"] is False
    assert connection == "close"
    assert pod.jobs.jobs() == []
    assert healthy(pod.port)


def test_length_at_the_cap_is_read(pod):
    body = b" " * (MAX_REQUEST_BYTES - 2) + b"{}"
    status, answer, _ = post_with_length(pod.port, str(len(body)), body)
    # read in full and parsed; the empty object is then a bad request
    assert status == 400
    assert answer["error"]["code"] == "bad-request"
    assert "JSON" not in answer["error"]["message"]


def test_client_stalled_mid_header_is_disconnected(tmp_path, monkeypatch):
    monkeypatch.setattr(server_module, "SOCKET_TIMEOUT_SECONDS", 0.5)
    server = PodServer(ServerConfig(store_dir=str(tmp_path / "pod"), port=0, workers=1))
    server.start()
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as stalled:
            stalled.sendall(b"POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Ty")
            # the pod drops the connection once the timeout passes: EOF, no
            # answer
            assert stalled.recv(1024) == b""
        assert healthy(server.port)
    finally:
        server.shutdown()
