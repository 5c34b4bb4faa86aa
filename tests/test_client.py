"""HttpClient against a scripted raw-socket target.

Each request the target reads is answered by the next scripted action:
canned reply bytes, a stall, or a reset part-way through a reply.  The
target records every request's raw bytes and counts the connections it
accepted, so the tests can see what went over the wire.
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import time
from urllib.parse import urlencode

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restfuzz import client as client_module
from restfuzz.client import HttpClient
from restfuzz.rendering import ReadyRequest
from restfuzz.responses import ResponseClass

TIMEOUT = 0.2


def reply(data: bytes, close: bool = False):
    def act(conn):
        conn.sendall(data)
        return not close
    return act


def stall(conn):
    """Answer nothing; hold the connection until the client gives up."""
    conn.settimeout(5.0)
    try:
        while conn.recv(65536):
            pass
    except OSError:
        pass
    return False


def reset_after(data: bytes):
    def act(conn):
        conn.sendall(data)
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        return False
    return act


def ok(body: bytes = b"{}") -> bytes:
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


class ScriptedTarget:
    def __init__(self):
        self.script: list = []
        self.requests: list[bytes] = []
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._listener.getsockname()[1]}"

    def _serve(self) -> None:
        while True:
            conn, _ = self._listener.accept()
            if self._stopped.is_set():
                conn.close()
                return
            self.connections += 1
            with conn:
                conn.settimeout(5.0)
                buffered = b""
                while True:
                    request, buffered = _read_request(conn, buffered)
                    if request is None:
                        break
                    self.requests.append(request)
                    try:
                        if not self.script.pop(0)(conn):
                            break
                    except OSError:
                        break

    def stop(self) -> None:
        self._stopped.set()
        socket.create_connection(self._listener.getsockname(), timeout=5).close()  # wake accept()
        self._thread.join(5.0)
        assert not self._thread.is_alive()
        self._listener.close()


def _read_request(conn, buffered: bytes) -> tuple[bytes | None, bytes]:
    try:
        while b"\r\n\r\n" not in buffered:
            chunk = conn.recv(65536)
            if not chunk:
                return None, b""
            buffered += chunk
        head, _, rest = buffered.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            rest += conn.recv(65536)
    except OSError:
        return None, b""
    return head + b"\r\n\r\n" + rest[:length], rest[length:]


@pytest.fixture
def target():
    scripted = ScriptedTarget()
    yield scripted
    scripted.stop()


@pytest.fixture
def client(target):
    with HttpClient(target.url, timeout=TIMEOUT) as scripted_client:
        yield scripted_client


def http_client_bytes(target, request: ReadyRequest, auth_token: str | None) -> bytes:
    """What ``http.client`` writes for the request, framed as HttpClient frames it."""
    path = request.path
    if request.query:
        path = f"{path}?{urlencode(request.query)}"
    headers = dict(request.headers)
    body = None
    if request.body:
        body = json.dumps(request.body).encode()
        headers["Content-Type"] = "application/json"
    if auth_token and "Authorization" not in headers:
        headers["Authorization"] = f"Bearer {auth_token}"
    host, port = target.url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=5)
    try:
        conn.request(request.method, path, body=body, headers=headers)
        conn.getresponse().read()
    finally:
        conn.close()
    return target.requests[-1]


class TestRequestBytes:
    @pytest.mark.parametrize("auth_token", [None, "s3cret"])
    @pytest.mark.parametrize("request_", [
        ReadyRequest("GET", "/groups", query={"per_page": "5", "search": "a b&c"}),
        ReadyRequest("GET", "/groups", query={"sort": "name_asc", "v": "1.2~x-y", "q": ""}),
        ReadyRequest("POST", "/groups", body={"name": "dev-team", "path": "eng"}),
        ReadyRequest("POST", "/groups"),
        ReadyRequest("PUT", "/groups/1"),
        ReadyRequest("DELETE", "/groups/1"),
        ReadyRequest("GET", "/groups/1", headers={"X-Trace": "7", "Accept": "*/*"}),
        ReadyRequest("GET", "/groups/1", headers={"Authorization": "Basic eA=="}),
    ], ids=["get-query", "get-plain-query", "post-body", "post-empty", "put-empty", "delete",
            "extra-headers", "own-authorization"])
    def test_equal_to_http_client(self, target, request_, auth_token):
        target.script = [reply(ok()), reply(ok())]
        expected = http_client_bytes(target, request_, auth_token)
        with HttpClient(target.url, timeout=TIMEOUT, auth_token=auth_token) as client:
            assert client.send(request_).status == 200
        assert target.requests[-1] == expected

    @pytest.mark.parametrize("request_", [
        ReadyRequest("GET", "/groups/a b"),
        ReadyRequest("GET", "/groups/1\r\nX-Injected: 1"),
        ReadyRequest("GET", "/groups", headers={"X-A": "1\r\nX-Injected: 1"}),
        ReadyRequest("GET", "/groups", headers={"X-A\n": "1"}),
    ], ids=["space-in-path", "crlf-in-path", "crlf-in-value", "lf-in-name"])
    def test_unsendable_request_is_transport_with_nothing_sent(self, target, client, request_):
        target.script = [reply(ok(b"[]"))]
        record = client.send(request_)
        assert record.klass is ResponseClass.TRANSPORT
        assert client.send(ReadyRequest("GET", "/ok")).body == "[]"
        assert len(target.requests) == 1
        assert target.requests[0].startswith(b"GET /ok ")


    @settings(max_examples=300, deadline=None)
    @given(query=st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=4))
    def test_query_encodes_as_urlencode(self, query):
        client = HttpClient("http://127.0.0.1:9")
        try:
            head = client._encode(ReadyRequest("GET", "/g", query=query))
        except ValueError:
            return  # an unsendable target; the cases above cover those
        request_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        expected = "/g" + (f"?{urlencode(query)}" if query else "")
        assert request_line == f"GET {expected} HTTP/1.1"

    def test_auth_token_with_crlf_is_transport_with_nothing_sent(self, target):
        target.script = [reply(ok(b"[]"))]
        with HttpClient(target.url, timeout=TIMEOUT, auth_token="x\r\nX-Injected: 1") as client:
            assert client.send(ReadyRequest("GET", "/groups")).klass is ResponseClass.TRANSPORT
        assert target.requests == []


class TestBodyFraming:
    def test_content_length(self, target, client):
        target.script = [reply(ok(b'{"id": 1}')), reply(ok(b"[]"))]
        record = client.send(ReadyRequest("GET", "/groups/1"))
        assert (record.status, record.klass, record.body) == (200, ResponseClass.PASS_2XX, '{"id": 1}')
        assert record.latency > 0
        assert client.send(ReadyRequest("GET", "/groups")).body == "[]"
        assert target.connections == 1

    def test_chunked_with_extension_and_trailer(self, target, client):
        target.script = [
            reply(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                  b"5;ext=1\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: 1\r\n\r\n"),
            reply(ok()),
        ]
        assert client.send(ReadyRequest("GET", "/a")).body == "hello world"
        assert client.send(ReadyRequest("GET", "/b")).status == 200
        assert target.connections == 1

    def test_close_delimited(self, target, client):
        target.script = [reply(b"HTTP/1.1 200 OK\r\n\r\nuntil close", close=True), reply(ok())]
        assert client.send(ReadyRequest("GET", "/a")).body == "until close"
        assert client.send(ReadyRequest("GET", "/b")).status == 200
        assert target.connections == 2

    def test_bytes_past_the_reply_mean_a_fresh_connection(self, target, client):
        target.script = [reply(ok(b"[1]") + b"HTTP/1.1 200 OK\r\n"), reply(ok(b"[2]"))]
        assert client.send(ReadyRequest("GET", "/a")).body == "[1]"
        assert client.send(ReadyRequest("GET", "/b")).body == "[2]"
        assert target.connections == 2

    @pytest.mark.parametrize("method, head", [
        ("GET", b"HTTP/1.1 204 No Content\r\n\r\n"),
        ("GET", b"HTTP/1.1 304 Not Modified\r\nContent-Length: 10\r\n\r\n"),
        ("HEAD", b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n"),
    ], ids=["204", "304", "head"])
    def test_no_body(self, target, client, method, head):
        target.script = [reply(head), reply(ok(b"[]"))]
        assert client.send(ReadyRequest(method, "/a")).body == ""
        assert client.send(ReadyRequest("GET", "/b")).body == "[]"
        assert target.connections == 1

    @pytest.mark.parametrize("head", [
        b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
        b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
    ], ids=["connection-close", "http-1.0"])
    def test_target_closing_means_a_fresh_connection(self, target, client, head):
        target.script = [reply(head), reply(ok())]
        assert client.send(ReadyRequest("GET", "/a")).body == "ok"
        assert client.send(ReadyRequest("GET", "/b")).status == 200
        assert target.connections == 2

    def test_http_1_0_keep_alive_keeps_the_connection(self, target, client):
        head = b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok"
        target.script = [reply(head), reply(ok())]
        assert client.send(ReadyRequest("GET", "/a")).body == "ok"
        assert client.send(ReadyRequest("GET", "/b")).status == 200
        assert target.connections == 1


class TestStatus:
    def test_100_continue_is_skipped(self, target, client):
        target.script = [reply(b"HTTP/1.1 100 Continue\r\n\r\n"
                               b"HTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\nok")]
        record = client.send(ReadyRequest("POST", "/groups", body={"name": "x"}))
        assert (record.status, record.klass, record.body) == (201, ResponseClass.PASS_2XX, "ok")

    def test_3xx_is_a_rejection(self, target, client):
        target.script = [reply(b"HTTP/1.1 302 Found\r\nLocation: /b\r\nContent-Length: 0\r\n\r\n")]
        record = client.send(ReadyRequest("GET", "/a"))
        assert (record.status, record.klass) == (302, ResponseClass.REJECT_4XX)

    def test_non_json_2xx_body_is_passed_through(self, target, client):
        html = b"<html>not json</html>"
        target.script = [reply(b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                               b"Content-Length: %d\r\n\r\n%s" % (len(html), html))]
        record = client.send(ReadyRequest("GET", "/a"))
        assert (record.klass, record.body) == (ResponseClass.PASS_2XX, html.decode())


class TestFaults:
    @pytest.mark.parametrize("action", [
        reply(b"garbage\r\n\r\n"),
        reply(b"HTTP/1.1 20x OK\r\nContent-Length: 0\r\n\r\n"),
        reset_after(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartial"),
        reply(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartial", close=True),
        reply(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"),
        stall,
    ], ids=["garbage-status-line", "bad-status-code", "reset-mid-body",
            "closed-mid-body", "bad-chunk-size", "stall"])
    def test_fault_is_transport_and_the_next_send_succeeds(self, target, client, action):
        target.script = [action, reply(ok(b"[]"))]
        started = time.perf_counter()
        record = client.send(ReadyRequest("GET", "/a"))
        elapsed = time.perf_counter() - started
        assert (record.status, record.klass) == (None, ResponseClass.TRANSPORT)
        assert record.body.startswith("read failed")
        assert elapsed < TIMEOUT + 0.3
        assert client.send(ReadyRequest("GET", "/b")).body == "[]"
        assert target.connections == 2

    @pytest.mark.parametrize("data", [
        b"HTTP/1.1 200 OK\r\nX-Big: " + b"a" * (64 * 1024),
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + b"1" * (64 * 1024 + 1),
    ], ids=["head", "chunk-size-line"])
    def test_oversized_head_or_line_is_refused_without_waiting(self, target, client, data):
        target.script = [reply(data), reply(ok(b"[]"))]
        record = client.send(ReadyRequest("GET", "/a"))
        assert record.klass is ResponseClass.TRANSPORT
        assert "64 KiB" in record.body
        assert client.send(ReadyRequest("GET", "/b")).body == "[]"


class TestBodyCap:
    def test_content_length_over_the_cap_is_refused_without_reading(self, target, client):
        head = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (client_module._MAX_BODY + 1)
        target.script = [reply(head + b"partial"), reply(ok(b"[]"))]
        started = time.perf_counter()
        record = client.send(ReadyRequest("GET", "/a"))
        assert time.perf_counter() - started < TIMEOUT  # no wait for the body
        assert record.klass is ResponseClass.TRANSPORT
        assert record.body == f"read failed: body over {client_module._MAX_BODY} bytes"
        assert client.send(ReadyRequest("GET", "/b")).body == "[]"
        assert target.connections == 2

    @pytest.mark.parametrize("data, close", [
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"300\r\n" + b"a" * 768 + b"\r\n300\r\n" + b"b" * 768 + b"\r\n0\r\n\r\n", False),
        (b"HTTP/1.1 200 OK\r\n\r\n" + b"c" * 1025, True),
    ], ids=["chunked", "read-to-close"])
    def test_body_growing_past_the_cap_is_transport(self, target, client, monkeypatch, data, close):
        monkeypatch.setattr(client_module, "_MAX_BODY", 1024)
        target.script = [reply(data, close=close), reply(ok(b"[]"))]
        record = client.send(ReadyRequest("GET", "/a"))
        assert (record.status, record.klass) == (None, ResponseClass.TRANSPORT)
        assert record.body == "read failed: body over 1024 bytes"
        assert client.send(ReadyRequest("GET", "/b")).body == "[]"
        assert target.connections == 2

    @pytest.mark.parametrize("data, close", [
        (ok(b"d" * 1024), False),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"200\r\n" + b"e" * 512 + b"\r\n200\r\n" + b"e" * 512 + b"\r\n0\r\n\r\n", False),
        (b"HTTP/1.1 200 OK\r\n\r\n" + b"f" * 1024, True),
    ], ids=["content-length", "chunked", "read-to-close"])
    def test_body_at_the_cap_is_read_whole(self, target, client, monkeypatch, data, close):
        monkeypatch.setattr(client_module, "_MAX_BODY", 1024)
        target.script = [reply(data, close=close), reply(ok(b"[]"))]
        record = client.send(ReadyRequest("GET", "/a"))
        assert (record.status, len(record.body)) == (200, 1024)
        assert client.send(ReadyRequest("GET", "/b")).body == "[]"
