"""HttpClient against a scripted raw-socket target.

Each request the target reads is answered by the next scripted action:
canned reply bytes, a stall, or a reset part-way through a reply.  The
target records every request's raw bytes and counts the connections it
accepted, so the tests can see what went over the wire.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import struct
import threading
import time
from urllib.parse import urlencode

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restfuzz import client as client_module
from restfuzz.client import HttpClient, ReadyRequest
from restfuzz.responses import ResponseClass, classify_status

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
    def __init__(self, host: str = "127.0.0.1"):
        self.script: list = []
        self.requests: list[bytes] = []
        self.connections = 0
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server((host, 0), family=family)
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"http://[{host}]:{port}" if ":" in host else f"http://{host}:{port}"

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
        socket.create_connection(self._listener.getsockname()[:2], timeout=5).close()  # wake accept()
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
    headers = {}
    body = None
    if request.body:
        body = json.dumps(request.body).encode()
        headers["Content-Type"] = "application/json"
    if auth_token:
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
    ], ids=["get-query", "get-plain-query", "post-body", "post-empty", "put-empty", "delete"])
    def test_equal_to_http_client(self, target, request_, auth_token):
        target.script = [reply(ok()), reply(ok())]
        expected = http_client_bytes(target, request_, auth_token)
        with HttpClient(target.url, timeout=TIMEOUT, auth_token=auth_token) as client:
            assert client.send(request_).status == 200
        assert target.requests[-1] == expected

    @pytest.mark.parametrize("request_", [
        ReadyRequest("GET", "/groups/a b"),
        ReadyRequest("GET", "/groups/1\r\nX-Injected: 1"),
    ], ids=["space-in-path", "crlf-in-path"])
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

    @settings(max_examples=300, deadline=None)
    @given(body=st.one_of(
        st.dictionaries(
            st.one_of(st.text(max_size=6), st.integers(), st.booleans()),
            st.one_of(st.text(max_size=6), st.text(max_size=6), st.integers(), st.none(),
                      st.lists(st.text(max_size=3), max_size=2)),
            min_size=1, max_size=4),
        st.lists(st.text(max_size=3), min_size=1, max_size=3)))
    def test_body_encodes_as_json_dumps(self, body):
        head = HttpClient("http://127.0.0.1:9")._encode(ReadyRequest("POST", "/g", body=body))
        assert head.split(b"\r\n\r\n", 1)[1] == json.dumps(body).encode()

    def test_auth_token_with_crlf_is_refused_at_construction(self, target):
        with pytest.raises(ValueError, match="CR or LF in the auth token"):
            HttpClient(target.url, timeout=TIMEOUT, auth_token="x\r\nX-Injected: 1")
        assert target.requests == []

    def test_auth_token_latin_1_cannot_encode_is_refused_at_construction(self, target):
        with pytest.raises(ValueError, match="latin-1 cannot encode"):
            HttpClient(target.url, timeout=TIMEOUT, auth_token="s3cret\u20ac")
        assert target.requests == []
        target.script = [reply(ok())]
        with HttpClient(target.url, timeout=TIMEOUT, auth_token="caf\xe9") as client:
            assert client.send(ReadyRequest("GET", "/groups")).status == 200
        assert b"Authorization: Bearer caf\xe9\r\n" in target.requests[-1]


class TestTargetUrl:
    @pytest.mark.parametrize("url", [
        "http://127.0.0.1:8080/api/v4", "http://127.0.0.1:8080/groups",
        "http://127.0.0.1:8080?private=true", "http://127.0.0.1:8080/#top",
        "127.0.0.1:8080/api/v4", "https://127.0.0.1:8080",
        "http://127.0.0.1:abc", "http://127.0.0.1:99999", "http://[::1:8080",
        "http://user@127.0.0.1:8080",
    ], ids=["path", "one-segment-path", "query", "fragment", "bare-with-path", "https",
            "port-not-a-number", "port-out-of-range", "broken-ipv6", "userinfo"])
    def test_anything_but_host_and_port_is_refused(self, url):
        with pytest.raises(ValueError, match="unsupported target url"):
            HttpClient(url)

    @pytest.mark.parametrize(("url", "host_line"), [
        ("http://127.0.0.1:8080", b"Host: 127.0.0.1:8080"),
        ("http://127.0.0.1", b"Host: 127.0.0.1"),
        ("http://[::1]:8080", b"Host: [::1]:8080"),
        ("[::1]:8080", b"Host: [::1]:8080"),
        ("http://[::1]", b"Host: [::1]"),
    ])
    def test_host_line(self, url, host_line):
        head = HttpClient(url)._encode(ReadyRequest("GET", "/groups"))
        assert head.split(b"\r\n")[1] == host_line

    def test_ipv6_literal_connects(self):
        try:
            scripted = ScriptedTarget("::1")
        except OSError:
            pytest.skip("this host cannot bind ::1")
        try:
            scripted.script = [reply(ok(b"[]"))]
            with HttpClient(scripted.url, timeout=TIMEOUT) as client:
                assert client.send(ReadyRequest("GET", "/groups")).body == "[]"
            assert scripted.requests[0].split(b"\r\n")[1] == f"Host: {scripted.url[7:]}".encode()
        finally:
            scripted.stop()

    @pytest.mark.parametrize("suffix", ["", "/"])
    @pytest.mark.parametrize("scheme", ["http://", ""])
    def test_host_and_port_send_the_rendered_path(self, target, scheme, suffix):
        target.script = [reply(ok(b"[]"))]
        url = scheme + target.url.removeprefix("http://") + suffix
        with HttpClient(url, timeout=TIMEOUT) as client:
            assert client.send(ReadyRequest("GET", "/groups")).body == "[]"
        assert target.requests[0].startswith(b"GET /groups HTTP/1.1\r\n")


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


class ReferenceReader:
    """The reply reader before the one-pass parse of the common reply.

    Kept as the reference for ``HttpClient``: the same bytes, cut at the
    same ``recv`` boundaries, must give the same outcome.
    """

    head_end = re.compile(rb"\r?\n\r?\n")

    def __init__(self, chunks: list[bytes], max_head: int, max_body: int):
        self.chunks = list(chunks)
        self.buf = bytearray()
        self.max_head = max_head
        self.max_body = max_body
        self.dropped = False

    def outcome(self, method: str):
        """What ``send`` returns: (status, class, body text, connection dropped)."""
        try:
            status, body = self.read_reply(method)
        except client_module.FramingError as exc:
            return None, ResponseClass.TRANSPORT, f"read failed: {exc}", True
        return (status, classify_status(status),
                body.decode("utf-8", errors="replace"), self.dropped)

    def recv(self) -> bool:
        chunk = self.chunks.pop(0) if self.chunks else b""
        self.buf += chunk
        return bool(chunk)

    def read_head(self):
        while (end := self.head_end.search(self.buf)) is None and len(self.buf) <= self.max_head:
            if not self.recv():
                raise client_module.FramingError("connection closed before the head ended")
        if end is None or end.end() > self.max_head:
            raise client_module.HeadTooLarge("head over 64 KiB")
        first, *lines = bytes(self.buf[: end.start()]).split(b"\n")
        del self.buf[: end.end()]
        fields = {}
        for line in lines:
            name, _, value = line.partition(b":")
            fields[name.strip().lower()] = value.strip()
        parts = first.split(None, 2)
        if (len(parts) < 2 or not parts[0].startswith(b"HTTP/")
                or len(parts[1]) != 3 or not parts[1].isdigit() or int(parts[1]) < 100):
            raise client_module.FramingError(f"bad status line {first[:80]!r}")
        return int(parts[1]), parts[0], fields

    def check_body_size(self, size: int) -> None:
        if size > self.max_body:
            raise client_module.BodyTooLarge(f"body over {self.max_body} bytes")

    def fill(self, size: int) -> None:
        while len(self.buf) < size:
            if not self.recv():
                raise client_module.FramingError("connection closed mid-reply")

    def take(self, size: int) -> bytes:
        taken = bytes(self.buf[:size])
        del self.buf[:size]
        return taken

    def line(self) -> bytes:
        while (end := self.buf.find(b"\n")) < 0:
            if len(self.buf) > self.max_head:
                raise client_module.HeadTooLarge("line over 64 KiB")
            if not self.recv():
                raise client_module.FramingError("connection closed mid-reply")
        return self.take(end + 1)

    def read_reply(self, method: str):
        status, version, fields = self.read_head()
        while status < 200:
            status, version, fields = self.read_head()
        connection = fields.get(b"connection", b"").lower()
        if version == b"HTTP/1.0":
            close = b"keep-alive" not in connection and b"keep-alive" not in fields
        else:
            close = b"close" in connection
        try:
            length = int(fields[b"content-length"])
        except (KeyError, ValueError):
            length = None
        if length is not None and length < 0:
            length = None
        if method == "HEAD" or status in (204, 304):
            body = b""
        elif fields.get(b"transfer-encoding", b"").lower() == b"chunked":
            body = self.read_chunked()
        elif length is not None:
            self.check_body_size(length)
            self.fill(length)
            body = self.take(length)
        else:
            self.check_body_size(len(self.buf))
            while self.recv():
                self.check_body_size(len(self.buf))
            body = self.take(len(self.buf))
            close = True
        if close or self.buf:
            self.dropped = True
        return status, body

    def read_chunked(self) -> bytes:
        body = bytearray()
        while True:
            line = self.line()
            try:
                size = int(line.split(b";", 1)[0], 16)
            except ValueError:
                size = -1
            if size < 0:
                raise client_module.FramingError(f"bad chunk size line {line[:80]!r}")
            if size == 0:
                break
            self.check_body_size(len(body) + size)
            self.fill(size + 2)
            body += self.take(size + 2)[:size]
        while self.line().strip():
            pass
        return bytes(body)


class ChunkedSocket:
    """Hands out the given chunks, one per ``recv``, then end of stream."""

    def __init__(self, chunks: list[bytes]):
        self.chunks = list(chunks)

    def recv(self, size: int) -> bytes:
        return self.chunks.pop(0) if self.chunks else b""

    def sendall(self, data: bytes) -> None:
        pass

    def close(self) -> None:
        pass


def _field_name(name: str):
    return st.sampled_from([name, name, name.lower(), name.upper(), f" {name} "])


_CHANGES = ["lf-only", "bare-lf-line", "version", "status", "field", "no-length", "chunked", "trailing",
            "interim", "cuts", "method", "head-limit", "body-limit"]


@st.composite
def replies(draw):
    """Reply bytes, the method they answer and the head and body limits.

    Each reply is the common shape, an HTTP/1.1 200 with CRLF line ends
    and one right ``Content-Length`` in one chunk, with a few changes
    drawn from ``_CHANGES``.
    """
    changes = set(draw(st.lists(st.sampled_from(_CHANGES), max_size=3)))
    newline = ((lambda: draw(st.sampled_from([b"\r\n", b"\n"])))
               if "lf-only" in changes else (lambda: b"\r\n"))
    body = draw(st.binary(max_size=60))
    fields = [(b"Content-Type", b"application/json")]
    if "no-length" not in changes:
        fields.append((b"Content-Length", b"%d" % len(body)))
    if "field" in changes:
        kind = draw(st.sampled_from(["length", "chunked", "connection", "keep-alive"]))
        if kind == "length":
            value = draw(st.sampled_from([b"%d" % len(body), b"%d" % (len(body) + 3), b"0",
                                          b"x", b"+1", b" %d " % len(body), b"-1"]))
            field = (draw(_field_name("Content-Length")).encode(), value)
        elif kind == "chunked":
            field = (draw(_field_name("Transfer-Encoding")).encode(),
                     draw(st.sampled_from([b"chunked", b"Chunked", b"gzip"])))
        elif kind == "connection":
            field = (draw(_field_name("Connection")).encode(),
                     draw(st.sampled_from([b"close", b"keep-alive", b"Upgrade"])))
        else:
            field = (b"Keep-Alive", b"timeout=5")
        fields.insert(draw(st.integers(0, len(fields))), field)
    if "bare-lf-line" in changes:  # ends the head early for the general reader
        fields.insert(draw(st.integers(0, len(fields))), None)
    version = b"HTTP/1.1"
    if "version" in changes:
        version = draw(st.sampled_from([b"HTTP/1.0", b"HTTP/2", b"HTX/1.1"]))
    status = b"200"
    if "status" in changes:
        status = draw(st.sampled_from([b"201", b"204", b"304", b"404", b"500",
                                       b"100", b"101", b"099", b"2x0"]))
    head = version + b" " + status + b" Reason" + newline()
    for field in fields:
        head += b"\n" if field is None else field[0] + b": " + field[1] + newline()
    head += newline()
    payload = body
    if "chunked" in changes:
        payload = b""
        rest = body
        while rest:
            size = draw(st.integers(1, len(rest)))
            extension = draw(st.sampled_from([b"", b";x=1"]))
            payload += b"%x%s\r\n%s\r\n" % (size, extension, rest[:size])
            rest = rest[size:]
        payload += b"0\r\n" + draw(st.sampled_from([b"", b"X-Trailer: 1\r\n"])) + b"\r\n"
    data = head + payload
    if "trailing" in changes:
        data += draw(st.sampled_from([b"HTTP/1.1 200 OK\r\n", b"x"]))
    if "interim" in changes:
        data = b"HTTP/1.1 100 Continue" + newline() + newline() + data
    cuts = []
    if "cuts" in changes:
        cuts = sorted(draw(st.lists(st.integers(0, len(data)), min_size=1, max_size=4)))
    chunks = [data[start:end] for start, end in zip([0] + cuts, cuts + [len(data)])]
    method = draw(st.sampled_from(["HEAD", "POST"])) if "method" in changes else "GET"
    max_head, max_body = 64 * 1024, 16 * 1024 * 1024
    if "head-limit" in changes:
        max_head = len(head) + draw(st.integers(-6, 6))
    if "body-limit" in changes:
        max_body = max(len(body) + draw(st.integers(-3, 3)), 0)
    return [chunk for chunk in chunks if chunk], method, max_head, max_body


class TestReplyReadMatchesReference:
    @settings(max_examples=1500, deadline=None)
    @given(reply_=replies())
    def test_same_outcome_at_any_recv_boundaries(self, reply_):
        chunks, method, max_head, max_body = reply_
        reference = ReferenceReader(chunks, max_head, max_body)
        expected = reference.outcome(method)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(client_module, "_MAX_HEAD", max_head)
            patch.setattr(client_module, "_MAX_BODY", max_body)
            client = HttpClient("http://127.0.0.1:9")
            sock = ChunkedSocket(chunks)
            client._sock = sock
            record = client.send(ReadyRequest(method, "/a"))
        outcome = (record.status, record.klass, record.body, client._sock is None)
        assert outcome == expected
        if not expected[3]:  # kept alive: nothing read past the reply
            assert sock.chunks == reference.chunks
