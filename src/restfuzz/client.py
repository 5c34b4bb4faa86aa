"""Persistent HTTP/1.1 client used by the fuzz loop, checkers and replay.

The client speaks the part of HTTP/1.1 a REST target needs, directly on a
socket: one keep-alive connection to an ``http`` target, each request
written with one ``sendall`` (the same bytes ``http.client`` would send),
each reply parsed from a per-connection byte buffer.  Reply bodies are
framed by ``Content-Length``, by chunked transfer coding or by the target
closing the connection; 1xx interim replies are skipped.  A body over
``_MAX_BODY`` bytes is refused: the reply becomes a transport outcome and
the connection is dropped, so a runaway target cannot fill the fuzzer's
memory.  The message-head reader (:func:`read_head`) and the keep-alive
rule (:func:`closes_after`) are shared with the mock target, which parses
requests the same way.
"""

from __future__ import annotations

import json
import re
import socket
import time
from collections.abc import Callable
from urllib.parse import urlencode, urlsplit

from .rendering import ReadyRequest
from .responses import ResponseRecord

_MAX_HEAD = 64 * 1024  # longest message head (first line and fields) accepted
_MAX_BODY = 16 * 1024 * 1024  # longest reply body accepted
_RECV_SIZE = 64 * 1024
_BODY_METHODS = frozenset({"POST", "PUT", "PATCH"})  # sent with Content-Length: 0 when bodiless
_BAD_TARGET = re.compile(r"[^\x21-\x7e]")  # controls, space, DEL, non-ASCII
_CR_OR_LF = re.compile(r"[\r\n]")
_UNRESERVED = re.compile(r"[A-Za-z0-9_.~-]*")  # what urlencode leaves unquoted
_HEAD_END = re.compile(rb"\r?\n\r?\n")


class TargetUnreachable(Exception):
    """The target did not answer the startup probe."""


class FramingError(Exception):
    """The bytes received break HTTP/1.1 framing or end early."""


class HeadTooLarge(FramingError):
    """A message head, or a line of a chunked body, runs past 64 KiB."""


class BodyTooLarge(FramingError):
    """A reply body runs past ``_MAX_BODY`` bytes."""


def read_head(buf: bytearray, recv: Callable[[], bool]) -> tuple[bytes, dict[bytes, bytes]]:
    """Take one message head off the front of ``buf``.

    Returns its first line and its fields, names lower-cased.  ``recv``
    appends the peer's next bytes to ``buf`` and returns False at end of
    stream.
    """
    while (end := _HEAD_END.search(buf)) is None and len(buf) <= _MAX_HEAD:
        if not recv():
            raise FramingError("connection closed before the head ended")
    if end is None or end.end() > _MAX_HEAD:
        raise HeadTooLarge("head over 64 KiB")
    first, *lines = bytes(buf[: end.start()]).split(b"\n")
    del buf[: end.end()]
    fields = {}
    for line in lines:
        name, _, value = line.partition(b":")
        fields[name.strip().lower()] = value.strip()
    return first, fields


def closes_after(version: bytes, fields: dict[bytes, bytes]) -> bool:
    """Whether the connection ends after this message (HTTP/1.0 or ``Connection: close``)."""
    connection = fields.get(b"connection", b"").lower()
    if version == b"HTTP/1.0":
        return b"keep-alive" not in connection and b"keep-alive" not in fields
    return b"close" in connection


class HttpClient:
    """One keep-alive connection to the target; sequential use only.

    A write-side failure (stale keep-alive connection) is retried once on a
    fresh connection: the server never saw the request.  Failures after the
    request went out are reported as transport outcomes, never retried,
    since the target may already have acted on the request.  A request
    that cannot be written as HTTP/1.1 (a space, control or non-ASCII
    character in the request target, CR or LF in a header) is a transport
    outcome with nothing sent.
    """

    def __init__(self, base_url: str, timeout: float = 10.0, auth_token: str | None = None):
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", "") or not parts.netloc and not parts.path:
            raise ValueError(f"unsupported target url {base_url!r}")
        netloc = parts.netloc or parts.path
        host, _, port = netloc.partition(":")
        self._host = host
        self._port = int(port) if port else 80
        self._host_line = f"Host: {host}" if self._port == 80 else f"Host: {host}:{self._port}"
        self._timeout = timeout
        self._auth_token = auth_token
        self._sock: socket.socket | None = None
        self._buf = bytearray()  # bytes received on this connection, not yet parsed

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection((self._host, self._port), self._timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def _drop(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buf.clear()

    def send(self, request: ReadyRequest) -> ResponseRecord:
        try:
            data = self._encode(request)
        except ValueError as exc:
            return ResponseRecord.transport(f"send failed: {exc}")

        started = time.perf_counter()
        for attempt in (0, 1):
            try:
                self._connect().sendall(data)
                break
            except OSError as exc:
                self._drop()
                if attempt == 1:
                    return ResponseRecord.transport(f"send failed: {exc}")
        try:
            status, payload = self._read_reply(request.method)
        except (OSError, FramingError) as exc:
            self._drop()
            return ResponseRecord.transport(f"read failed: {exc}")
        latency = time.perf_counter() - started
        return ResponseRecord.from_status(
            status, payload.decode("utf-8", errors="replace"), latency
        )

    def _encode(self, request: ReadyRequest) -> bytes:
        """Head and body in one buffer, as ``http.client`` writes them."""
        target = request.path or "/"
        query = request.query
        if query:
            if _UNRESERVED.fullmatch("".join(query) + "".join(query.values())):
                # Nothing to quote: the bytes urlencode would give.
                target += "?" + "&".join([f"{name}={value}" for name, value in query.items()])
            else:
                target += "?" + urlencode(query)
        if _BAD_TARGET.search(target):
            raise ValueError(f"invalid request target {target!r}")
        body = json.dumps(request.body).encode() if request.body else b""

        lines = [f"{request.method} {target} HTTP/1.1", self._host_line,
                 "Accept-Encoding: identity"]
        if body or request.method in _BODY_METHODS:
            lines.append(f"Content-Length: {len(body)}")
        lines += self._header_lines(request.headers, body)
        lines += ("", "")
        return "\r\n".join(lines).encode("latin-1") + body

    def _header_lines(self, request_headers: dict[str, str], body: bytes) -> list[str]:
        """The request's headers, then ``Content-Type`` and ``Authorization``."""
        if not request_headers and not self._auth_token:
            return ["Content-Type: application/json"] if body else []
        headers = dict(request_headers)
        if body:
            headers["Content-Type"] = "application/json"
        if self._auth_token and "Authorization" not in headers:
            headers["Authorization"] = f"Bearer {self._auth_token}"
        lines = []
        for name, value in headers.items():
            line = f"{name}: {value}"
            if _CR_OR_LF.search(line):
                raise ValueError(f"CR or LF in header {name!r}")
            lines.append(line)
        return lines

    # -- reply parsing -------------------------------------------------------

    def _recv(self) -> bool:
        """Append the target's next bytes to the buffer; False at end of stream."""
        chunk = self._sock.recv(_RECV_SIZE)
        self._buf += chunk
        return bool(chunk)

    def _fill(self, size: int) -> None:
        while len(self._buf) < size:
            if not self._recv():
                raise FramingError("connection closed mid-reply")

    def _take(self, size: int) -> bytes:
        taken = bytes(self._buf[:size])
        del self._buf[:size]
        return taken

    def _line(self) -> bytes:
        while (end := self._buf.find(b"\n")) < 0:
            if len(self._buf) > _MAX_HEAD:
                raise HeadTooLarge("line over 64 KiB")
            if not self._recv():
                raise FramingError("connection closed mid-reply")
        return self._take(end + 1)

    def _read_head(self) -> tuple[int, bytes, dict[bytes, bytes]]:
        """Status, HTTP version and headers (names lower-cased) of one reply."""
        status_line, fields = read_head(self._buf, self._recv)
        parts = status_line.split(None, 2)
        if (len(parts) < 2 or not parts[0].startswith(b"HTTP/")
                or len(parts[1]) != 3 or not parts[1].isdigit() or int(parts[1]) < 100):
            raise FramingError(f"bad status line {status_line[:80]!r}")
        return int(parts[1]), parts[0], fields

    def _read_reply(self, method: str) -> tuple[int, bytes]:
        status, version, fields = self._read_head()
        while status < 200:  # interim replies carry no body
            status, version, fields = self._read_head()
        close = closes_after(version, fields)

        if method == "HEAD" or status in (204, 304):
            body = b""
        elif fields.get(b"transfer-encoding", b"").lower() == b"chunked":
            body = self._read_chunked()
        elif (length := _content_length(fields)) is not None:
            _check_body_size(length)  # refused before any of it is read
            self._fill(length)
            body = self._take(length)
        else:
            _check_body_size(len(self._buf))
            while self._recv():
                _check_body_size(len(self._buf))
            body = self._take(len(self._buf))
            close = True
        if close or self._buf:
            self._drop()  # the target closes, or sent more than the reply
        return status, body

    def _read_chunked(self) -> bytes:
        body = bytearray()
        while True:
            line = self._line()
            try:
                size = int(line.split(b";", 1)[0], 16)
            except ValueError:
                size = -1
            if size < 0:
                raise FramingError(f"bad chunk size line {line[:80]!r}")
            if size == 0:
                break
            _check_body_size(len(body) + size)
            self._fill(size + 2)  # the chunk and its CRLF
            body += self._take(size + 2)[:size]
        while self._line().strip():  # trailer fields, up to the blank line
            pass
        return bytes(body)

    def check_reachable(self) -> None:
        """Probe the target once; any HTTP status counts as reachable."""
        probe = ReadyRequest("GET", "/")
        record = self.send(probe)
        if record.status is None:
            raise TargetUnreachable(
                f"no response from {self._host}:{self._port} ({record.body})"
            )

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _check_body_size(size: int) -> None:
    if size > _MAX_BODY:
        raise BodyTooLarge(f"body over {_MAX_BODY} bytes")


def _content_length(fields: dict[bytes, bytes]) -> int | None:
    """The declared body length; None when absent or invalid (read to close)."""
    try:
        length = int(fields[b"content-length"])
    except (KeyError, ValueError):
        return None
    return length if length >= 0 else None
