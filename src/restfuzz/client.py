"""Persistent HTTP/1.1 client used by the fuzz loop, checkers and replay.

The client speaks the part of HTTP/1.1 a REST target needs, directly on a
socket: one keep-alive connection to an ``http`` target, each request
written with one ``sendall`` (the same bytes ``http.client`` would send),
each reply parsed from a per-connection byte buffer.  Reply bodies are
framed by ``Content-Length``, by chunked transfer coding or by the target
closing the connection; 1xx interim replies are skipped.  The common
reply, a whole ``Content-Length`` reply that arrives in one ``recv``, is
parsed in one straight pass; any other is read by the general reader from
the same bytes, with the same outcome.  A body over ``_MAX_BODY`` bytes is
refused: the reply becomes a transport outcome and the connection is
dropped, so a runaway target cannot fill the fuzzer's memory.  Each
framing field (header fields, status code, ``Content-Length``, chunk size)
has one RFC 9112 rule that both readers apply; framing that breaks one is
a transport outcome at once.  The head readers (:func:`split_head` for a
whole CRLF head, :func:`read_head` for any other), the ``Content-Length``
rule and the keep-alive rule are shared with the mock target.
"""

from __future__ import annotations

import json
import re
import socket
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string
from urllib.parse import urlencode, urlsplit

from .responses import STATUS_CLASSES, ResponseRecord

_MAX_HEAD = 64 * 1024  # longest message head (first line and fields) accepted
_MAX_BODY = 16 * 1024 * 1024  # longest reply body accepted
_RECV_SIZE = 64 * 1024
_BODY_METHODS = frozenset({"POST", "PUT", "PATCH"})  # sent with Content-Length: 0 when bodiless
_BAD_TARGET = re.compile(r"[^\x21-\x7e]")  # controls, space, DEL, non-ASCII
_CR_OR_LF = re.compile(r"[\r\n]")
_NOT_LATIN1 = re.compile(r"[^\x00-\xff]")  # what a head encoded as latin-1 cannot carry
_UNRESERVED = re.compile(r"[A-Za-z0-9_.~-]*")  # what urlencode leaves unquoted
_BLANK_LINE = re.compile(rb"\n\r?\n")  # ends a head, with the \r before it if any
_HEXDIG = re.compile(rb"[0-9A-Fa-f]+")
_STATUS_CODES = {b"%d" % code: code for code in range(100, 1000)}  # three digits, 100 or above


@dataclass(slots=True)
class ReadyRequest:
    """A complete request: resolved path and string-valued params; never changed once built."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    body: dict[str, str] = field(default_factory=dict)


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

    Returns its first line, without its line end, and its fields.
    ``recv`` appends the peer's next bytes to ``buf`` and returns False at
    end of stream.
    """
    while (blank := _BLANK_LINE.search(buf)) is None and len(buf) <= _MAX_HEAD:
        if not recv():
            raise FramingError("connection closed before the head ended")
    if blank is None or blank.end() > _MAX_HEAD:
        raise HeadTooLarge("head over 64 KiB")
    start, end = blank.span()
    first, *lines = bytes(buf[:start]).split(b"\n")
    del buf[:end]
    return first.removesuffix(b"\r"), _fields(lines)


def split_head(data: bytes) -> tuple[bytes, dict[bytes, bytes], int] | None:
    """A whole head at the front of ``data``: its first line, fields and length.

    The common case in one pass: every line ends in CRLF and the head fits
    in 64 KiB.  The first line and fields are those :func:`read_head` would
    give.  None for any other bytes, which ``read_head`` reads.
    """
    end = data.find(b"\r\n\r\n")
    if not 0 < end <= _MAX_HEAD - 4:
        return None
    first, *lines = data[:end].split(b"\r\n")
    if data.count(b"\n", 0, end) != len(lines):  # a line ended by a bare LF
        return None
    return first, _fields(lines), end + 4


def _fields(lines: list[bytes]) -> dict[bytes, bytes]:
    """A head's field lines as a dict, names lower-cased."""
    fields = {}
    for line in lines:
        name, _, value = line.partition(b":")
        fields[name.strip().lower()] = value.strip()
    return fields


def content_length(fields: dict[bytes, bytes]) -> int | None:
    """The declared body length, 1*DIGIT (RFC 9112 §6.3): None if absent, FramingError if not."""
    value = fields.get(b"content-length")
    if value is None:
        return None
    if not value.isdigit():
        raise FramingError(f"invalid Content-Length {value[:80]!r}")
    if len(value) > 18:  # int() refuses 4300 digits; 19 significant ones pass any cap
        value = value.lstrip(b"0")[:19] or b"0"
    return int(value)


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
    character in the request target) is a transport outcome with nothing
    sent.  The target is ``http://host:port`` or a bare ``host:port``: every
    request path is sent as rendered, so a target URL with a path, a query
    or a fragment is refused, as is an auth token with CR or LF in it or
    with a character latin-1 cannot encode.
    """

    def __init__(self, base_url: str, timeout: float = 10.0, auth_token: str | None = None):
        unsupported = ValueError(f"unsupported target url {base_url!r}")
        try:
            parts = urlsplit(base_url if "//" in base_url else "//" + base_url)
            port = parts.port  # refuses a port that is not a number in 0-65535
        except ValueError:  # that, or a malformed IPv6 literal
            raise unsupported from None
        if (parts.scheme not in ("http", "") or not parts.hostname
                or parts.username is not None
                or parts.path not in ("", "/") or parts.query or parts.fragment):
            raise unsupported
        if auth_token and _CR_OR_LF.search(auth_token):
            raise ValueError("CR or LF in the auth token")
        if auth_token and _NOT_LATIN1.search(auth_token):
            raise ValueError("the auth token has a character latin-1 cannot encode")
        self._host = parts.hostname
        self._port = 80 if port is None else port
        host = f"[{self._host}]" if ":" in self._host else self._host
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
        # Both reply readers accept only a three-digit status.
        return ResponseRecord(status, STATUS_CLASSES[status],
                              payload.decode("utf-8", errors="replace"), latency)

    def _encode(self, request: ReadyRequest) -> bytes:
        """Head and body in one buffer, as ``http.client`` writes them."""
        method = request.method
        target = request.path or "/"
        query = request.query
        if query:
            if _UNRESERVED.fullmatch("".join(query) + "".join(query.values())):
                # Nothing to quote: the bytes urlencode would give.
                target += "?" + "&".join(map("=".join, query.items()))
            else:
                target += "?" + urlencode(query)
        if _BAD_TARGET.search(target):
            raise ValueError(f"invalid request target {target!r}")
        body = _json_body(request.body) if request.body else b""

        head = f"{method} {target} HTTP/1.1\r\n{self._host_line}\r\nAccept-Encoding: identity\r\n"
        if body or method in _BODY_METHODS:
            head += f"Content-Length: {len(body)}\r\n"
        if body:
            head += "Content-Type: application/json\r\n"
        if self._auth_token:
            head += f"Authorization: Bearer {self._auth_token}\r\n"
        return (head + "\r\n").encode("latin-1") + body

    # -- reply parsing -------------------------------------------------------

    def _recv(self) -> bool:
        """Append the target's next bytes to the buffer; False at end of stream."""
        chunk = self._sock.recv(_RECV_SIZE)
        self._buf += chunk
        return bool(chunk)

    def _take(self, size: int) -> bytes:
        """The next ``size`` bytes of the reply, received as needed."""
        while len(self._buf) < size:
            if not self._recv():
                raise FramingError("connection closed mid-reply")
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

    def _read_reply(self, method: str) -> tuple[int, bytes]:
        """Status and body of one reply; the buffer is empty between replies.

        The common reply is taken in one pass over the first ``recv``: a
        :func:`split_head` head, HTTP/1.1, status 200 or above, no
        ``Connection`` or ``Transfer-Encoding`` field, and a body whose
        ``Content-Length`` (or a bodiless status or method) ends exactly
        where the bytes do.  Any other reply, including one that needs a
        second ``recv``, is read by :meth:`_read_general` from the same bytes.
        """
        data = self._sock.recv(_RECV_SIZE)
        head = split_head(data)
        if head is not None:
            status_line, fields, start = head
            status, version = _status_line(status_line)
            if (version == b"HTTP/1.1" and status >= 200
                    and b"connection" not in fields and b"transfer-encoding" not in fields):
                length = 0 if method == "HEAD" or status in (204, 304) else content_length(fields)
                if length is not None and length <= _MAX_BODY and len(data) == start + length:
                    return status, data[start:]
        self._buf += data
        return self._read_general(method)

    def _read_general(self, method: str) -> tuple[int, bytes]:
        """Any reply: 1xx interims, chunked or close-delimited bodies, LF-only heads."""
        status = 100
        while status < 200:  # interim replies carry no body
            status_line, fields = read_head(self._buf, self._recv)
            status, version = _status_line(status_line)
        close = closes_after(version, fields)

        # RFC 9112 §6.3: Transfer-Encoding beats Content-Length; chunked only as the last coding.
        coding = fields.get(b"transfer-encoding")
        if method == "HEAD" or status in (204, 304):
            body = b""
        elif coding is not None and coding.rsplit(b",", 1)[-1].strip().lower() == b"chunked":
            body = self._read_chunked()
        elif coding is None and (length := content_length(fields)) is not None:
            _check_body_size(length)  # refused before any of it is read
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
            size = line.split(b";", 1)[0].strip()  # 1*HEXDIG before any extension
            if not _HEXDIG.fullmatch(size):
                raise FramingError(f"bad chunk size line {line[:80]!r}")
            size = int(size, 16)
            if size == 0:
                break
            _check_body_size(len(body) + size)
            body += self._take(size + 2)[:size]  # the chunk and its CRLF
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


def _json_body(body: dict) -> bytes:
    """``json.dumps(body).encode()``; a dict of strings is joined without the encoder."""
    if type(body) is dict:
        try:
            pairs = zip(map(_json_string, body), map(_json_string, body.values()))
            return ("{" + ", ".join(map(": ".join, pairs)) + "}").encode()
        except TypeError:  # a key or value that is not a string
            pass
    return json.dumps(body).encode()


def _check_body_size(size: int) -> None:
    if size > _MAX_BODY:
        raise BodyTooLarge(f"body over {_MAX_BODY} bytes")


def _status_line(line: bytes) -> tuple[int, bytes]:
    """A reply's three-digit status code, 100 or above (RFC 9112 §4), and HTTP version."""
    parts = line.split(None, 2)
    if (len(parts) < 2 or not parts[0].startswith(b"HTTP/")
            or (status := _STATUS_CODES.get(parts[1])) is None):
        raise FramingError(f"bad status line {line[:80]!r}")
    return status, parts[0]
