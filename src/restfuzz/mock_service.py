"""Deterministic mock REST service with independently armable seeded bugs.

A groups/projects resource model served over HTTP/1.1 on a plain TCP
server, one thread per connection.  Each connection reads its requests
(request line, lower-cased header fields, a body framed by
``Content-Length``) from its own byte buffer with the head readers it
shares with :mod:`restfuzz.client`, and writes each reply with one
``sendall``.  Connections are kept alive unless the client asks to close
(HTTP/1.0 without keep-alive, or ``Connection: close``) and close after 30
idle seconds.  A request the mock cannot serve (a malformed request line,
a head over 64 KiB, a method other than GET/POST/PUT/DELETE, a
``Transfer-Encoding``, a ``Content-Length`` that is not a number or is over
16 MiB) gets a 400, 431, 501 or 413 and a close.  Requests are routed by a
table built once from :data:`ENDPOINTS`.

Requests execute strictly one at a time (concurrent connections queue on a
dispatch lock), so identical request streams yield identical response
streams.  A body is read before the lock is taken, so a client that stalls
mid-request holds up no other connection.  Four bugs can be armed; with
all of them disarmed every input maps to a conformant 2xx or 4xx
response, never a 5xx.

Test hooks: ``POST /__reset`` restores pristine state, ``GET /__coverage``
returns per-branch hit counters.  The matching fuzzing grammar ships as
package data (``mock_target.grammar.json``); it is the endpoint schema the
validator runs on, serialized by :func:`restfuzz.grammar.grammar_document`.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import threading
from dataclasses import dataclass
from datetime import datetime
from functools import cache, cached_property
from http import HTTPStatus
from importlib import resources
from itertools import islice
from typing import NamedTuple
from urllib.parse import unquote, urlsplit

from .client import _MAX_BODY, FramingError, HeadTooLarge, closes_after, read_head, split_head
from .grammar import ParamSpec, RequestTemplate, grammar_document

BUG_UAF = "b-uaf"
BUG_UNDEF = "b-undef"
BUG_PERPAGE = "b-perpage"
BUG_PARENTID = "b-parentid"
ALL_BUGS = (BUG_UAF, BUG_UNDEF, BUG_PERPAGE, BUG_PARENTID)

_INT_RE = re.compile(r"-?\d+\Z")
_SLUG_RE = re.compile(r"[a-z][a-z0-9_-]*\Z")
_PARENT_ID_TRIGGERS = {"2", "-1", "-2"}
_UNDEF_TRIGGER_PARAM = "initialize_with_readme"


@dataclass(frozen=True)
class BugConfig:
    armed: frozenset[str] = frozenset()

    def __post_init__(self):
        unknown = self.armed - set(ALL_BUGS)
        if unknown:
            raise ValueError(f"unknown bug ids: {sorted(unknown)}")

    @staticmethod
    def parse(spec: str) -> "BugConfig":
        names = frozenset(part.strip() for part in spec.split(",") if part.strip())
        return BugConfig(names)

    def has(self, bug: str) -> bool:
        return bug in self.armed


@dataclass(frozen=True)
class MockParam:
    name: str
    where: str            # path | query | body
    value_type: str       # string | integer | boolean | datetime
    dictionary: tuple[str, ...] = ()
    default: str | None = None
    required: bool = False
    consumes: str | None = None
    enum: tuple[str, ...] | None = None
    int_range: tuple[int, int] | None = None
    slug: bool = False    # string must match [a-z][a-z0-9_-]*


@dataclass(frozen=True)
class MockEndpoint:
    method: str
    path: str
    action: str           # create | list | get | attributes | update | delete
    resource: str
    params: tuple[MockParam, ...] = ()
    produces: tuple[str, str] | None = None

    @cached_property
    def template_id(self) -> str:
        return f"{self.method} {self.path}"


def _resource_endpoints(resource: str, noun: str, extra_post: tuple[MockParam, ...],
                        item_get: tuple[MockParam, ...]) -> tuple[MockEndpoint, ...]:
    base = f"/{noun}"
    item = f"/{noun}/{{id}}"
    # Dictionaries deliberately mix invalid entries with the valid ones so
    # random dictionary rendering gets rejected far more often than
    # default-value rendering (the defaults are always valid).
    id_param = MockParam("id", "path", "integer", required=True, consumes=resource)
    name_param = MockParam(
        "name", "body", "string",
        dictionary=("dev-team", "qa-team", "", "Dev Team!")
        if resource == "group"
        else ("web-app", "cli-tool", "", "Web App!"),
        default="dev-team" if resource == "group" else "web-app",
        required=True, slug=True,
    )
    per_page = MockParam(
        "per_page", "query", "integer",
        dictionary=("20", "0", "101", "-5"), default="20", int_range=(0, 100),
    )
    statistics = MockParam(
        "statistics", "query", "boolean",
        dictionary=("3", "x", "", "true", "false"), default="false",
    )
    order_by = MockParam(
        "order_by", "query", "string",
        dictionary=("id", "name", "none", "created"), default="id",
        enum=("id", "name"),
    )
    path_param = MockParam(
        "path", "body", "string",
        dictionary=("eng", "ops", "", "Bad Path"), default="eng",
        required=True, slug=True,
    )
    return (
        MockEndpoint("POST", base, "create", resource,
                     (name_param, path_param) + extra_post,
                     produces=(resource, "/id")),
        MockEndpoint("GET", base, "list", resource, (per_page, statistics, order_by)),
        MockEndpoint("GET", item, "get", resource, (id_param,) + item_get),
        MockEndpoint("GET", item + "/attributes", "attributes", resource, (id_param,)),
        MockEndpoint("PUT", item, "update", resource, (
            id_param,
            name_param,
            MockParam("description", "body", "string",
                      dictionary=("alpha", "beta"), default="alpha"),
        )),
        MockEndpoint("DELETE", item, "delete", resource, (id_param,)),
    )


ENDPOINTS: tuple[MockEndpoint, ...] = _resource_endpoints(
    "group", "groups",
    extra_post=(
        MockParam("parent_id", "body", "integer",
                  dictionary=("0", "2", "-1", "-2"), default="0"),
        MockParam("visibility", "body", "string",
                  dictionary=("private", "internal", "bogus", "wrong"),
                  default="private", enum=("private", "internal", "public")),
        MockParam(_UNDEF_TRIGGER_PARAM, "body", "boolean",
                  dictionary=("true", "false"), default="false"),
    ),
    item_get=(
        MockParam("with_custom_attributes", "query", "boolean",
                  dictionary=("3", "true", "false"), default="false"),
        MockParam("with_projects", "query", "boolean",
                  dictionary=("3", "true", "false"), default="true"),
    ),
) + _resource_endpoints(
    "project", "projects",
    extra_post=(
        MockParam("created_after", "body", "datetime",
                  dictionary=("2024-01-15T10:00:00", "not-a-date"),
                  default="2024-01-15T10:00:00"),
    ),
    item_get=(
        MockParam("statistics", "query", "boolean",
                  dictionary=("3", "true", "false"), default="false"),
    ),
)


def mock_grammar_document() -> dict:
    """The fuzzing grammar matching this service, in the compiler's format."""
    return grammar_document(
        RequestTemplate(
            endpoint.template_id,
            endpoint.method,
            endpoint.path,
            tuple(
                ParamSpec(param.name, param.where, param.value_type, param.required,
                          param.dictionary, param.default, param.consumes)
                for param in endpoint.params
            ),
            endpoint.produces,
        )
        for endpoint in ENDPOINTS
    )


def mock_grammar_bytes() -> bytes:
    return json.dumps(mock_grammar_document(), indent=2, sort_keys=True).encode()


def packaged_grammar_path():
    """Path to the grammar file shipped as package data."""
    return resources.files("restfuzz").joinpath("data/mock_target.grammar.json")


class _State:
    """All mutable service state; touched only by the single server thread."""

    def __init__(self, bugs: BugConfig):
        self.bugs = bugs
        self.reset()

    def reset(self) -> None:
        self.live: dict[str, dict[int, dict]] = {"group": {}, "project": {}}
        self.tombstones: dict[str, set[int]] = {"group": set(), "project": set()}
        self.next_id: dict[str, int] = {"group": 1, "project": 1}
        self.coverage: dict[str, int] = {}

    def hit(self, endpoint_id: str, branch: str) -> None:
        label = f"{endpoint_id}:{branch}"
        self.coverage[label] = self.coverage.get(label, 0) + 1

    def allocate(self, resource: str) -> int:
        value = self.next_id[resource]
        self.next_id[resource] = value + 1
        return value


class _Reply(NamedTuple):
    status: int
    body: bytes = b""  # the JSON-encoded payload; empty for none


def _json_reply(status: int, payload: object) -> _Reply:
    return _Reply(status, json.dumps(payload).encode())


@cache  # the reasons are a fixed set, so each body is encoded once
def _bad(reason: str) -> _Reply:
    return _json_reply(400, {"message": f"400 Bad Request: {reason}"})


_NO_CONTENT = _Reply(204)
_NOT_FOUND = _json_reply(404, {"message": "404 Not Found"})
_METHOD_NOT_ALLOWED = _json_reply(405, {"message": "405 Method Not Allowed"})
_ERROR_REPLY = _json_reply(500, {"message": "500 Internal Server Error"})


def _value_ok(param: MockParam, value: str) -> bool:
    if not isinstance(value, str):
        return False
    if param.value_type == "integer":
        if not _INT_RE.match(value):
            return False
        if param.int_range is not None:
            low, high = param.int_range
            return low <= int(value) <= high
        return True
    if param.value_type == "boolean":
        return value in ("true", "false")
    if param.value_type == "datetime":
        try:
            datetime.fromisoformat(value)
            return True
        except ValueError:
            return False
    # string
    if param.slug and not _SLUG_RE.match(value):
        return False
    if param.enum is not None and value not in param.enum:
        return False
    return True


def _execute(state: _State, endpoint: MockEndpoint, path_values: dict[str, str],
             query: dict[str, str], body: dict[str, str]) -> _Reply:
    eid = endpoint.template_id
    values = dict(query)
    values.update(body)

    # Syntax/semantic checking of the defined parameters comes first; a
    # request must pass it before any behavior (buggy or not) triggers.
    for param in endpoint.params:
        if param.where == "path":
            raw = path_values.get(param.name, "")
            if not _INT_RE.match(raw):
                state.hit(eid, "invalid_param")
                return _bad(f"path parameter {param.name!r} must be an integer")
            continue
        source = query if param.where == "query" else body
        if param.name not in source:
            if param.required:
                state.hit(eid, "missing_required")
                return _bad(f"missing required parameter {param.name!r}")
            continue
        if not _value_ok(param, source[param.name]):
            state.hit(eid, "invalid_param")
            return _bad(f"invalid value for parameter {param.name!r}")

    bugs = state.bugs
    resource = endpoint.resource

    if endpoint.action == "create":
        if (
            bugs.has(BUG_PARENTID)
            and endpoint.resource == "group"
            and values.get("parent_id") in _PARENT_ID_TRIGGERS
        ):
            state.hit(eid, "bug_parentid")
            return _ERROR_REPLY
        obj_id = state.allocate(resource)
        fields = {
            param.name: values.get(param.name, param.default)
            for param in endpoint.params
            if param.where == "body"
        }
        state.live[resource][obj_id] = fields
        state.hit(eid, "created")
        return _json_reply(201, {"id": obj_id, **fields})

    if endpoint.action == "list":
        if (
            bugs.has(BUG_PERPAGE)
            and endpoint.resource == "group"
            and values.get("per_page") == "0"
        ):
            state.hit(eid, "bug_perpage")
            return _ERROR_REPLY
        # Ids are allocated in increasing order and live objects keep
        # insertion order, so the first per_page are the lowest ids.
        per_page = int(values.get("per_page", "20"))
        items = [
            {"id": obj_id, **fields}
            for obj_id, fields in islice(state.live[resource].items(), per_page)
        ]
        state.hit(eid, "listed" if items else "empty_page")
        return _json_reply(200, items)

    # Item-scoped actions below.
    obj_id = int(path_values["id"])
    live = state.live[resource]
    tombstoned = obj_id in state.tombstones[resource]

    if endpoint.action == "attributes":
        if obj_id in live:
            state.hit(eid, "ok")
            return _json_reply(200, {"id": obj_id, "custom_attributes": []})
        if tombstoned and bugs.has(BUG_UAF) and resource == "group":
            state.hit(eid, "bug_uaf")
            return _ERROR_REPLY
        state.hit(eid, "not_found")
        return _NOT_FOUND

    if endpoint.action == "get":
        if obj_id in live:
            state.hit(eid, "ok")
            return _json_reply(200, {"id": obj_id, **live[obj_id]})
        state.hit(eid, "not_found")
        return _NOT_FOUND

    if endpoint.action == "update":
        if (
            bugs.has(BUG_UNDEF)
            and resource == "group"
            and _UNDEF_TRIGGER_PARAM in values
            and all(param.name != _UNDEF_TRIGGER_PARAM for param in endpoint.params)
        ):
            state.hit(eid, "bug_undef")
            return _ERROR_REPLY
        if obj_id not in live:
            state.hit(eid, "not_found")
            return _NOT_FOUND
        for param in endpoint.params:
            if param.where == "body" and param.name in values:
                live[obj_id][param.name] = values[param.name]
        state.hit(eid, "updated")
        return _json_reply(200, {"id": obj_id, **live[obj_id]})

    if endpoint.action == "delete":
        if obj_id not in live:
            state.hit(eid, "not_found")
            return _NOT_FOUND
        del live[obj_id]
        state.tombstones[resource].add(obj_id)
        state.hit(eid, "deleted")
        return _NO_CONTENT

    raise AssertionError(f"unhandled action {endpoint.action}")  # pragma: no cover


class _Shape(NamedTuple):
    """Paths with a segment count and ``{name}`` segments at given positions."""

    variables: tuple[int, ...]  # positions of the {name} segments
    literals: tuple[int, ...]  # positions of the other segments
    routes: dict  # literal segments -> method -> (order, endpoint, variable names)


class _RouteTable:
    """The endpoints indexed by path shape, built once.

    A request's segments are looked up, not matched against every endpoint
    in turn, with the outcome of such a scan in endpoint order: the first
    endpoint whose path and method match, and whether any path matched
    (405 rather than 404).
    """

    def __init__(self, endpoints: tuple[MockEndpoint, ...]):
        self._shapes: dict[int, list[_Shape]] = {}
        for order, endpoint in enumerate(endpoints):
            pattern = [part for part in endpoint.path.split("/") if part]
            variables = tuple(i for i, part in enumerate(pattern)
                              if part.startswith("{") and part.endswith("}"))
            shapes = self._shapes.setdefault(len(pattern), [])
            shape = next((shape for shape in shapes if shape.variables == variables), None)
            if shape is None:
                literals = tuple(i for i in range(len(pattern)) if i not in variables)
                shape = _Shape(variables, literals, {})
                shapes.append(shape)
            methods = shape.routes.setdefault(tuple(pattern[i] for i in shape.literals), {})
            names = tuple(pattern[i][1:-1] for i in variables)
            methods.setdefault(endpoint.method, (order, endpoint, names))

    def match(self, method: str, segments: list[str]
              ) -> tuple[MockEndpoint | None, dict[str, str], bool]:
        """(endpoint, path values, whether any endpoint has this path)."""
        found = found_variables = None
        path_known = False
        take = segments.__getitem__
        for variables, literals, routes in self._shapes.get(len(segments), ()):
            methods = routes.get(tuple(map(take, literals)))
            if methods is not None:
                path_known = True
                route = methods.get(method)
                if route is not None and (found is None or route[0] < found[0]):
                    found, found_variables = route, variables
        if found is None:
            return None, {}, path_known
        _, endpoint, names = found
        return endpoint, dict(zip(names, map(take, found_variables))), True


_ROUTES = _RouteTable(ENDPOINTS)


def _split_target(target: str) -> tuple[str, str]:
    """The path and query of a request target, as ``urlsplit`` gives them.

    An origin-form target (``/path?query#fragment``) is split in place;
    anything else (an absolute URL, ``//authority``, leading control
    bytes) goes through ``urlsplit``.
    """
    if target[:1] != "/" or target[:2] == "//":
        parts = urlsplit(target)
        return parts.path, parts.query
    path, _, query = target.partition("#")[0].partition("?")
    return path, query


def _parse_query(query: str) -> dict[str, str]:
    """``dict(parse_qsl(query, keep_blank_values=True))``.

    Names and values are unquoted (``+`` as space) only when the query has
    a ``%`` or ``+``; otherwise unquoting changes nothing.
    """
    plain = "%" not in query and "+" not in query
    values = {}
    for field in query.split("&"):
        if field:
            name, _, value = field.partition("=")
            if not plain:
                name = unquote(name.replace("+", " "))
                value = unquote(value.replace("+", " "))
            values[name] = value
    return values


def _json_object(raw: bytes) -> dict[str, str] | None:
    """The request body as a JSON object; ``{}`` when empty, None when malformed."""
    if not raw:
        return {}
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


_METHODS = frozenset({"GET", "POST", "PUT", "DELETE"})
_IDLE_TIMEOUT_S = 30
_RECV_SIZE = 64 * 1024
_REASONS = {status.value: status.phrase.encode() for status in HTTPStatus}


class _Handler(socketserver.BaseRequestHandler):
    """One client connection: reads requests off its buffer and answers them in order."""

    server: "MockServer"

    def setup(self) -> None:
        self.request.settimeout(_IDLE_TIMEOUT_S)
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()  # bytes received on this connection, not yet parsed

    def handle(self) -> None:
        try:
            while (refusal := self._read_request()) is None:
                self._dispatch(self.method)
                if self.close_connection:
                    return
            self.close_connection = True
            self._respond(refusal)
        except (OSError, FramingError):
            pass  # the client left, stalled or stopped mid-request: nobody to answer

    def _recv(self) -> bool:
        """Append the client's next bytes to the buffer; False at end of stream."""
        chunk = self.request.recv(_RECV_SIZE)
        self._buf += chunk
        return bool(chunk)

    def _read_request(self) -> _Reply | None:
        """Read the next request into ``method``, ``path``, ``body`` and ``close_connection``.

        Returns the reply refusing a request that cannot be served; the
        connection closes after it.
        """
        buf = self._buf
        head = None
        if not buf:  # between requests: the whole head is most often in one recv
            data = self.request.recv(_RECV_SIZE)
            head = split_head(data)
            buf += data[head[2]:] if head else data
        if head:
            request_line, fields, _ = head
        else:
            try:
                request_line, fields = read_head(buf, self._recv)
            except HeadTooLarge:
                return _json_reply(431, {"message": "431 Request Header Fields Too Large"})
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith(b"HTTP/1."):
            return _bad("malformed request line")
        method = parts[0].decode("latin-1")
        if method not in _METHODS:
            return _json_reply(501, {"message": "501 Not Implemented"})
        if b"transfer-encoding" in fields:
            return _json_reply(501, {"message": "501 Not Implemented: Transfer-Encoding"})
        declared = fields.get(b"content-length", b"0")
        if not declared.isdigit():
            return _bad("invalid Content-Length")
        length = int(declared)
        if length > _MAX_BODY:  # refused before any of it is read
            return _json_reply(413, {"message": f"413 Request Entity Too Large: "
                                                f"body over {_MAX_BODY} bytes"})
        while len(buf) < length:
            if not self._recv():
                raise FramingError("connection closed mid-body")
        self.body = bytes(buf[:length])
        del buf[:length]
        self.method = method
        self.path = parts[1].decode("latin-1")
        self.close_connection = closes_after(parts[2], fields)
        return None

    def _respond(self, reply: _Reply) -> None:
        status, body = reply
        self.request.sendall(
            b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n%s\r\n%s"
            % (status, _REASONS[status], len(body),
               b"Connection: close\r\n" if self.close_connection else b"", body)
        )

    def _dispatch(self, method: str) -> None:
        # Requests execute one at a time regardless of how many connections
        # are open, so identical request streams see identical state.
        with self.server.dispatch_lock:
            self._dispatch_locked(method)

    def _dispatch_locked(self, method: str) -> None:
        state = self.server.state
        path, query = _split_target(self.path)
        segments = list(filter(None, path.split("/")))

        if segments == ["__reset"] and method == "POST":
            state.reset()
            self._respond(_NO_CONTENT)
            return
        if segments == ["__coverage"] and method == "GET":
            self._respond(_json_reply(200, dict(sorted(state.coverage.items()))))
            return

        endpoint, path_values, path_known = _ROUTES.match(method, segments)
        if endpoint is None:
            if path_known:
                state.hit("_router", "method_not_allowed")
                self._respond(_METHOD_NOT_ALLOWED)
            else:
                state.hit("_router", "no_route")
                self._respond(_NOT_FOUND)
            return

        body = _json_object(self.body)
        if body is None:
            state.hit(endpoint.template_id, "malformed_body")
            self._respond(_bad("body must be a JSON object"))
            return
        self._respond(_execute(state, endpoint, path_values, _parse_query(query), body))


class MockServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, state: _State):
        super().__init__(address, _Handler)
        self.state = state
        self.dispatch_lock = threading.Lock()


class BindFailed(Exception):
    pass


@dataclass
class ServiceHandle:
    server: MockServer
    thread: threading.Thread

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()


def serve(port: int, bugs: BugConfig = BugConfig(), host: str = "127.0.0.1") -> ServiceHandle:
    """Start the mock service on a background thread; port 0 picks a free one."""
    try:
        server = MockServer((host, port), _State(bugs))
    except OSError as exc:
        raise BindFailed(f"cannot bind {host}:{port}: {exc}") from exc
    # stop() waits until serve_forever next polls, so poll often.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    return ServiceHandle(server, thread)
