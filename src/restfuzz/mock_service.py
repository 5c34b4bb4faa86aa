"""Deterministic mock REST service with independently armable seeded bugs.

A groups/projects resource model served over HTTP/1.1 on a plain TCP
server, one thread per connection.  Each connection reads its requests
(request line, lower-cased header fields, a body framed by
``Content-Length``) from its own byte buffer with the head readers and
``Content-Length`` rule it shares with :mod:`restfuzz.client`, and writes
each reply with one ``sendall``.  Connections are kept alive unless the
client asks to close (HTTP/1.0 without keep-alive, or ``Connection:
close``) and close after 30 idle seconds.  A request the mock cannot
serve (a malformed request line or target, a head over 64 KiB, a method
other than GET/POST/PUT/DELETE, a ``Transfer-Encoding``, a
``Content-Length`` that is not 1*DIGIT or is over 16 MiB) gets a 400,
431, 501 or 413 and a close.

The service's schema is the grammar shipped as package data
(``mock_target.grammar.json``), the file the fuzzer reads.  Each template
is an endpoint: its action follows from the method and the path shape, its
resource from the type it produces or consumes, and its checks from the
parameters plus :data:`VALUE_RULES`, the value rules the grammar format
cannot express.  Each server routes requests by a table built once from
these endpoints.

Requests execute strictly one at a time (concurrent connections queue on a
dispatch lock), so identical request streams yield identical response
streams.  A body is read before the lock is taken, so a client that stalls
mid-request holds up no other connection.  Four bugs can be armed; with
all of them disarmed every input maps to a conformant 2xx or 4xx
response, never a 5xx.

Test hooks: ``POST /__reset`` restores pristine state, ``GET /__coverage``
returns per-branch hit counters.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import threading
from dataclasses import dataclass
from datetime import datetime
from functools import cache
from http import HTTPStatus
from importlib import resources
from itertools import islice
from typing import Callable, NamedTuple
from urllib.parse import unquote, urlsplit

from .client import (_MAX_BODY, FramingError, HeadTooLarge, closes_after, content_length,
                     read_head, split_head)
from .grammar import GrammarError, ParamSpec, RequestTemplate, parse_spec

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
class MockEndpoint:
    """What the mock does for one template of its grammar."""

    template: RequestTemplate
    action: str           # create | list | get | attributes | update | delete
    resource: str
    # (name, location, required, value check) per parameter, in template order
    checks: tuple[tuple[str, str, bool, Callable[[object], object]], ...]
    body: tuple[tuple[str, str | None], ...]  # body parameters and their defaults


def packaged_grammar_path():
    """Path to the grammar file shipped as package data: the mock's schema."""
    return resources.files("restfuzz").joinpath("data/mock_target.grammar.json")


def _is_datetime(value: str) -> bool:
    try:
        datetime.fromisoformat(value)
    except ValueError:
        return False
    return True


_TYPE_CHECKS: dict[str, Callable[[str], object]] = {
    "string": lambda value: True,
    "integer": _INT_RE.match,
    "boolean": ("true", "false").__contains__,
    "datetime": _is_datetime,
}

# The value rules the grammar format cannot express, by parameter name: the
# value type a rule is for, and the check a value of that type must pass.
# Changing the mock's API means editing the packaged grammar and this table.
VALUE_RULES: dict[str, tuple[str, Callable[[str], object]]] = {
    "name": ("string", _SLUG_RE.match),
    "path": ("string", _SLUG_RE.match),
    "order_by": ("string", ("id", "name").__contains__),
    "visibility": ("string", ("private", "internal", "public").__contains__),
    "per_page": ("integer", lambda value: 0 <= int(value) <= 100),
}


def _value_check(template_id: str, spec: ParamSpec) -> Callable[[object], object]:
    """Truthy for a string of ``spec``'s type that passes the rule on its name, if any."""
    type_ok = _TYPE_CHECKS[spec.value_type]
    value_type, rule = VALUE_RULES.get(spec.name, (spec.value_type, type_ok))
    if value_type != spec.value_type:
        raise GrammarError(f"{template_id}: the rule on {spec.name!r} is for {value_type} values")
    return lambda value: isinstance(value, str) and type_ok(value) and rule(value)


# The action per method and path shape: a collection path has no
# {placeholder}, an item path ends in one, a sub-resource path goes on past one.
_ACTIONS = {
    ("POST", "collection"): "create", ("GET", "collection"): "list",
    ("GET", "item"): "get", ("PUT", "item"): "update", ("DELETE", "item"): "delete",
    ("GET", "subresource"): "attributes",
}


@cache
def mock_endpoints() -> tuple[MockEndpoint, ...]:
    """One endpoint per template of the packaged grammar, built on first use.

    A template's resource is the type its path id consumes, or else the
    type that a template on the same path produces (a create, and the list
    beside it).
    """
    grammar = parse_spec(packaged_grammar_path().read_bytes())
    produced = {t.path: t.produces[0] for t in grammar.templates.values() if t.produces}
    endpoints = []
    for template in grammar.templates.values():
        path = template.path
        shape = "collection" if "{" not in path else "item" if path.endswith("}") else "subresource"
        (resource,) = template.consumed_types or {produced[path]}
        endpoints.append(MockEndpoint(
            template,
            _ACTIONS[template.method, shape],
            resource,
            tuple((spec.name, spec.location, spec.required,
                   _value_check(template.template_id, spec)) for spec in template.params),
            tuple((spec.name, spec.default) for spec in template.params
                  if spec.location == "body"),
        ))
    return tuple(endpoints)


class _State:
    """All mutable service state; touched only by the single server thread."""

    def __init__(self, bugs: BugConfig):
        self.bugs = bugs
        self.reset()

    def reset(self) -> None:
        resources = {endpoint.resource for endpoint in mock_endpoints()}
        self.live: dict[str, dict[int, dict]] = {resource: {} for resource in resources}
        self.tombstones: dict[str, set[int]] = {resource: set() for resource in resources}
        self.next_id: dict[str, int] = dict.fromkeys(resources, 1)
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


def _execute(state: _State, endpoint: MockEndpoint, path_values: dict[str, str],
             query: dict[str, str], body: dict[str, str]) -> tuple[str, _Reply]:
    """Run one request on ``endpoint``: the coverage branch it took, and the reply."""
    values: dict[str, str] = {}  # each defined parameter, read from its own location

    # Syntax/semantic checking of the defined parameters comes first; a
    # request must pass it before any behavior (buggy or not) triggers.
    for name, location, required, value_ok in endpoint.checks:
        if location == "path":  # an object id, which the mock allocates as an integer
            if not _INT_RE.match(path_values.get(name, "")):
                return "invalid_param", _bad(f"path parameter {name!r} must be an integer")
            continue
        source = query if location == "query" else body
        if name not in source:
            if required:
                return "missing_required", _bad(f"missing required parameter {name!r}")
            continue
        value = source[name]
        if not value_ok(value):
            return "invalid_param", _bad(f"invalid value for parameter {name!r}")
        values[name] = value

    bugs = state.bugs
    resource = endpoint.resource

    if endpoint.action == "create":
        if (
            bugs.has(BUG_PARENTID)
            and resource == "group"
            and values.get("parent_id") in _PARENT_ID_TRIGGERS
        ):
            return "bug_parentid", _ERROR_REPLY
        obj_id = state.allocate(resource)
        fields = {name: values.get(name, default) for name, default in endpoint.body}
        state.live[resource][obj_id] = fields
        return "created", _json_reply(201, {"id": obj_id, **fields})

    if endpoint.action == "list":
        if (
            bugs.has(BUG_PERPAGE)
            and resource == "group"
            and values.get("per_page") == "0"
        ):
            return "bug_perpage", _ERROR_REPLY
        # Ids are allocated in increasing order and live objects keep
        # insertion order, so the first per_page are the lowest ids.
        per_page = int(values.get("per_page", "20"))
        items = [
            {"id": obj_id, **fields}
            for obj_id, fields in islice(state.live[resource].items(), per_page)
        ]
        return ("listed" if items else "empty_page"), _json_reply(200, items)

    # Item-scoped actions below.
    obj_id = int(path_values["id"])
    live = state.live[resource]

    if endpoint.action == "attributes":
        if obj_id in live:
            return "ok", _json_reply(200, {"id": obj_id, "custom_attributes": []})
        if obj_id in state.tombstones[resource] and bugs.has(BUG_UAF) and resource == "group":
            return "bug_uaf", _ERROR_REPLY
        return "not_found", _NOT_FOUND

    if endpoint.action == "get":
        if obj_id in live:
            return "ok", _json_reply(200, {"id": obj_id, **live[obj_id]})
        return "not_found", _NOT_FOUND

    if endpoint.action == "update":
        if (
            bugs.has(BUG_UNDEF)
            and resource == "group"
            and (_UNDEF_TRIGGER_PARAM in query or _UNDEF_TRIGGER_PARAM in body)
            and _UNDEF_TRIGGER_PARAM not in endpoint.template.param_names
        ):
            return "bug_undef", _ERROR_REPLY
        if obj_id not in live:
            return "not_found", _NOT_FOUND
        for name, _ in endpoint.body:
            if name in values:
                live[obj_id][name] = values[name]
        return "updated", _json_reply(200, {"id": obj_id, **live[obj_id]})

    # The one action left (see _ACTIONS) is delete.
    if obj_id not in live:
        return "not_found", _NOT_FOUND
    del live[obj_id]
    state.tombstones[resource].add(obj_id)
    return "deleted", _NO_CONTENT


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
            template = endpoint.template
            pattern = [part for part in template.path.split("/") if part]
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
            methods.setdefault(template.method, (order, endpoint, names))

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
        """Read the next request into ``method``, ``path``, ``query``, ``body``
        and ``close_connection``.

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
        try:
            path, query = _split_target(parts[1].decode("latin-1"))
        except ValueError:  # urlsplit's "Invalid IPv6 URL", as for //[x/groups
            return _bad("invalid request target")
        if b"transfer-encoding" in fields:
            return _json_reply(501, {"message": "501 Not Implemented: Transfer-Encoding"})
        try:
            length = content_length(fields) or 0
        except FramingError:
            return _bad("invalid Content-Length")
        if length > _MAX_BODY:  # refused before any of it is read
            return _json_reply(413, {"message": f"413 Request Entity Too Large: "
                                                f"body over {_MAX_BODY} bytes"})
        while len(buf) < length:
            if not self._recv():
                raise FramingError("connection closed mid-body")
        self.body = bytes(buf[:length])
        del buf[:length]
        self.method = method
        self.path = path
        self.query = query
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
        segments = list(filter(None, self.path.split("/")))

        if segments == ["__reset"] and method == "POST":
            state.reset()
            self._respond(_NO_CONTENT)
            return
        if segments == ["__coverage"] and method == "GET":
            self._respond(_json_reply(200, dict(sorted(state.coverage.items()))))
            return

        # Every other request counts exactly one coverage branch, here.
        endpoint, path_values, path_known = self.server.routes.match(method, segments)
        if endpoint is None:
            owner = "_router"
            branch, reply = (("method_not_allowed", _METHOD_NOT_ALLOWED) if path_known
                             else ("no_route", _NOT_FOUND))
        else:
            owner = endpoint.template.template_id
            body = _json_object(self.body)
            if body is None:
                branch, reply = "malformed_body", _bad("body must be a JSON object")
            else:
                branch, reply = _execute(state, endpoint, path_values,
                                         _parse_query(self.query), body)
        state.hit(owner, branch)
        self._respond(reply)


class MockServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, state: _State):
        super().__init__(address, _Handler)
        self.state = state
        self.routes = _RouteTable(mock_endpoints())
        self.dispatch_lock = threading.Lock()


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
    if not 0 <= port <= 65535:
        raise ValueError(f"port must be in 0-65535, got {port}")
    server = MockServer((host, port), _State(bugs))
    # stop() waits until serve_forever next polls, so poll often.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    return ServiceHandle(server, thread)
