from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from collections import Counter
from urllib.parse import parse_qsl, urlsplit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restfuzz import mock_service
from restfuzz.client import HttpClient, ReadyRequest
from restfuzz.grammar import RequestTemplate
from restfuzz.mock_service import (
    ALL_BUGS,
    BUG_UAF,
    VALUE_RULES,
    BugConfig,
    MockEndpoint,
    mock_endpoints,
    serve,
)


@pytest.fixture(scope="module")
def armed_service():
    handle = serve(0, BugConfig(frozenset(ALL_BUGS)))
    client = HttpClient(handle.base_url)
    yield client
    client.close()
    handle.stop()


@pytest.fixture(scope="module")
def clean_service():
    handle = serve(0, BugConfig())
    client = HttpClient(handle.base_url)
    yield client
    client.close()
    handle.stop()


@pytest.fixture(autouse=True)
def reset(request):
    for name in ("armed_service", "clean_service"):
        if name in request.fixturenames:
            request.getfixturevalue(name).send(ReadyRequest("POST", "/__reset"))


def post_group(client, **overrides):
    body = {"name": "dev-team", "path": "eng"}
    body.update(overrides)
    return client.send(ReadyRequest("POST", "/groups", body=body))


class TestCrudBasics:
    def test_fresh_service_lists_nothing(self, clean_service):
        record = clean_service.send(ReadyRequest("GET", "/groups"))
        assert record.status == 200
        assert json.loads(record.body) == []

    def test_first_created_group_has_id_one(self, clean_service):
        record = post_group(clean_service)
        assert record.status == 201
        assert json.loads(record.body)["id"] == 1

    def test_reset_restores_pristine_state(self, clean_service):
        post_group(clean_service)
        clean_service.send(ReadyRequest("POST", "/__reset"))
        record = clean_service.send(ReadyRequest("GET", "/groups/1"))
        assert record.status == 404
        coverage = clean_service.send(ReadyRequest("GET", "/__coverage"))
        assert list(json.loads(coverage.body)) == ["GET /groups/{id}:not_found"]

    def test_delete_tombstones_the_id(self, clean_service):
        post_group(clean_service)
        assert clean_service.send(ReadyRequest("DELETE", "/groups/1")).status == 204
        assert clean_service.send(ReadyRequest("GET", "/groups/1")).status == 404
        # ids are never reused
        record = post_group(clean_service)
        assert json.loads(record.body)["id"] == 2

    def test_update_changes_fields(self, clean_service):
        post_group(clean_service)
        record = clean_service.send(
            ReadyRequest("PUT", "/groups/1", body={"name": "qa-team"})
        )
        assert record.status == 200
        assert json.loads(record.body)["name"] == "qa-team"

    def test_unknown_route_404_and_wrong_method_405(self, clean_service):
        assert clean_service.send(ReadyRequest("GET", "/nothing")).status == 404
        assert clean_service.send(ReadyRequest("DELETE", "/groups")).status == 405


# A value each rule in VALUE_RULES rejects, though it has the parameter's type.
BAD_VALUES = {
    "name": "Dev Team!", "path": "Bad Path", "order_by": "none", "visibility": "bogus",
    "per_page": "-5",
}


class TestValidation:
    def test_boolean_type_mismatch_rejected(self, clean_service):
        post_group(clean_service)
        record = clean_service.send(
            ReadyRequest("GET", "/groups/1", query={"with_projects": "3"})
        )
        assert record.status == 400

    def test_missing_required_param_rejected(self, clean_service):
        record = clean_service.send(ReadyRequest("POST", "/groups", body={"path": "eng"}))
        assert record.status == 400

    def test_malformed_datetime_rejected(self, clean_service):
        record = clean_service.send(
            ReadyRequest("POST", "/projects",
                         body={"name": "web-app", "path": "eng",
                               "created_after": "not-a-date"})
        )
        assert record.status == 400

    def test_out_of_range_per_page_rejected(self, clean_service):
        record = clean_service.send(
            ReadyRequest("GET", "/groups", query={"per_page": "101"})
        )
        assert record.status == 400

    def test_unknown_params_ignored_when_disarmed(self, clean_service):
        record = clean_service.send(
            ReadyRequest("GET", "/groups", query={"min_access_level": "1"})
        )
        assert record.status == 200

    def test_non_integer_path_id_rejected(self, clean_service):
        assert clean_service.send(ReadyRequest("GET", "/groups/abc")).status == 400

    @pytest.mark.parametrize("name, bad", sorted(BAD_VALUES.items()))
    def test_value_rule_rejects_a_bad_value(self, clean_service, mock_grammar, name, bad):
        template = next(template for template in mock_grammar.templates.values()
                        if name in template.param_names and not template.consumed_types)
        good = clean_service.send(template_request(template, template.defaults()))
        assert good.status in (200, 201)
        record = clean_service.send(template_request(template, {**template.defaults(), name: bad}))
        assert record.status == 400
        assert json.loads(record.body)["message"].endswith(f"parameter {name!r}")


class TestSeededBugs:
    def test_uaf_requires_create_delete_access(self, armed_service):
        post_group(armed_service)
        ok = armed_service.send(ReadyRequest("GET", "/groups/1/attributes"))
        assert ok.status == 200
        armed_service.send(ReadyRequest("DELETE", "/groups/1"))
        after = armed_service.send(ReadyRequest("GET", "/groups/1/attributes"))
        assert after.status == 500
        # an id that never existed is a plain miss, not a use-after-free
        never = armed_service.send(ReadyRequest("GET", "/groups/99/attributes"))
        assert never.status == 404

    def test_uaf_disarmed_gives_404(self, clean_service):
        post_group(clean_service)
        clean_service.send(ReadyRequest("DELETE", "/groups/1"))
        after = clean_service.send(ReadyRequest("GET", "/groups/1/attributes"))
        assert after.status == 404

    def test_undef_param_on_update(self, armed_service):
        post_group(armed_service)
        record = armed_service.send(
            ReadyRequest("PUT", "/groups/1",
                         body={"name": "dev-team", "initialize_with_readme": "true"})
        )
        assert record.status == 500

    def test_undef_param_ignored_when_disarmed(self, clean_service):
        post_group(clean_service)
        record = clean_service.send(
            ReadyRequest("PUT", "/groups/1",
                         body={"name": "dev-team", "initialize_with_readme": "true"})
        )
        assert record.status == 200

    def test_per_page_zero(self, armed_service, clean_service):
        armed = armed_service.send(ReadyRequest("GET", "/groups", query={"per_page": "0"}))
        assert armed.status == 500
        clean = clean_service.send(ReadyRequest("GET", "/groups", query={"per_page": "0"}))
        assert clean.status == 200
        assert json.loads(clean.body) == []

    @pytest.mark.parametrize("value", ["2", "-1", "-2"])
    def test_special_parent_id(self, armed_service, clean_service, value):
        assert post_group(armed_service, parent_id=value).status == 500
        assert post_group(clean_service, parent_id=value).status == 201

    def test_undef_param_in_the_query_on_update(self, armed_service):
        post_group(armed_service)
        record = armed_service.send(
            ReadyRequest("PUT", "/groups/1", query={"initialize_with_readme": "true"},
                         body={"name": "dev-team"})
        )
        assert record.status == 500

    def test_bugs_only_fire_after_validation(self, armed_service):
        # an invalid defined parameter still yields 400, not the bug's 500
        record = armed_service.send(
            ReadyRequest("GET", "/groups",
                         query={"per_page": "0", "statistics": "3"})
        )
        assert record.status == 400


class TestParameterLocations:
    """A defined parameter is read only from the location its grammar gives it."""

    def test_per_page_in_the_body_is_not_read(self, clean_service):
        record = clean_service.send(ReadyRequest("GET", "/groups", body={"per_page": "abc"}))
        assert record.status == 200
        assert json.loads(record.body) == []

    def test_parent_id_in_the_query_fires_no_bug(self, armed_service):
        record = armed_service.send(
            ReadyRequest("POST", "/groups", query={"parent_id": "2"},
                         body={"name": "dev-team", "path": "eng"})
        )
        assert record.status == 201
        assert json.loads(record.body)["parent_id"] == "0"  # the body default


def template_request(template, values):
    """A request for ``template`` carrying ``values``, each at its parameter's location."""
    path, query, body = template.path, {}, {}
    for name, value in values.items():
        location = template.param(name).location
        if location == "path":
            path = path.replace("{" + name + "}", value)
        else:
            (query if location == "query" else body)[name] = value
    return ReadyRequest(template.method, path, query, body)


def random_request(grammar, rng):
    templates = list(grammar.templates.values())
    template = templates[int(rng.integers(len(templates)))]
    values = {}
    for spec in template.params:
        if spec.is_consumer:
            values[spec.name] = str(int(rng.integers(0, 6)))
        else:
            choice = int(rng.integers(len(spec.dictionary) + 1))
            values[spec.name] = (
                spec.default if choice == len(spec.dictionary)
                else spec.dictionary[choice]
            )
    path = template.path
    query, body = {}, {}
    for spec in template.params:
        if spec.location == "path":
            path = path.replace("{" + spec.name + "}", values[spec.name])
        elif spec.location == "query":
            query[spec.name] = values[spec.name]
        else:
            body[spec.name] = values[spec.name]
    return ReadyRequest(template.method, path, query, body)


class TestDisarmedNeverErrors:
    def test_random_fuzzing_yields_no_5xx(self, clean_service, mock_grammar):
        rng = np.random.default_rng(1234)
        for _ in range(5000):
            record = clean_service.send(random_request(mock_grammar, rng))
            assert record.status is not None and record.status < 500


class TestDeterminism:
    def test_identical_streams_identical_responses(self, clean_service, mock_grammar):
        def stream():
            clean_service.send(ReadyRequest("POST", "/__reset"))
            rng = np.random.default_rng(77)
            return [
                (clean_service.send(random_request(mock_grammar, rng)).status)
                for _ in range(500)
            ]

        assert stream() == stream()


class TestKeepAlive:
    @pytest.mark.parametrize("method, path, status", [
        ("POST", "/no/such/route", 404),
        ("PUT", "/groups", 405),
        ("POST", "/__reset", 204),
    ])
    def test_body_sent_to_an_unrouted_request_is_consumed(self, method, path, status):
        handle = serve(0, BugConfig())
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=5)
        try:
            conn.request(method, path, body=b'{"name": "dev-team"}')
            first = conn.getresponse()
            first.read()
            assert first.status == status
            conn.request("GET", "/groups")
            second = conn.getresponse()
            assert (second.status, json.loads(second.read())) == (200, [])
        finally:
            conn.close()
            handle.stop()


@pytest.fixture(scope="module")
def service():
    handle = serve(0, BugConfig())
    yield handle
    handle.stop()


def connect(handle, timeout: float = 3.0) -> socket.socket:
    return socket.create_connection(("127.0.0.1", handle.port), timeout=timeout)


def read_reply(reader) -> tuple[int, dict[str, str], bytes]:
    """Status, header fields (names lower-cased) and body of one reply."""
    status = int(reader.readline().split()[1])
    fields = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode().partition(":")
        fields[name.strip().lower()] = value.strip()
    return status, fields, reader.read(int(fields["content-length"]))


def exchange(handle, data: bytes) -> tuple[int, dict[str, str], bytes, bool]:
    """Send raw bytes on a fresh connection; one reply, and whether the mock then closed."""
    with connect(handle) as sock, sock.makefile("rb") as reader:
        sock.sendall(data)
        status, fields, body = read_reply(reader)
        sock.settimeout(0.2)
        try:
            closed = reader.read(1) == b""
        except TimeoutError:
            closed = False
    return status, fields, body, closed


def still_serving(handle) -> bool:
    status, _, _, _ = exchange(handle, b"GET /groups HTTP/1.1\r\nConnection: close\r\n\r\n")
    return status == 200


class TestWire:
    """Raw bytes in, raw bytes out: the mock's own HTTP/1.1 framing."""

    def test_pipelined_requests_get_replies_in_order(self, service):
        body = b'{"name": "dev-team", "path": "eng"}'
        with connect(service) as sock, sock.makefile("rb") as reader:
            sock.sendall(b"POST /__reset HTTP/1.1\r\n\r\n"
                         b"POST /groups HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                         b"GET /groups/1 HTTP/1.1\r\n\r\n" % (len(body), body))
            replies = [read_reply(reader) for _ in range(3)]
        assert [status for status, _, _ in replies] == [204, 201, 200]
        assert json.loads(replies[1][2])["id"] == 1
        assert json.loads(replies[2][2])["name"] == "dev-team"
        assert all("connection" not in fields for _, fields, _ in replies)

    def test_http_1_0_without_keep_alive_closes(self, service):
        status, fields, _, closed = exchange(service, b"GET /groups HTTP/1.0\r\n\r\n")
        assert (status, fields["connection"], closed) == (200, "close", True)

    def test_connection_close_is_honoured_and_echoed(self, service):
        status, fields, _, closed = exchange(
            service, b"GET /groups HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert (status, fields["connection"], closed) == (200, "close", True)

    def test_keep_alive_by_default(self, service):
        status, fields, _, closed = exchange(service, b"GET /groups HTTP/1.1\r\n\r\n")
        assert (status, "connection" in fields, closed) == (200, False, False)

    @pytest.mark.parametrize("data, status", [
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /groups HTTP/1.1\r\nX-Big: " + b"a" * (64 * 1024) + b"\r\n\r\n", 431),
        (b"PATCH /groups/1 HTTP/1.1\r\n\r\n", 501),
        (b"POST /groups HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 501),
        (b"POST /groups HTTP/1.1\r\nContent-Length: -1\r\n\r\n{}", 400),
        (b"POST /groups HTTP/1.1\r\nContent-Length: ten\r\n\r\n{}", 400),
        (b"GET //[x/groups HTTP/1.1\r\n\r\n", 400),
        (b"GET http://[x/groups HTTP/1.1\r\n\r\n", 400),
    ], ids=["malformed-request-line", "head-over-64-KiB", "unsupported-method",
            "transfer-encoding", "content-length--1", "content-length-not-a-number",
            "unsplittable-target", "unsplittable-absolute-target"])
    def test_unservable_request_is_refused_with_a_close(self, capfd, service, data, status):
        answered, fields, _, closed = exchange(service, data)
        assert (answered, fields["connection"], closed) == (status, "close", True)
        assert still_serving(service)
        assert capfd.readouterr().err == ""

    def test_declared_body_over_the_cap_is_refused_before_reading(self, service):
        head = b"POST /groups HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (
            mock_service._MAX_BODY + 1)
        status, fields, body, closed = exchange(service, head)  # no body sent
        assert (status, fields["connection"], closed) == (413, "close", True)
        assert json.loads(body)["message"].startswith("413 ")
        assert still_serving(service)

    def test_body_at_the_cap_is_read(self, service, monkeypatch):
        body = b'{"name": "dev-team", "path": "eng"}'
        monkeypatch.setattr(mock_service, "_MAX_BODY", len(body))
        request = b"POST /groups HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
        status, _, _, closed = exchange(service, request % (len(body), body))
        assert (status, closed) == (201, False)
        status, _, _, closed = exchange(service, request % (len(body) + 1, body + b" "))
        assert (status, closed) == (413, True)

    def test_half_sent_body_holds_up_no_other_connection(self, service):
        with connect(service) as stalled, stalled.makefile("rb") as reader:
            # The GET's reply shows the stalled connection's handler has
            # moved on to the POST, whose body never arrives in full.
            stalled.sendall(b"GET /groups HTTP/1.1\r\n\r\n"
                            b"POST /groups HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"n")
            assert read_reply(reader)[0] == 200
            started = time.perf_counter()
            assert still_serving(service)
            assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("data", [
        b"GET /groups HTTP/1.1\r\nHost: x",
        b"POST /groups HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"n",
    ], ids=["mid-head", "mid-body"])
    def test_client_leaving_mid_request_leaves_no_traceback(self, capfd, data):
        handle = serve(0, BugConfig())
        done = threading.Event()
        shutdown_request = handle.server.shutdown_request

        def finished(request):  # runs after any traceback the handler printed
            shutdown_request(request)
            done.set()

        handle.server.shutdown_request = finished
        try:
            with connect(handle) as sock:
                sock.sendall(data)
            assert done.wait(5.0)
        finally:
            handle.stop()
        assert capfd.readouterr().err == ""

    def test_stop_returns_with_an_idle_keep_alive_connection_open(self):
        handle = serve(0, BugConfig())
        with connect(handle) as sock, sock.makefile("rb") as reader:
            sock.sendall(b"GET /groups HTTP/1.1\r\n\r\n")
            assert read_reply(reader)[0] == 200
            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            stopper.join(5.0)
            assert not stopper.is_alive()

    def test_stop_returns_within_a_tenth_of_a_second(self):
        handle = serve(0, BugConfig())
        assert still_serving(handle)
        started = time.perf_counter()
        handle.stop()
        assert time.perf_counter() - started < 0.1


class TestGrammarShipsWithService:
    def test_parses_with_producers_for_both_resources(self, mock_grammar):
        g = mock_grammar
        assert g.templates["POST /groups"] in g.producers_of("group")
        assert g.templates["DELETE /groups/{id}"] in g.consumers_of("group")
        assert g.templates["POST /projects"] in g.producers_of("project")
        assert g.templates["GET /projects/{id}"] in g.consumers_of("project")

    def test_every_template_is_an_endpoint(self, mock_grammar):
        actions = {(endpoint.template.template_id, endpoint.action, endpoint.resource)
                   for endpoint in mock_endpoints()}
        assert actions == {
            (f"{method} /{resource}s{suffix}", action, resource)
            for resource in ("group", "project")
            for method, suffix, action in [
                ("POST", "", "create"), ("GET", "", "list"), ("GET", "/{id}", "get"),
                ("GET", "/{id}/attributes", "attributes"), ("PUT", "/{id}", "update"),
                ("DELETE", "/{id}", "delete"),
            ]
        }
        assert [endpoint.template for endpoint in mock_endpoints()] == list(
            mock_grammar.templates.values())


def value_checks():
    """Each grammar parameter that the mock checks by value, with the mock's check."""
    for endpoint in mock_endpoints():
        for spec, (_, _, _, value_ok) in zip(endpoint.template.params, endpoint.checks):
            if not spec.is_consumer:
                yield spec, value_ok


class TestValueRules:
    """The rules the grammar format cannot express (``VALUE_RULES``)."""

    def test_every_rule_has_a_bad_value_case(self):
        assert set(BAD_VALUES) == set(VALUE_RULES)

    @pytest.mark.parametrize("name", sorted(VALUE_RULES))
    def test_rule_names_a_grammar_parameter_of_its_type(self, mock_grammar, name):
        specs = [template.param(name) for template in mock_grammar.templates.values()
                 if name in template.param_names]
        assert specs
        assert {spec.value_type for spec in specs} == {VALUE_RULES[name][0]}

    def test_every_default_passes_the_check(self):
        for spec, value_ok in value_checks():
            assert value_ok(spec.default), spec.name

    @pytest.mark.parametrize("name", sorted(VALUE_RULES))
    def test_dictionary_mixes_in_a_rejected_value(self, name):
        # Dictionaries deliberately mix invalid entries with the valid ones,
        # so random dictionary rendering is rejected far more often than
        # default rendering (the defaults are always valid).
        checks = [(spec, value_ok) for spec, value_ok in value_checks() if spec.name == name]
        assert checks
        for spec, value_ok in checks:
            assert not all(value_ok(value) for value in spec.dictionary)


class TestUafNeedsThreeDependentRequests:
    def test_no_short_stream_triggers_the_armed_bug(self, mock_grammar):
        """create -> delete -> access is the shortest trigger.

        From pristine state no one- or two-request stream can reach a
        tombstoned id, so the armed bug stays silent below depth three.
        """
        handle = serve(0, BugConfig(frozenset({BUG_UAF})))
        client = HttpClient(handle.base_url)
        try:
            rng = np.random.default_rng(71)
            for _ in range(800):
                client.send(ReadyRequest("POST", "/__reset"))
                for _ in range(int(rng.integers(1, 3))):
                    record = client.send(random_request(mock_grammar, rng))
                    assert record.status < 500
            # the three-step sequence does trigger it
            client.send(ReadyRequest("POST", "/__reset"))
            client.send(ReadyRequest("POST", "/groups",
                                     body={"name": "dev-team", "path": "eng"}))
            client.send(ReadyRequest("DELETE", "/groups/1"))
            record = client.send(ReadyRequest("GET", "/groups/1/attributes"))
            assert record.status == 500
        finally:
            client.close()
            handle.stop()


def scan_route(endpoints, method, segments):
    """The linear scan over the endpoints that the route table replaced."""
    path_known = False
    for endpoint in endpoints:
        pattern = tuple(part for part in endpoint.template.path.split("/") if part)
        if len(pattern) != len(segments):
            continue
        values: dict[str, str] = {}
        for part, actual in zip(pattern, segments):
            if part.startswith("{") and part.endswith("}"):
                values[part[1:-1]] = actual
            elif part != actual:
                break
        else:
            path_known = True
            if endpoint.template.method == method:
                return endpoint, values, True
    return None, {}, path_known


METHODS = st.sampled_from(["GET", "POST", "PUT", "DELETE", "PATCH"])
ROUTES = mock_service._RouteTable(mock_endpoints())


def routing_endpoint(method, path):
    """An endpoint that only routing reads."""
    template = RequestTemplate(f"{method} {path}", method, path, ())
    return MockEndpoint(template, "get", "group", checks=(), body=())


class TestRouteTable:
    @settings(max_examples=500, deadline=None)
    @given(method=METHODS, segments=st.lists(st.sampled_from(
        ["groups", "projects", "attributes", "1", "{id}", "abc", "__reset"]), max_size=4))
    def test_matches_the_scan_over_the_service_endpoints(self, method, segments):
        assert ROUTES.match(method, segments) == scan_route(mock_endpoints(), method, segments)

    @settings(max_examples=500, deadline=None)
    @given(
        endpoints=st.lists(st.tuples(st.sampled_from(["GET", "PUT"]), st.lists(
            st.sampled_from(["a", "{x}", "{y}", "{}", "{"]), max_size=2)), max_size=8),
        method=st.sampled_from(["GET", "PUT", "POST"]),
        segments=st.lists(st.sampled_from(["a", "{", "7"]), max_size=2),
    )
    def test_matches_the_scan_over_any_endpoints(self, endpoints, method, segments):
        # Overlapping paths too: the first endpoint in order wins, as in the scan.
        table = tuple(routing_endpoint(verb, "/" + "/".join(parts)) for verb, parts in endpoints)
        assert mock_service._RouteTable(table).match(method, segments) == scan_route(
            table, method, segments)

    def test_the_first_of_two_endpoints_on_one_path_wins(self):
        first, second = (routing_endpoint("GET", path) for path in ("/g/{x}", "/g/{y}"))
        assert mock_service._RouteTable((first, second)).match("GET", ["g", "1"]) == (
            first, {"x": "1"}, True)

    def test_a_known_path_with_another_method_is_405_not_404(self):
        assert ROUTES.match("DELETE", ["groups"]) == (None, {}, True)
        assert ROUTES.match("GET", ["groups", "1", "x"]) == (None, {}, False)


# A request target is the second word of the request line, so it holds no
# byte the line is split on; it is decoded as latin-1.
_TARGET_PIECES = st.sampled_from([
    "/", "//", "?", "#", "&", "=", "+", "%", "%2", "%41", "%C3%A9", "%e9", "%zz", ":",
    "[", "]", "@", "a", "B", "1", "groups", "\x00", "\x1f", "\x7f", "\xe9", "\xff",
])


def reference_split(target: str):
    try:
        parts = urlsplit(target)
    except ValueError as exc:
        return "ValueError", str(exc)
    return parts.path, dict(parse_qsl(parts.query, keep_blank_values=True))


def table_split(target: str):
    try:
        path, query = mock_service._split_target(target)
    except ValueError as exc:
        return "ValueError", str(exc)
    return path, mock_service._parse_query(query)


class TestTargetSplit:
    @settings(max_examples=1000, deadline=None)
    @given(pieces=st.lists(_TARGET_PIECES, max_size=12))
    def test_path_and_query_equal_urlsplit_and_parse_qsl(self, pieces):
        target = "".join(pieces)
        assert table_split(target) == reference_split(target)

    @settings(max_examples=500, deadline=None)
    @given(pieces=st.lists(_TARGET_PIECES, max_size=12))
    def test_origin_form_targets(self, pieces):
        target = "/groups?" + "".join(pieces)
        assert table_split(target) == reference_split(target)

    @pytest.mark.parametrize("target", [
        "/groups?per_page=5&per_page=6", "/groups?a&b=&=c&&", "/groups?q=a+b%20c%2B",
        "/groups#frag?x=1", "//host/groups?x=1", "\x00/groups?x=1", "http://h/groups?x=1",
        "groups:1?x=1", "/groups?name=%C3%A9%e9", "*",
    ])
    def test_examples(self, target):
        assert table_split(target) == reference_split(target)


class TestListAction:
    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("create"), st.sampled_from(["group", "project"])),
        st.tuples(st.just("update"), st.sampled_from(["group", "project"]), st.integers(1, 12)),
        st.tuples(st.just("delete"), st.sampled_from(["group", "project"]), st.integers(1, 12)),
        st.tuples(st.just("list"), st.sampled_from(["group", "project"]), st.integers(0, 100)),
        st.tuples(st.just("reset")),
    ), max_size=60))
    def test_reply_equals_the_sorted_then_sliced_reply(self, ops):
        by_key = {(endpoint.resource, endpoint.action): endpoint for endpoint in mock_endpoints()}
        state = mock_service._State(BugConfig())
        for op in ops:
            if op[0] == "reset":
                state.reset()
                continue
            endpoint = by_key[op[1], op[0]]
            if op[0] == "create":
                branch, reply = mock_service._execute(
                    state, endpoint, {}, {}, {"name": "web-app", "path": "eng"})
                assert (branch, reply.status) == ("created", 201)
            elif op[0] == "list":
                expected = [{"id": obj_id, **fields}
                            for obj_id, fields in sorted(state.live[op[1]].items())][:op[2]]
                branch, reply = mock_service._execute(
                    state, endpoint, {}, {"per_page": str(op[2])}, {})
                assert branch == ("listed" if expected else "empty_page")
                assert (reply.status, reply.body) == (200, json.dumps(expected).encode())
            else:
                body = {"name": "qa-team", "description": "beta"} if op[0] == "update" else {}
                live = op[2] in state.live[op[1]]
                branch, _ = mock_service._execute(state, endpoint, {"id": str(op[2])}, {}, body)
                assert branch == (f"{op[0]}d" if live else "not_found")  # updated, deleted


class TestCoverageCounting:
    """Every request the mock dispatches counts exactly one coverage branch."""

    GROUP = {"name": "dev-team", "path": "eng"}
    STREAM = [  # (method, path, query, body, the branch it takes)
        ("GET", "/no/such/route", {}, None, "_router:no_route"),
        ("PUT", "/groups", {}, None, "_router:method_not_allowed"),
        ("GET", "/groups", {}, None, "GET /groups:empty_page"),
        ("POST", "/groups", {}, {"path": "eng"}, "POST /groups:missing_required"),
        ("POST", "/groups", {}, {**GROUP, "name": "Dev Team"}, "POST /groups:invalid_param"),
        ("GET", "/groups/abc", {}, None, "GET /groups/{id}:invalid_param"),
        ("POST", "/groups", {}, GROUP, "POST /groups:created"),
        ("POST", "/groups", {}, {**GROUP, "parent_id": "2"}, "POST /groups:bug_parentid"),
        ("GET", "/groups", {}, None, "GET /groups:listed"),
        ("GET", "/groups", {"per_page": "0"}, None, "GET /groups:bug_perpage"),
        ("GET", "/groups/1", {}, None, "GET /groups/{id}:ok"),
        ("GET", "/groups/1/attributes", {}, None, "GET /groups/{id}/attributes:ok"),
        ("PUT", "/groups/1", {}, {"name": "qa-team"}, "PUT /groups/{id}:updated"),
        ("PUT", "/groups/1", {"initialize_with_readme": "true"}, {"name": "qa-team"},
         "PUT /groups/{id}:bug_undef"),
        ("DELETE", "/groups/1", {}, None, "DELETE /groups/{id}:deleted"),
        ("GET", "/groups/1/attributes", {}, None, "GET /groups/{id}/attributes:bug_uaf"),
        ("GET", "/groups/1", {}, None, "GET /groups/{id}:not_found"),
        ("PUT", "/groups/1", {}, {"name": "qa-team"}, "PUT /groups/{id}:not_found"),
        ("DELETE", "/groups/1", {}, None, "DELETE /groups/{id}:not_found"),
        ("GET", "/groups/9/attributes", {}, None, "GET /groups/{id}/attributes:not_found"),
    ]

    def test_counters_sum_to_the_requests_sent(self, mock_grammar):
        handle = serve(0, BugConfig(frozenset(ALL_BUGS)))
        try:
            with HttpClient(handle.base_url) as client:
                for method, path, query, body, _ in self.STREAM:
                    client.send(ReadyRequest(method, path, query=query, body=body))
                malformed = b"POST /groups HTTP/1.1\r\nContent-Length: 3\r\n\r\n[1]"
                assert exchange(handle, malformed)[0] == 400
                coverage = json.loads(client.send(ReadyRequest("GET", "/__coverage")).body)
                expected = Counter(label for *_, label in self.STREAM)
                expected["POST /groups:malformed_body"] += 1
                assert coverage == expected

                client.send(ReadyRequest("POST", "/__reset"))
                rng = np.random.default_rng(5)
                for _ in range(300):
                    client.send(random_request(mock_grammar, rng))
                coverage = json.loads(client.send(ReadyRequest("GET", "/__coverage")).body)
                assert sum(coverage.values()) == 300
        finally:
            handle.stop()
