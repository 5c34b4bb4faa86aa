from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from restfuzz.client import HttpClient
from restfuzz.grammar import parse_spec
from restfuzz.mock_service import (
    ALL_BUGS,
    BUG_UAF,
    BugConfig,
    mock_grammar_bytes,
    packaged_grammar_path,
    serve,
)
from restfuzz.rendering import ReadyRequest


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

    def test_bugs_only_fire_after_validation(self, armed_service):
        # an invalid defined parameter still yields 400, not the bug's 500
        record = armed_service.send(
            ReadyRequest("GET", "/groups",
                         query={"per_page": "0", "statistics": "3"})
        )
        assert record.status == 400


def random_request(grammar, rng):
    template = grammar.templates[
        grammar.template_ids[int(rng.integers(len(grammar.template_ids)))]
    ]
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
    def test_random_fuzzing_yields_no_5xx(self, clean_service):
        grammar = parse_spec(mock_grammar_bytes())
        rng = np.random.default_rng(1234)
        for _ in range(5000):
            record = clean_service.send(random_request(grammar, rng))
            assert record.status is not None and record.status < 500


class TestDeterminism:
    def test_identical_streams_identical_responses(self, clean_service):
        grammar = parse_spec(mock_grammar_bytes())

        def stream():
            clean_service.send(ReadyRequest("POST", "/__reset"))
            rng = np.random.default_rng(77)
            return [
                (clean_service.send(random_request(grammar, rng)).status)
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
    ], ids=["malformed-request-line", "head-over-64-KiB", "unsupported-method",
            "transfer-encoding", "content-length--1", "content-length-not-a-number"])
    def test_unservable_request_is_refused_with_a_close(self, service, data, status):
        answered, fields, _, closed = exchange(service, data)
        assert (answered, fields["connection"], closed) == (status, "close", True)
        assert still_serving(service)

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
    def test_packaged_file_matches_schema(self):
        assert packaged_grammar_path().read_bytes() == mock_grammar_bytes()

    def test_parses_with_producers_for_both_resources(self):
        g = parse_spec(mock_grammar_bytes())
        assert ("POST /groups", "group", "DELETE /groups/{id}") in g.dependency_edges
        assert ("POST /projects", "project", "GET /projects/{id}") in g.dependency_edges


class TestUafNeedsThreeDependentRequests:
    def test_no_short_stream_triggers_the_armed_bug(self):
        """create -> delete -> access is the shortest trigger.

        From pristine state no one- or two-request stream can reach a
        tombstoned id, so the armed bug stays silent below depth three.
        """
        handle = serve(0, BugConfig(frozenset({BUG_UAF})))
        client = HttpClient(handle.base_url)
        try:
            grammar = parse_spec(mock_grammar_bytes())
            rng = np.random.default_rng(71)
            for _ in range(800):
                client.send(ReadyRequest("POST", "/__reset"))
                for _ in range(int(rng.integers(1, 3))):
                    record = client.send(random_request(grammar, rng))
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
