"""The exact bytes on the wire, seen through a pass-through TCP proxy."""

from __future__ import annotations

import json
import socket

import pytest

from restfuzz import checkers
from restfuzz.client import HttpClient, ReadyRequest
from restfuzz.mock_service import ALL_BUGS, BugConfig, serve
from restfuzz.orchestrator import FuzzConfig, fuzz_loop
from restfuzz.responses import ResponseClass
from tcp_proxy import TcpProxy
from test_acceptance import BUG_SIGNATURES

# sha256 (TcpProxy.digest) over the request bytes and reply bytes of a
# seed-0, 1500-request run with both checkers against the fully armed mock:
# the baseline and seq-only runs GOLDEN_STREAMS in test_orchestrator.py pins
# by request fields.
# Any change to the bytes the client writes or the mock answers changes it.
WIRE_STREAMS = {
    "baseline": "18043199d9145cb23d830516514041ff1d571c6354801c48fdd4d603f9e9b05a",
    "seq-only": "e351257f06bb7bc4bee5490d27ec1cfdc746f85880aad4991547ddf5e4a973f7",
}


@pytest.fixture
def service():
    handle = serve(0, BugConfig(frozenset(ALL_BUGS)))
    yield handle
    handle.stop()


class TestTcpProxy:
    def test_relays_and_records_both_directions(self, service):
        with TcpProxy(("127.0.0.1", service.port)) as proxy:
            with HttpClient(proxy.base_url) as client:
                assert client.send(ReadyRequest("POST", "/__reset")).status == 204
                record = client.send(ReadyRequest("GET", "/groups", query={"per_page": "5"}))
                assert (record.status, record.body) == (200, "[]")
        [(sent, received)] = proxy.connections
        assert sent.startswith(b"POST /__reset HTTP/1.1\r\n")
        assert sent.endswith(b"GET /groups?per_page=5 HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n"
                             b"Accept-Encoding: identity\r\n\r\n" % proxy.port)
        assert received.startswith(b"HTTP/1.1 204 No Content\r\n")
        assert received.endswith(b"\r\n\r\n[]")

    def test_passes_on_the_end_of_stream(self, service):
        with TcpProxy(("127.0.0.1", service.port)) as proxy:
            with socket.create_connection(("127.0.0.1", proxy.port), timeout=5) as sock:
                sock.sendall(b"GET /groups HTTP/1.1\r\nConnection: close\r\n\r\n")
                data = b""
                while chunk := sock.recv(65536):
                    data += chunk
        assert data.startswith(b"HTTP/1.1 200 OK\r\n") and data.endswith(b"[]")
        assert bytes(proxy.connections[0][1]) == data


class TestWireStream:
    @pytest.mark.parametrize("mode", sorted(WIRE_STREAMS))
    def test_bytes_match_golden_digest(self, service, mock_grammar, mode):
        with TcpProxy(("127.0.0.1", service.port)) as proxy:
            config = FuzzConfig(
                target=proxy.base_url, mode=mode, max_requests=1500, seed=0,
                train_every_requests=150,
                enable_uaf_checker=True, enable_datadriven_checker=True,
            )
            metrics = fuzz_loop(config, mock_grammar)
        assert metrics.requests_sent == 1500
        assert len(proxy.connections) == 1
        assert proxy.digest() == WIRE_STREAMS[mode]


class TestCutConnections:
    def test_a_run_through_a_target_that_cuts_connections_ends_cleanly(
        self, service, mock_grammar, tmp_path
    ):
        """The paper's full pipeline while every 37th reply is cut after 5 bytes.

        Each cut is one transport outcome the fuzzer counts and moves past:
        the budget is met, the reports are written, and a cut reply never
        becomes a finding.
        """
        with TcpProxy(("127.0.0.1", service.port), cut_every=37) as proxy:
            config = FuzzConfig(
                target=proxy.base_url, mode="miner", max_requests=1000, seed=0,
                train_every_requests=500, report_dir=tmp_path,
                enable_uaf_checker=True, enable_datadriven_checker=True,
            )
            metrics = fuzz_loop(config, mock_grammar)
        assert metrics.requests_sent == 1000
        assert proxy.cuts == (1 + 1000) // 37  # the reachability probe's reply is the first
        assert len(proxy.connections) == 1 + proxy.cuts  # a new connection after each cut
        written = json.loads((tmp_path / "metrics.json").read_text())
        assert written["responses"]["transport"] == proxy.cuts
        errors = [json.loads(line)
                  for line in (tmp_path / "errors.jsonl").read_text().splitlines()]
        assert {(e["template_id"], e["status"]) for e in errors} <= set(BUG_SIGNATURES.values())

    def test_no_replayed_request_follows_a_transport_outcome(
        self, service, mock_grammar, monkeypatch
    ):
        """A replay that goes on past a cut reaches the first run's objects."""
        replays = []
        real_run_replay = checkers.run_replay

        def recording_run_replay(lines, client, observe=None):
            steps = real_run_replay(lines, client, observe)
            replays.append([step.response.klass for step in steps])
            return steps

        monkeypatch.setattr(checkers, "run_replay", recording_run_replay)
        with TcpProxy(("127.0.0.1", service.port), cut_every=37) as proxy:
            config = FuzzConfig(
                target=proxy.base_url, mode="miner", max_requests=1000, seed=0,
                train_every_requests=500,
                enable_uaf_checker=True, enable_datadriven_checker=True,
            )
            fuzz_loop(config, mock_grammar)
        cut = [classes for classes in replays if ResponseClass.TRANSPORT in classes]
        assert cut  # some replays met a cut
        assert all(classes.index(ResponseClass.TRANSPORT) == len(classes) - 1
                   for classes in cut)
