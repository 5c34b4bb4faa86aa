"""Mock-target launcher for the benchmark, and its traced server entry.

``Target.start`` spawns ``restfuzz serve`` (``python3 -m restfuzz.cli
serve``) on a free port with every seeded bug armed and waits until it
answers.  With ``traced=True`` it spawns this file instead, which serves
the same mock with its dispatch and execute paths timed and writes the
totals to a JSON file when it shuts down:

    python3 bench/target.py --src src --bugs b-uaf,... --totals out.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

BUGS = "b-uaf,b-undef,b-perpage,b-parentid"
STARTUP_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0

# Branch labels counted as behaviour coverage, as the acceptance suite
# counts them: successful CRUD behaviours plus armed-bug branches.
BEHAVIOR_BRANCHES = ("created", "listed", "empty_page", "ok", "updated",
                     "deleted", "bug_")


class TargetFailed(Exception):
    pass


class Target:
    """One mock-target child process; use as a context manager."""

    def __init__(self, proc: subprocess.Popen, traced: bool, host: str, port: int):
        self.proc = proc
        self.traced = traced
        self.host = host
        self.port = port
        self.setup_s = 0.0

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @classmethod
    def start(cls, src: Path, env: dict, traced: bool = False,
              totals_path: Path | None = None) -> "Target":
        if traced:
            argv = [sys.executable, "-u", __file__, "--src", str(src), "--bugs", BUGS,
                    "--totals", str(totals_path)]
        else:
            argv = [sys.executable, "-u", "-m", "restfuzz.cli", "serve",
                    "--port", "0", "--bugs", BUGS]
        started = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                env=env, text=True)
        try:
            line = _read_line(proc, started + STARTUP_TIMEOUT_S)
            # "mock target listening on http://127.0.0.1:PORT (bugs: ...)"
            host, _, port = line.split("http://", 1)[1].split()[0].partition(":")
            target = cls(proc, traced, host, int(port))
            target.wait_reachable(started + STARTUP_TIMEOUT_S)
            target.setup_s = time.monotonic() - started
        except BaseException:
            _stop(proc, signal.SIGKILL)
            raise
        return target

    def request(self, method: str, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def wait_reachable(self, deadline: float) -> None:
        """Poll until the target answers; any HTTP status counts."""
        while True:
            try:
                self.request("GET", "/")
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise TargetFailed(f"{self.url} not reachable") from None
                time.sleep(0.01)

    def reset(self) -> None:
        status, _ = self.request("POST", "/__reset")
        if status != 204:
            raise TargetFailed(f"reset answered {status}")

    def behavior_branches(self) -> int:
        status, body = self.request("GET", "/__coverage")
        if status != 200:
            raise TargetFailed(f"coverage answered {status}")
        return sum(
            1 for label in json.loads(body)
            if label.split(":", 1)[1].startswith(BEHAVIOR_BRANCHES)
        )

    def stop(self) -> None:
        # The traced server writes its totals on a graceful shutdown, which
        # waits out serve_forever's poll interval; the plain one need not.
        _stop(self.proc, signal.SIGINT if self.traced else signal.SIGTERM)

    def __enter__(self) -> "Target":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TargetFailed("target did not start in time")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if ready:
            line = proc.stdout.readline()
            if not line:
                raise TargetFailed(f"target exited with code {proc.wait()}")
            if "http://" in line:
                return line


def _stop(proc: subprocess.Popen, sig: int) -> None:
    """Signal the server, wait for it, and kill it if it lingers."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _serve_traced(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True)
    parser.add_argument("--bugs", required=True)
    parser.add_argument("--totals", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from restfuzz import mock_service
    from tracing import mock_layers, mock_totals_wrapper

    totals = mock_totals_wrapper(mock_service)
    handle = mock_service.serve(0, mock_service.BugConfig.parse(args.bugs))
    print(f"mock target listening on {handle.base_url} (traced)", flush=True)
    try:
        handle.thread.join()
    except KeyboardInterrupt:
        handle.stop()
    Path(args.totals).write_text(json.dumps(mock_layers(totals), indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(_serve_traced(sys.argv[1:]))
