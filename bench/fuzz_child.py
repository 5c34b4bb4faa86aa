"""One fuzzing run in a fresh process: ``restfuzz.cli.main(["fuzz", ...])``.

Usage: ``python3 bench/fuzz_child.py <job.json>``.  The job file names the
source tree, the run directory, the CLI arguments and whether to trace.
The script writes ``result.json`` into the run directory: the exit code,
seconds and CPU seconds inside ``cli.main``, the wall and CPU seconds of
each window (see ``Windows``), peak RSS, the moment (request count,
seconds and window) each error bucket was first seen and, when traced, the
per-layer totals and ``spans.txt``.  The parent captures stdout and stderr.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

WINDOW = 10  # requests per timed window


class Windows:
    """Stamps wall and CPU seconds at fixed points of the run.

    A window closes after every ``WINDOW`` requests, after each training
    batch and accuracy pass, at each new error bucket and when ``cli.main``
    returns.  Requests and training are deterministic at a fixed fuzzer
    seed (training is synchronous), so window ``i`` is the same work in
    every run of that seed.  The wrappers cost a counter bump per request
    and two clock reads per window.
    """

    def __init__(self, reporting, model, recommender):
        self.requests = 0
        self.wall: list[float] = []
        self.cpu: list[float] = []
        original_observe = reporting.RunMetrics.observe

        def observe(metrics, *args, **kwargs):
            original_observe(metrics, *args, **kwargs)
            self.requests += 1
            if self.requests % WINDOW == 0:
                self.stamp()

        def stamped(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.stamp()
                return result
            return wrapper

        reporting.RunMetrics.observe = observe
        model.batch_loss_and_grads = stamped(model.batch_loss_and_grads)
        recommender._accuracy = stamped(recommender._accuracy)

    def stamp(self) -> int:
        """Close the current window; return its index."""
        self.wall.append(time.perf_counter())
        self.cpu.append(time.process_time())
        return len(self.wall) - 1

    def durations(self, wall_started: float, cpu_started: float) -> dict[str, list[float]]:
        return {
            "wall": [b - a for a, b in zip([wall_started, *self.wall], self.wall)],
            "cpu": [b - a for a, b in zip([cpu_started, *self.cpu], self.cpu)],
        }


class Discoveries:
    """Timestamps each new error bucket by requests sent, seconds elapsed
    and the window it closes.

    Wraps ``ErrorReport.bucket_error`` only, which runs once per error, so
    untraced runs carry no per-request cost.
    """

    def __init__(self, orchestrator, reporting, windows: Windows):
        self.fuzzer = None
        self.started = 0.0
        self.found: list[dict] = []
        original_run = orchestrator.Fuzzer.run
        original_bucket = reporting.ErrorReport.bucket_error

        def run(fuzzer):
            self.fuzzer = fuzzer
            return original_run(fuzzer)

        def bucket_error(report, *args, **kwargs):
            record, is_new = original_bucket(report, *args, **kwargs)
            if is_new:
                self.found.append({
                    "template_id": record.template_id,
                    "status": record.status,
                    "requests": self.fuzzer.metrics.requests_sent,
                    "seconds": time.perf_counter() - self.started,
                    "window": windows.stamp(),
                })
            return record, is_new

        orchestrator.Fuzzer.run = run
        reporting.ErrorReport.bucket_error = bucket_error


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    run_dir = Path(job["run_dir"])
    sys.path.insert(0, job["src"])
    import numpy
    from restfuzz import cli, model, orchestrator, recommender, reporting
    from restfuzz.responses import ResponseClass

    windows = Windows(reporting, model, recommender)
    discoveries = Discoveries(orchestrator, reporting, windows)
    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    main_entered = time.monotonic()
    cpu_started = time.process_time()
    discoveries.started = started = time.perf_counter()
    exit_code = cli.main(job["argv"])
    windows.stamp()
    seconds = time.perf_counter() - started
    cpu_seconds = time.process_time() - cpu_started

    fuzzer = discoveries.fuzzer
    result = {
        "exit_code": exit_code,
        "numpy": numpy.__version__,
        "main_entered": main_entered,
        "seconds": seconds,
        "cpu_seconds": cpu_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requests": fuzzer.metrics.requests_sent,
        "transport": fuzzer.metrics.counts[ResponseClass.TRANSPORT],
        "discoveries": discoveries.found,
        "windows": windows.durations(started, cpu_started),
    }
    if tracer is not None:
        result["layers"] = tracer.totals(fuzzer)
        tracer.write_spans(run_dir / "spans.txt")
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
