"""Tracing shim for one fuzzing process, installed from outside ``restfuzz``.

Every wrapped call records one span ``(parent, name, start, end)`` in an
in-memory list; nothing is written until the run ends.  Functions are
patched where the caller looks them up: ``orchestrator`` imports the
selection, execution and checker functions by name, ``execution`` imports
``render_sequence`` by name, ``recommender`` calls ``train``,
``_accuracy`` and ``generate_lists`` as module globals and the model
through the ``model`` module, ``cli`` imports ``parse_spec_file`` by name.
Methods are patched on their class.

Each ``HttpClient.send`` is charged to the innermost open budget owner:
the main loop (``execution.execute_candidate``), the use-after-free
checker or the data-driven checker.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

# Span name -> budget share it is charged to.
BUDGET_OWNERS = {
    "execution.execute_candidate": "main",
    "checkers.uaf": "uaf",
    "checkers.datadriven": "datadriven",
}


class Tracer:
    """Spans of one process, kept in memory.

    Self time (a span's duration minus its children's) is summed as spans
    close.  Hot leaves named in ``LEAVES`` are summed in place without
    keeping one span each: ``_accuracy`` alone calls ``model.forward``
    hundreds of thousands of times in one round.
    """

    LEAVES = frozenset({"model.forward", "model.batch_loss_and_grads"})

    def __init__(self):
        self.spans: list[tuple[int, str, float, float]] = []
        self._open: list[list] = []  # [span_id, seconds spent in children]
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        self._open.append([span_id, 0.0])
        self.spans.append((parent, name, time.perf_counter(), 0.0))
        return span_id

    def end(self, span_id: int) -> None:
        end = time.perf_counter()
        parent, name, start, _ = self.spans[span_id]
        self.spans[span_id] = (parent, name, start, end)
        _, children = self._open.pop()
        self._close(name, end - start, children)

    def _close(self, name: str, duration: float, children: float) -> None:
        self.total[name] += duration
        self.self_time[name] += duration - children
        self.calls[name] += 1
        if self._open:
            self._open[-1][1] += duration

    def wrap(self, name: str, fn, on_result=None):
        if name in self.LEAVES:
            close, clock = self._close, time.perf_counter

            def traced(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(name, clock() - start, 0.0)
        else:
            begin, end = self.begin, self.end

            def traced(*args, **kwargs):
                span_id = begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end(span_id)
                if on_result is not None:
                    on_result(result, args, kwargs)
                return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        from restfuzz import (
            cli, client, collection, execution, model, orchestrator, recommender,
            reporting,
        )
        from restfuzz.responses import ResponseClass

        counts = self.counts
        wrap = self.wrap

        def patch(owner, attr, name, on_result=None):
            setattr(owner, attr, wrap(name, getattr(owner, attr), on_result))

        def on_send(record, args, kwargs):
            if record.klass is ResponseClass.TRANSPORT:
                counts["client.transport_failures"] += 1

        def on_violation(key):
            def note(violation, args, kwargs):
                if violation is not None:
                    counts[key] += 1
            return note

        def on_train(result, args, kwargs):
            counts["recommender.epochs"] += len(result.epoch_losses)
            counts["recommender.examples"] += result.n_train * len(result.epoch_losses)

        def on_generate(result, args, kwargs):
            counts["recommender.lists"] += args[3] if len(args) > 3 else kwargs["k"]

        patch(cli, "parse_spec_file", "grammar.parse")
        patch(orchestrator.Fuzzer, "_loop", "orchestrator.loop")
        patch(orchestrator.Fuzzer, "_write_reports", "reporting.write_reports")
        patch(orchestrator, "select_seed", "sequences.select_seed")
        patch(orchestrator, "extend", "sequences.extend")
        patch(orchestrator, "execute_candidate", "execution.execute_candidate")
        patch(orchestrator, "use_after_free_check", "checkers.uaf",
              on_violation("checkers.uaf.violations"))
        patch(orchestrator, "datadriven_check", "checkers.datadriven",
              on_violation("checkers.datadriven.violations"))
        patch(client.HttpClient, "send", "client.send", on_send)
        for method in ("record_request_outcome", "undefined_pairs_for",
                       "training_corpus", "admit_sequence", "seed_templates"):
            patch(collection.CollectionStore, method, f"collection.{method}")
        patch(reporting.ErrorReport, "bucket_error", "reporting.bucket_error")
        patch(recommender, "train", "recommender.train", on_train)
        patch(recommender, "_accuracy", "recommender.accuracy")
        patch(recommender, "generate_lists", "recommender.generate_lists", on_generate)
        patch(model, "batch_loss_and_grads", "model.batch_loss_and_grads")
        patch(model, "forward", "model.forward")

        render_sequence = execution.render_sequence
        tracer = self

        def traced_render_sequence(*args, **kwargs):
            return _TimedGenerator(tracer, render_sequence(*args, **kwargs))

        execution.render_sequence = traced_render_sequence

    # -- summary -------------------------------------------------------------

    def totals(self, fuzzer) -> dict:
        """Per-layer metrics for one run; ``fuzzer`` is the finished Fuzzer."""
        owner_sends: Counter = Counter()
        send_ms: list[float] = []
        spans = self.spans
        for parent, name, start, end in spans:
            if name == "client.send":
                send_ms.append((end - start) * 1e3)
                owner_sends[_owner(spans, parent)] += 1
        total, self_time, calls = self.total, self.self_time, self.calls
        counts = self.counts
        epochs = counts["recommender.epochs"]
        examples = counts["recommender.examples"]
        # Per-example cost leaves out the per-epoch accuracy pass.
        gradient_s = total["recommender.train"] - total["recommender.accuracy"]
        sends = sum(owner_sends.values())
        store = fuzzer.store
        return {
            "recommender.train_s": total["recommender.train"],
            "recommender.s_per_epoch": total["recommender.train"] / epochs if epochs else 0.0,
            "recommender.us_per_example": gradient_s * 1e6 / examples if examples else 0.0,
            "recommender.accuracy_s": total["recommender.accuracy"],
            "recommender.generate_ms_per_list": (
                total["recommender.generate_lists"] * 1e3 / counts["recommender.lists"]
                if counts["recommender.lists"] else 0.0
            ),
            "recommender.rounds": calls["recommender.train"],
            "model.batch_loss_and_grads_s": total["model.batch_loss_and_grads"],
            "model.batch_loss_and_grads.calls": calls["model.batch_loss_and_grads"],
            "model.forward_s": total["model.forward"],
            "model.forward.calls": calls["model.forward"],
            "client.send_s": total["client.send"],
            "client.send_ms_p50": float(np.percentile(send_ms, 50)) if send_ms else 0.0,
            "client.send_ms_p99": float(np.percentile(send_ms, 99)) if send_ms else 0.0,
            "client.requests": calls["client.send"],
            "client.transport_failures": counts["client.transport_failures"],
            "rendering.steps": calls["rendering.render"],
            "rendering.render_s": total["rendering.render"],
            "execution.calls": calls["execution.execute_candidate"],
            "execution.self_s": self_time["execution.execute_candidate"],
            "orchestrator.iterations": fuzzer.metrics.iterations,
            "orchestrator.self_s": self_time["orchestrator.loop"],
            "sequences.select_seed_s": total["sequences.select_seed"],
            "sequences.select_seed.calls": calls["sequences.select_seed"],
            "sequences.extend_s": total["sequences.extend"],
            "sequences.extend.calls": calls["sequences.extend"],
            "sequences.seeds_final": len(store.seed_templates.__wrapped__(store)),
            "collection.seed_templates_s": total["collection.seed_templates"],
            "checkers.uaf_s": total["checkers.uaf"],
            "checkers.uaf.requests": owner_sends["uaf"],
            "checkers.uaf.violations": counts["checkers.uaf.violations"],
            "checkers.datadriven_s": total["checkers.datadriven"],
            "checkers.datadriven.requests": owner_sends["datadriven"],
            "checkers.datadriven.violations": counts["checkers.datadriven.violations"],
            "budget.main_share": owner_sends["main"] / sends if sends else 0.0,
            "budget.uaf_share": owner_sends["uaf"] / sends if sends else 0.0,
            "budget.datadriven_share": owner_sends["datadriven"] / sends if sends else 0.0,
            "collection.record_s": total["collection.record_request_outcome"],
            "collection.record.calls": calls["collection.record_request_outcome"],
            "collection.undefined_pairs_for_s": total["collection.undefined_pairs_for"],
            "collection.undefined_pairs_for.calls": calls["collection.undefined_pairs_for"],
            "collection.training_corpus_s": total["collection.training_corpus"],
            "collection.admit_s": total["collection.admit_sequence"],
            "collection.events_final": len(store.training_corpus.__wrapped__(store, since=-1)),
            "collection.pairs_final": len(store.pair_observations()),
            "reporting.bucket_error_s": total["reporting.bucket_error"],
            "reporting.bucket_error.calls": calls["reporting.bucket_error"],
            "reporting.buckets": len(fuzzer.errors),
            "reporting.write_reports_s": total["reporting.write_reports"],
            "grammar.parse_s": total["grammar.parse"],
        }

    def write_spans(self, path: Path) -> None:
        """All spans as ``id parent name start_s end_s`` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (parent, name, start, end) in enumerate(self.spans):
                fh.write(f"{span_id} {parent} {name} {start:.9f} {end:.9f}\n")


def _owner(spans, span_id: int) -> str:
    while span_id >= 0:
        parent, name, _, _ = spans[span_id]
        owner = BUDGET_OWNERS.get(name)
        if owner is not None:
            return owner
        span_id = parent
    return "other"


class _TimedGenerator:
    """Times every resume of a ``render_sequence`` generator."""

    def __init__(self, tracer: Tracer, generator):
        self._tracer = tracer
        self._generator = generator

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        span_id = self._tracer.begin("rendering.render")
        try:
            return self._generator.send(value)
        finally:
            self._tracer.end(span_id)


def mock_totals_wrapper(mock_service) -> dict[str, float]:
    """Wrap the mock target's dispatch and execute paths; returns their sums.

    ``_dispatch`` waits for the dispatch lock and then calls
    ``_dispatch_locked``; the difference between the two is lock wait.
    """
    totals: dict[str, float] = {}
    lock = threading.Lock()  # handler threads finish requests concurrently
    clock = time.perf_counter

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                with lock:
                    totals[key] = totals.get(key, 0.0) + elapsed
        return wrapper

    handler = mock_service._Handler
    handler._dispatch = timed("outer_s", handler._dispatch)
    handler._dispatch_locked = timed("dispatch_s", handler._dispatch_locked)
    mock_service._execute = timed("execute_s", mock_service._execute)
    return totals


def mock_layers(totals: dict) -> dict:
    dispatch = totals.get("dispatch_s", 0.0)
    return {
        "mock_service.dispatch_s": dispatch,
        "mock_service.execute_s": totals.get("execute_s", 0.0),
        "mock_service.lock_wait_s": max(totals.get("outer_s", 0.0) - dispatch, 0.0),
    }
