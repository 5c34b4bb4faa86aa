"""Run metrics, error bucketing with replay files, and replay execution.

A finding is the steps sent, the offending reply last; its replay file holds exactly them.
"""

from __future__ import annotations

import hashlib
import json
import re
import statistics
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .client import HttpClient, ReadyRequest
from .execution import ExecutedStep, Observer, send_step
from .grammar import CompiledGrammar, is_json_pointer, split_path
from .rendering import RenderedStep, fill_path, note_produced_id
from .responses import ResponseClass, ResponseRecord

KIND_RESPONSE_5XX = "response5xx"

_HEX_RUN_RE = re.compile(r"\b[0-9a-f]{8,}\b")
_DIGITS_RE = re.compile(r"\d+")
_WS_RE = re.compile(r"\s+")
_SLUG_RE = re.compile(r"[^a-z0-9]+")


def pass_rate(counts: Mapping[ResponseClass, int]) -> float | None:
    """Fraction of HTTP responses in 2xx or 5xx; ``None`` without any.

    Transport failures never produced an HTTP response and stay out of both
    numerator and denominator.
    """
    n2 = counts.get(ResponseClass.PASS_2XX, 0)
    n4 = counts.get(ResponseClass.REJECT_4XX, 0)
    n5 = counts.get(ResponseClass.ERROR_5XX, 0)
    total = n2 + n4 + n5
    return (n2 + n5) / total if total > 0 else None


def body_signature(body: str) -> str:
    """Normalized body fingerprint: ids and counters stripped, then hashed."""
    text = body.lower()
    text = _HEX_RUN_RE.sub("", text)
    text = _DIGITS_RE.sub("", text)
    text = _WS_RE.sub(" ", text).strip()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _slug(text: str) -> str:
    return _SLUG_RE.sub("-", text.lower()).strip("-")


def replay_line(step: ExecutedStep, grammar: CompiledGrammar) -> dict:
    """Self-contained replay entry for one executed request.

    Carries the rendered wire data plus symbolic rebind metadata: consumer
    parameters are re-resolved from live producer responses at replay time,
    so a reset target with fresh ids still reproduces the sequence.
    """
    template = grammar.templates[step.template_id]
    path_params = {
        spec.name: step.rendered_params[spec.name]
        for spec in template.params
        if spec.location == "path"
    }
    produces = None
    if template.produces:
        produces = {"type": template.produces[0], "pointer": template.produces[1]}
    return {
        "template_id": step.template_id,
        "method": step.request.method,
        "path_template": template.path,
        "path_params": path_params,
        "query": dict(step.request.query),
        "body": dict(step.request.body),
        "rebind": {spec.name: spec.consumes for spec in template.params if spec.consumes},
        "produces": produces,
        "expected_status": step.response.status,
        "expected_class": step.response.klass.value,
    }


@dataclass
class ErrorRecord:
    """One deduplicated error bucket with its replay file."""

    bucket_id: str
    template_id: str
    status: int | None
    kind: str
    signature: str
    replay_path: str | None
    first_seen_iteration: int
    first_seen_requests: int  # requests sent when the bucket was first seen
    hits: int = 1


class ErrorReport:
    """Buckets errors by (failing template, status, kind, body signature)."""

    def __init__(self, grammar: CompiledGrammar, replay_dir: Path | str | None = None):
        self._grammar = grammar
        self._replay_dir = Path(replay_dir) if replay_dir is not None else None
        self._buckets: dict[tuple, ErrorRecord] = {}
        self._bucket_ids: set[str] = set()

    def bucket_error(
        self, steps: Sequence[ExecutedStep], kind: str, iteration: int, requests: int
    ) -> tuple[ErrorRecord, bool]:
        """Bucket ``steps[-1]``, the offending reply; return its record and whether
        it is new.  A new bucket's replay file holds exactly ``steps``."""
        offending = steps[-1]
        signature = body_signature(offending.response.body)
        key = (offending.template_id, offending.response.status, kind, signature)
        record = self._buckets.get(key)
        if record is not None:
            record.hits += 1
            return record, False

        bucket_id = base_id = "--".join(
            (
                kind,
                _slug(offending.template_id),
                str(offending.response.status),
                signature[:8],
            )
        )
        # Two keys can share a slug and a signature prefix: the later bucket
        # takes the first free numbered id, so no replay file is overwritten.
        clashes = 1
        while bucket_id in self._bucket_ids:
            clashes += 1
            bucket_id = f"{base_id}-{clashes}"
        self._bucket_ids.add(bucket_id)
        replay_path = None
        if self._replay_dir is not None:
            self._replay_dir.mkdir(parents=True, exist_ok=True)
            path = self._replay_dir / f"{bucket_id}.jsonl"
            with open(path, "w", encoding="utf-8") as fh:
                for step in steps:
                    fh.write(json.dumps(replay_line(step, self._grammar)) + "\n")
            replay_path = str(path)
        record = ErrorRecord(
            bucket_id,
            offending.template_id,
            offending.response.status,
            kind,
            signature,
            replay_path,
            iteration,
            requests,
        )
        self._buckets[key] = record
        return record, True

    def records(self) -> list[ErrorRecord]:
        return list(self._buckets.values())

    def __len__(self) -> int:
        return len(self._buckets)

    def write_jsonl(self, path: Path | str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records():
                fh.write(json.dumps(asdict(record)) + "\n")


def _has_strings(value, keys) -> bool:
    """True when ``value`` is an object whose ``keys`` all hold strings."""
    return isinstance(value, dict) and all(isinstance(value.get(key), str) for key in keys)


def _replay_record(text: str) -> dict:
    """One line of a replay file as a replay record; ``ValueError`` says why it is none."""
    line = json.loads(text)
    if not _has_strings(line, ("template_id", "method", "path_template")):
        raise ValueError("need an object with string template_id, method and path_template")
    for key in ("path_params", "query", "body", "rebind"):
        value = line.get(key, {})
        if not _has_strings(value, value):  # every key of the object
            raise ValueError(f"{key} must be an object of strings")
    produces = line.get("produces")
    if produces is not None and not _has_strings(produces, ("type", "pointer")):
        raise ValueError("produces must be null or an object with string type and pointer")
    if produces is not None and not is_json_pointer(produces["pointer"]):
        raise ValueError("the produces pointer must be empty or start with '/'")
    return line


def load_replay(path: Path | str) -> list[dict]:
    """The replay records of a file, one JSON object a line; blank lines are skipped.

    A line that is not a replay record raises ``ValueError`` naming its
    number, and so does a file with no record, naming the file.
    """
    records = []
    with open(path, encoding="utf-8") as fh:
        for number, text in enumerate(fh, start=1):
            try:
                if text.strip():
                    records.append(_replay_record(text))
            except ValueError as exc:
                raise ValueError(f"{path} line {number}: {exc}") from None
    if not records:
        raise ValueError(f"{path}: no replay records")
    return records


def run_replay(
    lines: Sequence[dict], client: HttpClient, observe: Observer | None = None
) -> list[ExecutedStep]:
    """Re-send a stored sequence, re-resolving consumer ids along the way.

    Every request goes out through :func:`execution.send_step` and is
    reported to ``observe``, never recorded as training data.  Returns the
    steps as sent: each step's ``rendered_params`` holds the path, query and
    body values that went out, consumer ids rebound.  When the target state
    matches the original run the rebound ids equal the recorded ones and the
    requests go out byte-identical.  A transport outcome ends the replay
    after its step: a later consumer would fall back to a recorded id and
    reach the original run's object.  A ``headers`` key, written by older
    versions, is ignored.
    """
    pool: dict[str, str] = {}  # the latest id per resource type, as rendering keeps it

    def resolve(line: dict, key: str) -> dict[str, str]:
        """The line's recorded ``key`` values, consumer ids rebound from ``pool``."""
        rebind = line.get("rebind", {})
        return {name: pool.get(rebind.get(name), recorded)
                for name, recorded in line.get(key, {}).items()}

    steps: list[ExecutedStep] = []
    for line in lines:
        path_params = resolve(line, "path_params")
        path = fill_path(split_path(line["path_template"]), path_params)
        query, body = resolve(line, "query"), resolve(line, "body")
        request = ReadyRequest(line["method"], path, query, body)
        rendered = RenderedStep(line["template_id"], request, {**path_params, **query, **body})
        step = send_step(rendered, client, observe=observe)
        steps.append(step)
        if step.response.klass is ResponseClass.TRANSPORT:
            break
        produces = line.get("produces")
        if produces:
            note_produced_id(pool, (produces["type"], produces["pointer"]), step.response)
    return steps


@dataclass
class RunMetrics:
    """Counters and distributions for one fuzzing run."""

    counts: Counter = field(default_factory=Counter)
    per_template_2xx: set[str] = field(default_factory=set)
    length_histogram: Counter = field(default_factory=Counter)
    iterations: int = 0
    wall_time: float = 0.0
    unique_errors: int = 0
    train_rounds: int = 0
    train_rounds_failed: int = 0
    counts_at_first_training: Counter | None = None
    requests_sent: int = 0  # the sum of ``counts``, kept as it grows

    def observe(self, template_id: str, record: ResponseRecord) -> None:
        self.counts[record.klass] += 1
        self.requests_sent += 1
        if record.klass is ResponseClass.PASS_2XX:
            self.per_template_2xx.add(template_id)

    def note_executed_length(self, length: int) -> None:
        if length > 0:
            self.length_histogram[length] += 1

    def note_first_training(self) -> None:
        if self.counts_at_first_training is None:
            self.counts_at_first_training = Counter(self.counts)

    def pass_rate(self) -> float | None:
        return pass_rate(self.counts)

    def pass_rate_after_first_training(self) -> float | None:
        if self.counts_at_first_training is None:
            return None
        tail = Counter(self.counts)
        tail.subtract(self.counts_at_first_training)
        return pass_rate(tail)

    def median_executed_length(self) -> float | None:
        if not self.length_histogram:
            return None
        return float(statistics.median_low(self.length_histogram.elements()))

    def to_json(self) -> dict:
        def counter_json(counter: Counter | None):
            if counter is None:
                return None
            return {klass.value: counter.get(klass, 0) for klass in ResponseClass}

        return {
            "requests_sent": self.requests_sent,
            "responses": counter_json(self.counts),
            "pass_rate": self.pass_rate(),
            "pass_rate_after_first_training": self.pass_rate_after_first_training(),
            "responses_at_first_training": counter_json(self.counts_at_first_training),
            "unique_request_templates": len(self.per_template_2xx),
            "templates_with_2xx": sorted(self.per_template_2xx),
            "length_histogram": {
                str(length): count
                for length, count in sorted(self.length_histogram.items())
            },
            "median_executed_length": self.median_executed_length(),
            "iterations": self.iterations,
            "unique_errors": self.unique_errors,
            "train_rounds": self.train_rounds,
            "train_rounds_failed": self.train_rounds_failed,
            "wall_time_seconds": self.wall_time,
        }

