"""The fuzzing main loop: select, extend, render, send, collect, check.

Two selection strategies share the loop.  The classic one keeps a BFS
frontier of successfully extended sequence templates, restarts from the
empty template when the frontier dies out, and renders every request
traditionally.  The data-driven one draws seeds from the collection store
with log10(length+1) weighting and renders all but the last request from
recommender output.  Ablation modes mix and match the two axes.
"""

from __future__ import annotations

import json
import logging
import time
from collections import deque
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .checkers import SetupFailed, datadriven_check, use_after_free_check
from .client import HttpClient
from .collection import CollectionStore
from .execution import ExecutedSequence, execute_candidate
from .grammar import CompiledGrammar
from .recommender import ModelConfig, Recommender
from .rendering import RenderMode
from .reporting import (
    KIND_RESPONSE_5XX,
    ErrorReport,
    RunMetrics,
    write_lengths_csv,
)
from .responses import ResponseClass
from .sequences import (
    EMPTY_SEQUENCE,
    ExtensionResult,
    SequenceTemplate,
    classify_extension,
    extend,
    select_seed,
)

logger = logging.getLogger("restfuzz.fuzz")
# Round failures go where the rounds log, so training.log shows them too.
training_logger = logging.getLogger("restfuzz.training")

# mode name -> (weighted seed selection?, render mode, trains a model?)
MODES: dict[str, tuple[bool, RenderMode, bool]] = {
    "miner": (True, RenderMode.MINER, True),
    "baseline": (False, RenderMode.BASELINE, False),
    "seq-only": (True, RenderMode.BASELINE, False),
    "model-only": (False, RenderMode.MODEL_ONLY, True),
    "rec1": (False, RenderMode.REC1, False),
    "reclist": (False, RenderMode.RECLIST, False),
}

_FRONTIER_LIMIT = 4096  # memory guard for long BFS runs


@dataclass
class FuzzConfig:
    target: str
    mode: str = "miner"
    max_requests: int | None = None
    duration: float | None = None
    seed: int = 0
    train_interval: float | None = 7200.0
    train_every_requests: int | None = None
    enable_uaf_checker: bool = False
    enable_datadriven_checker: bool = False
    report_dir: Path | str | None = None
    max_sequence_length: int = 10
    model: ModelConfig = dataclass_field(default_factory=ModelConfig)
    auth_token: str | None = None
    request_timeout: float = 10.0
    dump_weights: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {sorted(MODES)}")
        if self.max_requests is None and self.duration is None:
            raise ValueError("need a budget: max_requests and/or duration")


class Fuzzer:
    """One fuzzing run against one target."""

    def __init__(self, config: FuzzConfig, grammar: CompiledGrammar):
        self.config = config
        self.grammar = grammar
        self.weighted_selection, self.render_mode, self.uses_model = MODES[config.mode]

        seeds = np.random.SeedSequence(config.seed).spawn(4)
        self._rng_select = np.random.default_rng(seeds[0])
        self._rng_render = np.random.default_rng(seeds[1])
        self._rng_checker = np.random.default_rng(seeds[2])
        self._rng_trainer = np.random.default_rng(seeds[3])

        self.metrics = RunMetrics()
        self._report_dir = Path(config.report_dir) if config.report_dir else None
        replay_dir = self._report_dir / "replays" if self._report_dir else None
        self.errors = ErrorReport(grammar, replay_dir)

        self._persist = None
        if self._report_dir is not None:
            self._report_dir.mkdir(parents=True, exist_ok=True)
            self._persist = open(
                self._report_dir / "collection.jsonl", "w", encoding="utf-8"
            )
        self.store = CollectionStore(grammar, persist=self._persist)

        dump_dir = (
            self._report_dir / "weights"
            if config.dump_weights and self._report_dir is not None
            else None
        )
        self.recommender = (
            Recommender(grammar, config.model, self._rng_trainer, dump_dir=dump_dir)
            if self.uses_model
            else None
        )
        self._trained_through_iteration = 0
        self._last_train_time: float | None = None
        self._last_train_requests = 0

        # BFS state for the classic selection strategy.
        self._frontier: list[SequenceTemplate] = [EMPTY_SEQUENCE]
        self._round_queue: deque[SequenceTemplate] = deque()
        self._next_frontier: list[SequenceTemplate] = []

    # -- budget ----------------------------------------------------------

    def _exhausted(self) -> bool:
        if (
            self.config.max_requests is not None
            and self.metrics.requests_sent >= self.config.max_requests
        ):
            return True
        if (
            self.config.duration is not None
            and time.monotonic() - self._started >= self.config.duration
        ):
            return True
        return False

    def _fits(self, requests: int) -> bool:
        """True when ``requests`` more requests stay inside the budget."""
        if self._exhausted():
            return False
        limit = self.config.max_requests
        return limit is None or self.metrics.requests_sent + requests <= limit

    # -- training --------------------------------------------------------

    def _train_due(self) -> bool:
        if self.config.train_every_requests is not None:
            if (
                self.metrics.requests_sent - self._last_train_requests
                >= self.config.train_every_requests
            ):
                return True
        if self.config.train_interval is not None:
            if (
                self._last_train_time is not None
                and time.monotonic() - self._last_train_time
                >= self.config.train_interval
            ):
                return True
        return False

    def _maybe_train(self) -> None:
        if self.recommender is None or not self._train_due():
            return
        corpus = self.store.training_corpus(since=self._trained_through_iteration)
        label = f"round={self.recommender.rounds + 1}"
        try:
            if self.recommender.train_and_publish(corpus, label, self._exhausted):
                self.metrics.note_first_training()
        except Exception:
            # A bad round must not end the run: log it, count it, go on.
            self.metrics.train_rounds_failed += 1
            training_logger.exception("training round %s failed", label)
        self._trained_through_iteration = self.store.iteration - 1
        self._last_train_time = time.monotonic()
        self._last_train_requests = self.metrics.requests_sent

    # -- candidate selection ----------------------------------------------

    def _next_candidate_weighted(self) -> SequenceTemplate | None:
        seeds = self.store.seed_templates()
        seed = select_seed(seeds, self._rng_select) if seeds else EMPTY_SEQUENCE
        candidates = extend(seed, self.grammar, self.config.max_sequence_length)
        if candidates:
            return candidates[int(self._rng_select.integers(len(candidates)))]
        # Seed sits at the length cap: re-execute it with fresh values.
        return seed if seed.length else None

    def _next_candidate_bfs(self) -> SequenceTemplate | None:
        while not self._round_queue:
            if self._frontier:
                self._round_queue = deque(
                    candidate
                    for seed in self._frontier
                    for candidate in extend(
                        seed, self.grammar, self.config.max_sequence_length
                    )
                )
                self._frontier = []
                self._next_frontier = []
                if self._round_queue:
                    break
            # Frontier produced nothing (died out or hit the cap): restart
            # the extension process from the empty template.
            restart = extend(
                EMPTY_SEQUENCE, self.grammar, self.config.max_sequence_length
            )
            if not restart:
                return None
            self._round_queue = deque(restart)
            self._next_frontier = []
            break
        return self._round_queue.popleft()

    def _bfs_note_result(self, candidate: SequenceTemplate, executed: ExecutedSequence) -> None:
        outcome = (
            classify_extension(candidate, executed.response_classes)
            if executed.completed
            else ExtensionResult.FAILED
        )
        if outcome == ExtensionResult.EXTENDED and len(self._next_frontier) < _FRONTIER_LIMIT:
            self._next_frontier.append(candidate)
        if not self._round_queue:
            self._frontier = self._next_frontier

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunMetrics:
        self._started = time.monotonic()
        client = HttpClient(
            self.config.target,
            timeout=self.config.request_timeout,
            auth_token=self.config.auth_token,
        )
        try:
            client.check_reachable()
            self._last_train_time = time.monotonic()
            self._loop(client)
        finally:
            client.close()
            self.metrics.wall_time = time.monotonic() - self._started
            self.metrics.unique_errors = len(self.errors)
            if self.recommender is not None:
                self.metrics.train_rounds = self.recommender.rounds
            if self._persist is not None:
                self._persist.close()
            self._write_reports()
        return self.metrics

    def _loop(self, client: HttpClient) -> None:
        observe = self.metrics.observe
        while not self._exhausted():
            self.metrics.iterations += 1
            self.store.iteration = self.metrics.iterations
            self._maybe_train()

            candidate = (
                self._next_candidate_weighted()
                if self.weighted_selection
                else self._next_candidate_bfs()
            )
            if candidate is None:
                logger.warning("nothing satisfiable to execute; stopping")
                return

            snapshot = self.recommender.snapshot() if self.recommender else {}
            executed = execute_candidate(
                candidate.template_ids,
                self.grammar,
                snapshot,
                self.render_mode,
                self._rng_render,
                client,
                store=self.store,
                observe=observe,
                should_stop=self._exhausted,
            )
            self.metrics.note_executed_length(executed.sent)
            if not self.weighted_selection:
                self._bfs_note_result(candidate, executed)
            if executed.completed:
                self.store.admit_sequence(
                    executed.template_ids, executed.response_classes
                )

            for step in executed.steps:
                if step.response.klass is ResponseClass.ERROR_5XX:
                    self.errors.bucket_error(
                        executed.steps, step.position, KIND_RESPONSE_5XX,
                        self.metrics.iterations,
                    )

            # The replay re-sends every executed step, so it runs only whole.
            if self.config.enable_datadriven_checker and self._fits(len(executed.steps)):
                violation = datadriven_check(
                    executed, self.grammar, self.store,
                    self._rng_checker, client, observe,
                )
                if violation is not None:
                    self.errors.bucket_error(
                        violation.steps, violation.offending_index,
                        violation.kind, self.metrics.iterations,
                    )
            if self.config.enable_uaf_checker and not self._exhausted():
                try:
                    violation = use_after_free_check(
                        self.grammar, client, observe, should_stop=self._exhausted
                    )
                except SetupFailed as exc:
                    logger.debug("use-after-free setup failed: %s", exc)
                    violation = None
                if violation is not None:
                    self.errors.bucket_error(
                        violation.steps, violation.offending_index,
                        violation.kind, self.metrics.iterations,
                    )

    def _write_reports(self) -> None:
        if self._report_dir is None:
            return
        with open(self._report_dir / "metrics.json", "w", encoding="utf-8") as fh:
            json.dump(self.metrics.to_json(), fh, indent=2)
        self.errors.write_jsonl(self._report_dir / "errors.jsonl")
        write_lengths_csv(self.metrics, self._report_dir / "lengths.csv")


def fuzz_loop(config: FuzzConfig, grammar: CompiledGrammar) -> RunMetrics:
    """Run one configured fuzzing session and return its metrics."""
    return Fuzzer(config, grammar).run()
