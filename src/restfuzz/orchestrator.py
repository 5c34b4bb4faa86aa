"""The fuzzing main loop: select, extend, render, send, collect, check.

Two selection strategies share the loop.  The classic one keeps a BFS
frontier of successfully extended sequence templates, restarts from the
empty template when the frontier dies out, and renders every request
traditionally.  The data-driven one draws seeds from the collection store
with log10(length+1) weighting and renders all but the last request from
recommender output.  Ablation modes (:data:`restfuzz.config.MODES`) mix
and match the two axes.
A candidate is a tuple of template ids; only a whole run of it (one step
sent per id) can extend the frontier, become a seed or be replayed, and
the run keeps the set of (template ids, pair) keys already replayed.
Every finding, a main-loop 5xx or a checker's, is filed by one call as the
steps sent up to and including the offending reply.  The Fuzzer keeps the
run's clock and alone writes the report files, all opened before the first
request; ``training.log`` lines are echoed to the ``restfuzz.training``
logger.  With ``dump_weights`` each training round that returns is written
as ``weights/round_NNN.npz``.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from collections import deque
from contextlib import ExitStack
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .checkers import KIND_INCORRECT_PARAM_USAGE, KIND_USE_AFTER_FREE, datadriven_check
from .checkers import ReplayKey, uaf_plan, use_after_free_check
from .client import HttpClient
from .collection import CollectionStore, PairList
from .config import MODES, FuzzConfig, RenderMode
from .draws import Draws
from .execution import ExecutedStep, execute_candidate
from .grammar import CompiledGrammar
from .recommender import ModelConfig, Recommender
from .reporting import KIND_RESPONSE_5XX, ErrorReport, RunMetrics
from .responses import ResponseClass
from .sequences import SequenceTemplate, extend, select_seed

logger = logging.getLogger("restfuzz.fuzz")
training_logger = logging.getLogger("restfuzz.training")
_TRAINING_LINE = logging.Formatter("%(asctime)s %(message)s")

_FRONTIER_LIMIT = 4096  # memory guard for long BFS runs
_REPORT_FILES = ("collection.jsonl", "training.log", "metrics.json", "errors.jsonl")


class Fuzzer:
    """One fuzzing run against one target."""

    def __init__(self, config: FuzzConfig, grammar: CompiledGrammar):
        self.config = config
        self.grammar = grammar
        self.weighted_selection, self.render_mode = MODES[config.mode]

        # The per-request streams draw from buffered words; the trainer's
        # permutations and list generation keep numpy's Generator.
        seeds = np.random.SeedSequence(config.seed).spawn(4)
        self._rng_select = Draws(seeds[0])
        self._rng_render = Draws(seeds[1])
        self._rng_checker = Draws(seeds[2])
        self._rng_trainer = np.random.default_rng(seeds[3])

        self.metrics = RunMetrics()
        self._report_dir = Path(config.report_dir) if config.report_dir else None
        replay_dir = self._report_dir / "replays" if self._report_dir else None
        self.errors = ErrorReport(grammar, replay_dir)
        # The report files, open (line-buffered) only while ``run`` runs.
        self._collection_log = self._training_log = self._metrics_file = self._errors_file = None
        self.store = CollectionStore(grammar, note=self._note_collection)

        self._weights_dir = self._report_dir / "weights" if config.dump_weights else None
        self.recommender = (
            Recommender(ModelConfig(), self._rng_trainer)
            if self.render_mode is RenderMode.MODEL
            else None
        )
        # The one place a mode picks what rendering draws its param-value
        # lists from; every source is a live mapping, so it is taken once.
        self._lists: Mapping[str, Sequence[PairList]] = {}  # baseline: none
        if self.recommender is not None:
            self._lists = self.recommender.published
        elif self.render_mode is RenderMode.REC1:
            self._lists = self.store.recorded_pairs()
        elif self.render_mode is RenderMode.RECLIST:
            self._lists = self.store.recorded_lists()
        self._trained_through = -1  # index of the last event a returned round saw
        self._train_attempts = 0  # numbers every round in the logs, failed ones too
        self._last_train_time: float | None = None
        self._last_train_requests = 0

        # Weighted strategy: each drawn seed's extensions, computed once.
        self._extensions: dict[SequenceTemplate, list[SequenceTemplate]] = {}
        # BFS state for the classic selection strategy: the round being
        # executed, and the candidates it extended, which seed the next round.
        self._round_queue: deque[SequenceTemplate] = deque()
        self._frontier: list[SequenceTemplate] = []
        self._uaf_plan = uaf_plan(grammar)
        self._replayed: set[ReplayKey] = set()  # the data-driven checker's memo

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
        """Every ``train_every_requests`` requests if set, else every ``train_interval`` s."""
        every = self.config.train_every_requests
        if every is not None:
            return self.metrics.requests_sent - self._last_train_requests >= every
        interval = self.config.train_interval
        return interval is not None and time.monotonic() - self._last_train_time >= interval

    def _maybe_train(self) -> None:
        if self.recommender is None or not self._train_due():
            return
        corpus = self.store.training_corpus(since=self._trained_through)
        self._train_attempts += 1
        label = f"round={self._train_attempts}"
        try:
            result = self.recommender.train_and_publish(
                corpus, label, self._exhausted, self._training_line
            )
            # Only a round that returned has seen its window; a failed
            # round's events stay in the next round's corpus.
            self._trained_through += len(corpus)
            if result is not None:
                self.metrics.train_rounds += 1
                self.metrics.note_first_training()
                if self._weights_dir is not None:
                    self._weights_dir.mkdir(exist_ok=True)
                    path = self._weights_dir / f"round_{self.metrics.train_rounds:03d}.npz"
                    np.savez(path, **result.params.blocks())
        except Exception:
            # A bad round must not end the run: log it, count it, go on.
            self.metrics.train_rounds_failed += 1
            self._training_line(logging.ERROR, f"training round {label} failed", sys.exc_info())
        self._last_train_time = time.monotonic()
        self._last_train_requests = self.metrics.requests_sent

    # -- candidate selection ----------------------------------------------

    def _next_candidate_weighted(self) -> SequenceTemplate | None:
        seeds = self.store.seed_templates()
        seed = select_seed(seeds, self._rng_select) if seeds else ()
        candidates = self._extensions.get(seed)
        if candidates is None:
            candidates = self._extensions[seed] = extend(
                seed, self.grammar, self.config.max_sequence_length
            )
        if candidates:
            return candidates[self._rng_select.integers(len(candidates))]
        # Seed sits at the length cap: re-execute it with fresh values.
        return seed or None

    def _next_candidate_bfs(self) -> SequenceTemplate | None:
        if not self._round_queue:
            limit = self.config.max_sequence_length
            seeds, self._frontier = self._frontier or [()], []
            self._round_queue.extend(
                candidate for seed in seeds for candidate in extend(seed, self.grammar, limit)
            )
            if not self._round_queue:
                # The frontier sits at the length cap: restart the extension
                # process from the empty template.
                self._round_queue.extend(extend((), self.grammar, limit))
            if not self._round_queue:
                return None
        return self._round_queue.popleft()

    def _bfs_note_result(self, candidate: SequenceTemplate, steps: list[ExecutedStep]) -> None:
        """A whole run whose last reply is 2xx extends ``candidate``."""
        if (
            len(steps) == len(candidate)
            and steps[-1].response.klass is ResponseClass.PASS_2XX
            and len(self._frontier) < _FRONTIER_LIMIT
        ):
            self._frontier.append(candidate)

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunMetrics:
        with ExitStack() as files:
            if self._report_dir is not None:
                self._report_dir.mkdir(parents=True, exist_ok=True)
                (self._collection_log, self._training_log,
                 self._metrics_file, self._errors_file) = (
                    files.enter_context(open(self._report_dir / name, "w",
                                             encoding="utf-8", buffering=1))
                    for name in _REPORT_FILES
                )
            self._started = time.monotonic()
            client = HttpClient(self.config.target, auth_token=self.config.auth_token)
            try:
                client.check_reachable()
                self._last_train_time = time.monotonic()
                self._loop(client)
            finally:
                client.close()
                self.metrics.wall_time = time.monotonic() - self._started
                self.metrics.unique_errors = len(self.errors)
                self._write_reports()
        return self.metrics

    def _loop(self, client: HttpClient) -> None:
        observe = self.metrics.observe
        while not self._exhausted():
            self.metrics.iterations += 1
            self._maybe_train()

            candidate = (
                self._next_candidate_weighted()
                if self.weighted_selection
                else self._next_candidate_bfs()
            )
            if candidate is None:
                logger.warning("nothing satisfiable to execute; stopping")
                return

            steps = execute_candidate(
                candidate,
                self.grammar,
                self._lists,
                self.render_mode,
                self._rng_render,
                client,
                store=self.store,
                observe=observe,
                should_stop=self._exhausted,
            )
            self.metrics.note_executed_length(len(steps))
            whole = len(steps) == len(candidate)
            if not self.weighted_selection:
                self._bfs_note_result(candidate, steps)
            if whole:
                self.store.admit_sequence(candidate, [step.response.klass for step in steps])

            for position, step in enumerate(steps):
                if step.response.klass is ResponseClass.ERROR_5XX:
                    self._report(KIND_RESPONSE_5XX, steps[: position + 1])

            # The replay re-sends every executed step, so it runs only whole.
            if self.config.enable_datadriven_checker and whole and self._fits(len(steps)):
                undefined = self.store.undefined_pairs_for(steps[-1].template_id)
                self._report(KIND_INCORRECT_PARAM_USAGE, datadriven_check(
                    steps, undefined, self.grammar, self._rng_checker, client,
                    self._replayed, observe,
                ))
            if self.config.enable_uaf_checker and not self._exhausted():
                self._report(KIND_USE_AFTER_FREE, use_after_free_check(
                    self._uaf_plan, client, observe, should_stop=self._exhausted
                ))

    def _report(self, kind: str, steps: list[ExecutedStep] | None) -> None:
        """File a finding, the steps sent with the offending reply last; ``None`` is none."""
        if steps is not None:
            self.errors.bucket_error(
                steps, kind, self.metrics.iterations, self.metrics.requests_sent
            )

    def _note_collection(self, event: dict) -> None:
        """Write a new pair or seed the store reports, stamped with the iteration."""
        if self._collection_log is not None:
            event["iteration"] = self.metrics.iterations
            self._collection_log.write(json.dumps(event, sort_keys=True) + "\n")

    def _training_line(self, level: int, line: str, exc_info=None) -> None:
        """Write a training line to ``training.log`` and echo it to the training logger."""
        record = training_logger.makeRecord(training_logger.name, level, __file__, 0, line,
                                            None, exc_info)
        if self._training_log is not None:
            self._training_log.write(_TRAINING_LINE.format(record) + "\n")
        if training_logger.isEnabledFor(level):
            training_logger.handle(record)

    def _write_reports(self) -> None:
        if self._report_dir is None:
            return
        json.dump(self.metrics.to_json(), self._metrics_file, indent=2)
        self.errors.write_jsonl(self._errors_file)


def fuzz_loop(config: FuzzConfig, grammar: CompiledGrammar) -> RunMetrics:
    """Run one configured fuzzing session and return its metrics."""
    return Fuzzer(config, grammar).run()
