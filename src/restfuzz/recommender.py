"""Train the next-pair model on collected mutations and publish value lists.

Each training round rebuilds the vocabulary from the corpus window and
trains fresh weights from scratch, then samples param-value lists per
request template.  Published lists accumulate across rounds in an
atomically swapped snapshot that the rendering side reads without locking
concerns.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import model
from .collection import ParamValuePair
from .grammar import CompiledGrammar
from .rendering import ParamValueList

logger = logging.getLogger("restfuzz.training")

TERMINATOR_ID = 0

Corpus = list[tuple[str, list[ParamValuePair]]]


class EmptyCorpus(Exception):
    """No training data; the caller skips this training iteration."""


class UnknownTemplate(Exception):
    """The vocabulary has no name token for the requested template."""


@dataclass(frozen=True)
class Vocabulary:
    """Token table: terminator, request-name tokens, template-scoped pairs.

    Pair tokens are scoped to their template so generation can mask out
    every pair belonging to a different template.  Id 0 is the terminator;
    ordering is lexicographic for reproducibility.
    """

    keys: tuple[tuple, ...]
    index: dict[tuple, int]

    @property
    def size(self) -> int:
        return len(self.keys)

    def name_token(self, template_id: str) -> int | None:
        return self.index.get(("name", template_id))

    def template_ids(self) -> list[str]:
        return [key[1] for key in self.keys if key[0] == "name"]

    def pair_tokens_for(self, template_id: str) -> list[int]:
        return [
            token
            for token, key in enumerate(self.keys)
            if key[0] == "pair" and key[1] == template_id
        ]

    def pair_at(self, token: int) -> ParamValuePair:
        key = self.keys[token]
        if key[0] != "pair":
            raise ValueError(f"token {token} is not a pair token")
        return ParamValuePair(key[2], key[3])

    def encode(self, template_id: str, pairs: Sequence[ParamValuePair]) -> list[int]:
        tokens = [self.index[("name", template_id)]]
        tokens.extend(
            self.index[("pair", template_id, pair.param_name, pair.value)]
            for pair in pairs
        )
        tokens.append(TERMINATOR_ID)
        return tokens


def build_vocab(corpus: Corpus) -> Vocabulary:
    names = sorted({template_id for template_id, _ in corpus})
    pair_keys = sorted(
        {
            ("pair", template_id, pair.param_name, pair.value)
            for template_id, pairs in corpus
            for pair in pairs
        }
    )
    keys: list[tuple] = [("end",)]
    keys.extend(("name", name) for name in names)
    keys.extend(pair_keys)
    return Vocabulary(tuple(keys), {key: token for token, key in enumerate(keys)})


def split_corpus(
    examples: Sequence, rng: np.random.Generator, ratio: float
) -> tuple[list, list]:
    """Random disjoint train/validation split with sizes within 1 of ratio."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    if not examples:
        return [], []
    order = rng.permutation(len(examples))
    n_train = int(round(ratio * len(examples)))
    train = [examples[i] for i in order[:n_train]]
    val = [examples[i] for i in order[n_train:]]
    return train, val


@dataclass
class ModelConfig:
    embed_dim: int = 18
    hidden_dim: int = 36
    epochs: int = 27
    batch_size: int = 32
    learning_rate: float = 0.5
    train_ratio: float = 0.8
    lists_per_template: int = 32
    per_template_cap: int = 64
    init_scale: float = 0.08
    max_examples: int | None = 4000  # desk-scale cap on one round's corpus


@dataclass
class TrainResult:
    params: model.ModelParams
    vocab: Vocabulary
    val_accuracy: float | None
    epoch_losses: list[float]
    max_len: int
    n_train: int
    n_val: int


def _length_batches(examples: list[list[int]], order: np.ndarray, batch_size: int):
    """Yield same-length (B, T) arrays covering ``order`` in batches."""
    for start in range(0, len(order), batch_size):
        chunk = [examples[i] for i in order[start : start + batch_size]]
        by_length: dict[int, list[list[int]]] = {}
        for example in chunk:
            by_length.setdefault(len(example), []).append(example)
        for group in by_length.values():
            yield np.asarray(group, dtype=np.intp)


def _accuracy(params: model.ModelParams, examples: list[list[int]]) -> float | None:
    """Top-1 next-token accuracy over every position, one pass per length."""
    if not examples:
        return None
    hits = 0
    total = 0
    for tokens in _length_batches(examples, np.arange(len(examples)), len(examples)):
        predicted = model.predict(params, tokens[:, :-1])
        hits += int(np.count_nonzero(predicted == tokens[:, 1:]))
        total += predicted.size
    return hits / total


def train(
    corpus: Corpus,
    config: ModelConfig,
    rng: np.random.Generator,
    label: str = "",
) -> TrainResult:
    """Train fresh weights on the corpus; returns weights plus statistics.

    Mini-batch gradient descent on next-token cross-entropy, with the
    validation accuracy measured after every epoch and logged at INFO.
    Every call re-initializes from scratch: no weight reuse between rounds.
    """
    if not corpus:
        raise EmptyCorpus("no training examples")
    started = time.perf_counter()

    window = corpus
    if config.max_examples is not None and len(window) > config.max_examples:
        window = window[-config.max_examples :]

    vocab = build_vocab(window)
    examples = [vocab.encode(template_id, pairs) for template_id, pairs in window]
    longest_pairs = max(len(example) - 2 for example in examples)
    max_len = 2 * longest_pairs + 2

    train_set, val_set = split_corpus(examples, rng, config.train_ratio)
    if not train_set:
        train_set, val_set = val_set, train_set

    params = model.init_params(
        vocab.size, config.embed_dim, config.hidden_dim, rng, config.init_scale
    )
    epoch_losses: list[float] = []
    val_accuracy: float | None = None
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_set))
        total_loss = 0.0
        total_predictions = 0
        for tokens in _length_batches(train_set, order, config.batch_size):
            loss, grads, n_predictions = model.batch_loss_and_grads(params, tokens)
            model.apply_gradients(params, grads, config.learning_rate / n_predictions)
            total_loss += loss
            total_predictions += n_predictions
        mean_loss = total_loss / max(total_predictions, 1)
        epoch_losses.append(mean_loss)
        val_accuracy = _accuracy(params, val_set)
        logger.info(
            "%s epoch=%d loss=%.4f val_acc=%s wall=%.2fs",
            label or "train", epoch + 1, mean_loss,
            "n/a" if val_accuracy is None else f"{val_accuracy:.3f}",
            time.perf_counter() - started,
        )

    return TrainResult(
        params=params,
        vocab=vocab,
        val_accuracy=val_accuracy,
        epoch_losses=epoch_losses,
        max_len=max_len,
        n_train=len(train_set),
        n_val=len(val_set),
    )


def generate_lists(
    params: model.ModelParams,
    vocab: Vocabulary,
    template_id: str,
    k: int,
    rng: np.random.Generator,
    max_len: int,
) -> list[ParamValueList]:
    """Sample up to ``k`` param-value lists for one template.

    Tokens are drawn from the softmax distribution restricted to the
    terminator, the template's own pair tokens, and parameters not already
    used in the list under construction.  Generation stops at the
    terminator or at ``max_len`` pairs.  Duplicates are removed.
    """
    name_token = vocab.name_token(template_id)
    if name_token is None:
        raise UnknownTemplate(template_id)
    own_pairs = vocab.pair_tokens_for(template_id)

    results: list[ParamValueList] = []
    seen: set[tuple[ParamValuePair, ...]] = set()
    for _ in range(k):
        prefix = [name_token]
        pairs: list[ParamValuePair] = []
        used_params: set[str] = set()
        while len(pairs) < max_len:
            allowed = [TERMINATOR_ID] + [
                token
                for token in own_pairs
                if vocab.pair_at(token).param_name not in used_params
            ]
            probs = model.forward(params, prefix)
            masked = probs[allowed]
            masked = masked / masked.sum()
            index = int(np.searchsorted(np.cumsum(masked), rng.random()))
            token = allowed[min(index, len(allowed) - 1)]  # cumsum may end below 1
            if token == TERMINATOR_ID:
                break
            pair = vocab.pair_at(token)
            pairs.append(pair)
            used_params.add(pair.param_name)
            prefix.append(token)
        key = tuple(pairs)
        if key not in seen:
            seen.add(key)
            results.append(ParamValueList(template_id, key))
    return results


class Recommender:
    """Owns the published list snapshot and the train-generate cycle."""

    def __init__(
        self,
        grammar: CompiledGrammar,
        config: ModelConfig,
        rng: np.random.Generator,
        dump_dir=None,
    ):
        self._grammar = grammar
        self._config = config
        self._rng = rng
        self._dump_dir = dump_dir
        self._lock = threading.Lock()
        self._snapshot: dict[str, tuple[ParamValueList, ...]] = {}
        self.rounds = 0

    def snapshot(self) -> dict[str, tuple[ParamValueList, ...]]:
        """The current published mapping; contents are immutable."""
        return self._snapshot

    def publish(self, lists: Iterable[ParamValueList]) -> None:
        """Merge new lists into the snapshot and swap it atomically.

        Lists are validated against the grammar (no foreign pairs), deduped
        against what is already published, and capped per template with the
        oldest entries evicted first.
        """
        incoming: dict[str, list[ParamValueList]] = {}
        for plist in lists:
            plist.validate_against(self._grammar.templates[plist.template_id])
            incoming.setdefault(plist.template_id, []).append(plist)
        with self._lock:
            updated = dict(self._snapshot)
            for template_id, new_lists in incoming.items():
                merged = list(updated.get(template_id, ()))
                known = {plist.pairs for plist in merged}
                for plist in new_lists:
                    if plist.pairs not in known:
                        known.add(plist.pairs)
                        merged.append(plist)
                overflow = len(merged) - self._config.per_template_cap
                if overflow > 0:
                    merged = merged[overflow:]
                updated[template_id] = tuple(merged)
            self._snapshot = updated

    def train_and_publish(self, corpus: Corpus, label: str = "") -> TrainResult | None:
        """One full round: train, sample lists per template, publish.

        Returns ``None`` on an empty corpus (the round is skipped).
        """
        try:
            result = train(corpus, self._config, self._rng, label=label)
        except EmptyCorpus:
            return None
        result.params.version = self.rounds + 1
        if self._dump_dir is not None:
            model.save_params(
                result.params,
                Path(self._dump_dir) / f"round_{result.params.version:03d}",
            )
        generated: list[ParamValueList] = []
        for template_id in result.vocab.template_ids():
            generated.extend(
                generate_lists(
                    result.params,
                    result.vocab,
                    template_id,
                    self._config.lists_per_template,
                    self._rng,
                    result.max_len,
                )
            )
        self.publish(generated)
        self.rounds += 1
        return result


class TrainerWorker:
    """Background thread running training rounds off the fuzz loop.

    A round that raises is logged and counted in ``rounds_failed``, and the
    worker keeps serving, so a bad round never silently ends training for
    the rest of the run.
    """

    def __init__(self, recommender: Recommender):
        self._recommender = recommender
        self.rounds_failed = 0
        self._queue: queue.Queue = queue.Queue(maxsize=1)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            corpus, label = job
            try:
                self._recommender.train_and_publish(corpus, label=label)
            except Exception:
                self.rounds_failed += 1
                logger.exception("training round %s failed", label)

    def submit(self, corpus: Corpus, label: str = "") -> bool:
        """Hand a corpus snapshot to the worker; False when it is busy."""
        try:
            self._queue.put_nowait((corpus, label))
            return True
        except queue.Full:
            return False

    def stop(self, timeout: float = 30.0) -> None:
        """Ask the worker to finish; returns within about ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        try:
            self._queue.put(None, timeout=timeout)
        except queue.Full:
            return  # still busy with a queued round; the daemon thread is abandoned
        self._thread.join(timeout=max(deadline - time.monotonic(), 0.0))
