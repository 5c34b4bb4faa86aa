"""Train the next-pair model on collected mutations and publish value lists.

Each training round rebuilds the vocabulary from the corpus window and
trains fresh weights from scratch, then samples param-value lists per
request template.  Rounds run inline on the fuzz loop's thread.  Published
lists accumulate across rounds in a snapshot, keyed by template, that each
publish replaces, so a mapping the rendering side holds never changes
under it.  A list is a plain :data:`~restfuzz.collection.PairList`.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import model
from .collection import PairList, ParamValuePair
from .grammar import CompiledGrammar

logger = logging.getLogger("restfuzz.training")

TERMINATOR_ID = 0

Corpus = Sequence[tuple[str, Sequence[ParamValuePair]]]
StopCheck = Callable[[], bool]


class EmptyCorpus(Exception):
    """No training data; the caller skips this training iteration."""


class RoundCut(Exception):
    """``should_stop`` answered true at an epoch boundary; the round is dropped."""


class UnknownTemplate(Exception):
    """The vocabulary has no name token for the requested template."""


class ForeignPair(Exception):
    """A param-value list names a parameter the template does not define."""


@dataclass(frozen=True)
class Vocabulary:
    """Token table: terminator, request-name tokens, template-scoped pairs.

    Pair tokens are scoped to their template so generation can mask out
    every pair belonging to a different template.  Id 0 is the terminator;
    ordering is lexicographic for reproducibility.  ``pairs_by_template``
    maps each template, in name-token order, to its pair tokens in token
    order.
    """

    keys: tuple[tuple, ...]
    index: dict[tuple, int]
    pairs_by_template: dict[str, list[int]]

    @property
    def size(self) -> int:
        return len(self.keys)

    def name_token(self, template_id: str) -> int | None:
        return self.index.get(("name", template_id))

    def template_ids(self) -> list[str]:
        return list(self.pairs_by_template)

    def pair_tokens_for(self, template_id: str) -> list[int]:
        return list(self.pairs_by_template.get(template_id, ()))

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
    by_template: dict[str, list[int]] = {name: [] for name in names}
    for token, key in enumerate(pair_keys, start=1 + len(names)):
        by_template[key[1]].append(token)
    return Vocabulary(
        tuple(keys), {key: token for token, key in enumerate(keys)}, by_template
    )


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


def _pad(examples: Sequence[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Examples as one (N, T) array padded with the terminator, and their lengths."""
    lengths = np.array([len(example) for example in examples], dtype=np.intp)
    tokens = np.full((len(examples), int(lengths.max())), TERMINATOR_ID, dtype=np.intp)
    for row, example in zip(tokens, examples):
        row[: len(example)] = example
    return tokens, lengths


def _length_weights(lengths: np.ndarray) -> np.ndarray:
    """Per-prediction weights (B, T-1) for a padded batch of these lengths.

    Each prediction weighs ``n_batch / n_group``, where ``n_group`` counts
    the predictions of its example's length in the batch; padding weighs 0.
    A step of ``lr / n_batch`` on the weighted gradient is then the sum of
    one ``lr / n_group`` step per length, all taken at the same parameters.
    With one length in the batch every weight is exactly 1.
    """
    predictions = lengths - 1
    n_batch = int(predictions.sum())
    row_weights = n_batch / (predictions * np.bincount(predictions)[predictions])
    valid = np.arange(int(predictions.max())) < predictions[:, None]
    return np.where(valid, row_weights[:, None], 0.0)


def _accuracy(
    params: model.ModelParams, padded: tuple[np.ndarray, np.ndarray] | None
) -> float | None:
    """Top-1 next-token accuracy over every position of ``_pad``'s output, one pass.

    ``None`` stands for an empty validation set.
    """
    if padded is None:
        return None
    tokens, lengths = padded
    predicted = model.predict(params, tokens[:, :-1])
    valid = np.arange(predicted.shape[1]) < (lengths - 1)[:, None]
    hits = np.count_nonzero((predicted == tokens[:, 1:]) & valid)
    return int(hits) / int(np.count_nonzero(valid))


def train(
    corpus: Corpus,
    config: ModelConfig,
    rng: np.random.Generator,
    label: str = "",
    should_stop: StopCheck | None = None,
) -> TrainResult:
    """Train fresh weights on the corpus; returns weights plus statistics.

    Mini-batch gradient descent on next-token cross-entropy: one padded,
    length-weighted kernel call per minibatch (see :func:`_length_weights`).
    The validation accuracy is measured after every epoch and logged at INFO
    with the epoch's mean cross-entropy per prediction.
    Every call re-initializes from scratch: no weight reuse between rounds.
    ``should_stop`` is asked before each epoch; once it answers true the
    round raises :class:`RoundCut`.
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
    padded, lengths = _pad(train_set)
    val_padded = _pad(val_set) if val_set else None
    logger.info(
        "%s n_train=%d n_val=%d vocab=%d val_predictions=%d",
        label or "train", len(train_set), len(val_set), vocab.size,
        sum(len(example) - 1 for example in val_set),
    )
    for epoch in range(config.epochs):
        if should_stop is not None and should_stop():
            logger.warning("%s cut before epoch=%d of %d", label or "train",
                           epoch + 1, config.epochs)
            raise RoundCut(label)
        order = rng.permutation(len(train_set))
        total_loss = 0.0
        total_predictions = 0
        for start in range(0, len(order), config.batch_size):
            rows = order[start : start + config.batch_size]
            weights = _length_weights(lengths[rows])
            tokens = padded[rows, : weights.shape[1] + 1]
            cross_entropy = np.empty(weights.shape)
            _, grads, n_predictions = model.batch_loss_and_grads(
                params, tokens, weights, cross_entropy
            )
            model.apply_gradients(params, grads, config.learning_rate / n_predictions)
            total_loss += float(np.sum(cross_entropy[weights > 0]))
            total_predictions += n_predictions
        mean_loss = total_loss / max(total_predictions, 1)
        epoch_losses.append(mean_loss)
        val_accuracy = _accuracy(params, val_padded)
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
) -> list[PairList]:
    """Sample up to ``k`` param-value lists for one template.

    Tokens are drawn from the softmax distribution restricted to the
    terminator, the template's own pair tokens, and parameters not already
    used in the list under construction.  Generation stops at the
    terminator or at ``max_len`` pairs.  Duplicates are removed.  The
    allowed tokens and their distribution depend only on the prefix, so
    each distinct prefix runs through the model once per call.
    """
    name_token = vocab.name_token(template_id)
    if name_token is None:
        raise UnknownTemplate(template_id)
    own_pairs = [
        (token, vocab.pair_at(token)) for token in vocab.pair_tokens_for(template_id)
    ]

    # prefix -> (allowed tokens, cumulative sum of their renormalized probabilities)
    draws: dict[tuple[int, ...], tuple[list[int], np.ndarray]] = {}
    results: list[PairList] = []
    seen: set[PairList] = set()
    for _ in range(k):
        prefix: tuple[int, ...] = (name_token,)
        pairs: list[ParamValuePair] = []
        used_params: set[str] = set()
        while len(pairs) < max_len:
            draw = draws.get(prefix)
            if draw is None:
                allowed = [TERMINATOR_ID] + [
                    token for token, pair in own_pairs if pair.param_name not in used_params
                ]
                masked = model.forward(params, prefix)[allowed]
                draw = draws[prefix] = (allowed, np.cumsum(masked / masked.sum()))
            allowed, cumulative = draw
            index = int(np.searchsorted(cumulative, rng.random()))
            token = allowed[min(index, len(allowed) - 1)]  # cumsum may end below 1
            if token == TERMINATOR_ID:
                break
            pair = vocab.pair_at(token)
            pairs.append(pair)
            used_params.add(pair.param_name)
            prefix += (token,)
        key = tuple(pairs)
        if key not in seen:
            seen.add(key)
            results.append(key)
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
        self._snapshot: dict[str, tuple[PairList, ...]] = {}
        self.rounds = 0

    def snapshot(self) -> dict[str, tuple[PairList, ...]]:
        """The current published mapping; ``publish`` replaces it, never edits it."""
        return self._snapshot

    def publish(self, lists: Mapping[str, Sequence[PairList]]) -> None:
        """Merge new lists, keyed by template, into a copy of the snapshot and replace it.

        Lists are validated against the grammar (no foreign pairs), deduped
        against what is already published, and capped per template with the
        oldest entries evicted first.  A foreign pair anywhere raises
        :class:`ForeignPair` and leaves the snapshot as it was.
        """
        updated = dict(self._snapshot)
        for template_id, new_lists in lists.items():
            defaults = self._grammar.templates[template_id].defaults()
            foreign = {name for pairs in new_lists for name, _ in pairs} - defaults.keys()
            if foreign:
                raise ForeignPair(f"{template_id}: {sorted(foreign)} are not defined "
                                  "non-consumer parameters")
            merged = list(updated.get(template_id, ()))
            known = set(merged)
            for pairs in new_lists:
                if pairs not in known:
                    known.add(pairs)
                    merged.append(pairs)
            overflow = len(merged) - self._config.per_template_cap
            if overflow > 0:
                merged = merged[overflow:]
            updated[template_id] = tuple(merged)
        self._snapshot = updated

    def train_and_publish(
        self, corpus: Corpus, label: str = "", should_stop: StopCheck | None = None
    ) -> TrainResult | None:
        """One full round: train, sample lists per template, publish.

        Returns ``None`` and publishes nothing on an empty corpus or when
        ``should_stop`` cuts the round.
        """
        try:
            result = train(corpus, self._config, self._rng, label, should_stop)
        except (EmptyCorpus, RoundCut):
            return None
        result.params.version = self.rounds + 1
        if self._dump_dir is not None:
            model.save_params(
                result.params,
                Path(self._dump_dir) / f"round_{result.params.version:03d}",
            )
        self.publish({
            template_id: generate_lists(
                result.params,
                result.vocab,
                template_id,
                self._config.lists_per_template,
                self._rng,
                result.max_len,
            )
            for template_id in result.vocab.template_ids()
        })
        self.rounds += 1
        return result

