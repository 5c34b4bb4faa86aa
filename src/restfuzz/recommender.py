"""Train the next-pair model on collected mutations and publish value lists.

Each training round rebuilds the vocabulary from the corpus window and
trains fresh weights from scratch, then samples param-value lists per
request template.  Rounds run inline on the fuzz loop's thread and write
no file: a round's weights are its result's arrays, and its progress lines
go to the caller's ``log``.  Published
lists accumulate across rounds in one mapping, keyed by template, that each
publish updates in place, so the rendering side holds it once and sees every
round's lists.  A list is a plain :data:`~restfuzz.collection.PairList`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from logging import INFO, WARNING
from typing import Callable, Mapping, Sequence

import numpy as np

from . import model
from .collection import PairList, ParamValuePair

TERMINATOR_ID = 0

Corpus = Sequence[tuple[str, Sequence[ParamValuePair]]]
StopCheck = Callable[[], bool]
TrainLog = Callable[[int, str], None]  # (logging level, line)


class EmptyCorpus(Exception):
    """No training data; the caller skips this training iteration."""


class RoundCut(Exception):
    """``should_stop`` answered true at an epoch boundary; the round is dropped."""


@dataclass(frozen=True)
class Vocabulary:
    """Token table: terminator, request-name tokens, template-scoped pairs.

    Id 0 is the terminator, then one name token per template in sorted
    order, then one token per (template, pair) in sorted order.  ``names``
    maps each template to its name token and ``pairs`` maps it to its own
    pairs' tokens; both iterate in token order.  Pair tokens are scoped to
    their template so generation can mask out every pair belonging to a
    different template.
    """

    names: dict[str, int]
    pairs: dict[str, dict[ParamValuePair, int]]

    @property
    def size(self) -> int:
        return 1 + len(self.names) + sum(len(own) for own in self.pairs.values())

    def encode(self, template_id: str, pairs: Sequence[ParamValuePair]) -> list[int]:
        own = self.pairs[template_id]
        return [self.names[template_id], *(own[pair] for pair in pairs), TERMINATOR_ID]


def build_vocab(corpus: Corpus) -> Vocabulary:
    templates = sorted({template_id for template_id, _ in corpus})
    names = {template_id: token for token, template_id in enumerate(templates, start=1)}
    pairs: dict[str, dict[ParamValuePair, int]] = {template_id: {} for template_id in names}
    scoped = sorted({(template_id, pair) for template_id, own in corpus for pair in own})
    for token, (template_id, pair) in enumerate(scoped, start=1 + len(names)):
        pairs[template_id][pair] = token
    return Vocabulary(names, pairs)


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
    val_loss: float | None
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
) -> tuple[float, float] | tuple[None, None]:
    """Top-1 next-token accuracy and mean cross-entropy per prediction over
    every position of ``_pad``'s output, from one model pass.

    ``(None, None)`` stands for an empty validation set.
    """
    if padded is None:
        return None, None
    tokens, lengths = padded
    targets = tokens[:, 1:]
    probs = model.next_token_probs(params, tokens[:, :-1])
    valid = np.arange(targets.shape[1]) < (lengths - 1)[:, None]
    picked = np.take_along_axis(probs, targets[:, :, None], axis=2)[:, :, 0]
    n_valid = int(np.count_nonzero(valid))
    hits = int(np.count_nonzero((np.argmax(probs, axis=2) == targets) & valid))
    return hits / n_valid, -float(np.log(picked[valid] + 1e-300).sum()) / n_valid


def train(
    corpus: Corpus,
    config: ModelConfig,
    rng: np.random.Generator,
    label: str = "",
    should_stop: StopCheck | None = None,
    log: TrainLog | None = None,
) -> TrainResult:
    """Train fresh weights on the corpus; returns weights plus statistics.

    Mini-batch gradient descent on next-token cross-entropy: one padded,
    length-weighted kernel call per minibatch (see :func:`_length_weights`).
    The validation accuracy and cross-entropy are measured after every
    epoch; ``log`` gets the round's size, then one INFO line per epoch with
    them and the epoch's mean training cross-entropy per prediction.
    Every call re-initializes from scratch: no weight reuse between rounds.
    ``should_stop`` is asked before each epoch; once it answers true the
    round logs a WARNING line and raises :class:`RoundCut`.
    """
    if not corpus:
        raise EmptyCorpus("no training examples")
    started = time.perf_counter()
    log = log or (lambda level, line: None)
    name = label or "train"

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
    val_accuracy = val_loss = None
    padded, lengths = _pad(train_set)
    val_padded = _pad(val_set) if val_set else None
    log(INFO, f"{name} n_train={len(train_set)} n_val={len(val_set)} vocab={vocab.size} "
              f"val_predictions={sum(len(example) - 1 for example in val_set)}")
    for epoch in range(config.epochs):
        if should_stop is not None and should_stop():
            log(WARNING, f"{name} cut before epoch={epoch + 1} of {config.epochs}")
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
            total_loss += float(cross_entropy[weights > 0].sum())
            total_predictions += n_predictions
        mean_loss = total_loss / max(total_predictions, 1)
        epoch_losses.append(mean_loss)
        val_accuracy, val_loss = _accuracy(params, val_padded)
        accuracy_text = "n/a" if val_accuracy is None else f"{val_accuracy:.3f}"
        loss_text = "n/a" if val_loss is None else f"{val_loss:.4f}"
        log(INFO, f"{name} epoch={epoch + 1} loss={mean_loss:.4f} val_acc={accuracy_text} "
                  f"val_loss={loss_text} wall={time.perf_counter() - started:.2f}s")

    return TrainResult(
        params=params,
        vocab=vocab,
        val_accuracy=val_accuracy,
        val_loss=val_loss,
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
    each distinct prefix runs through the model once per call.  A template
    with no name token raises ``KeyError``.
    """
    name_token = vocab.names[template_id]
    own_pairs = {token: pair for pair, token in vocab.pairs[template_id].items()}

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
                    token for token, pair in own_pairs.items()
                    if pair.param_name not in used_params
                ]
                masked = model.forward(params, prefix)[allowed]
                draw = draws[prefix] = (allowed, np.cumsum(masked / masked.sum()))
            allowed, cumulative = draw
            index = int(np.searchsorted(cumulative, rng.random()))
            token = allowed[min(index, len(allowed) - 1)]  # cumsum may end below 1
            if token == TERMINATOR_ID:
                break
            pair = own_pairs[token]
            pairs.append(pair)
            used_params.add(pair.param_name)
            prefix += (token,)
        key = tuple(pairs)
        if key not in seen:
            seen.add(key)
            results.append(key)
    return results


class Recommender:
    """Owns the published lists and the train-generate cycle."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self._config = config
        self._rng = rng
        # Template id -> published lists; ``publish`` updates it in place.
        self.published: dict[str, tuple[PairList, ...]] = {}

    def publish(self, lists: Mapping[str, Sequence[PairList]]) -> None:
        """Merge new lists, keyed by template, into the published mapping.

        Lists are deduped against what is already published and capped per
        template with the oldest entries evicted first.  They are not checked
        against the grammar: the store records only a template's own
        non-consumer parameters, and :func:`generate_lists` draws only the
        template's own pair tokens.
        """
        for template_id, new_lists in lists.items():
            merged = list(self.published.get(template_id, ()))
            known = set(merged)
            for pairs in new_lists:
                if pairs not in known:
                    known.add(pairs)
                    merged.append(pairs)
            overflow = len(merged) - self._config.per_template_cap
            if overflow > 0:
                merged = merged[overflow:]
            self.published[template_id] = tuple(merged)

    def train_and_publish(
        self, corpus: Corpus, label: str = "", should_stop: StopCheck | None = None,
        log: TrainLog | None = None,
    ) -> TrainResult | None:
        """One full round: train, sample lists per template, publish.

        Returns ``None`` and publishes nothing on an empty corpus or when
        ``should_stop`` cuts the round.  ``log`` gets :func:`train`'s lines.
        """
        try:
            result = train(corpus, self._config, self._rng, label, should_stop, log)
        except (EmptyCorpus, RoundCut):
            return None
        self.publish({
            template_id: generate_lists(
                result.params,
                result.vocab,
                template_id,
                self._config.lists_per_template,
                self._rng,
                result.max_len,
            )
            for template_id in result.vocab.names
        })
        return result

