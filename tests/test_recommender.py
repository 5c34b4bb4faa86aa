from __future__ import annotations

import hashlib
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restfuzz import model
from restfuzz.collection import ParamValuePair
from restfuzz.grammar import parse_spec
from restfuzz.recommender import (
    TERMINATOR_ID,
    ModelConfig,
    Recommender,
    _accuracy,
    _length_weights,
    _pad,
    build_vocab,
    generate_lists,
    split_corpus,
    train,
)
from restfuzz.recommender import EmptyCorpus, RoundCut

from conftest import build_spec, groups_paths


@pytest.fixture
def rng():
    """The trainer keeps numpy's Generator: permutations, initial weights and list generation."""
    return np.random.default_rng(12345)


GET_ID = "GET /groups/{id}"
CORPORA = Path(__file__).parent / "data" / "miner_bugs_corpora.json"


def mixed_corpus(n_examples):
    """Four templates, 1-5 pairs per example: lengths 3-7 mix in every minibatch."""
    return [
        (f"GET /mixed{i % 4}",
         [ParamValuePair(f"p{i % 4}_{j}", f"v{(i + j) % 3}")
          for j in range(1 + (7 * i) % 5)])
        for i in range(n_examples)
    ]


def chain_corpus(n_examples=2000, n_templates=5, chain_len=4):
    """Each template always uses the same fixed chain of pairs."""
    corpus = []
    for i in range(n_examples):
        t = i % n_templates
        corpus.append((
            f"GET /things{t}",
            [ParamValuePair(f"p{t}_{j}", f"v{t}_{j}") for j in range(chain_len)],
        ))
    return corpus


class TestBuildVocab:
    def test_counts_name_pair_and_terminator(self):
        vocab = build_vocab([(GET_ID, [ParamValuePair("with_projects", "false")])])
        assert vocab.size == 3

    def test_empty_corpus_has_only_terminator(self):
        assert build_vocab([]).size == 1

    def test_pairs_are_template_scoped(self):
        pair = ParamValuePair("per_page", "0")
        vocab = build_vocab([("GET /a", [pair]), ("GET /b", [pair])])
        # terminator + 2 names + 2 scoped pair tokens
        assert vocab.size == 5
        assert vocab.pairs["GET /a"][pair] != vocab.pairs["GET /b"][pair]

    def test_terminator_id_is_zero_and_encoding_round_trips(self):
        pairs = [ParamValuePair("a", "1"), ParamValuePair("b", "2")]
        vocab = build_vocab([(GET_ID, pairs)])
        tokens = vocab.encode(GET_ID, pairs)
        assert tokens[0] == vocab.names[GET_ID]
        assert tokens[-1] == 0
        assert tokens[1:-1] == [vocab.pairs[GET_ID][pair] for pair in pairs]

    def test_tokens_equal_the_sorted_tagged_key_numbering(self):
        shared = ParamValuePair("per_page", "0")
        corpus = mixed_corpus(40) + [
            ("GET /bare", []), ("GET /a", [shared]), ("GET /b", [shared]),
        ]
        vocab = build_vocab(corpus)
        keys = tagged_keys(corpus)
        assert vocab.size == len(keys)
        assert list(vocab.names.items()) == [
            (key[1], token) for token, key in enumerate(keys) if key[0] == "name"
        ]
        assert list(vocab.pairs) == list(vocab.names)
        for template_id, own in vocab.pairs.items():
            assert list(own.items()) == [
                (ParamValuePair(key[2], key[3]), token)
                for token, key in enumerate(keys)
                if key[0] == "pair" and key[1] == template_id
            ]
        assert vocab.pairs["GET /bare"] == {}


def tagged_keys(corpus):
    """The sorted tagged-key numbering ``build_vocab`` replaced: key ``i`` is
    token ``i``, as ``("end",)``, ``("name", template)`` or ``("pair",
    template, param, value)``."""
    names = sorted({template_id for template_id, _ in corpus})
    pair_keys = sorted(
        {
            ("pair", template_id, pair.param_name, pair.value)
            for template_id, pairs in corpus
            for pair in pairs
        }
    )
    return [("end",), *(("name", name) for name in names), *pair_keys]


class TestSplitCorpus:
    def test_ratio_split(self, rng):
        train_set, val_set = split_corpus(list(range(10)), rng, 0.8)
        assert len(train_set) == 8 and len(val_set) == 2
        assert sorted(train_set + val_set) == list(range(10))

    def test_single_example_goes_to_training(self, rng):
        train_set, val_set = split_corpus([42], rng, 0.8)
        assert train_set == [42] and val_set == []

    def test_empty_corpus_splits_empty(self, rng):
        assert split_corpus([], rng, 0.8) == ([], [])

    def test_deterministic_under_rng(self):
        a = split_corpus(list(range(20)), np.random.default_rng(1), 0.8)
        b = split_corpus(list(range(20)), np.random.default_rng(1), 0.8)
        assert a == b


class TestTrain:
    def test_empty_corpus_raises(self, rng):
        with pytest.raises(EmptyCorpus):
            train([], ModelConfig(), rng)

    def test_should_stop_is_asked_before_the_first_epoch(self, rng):
        with pytest.raises(RoundCut):
            train(chain_corpus(20), ModelConfig(), rng, should_stop=lambda: True)

    def test_learns_deterministic_chains(self, rng):
        result = train(chain_corpus(400), ModelConfig(max_examples=None), rng)
        assert result.val_accuracy is not None and result.val_accuracy >= 0.95
        assert result.max_len == 2 * 4 + 2

    def test_fresh_weights_every_call(self, rng):
        corpus = chain_corpus(50)
        first = train(corpus, ModelConfig(epochs=1), np.random.default_rng(1))
        second = train(corpus, ModelConfig(epochs=1), np.random.default_rng(2))
        assert not np.array_equal(first.params.emb, second.params.emb)

    def test_deterministic_given_seed(self):
        corpus = chain_corpus(80)
        a = train(corpus, ModelConfig(epochs=3), np.random.default_rng(5))
        b = train(corpus, ModelConfig(epochs=3), np.random.default_rng(5))
        for name in model.GRAD_BLOCKS:
            np.testing.assert_array_equal(
                getattr(a.params, name), getattr(b.params, name)
            )

    def test_reproduces_pinned_losses_on_mixed_lengths(self):
        # lengths 3-7 mix in every minibatch; the pinned values change with
        # the model's math, the length weighting or the order training
        # draws from the rng
        result = train(
            mixed_corpus(240), ModelConfig(epochs=4, max_examples=None),
            np.random.default_rng(11),
        )
        np.testing.assert_allclose(
            result.epoch_losses,
            [3.8347839845434026, 3.5950655536159966,
             3.6090192762805975, 3.58009901458687],
            rtol=1e-9, atol=0,
        )
        assert result.val_accuracy == pytest.approx(0.25668449197860965, rel=1e-9)

    def test_same_length_corpus_reproduces_pinned_values(self):
        # every example has 6 tokens, so every prediction weighs exactly 1
        # and training matches the per-length kernel calls it replaced
        result = train(chain_corpus(100), ModelConfig(epochs=3), np.random.default_rng(5))
        np.testing.assert_allclose(
            result.epoch_losses,
            [3.2438055909061756, 3.1904561653373196, 3.141385264695555],
            rtol=1e-9, atol=0,
        )
        assert result.val_accuracy == 0.2
        np.testing.assert_allclose(
            [np.abs(getattr(result.params, name)).sum() for name in model.GRAD_BLOCKS],
            [18.422372254434073, 79.18018295664447, 1.6007967516289898,
             102.92171627883299, 52.104455009489556, 51.8511195295567,
             75.48449538680184, 1.9801330425294552],
            rtol=1e-9, atol=0,
        )

    def test_one_kernel_call_per_minibatch_per_epoch(self, monkeypatch):
        calls = []
        real = model.batch_loss_and_grads

        def counted(params, tokens, *args):
            calls.append(tokens.shape)
            return real(params, tokens, *args)

        monkeypatch.setattr(model, "batch_loss_and_grads", counted)
        result = train(
            mixed_corpus(100), ModelConfig(epochs=3, batch_size=32),
            np.random.default_rng(2),
        )
        assert result.n_train == 80
        assert [batch for batch, _ in calls] == [32, 32, 16] * 3

    def test_logged_loss_is_the_mean_cross_entropy_per_prediction(self):
        # with a zero learning rate the weights stay at their initial values,
        # so the epoch's logged loss is the training set's plain mean
        corpus = mixed_corpus(60)
        config = ModelConfig(epochs=1, learning_rate=0.0, max_examples=None)
        result = train(corpus, config, np.random.default_rng(4))
        examples = [result.vocab.encode(t, pairs) for t, pairs in corpus]
        train_set, _ = split_corpus(examples, np.random.default_rng(4), config.train_ratio)
        losses = [
            -np.log(model.forward(result.params, example[: t + 1])[example[t + 1]])
            for example in train_set
            for t in range(len(example) - 1)
        ]
        assert result.epoch_losses[0] == pytest.approx(np.mean(losses), rel=1e-12)

    def test_max_examples_window_keeps_most_recent(self, rng):
        corpus = chain_corpus(100, n_templates=2) + [
            ("GET /fresh", [ParamValuePair("x", "1")])
        ]
        result = train(corpus, ModelConfig(epochs=1, max_examples=10), rng)
        assert "GET /fresh" in result.vocab.names
        assert result.n_train + result.n_val == 10


def length_weights_by_unique(lengths):
    """The ``np.unique`` formulation that ``_length_weights`` replaced."""
    predictions = lengths - 1
    n_batch = int(predictions.sum())
    distinct, inverse, counts = np.unique(
        predictions, return_inverse=True, return_counts=True
    )
    row_weights = n_batch / (distinct * counts)[inverse]
    valid = np.arange(int(predictions.max())) < predictions[:, None]
    return np.where(valid, row_weights[:, None], 0.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 24), min_size=1, max_size=64))
def test_length_weights_equal_the_unique_formulation(lengths):
    lengths = np.array(lengths, dtype=np.intp)
    assert np.array_equal(_length_weights(lengths), length_weights_by_unique(lengths))


class TestAccuracy:
    def test_matches_a_per_row_reference_on_mixed_lengths(self, rng):
        params = model.init_params(9, 4, 5, rng, scale=0.5)
        examples = [
            [int(token) for token in rng.integers(0, 9, size=length)]
            for length in rng.integers(2, 8, size=60)
        ]
        # a one-row-at-a-time pass over forward
        hits = total = 0
        cross_entropy = 0.0
        for example in examples:
            for t in range(len(example) - 1):
                probs = model.forward(params, example[: t + 1])
                hits += int(np.argmax(probs) == example[t + 1])
                cross_entropy -= np.log(probs[example[t + 1]])
                total += 1
        accuracy, loss = _accuracy(params, _pad(examples))
        assert accuracy == hits / total
        assert loss == pytest.approx(cross_entropy / total, rel=1e-12)

    def test_an_empty_validation_set_has_neither(self, rng):
        assert _accuracy(model.init_params(9, 4, 5, rng), None) == (None, None)


class TestTrainLogging:
    def run(self, lines=None, corpus=None):
        """Train a small round; ``lines`` collects its (level, line) pairs."""
        return train(
            chain_corpus(60) if corpus is None else corpus, ModelConfig(epochs=4),
            np.random.default_rng(3),
            log=None if lines is None else lambda level, line: lines.append((level, line)),
        )

    def test_log_level_changes_no_result(self):
        quiet = self.run()
        lines = []
        loud = self.run(lines)
        assert lines
        assert loud.epoch_losses == quiet.epoch_losses
        assert loud.val_accuracy == quiet.val_accuracy
        assert loud.val_loss == quiet.val_loss

    def test_one_line_per_epoch_ending_with_the_final_accuracy(self):
        lines = []
        result = self.run(lines)
        epochs = [(level, line) for level, line in lines if "epoch=" in line]
        assert [level for level, _ in epochs] == [logging.INFO] * 4
        last = epochs[-1][1]
        assert re.search(r"val_acc=(\S+)", last).group(1) == f"{result.val_accuracy:.3f}"
        assert re.search(r"val_loss=(\S+)", last).group(1) == f"{result.val_loss:.4f}"

    def test_without_a_validation_set_both_read_n_a(self):
        lines = []
        result = self.run(lines, corpus=chain_corpus(1))
        assert result.n_val == 0 and result.val_loss is None
        assert all(" val_acc=n/a val_loss=n/a " in line for _, line in lines if "epoch=" in line)

    def test_the_round_size_is_logged_before_the_first_epoch(self):
        lines = []
        result = self.run(lines)
        first, second = [line for _, line in lines][:2]
        # every chain example has 6 tokens, so 5 predictions
        assert first == (
            f"train n_train={result.n_train} n_val={result.n_val} "
            f"vocab={result.vocab.size} val_predictions={5 * result.n_val}"
        )
        assert "epoch=1 " in second


@pytest.fixture(scope="module")
def trained():
    return train(
        chain_corpus(1000), ModelConfig(max_examples=None),
        np.random.default_rng(42),
    )


class TestGenerateLists:
    def test_reproduces_chains(self, trained, rng):
        for t in range(5):
            template_id = f"GET /things{t}"
            expected = tuple(
                ParamValuePair(f"p{t}_{j}", f"v{t}_{j}") for j in range(4)
            )
            hits = 0
            for _ in range(50):
                lists = generate_lists(
                    trained.params, trained.vocab, template_id, 1, rng,
                    trained.max_len,
                )
                hits += bool(lists and lists[0] == expected)
            assert hits / 50 > 0.9

    def test_never_emits_foreign_pairs(self, trained, rng):
        lists = generate_lists(
            trained.params, trained.vocab, "GET /things0", 30, rng, trained.max_len
        )
        for pairs in lists:
            for pair in pairs:
                assert pair.param_name.startswith("p0_")

    def test_max_len_zero_yields_empty_lists(self, trained, rng):
        lists = generate_lists(
            trained.params, trained.vocab, "GET /things0", 5, rng, max_len=0
        )
        assert lists == [()]

    def test_k_zero_yields_nothing(self, trained, rng):
        assert generate_lists(
            trained.params, trained.vocab, "GET /things0", 0, rng, trained.max_len
        ) == []

    def test_unknown_template_raises(self, trained, rng):
        with pytest.raises(KeyError):
            generate_lists(
                trained.params, trained.vocab, "GET /nowhere", 5, rng, trained.max_len
            )

    def test_draw_past_the_cumulative_sum_picks_the_last_allowed_token(
        self, monkeypatch
    ):
        vocab = build_vocab(
            [("GET /a", [ParamValuePair(name, "1") for name in ("x", "y", "z")])]
        )
        probs = np.array([0.82, 0.0, 0.63, 0.96, 0.37])  # end, name, x, y, z
        draw = np.nextafter(1.0, 0.0)
        allowed = probs[[0, 2, 3, 4]]
        assert np.cumsum(allowed / allowed.sum())[-1] < draw  # rounded below 1
        monkeypatch.setattr(model, "forward", lambda params, prefix: probs)

        class HighDraw:
            def random(self):
                return draw

        lists = generate_lists(None, vocab, "GET /a", 1, HighDraw(), max_len=1)
        assert lists == [(ParamValuePair("z", "1"),)]

    def test_deterministic_given_seed(self, trained):
        a = generate_lists(
            trained.params, trained.vocab, "GET /things1", 10,
            np.random.default_rng(8), trained.max_len,
        )
        b = generate_lists(
            trained.params, trained.vocab, "GET /things1", 10,
            np.random.default_rng(8), trained.max_len,
        )
        assert a == b


def reference_lists(params, vocab, template_id, k, rng, max_len):
    """The per-step loop ``generate_lists`` replaced: one ``model.forward``
    call for every token drawn, however often its prefix was seen."""
    name_token = vocab.names[template_id]
    own_pairs = {token: pair for pair, token in vocab.pairs[template_id].items()}
    results, seen = [], set()
    for _ in range(k):
        prefix = [name_token]
        pairs = []
        used_params = set()
        while len(pairs) < max_len:
            allowed = [TERMINATOR_ID] + [
                token for token, pair in own_pairs.items()
                if pair.param_name not in used_params
            ]
            probs = model.forward(params, prefix)
            masked = probs[allowed]
            masked = masked / masked.sum()
            index = int(np.searchsorted(np.cumsum(masked), rng.random()))
            token = allowed[min(index, len(allowed) - 1)]
            if token == TERMINATOR_ID:
                break
            pair = own_pairs[token]
            pairs.append(pair)
            used_params.add(pair.param_name)
            prefix.append(token)
        key = tuple(pairs)
        if key not in seen:
            seen.add(key)
            results.append(key)
    return results


@pytest.fixture(scope="module")
def mixed_models():
    """Small models trained on mixed-length corpora, a few epochs each."""
    return [
        train(mixed_corpus(60 + 20 * seed), ModelConfig(epochs=2 + seed, max_examples=None),
              np.random.default_rng(seed))
        for seed in range(4)
    ]


def record_prefixes(monkeypatch):
    """Route ``model.forward`` through a recorder; returns the prefixes list."""
    prefixes = []
    real = model.forward

    def recorded(params, prefix):
        prefixes.append(tuple(int(token) for token in prefix))
        return real(params, prefix)

    monkeypatch.setattr(model, "forward", recorded)
    return prefixes


class TestGenerateListsMemo:
    def test_one_forward_call_per_distinct_prefix(self, mixed_models, monkeypatch):
        prefixes = record_prefixes(monkeypatch)
        saved = 0
        for result in mixed_models:
            for template_id in result.vocab.names:
                args = (result.params, result.vocab, template_id, 32)
                reference_lists(*args, np.random.default_rng(1), result.max_len)
                visited = list(prefixes)
                prefixes.clear()
                generate_lists(*args, np.random.default_rng(1), result.max_len)
                assert len(prefixes) == len(set(prefixes))
                assert set(prefixes) == set(visited)
                saved += len(visited) - len(prefixes)
                prefixes.clear()
        assert saved > 0

    def test_lists_equal_the_per_step_loop(self, mixed_models):
        for seed, result in enumerate(mixed_models):
            for template_id in result.vocab.names:
                rngs = np.random.default_rng(seed), np.random.default_rng(seed)
                args = (result.params, result.vocab, template_id, 32)
                assert generate_lists(*args, rngs[0], result.max_len) == reference_lists(
                    *args, rngs[1], result.max_len
                )
                assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def miner_bugs_round(index):
    """Round ``index`` of a seed-0 ``miner-bugs`` run, captured by
    ``tests/data/capture_miner_bugs_corpora.py``: its training corpus and
    the trainer's rng in the state the round received it."""
    entry = json.loads(CORPORA.read_text())[index]
    corpus = [
        (template_id, [ParamValuePair(name, value) for name, value in pairs])
        for template_id, pairs in entry["corpus"]
    ]
    rng = np.random.default_rng()
    rng.bit_generator.state = entry["rng_state"]
    return corpus, rng


# (round, n_train, n_val, epoch losses, val_accuracy, lists, sha256 of the
# lists); the pinned values change with the model's math, the length
# weighting, generation or the order a round draws from the rng
MINER_BUGS_ROUNDS = [
    (0, 26, 7, [
        2.484456869245242, 2.280547446090028, 2.1432155485474422,
        2.055515319082849, 2.0011315788236974, 1.9663689531310102,
        1.9418922132050283, 1.9222460965382941, 1.9045688253035487,
        1.88740394164552, 1.8698578118224365, 1.8512399544938007,
        1.8308824660714609, 1.807854695154778, 1.7805931137877784,
        1.7464527276590167, 1.7012360845510113, 1.639553355883423,
        1.55870434995848, 1.465762625277538, 1.373219938535575,
        1.2873560772268402, 1.2099170519507103, 1.137659179487226,
        1.0782960302229896, 1.0101955152446243, 1.0889739755445598,
    ], 0.4117647058823529, 13,
     "1b6f2c250243edd26caa5371d37ee0fa2c613b5c61d8d1b512838c1d9ebef7fe"),
    (1, 206, 51, [
        2.756080827849391, 2.1228278991757352, 1.9772397114856453,
        1.8753010563466477, 1.7825306829722969, 1.6212996933105284,
        1.4308226560342991, 1.2781493903875198, 1.2291632869981235,
        1.124293275850603, 1.191758293963936, 1.044542200526802,
        1.1111317187203984, 0.9925260678547858, 1.0746659527789524,
        0.9734128087587263, 0.9245738164708571, 0.9664828685816177,
        0.8958696496262402, 0.9763924371595236, 0.8759908732617472,
        0.9056820120564077, 0.8918125069762719, 0.8918230409398089,
        0.9310636353823222, 0.8792600378698935, 0.8999139887601799,
    ], 0.6470588235294118, 28,
     "8030e2a235a33c6312820e3f3a44b79f1c8000d67d6edfb695e7c75d26eb42ae"),
]


class TestMinerBugsRounds:
    @pytest.mark.parametrize(
        ("index", "n_train", "n_val", "losses", "val_accuracy", "n_lists", "digest"),
        MINER_BUGS_ROUNDS, ids=["round-1", "round-2"],
    )
    def test_round_reproduces_pinned_values(
        self, index, n_train, n_val, losses, val_accuracy, n_lists, digest
    ):
        corpus, rng = miner_bugs_round(index)
        config = ModelConfig()
        result = train(corpus, config, rng)
        assert (result.n_train, result.n_val) == (n_train, n_val)
        np.testing.assert_allclose(result.epoch_losses, losses, rtol=1e-9, atol=0)
        assert result.val_accuracy == pytest.approx(val_accuracy, rel=1e-9)
        lists = [
            (template_id, pairs)
            for template_id in result.vocab.names
            for pairs in generate_lists(
                result.params, result.vocab, template_id,
                config.lists_per_template, rng, result.max_len,
            )
        ]
        dump = json.dumps([
            [template_id, [[pair.param_name, pair.value] for pair in pairs]]
            for template_id, pairs in lists
        ])
        assert (len(lists), hashlib.sha256(dump.encode()).hexdigest()) == (n_lists, digest)


class TestRecommenderPublish:
    @pytest.fixture
    def recommender(self, rng):
        return Recommender(ModelConfig(per_template_cap=64), rng)

    def lists(self, count, start=0):
        return {GET_ID: [
            (ParamValuePair("with_projects", f"v{i}"),)
            for i in range(start, start + count)
        ]}

    def test_first_publish(self, recommender):
        recommender.publish(self.lists(4))
        assert len(recommender.published[GET_ID]) == 4

    def test_union_semantics(self, recommender):
        recommender.publish(self.lists(4))
        recommender.publish(self.lists(3, start=2))  # 2 duplicates + 1 new
        assert len(recommender.published[GET_ID]) == 5

    def test_cap_evicts_oldest(self, rng):
        recommender = Recommender(ModelConfig(per_template_cap=4), rng)
        recommender.publish(self.lists(4))
        recommender.publish(self.lists(2, start=100))
        published = recommender.published[GET_ID]
        assert len(published) == 4
        values = [pairs[0].value for pairs in published]
        assert values == ["v2", "v3", "v100", "v101"]

    def test_a_mapping_held_before_a_publish_shows_the_new_lists(self, recommender):
        held = recommender.published
        recommender.publish(self.lists(1))
        assert held[GET_ID] == ((ParamValuePair("with_projects", "v0"),),)
        recommender.publish(self.lists(1, start=1))
        assert [pairs[0].value for pairs in held[GET_ID]] == ["v0", "v1"]


class TestRound:
    def test_empty_corpus_round_is_skipped(self, rng):
        recommender = Recommender(ModelConfig(), rng)
        assert recommender.train_and_publish([]) is None
        assert recommender.published == {}

    def test_round_cut_at_an_epoch_boundary_publishes_nothing(self, rng):
        answers = iter([False, False, True])
        recommender = Recommender(ModelConfig(epochs=5), rng)
        corpus = [(GET_ID, [ParamValuePair("with_projects", "false")])] * 20
        lines = []
        result = recommender.train_and_publish(
            corpus, label="round=1", should_stop=lambda: next(answers),
            log=lambda level, line: lines.append((level, line)),
        )
        assert result is None
        assert recommender.published == {}
        assert sum(level == logging.INFO for level, line in lines if "epoch=" in line) == 2
        cuts = [line for level, line in lines if level == logging.WARNING]
        assert cuts == ["round=1 cut before epoch=3 of 5"]
