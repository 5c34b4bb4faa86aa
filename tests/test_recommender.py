from __future__ import annotations

import logging
import re

import numpy as np
import pytest

from restfuzz import model
from restfuzz.collection import ParamValuePair
from restfuzz.grammar import parse_spec
from restfuzz.recommender import (
    ModelConfig,
    Recommender,
    UnknownTemplate,
    _accuracy,
    build_vocab,
    generate_lists,
    split_corpus,
    train,
)
from restfuzz.recommender import EmptyCorpus, RoundCut
from restfuzz.rendering import ForeignPair, ParamValueList

from conftest import build_spec, groups_paths

GET_ID = "GET /groups/{id}"


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
        assert vocab.pair_tokens_for("GET /a") != vocab.pair_tokens_for("GET /b")

    def test_terminator_id_is_zero_and_encoding_round_trips(self):
        pairs = [ParamValuePair("a", "1"), ParamValuePair("b", "2")]
        vocab = build_vocab([(GET_ID, pairs)])
        tokens = vocab.encode(GET_ID, pairs)
        assert tokens[0] == vocab.name_token(GET_ID)
        assert tokens[-1] == 0
        assert [vocab.pair_at(t) for t in tokens[1:-1]] == pairs


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
        # the model's math or the order training draws from the rng
        corpus = [
            (f"GET /mixed{i % 4}",
             [ParamValuePair(f"p{i % 4}_{j}", f"v{(i + j) % 3}")
              for j in range(1 + (7 * i) % 5)])
            for i in range(240)
        ]
        result = train(
            corpus, ModelConfig(epochs=4, max_examples=None),
            np.random.default_rng(11),
        )
        np.testing.assert_allclose(
            result.epoch_losses,
            [3.7993211678397976, 3.6016357021358893,
             3.6142086109384897, 3.5788662513490057],
            rtol=1e-9, atol=0,
        )
        assert result.val_accuracy == pytest.approx(0.25668449197860965, rel=1e-9)

    def test_max_examples_window_keeps_most_recent(self, rng):
        corpus = chain_corpus(100, n_templates=2) + [
            ("GET /fresh", [ParamValuePair("x", "1")])
        ]
        result = train(corpus, ModelConfig(epochs=1, max_examples=10), rng)
        assert result.vocab.name_token("GET /fresh") is not None
        assert result.n_train + result.n_val == 10


class TestAccuracy:
    def test_matches_a_per_row_reference_on_mixed_lengths(self, rng):
        params = model.init_params(9, 4, 5, rng, scale=0.5)
        examples = [
            [int(token) for token in rng.integers(0, 9, size=length)]
            for length in rng.integers(2, 8, size=60)
        ]
        # the one-row-at-a-time pass over forward that predict replaced
        hits = total = 0
        for example in examples:
            for t in range(len(example) - 1):
                probs = model.forward(params, example[: t + 1])
                hits += int(np.argmax(probs) == example[t + 1])
                total += 1
        assert _accuracy(params, examples) == hits / total


class TestTrainLogging:
    def run(self, caplog, level):
        caplog.clear()
        caplog.set_level(level, logger="restfuzz.training")
        return train(chain_corpus(60), ModelConfig(epochs=4), np.random.default_rng(3))

    def test_log_level_changes_no_result(self, caplog):
        quiet = self.run(caplog, logging.WARNING)
        assert not caplog.records
        loud = self.run(caplog, logging.INFO)
        assert loud.epoch_losses == quiet.epoch_losses
        assert loud.val_accuracy == quiet.val_accuracy

    def test_one_line_per_epoch_ending_with_the_final_accuracy(self, caplog):
        result = self.run(caplog, logging.INFO)
        lines = [r.getMessage() for r in caplog.records if "epoch=" in r.getMessage()]
        assert len(lines) == 4
        last = re.search(r"val_acc=(\S+)", lines[-1]).group(1)
        assert last == f"{result.val_accuracy:.3f}"


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
                hits += bool(lists and lists[0].pairs == expected)
            assert hits / 50 > 0.9

    def test_never_emits_foreign_pairs(self, trained, rng):
        lists = generate_lists(
            trained.params, trained.vocab, "GET /things0", 30, rng, trained.max_len
        )
        for plist in lists:
            for pair in plist.pairs:
                assert pair.param_name.startswith("p0_")

    def test_max_len_zero_yields_empty_lists(self, trained, rng):
        lists = generate_lists(
            trained.params, trained.vocab, "GET /things0", 5, rng, max_len=0
        )
        assert lists == [ParamValueList("GET /things0", ())]

    def test_k_zero_yields_nothing(self, trained, rng):
        assert generate_lists(
            trained.params, trained.vocab, "GET /things0", 0, rng, trained.max_len
        ) == []

    def test_unknown_template_raises(self, trained, rng):
        with pytest.raises(UnknownTemplate):
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
        assert lists == [ParamValueList("GET /a", (ParamValuePair("z", "1"),))]

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


class TestRecommenderPublish:
    @pytest.fixture
    def recommender(self, two_template_grammar, rng):
        return Recommender(two_template_grammar, ModelConfig(per_template_cap=64), rng)

    def lists(self, count, start=0):
        return [
            ParamValueList(GET_ID, (ParamValuePair("with_projects", f"v{i}"),))
            for i in range(start, start + count)
        ]

    def test_first_publish(self, recommender):
        recommender.publish(self.lists(4))
        assert len(recommender.snapshot()[GET_ID]) == 4

    def test_union_semantics(self, recommender):
        recommender.publish(self.lists(4))
        recommender.publish(self.lists(3, start=2))  # 2 duplicates + 1 new
        assert len(recommender.snapshot()[GET_ID]) == 5

    def test_cap_evicts_oldest(self, two_template_grammar, rng):
        recommender = Recommender(
            two_template_grammar, ModelConfig(per_template_cap=4), rng
        )
        recommender.publish(self.lists(4))
        recommender.publish(self.lists(2, start=100))
        published = recommender.snapshot()[GET_ID]
        assert len(published) == 4
        values = [plist.pairs[0].value for plist in published]
        assert values == ["v2", "v3", "v100", "v101"]

    def test_foreign_pair_rejected_at_publish(self, recommender):
        bad = ParamValueList(GET_ID, (ParamValuePair("nope", "1"),))
        with pytest.raises(ForeignPair):
            recommender.publish([bad])

    def test_snapshot_swap_is_atomic_object_replacement(self, recommender):
        before = recommender.snapshot()
        recommender.publish(self.lists(1))
        assert recommender.snapshot() is not before


class TestRound:
    def test_empty_corpus_round_is_skipped(self, two_template_grammar, rng):
        recommender = Recommender(two_template_grammar, ModelConfig(), rng)
        assert recommender.train_and_publish([]) is None
        assert recommender.rounds == 0

    def test_round_cut_at_an_epoch_boundary_publishes_nothing(
        self, two_template_grammar, rng, caplog
    ):
        answers = iter([False, False, True])
        recommender = Recommender(two_template_grammar, ModelConfig(epochs=5), rng)
        corpus = [(GET_ID, [ParamValuePair("with_projects", "false")])] * 20
        caplog.set_level(logging.INFO, logger="restfuzz.training")
        result = recommender.train_and_publish(
            corpus, label="round=1", should_stop=lambda: next(answers)
        )
        assert result is None
        assert recommender.rounds == 0
        assert recommender.snapshot() == {}
        assert sum(r.levelno == logging.INFO for r in caplog.records) == 2  # epoch lines
        cuts = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [r.getMessage() for r in cuts] == [
            "round=1 cut before epoch=3 of 5"
        ]


class TestWeightDumpPerRound:
    def test_each_round_writes_a_versioned_dump(self, two_template_grammar, rng, tmp_path):
        recommender = Recommender(
            two_template_grammar, ModelConfig(epochs=1), rng,
            dump_dir=tmp_path / "weights",
        )
        corpus = [
            (GET_ID, [ParamValuePair("with_projects", "false")])
            for _ in range(20)
        ]
        recommender.train_and_publish(corpus)
        recommender.train_and_publish(corpus)
        dumps = sorted(p.name for p in (tmp_path / "weights").iterdir())
        assert dumps == ["round_001", "round_002"]
        loaded = model.load_params(tmp_path / "weights" / "round_002")
        assert loaded.version == 2
