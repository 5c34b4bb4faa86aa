from __future__ import annotations

import numpy as np
import pytest

from restfuzz import model


@pytest.fixture
def rng():
    """The trainer keeps numpy's Generator: permutations and initial weights."""
    return np.random.default_rng(12345)


def tiny_params(rng, vocab=6, dim=4, hidden=5, scale=0.3):
    return model.init_params(vocab, dim, hidden, rng, scale=scale)


def numeric_gradient(params, tokens, block_name, eps=1e-5, weights=None):
    """Central finite differences of the batch loss, one entry at a time."""
    block = getattr(params, block_name)
    numeric = np.zeros_like(block)
    iterator = np.nditer(block, flags=["multi_index"])
    for _ in iterator:
        index = iterator.multi_index
        original = block[index]
        block[index] = original + eps
        loss_plus = model.batch_loss_and_grads(params, tokens, weights)[0]
        block[index] = original - eps
        loss_minus = model.batch_loss_and_grads(params, tokens, weights)[0]
        block[index] = original
        numeric[index] = (loss_plus - loss_minus) / (2 * eps)
    return numeric


class TestForward:
    def test_output_is_a_distribution(self, rng):
        params = tiny_params(rng)
        for length in (1, 2, 5):
            probs = model.forward(params, list(rng.integers(0, 6, size=length)))
            assert probs.shape == (6,)
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) < 1e-9

    def test_untrained_model_is_roughly_uniform(self):
        # over fresh random inits the peak probability stays near 1/|V|
        peaks = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            params = model.init_params(8, 4, 5, rng)
            peaks.append(model.forward(params, [1, 2, 3]).max())
        assert np.mean(peaks) < 1.5 / 8

    def test_empty_prefix_rejected(self, rng):
        with pytest.raises(ValueError):
            model.forward(tiny_params(rng), [])

    def test_forward_is_the_head_at_the_last_position(self):
        # generation and training share one head: forward on every prefix
        # of a row equals the heads over the whole row at that position.
        # Not bit-exact: the input products of all steps are one matmul,
        # and its BLAS path depends on the row's length.
        rng = np.random.default_rng(4)
        for _ in range(20):
            params = tiny_params(rng)
            row = rng.integers(0, 6, size=(1, 6))
            hs, _, _ = model._run_gru(params, params.emb[row])
            _, _, probs = model._heads(params, hs)
            for length in range(1, 7):
                np.testing.assert_allclose(
                    model.forward(params, row[0, :length]), probs[0, length - 1],
                    rtol=0, atol=1e-15,
                )


class TestGradients:
    def test_all_blocks_match_finite_differences(self):
        # 20 random tiny instances; every parameter block within 1e-4
        rng = np.random.default_rng(99)
        for trial in range(20):
            params = tiny_params(rng)
            tokens = rng.integers(0, 6, size=(1, 4))
            _, grads, _ = model.batch_loss_and_grads(params, tokens)
            for name in model.GRAD_BLOCKS:
                numeric = numeric_gradient(params, tokens, name)
                scale = max(
                    np.abs(grads[name]).max(), np.abs(numeric).max(), 1e-8
                )
                worst = np.abs(grads[name] - numeric).max() / scale
                assert worst < 1e-4, f"trial {trial}, block {name}: {worst:.2e}"

    def test_batched_gradients_sum_over_examples(self, rng):
        params = tiny_params(rng)
        a = rng.integers(0, 6, size=(1, 4))
        b = rng.integers(0, 6, size=(1, 4))
        both = np.vstack([a, b])
        loss_a, grads_a, _ = model.batch_loss_and_grads(params, a)
        loss_b, grads_b, _ = model.batch_loss_and_grads(params, b)
        loss_ab, grads_ab, _ = model.batch_loss_and_grads(params, both)
        assert loss_ab == pytest.approx(loss_a + loss_b, rel=1e-12)
        for name in model.GRAD_BLOCKS:
            np.testing.assert_allclose(
                grads_ab[name], grads_a[name] + grads_b[name], atol=1e-12
            )


def padded_batch(rng, lengths, vocab=6):
    """Random rows of the given lengths, padded with token 0, and the
    0/1 weights that keep the padding out of the loss."""
    tokens = np.zeros((len(lengths), max(lengths)), dtype=np.intp)
    for row, length in zip(tokens, lengths):
        row[:length] = rng.integers(0, vocab, size=length)
    valid = np.arange(max(lengths) - 1) < np.array(lengths)[:, None] - 1
    return tokens, valid.astype(float)


class TestWeightedBatch:
    def test_padded_weighted_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            params = tiny_params(rng)
            tokens, mask = padded_batch(rng, [2, 5, 3])
            weights = mask * rng.uniform(0.2, 3.0, size=mask.shape)
            _, grads, n = model.batch_loss_and_grads(params, tokens, weights)
            assert n == 1 + 4 + 2
            for name in model.GRAD_BLOCKS:
                numeric = numeric_gradient(params, tokens, name, weights=weights)
                scale = max(np.abs(grads[name]).max(), np.abs(numeric).max(), 1e-8)
                worst = np.abs(grads[name] - numeric).max() / scale
                assert worst < 1e-4, f"trial {trial}, block {name}: {worst:.2e}"

    def test_weights_of_ones_give_the_same_bits_as_none(self, rng):
        params = tiny_params(rng)
        tokens = rng.integers(0, 6, size=(4, 5))
        loss, grads, n = model.batch_loss_and_grads(params, tokens)
        loss_w, grads_w, n_w = model.batch_loss_and_grads(params, tokens, np.ones((4, 4)))
        assert (loss_w, n_w) == (loss, n)
        for name in model.GRAD_BLOCKS:
            np.testing.assert_array_equal(grads_w[name], grads[name])

    def test_zero_weight_padding_changes_nothing(self, rng):
        # padding, a fully padded row and the padding's token values are
        # all invisible: the result is the sum over the unpadded rows
        params = tiny_params(rng)
        lengths = [2, 5, 3, 5]
        tokens, weights = padded_batch(rng, lengths)
        loss, grads, n = model.batch_loss_and_grads(params, tokens, weights)
        assert n == sum(length - 1 for length in lengths)
        rows = [model.batch_loss_and_grads(params, row[None, :length])
                for row, length in zip(tokens, lengths)]
        assert loss == pytest.approx(sum(row[0] for row in rows), rel=1e-12)
        for name in model.GRAD_BLOCKS:
            np.testing.assert_allclose(
                grads[name], sum(row[1][name] for row in rows), rtol=0, atol=1e-13
            )

        garbled = tokens.copy()
        garbled[:, 1:][weights == 0] = 5
        extra = np.vstack([garbled, rng.integers(0, 6, size=(1, 5))])
        extra_weights = np.vstack([weights, np.zeros((1, 4))])
        loss_x, grads_x, n_x = model.batch_loss_and_grads(params, extra, extra_weights)
        assert n_x == n
        assert loss_x == pytest.approx(loss, rel=1e-12)
        for name in model.GRAD_BLOCKS:
            np.testing.assert_allclose(grads_x[name], grads[name], rtol=0, atol=1e-13)

    def test_cross_entropy_receives_each_unweighted_prediction(self, rng):
        params = tiny_params(rng)
        tokens, weights = padded_batch(rng, [3, 5])
        cross_entropy = np.empty(weights.shape)
        loss, _, _ = model.batch_loss_and_grads(params, tokens, 2.0 * weights, cross_entropy)
        for b, row in enumerate(tokens):
            for t in range(4):
                expected = -np.log(model.forward(params, row[: t + 1])[row[t + 1]])
                assert cross_entropy[b, t] == pytest.approx(expected, rel=1e-12)
        assert loss == pytest.approx(2.0 * np.sum(cross_entropy * weights), rel=1e-12)


class TestTrainingDynamics:
    def test_loss_decreases_on_single_example(self, rng):
        params = tiny_params(rng, scale=0.08)
        tokens = np.array([[1, 3, 4, 2, 0]])
        losses = []
        for _ in range(5):
            loss, grads, n = model.batch_loss_and_grads(params, tokens)
            losses.append(loss / n)
            model.apply_gradients(params, grads, 0.5 / n)
        assert all(later < earlier for earlier, later in zip(losses, losses[1:]))

    def test_deterministic_chain_becomes_top1(self, rng):
        # pair B always follows pair A after the name token
        params = model.init_params(4, 6, 8, rng)  # 0=end, 1=name, 2=A, 3=B
        tokens = np.array([[1, 2, 3, 0]] * 4)
        for _ in range(150):
            _, grads, n = model.batch_loss_and_grads(params, tokens)
            model.apply_gradients(params, grads, 0.5 / n)
        assert int(np.argmax(model.forward(params, [1, 2]))) == 3
        assert int(np.argmax(model.forward(params, [1]))) == 2
        assert int(np.argmax(model.forward(params, [1, 2, 3]))) == 0

    def test_all_parameters_stay_finite(self, rng):
        params = tiny_params(rng)
        tokens = rng.integers(0, 6, size=(3, 5))
        for _ in range(50):
            _, grads, n = model.batch_loss_and_grads(params, tokens)
            model.apply_gradients(params, grads, 1.0 / n)
        assert all(np.all(np.isfinite(block)) for block in params.blocks().values())
