"""Next-token sequence model: embedding, GRU, attention, linear softmax.

Implemented directly on numpy with hand-written backpropagation so the
gradients can be checked against central finite differences.  The GRU
keeps its three gates fused: one ``(d, 3h)`` input block and bias, one
``(h, 2h)`` recurrent block for the update and reset gates and one
``(h, h)`` block for the candidate state.  The attention layer scores every
hidden state up to a position against the state at that position through a
learned alignment matrix (multiplicative attention); the context vector
and that state feed the output projection together.  Every position of a
batch is handled in one pass: one causal-masked (B, T, T) score matrix,
forward and backward, with a Python loop only over the GRU recurrence.
Both the GRU and the attention are causal, so a batch of mixed lengths can
be padded at the end: padding never reaches an earlier position, and a
prediction weight of 0 keeps it out of the loss and the gradients.

Everything here is pure math over token-id sequences; vocabulary handling
and training schedules live in :mod:`restfuzz.recommender`.  The weights
are the arrays of :meth:`ModelParams.blocks`, and this module reads and
writes no file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

GRAD_BLOCKS = ("emb", "w_x", "b_x", "u_zr", "u_c", "w_att", "w_out", "b_out")


@dataclass
class ModelParams:
    emb: np.ndarray    # (V, d)
    w_x: np.ndarray    # (d, 3h) input side of the update, reset, candidate gates
    b_x: np.ndarray    # (3h,)
    u_zr: np.ndarray   # (h, 2h) recurrent side of the update and reset gates
    u_c: np.ndarray    # (h, h) recurrent side of the candidate state
    w_att: np.ndarray  # (h, h) alignment scoring
    w_out: np.ndarray  # (2h, V)
    b_out: np.ndarray  # (V,)

    @property
    def hidden_dim(self) -> int:
        return self.u_c.shape[0]

    def blocks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in GRAD_BLOCKS}


def init_params(
    vocab_size: int,
    embed_dim: int,
    hidden_dim: int,
    rng: np.random.Generator,
    scale: float = 0.08,
) -> ModelParams:
    """Fresh small-uniform weights; every training run starts from scratch.

    Each gate's input and recurrent blocks are drawn in turn (update,
    reset, candidate) and then stacked; the draw order fixes which initial
    weights a seed gives.
    """
    def u(*shape):
        return rng.uniform(-scale, scale, size=shape)

    emb = u(vocab_size, embed_dim)
    w_z, u_z = u(embed_dim, hidden_dim), u(hidden_dim, hidden_dim)
    w_r, u_r = u(embed_dim, hidden_dim), u(hidden_dim, hidden_dim)
    w_c, u_c = u(embed_dim, hidden_dim), u(hidden_dim, hidden_dim)
    return ModelParams(
        emb=emb,
        w_x=np.hstack([w_z, w_r, w_c]), b_x=np.zeros(3 * hidden_dim),
        u_zr=np.hstack([u_z, u_r]), u_c=u_c,
        w_att=u(hidden_dim, hidden_dim),
        w_out=u(2 * hidden_dim, vocab_size), b_out=np.zeros(vocab_size),
    )


def apply_gradients(params: ModelParams, grads: dict[str, np.ndarray], step: float) -> None:
    """Plain gradient-descent update, in place."""
    for name in GRAD_BLOCKS:
        block = getattr(params, name)
        block -= step * grads[name]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis; ``-inf`` entries get probability 0."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _run_gru(params: ModelParams, xs: np.ndarray):
    """GRU over (B, T, d) inputs; returns states (B, T+1, h) and the
    per-step gate caches: update and reset gates (B, T, 2h), candidates."""
    batch, steps, _ = xs.shape
    hidden = params.hidden_dim
    x_gates = xs @ params.w_x + params.b_x
    hs = np.zeros((batch, steps + 1, hidden))
    zrs = np.empty((batch, steps, 2 * hidden))
    cs = np.empty((batch, steps, hidden))
    for t in range(steps):
        h_prev = hs[:, t]
        zr = _sigmoid(x_gates[:, t, : 2 * hidden] + h_prev @ params.u_zr)
        z, r = zr[:, :hidden], zr[:, hidden:]
        c = np.tanh(x_gates[:, t, 2 * hidden :] + (r * h_prev) @ params.u_c)
        hs[:, t + 1] = z * h_prev + (1.0 - z) * c
        zrs[:, t], cs[:, t] = zr, c
    return hs, zrs, cs


@cache
def _causal_mask(steps: int) -> np.ndarray:
    """Read-only (steps, steps) lower-triangular mask, built once per length."""
    mask = np.tri(steps, dtype=bool)
    mask.flags.writeable = False
    return mask


def _heads(params: ModelParams, hs: np.ndarray):
    """Attention weights (B, T, T), output-layer inputs (B, T, 2h) and
    next-token distributions (B, T, V) after every input position, from
    GRU states ``hs`` (B, T+1, h).  Row ``t`` attends over states 1..t+1."""
    states = hs[:, 1:]
    steps = states.shape[1]
    scores = states @ (states @ params.w_att).transpose(0, 2, 1)
    alpha = _softmax(np.where(_causal_mask(steps), scores, -np.inf))
    concat = np.concatenate([alpha @ states, states], axis=2)
    probs = _softmax(concat @ params.w_out + params.b_out)
    return alpha, concat, probs


def forward(params: ModelParams, prefix: Sequence[int]) -> np.ndarray:
    """Probability distribution over the next token after ``prefix``."""
    tokens = np.asarray(prefix, dtype=np.intp).reshape(1, -1)
    if tokens.size == 0:
        raise ValueError("prefix must be non-empty")
    hs, _, _ = _run_gru(params, params.emb[tokens])
    return _heads(params, hs)[2][0, -1]


def predict(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Most likely next token after every position of a same-length batch.

    ``inputs`` is (B, T); the result is (B, T), entry ``[b, t]`` predicting
    the token that follows ``inputs[b, : t + 1]``.
    """
    inputs = np.asarray(inputs, dtype=np.intp)
    hs, _, _ = _run_gru(params, params.emb[inputs])
    return np.argmax(_heads(params, hs)[2], axis=2)


def batch_loss_and_grads(
    params: ModelParams,
    tokens: np.ndarray,
    weights: np.ndarray | None = None,
    cross_entropy: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray], int]:
    """Next-token cross-entropy over a (B, T) batch, summed, its analytic
    gradients and the number of predictions.

    ``weights`` (B, T-1) scales each prediction's cross-entropy; a weight
    of 0 marks padding, which is then not counted as a prediction.  When
    given, ``cross_entropy`` (B, T-1) receives each prediction's unweighted
    cross-entropy.
    """
    tokens = np.asarray(tokens, dtype=np.intp)
    if tokens.ndim != 2 or tokens.shape[1] < 2:
        raise ValueError("need a (batch, length>=2) token array")
    inputs = tokens[:, :-1]                 # the final token is only a target
    targets = tokens[:, 1:]
    batch, steps = inputs.shape
    hidden = params.hidden_dim
    picked = (np.arange(batch)[:, None], np.arange(steps), targets)

    xs = params.emb[inputs]
    hs, zrs, cs = _run_gru(params, xs)
    alpha, concat, probs = _heads(params, hs)
    if weights is None:
        weights = np.ones((batch, steps))  # multiplying by 1.0 changes no bits
    log_probs = np.log(probs[picked] + 1e-300)
    if cross_entropy is not None:
        np.negative(log_probs, out=cross_entropy)
    loss = -float((weights * log_probs).sum())

    def flat(a: np.ndarray) -> np.ndarray:
        return a.reshape(-1, a.shape[-1])

    grads = {}
    d_logits = probs.copy()
    d_logits[picked] -= 1.0
    d_logits *= weights[..., None]
    grads["w_out"] = flat(concat).T @ flat(d_logits)
    grads["b_out"] = flat(d_logits).sum(axis=0)
    d_concat = d_logits @ params.w_out.T
    d_context = d_concat[:, :, :hidden]
    # Gradient flowing into each state from the attention/output side.
    d_states = d_concat[:, :, hidden:].copy()

    states = hs[:, 1:]
    keys = states @ params.w_att
    # context_t = sum_s alpha[t, s] * state_s
    d_alpha = d_context @ states.transpose(0, 2, 1)
    d_states += alpha.transpose(0, 2, 1) @ d_context
    # softmax over each row; masked entries have alpha = 0 and stay out
    d_scores = alpha * (d_alpha - (alpha * d_alpha).sum(axis=2, keepdims=True))
    # scores[t, s] = state_t . (state_s @ w_att)
    d_keys = d_scores.transpose(0, 2, 1) @ states
    grads["w_att"] = flat(states).T @ flat(d_keys)
    d_states += d_scores @ keys + d_keys @ params.w_att.T

    # Backprop through time over the GRU, collecting the gate pre-activation
    # gradients; every weight gradient is one matmul after the loop.
    d_gates = np.empty((batch, steps, 3 * hidden))
    d_carry = np.zeros((batch, hidden))
    for t in reversed(range(steps)):
        dh = d_carry + d_states[:, t]
        zr, c = zrs[:, t], cs[:, t]
        z, r = zr[:, :hidden], zr[:, hidden:]
        h_prev = hs[:, t]

        da_c = dh * (1.0 - z) * (1.0 - c * c)
        d_rh = da_c @ params.u_c.T
        da_zr = np.concatenate([dh * (h_prev - c), d_rh * h_prev], axis=1)
        da_zr *= zr * (1.0 - zr)
        d_gates[:, t, : 2 * hidden] = da_zr
        d_gates[:, t, 2 * hidden :] = da_c
        d_carry = dh * z + d_rh * r + da_zr @ params.u_zr.T

    h_prevs = hs[:, :-1]
    reset = zrs[:, :, hidden:]
    grads["u_zr"] = flat(h_prevs).T @ flat(d_gates[:, :, : 2 * hidden])
    grads["u_c"] = flat(reset * h_prevs).T @ flat(d_gates[:, :, 2 * hidden :])
    grads["w_x"] = flat(xs).T @ flat(d_gates)
    grads["b_x"] = flat(d_gates).sum(axis=0)
    # Scatter-add of each input row's gradient onto its token's embedding:
    # one bin per (token, column), summed in row order from 0.0.
    vocab, embed = params.emb.shape
    bins = inputs.reshape(-1, 1) * embed + np.arange(embed)
    grads["emb"] = np.bincount(
        bins.ravel(), (flat(d_gates) @ params.w_x.T).ravel(), vocab * embed
    ).reshape(vocab, embed)

    return loss, grads, int(np.count_nonzero(weights))
