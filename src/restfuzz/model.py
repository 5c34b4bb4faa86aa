"""Next-token sequence model: embedding, GRU, attention, linear softmax.

Implemented directly on numpy with hand-written backpropagation so the
gradients can be checked against central finite differences.  The attention
layer scores every hidden state against the final state through a learned
alignment matrix (multiplicative attention); the context vector and the
final state feed the output projection together.

Everything here is pure math over token-id sequences; vocabulary handling
and training schedules live in :mod:`restfuzz.recommender`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

GRAD_BLOCKS = (
    "emb",
    "w_z", "u_z", "b_z",
    "w_r", "u_r", "b_r",
    "w_c", "u_c", "b_c",
    "w_att",
    "w_out", "b_out",
)


@dataclass
class ModelParams:
    emb: np.ndarray    # (V, d)
    w_z: np.ndarray    # (d, h) update gate
    u_z: np.ndarray    # (h, h)
    b_z: np.ndarray    # (h,)
    w_r: np.ndarray    # (d, h) reset gate
    u_r: np.ndarray    # (h, h)
    b_r: np.ndarray    # (h,)
    w_c: np.ndarray    # (d, h) candidate state
    u_c: np.ndarray    # (h, h)
    b_c: np.ndarray    # (h,)
    w_att: np.ndarray  # (h, h) alignment scoring
    w_out: np.ndarray  # (2h, V)
    b_out: np.ndarray  # (V,)
    version: int = 0

    @property
    def vocab_size(self) -> int:
        return self.emb.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.emb.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.u_z.shape[0]

    def blocks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in GRAD_BLOCKS}

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(block)) for block in self.blocks().values())


def init_params(
    vocab_size: int,
    embed_dim: int,
    hidden_dim: int,
    rng: np.random.Generator,
    scale: float = 0.08,
) -> ModelParams:
    """Fresh small-uniform weights; every training run starts from scratch."""
    def u(*shape):
        return rng.uniform(-scale, scale, size=shape)

    return ModelParams(
        emb=u(vocab_size, embed_dim),
        w_z=u(embed_dim, hidden_dim), u_z=u(hidden_dim, hidden_dim), b_z=np.zeros(hidden_dim),
        w_r=u(embed_dim, hidden_dim), u_r=u(hidden_dim, hidden_dim), b_r=np.zeros(hidden_dim),
        w_c=u(embed_dim, hidden_dim), u_c=u(hidden_dim, hidden_dim), b_c=np.zeros(hidden_dim),
        w_att=u(hidden_dim, hidden_dim),
        w_out=u(2 * hidden_dim, vocab_size), b_out=np.zeros(vocab_size),
    )


def zero_gradients(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(block) for name, block in params.blocks().items()}


def apply_gradients(params: ModelParams, grads: dict[str, np.ndarray], step: float) -> None:
    """Plain gradient-descent update, in place."""
    for name in GRAD_BLOCKS:
        block = getattr(params, name)
        block -= step * grads[name]


def save_params(params: ModelParams, directory: Path | str) -> None:
    """Dump the weights for offline inspection.

    One flat binary of float64 tensors plus a JSON manifest recording name,
    shape and byte offset per block.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    offset = 0
    with open(directory / "weights.bin", "wb") as fh:
        for name, block in params.blocks().items():
            data = np.ascontiguousarray(block, dtype=np.float64).tobytes()
            fh.write(data)
            entries.append({
                "name": name,
                "shape": list(block.shape),
                "offset": offset,
            })
            offset += len(data)
    manifest = {"version": params.version, "dtype": "float64", "tensors": entries}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_params(directory: Path | str) -> ModelParams:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    raw = (directory / "weights.bin").read_bytes()
    arrays = {}
    for entry in manifest["tensors"]:
        count = int(np.prod(entry["shape"]))
        block = np.frombuffer(
            raw, dtype=np.float64, count=count, offset=entry["offset"]
        )
        arrays[entry["name"]] = block.reshape(entry["shape"]).copy()
    return ModelParams(version=manifest["version"], **arrays)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _run_gru(params: ModelParams, xs: np.ndarray):
    """GRU over (B, T, d) inputs; returns states and per-step gate caches."""
    batch, steps, _ = xs.shape
    hidden = params.hidden_dim
    hs = np.zeros((batch, steps + 1, hidden))
    zs = np.empty((batch, steps, hidden))
    rs = np.empty((batch, steps, hidden))
    cs = np.empty((batch, steps, hidden))
    for t in range(steps):
        x = xs[:, t]
        h_prev = hs[:, t]
        z = _sigmoid(x @ params.w_z + h_prev @ params.u_z + params.b_z)
        r = _sigmoid(x @ params.w_r + h_prev @ params.u_r + params.b_r)
        c = np.tanh(x @ params.w_c + (r * h_prev) @ params.u_c + params.b_c)
        hs[:, t + 1] = z * h_prev + (1.0 - z) * c
        zs[:, t], rs[:, t], cs[:, t] = z, r, c
    return hs, zs, rs, cs


def _attend(params: ModelParams, states: np.ndarray, query: np.ndarray):
    """Multiplicative attention of ``query`` over ``states`` (B, S, h)."""
    scores = np.einsum("bsh,bh->bs", states @ params.w_att, query)
    alpha = _softmax(scores, axis=1)
    context = np.einsum("bs,bsh->bh", alpha, states)
    return alpha, context


def _head(params: ModelParams, hs: np.ndarray, t: int):
    """Attention weights, output-layer input and next-token distribution
    after input position ``t``, from GRU states ``hs`` (B, T+1, h)."""
    query = hs[:, t + 1]
    alpha, context = _attend(params, hs[:, 1 : t + 2], query)
    concat = np.concatenate([context, query], axis=1)
    probs = _softmax(concat @ params.w_out + params.b_out, axis=1)
    return alpha, concat, probs


def forward(params: ModelParams, prefix: Sequence[int]) -> np.ndarray:
    """Probability distribution over the next token after ``prefix``."""
    tokens = np.asarray(prefix, dtype=np.intp).reshape(1, -1)
    if tokens.size == 0:
        raise ValueError("prefix must be non-empty")
    hs, _, _, _ = _run_gru(params, params.emb[tokens])
    return _head(params, hs, tokens.shape[1] - 1)[2][0]


def predict(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Most likely next token after every position of a same-length batch.

    ``inputs`` is (B, T); the result is (B, T), entry ``[b, t]`` predicting
    the token that follows ``inputs[b, : t + 1]``.
    """
    inputs = np.asarray(inputs, dtype=np.intp)
    hs, _, _, _ = _run_gru(params, params.emb[inputs])
    return np.stack(
        [np.argmax(_head(params, hs, t)[2], axis=1) for t in range(inputs.shape[1])],
        axis=1,
    )


def batch_loss(params: ModelParams, tokens: np.ndarray) -> tuple[float, int]:
    """Summed next-token cross-entropy over a same-length batch (B, T)."""
    loss, _, n_predictions = _loss_core(params, tokens, want_grads=False)
    return loss, n_predictions


def batch_loss_and_grads(
    params: ModelParams, tokens: np.ndarray
) -> tuple[float, dict[str, np.ndarray], int]:
    """Summed loss plus analytic gradients for a same-length batch (B, T)."""
    return _loss_core(params, tokens, want_grads=True)


def _loss_core(params: ModelParams, tokens: np.ndarray, want_grads: bool):
    tokens = np.asarray(tokens, dtype=np.intp)
    if tokens.ndim != 2 or tokens.shape[1] < 2:
        raise ValueError("need a (batch, length>=2) token array")
    batch, length = tokens.shape
    steps = length - 1                      # the final token is only a target
    inputs = tokens[:, :steps]
    targets = tokens[:, 1:]
    hidden = params.hidden_dim
    rows = np.arange(batch)

    xs = params.emb[inputs]
    hs, zs, rs, cs = _run_gru(params, xs)

    loss = 0.0
    position_cache = []
    for t in range(steps):
        alpha, concat, probs = _head(params, hs, t)
        loss -= float(np.sum(np.log(probs[rows, targets[:, t]] + 1e-300)))
        if want_grads:
            position_cache.append((alpha, concat, probs))

    n_predictions = batch * steps
    if not want_grads:
        return loss, None, n_predictions

    grads = zero_gradients(params)
    # Gradient flowing into each hidden state from the attention/output side.
    d_states = np.zeros((batch, steps + 1, hidden))
    for t in range(steps):
        alpha, concat, probs = position_cache[t]
        states = hs[:, 1 : t + 2]
        query = hs[:, t + 1]

        d_logits = probs.copy()
        d_logits[rows, targets[:, t]] -= 1.0
        grads["w_out"] += concat.T @ d_logits
        grads["b_out"] += d_logits.sum(axis=0)
        d_concat = d_logits @ params.w_out.T
        d_context = d_concat[:, :hidden]
        d_query = d_concat[:, hidden:].copy()

        # context = sum_s alpha_s * state_s
        d_alpha = np.einsum("bh,bsh->bs", d_context, states)
        d_state = alpha[:, :, None] * d_context[:, None, :]
        # softmax over scores
        d_scores = alpha * (d_alpha - np.sum(alpha * d_alpha, axis=1, keepdims=True))
        # score_s = (state_s @ w_att) . query
        grads["w_att"] += np.einsum("bs,bsh,bg->hg", d_scores, states, query)
        d_state += d_scores[:, :, None] * (query @ params.w_att.T)[:, None, :]
        d_query += np.einsum("bs,bsh->bh", d_scores, states @ params.w_att)

        d_states[:, 1 : t + 2] += d_state
        d_states[:, t + 1] += d_query

    # Backprop through time over the GRU.
    d_carry = np.zeros((batch, hidden))
    for t in reversed(range(steps)):
        dh = d_carry + d_states[:, t + 1]
        z, r, c = zs[:, t], rs[:, t], cs[:, t]
        h_prev = hs[:, t]
        x = xs[:, t]

        dz = dh * (h_prev - c)
        dc = dh * (1.0 - z)
        dh_prev = dh * z

        da_c = dc * (1.0 - c * c)
        grads["w_c"] += x.T @ da_c
        grads["u_c"] += (r * h_prev).T @ da_c
        grads["b_c"] += da_c.sum(axis=0)
        dx = da_c @ params.w_c.T
        d_rh = da_c @ params.u_c.T
        dr = d_rh * h_prev
        dh_prev += d_rh * r

        da_z = dz * z * (1.0 - z)
        grads["w_z"] += x.T @ da_z
        grads["u_z"] += h_prev.T @ da_z
        grads["b_z"] += da_z.sum(axis=0)
        dx += da_z @ params.w_z.T
        dh_prev += da_z @ params.u_z.T

        da_r = dr * r * (1.0 - r)
        grads["w_r"] += x.T @ da_r
        grads["u_r"] += h_prev.T @ da_r
        grads["b_r"] += da_r.sum(axis=0)
        dx += da_r @ params.w_r.T
        dh_prev += da_r @ params.u_r.T

        np.add.at(grads["emb"], inputs[:, t], dx)
        d_carry = dh_prev

    return loss, grads, n_predictions
