"""Model families built as composable forward graphs.

All families share one parameter-table representation. Causality is
enforced by multiplying a 0/1 mask into convolution weights (or attention
scores) inside the forward pass, so masked routes receive exactly zero
gradient and perturbing a masked-out position cannot change the output.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import PAD_ID, TokenSequence
from .tensor import TRAIN32, Tensor

# Every family is one block type ("mixer" or "transformer") wired into one
# topology: a causal LM, a bidirectional pair of stacks, an autoencoder or
# the retrieval scorer. The paper's comparisons fix the topology and swap
# the block; all family-dependent code reads these two values.
FAMILIES = {
    "masked_mixer": ("mixer", "causal"),
    "transformer": ("transformer", "causal"),
    "bidirectional_mixer": ("mixer", "bidirectional"),
    "bidirectional_transformer": ("transformer", "bidirectional"),
    "mixer_autoencoder": ("mixer", "autoencoder"),
    "transformer_autoencoder": ("transformer", "autoencoder"),
    "retrieval_mixer": ("mixer", "retrieval"),
}

FF_MULT = 4  # channel-mixing hidden width multiplier


@dataclass(frozen=True)
class CausalMask:
    """Direction of information flow for token mixing.

    forward keeps source positions j <= i, reverse keeps j >= i, and none
    keeps everything (used by the retrieval mixer).
    """

    direction: str

    def __post_init__(self):
        if self.direction not in ("forward", "reverse", "none"):
            raise ValueError(f"unknown mask direction {self.direction!r}")

    def pattern(self, out_n, in_n):
        if self.direction == "forward":
            return np.tril(np.ones((out_n, in_n)))
        if self.direction == "reverse":
            return np.triu(np.ones((out_n, in_n)))
        return np.ones((out_n, in_n))


@dataclass(frozen=True)
class ModelConfig:
    family: str
    d_model: int
    n_layers: int
    n_ctx: int
    vocab: int = 259
    n_heads: int = 1
    kernel_k: int = 1
    expansion: int = 1
    softmax_weights: bool = False
    padding_side: str = "right"
    bidir_separate_wte: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n_ctx < 2:
            raise ValueError(f"n_ctx must be >= 2, got {self.n_ctx}")
        if not 1 <= self.kernel_k <= self.n_ctx:
            raise ValueError(f"kernel_k must lie in [1, n_ctx], got {self.kernel_k}")
        if self.expansion not in (1, 2):
            raise ValueError(f"expansion must be 1 or 2, got {self.expansion}")
        if self.padding_side not in ("left", "right"):
            raise ValueError(f"padding_side must be left or right, got {self.padding_side!r}")
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ValueError(f"n_heads={self.n_heads} must divide d_model={self.d_model}")
        if self.expansion == 2 and self.n_heads > 1:
            raise ValueError("expanded token mixing cannot be combined with multiple heads")
        if self.softmax_weights and self.block != "mixer":
            raise ValueError("softmax-transformed convolution weights apply to mixer families only")
        if self.block == "transformer":
            if self.kernel_k != 1 or self.expansion != 1:
                raise ValueError("kernel_k and expansion are mixer knobs; transformers require 1")
            if (self.d_model // self.n_heads) % 2 != 0:
                raise ValueError("head width must be even for rotary pairing")

    @property
    def block(self):
        """The block type of every stack: "mixer" or "transformer"."""
        return FAMILIES[self.family][0]

    @property
    def topology(self):
        """How the stacks are wired: "causal", "bidirectional", "autoencoder" or "retrieval"."""
        return FAMILIES[self.family][1]


@dataclass
class Model:
    config: ModelConfig
    params: dict

    @property
    def dtype(self):
        return next(iter(self.params.values())).dtype

    def freeze(self):
        for p in self.params.values():
            p.requires_grad = False
        return self


def count_params(model):
    return int(sum(p.data.size for p in model.params.values()))


# ---------------------------------------------------------------------------
# construction

def _stack_param_specs(cfg, prefix, mixer):
    """Yield (name, shape, kind) for one block stack, in creation order."""
    d, s, k, e, h = cfg.d_model, cfg.n_ctx, cfg.kernel_k, cfg.expansion, cfg.n_heads
    for i in range(cfg.n_layers):
        p = f"{prefix}blocks.{i}."
        yield p + "ln1.gain", (d,), "one"
        yield p + "ln1.bias", (d,), "zero"
        if mixer:
            # convolutions are bias-free: a per-position constant on the
            # residual stream is erased by the pre-norms downstream
            if h > 1:
                yield p + "mix.w_in", (d, d), "linear"
                for j in range(h):
                    yield p + f"mix.conv{j}.w", (s, s, k), "linear"
                yield p + "mix.w_out", (d, d), "linear"
            elif e == 2:
                yield p + "mix.conv1.w", (2 * s, s, k), "linear"
                yield p + "mix.conv2.w", (s, 2 * s, k), "linear"
            else:
                yield p + "mix.conv.w", (s, s, k), "linear"
        else:
            yield p + "attn.wq", (d, d), "hf"
            yield p + "attn.wk", (d, d), "hf"
            yield p + "attn.wv", (d, d), "hf"
            yield p + "attn.wo", (d, d), "hf"
        yield p + "ln2.gain", (d,), "one"
        yield p + "ln2.bias", (d,), "zero"
        width = "linear" if mixer else "hf"
        yield p + "ff.w1", (d, FF_MULT * d), width
        yield p + "ff.b1", (FF_MULT * d,), "zero"
        yield p + "ff.w2", (FF_MULT * d, d), width
        yield p + "ff.b2", (d,), "zero"
    yield f"{prefix}ln_f.gain", (d,), "one"
    yield f"{prefix}ln_f.bias", (d,), "zero"


def _param_specs(cfg):
    d, v = cfg.d_model, cfg.vocab
    mixer = cfg.block == "mixer"
    if cfg.topology == "retrieval":
        yield from _stack_param_specs(cfg, "", mixer)
        yield "head", (d, 1), "linear"
        return
    # embedding convention follows each family's lineage: unit-normal for
    # mixer stacks, 0.02-normal for transformer stacks
    yield "wte", (d, v), "embedding" if mixer else "hf"
    if cfg.topology == "causal":
        yield from _stack_param_specs(cfg, "", mixer)
        yield "lm_head", (d, v), "head"
    elif cfg.topology == "bidirectional":
        yield from _stack_param_specs(cfg, "fwd.", mixer)
        if cfg.bidir_separate_wte:
            yield "wte_rev", (d, v), "embedding"
        yield from _stack_param_specs(cfg, "rev.", mixer)
        yield "combine_fwd", (d, d), "linear"
        yield "combine_rev", (d, d), "linear"
        yield "lm_head", (d, v), "head"
    else:  # autoencoder
        yield from _stack_param_specs(cfg, "enc.", mixer)
        yield from _stack_param_specs(cfg, "dec.", mixer)
        yield "lm_head", (d, v), "head"


def build_model(cfg, seed=0, dtype=TRAIN32):
    """Instantiate a model with seeded defaults-style initialization.

    Embedding tables are unit normal and block weights are fan-in-scaled
    uniform, so the residual stream and the block contributions start at
    comparable magnitudes (the regime in which input recoverability is a
    property of the mixing op, not of the identity path). Vocabulary heads
    use std 0.02 to keep fresh-model logits near uniform. Draw order equals
    parameter creation order, so a fixed seed gives bit-identical models.
    """
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape, kind in _param_specs(cfg):
        if kind == "one":
            data = np.ones(shape)
        elif kind == "zero":
            data = np.zeros(shape)
        elif kind == "embedding":
            data = rng.normal(0.0, 1.0, size=shape)
        elif kind in ("head", "hf"):
            data = rng.normal(0.0, 0.02, size=shape)
        else:  # fan-in uniform: matrices are (fan_in, fan_out), convs (out, in, k)
            fan_in = shape[1] * shape[2] if len(shape) == 3 else shape[0]
            bound = 1.0 / np.sqrt(fan_in)
            data = rng.uniform(-bound, bound, size=shape)
        params[name] = Tensor(data.astype(dtype), requires_grad=True)
    return Model(config=cfg, params=params)


# ---------------------------------------------------------------------------
# forward pieces

def _as_ids(tokens, cfg):
    """Token ids as (n_ctx,) for one sequence or (batch, n_ctx) for a batch."""
    ids = tokens.ids if isinstance(tokens, TokenSequence) else np.asarray(tokens, dtype=np.int64)
    if ids.ndim not in (1, 2) or ids.shape[-1] != cfg.n_ctx:
        raise ValueError(f"expected {cfg.n_ctx} tokens, got shape {ids.shape}")
    return ids


def _token_mix(params, prefix, h, cfg, mask_dir):
    mask = CausalMask(mask_dir)
    s = cfg.n_ctx
    if cfg.n_heads > 1:
        d_head = cfg.d_model // cfg.n_heads
        proj = T.matmul(h, params[prefix + "mix.w_in"])
        heads = []
        sq = mask.pattern(s, s)
        for j in range(cfg.n_heads):
            xh = T.narrow(proj, -1, j * d_head, d_head)
            heads.append(_one_conv(params, f"{prefix}mix.conv{j}.", xh, cfg, sq))
        return T.matmul(T.concat(heads, axis=-1), params[prefix + "mix.w_out"])
    if cfg.expansion == 2:
        up = _one_conv(params, prefix + "mix.conv1.", h, cfg, mask.pattern(2 * s, s))
        return _one_conv(params, prefix + "mix.conv2.", T.gelu(up), cfg, mask.pattern(s, 2 * s))
    return _one_conv(params, prefix + "mix.conv.", h, cfg, mask.pattern(s, s))


def _one_conv(params, prefix, x, cfg, mask):
    w = params[prefix + "w"]
    if cfg.softmax_weights:
        w = T.softmax_conv_weights(w, mask)
    return T.masked_conv1d(x, w, mask)


def _rope_cache(n_ctx, d_head, dtype):
    half = d_head // 2
    inv_freq = 10000.0 ** (-np.arange(half) / half)
    angles = np.outer(np.arange(n_ctx), inv_freq)
    cos = np.concatenate([np.cos(angles), np.cos(angles)], axis=1).astype(dtype)
    sin = np.concatenate([np.sin(angles), np.sin(angles)], axis=1).astype(dtype)
    rot = np.zeros((d_head, d_head))
    for c in range(half):
        rot[c + half, c] = -1.0
        rot[c, c + half] = 1.0
    return Tensor(cos), Tensor(sin), Tensor(rot.astype(dtype))


def _rope(x, cache):
    cos, sin, rot = cache
    return T.add(T.mul(x, cos), T.mul(T.matmul(x, rot), sin))


def _attention(params, prefix, h, cfg, allowed, rope):
    d_head = cfg.d_model // cfg.n_heads
    dtype = h.dtype
    m = Tensor(allowed.astype(dtype))
    fill = Tensor(((1.0 - allowed) * -T._NEG_BIG).astype(dtype))
    q = T.matmul(h, params[prefix + "wq"])
    k = T.matmul(h, params[prefix + "wk"])
    v = T.matmul(h, params[prefix + "wv"])
    outs = []
    for j in range(cfg.n_heads):
        qh = _rope(T.narrow(q, -1, j * d_head, d_head), rope)
        kh = _rope(T.narrow(k, -1, j * d_head, d_head), rope)
        vh = T.narrow(v, -1, j * d_head, d_head)
        scores = T.mul(T.matmul(qh, T.transpose(kh)), 1.0 / np.sqrt(d_head))
        att = T.softmax(T.add(T.mul(scores, m), fill), axis=-1)
        outs.append(T.matmul(att, vh))
    return T.matmul(T.concat(outs, axis=-1), params[prefix + "wo"])


def _allowed_attention(cfg, mask_dir, ids):
    """Attention mask: causal direction, pads excluded as keys, self always kept.

    (n_ctx, n_ctx) without ids, one such mask per sequence with them.
    """
    base = CausalMask(mask_dir).pattern(cfg.n_ctx, cfg.n_ctx)
    if ids is not None:
        keep_key = (np.asarray(ids) != PAD_ID).astype(float)
        base = base * np.maximum(keep_key[..., None, :], np.eye(cfg.n_ctx))
    return base


def _run_stack(model, prefix, e, mask_dir, ids=None):
    """Apply one block stack to embeddings e; returns per-layer hidden states.

    The returned list is [e, block_1, ..., block_n, final_norm]; the last
    entry is the stack's last hidden layer.
    """
    cfg = model.config
    params = model.params
    mixer = cfg.block == "mixer"
    rope = None if mixer else _rope_cache(cfg.n_ctx, cfg.d_model // cfg.n_heads, e.dtype)
    allowed = None if mixer else _allowed_attention(cfg, mask_dir, ids)
    hiddens = [e]
    x = e
    for i in range(cfg.n_layers):
        p = f"{prefix}blocks.{i}."
        h = T.layer_norm(x, params[p + "ln1.gain"], params[p + "ln1.bias"])
        if mixer:
            mixed = _token_mix(params, p, h, cfg, mask_dir)
        else:
            mixed = _attention(params, p + "attn.", h, cfg, allowed, rope)
        x = T.add(x, mixed)
        h2 = T.layer_norm(x, params[p + "ln2.gain"], params[p + "ln2.bias"])
        ff = T.matmul(T.gelu(T.add(T.matmul(h2, params[p + "ff.w1"]), params[p + "ff.b1"])), params[p + "ff.w2"])
        x = T.add(x, T.add(ff, params[p + "ff.b2"]))
        hiddens.append(x)
    hiddens.append(T.layer_norm(x, params[f"{prefix}ln_f.gain"], params[f"{prefix}ln_f.bias"]))
    return hiddens


def _nth_last_nonpad(ids, nth):
    """Position of each sequence's nth-from-last non-pad token (nth=1 is the last).

    Raises if a sequence holds fewer than `nth` non-pad tokens.
    """
    nonpad = np.asarray(ids) != PAD_ID
    seen = np.cumsum(nonpad, axis=-1)
    total = seen[..., -1:]
    if np.any(total < nth):
        raise ValueError(f"sequence must contain at least {nth} non-pad token(s)")
    return np.argmax(nonpad & (seen == total - (nth - 1)), axis=-1)


def _rows_at(h, positions):
    """Row positions[b] of each sequence b of h (..., S, d), as (..., 1, d).

    A one-hot weighted sum over the sequence axis: exact, and the gradient
    reaches only the selected rows.
    """
    pick = np.arange(h.data.shape[-2]) == np.asarray(positions)[..., None]
    return T.tsum(T.mul(h, Tensor(pick[..., None].astype(h.dtype))), axis=-2, keepdims=True)


# ---------------------------------------------------------------------------
# family forwards
#
# Every family takes ids of shape (n_ctx,) or (batch, n_ctx) and keeps the
# same leading axes on its outputs: logits are (..., n_ctx, vocab) and
# hidden states (..., n_ctx, d_model). Sequences in a batch never mix.

def forward_from_embedding(model, e, ids=None):
    """Causal logits and hidden states from embeddings, for both causal families.

    `ids` only masks pad keys in attention; mixers ignore it.
    """
    if model.config.topology != "causal":
        raise ValueError(f"embedding-level forward not defined for {model.config.family}")
    hiddens = _run_stack(model, "", e, "forward", ids=ids)
    logits = T.matmul(hiddens[-1], model.params["lm_head"])
    return logits, hiddens


def bidirectional_forward(model, tokens):
    """Predict every token from both sides, never from itself.

    The forward stack's state at n-1 and the reverse stack's state at n+1
    are joined by exactly one linear combination before the shared head,
    so position n's logits carry no gradient from token n's embedding.
    """
    cfg = model.config
    ids = _as_ids(tokens, cfg)
    params = model.params
    e_fwd = T.embedding_lookup(params["wte"], ids)
    wte_rev = params["wte_rev"] if cfg.bidir_separate_wte else params["wte"]
    e_rev = T.embedding_lookup(wte_rev, ids)
    h_fwd = _run_stack(model, "fwd.", e_fwd, "forward", ids=ids)[-1]
    h_rev = _run_stack(model, "rev.", e_rev, "reverse", ids=ids)[-1]
    combined = T.add(
        T.shift(T.matmul(h_fwd, params["combine_fwd"]), axis=-2, offset=1),
        T.shift(T.matmul(h_rev, params["combine_rev"]), axis=-2, offset=-1),
    )
    logits = T.matmul(combined, params["lm_head"])
    return logits, {"h_fwd": h_fwd, "h_rev": h_rev}


def _encode(model, ids):
    """Encoder hidden states and the bottleneck: each sequence's last non-pad state, (..., 1, d)."""
    e = T.embedding_lookup(model.params["wte"], ids)
    enc = _run_stack(model, "enc.", e, "forward", ids=ids)
    return enc, _rows_at(enc[-1], _nth_last_nonpad(ids, 1))


def autoencoder_forward(model, tokens):
    """Compress to the last non-pad token's state, then reconstruct all positions."""
    cfg = model.config
    ids = _as_ids(tokens, cfg)
    enc, bottleneck = _encode(model, ids)
    repeated = T.matmul(Tensor(np.ones((cfg.n_ctx, 1), dtype=bottleneck.dtype)), bottleneck)
    dec = _run_stack(model, "dec.", repeated, "forward", ids=ids)
    logits = T.matmul(dec[-1], model.params["lm_head"])
    return logits, {"bottleneck": bottleneck, "decoder_input": repeated, "hiddens_enc": enc, "hiddens_dec": dec}


def retrieval_mixer_forward(model, embeddings):
    """Score candidate sets; row 0 of each set is the query.

    Embeddings of shape (c, d) give length-c logits, (batch, c, d) give (batch, c).
    """
    cfg = model.config
    e = embeddings if isinstance(embeddings, Tensor) else Tensor(np.asarray(embeddings, dtype=TRAIN32))
    if e.data.ndim not in (2, 3) or e.data.shape[-2:] != (cfg.n_ctx, cfg.d_model):
        raise ValueError(f"expected {(cfg.n_ctx, cfg.d_model)} candidate embeddings, got {e.data.shape}")
    hiddens = _run_stack(model, "", e, "none")
    return T.reshape(T.matmul(hiddens[-1], model.params["head"]), e.data.shape[:-1]), hiddens


def forward(model, tokens):
    """Logits and auxiliary outputs of any token-input family, by its topology."""
    cfg = model.config
    if cfg.topology == "bidirectional":
        return bidirectional_forward(model, tokens)
    if cfg.topology == "autoencoder":
        return autoencoder_forward(model, tokens)
    if cfg.topology == "retrieval":
        raise ValueError(f"forward(model, tokens) undefined for family {cfg.family!r}; retrieval_mixer takes embeddings")
    ids = _as_ids(tokens, cfg)
    return forward_from_embedding(model, T.embedding_lookup(model.params["wte"], ids), ids=ids)


# ---------------------------------------------------------------------------
# inference helpers

def generate(model, prompt, n_new):
    """Greedy per-position fill: one full forward pass per generated token."""
    cfg = model.config
    prompt = np.asarray(prompt, dtype=np.int64)
    if prompt.ndim != 1:
        raise ValueError("prompt must be a flat token vector")
    if len(prompt) + n_new > cfg.n_ctx:
        raise ValueError(f"prompt ({len(prompt)}) + n_new ({n_new}) exceeds context {cfg.n_ctx}")
    if len(prompt) == 0:
        raise ValueError("prompt must contain at least one token")
    seq = np.full(cfg.n_ctx, PAD_ID, dtype=np.int64)
    seq[: len(prompt)] = prompt
    filled = len(prompt)
    with T.no_grad():
        for _ in range(n_new):
            logits, _ = forward(model, seq)
            seq[filled] = int(np.argmax(logits.data[filled - 1]))
            filled += 1
    return seq[:filled].astype(np.int32)


def _embed(model, tokens):
    cfg = model.config
    ids = _as_ids(tokens, cfg)
    if cfg.topology not in ("causal", "autoencoder"):
        raise ValueError(f"no embedding convention for family {cfg.family!r}")
    second_last = _nth_last_nonpad(ids, 2)  # also rejects sequences with fewer than two non-pad tokens
    if cfg.topology == "autoencoder":
        rows = _encode(model, ids)[1]
    else:
        e = T.embedding_lookup(model.params["wte"], ids)
        rows = _rows_at(_run_stack(model, "", e, "forward", ids=ids)[-1], second_last)
    return T.reshape(rows, ids.shape[:-1] + (cfg.d_model,))


def sequence_embedding(model, tokens):
    """Fixed-width embedding rows: (d,) for one sequence, (batch, d) for a batch.

    Mixers and transformers use the second-to-last non-pad token's last
    hidden state; autoencoders use the encoder bottleneck. Only the hidden
    states are computed, never the vocabulary logits. Every sequence must
    hold at least two non-pad tokens.
    """
    with T.no_grad():
        return _embed(model, tokens).data


def embedding_graph(model, tokens):
    """Like sequence_embedding but with gradients attached (contrastive training)."""
    return _embed(model, tokens)


def intertoken_param_count(cfg):
    """Closed-form count of token-mixing parameters (weights, before masking)."""
    s, k = cfg.n_ctx, cfg.kernel_k
    per_layer = cfg.n_heads * k * s * s if cfg.expansion == 1 else 2 * 2 * k * s * s
    stacks = 2 if cfg.topology in ("bidirectional", "autoencoder") else 1
    return cfg.n_layers * per_layer * stacks
