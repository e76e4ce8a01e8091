"""Model families built as composable forward graphs.

All families share one parameter-table representation. Causality is
enforced inside the forward pass, by multiplying a 0/1 mask into
convolution weights or by giving masked attention scores a weight of
exactly 0, so masked routes receive exactly zero gradient and perturbing a
masked-out position cannot change the output.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import PAD_ID, VOCAB_SIZE
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


@functools.lru_cache(maxsize=None)
def _mask_pattern(direction, out_n, in_n):
    """The (out_n, in_n) 0/1 float64 token-mixing mask: built once per shape and direction, and read-only.

    "forward" keeps source positions j <= i, "reverse" keeps j >= i, and
    "none" keeps everything (used by the retrieval mixer).
    """
    if direction == "forward":
        mask = np.tril(np.ones((out_n, in_n)))
    elif direction == "reverse":
        mask = np.triu(np.ones((out_n, in_n)))
    elif direction == "none":
        mask = np.ones((out_n, in_n))
    else:
        raise ValueError(f"unknown mask direction {direction!r}")
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True)
class ModelConfig:
    family: str
    d_model: int
    n_layers: int
    n_ctx: int
    vocab: int = VOCAB_SIZE
    n_heads: int = 1
    kernel_k: int = 1
    expansion: int = 1
    softmax_weights: bool = False
    padding_side: str = "right"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.d_model < 1:
            raise ValueError(f"d_model must be >= 1, got {self.d_model}")
        if self.n_layers < 0:  # 0 is legal: the stack is then its final norm alone
            raise ValueError(f"n_layers must be >= 0, got {self.n_layers}")
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
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim not in (1, 2) or ids.shape[-1] != cfg.n_ctx:
        raise ValueError(f"expected {cfg.n_ctx} tokens, got shape {ids.shape}")
    return ids


def _token_mix(params, prefix, h, cfg, mask_dir):
    """Token mixing of the mixer variants that stay a chain of nodes: several heads, or expansion 2."""
    s = cfg.n_ctx
    if cfg.n_heads > 1:
        d_head = cfg.d_model // cfg.n_heads
        proj = T.matmul(h, params[prefix + "mix.w_in"])
        heads = []
        sq = _mask_pattern(mask_dir, s, s)
        for j in range(cfg.n_heads):
            xh = T.narrow(proj, -1, j * d_head, d_head)
            heads.append(_one_conv(params, f"{prefix}mix.conv{j}.", xh, cfg, sq))
        return T.matmul(T.concat(heads, axis=-1), params[prefix + "mix.w_out"])
    up = _one_conv(params, prefix + "mix.conv1.", h, cfg, _mask_pattern(mask_dir, 2 * s, s))
    return _one_conv(params, prefix + "mix.conv2.", T.gelu(up), cfg, _mask_pattern(mask_dir, s, 2 * s))


def _conv_weight(params, prefix, cfg, mask):
    w = params[prefix + "w"]
    return T.softmax_conv_weights(w, mask) if cfg.softmax_weights else w


def _one_conv(params, prefix, x, cfg, mask):
    return T.masked_conv1d(x, _conv_weight(params, prefix, cfg, mask), mask)


@functools.lru_cache(maxsize=None)
def _rope_cache(n_ctx, d_head, dtype):
    """Read-only (cos, sin) tables of shape (n_ctx, d_head) for `T.rope`."""
    half = d_head // 2
    inv_freq = 10000.0 ** (-np.arange(half) / half)
    angles = np.outer(np.arange(n_ctx), inv_freq)
    cos = np.concatenate([np.cos(angles), np.cos(angles)], axis=1).astype(dtype)
    sin = np.concatenate([np.sin(angles), np.sin(angles)], axis=1).astype(dtype)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def _allowed_attention(cfg, mask_dir, ids):
    """Attention mask: causal direction, pads excluded as keys, self always kept.

    (n_ctx, n_ctx) without ids, one such mask per sequence with them.
    """
    base = _mask_pattern(mask_dir, cfg.n_ctx, cfg.n_ctx)
    if ids is not None:
        keep_key = (np.asarray(ids) != PAD_ID).astype(float)
        base = base * np.maximum(keep_key[..., None, :], np.eye(cfg.n_ctx))
    return base


def _run_stack(model, prefix, e, mask_dir, ids=None, layer=-1, rows=None):
    """Apply one block stack to embeddings e; returns per-layer hidden states.

    The full list is [e, block_1, ..., block_n, final_norm]; the last
    entry is the stack's last hidden layer. The list ends at entry `layer`
    of the full list: the blocks after it and the final norm are not run.

    With `rows`, each sequence of a causal stack keeps only those rows once
    the last block has mixed tokens; the rest of that block and the final
    norm act on each row alone, so they run on the kept rows only, and so
    do the entries of the last block and of the final norm. `rows` is
    either a slice of positions, the same in every sequence (the positions
    a causal loss scores), or the `_row_index` of one position per sequence
    of a (batch, n_ctx) id array (an embedding row, (..., 1, d)). With a
    `_row_index` the blocks before the last run their feed-forward only on
    the rows `_shared_pad_rows` keeps; a loss does not share pad rows,
    since that would sum their gradients in another order.
    """
    cfg = model.config
    params = model.params
    n_states = cfg.n_layers + 2
    if not -n_states <= layer < n_states:
        raise ValueError(f"layer {layer} out of range for {n_states} hidden states")
    last = layer % n_states
    mixer = cfg.block == "mixer"
    rope = None if mixer else _rope_cache(cfg.n_ctx, cfg.d_model // cfg.n_heads, e.dtype)
    allowed = None if mixer else _allowed_attention(cfg, mask_dir, ids)
    shared = None
    if isinstance(rows, slice):
        def select(h):
            return T.narrow(h, -2, rows.start, rows.stop - rows.start)
    elif rows is not None:
        def select(h):
            return T.take_rows(h, rows)
        shared = _shared_pad_rows(ids)
    hiddens = [e]
    x = e
    for i in range(min(last, cfg.n_layers)):
        p = f"{prefix}blocks.{i}."
        ln1 = params[p + "ln1.gain"], params[p + "ln1.bias"]
        if not mixer:
            attn = (params[p + "attn." + n] for n in ("wq", "wk", "wv", "wo"))
            x = T.attention_sublayer(x, *ln1, *attn, allowed, *rope, cfg.n_heads)
        elif cfg.n_heads > 1 or cfg.expansion == 2:
            x = T.add(x, _token_mix(params, p, T.layer_norm(x, *ln1), cfg, mask_dir))
        else:
            mask = _mask_pattern(mask_dir, cfg.n_ctx, cfg.n_ctx)
            x = T.conv_sublayer(x, *ln1, _conv_weight(params, p + "mix.conv.", cfg, mask), mask)
        ff = [params[p + n] for n in ("ln2.gain", "ln2.bias", "ff.w1", "ff.b1", "ff.w2", "ff.b2")]
        if rows is not None and i == cfg.n_layers - 1:
            x = T.feed_forward(select(x), *ff)
        elif shared is not None:
            live, expand = shared
            x = T.take_rows(T.feed_forward(T.take_rows(x, live), *ff), expand)
        else:
            x = T.feed_forward(x, *ff)
        hiddens.append(x)
    if rows is not None and cfg.n_layers == 0:
        x = select(x)
    if last == n_states - 1:
        hiddens.append(T.layer_norm(x, params[f"{prefix}ln_f.gain"], params[f"{prefix}ln_f.bias"]))
    return hiddens


def _shared_pad_rows(ids):
    """Flat row indices (live, expand) that run a causal batch's leading-pad rows once; None without them.

    A row before its sequence's first non-pad token sees only pad rows: a
    causal convolution reads only rows at or before it, and attention lets
    a pad query see only itself. So it holds the same values in every
    sequence of the batch, at every layer. `live` lists each sequence's
    rows from its first non-pad token on, plus every row of one sequence
    with the longest pad prefix, in flat (batch, n_ctx) order; `expand`
    is the (batch, n_ctx) position in `live` of each row, or of that
    sequence's row at the same position for a leading-pad row.
    """
    lead = np.argmax(ids != PAD_ID, axis=-1)  # leading pads; every sequence holds a non-pad token
    if not lead.any():
        return None
    longest = np.argmax(lead)
    live = np.arange(ids.shape[-1]) >= lead[:, None]
    live[longest] = True
    rank = (np.cumsum(live) - 1).reshape(live.shape)
    return np.flatnonzero(live), np.where(live, rank, rank[longest])


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


def _row_index(positions, n_ctx):
    """`take_rows` indices of row positions[b] of each sequence b: (..., S, d) rows give (..., 1, d)."""
    positions = np.asarray(positions)
    return (np.arange(positions.size).reshape(positions.shape) * n_ctx + positions)[..., None]


# ---------------------------------------------------------------------------
# family forwards
#
# Every family takes ids of shape (n_ctx,) or (batch, n_ctx) and keeps the
# same leading axes on its outputs: logits are (..., n_ctx, vocab) and
# hidden states (..., n_ctx, d_model). Sequences in a batch never mix.

def forward_from_embedding(model, e, ids=None, layer=None):
    """Causal logits and hidden states from embeddings, for both causal families.

    `ids` only masks pad keys in attention; mixers ignore it. With `layer`
    (an index into the full hidden-state list), only the blocks that state
    needs are run, the list ends at it and the logits are None.
    """
    if model.config.topology != "causal":
        raise ValueError(f"embedding-level forward not defined for {model.config.family}")
    if layer is not None:
        return None, _run_stack(model, "", e, "forward", ids=ids, layer=layer)
    hiddens = _run_stack(model, "", e, "forward", ids=ids)
    logits = T.matmul(hiddens[-1], model.params["lm_head"])
    return logits, hiddens


def _scored_logits(model, e, ids, rows):
    """Causal logits of the positions `rows` (a slice) only, (..., rows.stop - rows.start, vocab).

    The last block's feed-forward, the final norm and the head run on
    those rows alone (see `_run_stack`), with the arithmetic of
    `forward_from_embedding`. A product over fewer rows can still round
    differently where BLAS picks another kernel for its size.
    """
    return T.matmul(_run_stack(model, "", e, "forward", ids=ids, rows=rows)[-1], model.params["lm_head"])


def bidirectional_forward(model, tokens):
    """Predict every token from both sides, never from itself.

    The forward stack's state at n-1 and the reverse stack's state at n+1
    are joined by exactly one linear combination before the shared head,
    so position n's logits carry no gradient from token n's embedding.
    """
    ids = _as_ids(tokens, model.config)
    params = model.params
    # one lookup per stack: wte's gradient is the sum of two scatters, whose
    # rounding differs from one scatter of the summed stack gradients
    e_fwd = T.embedding_lookup(params["wte"], ids)
    e_rev = T.embedding_lookup(params["wte"], ids)
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
    return enc, T.take_rows(enc[-1], _row_index(_nth_last_nonpad(ids, 1), model.config.n_ctx))


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
    """Greedy per-position fill: one full forward pass per generated token, for causal families only."""
    cfg = model.config
    if cfg.topology != "causal":
        raise ValueError(f"generate needs a causal family, got {cfg.family!r}")
    prompt = np.asarray(prompt, dtype=np.int64)
    if prompt.ndim != 1:
        raise ValueError("prompt must be a flat token vector")
    if n_new < 0:
        raise ValueError(f"n_new must be >= 0, got {n_new}")
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
        if ids.ndim == 1:
            # One sequence keeps the full stack: its pruned products would
            # have one row, which BLAS computes as a matrix-vector product
            # that rounds differently from the full product, and the
            # embedding must equal `forward`'s hidden row bit for bit.
            rows = T.take_rows(_run_stack(model, "", e, "forward", ids=ids)[-1], _row_index(second_last, cfg.n_ctx))
        else:
            rows = _run_stack(model, "", e, "forward", ids=ids, rows=_row_index(second_last, cfg.n_ctx))[-1]
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
    """Token-mixing parameters (the mixers' convolution weights, before masking); 0 for transformer blocks."""
    return sum(int(np.prod(shape)) for name, shape, _ in _param_specs(cfg) if ".mix.conv" in name)
