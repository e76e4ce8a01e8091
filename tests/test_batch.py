"""Batch-axis contracts: a (B, S) batch behaves exactly like B separate sequences.

Everything runs in float64 (check64): batched outputs match the row-by-row
path, rows never leak into each other, masked routes stay at exactly zero
gradient, pad-only rows never move a loss, and every batched op passes a
finite-difference gradient check.
"""

import numpy as np
import pytest

from mixerlab import tensor as T
from mixerlab.data import PAD_ID
from mixerlab.models import (
    ModelConfig,
    build_model,
    embedding_graph,
    forward,
    retrieval_mixer_forward,
    sequence_embedding,
    _mask_pattern,
)
from mixerlab.tensor import CHECK64, Tensor, backward, grad_check
from mixerlab.training import TrainConfig, batch_loss, many_token_logits

B = 3


def tiny(family="masked_mixer", **kw):
    base = dict(family=family, d_model=16, n_layers=2, n_ctx=8, vocab=259)
    base.update(kw)
    return ModelConfig(**base)


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def padded_batch(rng, n_ctx, side="right"):
    """B sequences with 8, 5 and 3 non-pad tokens (pads on `side`)."""
    rows = []
    for keep in (n_ctx, 5, 3)[:B]:
        ids = np.full(n_ctx, PAD_ID)
        toks = rng.integers(0, 256, size=keep)
        if side == "right":
            ids[:keep] = toks
        else:
            ids[n_ctx - keep:] = toks
        rows.append(ids)
    return np.stack(rows)


FAMILIES = [
    ("mixer_flat", tiny()),
    ("mixer_expansion2", tiny(expansion=2)),
    ("mixer_multihead", tiny(n_heads=2)),
    ("mixer_kernel3", tiny(kernel_k=3)),
    ("mixer_softmax_weights", tiny(softmax_weights=True)),
    ("transformer", tiny("transformer", n_heads=2)),
    ("bidirectional_mixer", tiny("bidirectional_mixer", kernel_k=3)),
    ("bidirectional_transformer", tiny("bidirectional_transformer", n_heads=2)),
    ("mixer_autoencoder", tiny("mixer_autoencoder")),
    ("transformer_autoencoder", tiny("transformer_autoencoder", n_heads=2)),
]


def _outputs(model, ids):
    logits, aux = forward(model, ids)
    out = {"logits": logits.data}
    if isinstance(aux, dict):
        out.update({k: v.data for k, v in aux.items() if isinstance(v, Tensor)})
    else:
        out["hidden"] = aux[-1].data
    return out


@pytest.mark.parametrize("name,cfg", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_batched_forward_matches_row_by_row(name, cfg):
    model = build_model(cfg, seed=1, dtype=CHECK64)
    ids = padded_batch(np.random.default_rng(2), cfg.n_ctx)
    with T.no_grad():
        batched = _outputs(model, ids)
        rows = [_outputs(model, row) for row in ids]
    for key, value in batched.items():
        assert value.shape[0] == B
        for b in range(B):
            np.testing.assert_allclose(value[b], rows[b][key], rtol=1e-12, atol=1e-12, err_msg=key)


def test_retrieval_mixer_batched_matches_row_by_row():
    cfg = ModelConfig("retrieval_mixer", d_model=6, n_layers=2, n_ctx=5, vocab=3, kernel_k=2)
    model = build_model(cfg, seed=3, dtype=CHECK64)
    emb = np.random.default_rng(4).normal(size=(B, 5, 6))
    with T.no_grad():
        batched = retrieval_mixer_forward(model, Tensor(emb))[0].data
        rows = [retrieval_mixer_forward(model, Tensor(e))[0].data for e in emb]
    assert batched.shape == (B, 5)
    for b in range(B):
        np.testing.assert_allclose(batched[b], rows[b], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("family", ["masked_mixer", "transformer", "mixer_autoencoder", "transformer_autoencoder"])
def test_batched_embeddings_match_row_by_row(family):
    cfg = tiny(family, padding_side="left", n_heads=2)
    model = build_model(cfg, seed=5, dtype=CHECK64)
    ids = padded_batch(np.random.default_rng(6), cfg.n_ctx, side="left")
    batched = sequence_embedding(model, ids)
    with_graph = embedding_graph(model, ids).data
    assert batched.shape == with_graph.shape == (B, cfg.d_model)
    for b in range(B):
        np.testing.assert_allclose(batched[b], sequence_embedding(model, ids[b]), rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(with_graph[b], batched[b])


def test_batched_embedding_rejects_a_short_row():
    model = build_model(tiny(), seed=7)
    ids = padded_batch(np.random.default_rng(8), 8)
    ids[1, 1:] = PAD_ID
    with pytest.raises(ValueError, match="non-pad"):
        sequence_embedding(model, ids)


def random_padded_ids(rng, n_ctx, batch, side):
    """(batch, n_ctx) ids, each row with 2 to n_ctx non-pad tokens, pads on `side`."""
    ids = np.full((batch, n_ctx), PAD_ID)
    for row, keep in zip(ids, rng.integers(2, n_ctx + 1, size=batch)):
        row[:keep] = rng.integers(0, 256, size=keep)
        if side == "left":
            row[:] = np.roll(row, n_ctx - keep)
    return ids


@pytest.mark.parametrize("family", ["masked_mixer", "transformer"])
def test_batched_embedding_prunes_last_block_to_one_row(monkeypatch, family):
    cfg = tiny(family, n_heads=2)
    model = build_model(cfg, seed=11)
    ids = random_padded_ids(np.random.default_rng(12), cfg.n_ctx, 5, "right")
    shapes = []
    feed_forward = T.feed_forward

    def probe(x, *params):
        shapes.append(x.data.shape)
        return feed_forward(x, *params)

    monkeypatch.setattr(T, "feed_forward", probe)
    sequence_embedding(model, ids)
    assert shapes == [(5, cfg.n_ctx, cfg.d_model), (5, 1, cfg.d_model)]


def mixed_pad_ids(rng, n_ctx, batch, side):
    """(batch, n_ctx) ids whose rows keep 5, n_ctx, 2, 3 and 7 non-pad tokens (pads on `side`)."""
    ids = np.full((batch, n_ctx), PAD_ID)
    for row, keep in zip(ids, (5, n_ctx, 2, 3, 7)[:batch]):
        row[:keep] = rng.integers(0, 256, size=keep)
        if side == "left":
            row[:] = np.roll(row, n_ctx - keep)
    return ids


@pytest.mark.parametrize("family", ["masked_mixer", "transformer"])
def test_batched_embedding_runs_leading_pad_rows_once(monkeypatch, family):
    """Before the last block, the feed-forward sees each sequence's rows from its
    first token on, plus every row of the sequence with the most leading pads."""
    cfg = tiny(family, n_heads=2, n_layers=3, padding_side="left")
    model = build_model(cfg, seed=11)
    ids = mixed_pad_ids(np.random.default_rng(12), cfg.n_ctx, 5, "left")
    lead = np.argmax(ids != PAD_ID, axis=1)
    assert list(lead) == [3, 0, 6, 5, 1]
    shapes = []
    feed_forward = T.feed_forward

    def probe(x, *params):
        shapes.append(x.data.shape)
        return feed_forward(x, *params)

    monkeypatch.setattr(T, "feed_forward", probe)
    sequence_embedding(model, ids)
    live = int(np.sum(cfg.n_ctx - lead) + lead.max())
    assert live == 31
    assert shapes == [(live, cfg.d_model), (live, cfg.d_model), (5, 1, cfg.d_model)]


PRUNED = {
    "masked_mixer": dict(n_heads=2),
    "mixer_flat": {},
    "mixer_expansion2": dict(expansion=2),
    "mixer_softmax_weights": dict(softmax_weights=True),
    "transformer": dict(family="transformer", n_heads=2),
}


@pytest.mark.parametrize("family", sorted(PRUNED))
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("batch", [1, 2, 5])
@pytest.mark.parametrize("n_layers", [0, 2, 3])
def test_pruned_embedding_matches_full_stack_rows(family, side, batch, n_layers):
    cfg = tiny(**{"family": "masked_mixer", "padding_side": side, "n_layers": n_layers, **PRUNED[family]})
    model = build_model(cfg, seed=13, dtype=CHECK64)
    ids = mixed_pad_ids(np.random.default_rng(14 + batch), cfg.n_ctx, batch, side)
    second_last = [np.flatnonzero(row != PAD_ID)[-2] for row in ids]
    with T.no_grad():
        full = forward(model, ids)[1][-1].data[np.arange(batch), second_last]
    rows = sequence_embedding(model, ids)
    assert rows.shape == (batch, cfg.d_model)
    np.testing.assert_allclose(rows, full, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(embedding_graph(model, ids).data, rows)


@pytest.mark.parametrize("family,first", [("masked_mixer", "blocks.0.mix.conv0.w"), ("transformer", "blocks.0.attn.wv")])
def test_grad_check_pruned_embedding(family, first):
    cfg = tiny(family, d_model=8, n_heads=2)
    model = build_model(cfg, seed=15, dtype=CHECK64)
    model.freeze()
    rng = np.random.default_rng(16)
    ids = random_padded_ids(rng, cfg.n_ctx, 3, "left")
    weights = t64(rng.normal(size=(3, cfg.d_model)))
    for name in (f"blocks.{cfg.n_layers - 1}.ff.w1", first):
        def f(x, _name=name):
            saved = model.params[_name]
            model.params[_name] = x
            try:
                return T.tsum(T.mul(embedding_graph(model, ids), weights))
            finally:
                model.params[_name] = saved

        assert grad_check(f, t64(model.params[name].data.copy(), True)) <= 1e-6, name


CAUSAL = [f for f in FAMILIES if f[1].family in ("masked_mixer", "transformer")]


@pytest.mark.parametrize("name,cfg", CAUSAL, ids=[n for n, _ in CAUSAL])
def test_no_cross_row_leakage_and_exact_causality(name, cfg):
    model = build_model(cfg, seed=9, dtype=CHECK64)
    rng = np.random.default_rng(10)
    for _ in range(6):
        ids = rng.integers(0, 256, size=(B, cfg.n_ctx))
        b, j = int(rng.integers(0, B)), int(rng.integers(0, cfg.n_ctx))
        bumped = ids.copy()
        bumped[b, j] = (bumped[b, j] + 1 + rng.integers(0, 9)) % 256
        with T.no_grad():
            base = forward(model, ids)[0].data
            after = forward(model, bumped)[0].data
        for other in range(B):
            if other != b:
                assert np.array_equal(base[other], after[other])
        assert np.array_equal(base[b, :j], after[b, :j])
        assert not np.array_equal(base[b, j:], after[b, j:])


def test_masked_conv_taps_zero_grad_with_batch():
    rng = np.random.default_rng(11)
    seq, d, k = 6, 5, 3
    mask = np.tril(np.ones((seq, seq)))
    x = t64(rng.normal(size=(B, seq, d)), requires_grad=True)
    w = t64(rng.normal(size=(seq, seq, k)), requires_grad=True)
    backward(T.tsum(T.mul(T.masked_conv1d(x, w, mask), t64(rng.normal(size=(B, seq, d))))))
    assert np.all(w.grad[mask == 0] == 0.0)
    assert np.any(w.grad[mask == 1] != 0.0)


def test_model_masked_taps_zero_grad_with_batch():
    cfg = tiny(kernel_k=3, expansion=2)
    model = build_model(cfg, seed=12, dtype=CHECK64)
    ids = padded_batch(np.random.default_rng(13), cfg.n_ctx)
    backward(batch_loss(model, ids, TrainConfig(objective="clm")))
    s = cfg.n_ctx
    for name, p in model.params.items():
        if name.endswith("conv1.w"):
            assert np.all(p.grad[_mask_pattern("forward", 2 * s, s) == 0] == 0.0), name
        elif name.endswith("conv2.w"):
            assert np.all(p.grad[_mask_pattern("forward", s, 2 * s) == 0] == 0.0), name


OBJECTIVES = [
    ("clm", tiny(), {}),
    ("multi_token", tiny(), {"multi_m": 2}),
    ("many_token", tiny(), {"prefix_len": 3}),
    ("many_token", tiny("transformer", n_heads=2), {"prefix_len": 5}),
    ("bidirectional", tiny("bidirectional_mixer"), {}),
    ("bidirectional", tiny("bidirectional_transformer", n_heads=2), {}),
    ("autoencoder", tiny("mixer_autoencoder"), {}),
    ("autoencoder", tiny("transformer_autoencoder", n_heads=2), {}),
]


@pytest.mark.parametrize("objective,cfg,kw", OBJECTIVES, ids=[f"{o}-{c.family}" for o, c, _ in OBJECTIVES])
def test_pad_only_rows_do_not_move_any_loss(objective, cfg, kw):
    model = build_model(cfg, seed=14, dtype=CHECK64)
    model.params["many_token_placeholder"] = t64(np.random.default_rng(15).normal(size=(1, cfg.d_model)), True)
    tc = TrainConfig(objective=objective, **kw)
    ids = padded_batch(np.random.default_rng(16), cfg.n_ctx)
    pads = np.full((2, cfg.n_ctx), PAD_ID)
    mixed = np.concatenate([pads[:1], ids[:2], pads[1:], ids[2:]])
    with T.no_grad():
        assert batch_loss(model, ids, tc).item() == batch_loss(model, mixed, tc).item()


def test_many_token_batched_logits_match_row_by_row():
    cfg = tiny()
    model = build_model(cfg, seed=17, dtype=CHECK64)
    model.params["many_token_placeholder"] = t64(np.random.default_rng(18).normal(size=(1, 16)), True)
    ids = padded_batch(np.random.default_rng(19), cfg.n_ctx)
    with T.no_grad():
        batched = many_token_logits(model, ids, 4).data
        for b in range(B):
            np.testing.assert_allclose(batched[b], many_token_logits(model, ids[b], 4).data, rtol=1e-12, atol=1e-12)


def test_batched_loss_and_grads_match_per_sequence_sum():
    """One batched CLM loss equals the token-weighted mean of per-sequence losses, grads included."""
    cfg = tiny(kernel_k=3)
    ids = padded_batch(np.random.default_rng(20), cfg.n_ctx)
    tc = TrainConfig(objective="clm")
    batched = build_model(cfg, seed=21, dtype=CHECK64)
    loss = batch_loss(batched, ids, tc)
    backward(loss)

    single = build_model(cfg, seed=21, dtype=CHECK64)
    counts = (ids[:, 1:] != PAD_ID).sum(axis=1)
    total = 0.0
    for row, count in zip(ids, counts):
        part = batch_loss(single, row[None, :], tc)
        backward(T.mul(part, float(count) / counts.sum()))
        total += part.item() * count / counts.sum()
    assert loss.item() == pytest.approx(total, rel=1e-13)
    for name, p in batched.params.items():
        np.testing.assert_allclose(p.grad, single.params[name].grad, rtol=1e-10, atol=1e-15, err_msg=name)


# ---------------------------------------------------------------------------
# gradient checks of the batched ops


def test_layer_norm_is_one_node():
    x = t64(np.ones((2, 3, 4)), requires_grad=True)
    gain, bias = t64(np.ones(4), True), t64(np.zeros(4), True)
    out = T.layer_norm(x, gain, bias)
    assert out._parents == (x, gain, bias)


def test_matmul_batched_right_operand_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2, 3, 4\).*\(2, 5, 6\)"):
        T.matmul(t64(np.zeros((2, 3, 4))), t64(np.zeros((2, 5, 6))))
    with pytest.raises(T.ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 6\)"):
        T.matmul(t64(np.zeros((2, 3, 4))), t64(np.zeros((3, 4, 6))))


def test_grad_check_matmul_3d_with_2d_right_operand():
    rng = np.random.default_rng(22)
    a0, b0, probe = rng.normal(size=(B, 4, 5)), rng.normal(size=(5, 3)), t64(rng.normal(size=(B, 4, 3)))
    assert grad_check(lambda a: T.tsum(T.mul(T.matmul(a, t64(b0)), probe)), t64(a0, True)) <= 1e-6
    assert grad_check(lambda b: T.tsum(T.mul(T.matmul(t64(a0), b), probe)), t64(b0, True)) <= 1e-6


def test_grad_check_matmul_3d_with_batched_right_operand():
    rng = np.random.default_rng(23)
    a0, b0, probe = rng.normal(size=(B, 4, 5)), rng.normal(size=(B, 5, 3)), t64(rng.normal(size=(B, 4, 3)))
    assert grad_check(lambda a: T.tsum(T.mul(T.matmul(a, t64(b0)), probe)), t64(a0, True)) <= 1e-6
    assert grad_check(lambda b: T.tsum(T.mul(T.matmul(t64(a0), b), probe)), t64(b0, True)) <= 1e-6
    # a 2-D left operand broadcast against a batched right operand
    c0 = rng.normal(size=(4, 5))
    assert grad_check(lambda c: T.tsum(T.mul(T.matmul(c, t64(b0)), probe)), t64(c0, True)) <= 1e-6


def test_grad_check_fused_layer_norm():
    rng = np.random.default_rng(24)
    x0, g0, b0 = rng.normal(size=(B, 4, 6)), rng.normal(size=6), rng.normal(size=6)
    probe = t64(rng.normal(size=(B, 4, 6)))
    assert grad_check(lambda x: T.tsum(T.mul(T.layer_norm(x, t64(g0), t64(b0)), probe)), t64(x0, True)) <= 1e-6
    assert grad_check(lambda g: T.tsum(T.mul(T.layer_norm(t64(x0), g, t64(b0)), probe)), t64(g0, True)) <= 1e-6
    assert grad_check(lambda b: T.tsum(T.mul(T.layer_norm(t64(x0), t64(g0), b), probe)), t64(b0, True)) <= 1e-6


@pytest.mark.parametrize("seq,d,k", [(5, 4, 3), (6, 2, 4)])  # the second has taps shifted past the channels
def test_grad_check_masked_conv_batched(seq, d, k):
    rng = np.random.default_rng(25)
    mask = np.tril(np.ones((seq, seq)))
    x0, w0 = rng.normal(size=(B, seq, d)), rng.normal(size=(seq, seq, k))
    probe = t64(rng.normal(size=(B, seq, d)))
    assert grad_check(lambda x: T.tsum(T.mul(T.masked_conv1d(x, t64(w0), mask), probe)), t64(x0, True)) <= 1e-6
    assert grad_check(lambda w: T.tsum(T.mul(T.masked_conv1d(t64(x0), w, mask), probe)), t64(w0, True)) <= 1e-6
    # the single contraction equals the per-tap sum of the definition, sequence by sequence
    for b in range(B):
        expect = sum((w0[:, :, t] * mask) @ np.pad(x0[b], ((0, 0), (t, 0)))[:, :d] for t in range(k))
        np.testing.assert_allclose(T.masked_conv1d(t64(x0[b]), t64(w0), mask).data, expect, rtol=1e-12, atol=1e-12)


def test_grad_check_embedding_lookup_2d_ids():
    rng = np.random.default_rng(26)
    ids = np.array([[3, 3, 0], [1, 4, 3]])
    probe = t64(rng.normal(size=(2, 3, 5)))
    out = T.embedding_lookup(t64(rng.normal(size=(5, 7))), ids)
    assert out.data.shape == (2, 3, 5)
    assert grad_check(lambda w: T.tsum(T.mul(T.embedding_lookup(w, ids), probe)), t64(rng.normal(size=(5, 7)), True)) <= 1e-6


def test_grad_check_cross_entropy_with_ignore_id():
    rng = np.random.default_rng(27)
    targets = np.array([2, 9, 0, 4, 9, 1])
    for reduction in ("mean", "sum"):
        def f(x, _r=reduction):
            return T.cross_entropy(x, targets, ignore_id=9, reduction=_r)

        assert grad_check(f, t64(rng.normal(size=(6, 5)), True)) <= 1e-6
