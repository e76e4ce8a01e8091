"""Objective contracts, optimizer identities, and smoke convergence."""

import numpy as np
import pytest

from mixerlab import tensor as T
from mixerlab.data import PAD_ID, ChunkStore, build_corpus, chunk_and_pad
from mixerlab.models import FAMILIES, ModelConfig, build_model
from mixerlab.tensor import CHECK64, Tensor, backward
from mixerlab.training import (
    ADAM_BETAS,
    ADAM_EPS,
    OBJECTIVES,
    TrainConfig,
    TrainingDiverged,
    adamw_state,
    adamw_step,
    batch_loss,
    clip_global_norm,
    evaluate,
    many_token_logits,
    train,
)

LN_V = np.log(259)


def repeated_corpus(n_ctx=16):
    return build_corpus("a" * 2000, n_ctx=n_ctx, split_ratio=0.8, inline=True)


def diverse_corpus(n_ctx=16, size=4000, seed=0):
    rng = np.random.default_rng(seed)
    text = bytes(rng.integers(32, 127, size=size, dtype=np.uint8)).decode("ascii")
    return build_corpus(text, n_ctx=n_ctx, split_ratio=0.8, inline=True)


def mixer_cfg(**kw):
    base = dict(family="masked_mixer", d_model=32, n_layers=2, n_ctx=16, vocab=259)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# AdamW

def test_adamw_single_step_closed_form():
    cfg = TrainConfig(steps=10, lr=0.1, weight_decay=0.0)
    p = Tensor(np.array([2.0]), requires_grad=True)
    params = {"p": p}
    state = adamw_state(type("M", (), {"params": params})())
    g = np.array([0.5])
    adamw_step(params, {"p": g}, state, cfg, step=1, lr_t=0.1)
    b1, b2 = ADAM_BETAS
    m_hat = (1 - b1) * g / (1 - b1)
    v_hat = (1 - b2) * g * g / (1 - b2)
    expect = 2.0 - 0.1 * (m_hat / (np.sqrt(v_hat) + ADAM_EPS))
    assert p.data == pytest.approx(expect, abs=1e-12)
    assert state["p"]["m"] == pytest.approx((1 - b1) * g)
    assert state["p"]["v"] == pytest.approx((1 - b2) * g * g)


def test_adamw_zero_grad_zero_decay_is_noop():
    cfg = TrainConfig(steps=10, lr=0.1, weight_decay=0.0)
    p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    params = {"p": p}
    state = adamw_state(type("M", (), {"params": params})())
    adamw_step(params, {"p": np.zeros(2)}, state, cfg, step=1, lr_t=0.1)
    assert np.array_equal(p.data, np.array([1.5, -2.0]))


def test_adamw_quadratic_bowl_converges():
    cfg = TrainConfig(steps=500, lr=0.05, weight_decay=0.0)
    x = Tensor(np.array([4.0]), requires_grad=True)
    params = {"x": x}
    state = adamw_state(type("M", (), {"params": params})())
    for step in range(500):
        x.grad = None
        loss = T.mul(T.add(x, -3.0), T.add(x, -3.0))
        backward(loss)
        adamw_step(params, {"x": x.grad}, state, cfg, step + 1, cfg.lr_at(step, 0.05))
    assert abs(x.data[0] - 3.0) < 1e-3


def test_lr_schedule_linear_to_zero():
    cfg = TrainConfig(steps=100, lr=0.4)
    assert cfg.lr_at(0, 0.4) == pytest.approx(0.4)
    assert cfg.lr_at(50, 0.4) == pytest.approx(0.2)
    assert cfg.lr_at(100, 0.4) == 0.0


def test_grad_clip_rescales_to_unit_global_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([4.0])}
    total = clip_global_norm(grads, 1.0)
    assert total == pytest.approx(5.0)
    new_norm = np.sqrt(sum(np.sum(g**2) for g in grads.values()))
    assert new_norm == pytest.approx(1.0)


def test_grad_clip_preserves_dtype():
    grads = {"a": np.full(3, 5.0, dtype=np.float32)}
    clip_global_norm(grads, 1.0)
    assert grads["a"].dtype == np.float32


def test_training_preserves_param_dtype():
    model = build_model(mixer_cfg(), seed=30)
    train(model, repeated_corpus(), TrainConfig(objective="clm", steps=5, batch_size=4, lr=1e-2, seed=0))
    for n, p in model.params.items():
        assert p.data.dtype == np.float32, n


# ---------------------------------------------------------------------------
# CLM

def test_clm_smoke_repeated_byte_corpus():
    model = build_model(mixer_cfg(), seed=0)
    rep = train(model, repeated_corpus(), TrainConfig(objective="clm", steps=200, batch_size=8, lr=2e-3, eval_every=100, seed=0))
    assert rep.final_eval_loss() < 0.1


def test_clm_fresh_model_loss_in_ln_vocab_band():
    corpus = diverse_corpus()
    for seed in (0, 1):
        model = build_model(mixer_cfg(), seed=seed)
        rep = train(model, corpus, TrainConfig(objective="clm", steps=1, batch_size=8, seed=0))
        assert abs(rep.records[0].train_loss - LN_V) <= 0.1
        assert abs(rep.records[0].eval_loss - LN_V) <= 0.1


def test_clm_equal_budget_mixer_vs_transformer_both_learn():
    corpus = diverse_corpus(n_ctx=32, size=6000)
    mixer = build_model(ModelConfig("masked_mixer", d_model=256, n_layers=1, n_ctx=32, vocab=259), seed=0)
    tf = build_model(ModelConfig("transformer", d_model=128, n_layers=3, n_ctx=32, vocab=259, n_heads=4), seed=0)
    from mixerlab.models import count_params

    budget_m, budget_t = count_params(mixer), count_params(tf)
    assert abs(budget_m - budget_t) / max(budget_m, budget_t) < 0.05
    curves = {}
    for name, model in (("mixer", mixer), ("transformer", tf)):
        rep = train(model, corpus, TrainConfig(objective="clm", steps=60, batch_size=8, eval_every=30, seed=0))
        curves[name] = [r.eval_loss for r in rep.records]
        assert curves[name][-1] < LN_V
    assert len(curves["mixer"]) == len(curves["transformer"])  # comparative curve recorded


def test_loss_masking_pad_only_sequences_inert():
    model = build_model(mixer_cfg(), seed=3)
    rng = np.random.default_rng(4)
    batch = rng.integers(0, 256, size=(4, 16))
    padded = np.concatenate([batch, np.full((2, 16), PAD_ID)], axis=0)
    cfg = TrainConfig(objective="clm")
    with T.no_grad():
        a = batch_loss(model, batch, cfg).item()
        b = batch_loss(model, padded, cfg).item()
    assert a == b


def test_all_pad_batch_is_empty_loss_error():
    model = build_model(mixer_cfg(), seed=3)
    cfg = TrainConfig(objective="clm")
    with pytest.raises(ValueError, match="empty loss"):
        batch_loss(model, np.full((2, 16), PAD_ID), cfg)


def test_nan_loss_aborts_with_last_good_state():
    model = build_model(mixer_cfg(), seed=5)
    corpus = repeated_corpus()
    before = {n: p.data.copy() for n, p in model.params.items()}
    with pytest.raises(TrainingDiverged), np.errstate(all="ignore"):
        train(model, corpus, TrainConfig(objective="clm", steps=50, batch_size=8, lr=1e8, grad_clip=None, eval_every=100, seed=0))
    # restored to the last recorded snapshot (step 0 here)
    for n, p in model.params.items():
        assert np.array_equal(p.data, before[n])


# ---------------------------------------------------------------------------
# multi-token

def test_multi_token_m1_bit_equals_clm():
    corpus = diverse_corpus()
    model_a = build_model(mixer_cfg(), seed=6)
    model_b = build_model(mixer_cfg(), seed=6)
    rep_a = train(model_a, corpus, TrainConfig(objective="clm", steps=10, batch_size=4, eval_every=5, seed=1))
    rep_b = train(model_b, corpus, TrainConfig(objective="multi_token", multi_m=1, steps=10, batch_size=4, eval_every=5, seed=1))
    for ra, rb in zip(rep_a.records, rep_b.records):
        assert ra.train_loss == rb.train_loss
        assert ra.eval_loss == rb.eval_loss
    for n in model_a.params:
        assert np.array_equal(model_a.params[n].data, model_b.params[n].data)


def test_multi_token_m2_matches_manual_composition():
    corpus = diverse_corpus()
    train_store, _ = corpus
    model = build_model(mixer_cfg(), seed=7)
    cfg = TrainConfig(objective="multi_token", multi_m=2, steps=1, batch_size=4, seed=2)
    first_batch = train_store.ids[:4]
    with T.no_grad():
        got = batch_loss(model, first_batch, cfg).item()
        part1 = batch_loss(model, first_batch, TrainConfig(objective="multi_token", multi_m=1)).item()
    # second shift computed by hand from the same forward logits
    from mixerlab.models import forward

    sums, counts = 0.0, 0
    with T.no_grad():
        for ids in first_batch:
            logits, _ = forward(model, ids)
            targets = ids[2:]
            keep = targets != PAD_ID
            ce = T.cross_entropy(T.narrow(logits, 0, 0, 14), targets, ignore_id=PAD_ID, reduction="sum")
            sums += ce.item()
            counts += int(keep.sum())
    assert got == pytest.approx(part1 + sums / counts, rel=1e-6)


def test_multi_token_smoke_converges():
    model = build_model(mixer_cfg(), seed=8)
    rep = train(model, repeated_corpus(), TrainConfig(objective="multi_token", multi_m=2, steps=150, batch_size=8, lr=2e-3, eval_every=75, seed=0))
    assert rep.final_eval_loss() < 0.5


def test_multi_token_m_bound():
    with pytest.raises(ValueError, match="multi-token"):
        TrainConfig(objective="multi_token", multi_m=5)


# ---------------------------------------------------------------------------
# many-token

def test_many_token_boundary_single_position():
    model = build_model(mixer_cfg(), seed=9)
    corpus = diverse_corpus()
    cfg = TrainConfig(objective="many_token", prefix_len=15, steps=1, batch_size=2, seed=3)
    rep = train(model, corpus, cfg)
    assert np.isfinite(rep.records[0].train_loss)


def test_many_token_prefix_bounds_rejected():
    model = build_model(mixer_cfg(), seed=10)
    corpus = diverse_corpus()
    with pytest.raises(ValueError, match="prefix_len"):
        train(model, corpus, TrainConfig(objective="many_token", prefix_len=16, steps=1, seed=0))


def test_many_token_suffix_logits_ignore_suffix_tokens():
    model = build_model(mixer_cfg(), seed=11)
    rng = np.random.default_rng(12)
    model.params["many_token_placeholder"] = Tensor(
        rng.normal(0, 0.02, size=(1, 32)).astype(model.dtype), requires_grad=True
    )
    ids = rng.integers(0, 256, size=16)
    other = ids.copy()
    other[8:] = rng.integers(0, 256, size=8)
    with T.no_grad():
        a = many_token_logits(model, ids, 8).data
        b = many_token_logits(model, other, 8).data
    assert np.array_equal(a, b)


def test_many_token_smoke_suffix_loss_decreases():
    model = build_model(mixer_cfg(), seed=13)
    rep = train(model, repeated_corpus(), TrainConfig(objective="many_token", prefix_len=8, steps=120, batch_size=8, lr=2e-3, eval_every=60, seed=0))
    assert rep.final_eval_loss() < rep.records[0].eval_loss


# ---------------------------------------------------------------------------
# bidirectional

def bidir_no_backfill_violation(model, ids):
    from mixerlab.models import _run_stack

    e_leaf = Tensor(T.embedding_lookup(model.params["wte"], ids).data.copy(), requires_grad=True)
    hf = _run_stack(model, "fwd.", e_leaf, "forward", ids=ids)[-1]
    hr = _run_stack(model, "rev.", e_leaf, "reverse", ids=ids)[-1]
    combined = T.add(
        T.shift(T.matmul(hf, model.params["combine_fwd"]), axis=0, offset=1),
        T.shift(T.matmul(hr, model.params["combine_rev"]), axis=0, offset=-1),
    )
    logits = T.matmul(combined, model.params["lm_head"])
    n = len(ids) // 2
    backward(T.tsum(T.narrow(logits, 0, n, 1)))
    return float(np.abs(e_leaf.grad[n]).max())


def test_bidirectional_smoke_and_no_backfill_at_start_and_end():
    cfg = mixer_cfg(family="bidirectional_mixer")
    model = build_model(cfg, seed=14)
    ids = np.arange(16) % 256
    assert bidir_no_backfill_violation(model, ids) == 0.0
    rep = train(model, repeated_corpus(), TrainConfig(objective="bidirectional", steps=100, batch_size=8, lr=2e-3, eval_every=50, seed=0))
    assert rep.final_eval_loss() < LN_V
    assert bidir_no_backfill_violation(model, ids) == 0.0


def test_bidirectional_fresh_loss_in_band():
    cfg = mixer_cfg(family="bidirectional_mixer")
    model = build_model(cfg, seed=15)
    rep = train(model, diverse_corpus(), TrainConfig(objective="bidirectional", steps=1, batch_size=8, seed=0))
    assert abs(rep.records[0].eval_loss - LN_V) <= 0.1


# ---------------------------------------------------------------------------
# autoencoder

def copy_corpus(n_seqs=8, n_ctx=16, seed=20):
    rng = np.random.default_rng(seed)
    seqs = rng.integers(97, 123, size=(n_seqs, n_ctx))
    text = "".join(bytes(row).decode("ascii") for row in seqs)
    from mixerlab.data import ChunkStore, chunk_and_pad

    chunks = chunk_and_pad([b for row in seqs for b in row], n_ctx)
    store = ChunkStore(chunks)
    return store, store


def test_autoencoder_fresh_loss_in_band():
    model = build_model(mixer_cfg(family="mixer_autoencoder"), seed=16)
    rep = train(model, copy_corpus(), TrainConfig(objective="autoencoder", steps=1, batch_size=8, seed=0))
    assert abs(rep.records[0].train_loss - LN_V) <= 0.15


def test_autoencoder_smoke_reconstruction():
    from mixerlab.inversion import normalized_hamming
    from mixerlab.models import autoencoder_forward

    store, _ = copy_corpus()
    model = build_model(mixer_cfg(family="mixer_autoencoder"), seed=17)
    rep = train(model, (store, store), TrainConfig(objective="autoencoder", steps=250, batch_size=8, lr=2e-3, eval_every=125, seed=0))
    hams = []
    with T.no_grad():
        for i in range(len(store)):
            logits, _ = autoencoder_forward(model, store.ids[i])
            hams.append(normalized_hamming(store.ids[i], np.argmax(logits.data, axis=1)))
    assert np.mean(hams) <= 0.05


# ---------------------------------------------------------------------------
# reproducibility

def test_identical_seed_bit_identical_reports_check64():
    corpus = diverse_corpus()

    def run():
        model = build_model(mixer_cfg(), seed=18, dtype=CHECK64)
        rep = train(model, corpus, TrainConfig(objective="clm", steps=12, batch_size=4, eval_every=6, seed=4))
        return rep, model

    rep1, m1 = run()
    rep2, m2 = run()
    for r1, r2 in zip(rep1.records, rep2.records):
        assert r1.train_loss == r2.train_loss
        assert r1.eval_loss == r2.eval_loss
        assert r1.tokens_seen == r2.tokens_seen
    for n in m1.params:
        assert np.array_equal(m1.params[n].data, m2.params[n].data)


TRAINABLE = {
    ("masked_mixer", "clm"), ("transformer", "clm"),
    ("masked_mixer", "multi_token"), ("transformer", "multi_token"),
    ("masked_mixer", "many_token"), ("transformer", "many_token"),
    ("bidirectional_mixer", "bidirectional"), ("bidirectional_transformer", "bidirectional"),
    ("mixer_autoencoder", "autoencoder"), ("transformer_autoencoder", "autoencoder"),
}
FAMILY_OBJECTIVE = [(f, o) for f in FAMILIES for o in OBJECTIVES]


@pytest.mark.parametrize("family,objective", FAMILY_OBJECTIVE, ids=[f"{f}-{o}" for f, o in FAMILY_OBJECTIVE])
def test_family_objective_mismatch_rejected(family, objective):
    model = build_model(ModelConfig(family, d_model=16, n_layers=1, n_ctx=8, vocab=259), seed=19)
    cfg = TrainConfig(objective=objective, steps=1, batch_size=2, multi_m=2, prefix_len=4, seed=0)
    if (family, objective) in TRAINABLE:
        report = train(model, repeated_corpus(n_ctx=8), cfg)
        assert np.isfinite(report.step_losses[0][1])
    else:
        with pytest.raises(ValueError, match=f"objective '{objective}'"):
            train(model, repeated_corpus(n_ctx=8), cfg)


# ---------------------------------------------------------------------------
# evaluation

EVAL_FAMILY = {
    "clm": "masked_mixer", "multi_token": "masked_mixer", "many_token": "masked_mixer",
    "bidirectional": "bidirectional_mixer", "autoencoder": "mixer_autoencoder",
}


@pytest.mark.parametrize("objective", list(EVAL_FAMILY))
def test_evaluate_equals_one_batch_loss_over_the_store(objective):
    """Batches holding different numbers of targets still weigh every target once."""
    model = build_model(ModelConfig(EVAL_FAMILY[objective], d_model=8, n_layers=1, n_ctx=8, vocab=259), seed=40, dtype=CHECK64)
    model.params["many_token_placeholder"] = Tensor(np.full((1, 8), 0.01), requires_grad=True)
    rng = np.random.default_rng(41)
    store = ChunkStore(chunk_and_pad(rng.integers(0, 256, size=19).tolist(), 8))  # 8 + 8 + 3 tokens
    cfg = TrainConfig(objective=objective, batch_size=2, multi_m=2, prefix_len=2)
    with T.no_grad():
        whole = batch_loss(model, store.ids, cfg).item()
    assert evaluate(model, store, cfg) == pytest.approx(whole, abs=1e-12)


def test_eval_batch_without_targets_does_not_abort_training():
    corpus = build_corpus("abcdefgh" * 5 + "z", n_ctx=8, split_ratio=0.5, seed=3, inline=True)
    model = build_model(ModelConfig("masked_mixer", d_model=8, n_layers=1, n_ctx=8, vocab=259), seed=42)
    report = train(model, corpus, TrainConfig(objective="clm", steps=2, batch_size=2, seed=0))
    assert all(np.isfinite(r.eval_loss) for r in report.records)


def test_evaluate_store_without_targets_rejected():
    model = build_model(mixer_cfg(), seed=43)
    store = ChunkStore(chunk_and_pad([5], 16))
    with pytest.raises(ValueError, match="empty loss"):
        evaluate(model, store, TrainConfig(objective="clm"))
