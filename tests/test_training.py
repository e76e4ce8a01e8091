"""Objective contracts, optimizer identities, and smoke convergence."""

import re

import numpy as np
import pytest

from mixerlab import tensor as T
from mixerlab import training
from mixerlab.data import PAD_ID, ChunkStore, build_corpus, chunk_and_pad
from mixerlab.models import FAMILIES, ModelConfig, build_model, forward, forward_from_embedding
from mixerlab.tensor import CHECK64, TRAIN32, Tensor, backward
from mixerlab.training import (
    ADAM_BETAS,
    ADAM_EPS,
    OBJECTIVES,
    WEIGHT_DECAY,
    TrainConfig,
    TrainingDiverged,
    adamw_state,
    adamw_step,
    batch_loss,
    _run_steps,
    clip_global_norm,
    evaluate,
    gradient_runs,
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

def _moments(state, name):
    """The (m, v) entries of parameter `name`, read through `state.span`."""
    a, b = state.span[name]
    return state.m[a:b], state.v[a:b]


def test_adamw_single_step_closed_form(monkeypatch):
    monkeypatch.setattr(training, "WEIGHT_DECAY", 0.0)
    p = Tensor(np.array([2.0]), requires_grad=True)
    params = {"p": p}
    state = adamw_state(type("M", (), {"params": params})())
    g = np.array([0.5])
    p.grad = g
    adamw_step(params, gradient_runs(params), state, step=1, lr_t=0.1)
    b1, b2 = ADAM_BETAS
    m_hat = (1 - b1) * g / (1 - b1)
    v_hat = (1 - b2) * g * g / (1 - b2)
    expect = 2.0 - 0.1 * (m_hat / (np.sqrt(v_hat) + ADAM_EPS))
    assert p.data == pytest.approx(expect, abs=1e-12)
    m, v = _moments(state, "p")
    assert m == pytest.approx((1 - b1) * g)
    assert v == pytest.approx((1 - b2) * g * g)


def test_adamw_zero_grad_zero_decay_is_noop(monkeypatch):
    monkeypatch.setattr(training, "WEIGHT_DECAY", 0.0)
    p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    params = {"p": p}
    state = adamw_state(type("M", (), {"params": params})())
    p.grad = np.zeros(2)
    adamw_step(params, gradient_runs(params), state, step=1, lr_t=0.1)
    assert np.array_equal(p.data, np.array([1.5, -2.0]))


def test_adamw_quadratic_bowl_converges(monkeypatch):
    monkeypatch.setattr(training, "WEIGHT_DECAY", 0.0)
    cfg = TrainConfig(steps=500, lr=0.05)
    x = Tensor(np.array([4.0]), requires_grad=True)
    params = {"x": x}
    state = adamw_state(type("M", (), {"params": params})())
    for step in range(500):
        x.grad = None
        loss = T.mul(T.add(x, -3.0), T.add(x, -3.0))
        backward(loss)
        adamw_step(params, gradient_runs(params), state, step + 1, cfg.lr_at(step, 0.05))
    assert abs(x.data[0] - 3.0) < 1e-3


def test_lr_schedule_linear_to_zero():
    cfg = TrainConfig(steps=100, lr=0.4)
    assert cfg.lr_at(0, 0.4) == pytest.approx(0.4)
    assert cfg.lr_at(50, 0.4) == pytest.approx(0.2)
    assert cfg.lr_at(100, 0.4) == 0.0


def _with_grads(grads):
    """Parameters named like `grads`, each holding its entry as `.grad`."""
    params = {}
    for name, g in grads.items():
        params[name] = Tensor(np.zeros_like(g), requires_grad=True)
        params[name].grad = g
    return params


def test_gradient_runs_split_at_a_parameter_without_a_gradient_in_the_model_order():
    params = _with_grads({"a": np.array([1.0, 2.0]), "b": np.array([3.0]), "c": np.array([4.0]), "d": np.array([[5.0, 6.0]])})
    params["c"].grad = None
    runs = gradient_runs(params)
    assert [names for names, _ in runs] == [["a", "b"], ["d"]]
    assert np.array_equal(runs[0][1], [1.0, 2.0, 3.0]) and np.array_equal(runs[1][1], [5.0, 6.0])


def test_grad_clip_rescales_to_unit_global_norm():
    params = _with_grads({"a": np.array([3.0, 0.0]), "b": np.array([4.0])})
    runs = gradient_runs(params)
    total = clip_global_norm(params, runs, 1.0)
    assert total == pytest.approx(5.0)
    new_norm = np.sqrt(sum(np.sum(g**2) for _, g in runs))
    assert new_norm == pytest.approx(1.0)


def test_grad_clip_preserves_dtype():
    params = _with_grads({"a": np.full(3, 5.0, dtype=np.float32)})
    runs = gradient_runs(params)
    clip_global_norm(params, runs, 1.0)
    assert runs[0][1].dtype == np.float32


def test_train_calls_clip_and_adamw_once_per_step_through_the_module(monkeypatch):
    """Timing wrappers set on the module attributes see every call the driver makes."""
    calls = {"clip_global_norm": 0, "adamw_step": 0}

    def counting(name):
        fn = getattr(training, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(training, name, counting(name))
    model = build_model(mixer_cfg(d_model=16, n_layers=1), seed=0)
    train(model, repeated_corpus(), TrainConfig(objective="clm", steps=3, batch_size=2, eval_every=3))
    assert calls == {"clip_global_norm": 3, "adamw_step": 3}


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_train_config_rejects_a_grad_clip_that_is_not_positive(value):
    with pytest.raises(ValueError, match="grad_clip must be > 0"):
        TrainConfig(grad_clip=value)


@pytest.mark.parametrize("value", [0.0, -1e-3, float("nan"), float("inf"), float("-inf")])
def test_train_config_rejects_a_rate_that_is_not_finite_and_positive(value):
    with pytest.raises(ValueError, match=re.escape(f"lr must be finite and > 0, got {value}")):
        TrainConfig(lr=value)


# ---------------------------------------------------------------------------
# flat-buffer AdamW against the per-parameter algorithm

SHAPES = {"a": (3, 4), "b": (5,), "c": (2, 3), "d": (4,)}
# Parameters that get no gradient: none (one run), one in the middle (two
# runs) or the last one (a run that ends early, like InfoNCE's lm_head).
NO_GRAD = {"one_run": (), "gap_in_the_middle": ("b",), "none_at_the_end": ("d",)}
STEPS = 6


def _lr_at(i):
    return 0.01 * (1.0 - i / STEPS)


def _initial_values(dtype):
    rng = np.random.default_rng(51)
    return {n: rng.normal(size=s).astype(dtype) for n, s in SHAPES.items()}


def _step_grads(dtype, no_grad):
    """One gradient dict per step, entries from 1e-8 to 1e2 in magnitude."""
    rng = np.random.default_rng(50)
    return [
        {
            n: (rng.normal(size=s) * 10.0 ** rng.uniform(-8, 2, size=s)).astype(dtype)
            for n, s in SHAPES.items()
            if n not in no_grad
        }
        for _ in range(STEPS)
    ]


def _oracle_step(values, moments, grads, max_norm, step, lr_t):
    """One step of clipping and AdamW written out one parameter at a time.

    Each expression evaluates in the order of the optimizer's in-place
    calls and in the parameter's dtype. Updates `values` and `moments`.
    """
    if max_norm is not None:
        total = np.sqrt(sum(float(np.sum(np.square(g, dtype=np.float64))) for g in grads.values()))
        if total > max_norm:
            grads = {n: g * g.dtype.type(max_norm / total) for n, g in grads.items()}
    b1, b2 = ADAM_BETAS
    for n, g in grads.items():
        m, v = moments[n]
        m = m * b1 + g * (1.0 - b1)
        v = v * b2 + g * g * (1.0 - b2)
        update = m / (1.0 - b1**step) / (np.sqrt(v / (1.0 - b2**step)) + ADAM_EPS) + values[n] * WEIGHT_DECAY
        values[n] = values[n] - update * lr_t
        moments[n] = (m, v)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


OPTIMIZER_CASES = pytest.mark.parametrize(
    "dtype,no_grad,max_norm",
    [(d, g, c) for d in (np.float32, np.float64) for g in NO_GRAD for c in (1.0, None)],
    ids=[f"{np.dtype(d).name}-{g}-{'clip' if c else 'no_clip'}" for d in (np.float32, np.float64) for g in NO_GRAD for c in (1.0, None)],
)


@OPTIMIZER_CASES
def test_training_driver_matches_per_parameter_adamw_bit_for_bit(dtype, no_grad, max_norm):
    """The shared step loop over a loss sum(p * G), whose gradient in each p is exactly G."""
    values = _initial_values(dtype)
    step_grads = _step_grads(dtype, NO_GRAD[no_grad])
    params = {n: Tensor(x.copy(), requires_grad=True) for n, x in values.items()}
    stream = iter(step_grads)

    def step_loss():
        loss = None
        for n, g in next(stream).items():
            term = T.tsum(T.mul(params[n], Tensor(g)))
            loss = term if loss is None else T.add(loss, term)
        return loss

    cfg = TrainConfig(steps=STEPS, eval_every=STEPS, grad_clip=max_norm)
    _run_steps(type("M", (), {"params": params})(), cfg, _lr_at, step_loss, lambda: 0.0, tokens_per_step=1)
    moments = {n: (np.zeros_like(x), np.zeros_like(x)) for n, x in values.items()}
    for i, grads in enumerate(step_grads):
        _oracle_step(values, moments, grads, max_norm, i + 1, _lr_at(i))
    for n, p in params.items():
        assert _same_bits(p.data, values[n]), n


@OPTIMIZER_CASES
def test_adamw_step_and_clip_match_per_parameter_algorithm_bit_for_bit(dtype, no_grad, max_norm):
    """The public functions over `gradient_runs`, m and v included, through a restore from a snapshot.

    Before step 4 the parameters are rebound to copies of their values
    after step 1, as the divergence restore does. No array a parameter
    held before a step changes during it.
    """
    values = _initial_values(dtype)
    params = {n: Tensor(x.copy(), requires_grad=True) for n, x in values.items()}
    state = adamw_state(type("M", (), {"params": params})())
    moments = {n: (np.zeros_like(x), np.zeros_like(x)) for n, x in values.items()}
    for i, grads in enumerate(_step_grads(dtype, NO_GRAD[no_grad])):
        if i == 3:
            for n, p in params.items():
                p.data = snapshot[n].copy()
                values[n] = snapshot[n].copy()
        held = {n: p.data for n, p in params.items()}
        kept = {n: x.copy() for n, x in held.items()}
        _oracle_step(values, moments, grads, max_norm, i + 1, _lr_at(i))
        for n, p in params.items():
            p.grad = grads.get(n)
        runs = gradient_runs(params)
        if max_norm is not None:
            clip_global_norm(params, runs, max_norm)
        adamw_step(params, runs, state, i + 1, _lr_at(i))
        for n, p in params.items():
            m, v = _moments(state, n)
            assert _same_bits(held[n], kept[n]), (i, n)
            assert _same_bits(p.data, values[n]), (i, n)
            assert _same_bits(m.reshape(p.data.shape), moments[n][0]) and _same_bits(v.reshape(p.data.shape), moments[n][1]), (i, n)
        if i == 0:
            snapshot = {n: p.data.copy() for n, p in params.items()}


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


@pytest.mark.parametrize("bad_step", [1, 3, 5])
def test_eval_point_snapshots_keep_the_parameters_own_arrays(bad_step):
    """A divergence restores the very arrays the parameters held at the last eval point, which kept their values."""
    rng = np.random.default_rng(30)
    params = {n: Tensor(rng.normal(size=(3, 2)), requires_grad=True) for n in ("a", "b")}
    held = []  # (arrays, copies of their values) at each eval point

    def save_fn(model, tag):
        held.append(({n: p.data for n, p in model.params.items()}, {n: p.data.copy() for n, p in model.params.items()}))

    steps = iter(range(6))

    def step_loss():
        if next(steps) == bad_step:
            return Tensor(np.nan)
        return T.add(*(T.tsum(T.mul(p, p)) for p in params.values()))

    cfg = TrainConfig(steps=6, eval_every=2)
    with pytest.raises(TrainingDiverged, match=f"at step {bad_step}: non-finite loss"):
        _run_steps(type("M", (), {"params": params})(), cfg, _lr_at, step_loss, lambda: 0.0, tokens_per_step=1, save_fn=save_fn)
    assert len(held) == bad_step // 2 + 1
    assert all(params[n].data is held[-1][0][n] for n in params)
    for arrays, copies in held:
        for n in params:
            assert _same_bits(arrays[n], copies[n]), n


def test_divergence_names_a_non_finite_loss():
    model = build_model(mixer_cfg(), seed=5)
    # a rate beyond float32's range is infinite in the float32 update, which makes
    # every parameter non-finite at step 0, so step 1's loss is NaN
    cfg = TrainConfig(objective="clm", steps=5, batch_size=8, lr=1e300, eval_every=100, seed=0)
    with pytest.raises(TrainingDiverged, match="at step 1: non-finite loss;"), np.errstate(all="ignore"):
        train(model, repeated_corpus(), cfg)


def test_divergence_names_the_first_non_finite_parameter():
    model = build_model(mixer_cfg(), seed=5)
    before = {n: p.data.copy() for n, p in model.params.items()}
    for name, p in model.params.items():
        p.requires_grad = name in ("blocks.1.ff.b2", "lm_head")  # lm_head comes later in the model's order
    cfg = TrainConfig(objective="clm", steps=5, batch_size=8, lr=1e300, eval_every=1, seed=0)
    with pytest.raises(TrainingDiverged, match="at step 0: non-finite parameter blocks.1.ff.b2;"), np.errstate(all="ignore"):
        train(model, repeated_corpus(), cfg)
    for n, p in model.params.items():
        assert np.array_equal(p.data, before[n]), n


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


@pytest.mark.parametrize("field", ["steps", "batch_size", "eval_every"])
def test_train_config_counts_at_least_one(field):
    with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
        TrainConfig(**{field: 0})


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


@pytest.mark.parametrize("prefix_len", [None, 0, 8])
def test_rejected_many_token_run_adds_no_parameter(prefix_len):
    model = build_model(mixer_cfg(n_ctx=8), seed=10)
    names = list(model.params)
    with pytest.raises(ValueError, match="prefix_len"):
        train(model, repeated_corpus(n_ctx=8), TrainConfig(objective="many_token", prefix_len=prefix_len, steps=1, seed=0))
    assert list(model.params) == names


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


# ---------------------------------------------------------------------------
# scored rows only
#
# The causal losses run the last feed-forward, the final norm and the head
# on the scored rows only. The reference is the full forward cut down with
# `narrow`, as the losses computed it before. Each row's arithmetic is the
# same, and the rows left out carry zero gradient, but OpenBLAS picks its
# kernel by the size of a product: one of fewer than about 3.1e5
# multiply-adds runs the small-matrix kernel, and the large float64
# kernel's sum over rows depends on how many rows it is given, so a
# product that loses rows can round differently. At the size of the
# ledger's training runs (d16, n_ctx 8) every product of both paths runs
# the small-matrix kernel.

SCORED_OBJECTIVES = {"clm": 1, "multi_token-m2": 2, "multi_token-m4": 4, "many_token": 1}  # objective: multi_m


def _full_forward_terms(model, batch, cfg):
    """The causal loss terms cut from the full forward: every position's logits, then `narrow` to the scored ones."""
    n = model.config.n_ctx
    if cfg.objective == "many_token":
        p = cfg.prefix_len
        ones = Tensor(np.ones((len(batch), n - p, 1), dtype=model.dtype))
        suffix = T.matmul(ones, model.params["many_token_placeholder"])
        e = T.concat([T.embedding_lookup(model.params["wte"], batch[:, :p]), suffix], axis=-2)
        logits, _ = forward_from_embedding(model, e)
        return [(T.narrow(logits, -2, p - 1, n - p), batch[:, p:])]
    logits, _ = forward(model, batch)
    shifts = range(1, cfg.multi_m + 1) if cfg.objective == "multi_token" else [1]
    return [(T.narrow(logits, -2, 0, n - s), batch[:, s:]) for s in shifts]


def _scored_and_full(monkeypatch, objective, family, dtype, n_layers, side, d, n_ctx):
    """(loss, {name: gradient or None}, evaluate) of one batch_loss over a padded store, pruned and full.

    The store holds sequences of n_ctx down to 1 token and one pad-only sequence.
    """
    prefix = n_ctx // 2
    cfg = TrainConfig(objective=objective.split("-")[0], batch_size=3, multi_m=SCORED_OBJECTIVES[objective], prefix_len=prefix)
    heads = 1 if family == "masked_mixer" else 2
    model = build_model(ModelConfig(family, d_model=d, n_layers=n_layers, n_ctx=n_ctx, n_heads=heads), seed=50, dtype=dtype)
    rng = np.random.default_rng(51)
    model.params["many_token_placeholder"] = Tensor(rng.normal(0.0, 0.02, size=(1, d)).astype(dtype), requires_grad=True)
    lengths = (n_ctx, prefix + 1, prefix, n_ctx, 2, prefix - 1, 1)
    seqs = [chunk_and_pad(rng.integers(0, 256, size=k).tolist(), n_ctx, side)[0] for k in lengths]
    seqs.insert(2, np.full(n_ctx, PAD_ID, dtype=np.int32))
    store = ChunkStore(seqs)

    def run():
        loss = batch_loss(model, store.ids, cfg)
        backward(loss)
        grads = {name: p.grad for name, p in model.params.items()}
        for p in model.params.values():
            p.grad = None
        return loss.data, grads, evaluate(model, store, cfg)

    scored = run()
    monkeypatch.setattr(training, "_loss_terms", _full_forward_terms)
    return scored, run()


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("n_layers", [0, 2])
@pytest.mark.parametrize("dtype", [TRAIN32, CHECK64], ids=["float32", "float64"])
@pytest.mark.parametrize("family", ["masked_mixer", "transformer"])
@pytest.mark.parametrize("objective", list(SCORED_OBJECTIVES))
def test_causal_losses_equal_the_full_forward_bit_for_bit(monkeypatch, objective, family, dtype, n_layers, side):
    """batch_loss, every parameter gradient and evaluate keep the full forward's bits."""
    scored, full = _scored_and_full(monkeypatch, objective, family, dtype, n_layers, side, d=16, n_ctx=8)
    assert scored[0].tobytes() == full[0].tobytes()
    moved = [name for name, g in full[1].items() if (g is None) != (scored[1][name] is None)
             or g is not None and g.tobytes() != scored[1][name].tobytes()]
    assert not moved, f"gradients moved: {moved}"
    assert scored[2] == full[2]


@pytest.mark.parametrize("dtype", [TRAIN32, CHECK64], ids=["float32", "float64"])
@pytest.mark.parametrize("family", ["masked_mixer", "transformer"])
@pytest.mark.parametrize("objective", list(SCORED_OBJECTIVES))
def test_causal_losses_equal_the_full_forward_to_rounding_at_d64(monkeypatch, objective, family, dtype):
    """At d64 and n_ctx 22 the head's float64 weight gradient rounds by row count, so only values are compared."""
    scored, full = _scored_and_full(monkeypatch, objective, family, dtype, 2, "left", d=64, n_ctx=22)
    rtol = 1e-5 if dtype == TRAIN32 else 1e-12
    np.testing.assert_allclose(scored[0], full[0], rtol=rtol)
    for name, g in full[1].items():
        if g is None:
            assert scored[1][name] is None, name
        else:
            atol = rtol * np.abs(g).max()
            np.testing.assert_allclose(scored[1][name], g, rtol=rtol, atol=atol, err_msg=name)
    assert scored[2] == pytest.approx(full[2], rel=rtol)
