"""Family-level contracts: exact causality, variant degeneracy, generation."""

import numpy as np
import pytest

from mixerlab import tensor as T
from mixerlab.data import PAD_ID
from mixerlab.models import (
    CausalMask,
    ModelConfig,
    autoencoder_forward,
    bidirectional_forward,
    build_model,
    count_params,
    forward,
    generate,
    intertoken_param_count,
    retrieval_mixer_forward,
    sequence_embedding,
)
from mixerlab.tensor import CHECK64, Tensor, backward


def tiny(family="masked_mixer", **kw):
    base = dict(family=family, d_model=16, n_layers=2, n_ctx=8, vocab=259)
    base.update(kw)
    return ModelConfig(**base)


def random_tokens(cfg, rng, exclude_pad=True):
    hi = min(cfg.vocab, 256) if exclude_pad else cfg.vocab
    return rng.integers(0, hi, size=cfg.n_ctx)


def causality_violations(model, rng, cases=20, direction="forward"):
    """Perturbation oracle: flip one token, count output rows that should
    have stayed bit-identical but did not."""
    cfg = model.config
    bad = 0
    for _ in range(cases):
        ids = random_tokens(cfg, rng)
        j = int(rng.integers(0, cfg.n_ctx))
        bumped = ids.copy()
        bumped[j] = (bumped[j] + 1 + rng.integers(0, 9)) % min(cfg.vocab, 256)
        with T.no_grad():
            base = forward(model, ids)[0].data
            after = forward(model, bumped)[0].data
        for i in range(cfg.n_ctx):
            protected = i < j if direction == "forward" else i > j
            if protected and not np.array_equal(base[i], after[i]):
                bad += 1
    return bad


CAUSAL_VARIANTS = [
    ("flat", dict()),
    ("expansion2", dict(expansion=2)),
    ("multihead", dict(n_heads=2)),
    ("kernel2", dict(kernel_k=2)),
    ("kernel4", dict(kernel_k=4)),
    ("softmax_weights", dict(softmax_weights=True)),
]


@pytest.mark.parametrize("name,kw", CAUSAL_VARIANTS)
def test_mixer_variants_exactly_causal(name, kw):
    model = build_model(tiny(**kw), seed=3, dtype=CHECK64)
    assert causality_violations(model, np.random.default_rng(5), cases=12) == 0


def test_transformer_exactly_causal():
    model = build_model(tiny("transformer", n_heads=2), seed=4, dtype=CHECK64)
    assert causality_violations(model, np.random.default_rng(6), cases=12) == 0


def test_reverse_mask_is_transpose_and_none_is_ones():
    assert np.array_equal(CausalMask("reverse").pattern(5, 5), CausalMask("forward").pattern(5, 5).T)
    assert np.all(CausalMask("none").pattern(4, 4) == 1.0)


# ---------------------------------------------------------------------------
# smoke and structural properties

def test_mixer_logits_finite_and_position_dependent():
    cfg = tiny(n_ctx=4)
    model = build_model(cfg, seed=0, dtype=CHECK64)
    logits, hiddens = forward(model, np.array([1, 2, 3, 4]))
    assert logits.data.shape == (4, cfg.vocab)
    assert np.all(np.isfinite(logits.data))
    assert not np.allclose(logits.data[0], logits.data[-1])
    assert len(hiddens) == cfg.n_layers + 2


def test_flat_vs_expanded_differ_but_both_causal():
    flat = build_model(tiny(), seed=7, dtype=CHECK64)
    wide = build_model(tiny(expansion=2), seed=7, dtype=CHECK64)
    ids = np.arange(8) % 13
    with T.no_grad():
        a = forward(flat, ids)[0].data
        b = forward(wide, ids)[0].data
    assert not np.allclose(a, b)
    rng = np.random.default_rng(8)
    assert causality_violations(wide, rng, cases=8) == 0


def test_degenerate_variants_collapse_to_flat():
    flat = build_model(tiny(), seed=11, dtype=CHECK64)
    degen = build_model(tiny(n_heads=1, kernel_k=1, expansion=1), seed=11, dtype=CHECK64)
    assert flat.params.keys() == degen.params.keys()
    for name in flat.params:
        assert np.array_equal(flat.params[name].data, degen.params[name].data), name
    ids = np.arange(8) % 13
    with T.no_grad():
        assert np.array_equal(forward(flat, ids)[0].data, forward(degen, ids)[0].data)


def test_softmax_weight_rows_normalized():
    cfg = tiny(softmax_weights=True, kernel_k=2)
    model = build_model(cfg, seed=12, dtype=CHECK64)
    w = model.params["blocks.0.mix.conv.w"]
    mask = CausalMask("forward").pattern(cfg.n_ctx, cfg.n_ctx)
    eff = T.softmax_conv_weights(w, mask).data
    assert np.all(eff >= 0)
    assert np.all(eff[mask == 0] == 0)
    assert np.allclose(eff.sum(axis=(1, 2)), 1.0, atol=1e-12)


def test_token_id_out_of_range_rejected():
    model = build_model(tiny(), seed=0)
    ids = np.zeros(8, dtype=np.int64)
    ids[3] = 259
    with pytest.raises(ValueError, match="out of range"):
        forward(model, ids)


def test_single_head_transformer_matches_concatenated_projection():
    cfg = tiny("transformer", n_heads=1)
    model = build_model(cfg, seed=13, dtype=CHECK64)
    ids = np.arange(8) % 13
    with T.no_grad():
        ref = forward(model, ids)[0].data
        again = forward(model, ids)[0].data
    assert np.array_equal(ref, again)


# ---------------------------------------------------------------------------
# bidirectional

def test_bidirectional_no_backfill_gradient_is_zero():
    cfg = tiny("bidirectional_mixer")
    model = build_model(cfg, seed=14, dtype=CHECK64)
    ids = np.arange(8) % 13
    e = T.embedding_lookup(model.params["wte"], ids)
    e_leaf = Tensor(e.data.copy(), requires_grad=True)
    # re-run the bidirectional combine from a leaf embedding
    from mixerlab.models import _run_stack

    hf = _run_stack(model, "fwd.", e_leaf, "forward", ids=ids)[-1]
    hr = _run_stack(model, "rev.", e_leaf, "reverse", ids=ids)[-1]
    combined = T.add(
        T.shift(T.matmul(hf, model.params["combine_fwd"]), axis=0, offset=1),
        T.shift(T.matmul(hr, model.params["combine_rev"]), axis=0, offset=-1),
    )
    logits = T.matmul(combined, model.params["lm_head"])
    n = 4
    backward(T.tsum(T.narrow(logits, 0, n, 1)))
    assert np.all(e_leaf.grad[n] == 0.0)
    assert np.any(e_leaf.grad[n - 1] != 0.0)


def test_bidirectional_forward_half_equals_standard_mixer():
    cfg = tiny("bidirectional_mixer")
    bidir = build_model(cfg, seed=15, dtype=CHECK64)
    std = build_model(tiny("masked_mixer"), seed=99, dtype=CHECK64)
    for name in std.params:
        src = name if name in ("wte", "lm_head") else "fwd." + name
        std.params[name].data = bidir.params[src].data.copy()
    ids = np.arange(8) % 13
    with T.no_grad():
        std_logits = forward(std, ids)[0].data
        _, aux = bidirectional_forward(bidir, ids)
        half = (aux["h_fwd"].data @ bidir.params["lm_head"].data)
    assert np.array_equal(std_logits, half)


def test_bidirectional_transformer_no_backfill():
    cfg = tiny("bidirectional_transformer", n_heads=2)
    model = build_model(cfg, seed=16, dtype=CHECK64)
    ids = np.arange(8) % 13
    from mixerlab.models import _run_stack

    e_leaf = Tensor(T.embedding_lookup(model.params["wte"], ids).data.copy(), requires_grad=True)
    hf = _run_stack(model, "fwd.", e_leaf, "forward", ids=ids)[-1]
    hr = _run_stack(model, "rev.", e_leaf, "reverse", ids=ids)[-1]
    combined = T.add(
        T.shift(T.matmul(hf, model.params["combine_fwd"]), axis=0, offset=1),
        T.shift(T.matmul(hr, model.params["combine_rev"]), axis=0, offset=-1),
    )
    logits = T.matmul(combined, model.params["lm_head"])
    backward(T.tsum(T.narrow(logits, 0, 3, 1)))
    assert np.all(e_leaf.grad[3] == 0.0)


# ---------------------------------------------------------------------------
# autoencoder

def test_autoencoder_decoder_input_rows_identical():
    cfg = tiny("mixer_autoencoder")
    model = build_model(cfg, seed=17, dtype=CHECK64)
    ids = np.arange(8) % 13
    with T.no_grad():
        logits, aux = autoencoder_forward(model, ids)
    rep = aux["decoder_input"].data
    assert np.all(rep == rep[0])
    assert logits.data.shape == (8, cfg.vocab)


def test_autoencoder_bottleneck_sees_first_token():
    cfg = tiny("mixer_autoencoder")
    model = build_model(cfg, seed=18, dtype=CHECK64)
    ids = np.arange(8) % 13
    bumped = ids.copy()
    bumped[0] = (bumped[0] + 5) % 13
    with T.no_grad():
        a = autoencoder_forward(model, ids)[1]["bottleneck"].data
        b = autoencoder_forward(model, bumped)[1]["bottleneck"].data
    assert not np.array_equal(a, b)


def test_autoencoder_bottleneck_uses_last_nonpad():
    cfg = tiny("mixer_autoencoder")
    model = build_model(cfg, seed=19, dtype=CHECK64)
    ids = np.array([1, 2, 3, 4, PAD_ID, PAD_ID, PAD_ID, PAD_ID])
    tail = ids.copy()
    tail[6] = PAD_ID  # still pad; bottleneck fixed at position 3
    with T.no_grad():
        enc = autoencoder_forward(model, ids)[1]
        h = enc["hiddens_enc"][-1].data
    assert np.array_equal(enc["bottleneck"].data.reshape(-1), h[3])


# ---------------------------------------------------------------------------
# retrieval mixer

def test_retrieval_mixer_output_lengths():
    for c in (32, 128):
        cfg = ModelConfig("retrieval_mixer", d_model=8, n_layers=1, n_ctx=c, vocab=3)
        model = build_model(cfg, seed=20)
        emb = np.random.default_rng(0).normal(size=(c, 8)).astype(np.float32)
        logits, _ = retrieval_mixer_forward(model, emb)
        assert logits.data.shape == (c,)


def test_retrieval_mixer_wrong_count_rejected():
    cfg = ModelConfig("retrieval_mixer", d_model=8, n_layers=1, n_ctx=16, vocab=3)
    model = build_model(cfg, seed=21)
    with pytest.raises(ValueError, match="candidate"):
        retrieval_mixer_forward(model, np.zeros((8, 8), dtype=np.float32))


def test_retrieval_mixer_uniform_weights_permutation_equivariant():
    cfg = ModelConfig("retrieval_mixer", d_model=6, n_layers=1, n_ctx=5, vocab=3)
    model = build_model(cfg, seed=22, dtype=CHECK64)
    for name, p in model.params.items():
        if name.endswith("conv.w"):
            p.data = np.ones_like(p.data) * 0.01
    rng = np.random.default_rng(23)
    emb = rng.normal(size=(5, 6))
    with T.no_grad():
        base = retrieval_mixer_forward(model, Tensor(emb))[0].data
    perm = np.array([0, 3, 1, 4, 2])
    with T.no_grad():
        permuted = retrieval_mixer_forward(model, Tensor(emb[perm]))[0].data
    assert np.allclose(permuted, base[perm], atol=1e-12)


# ---------------------------------------------------------------------------
# generation

def test_generate_zero_new_tokens_returns_prompt():
    model = build_model(tiny(), seed=24)
    prompt = np.array([1, 2, 3])
    assert np.array_equal(generate(model, prompt, 0), prompt)


def test_generate_matches_manual_stepwise_argmax():
    model = build_model(tiny(), seed=25, dtype=CHECK64)
    prompt = np.array([5, 6])
    out = generate(model, prompt, 3)
    seq = np.full(8, PAD_ID, dtype=np.int64)
    seq[:2] = prompt
    filled = 2
    for _ in range(3):
        with T.no_grad():
            logits, _ = forward(model, seq)
        seq[filled] = int(np.argmax(logits.data[filled - 1]))
        filled += 1
    assert np.array_equal(out, seq[:5].astype(np.int32))


def test_generate_context_overflow_rejected():
    model = build_model(tiny(), seed=26)
    with pytest.raises(ValueError, match="context"):
        generate(model, np.arange(6), 3)


# ---------------------------------------------------------------------------
# parameter counts and embeddings

@pytest.mark.parametrize("kw", [dict(), dict(kernel_k=2), dict(expansion=2), dict(n_heads=4), dict(family="bidirectional_mixer")])
def test_intertoken_param_count_closed_form(kw):
    cfg = tiny(**kw)
    model = build_model(cfg, seed=27)
    actual = sum(p.data.size for n, p in model.params.items() if ".w" in n and "conv" in n)
    assert actual == intertoken_param_count(cfg)


def test_flat_intertoken_count_formula():
    cfg = tiny(kernel_k=2)
    assert intertoken_param_count(cfg) == cfg.n_layers * cfg.kernel_k * cfg.n_ctx**2


def test_sequence_embedding_second_to_last_nonpad():
    cfg = tiny(padding_side="left")
    model = build_model(cfg, seed=28, dtype=CHECK64)
    ids = np.array([PAD_ID, PAD_ID, PAD_ID, PAD_ID, 1, 2, 3, 4])
    emb = sequence_embedding(model, ids)
    with T.no_grad():
        _, hiddens = forward(model, ids)
    assert np.array_equal(emb, hiddens[-1].data[6])


def test_sequence_embedding_needs_two_nonpad():
    model = build_model(tiny(), seed=29)
    ids = np.full(8, PAD_ID)
    ids[7] = 3
    with pytest.raises(ValueError, match="non-pad"):
        sequence_embedding(model, ids)


def test_config_validation():
    with pytest.raises(ValueError, match="expansion"):
        tiny(expansion=3)
    with pytest.raises(ValueError, match="divide"):
        tiny(n_heads=3)
    with pytest.raises(ValueError, match="kernel_k"):
        tiny(kernel_k=9)
    with pytest.raises(ValueError, match="family"):
        ModelConfig("mlp", 8, 1, 4)
    with pytest.raises(ValueError, match="combined"):
        tiny(expansion=2, n_heads=2)


def test_count_params_positive_and_deterministic():
    m1 = build_model(tiny(), seed=30)
    m2 = build_model(tiny(), seed=30)
    assert count_params(m1) == count_params(m2) > 0
    for name in m1.params:
        assert np.array_equal(m1.params[name].data, m2.params[name].data)


def test_full_model_gradient_matches_finite_differences():
    """End-to-end oracle: CLM loss gradient vs central differences (check64)."""
    cfg = ModelConfig("masked_mixer", d_model=6, n_layers=1, n_ctx=4, vocab=7)
    model = build_model(cfg, seed=31, dtype=CHECK64)
    model.freeze()
    ids = np.array([1, 2, 3, 4])
    targets = np.array([2, 3, 4, 5])

    worst = 0.0
    for name in model.params:
        def f(x, _name=name):
            saved = model.params[_name]
            model.params[_name] = x
            try:
                logits, _ = forward(model, ids)
                return T.cross_entropy(logits, targets)
            finally:
                model.params[_name] = saved

        probe = Tensor(model.params[name].data.copy(), requires_grad=True)
        worst = max(worst, T.grad_check(f, probe))
    assert worst <= 1e-4
