"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (visible with
pytest -s); a failure reads as the criterion number plus the violated
bound. Headline large-corpus numbers are out of scope by design — these
are property checks and qualitative-ordering reproductions sized for a
laptop CPU.
"""

import time

import numpy as np
import pytest
from scipy.stats import chisquare

from mixerlab import tensor as T
from mixerlab.checkpoint import load_checkpoint, save_checkpoint
from mixerlab.data import ChunkStore, build_corpus, chunk_and_pad, pair_line_chunks, pairs_to_sequences, synthetic_pairs
from mixerlab.inversion import InversionConfig, decode_embedding, invert_input, normalized_hamming
from mixerlab.jl import jl_min_dim, jl_shorthand_dim
from mixerlab.models import (
    ModelConfig,
    build_model,
    count_params,
    forward,
)
from mixerlab.retrieval import (
    EmbeddingStore,
    InfoNCEConfig,
    center_and_normalize,
    embed_pair_store,
    eval_topk_accuracy,
    infonce_loss,
    retrieve_topk,
    sample_retrieval_batch,
    train_infonce,
)
from mixerlab.tensor import CHECK64, Tensor, backward, grad_check, pinv
from mixerlab.training import TrainConfig, batch_loss, train

LN_V = np.log(259)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


# ---------------------------------------------------------------------------
# 1. causality suite

CAUSAL_FAMILIES = {
    "flat": dict(family="masked_mixer"),
    "expansion2": dict(family="masked_mixer", expansion=2),
    "multihead": dict(family="masked_mixer", n_heads=2),
    "kernel1": dict(family="masked_mixer", kernel_k=1),
    "kernel2": dict(family="masked_mixer", kernel_k=2),
    "kernel4": dict(family="masked_mixer", kernel_k=4),
    "softmax_weights": dict(family="masked_mixer", softmax_weights=True),
    "transformer": dict(family="transformer", n_heads=2),
}


def _logits_fn(name, kw):
    """Build a check64 model and a tokens->logits function for the variant."""
    cfg = ModelConfig(d_model=16, n_layers=2, n_ctx=8, vocab=259, **kw)
    model = build_model(cfg, seed=hash(name) % 1000, dtype=CHECK64)

    def logits(ids):
        with T.no_grad():
            return forward(model, ids)[0].data

    return logits


def _reverse_logits_fn():
    """Reverse-masked mixer stack: causality runs right-to-left."""
    from mixerlab.models import _run_stack

    cfg = ModelConfig("masked_mixer", d_model=16, n_layers=2, n_ctx=8, vocab=259)
    model = build_model(cfg, seed=77, dtype=CHECK64)

    def logits(ids):
        with T.no_grad():
            e = T.embedding_lookup(model.params["wte"], ids)
            h = _run_stack(model, "", e, "reverse")[-1]
            return T.matmul(h, model.params["lm_head"]).data

    return logits


def test_criterion_1_causality_suite():
    start = time.time()
    total_cases = 0
    for name, kw in CAUSAL_FAMILIES.items():
        logits = _logits_fn(name, kw)
        rng = np.random.default_rng(sum(map(ord, name)))
        for _ in range(50):
            ids = rng.integers(0, 256, size=8)
            j = int(rng.integers(0, 8))
            bumped = ids.copy()
            bumped[j] = (bumped[j] + 1 + int(rng.integers(0, 200))) % 256
            base, after = logits(ids), logits(bumped)
            for i in range(j):
                assert np.array_equal(base[i], after[i]), f"{name}: row {i} moved on perturbing {j}"
            total_cases += 1
    # reverse-masked stack: rows after the perturbed position stay fixed
    logits = _reverse_logits_fn()
    rng = np.random.default_rng(123)
    for _ in range(50):
        ids = rng.integers(0, 256, size=8)
        j = int(rng.integers(0, 8))
        bumped = ids.copy()
        bumped[j] = (bumped[j] + 7) % 256
        base, after = logits(ids), logits(bumped)
        for i in range(j + 1, 8):
            assert np.array_equal(base[i], after[i]), f"reverse: row {i} moved on perturbing {j}"
        total_cases += 1
    elapsed = time.time() - start
    assert elapsed < 120
    report(1, f"{total_cases} randomized perturbation cases over 9 variants, all exactly zero ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 2. gradient suite

def test_criterion_2_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(0)

    def t64(a, g=False):
        return Tensor(np.asarray(a, dtype=np.float64), requires_grad=g)

    probe = t64(rng.normal(size=(4, 6)))
    mask = np.tril(np.ones((4, 4)))
    conv_probe = t64(rng.normal(size=(4, 6)))
    gain, bias = t64(rng.normal(size=6)), t64(rng.normal(size=6))
    mat_b = t64(rng.normal(size=(6, 3)))
    mat_probe = t64(rng.normal(size=(4, 3)))
    primitive_checks = {
        "matmul": lambda x: T.tsum(T.mul(T.matmul(x, mat_b), mat_probe)),
        "softmax": lambda x: T.tsum(T.mul(T.softmax(x, axis=1), probe)),
        "cross_entropy": lambda x: T.cross_entropy(x, [1, 2, 0, 5], ignore_id=5),
        "gelu": lambda x: T.tsum(T.mul(T.gelu(x), probe)),
        "layer_norm": lambda x: T.tsum(T.mul(T.layer_norm(x, gain, bias), probe)),
        "exp": lambda x: T.tsum(T.mul(T.exp(x), probe)),
        "log": lambda x: T.tsum(T.mul(T.log(T.add(T.mul(x, x), 1.0)), probe)),
        "abs": lambda x: T.tsum(T.mul(T.absval(x), probe)),
        "mean": lambda x: T.mul(T.mean(x), 3.0),
        "conv": lambda x: T.tsum(T.mul(T.masked_conv1d(x, conv_w, mask), conv_probe)),
    }
    conv_w = t64(rng.normal(size=(4, 4, 2)))
    worst_primitive = 0.0
    for name, f in primitive_checks.items():
        x = t64(rng.normal(size=(4, 6)), g=True)
        err = grad_check(f, x)
        worst_primitive = max(worst_primitive, err)
        assert err <= 1e-6, f"{name}: {err:.2e}"
    # conv weight gradient
    xw = t64(rng.normal(size=(4, 4, 2)), g=True)
    xs = t64(rng.normal(size=(4, 6)))
    err = grad_check(lambda w: T.tsum(T.mul(T.masked_conv1d(xs, w, mask), conv_probe)), xw)
    assert err <= 1e-6
    worst_primitive = max(worst_primitive, err)

    # full-model CLM loss vs central differences
    cfg = ModelConfig("masked_mixer", d_model=6, n_layers=1, n_ctx=4, vocab=7)
    model = build_model(cfg, seed=31, dtype=CHECK64)
    model.freeze()
    ids, targets = np.array([1, 2, 3, 4]), np.array([2, 3, 4, 5])
    worst_model = 0.0
    for name in model.params:
        def f(x, _name=name):
            saved = model.params[_name]
            model.params[_name] = x
            try:
                logits, _ = forward(model, ids)
                return T.cross_entropy(logits, targets)
            finally:
                model.params[_name] = saved

        probe_p = Tensor(model.params[name].data.copy(), requires_grad=True)
        worst_model = max(worst_model, grad_check(f, probe_p))
    assert worst_model <= 1e-4
    elapsed = time.time() - start
    assert elapsed < 300
    report(2, f"primitives ≤ {worst_primitive:.1e} (bound 1e-6), full model ≤ {worst_model:.1e} (bound 1e-4) ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 3. inversion reproduction

def test_criterion_3_inversion_reproduction():
    start = time.time()
    rng = np.random.default_rng(42)
    inputs = [rng.integers(0, 256, size=32) for _ in range(10)]
    mixer = build_model(ModelConfig("masked_mixer", d_model=256, n_layers=2, n_ctx=32, vocab=259), seed=0)
    tfm = build_model(ModelConfig("transformer", d_model=256, n_layers=2, n_ctx=32, vocab=259, n_heads=4), seed=0)

    def mean_hamming(model):
        hams = []
        for i, ids in enumerate(inputs):
            rep = invert_input(model, ids, InversionConfig(n_iters=500, eta=0.1, seed=i))
            hams.append(rep.hamming)
        return float(np.mean(hams))

    h_mixer = mean_hamming(mixer)
    h_tfm = mean_hamming(tfm)
    elapsed = time.time() - start
    assert h_mixer <= 0.05, f"mixer mean hamming {h_mixer}"
    assert h_mixer < h_tfm, f"ordering violated: mixer {h_mixer} vs transformer {h_tfm}"
    assert elapsed < 900
    report(3, f"mixer mean hamming {h_mixer:.3f} ≤ 0.05 < transformer {h_tfm:.3f} over 10 inputs ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 4. pseudoinverse

def test_criterion_4_pseudoinverse():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        shape = (int(rng.integers(3, 12)), int(rng.integers(3, 12)))
        w = rng.normal(size=shape)
        wp = pinv(w)
        scale_w = np.abs(w).max()
        scale_p = np.abs(wp).max()
        worst = max(
            worst,
            np.abs(w @ wp @ w - w).max() / scale_w,
            np.abs(wp @ w @ wp - wp).max() / scale_p,
            np.abs((w @ wp).T - w @ wp).max() / scale_w,
            np.abs((wp @ w).T - wp @ w).max() / scale_p,
        )
    assert worst <= 1e-8

    for case in range(20):
        crng = np.random.default_rng(100 + case)
        d, v = int(crng.integers(6, 24)), int(crng.integers(2, 6))
        w = crng.normal(size=(d, v))  # full column rank with probability 1
        tokens = crng.integers(0, v, size=10)
        decoded = decode_embedding(w, w[:, tokens].T)
        assert normalized_hamming(tokens, decoded) == 0.0
    report(4, f"Penrose residuals ≤ {worst:.1e} (bound 1e-8); decode-encode exact on 20 cases")


# ---------------------------------------------------------------------------
# 5. contrastive-loss identities

def test_criterion_5_infonce_identities():
    d = 8
    ones = Tensor(np.ones(d))
    uniform = infonce_loss(ones, Tensor(np.ones(d)), [Tensor(np.ones(d)) for _ in range(31)], tau=0.02)
    assert abs(uniform.item() - np.log(32.0)) <= 1e-9
    separated = infonce_loss(ones, Tensor(np.ones(d)), [Tensor(-np.ones(d)) for _ in range(31)], tau=0.02)
    assert 0.0 <= separated.item() < 1e-40
    report(5, f"uniform loss = ln 32 ± {abs(uniform.item() - np.log(32)):.1e}; separation limit {separated.item():.1e} < 1e-40")


# ---------------------------------------------------------------------------
# 6. candidate-sampling statistics

def test_criterion_6_sampling_statistics():
    rng = np.random.default_rng(6)
    store = EmbeddingStore(queries=rng.normal(size=(24, 4)), targets=rng.normal(size=(24, 4)))
    leaks = 0
    for _ in range(10_000):
        n = int(rng.integers(0, 24))
        batch = sample_retrieval_batch(store, n, 6, rng)
        for i in range(1, 6):
            if i != batch.m and np.array_equal(batch.a[i], store.targets[n]):
                leaks += 1
    assert leaks == 0

    c = 6
    counts = np.zeros(c - 1)
    for _ in range(100_000):
        counts[sample_retrieval_batch(store, 0, c, rng).m - 1] += 1
    _, p = chisquare(counts)
    assert p > 0.001
    report(6, f"zero leakage over 10^4 batches; match-slot uniformity p = {p:.3f} > 0.001 over 10^5 draws")


# ---------------------------------------------------------------------------
# 7. batched retrieval vs naive oracle

def test_criterion_7_batched_retrieval():
    rng = np.random.default_rng(7)
    for _ in range(3):
        y = rng.normal(size=(64, 16))
        x = rng.normal(size=16)
        _, z = retrieve_topk(x, y, 64)
        x_hat = x / np.sqrt(np.sum(x * x))
        naive = np.array([np.sum((row / np.sqrt(np.sum(row * row))) * x_hat) for row in y])
        assert np.array_equal(z, naive)

    store = EmbeddingStore(queries=rng.normal(size=(300, 12)), targets=rng.normal(size=(300, 12)))
    rows = eval_topk_accuracy(store, [32, 256], trials=2000, rng=np.random.default_rng(70))
    details = []
    for n, trials, acc in rows:
        p = 1.0 / (n - 1)
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(acc - p) <= 3 * sigma, f"n={n}: {acc} vs chance {p}"
        details.append(f"top1@{n}={acc:.4f} (chance {p:.4f} ± {3 * sigma:.4f})")
    report(7, "batched cosine equals the pairwise oracle bit-for-bit; " + "; ".join(details))


# ---------------------------------------------------------------------------
# 8. smoke training

def test_criterion_8_smoke_training():
    start = time.time()
    corpus = build_corpus("a" * 2000, n_ctx=16, split_ratio=0.8, inline=True)
    cfg = ModelConfig("masked_mixer", d_model=32, n_layers=2, n_ctx=16, vocab=259)
    model = build_model(cfg, seed=0)
    rep = train(model, corpus, TrainConfig(objective="clm", steps=200, batch_size=8, lr=2e-3, eval_every=100, seed=0))
    assert rep.final_eval_loss() < 0.1

    # multi-token m=1 bit-equals CLM on the same seed and batch order
    rng = np.random.default_rng(1)
    text = bytes(rng.integers(32, 127, size=3000, dtype=np.uint8)).decode("ascii")
    div = build_corpus(text, n_ctx=16, split_ratio=0.8, inline=True)
    m_clm = build_model(cfg, seed=2)
    m_multi = build_model(cfg, seed=2)
    with T.no_grad():
        first = div[0].ids[:8]
        loss_clm = batch_loss(m_clm, first, TrainConfig(objective="clm")).item()
        loss_multi = batch_loss(m_multi, first, TrainConfig(objective="multi_token", multi_m=1)).item()
    assert loss_clm == loss_multi

    # bidirectional no-backfill gradient exactly zero at step 0 and after training
    from tests.test_training import bidir_no_backfill_violation

    bcfg = ModelConfig("bidirectional_mixer", d_model=32, n_layers=2, n_ctx=16, vocab=259)
    bmodel = build_model(bcfg, seed=3)
    ids = np.arange(16) % 256
    assert bidir_no_backfill_violation(bmodel, ids) == 0.0
    train(bmodel, corpus, TrainConfig(objective="bidirectional", steps=60, batch_size=8, lr=2e-3, eval_every=60, seed=0))
    assert bidir_no_backfill_violation(bmodel, ids) == 0.0
    report(8, f"CLM eval {rep.final_eval_loss():.4f} < 0.1 in 200 steps; m=1 ≡ CLM bit-exact; no-backfill exact at steps 0 and final ({time.time()-start:.0f}s)")


# ---------------------------------------------------------------------------
# 9. autoencoder ordering

def test_criterion_9_autoencoder_ordering():
    start = time.time()
    rng = np.random.default_rng(20)
    seqs = rng.integers(97, 123, size=(8, 16))
    chunks = chunk_and_pad([b for row in seqs for b in row], 16)
    store = ChunkStore(chunks)
    mix_cfg = ModelConfig("mixer_autoencoder", d_model=32, n_layers=1, n_ctx=16, vocab=259)
    tf_cfg = ModelConfig("transformer_autoencoder", d_model=28, n_layers=1, n_ctx=16, vocab=259, n_heads=2)
    budget_gap = abs(count_params(build_model(mix_cfg, 0)) - count_params(build_model(tf_cfg, 0)))
    assert budget_gap / count_params(build_model(mix_cfg, 0)) < 0.05  # matched budgets

    wins = 0
    pairs = []
    for seed in range(5):
        losses = {}
        for name, cfg in (("mixer", mix_cfg), ("transformer", tf_cfg)):
            model = build_model(cfg, seed=seed)
            rep = train(model, (store, store), TrainConfig(objective="autoencoder", steps=250, batch_size=8, lr=2e-3, eval_every=250, seed=seed))
            losses[name] = rep.final_eval_loss()
        wins += losses["mixer"] < losses["transformer"]
        pairs.append((losses["mixer"], losses["transformer"]))
    elapsed = time.time() - start
    assert wins >= 4, f"mixer won only {wins}/5: {pairs}"
    assert elapsed < 1200
    report(9, f"mixer reconstruction CE lower in {wins}/5 seeds at matched budgets ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 10. retrieval pipeline end-to-end

def test_criterion_10_retrieval_pipeline():
    from mixerlab.retrieval import pca_project, train_indirect

    start = time.time()
    rng = np.random.default_rng(7)
    pairs = synthetic_pairs(576, rng)
    train_pairs, eval_pairs = pairs[:512], pairs[512:]
    n_ctx = 22
    gen_cfg = ModelConfig("masked_mixer", d_model=64, n_layers=2, n_ctx=n_ctx, vocab=259, padding_side="left")
    gen = build_model(gen_cfg, seed=0)
    train(
        gen,
        (pair_line_chunks(train_pairs, n_ctx), pair_line_chunks(eval_pairs[:32], n_ctx)),
        TrainConfig(objective="clm", steps=1500, batch_size=16, lr=2e-3, eval_every=1500, seed=0),
    )
    tq, tt = pairs_to_sequences(train_pairs, n_ctx)
    eq, et = pairs_to_sequences(eval_pairs, n_ctx)

    # positive control: smoke-pretrained mixer + contrastive tuning
    cfg = InfoNCEConfig(steps=500, negatives=31, batches_per_update=1, lr=1e-4, eval_every=250, seed=0)
    train_infonce(gen, (tq, tt), cfg, eval_pairs=(eq, et))
    store_eval = center_and_normalize(embed_pair_store(gen, eq, et))
    acc = eval_topk_accuracy(store_eval, [32], trials=400, rng=np.random.default_rng(5))[0][2]
    chance = 1.0 / 31.0
    assert acc >= 3 * chance, f"top1@32 {acc} below 3x chance"

    # negative control: retrieval training over an un-pretrained model's
    # embeddings fails to improve its loss beyond the uniform level
    fresh = build_model(gen_cfg, seed=99)
    rand_train, rand_eval = pca_project(
        *center_and_normalize(embed_pair_store(fresh, tq, tt), embed_pair_store(fresh, eq, et)), dim=16
    )
    scorer = build_model(ModelConfig("retrieval_mixer", d_model=16, n_layers=1, n_ctx=32, vocab=3), seed=1)
    nrep = train_indirect(scorer, rand_train, rand_eval, steps=1500, batch_size=16, lr=3e-3, seed=11, eval_every=500)
    final = nrep.final_eval_loss()
    assert abs(final - np.log(32)) <= 0.05 * np.log(32), f"untrained-embedding control moved to {final}"
    elapsed = time.time() - start
    report(
        10,
        f"tuned top1@32 = {acc:.1%} ≥ 3x chance ({3 * chance:.1%}); untrained-model control stuck at "
        f"eval CE {final:.3f} ≈ ln 32 = {np.log(32):.3f} ({elapsed:.0f}s)",
    )


# ---------------------------------------------------------------------------
# 11. dimension calculator

def test_criterion_11_jl_calculator():
    import math

    for m, eps in ((10**10, 1.0), (15 * 10**12, 1.0), (10**6, 0.3), (37, 1.0)):
        assert jl_min_dim(m, eps) == math.ceil(8 * math.log(m) / eps**2)
    assert jl_shorthand_dim(10**10, 1.0) == 184
    assert jl_shorthand_dim(15 * 10**12, 1.0) == 240
    assert jl_shorthand_dim(15 * 10**18, 1.0) == 352
    assert (jl_min_dim(10**10, 1.0), jl_min_dim(15 * 10**12, 1.0), jl_min_dim(15 * 10**18, 1.0)) == (185, 243, 354)
    report(11, "bound exact; shorthand rounding reproduces 184/240/352 next to exact 185/243/354")


# ---------------------------------------------------------------------------
# 12. persistence and determinism

def test_criterion_12_checkpoint_and_determinism(tmp_path):
    model = build_model(ModelConfig("masked_mixer", d_model=16, n_layers=2, n_ctx=8, vocab=259), seed=9)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    rng = np.random.default_rng(12)
    text = bytes(rng.integers(32, 127, size=2000, dtype=np.uint8)).decode("ascii")
    corpus = build_corpus(text, n_ctx=8, split_ratio=0.8, inline=True)

    def run():
        m = build_model(ModelConfig("masked_mixer", d_model=16, n_layers=1, n_ctx=8, vocab=259), seed=4, dtype=CHECK64)
        return train(m, corpus, TrainConfig(objective="clm", steps=10, batch_size=4, eval_every=5, seed=5))

    r1, r2 = run(), run()
    assert [(rec.step, rec.train_loss, rec.eval_loss) for rec in r1.records] == [
        (rec.step, rec.train_loss, rec.eval_loss) for rec in r2.records
    ]
    assert r1.step_losses == r2.step_losses
    report(12, "checkpoint round trip byte-identical; identical seeds give bit-identical training metrics in check64")
