"""Candidate-set sampling statistics, contrastive-loss identities, ranking."""

import warnings
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import chisquare

from mixerlab import retrieval
from mixerlab import tensor as T
from mixerlab.models import ModelConfig, build_model, sequence_embedding
from mixerlab.retrieval import (
    EmbeddingStore,
    InfoNCEConfig,
    RetrievalBatch,
    center_and_normalize,
    embed_corpus,
    eval_topk_accuracy,
    infonce_loss,
    pca_project,
    retrieve_topk,
    sample_retrieval_batch,
    sample_sequence_batch,
    split_store,
    _others,
    train_indirect,
    train_infonce,
)
from mixerlab.tensor import Tensor, backward, grad_check
from mixerlab.training import TrainingDiverged
from test_tensor import graph_nodes


def toy_store(n=64, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingStore(queries=rng.normal(size=(n, d)), targets=rng.normal(size=(n, d)))


# ---------------------------------------------------------------------------
# EmbeddingStore and embed_corpus

def test_store_pairing_enforced():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="pair"):
        EmbeddingStore(queries=rng.normal(size=(4, 8)), targets=rng.normal(size=(5, 8)))


def test_embed_corpus_identical_sequences_identical_rows():
    cfg = ModelConfig("masked_mixer", d_model=16, n_layers=1, n_ctx=8, vocab=259, padding_side="left")
    model = build_model(cfg, seed=2)
    seq = np.array([256, 256, 256, 97, 98, 99, 100, 101])
    rows, kept = embed_corpus(model, [seq, seq.copy()])
    assert kept == [0, 1]
    assert np.array_equal(rows[0], rows[1])


def test_embed_corpus_skips_short_sequences():
    cfg = ModelConfig("masked_mixer", d_model=16, n_layers=1, n_ctx=8, vocab=259, padding_side="left")
    model = build_model(cfg, seed=3)
    good = np.array([256, 256, 256, 256, 97, 98, 99, 100])
    bad = np.array([256, 256, 256, 256, 256, 256, 256, 97])
    rows, kept = embed_corpus(model, [good, bad, good])
    assert kept == [0, 2]
    assert rows.shape == (2, 16)


def test_embed_corpus_checks_a_mixed_corpus_in_index_order(caplog):
    cfg = ModelConfig("masked_mixer", d_model=16, n_layers=2, n_ctx=8, vocab=259, padding_side="left")
    model = build_model(cfg, seed=6)
    rng = np.random.default_rng(6)

    def valid(n_tokens):
        s = np.full(8, 256)
        s[8 - n_tokens:] = rng.integers(0, 256, n_tokens)
        return s

    one_token = np.full(8, 256)
    one_token[-1] = 97
    corpus = [
        valid(8), np.full(8, 256), valid(2), rng.integers(0, 256, 7), one_token,
        valid(5), np.zeros((2, 8), dtype=np.int64), valid(3), np.full(8, 256), valid(6),
    ]
    with caplog.at_level("WARNING", logger="mixerlab.retrieval"):
        rows, kept = embed_corpus(model, corpus)
    assert kept == [0, 2, 5, 7, 9]
    short = "sequence must contain at least 2 non-pad token(s)"
    assert [r.getMessage() for r in caplog.records] == [
        f"skipping sequence 1: {short}",
        "skipping sequence 3: expected 8 tokens, got shape (7,)",
        f"skipping sequence 4: {short}",
        "skipping sequence 6: expected one sequence, got shape (2, 8)",
        f"skipping sequence 8: {short}",
    ]
    want = sequence_embedding(model, np.stack([corpus[i] for i in kept]))
    assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()


def test_embed_corpus_skips_out_of_vocab_ids_and_keeps_the_valid_rows_bit_for_bit(caplog):
    cfg = ModelConfig("masked_mixer", d_model=16, n_layers=2, n_ctx=8, vocab=259, padding_side="left")
    model = build_model(cfg, seed=8)
    rng = np.random.default_rng(8)
    valid = [np.concatenate([np.full(3, 256), rng.integers(0, 256, 5)]) for _ in range(40)]
    above, below, short_and_above = valid[0].copy(), valid[1].copy(), np.full(8, 256)
    above[-1], below[-2], short_and_above[-1] = 300, -1, 300
    corpus = valid[:10] + [above] + valid[10:25] + [np.arange(7), below, short_and_above] + valid[25:]
    with caplog.at_level("WARNING", logger="mixerlab.retrieval"):
        rows, kept = embed_corpus(model, corpus)
    assert kept == [*range(10), *range(11, 26), *range(29, 44)]
    assert [r.getMessage() for r in caplog.records] == [
        "skipping sequence 10: token id out of range for vocab 259",
        "skipping sequence 26: expected 8 tokens, got shape (7,)",
        "skipping sequence 27: token id out of range for vocab 259",
        "skipping sequence 28: sequence must contain at least 2 non-pad token(s)",
    ]
    want, _ = embed_corpus(model, valid)
    assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()


def test_id_stack_raises_the_first_failing_check_over_all_sequences():
    cfg = ModelConfig("masked_mixer", d_model=8, n_layers=1, n_ctx=8, vocab=259)
    good, above, short = np.arange(97, 105), np.full(8, 259), np.array([256] * 7 + [97])
    assert retrieval._id_stack([good, good], cfg).tolist() == [good.tolist()] * 2
    for seqs, message in [
        ([good, above, short, np.arange(7)], "expected 8 tokens, got shape (7,)"),
        ([good, above, short], "sequence must contain at least 2 non-pad token(s)"),
        ([good, above], "token id out of range for vocab 259"),
    ]:
        with pytest.raises(ValueError) as raised:
            retrieval._id_stack(seqs, cfg)
        assert str(raised.value) == message


def test_embed_corpus_all_skipped_gives_no_rows():
    cfg = ModelConfig("masked_mixer", d_model=16, n_layers=1, n_ctx=8, vocab=259, padding_side="left")
    rows, kept = embed_corpus(build_model(cfg, seed=7), [np.full(8, 256), np.arange(7)])
    assert kept == [] and rows.shape == (0, 16) and rows.dtype == np.float32


def test_embed_corpus_rows_track_weights():
    cfg = ModelConfig("masked_mixer", d_model=16, n_layers=1, n_ctx=8, vocab=259, padding_side="left")
    a = build_model(cfg, seed=4)
    b = build_model(cfg, seed=5)
    seq = np.array([256, 256, 256, 97, 98, 99, 100, 101])
    ra, _ = embed_corpus(a, [seq])
    rb, _ = embed_corpus(b, [seq])
    assert not np.allclose(ra, rb)


# ---------------------------------------------------------------------------
# candidate-set sampling (statistics)

def test_sample_batch_forced_match_position_c2():
    store = toy_store(n=8)
    rng = np.random.default_rng(8)
    for _ in range(20):
        batch = sample_retrieval_batch(store, 3, 2, rng)
        assert batch.m == 1
        assert np.array_equal(batch.a[1], store.targets[3])


def test_sample_batch_invariants_hold():
    store = toy_store(n=40)
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(0, 40))
        batch = sample_retrieval_batch(store, n, 8, rng)
        assert np.array_equal(batch.a[0], store.queries[n])
        assert np.array_equal(batch.a[batch.m], store.targets[n])
        # the true target never appears anywhere else
        for i in range(1, 8):
            if i != batch.m:
                assert not np.array_equal(batch.a[i], store.targets[n])


def test_sample_batch_match_never_leaks_into_negatives():
    store = toy_store(n=16)
    rng = np.random.default_rng(10)
    leaks = 0
    for _ in range(10_000):
        n = int(rng.integers(0, 16))
        batch = sample_retrieval_batch(store, n, 4, rng)
        for i in range(1, 4):
            if i != batch.m and np.array_equal(batch.a[i], store.targets[n]):
                leaks += 1
    assert leaks == 0


def test_sample_batch_match_position_uniform_chi_square():
    store = toy_store(n=12)
    rng = np.random.default_rng(11)
    c = 6
    counts = np.zeros(c - 1)
    for _ in range(100_000):
        counts[sample_retrieval_batch(store, 0, c, rng).m - 1] += 1
    _, p = chisquare(counts)
    assert p > 0.001


@pytest.mark.parametrize("size, n, count", [(9, 0, 4), (9, 8, 4), (9, 4, 8), (9, 0, 8), (9, 8, 8), (2, 1, 1)])
def test_others_draws_distinct_indices_never_n(size, n, count):
    rng = np.random.default_rng(40)
    for _ in range(200):
        r = _others(size, n, count, rng)
        assert len(r) == count and len(set(r)) == count
        assert n not in r and all(0 <= j < size for j in r)


def test_others_rejects_more_than_size_minus_one():
    with pytest.raises(ValueError):
        _others(9, 3, 9, np.random.default_rng(0))


@pytest.mark.parametrize("n", [-1, 9, 10])
def test_others_rejects_an_index_outside_range_size_before_drawing(n):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"pair index n must lie in \[0, 9\), got {n}$"):
        _others(9, n, 4, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("n", [-1, 8])
def test_sample_batch_and_sequence_batch_reject_a_pair_index_outside_the_store(n):
    """With n = -1 every draw used to shift up, so pair n's own target could land among the negatives."""
    with pytest.raises(ValueError, match=f"got {n}$"):
        sample_retrieval_batch(toy_store(n=8), n, 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"got {n}$"):
        sample_sequence_batch(np.arange(8 * 4).reshape(8, 4), n, 3, np.random.default_rng(0))


@pytest.mark.parametrize("c", [1, 0])
def test_sample_batch_rejects_fewer_than_two_candidates(c):
    with pytest.raises(ValueError, match=f"candidate count c must be >= 2 .*, got {c}$"):
        sample_retrieval_batch(toy_store(n=8), 0, c, np.random.default_rng(0))


def test_others_uniform_over_indices_and_subsets_chi_square():
    size, n, count = 7, 3, 2
    rng = np.random.default_rng(41)
    subsets = {c: i for i, c in enumerate(combinations([j for j in range(size) if j != n], count))}
    by_subset = np.zeros(len(subsets))
    by_index = np.zeros(size)
    for _ in range(30_000):
        r = _others(size, n, count, rng)
        by_subset[subsets[tuple(sorted(r))]] += 1
        by_index[r] += 1
    assert by_index[n] == 0
    assert chisquare(by_subset)[1] > 0.001
    assert chisquare(np.delete(by_index, n))[1] > 0.001


def test_sample_batch_c_too_large():
    store = toy_store(n=4)
    with pytest.raises(ValueError, match="candidate"):
        sample_retrieval_batch(store, 0, 6, np.random.default_rng(0))


def test_retrieval_batch_validation():
    for m in (0, 4):
        with pytest.raises(ValueError, match="match index"):
            RetrievalBatch(a=np.zeros((4, 2)), m=m)


# ---------------------------------------------------------------------------
# InfoNCE identities

def test_infonce_uniform_similarity_ln32():
    d = 6
    q = Tensor(np.ones(d))
    pos = Tensor(np.ones(d))
    negs = Tensor(np.ones((31, d)))
    loss = infonce_loss(q, pos, negs, tau=0.02)
    assert abs(loss.item() - np.log(32.0)) <= 1e-9


def test_infonce_separation_limit():
    d = 4
    q = Tensor(np.ones(d))
    pos = Tensor(np.ones(d))
    negs = Tensor(-np.ones((31, d)))
    loss = infonce_loss(q, pos, negs, tau=0.02)
    assert 0.0 <= loss.item() < 1e-40


def test_infonce_matches_naive_formula_at_tau_one():
    rng = np.random.default_rng(12)
    q = rng.normal(size=5)
    pos = rng.normal(size=5)
    negs = [rng.normal(size=5) for _ in range(4)]

    def cos(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    f_pos = np.exp(cos(q, pos))
    denom = f_pos + sum(np.exp(cos(q, n)) for n in negs)
    naive = -np.log(f_pos / denom)
    ours = infonce_loss(Tensor(q), Tensor(pos), Tensor(np.stack(negs)), tau=1.0).item()
    assert abs(ours - naive) <= 1e-10


def test_infonce_non_negative_and_decreasing_in_positive_similarity():
    rng = np.random.default_rng(13)
    q = rng.normal(size=6)
    negs = Tensor(np.stack([rng.normal(size=6) for _ in range(5)]))
    unit = q / np.linalg.norm(q)
    side = rng.normal(size=6)
    side -= (side @ unit) * unit
    side /= np.linalg.norm(side)
    prev = np.inf
    for angle in np.linspace(np.pi, 0.0, 7):  # the positive's cosine to q rises from -1 to 1
        pos = Tensor(2.0 * (np.cos(angle) * unit + np.sin(angle) * side))
        val = infonce_loss(Tensor(q), pos, negs, tau=0.5).item()
        assert 0.0 <= val < prev
        prev = val
    base_neg = Tensor(negs.data.copy())
    lo = infonce_loss(Tensor(q), Tensor(q * 0.999), base_neg, tau=0.5).item()
    hi = infonce_loss(Tensor(q), Tensor(-q), base_neg, tau=0.5).item()
    assert lo < hi


def logsumexp_infonce(q, pos, negs, tau):
    """The loss as the hand-built log-sum-exp over cosine logits that `cross_entropy` replaced."""
    d = q.data.shape[-1]
    query = T.reshape(q, q.data.shape[:-1] + (1, d))
    cands = T.concat([T.reshape(pos, pos.data.shape[:-1] + (1, d)), negs], axis=-2)
    num = T.tsum(T.mul(query, cands), axis=-1)
    qn = T.sqrt(T.tsum(T.mul(query, query), axis=-1))
    cn = T.sqrt(T.tsum(T.mul(cands, cands), axis=-1))
    sims = T.mul(T.div(num, T.mul(qn, cn)), 1.0 / tau)
    peak = Tensor(np.max(sims.data, axis=-1, keepdims=True))
    lse = T.add(T.log(T.tsum(T.exp(T.add(sims, T.neg(peak))), axis=-1, keepdims=True)), peak)
    losses = T.tsum(T.add(lse, T.neg(T.narrow(sims, -1, 0, 1))), axis=-1)
    return T.mean(losses) if losses.data.ndim else losses


@pytest.mark.parametrize("tau", [0.02, 0.5])
@pytest.mark.parametrize("form", ["single", "batched"])
def test_infonce_matches_logsumexp_form_in_float64(form, tau):
    rng = np.random.default_rng(15)
    if form == "single":
        q, pos = Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6))
        negs = Tensor(np.stack([rng.normal(size=6) for _ in range(5)]))
    else:
        q, pos, negs = Tensor(rng.normal(size=(3, 6))), Tensor(rng.normal(size=(3, 6))), Tensor(rng.normal(size=(3, 5, 6)))
    ours = infonce_loss(q, pos, negs, tau).item()
    ref = logsumexp_infonce(q, pos, negs, tau).item()
    assert abs(ours - ref) <= 1e-12 * abs(ref)
    for i, x in enumerate((q, pos)):
        def f(t, i=i):
            args = [q, pos]
            args[i] = t
            return infonce_loss(*args, negs, tau)
        assert grad_check(f, Tensor(x.data.copy(), requires_grad=True)) <= 1e-6


def test_infonce_batched_loss_is_16_graph_nodes():
    rng = np.random.default_rng(16)
    q, pos = (Tensor(rng.normal(size=(2, 4)), requires_grad=True) for _ in range(2))
    loss = infonce_loss(q, pos, Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True))
    assert graph_nodes(loss) == 16
    assert graph_nodes(logsumexp_infonce(q, pos, Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True), 0.02)) == 25


def test_infonce_zero_norm_rejected():
    with pytest.raises(ValueError, match="zero-norm"):
        infonce_loss(Tensor(np.zeros(4)), Tensor(np.ones(4)), Tensor(np.ones((1, 4))))


def test_infonce_gradient_flows_to_query():
    rng = np.random.default_rng(14)
    q = Tensor(rng.normal(size=6), requires_grad=True)
    pos, negs = Tensor(rng.normal(size=6)), Tensor(np.stack([rng.normal(size=6) for _ in range(3)]))
    loss = infonce_loss(q, pos, negs, tau=0.1)
    backward(loss)
    assert q.grad is not None and np.any(q.grad != 0)


def test_infonce_config_validation():
    for value in (0.0, -0.02, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^tau must be finite and > 0, got {value}$"):
            InfoNCEConfig(tau=value)
    for field in ("negatives", "steps", "eval_every", "batches_per_update"):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
            InfoNCEConfig(**{field: 0})


@pytest.mark.parametrize("value", [0.0, -1e-4, float("nan"), float("inf")])
def test_retrieval_trainers_reject_a_rate_that_is_not_finite_and_positive(value):
    message = f"^lr must be finite and > 0, got {value}$"
    with pytest.raises(ValueError, match=message):
        InfoNCEConfig(lr=value)
    model = build_model(ModelConfig("retrieval_mixer", d_model=4, n_layers=1, n_ctx=4, vocab=3), seed=0)
    before = {n: p.data.copy() for n, p in model.params.items()}
    with pytest.raises(ValueError, match=message):
        train_indirect(model, toy_store(n=16, d=4), toy_store(n=16, d=4), steps=2, batch_size=2, lr=value)
    for n, p in model.params.items():
        assert np.array_equal(p.data, before[n]), n


def test_indirect_rejects_a_batch_size_below_one_naming_it():
    model = build_model(ModelConfig("retrieval_mixer", d_model=4, n_layers=1, n_ctx=4, vocab=3), seed=0)
    with pytest.raises(ValueError, match="^batch_size must be >= 1, got 0$"):
        train_indirect(model, toy_store(n=16, d=4), toy_store(n=16, d=4), steps=2, batch_size=0)


def test_indirect_rejects_an_eval_store_smaller_than_a_candidate_set_before_drawing(monkeypatch):
    draws = []
    monkeypatch.setattr(retrieval, "sample_retrieval_batch", lambda *a: draws.append(a))
    model = build_model(ModelConfig("retrieval_mixer", d_model=4, n_layers=1, n_ctx=8, vocab=3), seed=0)
    with pytest.raises(ValueError, match="^8 candidates per set need at least 8 eval pairs, have 7$"):
        train_indirect(model, toy_store(n=16, d=4), toy_store(n=7, d=4), steps=2, batch_size=2)
    assert draws == []


def test_indirect_eval_sets_are_drawn_once(monkeypatch):
    """Each eval point scores the same candidate sets; they are drawn before the first step."""
    draws = []
    real = retrieval.sample_retrieval_batch
    monkeypatch.setattr(retrieval, "sample_retrieval_batch", lambda s, *a: draws.append(s) or real(s, *a))
    store, eval_store = toy_store(n=16, d=4), toy_store(n=8, d=4, seed=1)
    model = build_model(ModelConfig("retrieval_mixer", d_model=4, n_layers=1, n_ctx=4, vocab=3), seed=0)
    report = train_indirect(model, store, eval_store, steps=4, batch_size=2, lr=1e-3, seed=3, eval_every=1)
    assert len(report.records) == 5
    assert sum(s is eval_store for s in draws) == len(eval_store)
    assert all(s is eval_store for s in draws[:len(eval_store)])


def test_infonce_eval_negatives_are_drawn_once(monkeypatch):
    sizes = []
    real = retrieval._others
    monkeypatch.setattr(retrieval, "_others", lambda size, *a: sizes.append(size) or real(size, *a))
    model = build_model(ModelConfig("masked_mixer", d_model=8, n_layers=1, n_ctx=8, vocab=259, padding_side="left"), seed=39)
    rng = np.random.default_rng(40)
    seqs = [np.concatenate([[256] * 2, rng.integers(97, 123, size=6)]) for _ in range(26)]
    cfg = InfoNCEConfig(negatives=2, batches_per_update=1, steps=3, eval_every=1, seed=41)
    report = train_infonce(model, (seqs[:10], seqs[10:20]), cfg, eval_pairs=(seqs[20:23], seqs[23:]))
    assert len(report.records) == 4
    assert sizes == [3] * 3 + [10] * 3


# ---------------------------------------------------------------------------
# top-k retrieval

def test_topk_self_match_scores_one():
    rng = np.random.default_rng(15)
    x = rng.normal(size=6)
    y = np.stack([rng.normal(size=6), x, rng.normal(size=6)])
    top, z = retrieve_topk(x, y, 1)
    assert top == [1]
    assert z[1] == pytest.approx(1.0)


def test_topk_orthogonal_scores_zero():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    _, z = retrieve_topk(x, y, 2)
    assert np.allclose(z, 0.0)


def test_topk_matches_naive_pairwise_oracle_exactly():
    rng = np.random.default_rng(16)
    y = rng.normal(size=(64, 16))
    x = rng.normal(size=16)
    ranked, z = retrieve_topk(x, y, 64)
    x_hat = x / np.sqrt(np.sum(x * x))
    naive = np.array([np.sum((row / np.sqrt(np.sum(row * row))) * x_hat) for row in y])
    assert np.array_equal(z, naive)
    assert ranked == sorted(range(64), key=lambda i: (-naive[i], i))


def test_topk_ties_break_to_lower_index():
    x = np.array([1.0, 0.0])
    y = np.array([[2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    ranked, _ = retrieve_topk(x, y, 3)
    assert ranked == [0, 1, 2]


def test_topk_permutation_and_scaling_invariance():
    rng = np.random.default_rng(17)
    x = rng.normal(size=8)
    y = rng.normal(size=(10, 8))
    base, _ = retrieve_topk(x, y, 10)
    perm = rng.permutation(10)
    permuted, _ = retrieve_topk(x, y[perm], 10)
    assert [perm[i] for i in permuted] == base
    scaled, _ = retrieve_topk(x, y * rng.uniform(0.1, 5.0, size=(10, 1)), 10)
    assert scaled == base


def test_topk_rejects_a_negative_k():
    rng = np.random.default_rng(19)
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        retrieve_topk(rng.normal(size=4), rng.normal(size=(10, 4)), -1)


def test_topk_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero-norm"):
        retrieve_topk(np.zeros(4), np.ones((2, 4)), 1)


# ---------------------------------------------------------------------------
# evaluation protocol

def test_eval_topk_perfect_embedder_always_hits():
    eye = np.eye(16)
    store = EmbeddingStore(queries=eye.copy(), targets=eye.copy())
    rows = eval_topk_accuracy(store, [8], trials=100, rng=np.random.default_rng(18))
    assert rows == [(8, 100, 1.0)]


def test_eval_topk_random_embedder_near_chance():
    store = toy_store(n=300, d=16, seed=19)
    rows = eval_topk_accuracy(store, [32], trials=2000, rng=np.random.default_rng(20))
    (n, trials, acc) = rows[0]
    p = 1 / 31
    sigma = np.sqrt(p * (1 - p) / trials)
    assert abs(acc - p) <= 3 * sigma


def test_eval_topk_skips_oversized_n():
    store = toy_store(n=10)
    rows = eval_topk_accuracy(store, [8, 64], trials=10, rng=np.random.default_rng(21))
    assert [r[0] for r in rows] == [8]


@pytest.mark.parametrize("sizes,first", [([1], 1), ([8, 0, -3], 0), ([-3, 8], -3)])
def test_eval_topk_rejects_size_below_two_before_any_draw(sizes, first):
    rng = np.random.default_rng(22)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^sizes must be >= 2, got {first}$"):
        eval_topk_accuracy(toy_store(n=10), sizes, trials=10, rng=rng)
    assert rng.bit_generator.state == state


def tied_store(n=40, d=8, seed=24):
    """Queries near their targets, with every odd target a copy of the even one before it."""
    rng = np.random.default_rng(seed)
    targets = rng.normal(size=(n, d)).astype(np.float32)
    targets[1::2] = targets[0::2]
    queries = targets + 0.3 * rng.normal(size=(n, d)).astype(np.float32)
    return EmbeddingStore(queries=queries, targets=targets)


@pytest.mark.parametrize("chunk_floats", [None, 100])
def test_eval_topk_matches_a_retrieve_topk_loop(monkeypatch, chunk_floats):
    if chunk_floats is not None:  # many small chunks, the last one short
        monkeypatch.setattr(retrieval, "TOPK_CHUNK_FLOATS", chunk_floats)
    store, sizes, trials = tied_store(), [2, 3, 32, 42], 37
    want, ties = [], 0
    rng = np.random.default_rng(25)
    for n in sizes[:-1]:  # 42 candidates need 41 stored pairs
        hits = 0
        for _ in range(trials):
            idx = int(rng.integers(0, len(store)))
            distractors = _others(len(store), idx, n - 2, rng)
            candidates = np.concatenate([store.targets[idx:idx + 1], store.targets[distractors]])
            top, z = retrieve_topk(store.queries[idx], candidates, 1)
            hits += top[0] == 0
            ties += int(np.sum(z == z.max()) > 1)
        want.append((n, trials, hits / trials))
    assert ties > 0
    assert eval_topk_accuracy(store, sizes, trials, rng=np.random.default_rng(25)) == want


def test_chunked_cosines_equal_retrieve_topk_bit_for_bit():
    rng = np.random.default_rng(26)
    store = toy_store(n=50, d=37, seed=27)
    store = EmbeddingStore(queries=store.queries.astype(np.float32), targets=store.targets.astype(np.float32))
    picks = np.array([np.concatenate([[i], _others(50, i, 19, rng)]) for i in rng.integers(0, 50, size=6)])
    z = retrieval._cosines(retrieval._unit64(store.targets)[picks], retrieval._unit64(store.queries)[picks[:, :1]])
    assert z.shape == (6, 20)
    for row, trial in zip(z, picks):
        _, want = retrieve_topk(store.queries[trial[0]], store.targets[trial], 1)
        assert row.tobytes() == want.tobytes()


@pytest.mark.parametrize("side", ["queries", "targets"])
def test_eval_topk_rejects_a_zero_norm_row_before_any_draw(side):
    store = toy_store(n=10)
    getattr(store, side)[7] = 0.0
    rng = np.random.default_rng(28)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="^zero-norm vector has no cosine direction$"):
        eval_topk_accuracy(store, [2], trials=1, rng=rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("dim", [0, -2])
def test_pca_project_rejects_dim_below_one(dim):
    with pytest.raises(ValueError, match=f"^pca_dim must be >= 1, got {dim}$"):
        pca_project(toy_store(), dim=dim)


def test_center_and_normalize_names_a_row_that_centers_to_zero():
    """A one-pair training store centers to zero; the error names the row before any 0/0 warns."""
    train_store, eval_store = split_store(toy_store(n=11), 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^zero-norm query row 0 of store 0 has no cosine direction$"):
            center_and_normalize(train_store, eval_store)


def test_pca_project_names_a_zero_row_of_a_later_store():
    other = toy_store(n=5, seed=3)
    other.targets[2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^zero-norm target row 2 of store 1 has no cosine direction$"):
            pca_project(toy_store(), other, dim=4)


def test_eval_topk_monotone_for_random_embedder():
    store = toy_store(n=200, d=8, seed=22)
    rows = eval_topk_accuracy(store, [8, 64], trials=1500, rng=np.random.default_rng(23))
    accs = {n: acc for n, _, acc in rows}
    assert accs[8] >= accs[64]


# ---------------------------------------------------------------------------
# indirect training firewall

def test_indirect_training_never_touches_generator():
    cfg = ModelConfig("masked_mixer", d_model=16, n_layers=1, n_ctx=8, vocab=259, padding_side="left")
    gen = build_model(cfg, seed=24)
    before = {n: p.data.copy() for n, p in gen.params.items()}
    rng = np.random.default_rng(25)
    seqs = [np.concatenate([[256] * 2, rng.integers(97, 123, size=6)]) for _ in range(20)]
    rows, _ = embed_corpus(gen, seqs)
    store = EmbeddingStore(queries=rows[:10], targets=rows[10:])
    rm = build_model(ModelConfig("retrieval_mixer", d_model=16, n_layers=1, n_ctx=4, vocab=3), seed=26)
    train_indirect(rm, store, store, steps=5, batch_size=4, lr=1e-3, seed=27, eval_every=5)
    for n, p in gen.params.items():
        assert np.array_equal(p.data, before[n])


# ---------------------------------------------------------------------------
# divergence: both retrieval trainers share the training driver's contract

def test_indirect_divergence_restores_last_eval_point():
    store = toy_store(n=16, d=4)
    scorer_cfg = ModelConfig("retrieval_mixer", d_model=4, n_layers=1, n_ctx=4, vocab=3)
    model = build_model(scorer_cfg, seed=28)
    with pytest.raises(TrainingDiverged) as err, np.errstate(all="ignore"):
        train_indirect(model, store, store, steps=50, batch_size=2, lr=1e8, seed=29, eval_every=1)
    last = err.value.report.records[-1].step
    assert last >= 1
    # the constant-rate run stopped at the last eval point reaches the same state
    ref = build_model(scorer_cfg, seed=28)
    with np.errstate(all="ignore"):
        train_indirect(ref, store, store, steps=last, batch_size=2, lr=1e8, seed=29, eval_every=1)
    for n, p in model.params.items():
        assert np.all(np.isfinite(p.data)), n
        assert np.array_equal(p.data, ref.params[n].data), n


def test_infonce_divergence_restores_last_eval_point():
    model = build_model(ModelConfig("masked_mixer", d_model=8, n_layers=1, n_ctx=8, vocab=259, padding_side="left"), seed=30)
    before = {n: p.data.copy() for n, p in model.params.items()}
    rng = np.random.default_rng(31)
    seqs = [np.concatenate([[256] * 2, rng.integers(97, 123, size=6)]) for _ in range(12)]
    cfg = InfoNCEConfig(negatives=2, batches_per_update=1, lr=1e8, steps=50, eval_every=100, seed=32)
    with pytest.raises(TrainingDiverged), np.errstate(all="ignore"):
        train_infonce(model, (seqs[:6], seqs[6:]), cfg)
    # the last eval point is step 0
    for n, p in model.params.items():
        assert np.array_equal(p.data, before[n]), n


@pytest.mark.parametrize("bad", ["short", "one-token", "out-of-vocab"])
@pytest.mark.parametrize("side", ["query", "target", "eval"])
def test_infonce_rejects_a_malformed_sequence_anywhere_before_step_0(side, bad):
    model = build_model(ModelConfig("masked_mixer", d_model=8, n_layers=1, n_ctx=8, vocab=259, padding_side="left"), seed=36)
    before = {n: p.data.copy() for n, p in model.params.items()}
    rng = np.random.default_rng(37)
    seqs = [np.concatenate([[256] * 2, rng.integers(97, 123, size=6)]) for _ in range(30)]
    queries, targets, eval_q, eval_t = seqs[:10], seqs[10:20], seqs[20:25], seqs[25:]
    # the last of each list: a one-step run with seed 38 samples none of them
    malformed, message = {
        "short": (np.arange(97, 104), "expected 8 tokens"),
        "one-token": (np.array([256] * 7 + [97]), "at least 2 non-pad"),
        "out-of-vocab": (np.full(8, 259), "out of range for vocab 259"),
    }[bad]
    {"query": queries, "target": targets, "eval": eval_t}[side][-1] = malformed
    cfg = InfoNCEConfig(negatives=2, batches_per_update=1, steps=1, eval_every=1, seed=38)
    with pytest.raises(ValueError, match=message):
        train_infonce(model, (queries, targets), cfg, eval_pairs=(eval_q, eval_t))
    for n, p in model.params.items():
        assert np.array_equal(p.data, before[n]), n


def test_infonce_eval_set_no_larger_than_negatives_rejected_before_step_0():
    model = build_model(ModelConfig("masked_mixer", d_model=8, n_layers=1, n_ctx=8, vocab=259, padding_side="left"), seed=33)
    before = {n: p.data.copy() for n, p in model.params.items()}
    rng = np.random.default_rng(34)
    seqs = [np.concatenate([[256] * 2, rng.integers(97, 123, size=6)]) for _ in range(20)]
    cfg = InfoNCEConfig(negatives=4, batches_per_update=1, steps=2, eval_every=1, seed=35)
    with pytest.raises(ValueError, match="need at least 5 eval pairs for 4 negatives, got 4"):
        train_infonce(model, (seqs[:8], seqs[8:16]), cfg, eval_pairs=(seqs[:4], seqs[16:20]))
    for n, p in model.params.items():
        assert np.array_equal(p.data, before[n]), n
    # one more eval pair is enough, and every eval loss is finite
    report = train_infonce(model, (seqs[:8], seqs[8:16]), cfg, eval_pairs=(seqs[:5], seqs[15:20]))
    assert all(np.isfinite(r.eval_loss) for r in report.records)
