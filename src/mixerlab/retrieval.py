"""Dense-retrieval training: frozen-embedding matching and contrastive tuning.

The indirect scheme trains a separate scoring model over frozen query and
target embeddings assembled into candidate sets with one planted match.
The direct scheme fine-tunes the embedding model itself with a
temperature-scaled cosine contrastive loss. Inference ranks targets by
batched cosine similarity.
"""

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .models import _as_ids, _nth_last_nonpad, embedding_graph, retrieval_mixer_forward, sequence_embedding
from .tensor import Tensor, multinomial_sample
from .training import TrainConfig, _run_steps

log = logging.getLogger(__name__)

# Sequences per forward pass when embedding a corpus without gradients. A
# chunk bounds the activations held at once (they grow linearly with it)
# while still amortising the per-op overhead over many sequences.
EMBED_CHUNK = 32


@dataclass
class EmbeddingStore:
    """Paired query/target embedding rows from one frozen source model."""

    queries: np.ndarray
    targets: np.ndarray
    source_model_id: str = ""
    convention: str = "second-to-last-token last hidden layer"

    def __post_init__(self):
        if self.queries.shape != self.targets.shape:
            raise ValueError(f"query/target tables must pair by index: {self.queries.shape} vs {self.targets.shape}")
        if not (np.all(np.isfinite(self.queries)) and np.all(np.isfinite(self.targets))):
            raise ValueError("embedding store contains non-finite rows")

    def __len__(self):
        return self.queries.shape[0]


@dataclass
class RetrievalBatch:
    """One candidate set: row 0 is the query, row m holds the true target."""

    a: np.ndarray
    q: np.ndarray
    m: int

    def __post_init__(self):
        c = self.a.shape[0]
        if not 1 <= self.m <= c - 1:
            raise ValueError(f"match index {self.m} outside [1, {c - 1}]")
        if self.q.shape != (c,) or self.q[self.m] != 1 or self.q.sum() != 1:
            raise ValueError("label must be one-hot at the match index")


@dataclass(frozen=True)
class InfoNCEConfig:
    tau: float = 0.02
    negatives: int = 31
    batches_per_update: int = 4
    lr: float = 1e-4
    steps: int = 500
    seed: int = 0
    eval_every: int = 100
    weight_decay: float = 0.01
    grad_clip: float = 1.0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.negatives < 1:
            raise ValueError("need at least one negative")


# ---------------------------------------------------------------------------
# embedding extraction

def embed_corpus(model, sequences):
    """Embed each sequence with the frozen model; skipped items are logged.

    Returns (rows, kept_indices): one row per sequence that carries at
    least two non-pad tokens. Kept sequences are embedded EMBED_CHUNK at a
    time.
    """
    kept, ids = [], []
    for i, seq in enumerate(sequences):
        try:
            one = _as_ids(seq, model.config)
            if one.ndim != 1:
                raise ValueError(f"expected one sequence, got shape {one.shape}")
            _nth_last_nonpad(one, 2)
        except ValueError as e:
            log.warning("skipping sequence %d: %s", i, e)
            continue
        kept.append(i)
        ids.append(one)
    if not kept:
        return np.zeros((0, model.config.d_model)), []
    return _embed_rows(model, np.stack(ids)), kept


def _embed_rows(model, ids):
    """sequence_embedding over a (batch, n_ctx) id array, EMBED_CHUNK sequences per forward."""
    return np.concatenate([sequence_embedding(model, ids[i:i + EMBED_CHUNK]) for i in range(0, len(ids), EMBED_CHUNK)])


def embed_pair_store(model, query_seqs, target_seqs, model_id=""):
    """EmbeddingStore from paired sequences; a skip on either side drops the pair."""
    q_rows, q_idx = embed_corpus(model, query_seqs)
    t_rows, t_idx = embed_corpus(model, target_seqs)
    common = sorted(set(q_idx) & set(t_idx))
    qmap = {i: r for i, r in zip(q_idx, q_rows)}
    tmap = {i: r for i, r in zip(t_idx, t_rows)}
    return EmbeddingStore(
        queries=np.stack([qmap[i] for i in common]) if common else np.zeros((0, model.config.d_model)),
        targets=np.stack([tmap[i] for i in common]) if common else np.zeros((0, model.config.d_model)),
        source_model_id=model_id,
    )


def split_store(store, holdout):
    """Split the last `holdout` pairs off as an evaluation store."""
    if not 0 < holdout < len(store):
        raise ValueError(f"holdout must lie in (0, {len(store)}), got {holdout}")
    cut = len(store) - holdout
    return (
        EmbeddingStore(store.queries[:cut], store.targets[:cut], store.source_model_id, store.convention),
        EmbeddingStore(store.queries[cut:], store.targets[cut:], store.source_model_id, store.convention),
    )


def center_and_normalize(train_store, *others):
    """Subtract the training means and scale rows to unit length.

    Raw last-hidden-layer rows share a large common direction that swamps
    the pair signal; centering on the training statistics removes it.
    """
    mu_q = train_store.queries.mean(axis=0)
    mu_t = train_store.targets.mean(axis=0)

    def prep(store):
        q = store.queries - mu_q
        t = store.targets - mu_t
        q = q / np.linalg.norm(q, axis=1, keepdims=True)
        t = t / np.linalg.norm(t, axis=1, keepdims=True)
        return EmbeddingStore(q, t, store.source_model_id, store.convention)

    out = [prep(train_store)] + [prep(s) for s in others]
    return out[0] if not others else tuple(out)


def pca_project(train_store, *others, dim=16):
    """Project stores onto the training rows' top principal directions.

    The scoring model's match-detection circuit sits behind an optimization
    plateau whose length grows with input dimension; concentrating the
    pair signal into a few directions shortens it dramatically. Rows are
    re-normalized to unit length after projection.
    """
    x = np.concatenate([train_store.queries, train_store.targets])
    _, _, vt = np.linalg.svd(x, full_matrices=False)
    basis = vt[: min(dim, vt.shape[0])].T

    def prep(store):
        q = store.queries @ basis
        t = store.targets @ basis
        q = q / np.linalg.norm(q, axis=1, keepdims=True)
        t = t / np.linalg.norm(t, axis=1, keepdims=True)
        return EmbeddingStore(q, t, store.source_model_id, store.convention)

    out = [prep(train_store)] + [prep(s) for s in others]
    return out[0] if not others else tuple(out)


def normalize_store(store, holdout, dim=16):
    """Split, center+normalize, then PCA-project; the CLI's scorer input prep."""
    train_store, eval_store = split_store(store, holdout)
    train_store, eval_store = center_and_normalize(train_store, eval_store)
    return pca_project(train_store, eval_store, dim=dim)


# ---------------------------------------------------------------------------
# candidate-set sampling

def _others(size, n, count, rng):
    """`count` distinct indices drawn uniformly from range(size), never n."""
    weights = np.ones(size)
    weights[n] = 0.0
    return multinomial_sample(weights, count, rng)


def sample_retrieval_batch(store, n, c, rng):
    """Assemble one c-row candidate set for query n with a planted match.

    Negatives are drawn without replacement from all target indices except
    the match; the match lands at a uniform random slot in [1, c-1].
    """
    size = len(store)
    if c - 1 > size - 1:
        raise ValueError(f"candidate count {c} needs at least {c} stored pairs, have {size}")
    r = _others(size, n, c - 1, rng)
    a = np.empty((c, store.queries.shape[1]), dtype=store.targets.dtype)
    a[0] = store.queries[n]
    a[1:] = store.targets[r]
    m = int(rng.integers(1, c))
    a[m] = store.targets[n]
    q = np.zeros(c, dtype=np.int64)
    q[m] = 1
    return RetrievalBatch(a=a, q=q, m=m)


def sample_sequence_batch(target_seqs, n, count, rng):
    """Token-level analogue: `count` negative target sequences for pair n."""
    return [target_seqs[j] for j in _others(len(target_seqs), n, count, rng)]


# ---------------------------------------------------------------------------
# indirect training (frozen embeddings, trainable scorer)

def train_indirect(model, store, eval_store, steps=200, batch_size=16, lr=1e-4, seed=0, eval_every=50):
    """Cross-entropy training of the scoring model over frozen embeddings.

    The match-detection circuit sits behind a long optimization plateau, so
    the learning rate stays constant.
    """
    cfg = TrainConfig(steps=steps, lr=lr, seed=seed, eval_every=eval_every, batch_size=batch_size)
    c = model.config.n_ctx
    rng = np.random.default_rng(seed)

    def set_loss(batches):
        logits, _ = retrieval_mixer_forward(model, Tensor(np.stack([b.a for b in batches]).astype(model.dtype)))
        return T.cross_entropy(logits, [b.m for b in batches])

    def step_loss():
        batches = []
        for _ in range(batch_size):
            n = int(rng.integers(0, len(store)))
            batches.append(sample_retrieval_batch(store, n, c, rng))
        return set_loss(batches)

    def eval_ce():
        eval_rng = np.random.default_rng(seed + 1)
        batches = [sample_retrieval_batch(eval_store, n, c, eval_rng) for n in range(len(eval_store))]
        with T.no_grad():
            return set_loss(batches).item()

    return _run_steps(
        model, cfg, lr_at=lambda step: lr, step_loss=step_loss, eval_loss=eval_ce, tokens_per_step=batch_size * c
    )


# ---------------------------------------------------------------------------
# InfoNCE

def infonce_loss(q_emb, pos_emb, neg_embs, tau=0.02):
    """Contrastive loss -log f+/(f+ + sum fi) with f = exp(cos/tau).

    q_emb and pos_emb are (d,) rows and neg_embs a list of (d,) rows, or
    one tensor of shape (N, d). With a leading batch axis, (B, d), (B, d)
    and (B, N, d), the result is the mean loss over the batch. Evaluated
    in log space: at tau = 0.02 the raw exponentials overflow, the
    log-sum-exp form is exact.
    """
    if isinstance(neg_embs, (list, tuple)):
        neg_embs = T.concat([T.reshape(n, n.data.shape[:-1] + (1, n.data.shape[-1])) for n in neg_embs], axis=-2)
    d = q_emb.data.shape[-1]
    query = T.reshape(q_emb, q_emb.data.shape[:-1] + (1, d))
    cands = T.concat([T.reshape(pos_emb, pos_emb.data.shape[:-1] + (1, d)), neg_embs], axis=-2)
    num = T.tsum(T.mul(query, cands), axis=-1)
    qn = T.sqrt(T.tsum(T.mul(query, query), axis=-1))
    cn = T.sqrt(T.tsum(T.mul(cands, cands), axis=-1))
    if np.any(qn.data == 0.0) or np.any(cn.data == 0.0):
        raise ValueError("cosine similarity undefined for a zero-norm vector")
    sims = T.mul(T.div(num, T.mul(qn, cn)), 1.0 / tau)  # (..., 1 + N), the positive first
    peak = Tensor(np.max(sims.data, axis=-1, keepdims=True))
    lse = T.add(T.log(T.tsum(T.exp(T.add(sims, T.neg(peak))), axis=-1, keepdims=True)), peak)
    losses = T.tsum(T.add(lse, T.neg(T.narrow(sims, -1, 0, 1))), axis=-1)
    return T.mean(losses) if losses.data.ndim else losses


def train_infonce(model, pair_corpus, cfg, eval_pairs=None):
    """Contrastive fine-tuning of the embedding model on query/target pairs.

    `pair_corpus` is (query_seqs, target_seqs); gradients flow through the
    embedding extraction into the model itself. Each step embeds the
    queries, positives and negatives of all its examples in one forward
    pass. The eval loss scores every `eval_pairs` query against its target
    and `cfg.negatives` other eval targets, so the eval set needs more
    pairs than that.
    """
    query_seqs, target_seqs = pair_corpus
    if len(query_seqs) != len(target_seqs):
        raise ValueError("query/target sequence lists must pair by index")
    if len(target_seqs) < cfg.negatives + 1:
        raise ValueError(f"need at least {cfg.negatives + 1} pairs for {cfg.negatives} negatives")
    if eval_pairs is not None:
        eq, et = eval_pairs
        if len(eq) != len(et):
            raise ValueError("eval query/target sequence lists must pair by index")
        if len(et) < cfg.negatives + 1:
            raise ValueError(
                f"need at least {cfg.negatives + 1} eval pairs for {cfg.negatives} negatives, got {len(et)}"
            )
    rng = np.random.default_rng(cfg.seed)
    cfg_m = model.config
    width = 2 + cfg.negatives  # query, positive, negatives

    def step_loss():
        rows = []
        for _ in range(cfg.batches_per_update):
            n = int(rng.integers(0, len(query_seqs)))
            rows += [query_seqs[n], target_seqs[n], *sample_sequence_batch(target_seqs, n, cfg.negatives, rng)]
        ids = np.stack([_as_ids(r, cfg_m) for r in rows])
        embs = T.reshape(embedding_graph(model, ids), (cfg.batches_per_update, width, cfg_m.d_model))
        q, pos = (T.reshape(T.narrow(embs, 1, i, 1), (cfg.batches_per_update, cfg_m.d_model)) for i in (0, 1))
        return infonce_loss(q, pos, T.narrow(embs, 1, 2, cfg.negatives), cfg.tau)

    def eval_loss():
        if eval_pairs is None:
            return float("nan")
        eval_rng = np.random.default_rng(cfg.seed + 1)
        negs = [_others(len(et), n, cfg.negatives, eval_rng) for n in range(len(eq))]
        q = _embed_rows(model, np.stack([_as_ids(s, cfg_m) for s in eq]))
        t = _embed_rows(model, np.stack([_as_ids(s, cfg_m) for s in et]))
        with T.no_grad():
            return infonce_loss(Tensor(q), Tensor(t), Tensor(t[np.array(negs)]), cfg.tau).item()

    return _run_steps(
        model, cfg, lr_at=lambda step: cfg.lr * (1.0 - step / cfg.steps), step_loss=step_loss, eval_loss=eval_loss,
        tokens_per_step=cfg.batches_per_update,
    )


# ---------------------------------------------------------------------------
# inference and evaluation

def retrieve_topk(query_emb, target_matrix, k):
    """Indices of the k most cosine-similar target rows, ties to lower index.

    Batched form: normalize every row to unit length, then reduce the
    products in one vectorized pass. The reduction order per row matches a
    plain per-pair cosine loop, so the two agree bit-for-bit.
    """
    q = np.asarray(query_emb, dtype=np.float64)
    y = np.asarray(target_matrix, dtype=np.float64)
    qn = np.sqrt(np.sum(q * q))
    yn = np.sqrt(np.sum(y * y, axis=1))
    if qn == 0 or np.any(yn == 0):
        raise ValueError("zero-norm vector has no cosine direction")
    z = np.sum((y / yn[:, None]) * (q / qn), axis=1)
    order = np.lexsort((np.arange(len(z)), -z))
    return order[:k].tolist(), z


ACCURACY_CSV_HEADER = ["n", "trials", "top1_accuracy"]


def write_accuracy_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ACCURACY_CSV_HEADER)
        for n, trials, acc in rows:
            writer.writerow([n, trials, repr(acc)])


def eval_topk_accuracy(store, sample_sizes, trials, rng=None):
    """Top-1 accuracy per candidate-set size n over seeded random draws.

    Each trial scores one query against its true target plus n-2 distractor
    targets. Sizes needing more targets than available are skipped with a
    notice. Monotone non-increase in n is reported, not asserted.
    """
    rng = rng or np.random.default_rng(0)
    size = len(store)
    rows = []
    for n in sample_sizes:
        if n - 2 > size - 1:
            log.warning("skipping n=%d: only %d pairs available", n, size)
            continue
        hits = 0
        for _ in range(trials):
            idx = int(rng.integers(0, size))
            distractors = _others(size, idx, n - 2, rng)
            candidates = np.concatenate([store.targets[idx:idx + 1], store.targets[distractors]])
            top, _ = retrieve_topk(store.queries[idx], candidates, 1)
            hits += top[0] == 0
        rows.append((n, trials, hits / trials))
    return rows
