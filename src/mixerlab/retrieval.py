"""Dense-retrieval training: frozen-embedding matching and contrastive tuning.

The indirect scheme trains a separate scoring model over frozen query and
target embeddings assembled into candidate sets with one planted match.
The direct scheme fine-tunes the embedding model itself with a
temperature-scaled cosine contrastive loss. Inference ranks targets by
batched cosine similarity.
"""

import csv
import logging
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import PAD_ID
from .models import _as_ids, embedding_graph, retrieval_mixer_forward, sequence_embedding
from .tensor import Tensor
from .training import TrainConfig, _check_positive, _check_rate, _run_steps

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
    m: int

    def __post_init__(self):
        c = self.a.shape[0]
        if not 1 <= self.m <= c - 1:
            raise ValueError(f"match index {self.m} outside [1, {c - 1}]")


@dataclass(frozen=True)
class InfoNCEConfig:
    tau: float = 0.02
    negatives: int = 31
    batches_per_update: int = 4
    lr: float = 1e-4
    steps: int = 500
    seed: int = 0
    eval_every: int = 100

    def __post_init__(self):
        _check_rate("tau", self.tau)
        _check_positive(self, "negatives", "steps", "eval_every", "batches_per_update")
        _check_rate("lr", self.lr)


# ---------------------------------------------------------------------------
# embedding extraction

def embed_corpus(model, sequences):
    """Embed each sequence with the frozen model; skipped items are logged.

    Returns (rows, kept_indices): one row per sequence that passes
    `_check_sequences`. Kept sequences are embedded EMBED_CHUNK at a time.
    """
    ids, kept, skipped = _check_sequences(sequences, model.config)
    for i in sorted(skipped):
        log.warning("skipping sequence %d: %s", i, skipped[i])
    if not kept:
        return np.zeros((0, model.config.d_model), dtype=model.dtype), []
    return _embed_rows(model, ids), kept


def _check_sequences(seqs, cfg):
    """(ids, kept, skipped) of a sequence list under the embedding's checks, in this order: one
    sequence of n_ctx tokens, at least two non-pad tokens, every id inside the vocabulary. `ids`
    stacks the sequences that pass, `kept` holds their indices and `skipped` maps every other
    index to its reason, in the order the checks found them.
    """
    skipped, kept = {}, []
    for i, seq in enumerate(seqs):
        try:
            ids = _as_ids(seq, cfg)
            if ids.ndim != 1:
                raise ValueError(f"expected one sequence, got shape {ids.shape}")
            kept.append((i, ids))
        except ValueError as e:
            skipped[i] = str(e)
    ids = np.stack([row for _, row in kept]) if kept else np.zeros((0, cfg.n_ctx), dtype=np.int64)
    short = np.sum(ids != PAD_ID, axis=1) < 2
    outside = np.any((ids < 0) | (ids >= cfg.vocab), axis=1) & ~short
    for bad, reason in ((short, "sequence must contain at least 2 non-pad token(s)"),
                        (outside, f"token id out of range for vocab {cfg.vocab}")):
        skipped.update((kept[j][0], reason) for j in np.flatnonzero(bad))
    good = ~(short | outside)
    return ids[good], [i for (i, _), ok in zip(kept, good) if ok], skipped


def _id_stack(seqs, cfg):
    """The (len(seqs), n_ctx) ids of a sequence list; ValueError with the first reason `_check_sequences` finds."""
    ids, _, skipped = _check_sequences(seqs, cfg)
    if skipped:
        raise ValueError(next(iter(skipped.values())))
    return ids


def _embed_rows(model, ids):
    """sequence_embedding over a (batch, n_ctx) id array, EMBED_CHUNK sequences per forward."""
    return np.concatenate([sequence_embedding(model, ids[i:i + EMBED_CHUNK]) for i in range(0, len(ids), EMBED_CHUNK)])


def embed_pair_store(model, query_seqs, target_seqs, model_id=""):
    """EmbeddingStore from paired sequences; a skip on either side drops the pair."""
    q_rows, q_idx = embed_corpus(model, query_seqs)
    t_rows, t_idx = embed_corpus(model, target_seqs)
    return EmbeddingStore(q_rows[np.isin(q_idx, t_idx)], t_rows[np.isin(t_idx, q_idx)], source_model_id=model_id)


def split_store(store, holdout):
    """Split the last `holdout` pairs off as an evaluation store."""
    if not 0 < holdout < len(store):
        raise ValueError(f"holdout must lie in (0, {len(store)}), got {holdout}")
    cut = len(store) - holdout
    return (
        EmbeddingStore(store.queries[:cut], store.targets[:cut], store.source_model_id),
        EmbeddingStore(store.queries[cut:], store.targets[cut:], store.source_model_id),
    )


def _unit_rows(stores, transform):
    """Each store's (query, target) tables from `transform(store)`, rows scaled to unit length.

    One store gives one store, several a tuple. A zero-norm row raises
    ValueError naming it, and the store's place in `stores`, before anything is divided.
    """
    out = []
    for k, store in enumerate(stores):
        units = []
        for side, rows in zip(("query", "target"), transform(store)):
            norms = np.linalg.norm(rows, axis=1, keepdims=True)
            if not norms.all():
                raise ValueError(f"zero-norm {side} row {np.argmin(norms)} of store {k} has no cosine direction")
            units.append(rows / norms)
        out.append(EmbeddingStore(*units, store.source_model_id))
    return out[0] if len(out) == 1 else tuple(out)


def center_and_normalize(train_store, *others):
    """Subtract the training means and scale rows to unit length.

    Raw last-hidden-layer rows share a large common direction that swamps
    the pair signal; centering on the training statistics removes it.
    """
    mu_q = train_store.queries.mean(axis=0)
    mu_t = train_store.targets.mean(axis=0)
    return _unit_rows((train_store, *others), lambda s: (s.queries - mu_q, s.targets - mu_t))


def pca_project(train_store, *others, dim=16):
    """Project stores onto the training rows' top principal directions.

    The scoring model's match-detection circuit sits behind an optimization
    plateau whose length grows with input dimension; concentrating the
    pair signal into a few directions shortens it dramatically. Rows are
    re-normalized to unit length after projection.
    """
    if dim < 1:
        raise ValueError(f"pca_dim must be >= 1, got {dim}")
    x = np.concatenate([train_store.queries, train_store.targets])
    _, _, vt = np.linalg.svd(x, full_matrices=False)
    basis = vt[: min(dim, vt.shape[0])].T
    return _unit_rows((train_store, *others), lambda s: (s.queries @ basis, s.targets @ basis))


def normalize_store(store, holdout, dim=16):
    """Split, center+normalize, then PCA-project; the CLI's scorer input prep."""
    train_store, eval_store = split_store(store, holdout)
    train_store, eval_store = center_and_normalize(train_store, eval_store)
    return pca_project(train_store, eval_store, dim=dim)


# ---------------------------------------------------------------------------
# candidate-set sampling

def _others(size, n, count, rng):
    """An int64 array of `count` distinct indices drawn uniformly from range(size), never n.

    A uniform draw of distinct indices from range(size - 1), with those at
    or above n shifted up by one, maps one-to-one onto the draws from
    range(size) without n, so it stays exactly uniform. An n outside
    range(size) raises ValueError before any draw, since the shift would
    not skip it.
    """
    if not 0 <= n < size:
        raise ValueError(f"pair index n must lie in [0, {size}), got {n}")
    r = rng.choice(size - 1, count, replace=False)
    r += r >= n
    return r


def sample_retrieval_batch(store, n, c, rng):
    """Assemble one c-row candidate set for query n with a planted match.

    Negatives are drawn without replacement from all target indices except
    the match; the match lands at a uniform random slot in [1, c-1].
    """
    size = len(store)
    if c < 2:
        raise ValueError(f"candidate count c must be >= 2 (the query and its match), got {c}")
    if c - 1 > size - 1:
        raise ValueError(f"candidate count {c} needs at least {c} stored pairs, have {size}")
    r = _others(size, n, c - 1, rng)
    a = np.empty((c, store.queries.shape[1]), dtype=store.targets.dtype)
    a[0] = store.queries[n]
    a[1:] = store.targets[r]
    m = int(rng.integers(1, c))
    a[m] = store.targets[n]
    return RetrievalBatch(a=a, m=m)


def sample_sequence_batch(target_ids, n, count, rng):
    """Token-level analogue: the (count, n_ctx) ids of `count` negative targets for pair n."""
    return target_ids[_others(len(target_ids), n, count, rng)]


# ---------------------------------------------------------------------------
# indirect training (frozen embeddings, trainable scorer)

def train_indirect(model, store, eval_store, steps=200, batch_size=16, lr=1e-4, seed=0, eval_every=50):
    """Cross-entropy training of the scoring model over frozen embeddings.

    The match-detection circuit sits behind a long optimization plateau, so
    the learning rate stays constant. Every eval point scores one candidate
    set per eval pair, drawn once from `seed + 1`, so `eval_store` needs at
    least as many pairs as a set has candidates.
    """
    _check_rate("lr", lr)
    run_cfg = TrainConfig(steps=steps, batch_size=batch_size, eval_every=eval_every)
    c = model.config.n_ctx
    if len(eval_store) < c:
        raise ValueError(f"{c} candidates per set need at least {c} eval pairs, have {len(eval_store)}")
    rng = np.random.default_rng(seed)
    eval_rng = np.random.default_rng(seed + 1)

    def stacked(batches):  # the sets as one model-dtype input, and their match slots
        return Tensor(np.stack([b.a for b in batches]).astype(model.dtype)), [b.m for b in batches]

    def set_loss(a, m):
        return T.cross_entropy(retrieval_mixer_forward(model, a)[0], m)

    eval_sets = stacked([sample_retrieval_batch(eval_store, n, c, eval_rng) for n in range(len(eval_store))])

    def step_loss():
        draws = [sample_retrieval_batch(store, int(rng.integers(0, len(store))), c, rng) for _ in range(batch_size)]
        return set_loss(*stacked(draws))

    def eval_ce():
        with T.no_grad():
            return set_loss(*eval_sets).item()

    return _run_steps(
        model, run_cfg, lr_at=lambda step: lr, step_loss=step_loss, eval_loss=eval_ce, tokens_per_step=batch_size * c,
    )


# ---------------------------------------------------------------------------
# InfoNCE

def infonce_loss(q_emb, pos_emb, neg_embs, tau=0.02):
    """Contrastive loss -log f+/(f+ + sum fi) with f = exp(cos/tau).

    q_emb and pos_emb are (d,) rows and neg_embs an (N, d) tensor. With a
    leading batch axis, (B, d), (B, d) and (B, N, d), the result is the
    mean loss over the batch. The loss is the softmax cross-entropy of the
    positive among the 1 + N cosine logits, which `cross_entropy`
    evaluates in log space: at tau = 0.02 the raw exponentials overflow.
    """
    d = q_emb.data.shape[-1]
    query = T.reshape(q_emb, q_emb.data.shape[:-1] + (1, d))
    cands = T.concat([T.reshape(pos_emb, pos_emb.data.shape[:-1] + (1, d)), neg_embs], axis=-2)
    num = T.tsum(T.mul(query, cands), axis=-1)
    qn = T.sqrt(T.tsum(T.mul(query, query), axis=-1))
    cn = T.sqrt(T.tsum(T.mul(cands, cands), axis=-1))
    if np.any(qn.data == 0.0) or np.any(cn.data == 0.0):
        raise ValueError("cosine similarity undefined for a zero-norm vector")
    sims = T.mul(T.div(num, T.mul(qn, cn)), 1.0 / tau)  # (..., 1 + N), the positive first
    logits = T.reshape(sims, (-1, sims.data.shape[-1]))
    return T.cross_entropy(logits, np.zeros(logits.data.shape[0], dtype=np.int64))


def train_infonce(model, pair_corpus, cfg, eval_pairs=None):
    """Contrastive fine-tuning of the embedding model on query/target pairs.

    `pair_corpus` is (query_seqs, target_seqs); gradients flow through the
    embedding extraction into the model itself. Each step embeds the
    queries, positives and negatives of all its examples in one forward
    pass. The eval loss scores every `eval_pairs` query against its target
    and `cfg.negatives` other eval targets, so the eval set needs more
    pairs than that. Every sequence is checked and stacked into ids once,
    before the first step, and the eval negatives are drawn once.
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
    cfg_m = model.config
    q_ids, t_ids = _id_stack(query_seqs, cfg_m), _id_stack(target_seqs, cfg_m)
    if eval_pairs is not None:
        eq_ids, et_ids = _id_stack(eq, cfg_m), _id_stack(et, cfg_m)
        eval_rng = np.random.default_rng(cfg.seed + 1)
        eval_negs = np.array([_others(len(et_ids), n, cfg.negatives, eval_rng) for n in range(len(eq_ids))])
    rng = np.random.default_rng(cfg.seed)
    width = 2 + cfg.negatives  # query, positive, negatives

    def step_loss():
        ids = []
        for _ in range(cfg.batches_per_update):
            n = int(rng.integers(0, len(q_ids)))
            ids += [q_ids[n:n + 1], t_ids[n:n + 1], sample_sequence_batch(t_ids, n, cfg.negatives, rng)]
        embs = T.reshape(embedding_graph(model, np.concatenate(ids)), (cfg.batches_per_update, width, cfg_m.d_model))
        q, pos = (T.reshape(T.narrow(embs, 1, i, 1), (cfg.batches_per_update, cfg_m.d_model)) for i in (0, 1))
        return infonce_loss(q, pos, T.narrow(embs, 1, 2, cfg.negatives), cfg.tau)

    def eval_loss():
        if eval_pairs is None:
            return float("nan")
        q, t = _embed_rows(model, eq_ids), _embed_rows(model, et_ids)
        with T.no_grad():
            return infonce_loss(Tensor(q), Tensor(t), Tensor(t[eval_negs]), cfg.tau).item()

    run_cfg = TrainConfig(steps=cfg.steps, eval_every=cfg.eval_every)
    return _run_steps(
        model, run_cfg, lr_at=lambda step: run_cfg.lr_at(step, cfg.lr), step_loss=step_loss, eval_loss=eval_loss,
        tokens_per_step=cfg.batches_per_update,
    )


# ---------------------------------------------------------------------------
# inference and evaluation

def _unit64(x):
    """`x` in float64 with every row (last axis) scaled to unit length."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
    if np.any(norms == 0):
        raise ValueError("zero-norm vector has no cosine direction")
    return x / norms


def _cosines(units, query_unit):
    """Cosine of each unit row of `units` with the unit query, one last-axis sum per row.

    Every row is reduced on its own, so a row's cosine has the same bits
    whether it is scored in a (c, d) table or a (trials, c, d) chunk.
    """
    return np.sum(units * query_unit, axis=-1)


def retrieve_topk(query_emb, target_matrix, k):
    """Indices of the k most cosine-similar target rows, ties to lower index.

    Batched form: normalize every row to unit length, then reduce the
    products in one vectorized pass. The reduction order per row matches a
    plain per-pair cosine loop, so the two agree bit-for-bit. A negative k
    raises ValueError: as a slice bound it would drop the last |k| rows.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    q, y = _unit64(query_emb), _unit64(target_matrix)
    z = _cosines(y, q)
    order = np.lexsort((np.arange(len(z)), -z))
    return order[:k].tolist(), z


ACCURACY_CSV_HEADER = ["n", "trials", "top1_accuracy"]


def write_accuracy_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ACCURACY_CSV_HEADER)
        for n, trials, acc in rows:
            writer.writerow([n, trials, repr(acc)])


def _check_eval_sizes(sample_sizes, trials):
    """Raise ValueError for a trial count below 1 or a candidate-set size below 2."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    small = [n for n in sample_sizes if n < 2]
    if small:
        raise ValueError(f"sizes must be >= 2, got {small[0]}")


# Float64 products in one scored chunk of top-1 trials (256 KiB). With
# 1 MiB chunks the evaluation took twice as long (2-vCPU Xeon VM): glibc
# mapped every chunk temporary afresh, 6.2k minor page faults per call.
TOPK_CHUNK_FLOATS = 2**15


def eval_topk_accuracy(store, sample_sizes, trials, rng=None):
    """Top-1 accuracy per candidate-set size n over seeded random draws.

    Each trial scores one query against its true target plus n-2 distractor
    targets, so every n must be at least 2. Sizes needing more targets than
    available are skipped with a notice. Monotone non-increase in n is
    reported, not asserted. A store holding any zero-norm query or target
    row is rejected before the first draw, so the generator is untouched.

    Both tables are converted to float64 unit rows once. The trials of one
    size are then scored in chunks of at most TOPK_CHUNK_FLOATS products,
    with the same per-row reduction as `retrieve_topk`, so every cosine
    keeps its bits. A trial hits when the true target (slot 0) scores at
    least every distractor, which is `retrieve_topk`'s tie to the lower
    index.
    """
    _check_eval_sizes(sample_sizes, trials)
    queries, targets = _unit64(store.queries), _unit64(store.targets)
    rng = rng or np.random.default_rng(0)
    size, d = targets.shape
    rows = []
    for n in sample_sizes:
        if n - 2 > size - 1:
            log.warning("skipping n=%d: only %d pairs available", n, size)
            continue
        per_chunk = max(1, TOPK_CHUNK_FLOATS // ((n - 1) * d))
        hits = 0
        for start in range(0, trials, per_chunk):
            picks = np.empty((min(per_chunk, trials - start), n - 1), dtype=np.int64)
            for row in picks:  # one query index, then its distractors, trial by trial
                idx = int(rng.integers(0, size))
                row[0] = idx
                row[1:] = _others(size, idx, n - 2, rng)
            z = _cosines(targets[picks], queries[picks[:, :1]])
            hits += int(np.count_nonzero(np.all(z[:, :1] >= z[:, 1:], axis=1)))
        rows.append((n, trials, hits / trials))
    return rows
