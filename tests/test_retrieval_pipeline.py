"""Indirect-scheme controls over real embedding stores (slow path)."""

import numpy as np
import pytest

from mixerlab import tensor as T
from mixerlab.data import pairs_to_sequences
from mixerlab.models import ModelConfig, build_model, retrieval_mixer_forward
from mixerlab.retrieval import (
    center_and_normalize,
    embed_pair_store,
    eval_topk_accuracy,
    infonce_loss,
    pca_project,
    sample_retrieval_batch,
    train_indirect,
)
from mixerlab.tensor import Tensor

LN32 = np.log(32)


@pytest.fixture(scope="module")
def stores(pretrained_generator):
    """Embed the pair corpus once for the module with the pretrained generator and a fresh model."""
    gen, train_pairs, eval_pairs = pretrained_generator
    fresh = build_model(gen.config, seed=99)
    tq, tt = pairs_to_sequences(train_pairs, gen.config.n_ctx)
    eq, et = pairs_to_sequences(eval_pairs, gen.config.n_ctx)

    def prep(model):
        a, b = center_and_normalize(embed_pair_store(model, tq, tt), embed_pair_store(model, eq, et))
        return pca_project(a, b, dim=16)

    return {"good": prep(gen), "rand": prep(fresh)}


def run_scorer(store_pair, seed=1):
    train_store, eval_store = store_pair
    scorer = build_model(ModelConfig("retrieval_mixer", d_model=16, n_layers=1, n_ctx=32, vocab=3), seed=seed)
    report = train_indirect(scorer, train_store, eval_store, steps=1500, batch_size=16, lr=3e-3, seed=seed + 10, eval_every=500)
    return report


def test_fresh_scorer_eval_ce_near_uniform(stores):
    train_store, eval_store = stores["good"]
    scorer = build_model(ModelConfig("retrieval_mixer", d_model=16, n_layers=1, n_ctx=32, vocab=3), seed=5)
    rng = np.random.default_rng(0)
    losses = []
    with T.no_grad():
        for n in range(len(eval_store)):
            batch = sample_retrieval_batch(eval_store, n, 32, rng)
            logits, _ = retrieval_mixer_forward(scorer, Tensor(batch.a.astype(np.float32)))
            losses.append(T.cross_entropy(T.reshape(logits, (1, 32)), [batch.m]).item())
    assert abs(np.mean(losses) - LN32) <= 0.35


def test_indirect_positive_control_pretrained_embeddings(stores):
    report = run_scorer(stores["good"])
    assert report.final_eval_loss() < LN32 - 0.5


def test_indirect_negative_control_untrained_embeddings(stores):
    report = run_scorer(stores["rand"])
    assert abs(report.final_eval_loss() - LN32) <= 0.05 * LN32


def test_pretrained_embeddings_already_carry_matching_signal(stores):
    _, eval_store = stores["good"]
    rows = eval_topk_accuracy(eval_store, [32], trials=400, rng=np.random.default_rng(3))
    assert rows[0][2] >= 3.0 / 31.0


def test_infonce_near_isotropic_init_band():
    vals = []
    for s in range(20):
        srng = np.random.default_rng(100 + s)
        loss = infonce_loss(
            Tensor(srng.normal(size=64)),
            Tensor(srng.normal(size=64)),
            Tensor(np.stack([srng.normal(size=64) for _ in range(31)])),
            tau=1.0,
        )
        vals.append(loss.item())
    assert abs(np.mean(vals) - LN32) <= 0.2
