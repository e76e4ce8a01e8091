"""End-to-end retrieval: pretrain, embed, match frozen embeddings, tune.

Two schemes are shown on a synthetic key-value pair corpus:
  - indirect: a separate scoring model learns to pick the matching target
    embedding out of a candidate set (the embeddings stay frozen);
  - contrastive: the embedding model itself is tuned so matching pairs
    have high cosine similarity.

Run:  python3 demos/05_retrieval_pipeline.py   (takes a few minutes)
"""

import numpy as np

from mixerlab.data import pair_line_chunks, pairs_to_sequences, synthetic_pairs
from mixerlab.models import ModelConfig, build_model
from mixerlab.retrieval import (
    InfoNCEConfig,
    center_and_normalize,
    embed_pair_store,
    eval_topk_accuracy,
    train_indirect,
    train_infonce,
)
from mixerlab.training import TrainConfig, train


rng = np.random.default_rng(7)
pairs = synthetic_pairs(576, rng, key_len=6, payload_len=2)
train_pairs, eval_pairs = pairs[:512], pairs[512:]
print(f"pair corpus: {len(train_pairs)} train / {len(eval_pairs)} eval, e.g. {train_pairs[0]}")

N_CTX = 20
gen_cfg = ModelConfig("masked_mixer", d_model=64, n_layers=2, n_ctx=N_CTX, vocab=259, padding_side="left")
gen = build_model(gen_cfg, seed=0)
lm_corpus = (pair_line_chunks(train_pairs, N_CTX), pair_line_chunks(eval_pairs[:32], N_CTX))
rep = train(gen, lm_corpus, TrainConfig(objective="clm", steps=800, batch_size=16, lr=2e-3, eval_every=800, seed=0))
print(f"\nleft-padded CLM pretraining: eval loss -> {rep.final_eval_loss():.3f}")

tq, tt = pairs_to_sequences(train_pairs, N_CTX)
eq, et = pairs_to_sequences(eval_pairs, N_CTX)
store, store_eval = center_and_normalize(embed_pair_store(gen, tq, tt), embed_pair_store(gen, eq, et))
rows = eval_topk_accuracy(store_eval, [32], trials=400, rng=np.random.default_rng(1))
print(f"pretrained embeddings, cosine top-1@32: {rows[0][2]:.1%} (chance {1/31:.1%})")

print("\nindirect scheme: scoring model over frozen embeddings (c=32)")
scorer = build_model(ModelConfig("retrieval_mixer", d_model=64, n_layers=1, n_ctx=32, vocab=3), seed=1)
irep = train_indirect(scorer, store, store_eval, steps=1500, batch_size=16, lr=3e-3, seed=2, eval_every=500)
print(f"  eval CE: {irep.records[0].eval_loss:.3f} -> {irep.final_eval_loss():.3f} (uniform = ln 32 = {np.log(32):.3f})")

print("\ncontrastive scheme: tuning the embedding model itself")
nce = InfoNCEConfig(steps=150, negatives=31, batches_per_update=1, lr=1e-4, eval_every=150, seed=0)
nrep = train_infonce(gen, (tq, tt), nce, eval_pairs=(eq, et))
store_after = center_and_normalize(embed_pair_store(gen, eq, et))
rows = eval_topk_accuracy(store_after, [32], trials=400, rng=np.random.default_rng(2))
print(f"  tuned embeddings, cosine top-1@32: {rows[0][2]:.1%}")
