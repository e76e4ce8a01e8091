"""Fixtures shared by more than one test module."""

import numpy as np
import pytest

from mixerlab.data import pair_line_chunks, synthetic_pairs
from mixerlab.models import ModelConfig, build_model
from mixerlab.training import TrainConfig, train

PAIR_N_CTX = 22


@pytest.fixture(scope="session")
def pretrained_generator():
    """The retrieval pipeline's generator, CLM-pretrained once per session on the synthetic pairs.

    Returns (model, train_pairs, eval_pairs). Tests only embed with the
    model; a test that trains it further tunes a copy.
    """
    rng = np.random.default_rng(7)
    pairs = synthetic_pairs(576, rng)
    train_pairs, eval_pairs = pairs[:512], pairs[512:]
    gen_cfg = ModelConfig("masked_mixer", d_model=64, n_layers=2, n_ctx=PAIR_N_CTX, vocab=259, padding_side="left")
    gen = build_model(gen_cfg, seed=0)
    train(
        gen,
        (pair_line_chunks(train_pairs, PAIR_N_CTX), pair_line_chunks(eval_pairs[:32], PAIR_N_CTX)),
        TrainConfig(objective="clm", steps=1500, batch_size=16, lr=2e-3, eval_every=1500, seed=0),
    )
    return gen, train_pairs, eval_pairs
