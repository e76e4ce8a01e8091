"""Desk-scale laboratory for masked-mixer language models.

Numpy-backed autodiff engine, causal mixer and transformer model
families, gradient-based input inversion, the training objectives
(all-next-token, bidirectional, multi-token, many-token, autoencoding),
and two dense-retrieval training schemes.
"""

from .tensor import (
    CHECK64,
    TRAIN32,
    Tensor,
    backward,
    dtype_for,
    grad_check,
    multinomial_sample,
    no_grad,
    pinv,
)
from .data import Tokenizer, build_corpus, chunk_and_pad
from .models import Model, ModelConfig, build_model, forward, generate, sequence_embedding
from .inversion import InversionConfig, InversionReport, calibrate_epsilon, decode_embedding, invert_input, normalized_hamming
from .training import TrainConfig, TrainReport, train
from .retrieval import EmbeddingStore, InfoNCEConfig, RetrievalBatch, embed_corpus, eval_topk_accuracy, infonce_loss, retrieve_topk, sample_retrieval_batch, train_indirect, train_infonce
from .checkpoint import load_checkpoint, save_checkpoint
from .jl import jl_min_dim

__all__ = [
    "CHECK64",
    "TRAIN32",
    "Tensor",
    "backward",
    "dtype_for",
    "grad_check",
    "multinomial_sample",
    "no_grad",
    "pinv",
    "Tokenizer",
    "build_corpus",
    "chunk_and_pad",
    "Model",
    "ModelConfig",
    "build_model",
    "forward",
    "generate",
    "sequence_embedding",
    "InversionConfig",
    "InversionReport",
    "calibrate_epsilon",
    "decode_embedding",
    "invert_input",
    "normalized_hamming",
    "TrainConfig",
    "TrainReport",
    "train",
    "EmbeddingStore",
    "InfoNCEConfig",
    "RetrievalBatch",
    "embed_corpus",
    "eval_topk_accuracy",
    "infonce_loss",
    "retrieve_topk",
    "sample_retrieval_batch",
    "train_indirect",
    "train_infonce",
    "load_checkpoint",
    "save_checkpoint",
    "jl_min_dim",
]

__version__ = "0.1.0"
