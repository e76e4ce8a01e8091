"""Gradient-based input recovery from hidden-layer activations.

Starting from a random embedding, plain gradient descent minimizes the L1
distance between the running iterate's activations at a chosen layer and
those of the true input. The best iterate is decoded back to tokens with
the embedding matrix's pseudoinverse, and agreement is scored with a
pad-aware normalized Hamming distance. Convergence is judged against an
epsilon calibrated from the activation shift under tiny Gaussian noise.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import PAD_ID
from .models import _as_ids, forward_from_embedding
from .tensor import Tensor, backward, pinv
from .training import _check_positive, _check_rate

INIT_MEAN = 0.5  # the first iterate is INIT_MEAN + N(0, INIT_STD^2) in every coordinate
INIT_STD = 1.0 / 20.0
CALIB_NOISE_STD = 1.0 / 20.0  # the calibration's noise on the true embedding, N(0, CALIB_NOISE_STD^2)


@dataclass(frozen=True)
class InversionConfig:
    n_iters: int = 500
    eta: float = 0.1  # tuned once on the untrained flat mixer, then frozen
    target_layer: int = -2  # last block output; -1 selects the post-norm state
    last_token_only: bool = False
    seed: int = 0

    def __post_init__(self):
        _check_positive(self, "n_iters")
        _check_rate("eta", self.eta)

    def eta_at(self, n):
        """Linear schedule from eta down to eta/10 across the run."""
        if self.n_iters == 1:
            return self.eta
        return self.eta * (1.0 - 0.9 * n / (self.n_iters - 1))


@dataclass
class InversionReport:
    final_distance: float
    epsilon: float
    converged: bool
    decoded: np.ndarray
    hamming: float
    best_iter: int
    distances: list = field(repr=False, default_factory=list)
    calibration_decode_stable: bool = True
    seed: int = 0
    model_id: str = ""
    layer: int = -1
    n_ctx: int = 0


INVERSION_CSV_HEADER = ["seed", "model_id", "layer", "n_ctx", "final_distance", "epsilon", "converged", "hamming"]


def csv_row(report):
    return [
        report.seed,
        report.model_id,
        report.layer,
        report.n_ctx,
        repr(report.final_distance),
        repr(report.epsilon),
        int(report.converged),
        repr(report.hamming),
    ]


def write_csv(path, reports):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(INVERSION_CSV_HEADER)
        for r in reports:
            writer.writerow(csv_row(r))


def normalized_hamming(x, y):
    """Fraction of non-pad positions of x where y disagrees."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    keep = x != PAD_ID
    if not keep.any():
        return 0.0
    return float(np.sum(x[keep] != y[keep]) / keep.sum())


def decode_embedding(w, e):
    """Map embedding rows back to tokens via pseudoinverse and argmax.

    w is the (d_model, vocab) embedding matrix; e holds one embedding row
    per position. No positional encoding is subtracted because none of the
    model families add any to their embeddings.
    """
    w = w.data if isinstance(w, Tensor) else np.asarray(w)
    return _decode(pinv(w), e)


def _decode(w_pinv, e):
    """decode_embedding given the embedding matrix's pseudoinverse."""
    e = e.data if isinstance(e, Tensor) else np.asarray(e)
    return np.argmax(w_pinv @ e.T, axis=0).astype(np.int32)


def _activations(model, e_data, ids, cfg_inv, as_leaf=False):
    """The leaf e and its hidden state at the target layer; no later block runs."""
    e = Tensor(e_data, requires_grad=as_leaf)
    acts = forward_from_embedding(model, e, ids=ids, layer=cfg_inv.target_layer)[1][-1]
    if cfg_inv.last_token_only:
        acts = T.narrow(acts, -2, acts.data.shape[-2] - 1, 1)
    return e, acts


@dataclass
class CalibrationResult:
    epsilon: float
    decode_stable: bool


def calibrate_epsilon(model, tokens, cfg):
    """Activation shift caused by tiny Gaussian noise on the true embedding.

    Also checks that the noise leaves the pseudoinverse decode unchanged;
    a violation is recorded, not fatal.
    """
    ids = _as_ids(tokens, model.config)
    e_true = T.embedding_lookup(model.params["wte"], ids).data
    with T.no_grad():
        _, base = _activations(model, e_true, ids, cfg)
    return _calibrate(model, ids, cfg, e_true, base, pinv(model.params["wte"].data))


def _calibrate(model, ids, cfg, e_true, base, w_pinv):
    """calibrate_epsilon given the true embedding, its activations and the embedding matrix's pseudoinverse."""
    rng = np.random.default_rng(cfg.seed + 1)
    noise = rng.normal(0.0, CALIB_NOISE_STD, size=e_true.shape).astype(model.dtype)
    with T.no_grad():
        _, shifted = _activations(model, e_true + noise, ids, cfg)
    epsilon = float(np.abs(shifted.data - base.data).sum())
    stable = bool(np.array_equal(_decode(w_pinv, e_true), _decode(w_pinv, e_true + noise)))
    return CalibrationResult(epsilon=epsilon, decode_stable=stable)


def invert_input(model, tokens, cfg, model_id=""):
    """Recover input tokens by descending the L1 activation gap (frozen model).

    Returns the best iterate's decode, its Hamming distance to the truth,
    and the epsilon-calibrated convergence verdict.
    """
    ids = _as_ids(tokens, model.config)
    rng = np.random.default_rng(cfg.seed)
    dtype = model.dtype

    was_grad = {name: p.requires_grad for name, p in model.params.items()}
    model.freeze()
    try:
        e_true = T.embedding_lookup(model.params["wte"], ids).data
        with T.no_grad():
            _, target = _activations(model, e_true, ids, cfg)

        iterate = (INIT_MEAN + rng.normal(0.0, INIT_STD, size=e_true.shape)).astype(dtype)
        best_dist = np.inf
        best_iter = 0
        best_e = iterate  # every update rebinds `iterate`; nothing writes into it
        distances = []
        for n in range(cfg.n_iters):
            e, acts = _activations(model, iterate, ids, cfg, as_leaf=True)
            loss = T.l1_distance(acts, target)
            dist = float(loss.item())
            distances.append(dist)
            if dist < best_dist:
                best_dist, best_iter, best_e = dist, n, iterate
            backward(loss)
            if e.grad is None or not np.all(np.isfinite(e.grad)):
                raise FloatingPointError(f"non-finite inversion gradient at iteration {n}")
            iterate = iterate - (cfg.eta_at(n) * e.grad).astype(dtype, copy=False)

        with T.no_grad():
            _, acts = _activations(model, iterate, ids, cfg)
        final = float(np.abs(acts.data - target.data).sum())
        distances.append(final)
        if final < best_dist:
            best_dist, best_iter, best_e = final, cfg.n_iters, iterate

        w_pinv = pinv(model.params["wte"].data)  # one SVD serves the calibration and the decode
        calib = _calibrate(model, ids, cfg, e_true, target, w_pinv)
        decoded = _decode(w_pinv, best_e)
        return InversionReport(
            final_distance=best_dist,
            epsilon=calib.epsilon,
            converged=best_dist < calib.epsilon,
            decoded=decoded,
            hamming=normalized_hamming(ids, decoded),
            best_iter=best_iter,
            distances=distances,
            calibration_decode_stable=calib.decode_stable,
            seed=cfg.seed,
            model_id=model_id,
            layer=cfg.target_layer,
            n_ctx=model.config.n_ctx,
        )
    finally:
        for name, p in model.params.items():
            p.requires_grad = was_grad[name]
