"""Training objectives, the AdamW optimizer, and the shared step driver.

Objectives differ only in how a batch becomes a scalar loss: shifted
all-next-token prediction (optionally at several shift widths summed),
suffix prediction from a learned placeholder, two-sided prediction, and
sequence reconstruction. Every variant masks pad-token targets and
averages per token, so inserting pad-only sequences never moves the loss.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import PAD_ID
from .models import forward, forward_from_embedding
from .tensor import Tensor, backward

# The model topology each objective trains (see models.FAMILIES); either
# block type can fill it.
OBJECTIVES = {
    "clm": "causal",
    "multi_token": "causal",
    "many_token": "causal",
    "bidirectional": "bidirectional",
    "autoencoder": "autoencoder",
}

# Learning rate of `train` when TrainConfig.lr is None, by block type.
DEFAULT_LR = {"mixer": 5e-4, "transformer": 2e-4}

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "clm"
    batch_size: int = 8
    steps: int = 100
    lr: float = None  # DEFAULT_LR of the model's block when None
    weight_decay: float = 0.01
    seed: int = 0
    eval_every: int = 50
    multi_m: int = 1
    prefix_len: int = None
    grad_clip: float = 1.0  # None disables

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.multi_m < 1 or self.multi_m > 4:
            raise ValueError("multi-token width must lie in [1, 4]")

    def lr_at(self, step_index, lr0):
        return lr0 * (1.0 - step_index / self.steps)


@dataclass
class EvalRecord:
    step: int
    train_loss: float
    eval_loss: float
    lr: float
    tokens_seen: int


@dataclass
class TrainReport:
    records: list = field(default_factory=list)
    step_losses: list = field(default_factory=list)  # (step, loss, lr, tokens_seen)

    def final_eval_loss(self):
        return self.records[-1].eval_loss


class TrainingDiverged(RuntimeError):
    """Raised on a non-finite loss or parameter; the model is restored to the last eval point."""

    def __init__(self, step, report):
        super().__init__(f"training diverged at step {step}; model restored to the last eval-point state")
        self.step = step
        self.report = report


METRICS_CSV_HEADER = ["step", "split", "loss", "lr", "tokens_seen"]


def write_metrics_csv(path, report):
    """One train row per optimizer step, one eval row per evaluation point."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_CSV_HEADER)
        for step, loss, lr, tokens in report.step_losses:
            writer.writerow([step, "train", repr(loss), repr(lr), tokens])
        for r in report.records:
            writer.writerow([r.step, "eval", repr(r.eval_loss), repr(r.lr), r.tokens_seen])


# ---------------------------------------------------------------------------
# optimizer

def adamw_state(model):
    return {
        name: {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data)}
        for name, p in model.params.items()
    }


def adamw_step(params, grads, state, cfg, step, lr_t):
    """Decoupled-weight-decay Adam update; `step` is 1-based for bias correction."""
    b1, b2 = ADAM_BETAS
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        s = state[name]
        s["m"] = b1 * s["m"] + (1.0 - b1) * g
        s["v"] = b2 * s["v"] + (1.0 - b2) * (g * g)
        m_hat = s["m"] / (1.0 - b1**step)
        v_hat = s["v"] / (1.0 - b2**step)
        p.data = p.data - lr_t * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + cfg.weight_decay * p.data)


def clip_global_norm(grads, max_norm):
    total = np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total  # applied in each grad's own dtype
        for name in grads:
            grads[name] = grads[name] * grads[name].dtype.type(scale)
    return total


# ---------------------------------------------------------------------------
# objective losses

def _token_loss(logits, targets, reduction="mean"):
    """Cross-entropy over every non-pad target of a (..., n, vocab) logit block."""
    flat = T.reshape(logits, (-1, logits.data.shape[-1]))
    return T.cross_entropy(flat, np.asarray(targets).reshape(-1), ignore_id=PAD_ID, reduction=reduction)


def many_token_logits(model, ids, prefix_len):
    """Forward pass with suffix positions fed the learned placeholder vector.

    `ids` is one sequence (n_ctx,) or a batch (batch, n_ctx). Suffix logits
    cannot depend on the suffix ground-truth tokens: those token ids never
    enter the forward pass.
    """
    cfg = model.config
    n = cfg.n_ctx
    if prefix_len is None or not 1 <= prefix_len < n:
        raise ValueError(f"prefix_len must lie in [1, n_ctx), got {prefix_len}")
    ids = np.asarray(ids)
    placeholder = model.params["many_token_placeholder"]
    ones = Tensor(np.ones(ids.shape[:-1] + (n - prefix_len, 1), dtype=model.dtype))
    prefix_e = T.embedding_lookup(model.params["wte"], ids[..., :prefix_len])
    e = T.concat([prefix_e, T.matmul(ones, placeholder)], axis=-2)
    logits, _ = forward_from_embedding(model, e, ids=None)
    return logits


def _nonpad_rows(batch):
    """The sequences of a (batch, n_ctx) id array that hold a non-pad token."""
    batch = np.asarray(batch)
    return batch[(batch != PAD_ID).any(axis=1)]


def _loss_terms(model, batch, cfg):
    """(logits, targets) blocks of one batch; the objective's loss sums their mean token losses.

    multi_token has one block per shift width, all from one forward pass;
    every other objective has one block.
    """
    n = model.config.n_ctx
    if cfg.objective == "many_token":
        logits = many_token_logits(model, batch, cfg.prefix_len)
        return [(T.narrow(logits, -2, cfg.prefix_len - 1, n - cfg.prefix_len), batch[:, cfg.prefix_len:])]
    logits, _ = forward(model, batch)
    if OBJECTIVES[cfg.objective] != "causal":
        return [(logits, batch)]
    shifts = range(1, cfg.multi_m + 1) if cfg.objective == "multi_token" else [1]
    return [(T.narrow(logits, -2, 0, n - s), batch[:, s:]) for s in shifts]


def batch_loss(model, batch, cfg):
    """Mean per-token loss of one (batch, n_ctx) id array under one forward pass.

    Pad-only sequences are dropped first: they carry no target, and
    leaving them out keeps the loss bit-identical with or without them.
    """
    batch = _nonpad_rows(batch)
    if len(batch) == 0:
        raise ValueError("empty loss: batch contains no unmasked target positions")
    loss = None
    for logits, targets in _loss_terms(model, batch, cfg):
        term = _token_loss(logits, targets)
        loss = term if loss is None else T.add(loss, term)
    return loss


def _check_family(model, cfg):
    topology = OBJECTIVES[cfg.objective]
    if model.config.topology != topology:
        raise ValueError(f"objective {cfg.objective!r} trains a {topology} family, got {model.config.family!r}")


# ---------------------------------------------------------------------------
# driver

def _batches(store, batch_size, rng):
    """Deterministic epoch stream: reshuffle chunk order each epoch, no replacement."""
    n = len(store)
    b = min(batch_size, n)
    while True:
        order = rng.permutation(n)
        for start in range(0, n - b + 1, b):
            yield store.ids[order[start:start + b]]


def evaluate(model, store, cfg):
    """batch_loss over the whole store, computed `cfg.batch_size` sequences at a time.

    Each loss term's cross-entropy sum and target count accumulate over
    the batches, so the result is the per-token mean of every term over
    the store, whatever the batch boundaries. Raises only where one
    batch_loss over the store would: when some term has no target at all.
    """
    sums, counts = {}, {}
    with T.no_grad():
        for start in range(0, len(store), cfg.batch_size):
            batch = _nonpad_rows(store.ids[start:start + cfg.batch_size])
            if len(batch) == 0:
                continue
            for i, (logits, targets) in enumerate(_loss_terms(model, batch, cfg)):
                count = int(np.sum(targets != PAD_ID))
                if count:
                    sums[i] = sums.get(i, 0.0) + _token_loss(logits, targets, reduction="sum").item()
                counts[i] = counts.get(i, 0) + count
    if not counts or not all(counts.values()):
        raise ValueError("empty loss: the store contains no unmasked target positions")
    return float(sum(sums[i] / counts[i] for i in counts))


def _run_steps(model, cfg, lr_at, step_loss, eval_loss, tokens_per_step, first_loss=float("nan"), save_fn=None):
    """The optimisation loop shared by every trainer; returns its TrainReport.

    `step_loss()` builds one step's scalar loss graph (drawing its own
    batch), `eval_loss()` scores the model at an eval point and `lr_at(i)`
    is the learning rate of 0-based step i. Each step runs backward,
    clips the global gradient norm to `cfg.grad_clip` (None disables) and
    applies AdamW. Eval points are step 0, every `cfg.eval_every` steps and
    the last step; each records the mean train loss since the previous one
    and snapshots the parameters. A non-finite loss (caught before
    backward) or a non-finite parameter at an eval point restores the
    latest snapshot and raises TrainingDiverged, so no snapshot, saved
    checkpoint or returned model holds a non-finite value. When `save_fn`
    is given it is called as save_fn(model, tag) at every eval point.
    """
    state = adamw_state(model)
    report = TrainReport()

    def record(step, train_loss):
        report.records.append(EvalRecord(step, float(train_loss), eval_loss(), lr_at(step), step * tokens_per_step))
        if save_fn:
            save_fn(model, f"step{step:06d}")
        return {name: p.data.copy() for name, p in model.params.items()}

    def diverged(step):
        for name, p in model.params.items():
            p.data = last_good[name]
        return TrainingDiverged(step, report)

    last_good = record(0, first_loss)
    since_eval = []
    for step in range(cfg.steps):
        loss = step_loss()
        loss_val = loss.item()
        if not np.isfinite(loss_val):
            raise diverged(step)
        backward(loss)
        grads = {name: p.grad for name, p in model.params.items() if p.grad is not None}
        if cfg.grad_clip is not None:
            clip_global_norm(grads, cfg.grad_clip)
        adamw_step(model.params, grads, state, cfg, step + 1, lr_at(step))
        for p in model.params.values():
            p.grad = None
        since_eval.append(loss_val)
        report.step_losses.append((step + 1, loss_val, lr_at(step), (step + 1) * tokens_per_step))
        if (step + 1) % cfg.eval_every == 0 or step + 1 == cfg.steps:
            if not all(np.isfinite(p.data).all() for p in model.params.values()):
                raise diverged(step)
            last_good = record(step + 1, np.mean(since_eval))
            since_eval = []
    return report


def train(model, corpus, cfg, save_fn=None):
    """Run one training job and return its per-eval report.

    `corpus` is a (train_store, eval_store) pair. A non-finite loss or
    parameter raises TrainingDiverged with the model restored to the last
    eval point. When `save_fn` is given it is called as save_fn(model, tag)
    at every eval point.
    """
    _check_family(model, cfg)
    train_store, eval_store = corpus
    if len(train_store) == 0:
        raise ValueError("training split is empty")
    if cfg.objective == "many_token" and "many_token_placeholder" not in model.params:
        rng0 = np.random.default_rng(cfg.seed)
        model.params["many_token_placeholder"] = Tensor(
            rng0.normal(0.0, 0.02, size=(1, model.config.d_model)).astype(model.dtype), requires_grad=True
        )

    lr0 = cfg.lr if cfg.lr is not None else DEFAULT_LR[model.config.block]
    b = min(cfg.batch_size, len(train_store))
    stream = _batches(train_store, cfg.batch_size, np.random.default_rng(cfg.seed))
    with T.no_grad():
        first_loss = batch_loss(model, train_store.ids[:b], cfg).item()
    return _run_steps(
        model, cfg,
        lr_at=lambda step: cfg.lr_at(step, lr0),
        step_loss=lambda: batch_loss(model, next(stream), cfg),
        eval_loss=lambda: evaluate(model, eval_store, cfg) if len(eval_store) else float("nan"),
        tokens_per_step=b * train_store.ids.shape[1],
        first_loss=first_loss,
        save_fn=save_fn,
    )
