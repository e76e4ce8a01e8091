"""Training objectives, the AdamW optimizer, and the shared step driver.

Objectives differ only in how a batch becomes a scalar loss: shifted
all-next-token prediction (optionally at several shift widths summed),
suffix prediction from a learned placeholder, two-sided prediction, and
sequence reconstruction. Every variant masks pad-token targets and
averages per token, so inserting pad-only sequences never moves the loss.
"""

import csv
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from . import tensor as T
from .data import PAD_ID
from .models import _as_ids, _scored_logits, forward
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
WEIGHT_DECAY = 0.01


def _check_positive(cfg, *names):
    """Raise ValueError naming the first of `cfg`'s fields `names` that is below 1."""
    for name in names:
        value = getattr(cfg, name)
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _check_rate(name, value):
    """Raise ValueError naming `name` unless `value` is finite and > 0: any other rate trains uphill or not at all."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "clm"
    batch_size: int = 8
    steps: int = 100
    lr: float = None  # DEFAULT_LR of the model's block when None
    seed: int = 0
    eval_every: int = 50
    multi_m: int = 1
    prefix_len: int = None
    grad_clip: float = 1.0  # None disables

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        _check_positive(self, "steps", "batch_size", "eval_every")
        if self.multi_m < 1 or self.multi_m > 4:
            raise ValueError("multi-token width must lie in [1, 4]")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be > 0 (None disables clipping), got {self.grad_clip}")
        if self.lr is not None:
            _check_rate("lr", self.lr)

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
    """Raised on a non-finite loss or parameter; the model is restored to the last eval point.

    `cause` says what went non-finite: "non-finite loss", or "non-finite
    parameter NAME" for the first such parameter in the model's order.
    """

    def __init__(self, step, report, cause):
        super().__init__(f"training diverged at step {step}: {cause}; model restored to the last eval-point state")
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

class AdamWState:
    """AdamW's moments in two flat buffers, `m` and `v`, one entry per parameter value.

    Parameters are laid out in the model's order; `span[name]` is parameter
    `name`'s (start, stop) in both buffers. `last_values` holds, per run of
    parameters (see `gradient_runs`), the flat array the last step's
    parameter values are views of.
    """

    def __init__(self, params):
        dtypes = {p.data.dtype for p in params.values()}
        if len(dtypes) > 1:
            raise ValueError(f"AdamW needs one parameter dtype, got {sorted(map(str, dtypes))}")
        self.span, size = {}, 0
        for name, p in params.items():
            self.span[name] = (size, size + p.data.size)
            size += p.data.size
        dtype = dtypes.pop() if dtypes else np.float32
        self.m, self.v = np.zeros(size, dtype), np.zeros(size, dtype)
        self.last_values = {}


def gradient_runs(params):
    """[(names, flat_grad)]: one flat gradient array per run of consecutive parameters that hold a `.grad`, in order."""
    runs = []
    for has_grad, names in groupby(params, lambda n: params[n].grad is not None):
        if has_grad:
            names = list(names)
            runs.append((names, np.concatenate([params[n].grad for n in names], axis=None)))
    return runs


def adamw_state(model):
    return AdamWState(model.params)


def _flat_values(params, names, state):
    """One flat array of the values of `names`: the last step's array when they are still its views."""
    key = (state.span[names[0]][0], state.span[names[-1]][1])
    flat, views = state.last_values.get(key, (None, ()))
    if len(views) == len(names) and all(params[n].data is view for n, view in zip(names, views)):
        return flat
    return np.concatenate([params[n].data for n in names], axis=None)


def adamw_step(params, runs, state, step, lr_t):
    """Decoupled-weight-decay Adam update; `step` is 1-based for bias correction.

    The update runs once per entry of `runs` (see `gradient_runs`), over
    the run's flat gradient, moment and value arrays, in two scratch
    arrays; m and v are updated in place. Each `p.data` is rebound to a
    view of a new flat array, never written into, so a snapshot that holds
    an old array keeps its values.
    """
    b1, b2 = ADAM_BETAS
    for names, g in runs:
        start, stop = state.span[names[0]][0], state.span[names[-1]][1]
        m, v = state.m[start:stop], state.v[start:stop]
        x = _flat_values(params, names, state)
        t = np.multiply(g, 1.0 - b1)
        m *= b1
        m += t
        np.multiply(g, g, out=t)
        t *= 1.0 - b2
        v *= b2
        v += t
        u = np.divide(v, 1.0 - b2**step)  # v_hat
        np.sqrt(u, out=u)
        u += ADAM_EPS
        np.divide(m, 1.0 - b1**step, out=t)  # m_hat
        t /= u
        np.multiply(x, WEIGHT_DECAY, out=u)
        t += u
        t *= lr_t
        np.subtract(x, t, out=t)  # t now holds the new values
        views = []
        for n in names:
            a, b = state.span[n]
            params[n].data = t[a - start:b - start].reshape(params[n].data.shape)
            views.append(params[n].data)
        state.last_values[start, stop] = (t, views)


def clip_global_norm(params, runs, max_norm):
    """Scale the flat gradients of `runs` in place to a global L2 norm of at most `max_norm`; returns the norm before.

    Each parameter's float64 sum of squares is added in the runs' order,
    and the scale is applied in the gradients' own dtype.
    """
    total = 0.0
    for names, g in runs:
        squares = np.square(g, dtype=np.float64)
        start = 0
        for n in names:
            stop = start + params[n].data.size
            total += float(np.add.reduce(squares[start:stop]))
            start = stop
    total = np.sqrt(total)
    if total > max_norm and total > 0:
        scale = max_norm / total
        for _, g in runs:
            g *= g.dtype.type(scale)
    return total


# ---------------------------------------------------------------------------
# objective losses

def _token_loss(logits, targets, reduction="mean"):
    """Cross-entropy over every non-pad target of a (..., n, vocab) logit block."""
    flat = T.reshape(logits, (-1, logits.data.shape[-1]))
    return T.cross_entropy(flat, np.asarray(targets).reshape(-1), ignore_id=PAD_ID, reduction=reduction)


def _check_prefix_len(prefix_len, n_ctx):
    if prefix_len is None or not 1 <= prefix_len < n_ctx:
        raise ValueError(f"prefix_len must lie in [1, n_ctx), got {prefix_len}")


def many_token_logits(model, ids, prefix_len):
    """Suffix logits of a forward pass with suffix positions fed the learned placeholder vector.

    `ids` is one sequence (n_ctx,) or a batch (batch, n_ctx). The logits
    are those of positions prefix_len - 1 to n_ctx - 2, the ones that
    predict the suffix tokens: (..., n_ctx - prefix_len, vocab). Suffix
    logits cannot depend on the suffix ground-truth tokens: those token
    ids never enter the forward pass.
    """
    n = model.config.n_ctx
    _check_prefix_len(prefix_len, n)
    ids = np.asarray(ids)
    placeholder = model.params["many_token_placeholder"]
    ones = Tensor(np.ones(ids.shape[:-1] + (n - prefix_len, 1), dtype=model.dtype))
    prefix_e = T.embedding_lookup(model.params["wte"], ids[..., :prefix_len])
    e = T.concat([prefix_e, T.matmul(ones, placeholder)], axis=-2)
    return _scored_logits(model, e, None, slice(prefix_len - 1, n - 1))


def _nonpad_rows(batch):
    """The sequences of a (batch, n_ctx) id array that hold a non-pad token."""
    batch = np.asarray(batch)
    return batch[(batch != PAD_ID).any(axis=1)]


def _loss_terms(model, batch, cfg):
    """(logits, targets) blocks of one batch; the objective's loss sums their mean token losses.

    multi_token has one block per shift width, all from one forward pass;
    every other objective has one block. The causal objectives compute
    logits only for the positions they score: 0 to n_ctx - 2 for clm and
    multi_token (whose wider shifts use a leading part of them), and
    prefix_len - 1 to n_ctx - 2 for many_token.
    """
    if cfg.objective == "many_token":
        return [(many_token_logits(model, batch, cfg.prefix_len), batch[:, cfg.prefix_len:])]
    if OBJECTIVES[cfg.objective] != "causal":
        return [(forward(model, batch)[0], batch)]
    ids = _as_ids(batch, model.config)
    n = model.config.n_ctx
    logits = _scored_logits(model, T.embedding_lookup(model.params["wte"], ids), ids, slice(0, n - 1))
    if cfg.objective == "clm":
        return [(logits, ids[:, 1:])]
    # every shift, 1 included, cuts its own block, so the backward adds the
    # blocks' gradients into the logits from the widest shift down
    return [(T.narrow(logits, -2, 0, n - s), ids[:, s:]) for s in range(1, cfg.multi_m + 1)]


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
    gathers the gradients into flat arrays once, clips their global norm
    to `cfg.grad_clip` (None disables) and applies AdamW. Eval points are
    step 0, every `cfg.eval_every` steps and the last step; each records
    the mean train loss since the previous one and snapshots the
    parameters' arrays, which `adamw_step` rebinds and never writes into.
    A non-finite loss (caught before backward) or a non-finite parameter
    at an eval point restores the latest snapshot and raises
    TrainingDiverged, so no snapshot, saved checkpoint or returned model
    holds a non-finite value. When `save_fn` is given it is called as
    save_fn(model, tag) at every eval point.
    """
    state = adamw_state(model)
    report = TrainReport()

    def record(step, train_loss):
        report.records.append(EvalRecord(step, float(train_loss), eval_loss(), lr_at(step), step * tokens_per_step))
        if save_fn:
            save_fn(model, f"step{step:06d}")
        return {name: p.data for name, p in model.params.items()}

    def diverged(step, cause):
        for name, p in model.params.items():
            p.data = last_good[name]
        return TrainingDiverged(step, report, cause)

    last_good = record(0, first_loss)
    since_eval = []
    for step in range(cfg.steps):
        loss = step_loss()
        loss_val = loss.item()
        if not np.isfinite(loss_val):
            raise diverged(step, "non-finite loss")
        backward(loss)
        runs = gradient_runs(model.params)
        if cfg.grad_clip is not None:
            clip_global_norm(model.params, runs, cfg.grad_clip)
        adamw_step(model.params, runs, state, step + 1, lr_at(step))
        for p in model.params.values():
            p.grad = None
        since_eval.append(loss_val)
        report.step_losses.append((step + 1, loss_val, lr_at(step), (step + 1) * tokens_per_step))
        if (step + 1) % cfg.eval_every == 0 or step + 1 == cfg.steps:
            bad = next((name for name, p in model.params.items() if not np.isfinite(p.data).all()), None)
            if bad is not None:
                raise diverged(step, f"non-finite parameter {bad}")
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
    if cfg.objective == "many_token":
        _check_prefix_len(cfg.prefix_len, model.config.n_ctx)  # before the model gains a parameter
        if "many_token_placeholder" not in model.params:
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
