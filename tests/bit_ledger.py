"""The bit-identity ledger: sha256 digests of small fixed-seed runs.

Each key names one run of the public API: training under every objective
and block, the two retrieval trainers, a short inversion, embedding,
top-1 evaluation, pair chunking and checkpoint bytes. `digests()` computes
them all; `tests/test_bit_ledger.py` compares them with the committed
`tests/bit_ledger.json`. Bits depend on the CPU, numpy and OpenBLAS, so the
file records their `fingerprint()` too.

Regenerate the file only for a change that moves bits on purpose, and name
every moved key with its reason in CHANGES.md:

    PYTHONPATH=src python tests/bit_ledger.py

`--key KEY` prints one key's digest instead of writing the file.
"""

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from mixerlab.checkpoint import save_checkpoint, save_embedding_store
from mixerlab.data import build_corpus, pair_line_chunks, pairs_to_sequences, synthetic_pairs
from mixerlab.inversion import InversionConfig, invert_input
from mixerlab.models import FAMILIES, ModelConfig, build_model
from mixerlab.retrieval import (
    EmbeddingStore,
    InfoNCEConfig,
    embed_pair_store,
    eval_topk_accuracy,
    split_store,
    train_indirect,
    train_infonce,
)
from mixerlab.tensor import CHECK64, TRAIN32
from mixerlab.training import OBJECTIVES, TrainConfig, train

LEDGER = Path(__file__).with_suffix(".json")
OBJECTIVE_ARGS = {"multi_token": {"multi_m": 2}, "many_token": {"prefix_len": 4}}


def fingerprint():
    """The CPU model, numpy version and OpenBLAS version, on which the ledger's bits depend."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cpu": cpu, "numpy": np.__version__, "openblas": f"{blas.get('name')} {blas.get('version')}"}


def _digest(*parts):
    """sha256 over each part's dtype, shape and bytes, as a numpy array."""
    h = hashlib.sha256()
    for part in parts:
        a = np.ascontiguousarray(part)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _params(model):
    return [x for name, p in model.params.items() for x in (name, p.data)]


def _report(report, model):
    """Step losses, eval rows and final parameters of a training run."""
    rows = [(r.step, r.train_loss, r.eval_loss, r.lr, r.tokens_seen) for r in report.records]
    return _digest(np.array(report.step_losses, dtype=np.float64), np.array(rows, dtype=np.float64), *_params(model))


def _text(n_chars, seed):
    rng = np.random.default_rng(seed)
    words = ["the", "mixer", "masks", "every", "later", "token", "and", "keeps", "its", "past", "."]
    return " ".join(words[i] for i in rng.integers(0, len(words), size=n_chars // 4))[:n_chars]


def _train_run(block, objective, dtype, grad_clip, d_model=16, n_ctx=8, batch_size=4, steps=4, **model_args):
    family = next(name for name, wiring in FAMILIES.items() if wiring == (block, OBJECTIVES[objective]))
    model_args.setdefault("n_heads", 1 if block == "mixer" else 2)
    cfg = ModelConfig(family, d_model=d_model, n_layers=2, n_ctx=n_ctx, **model_args)
    model = build_model(cfg, seed=1, dtype=dtype)
    corpus = build_corpus(_text(64 * n_ctx, 2), n_ctx, inline=True)
    tc = TrainConfig(objective=objective, batch_size=batch_size, steps=steps, lr=1e-2, eval_every=2,
                     grad_clip=grad_clip, seed=3, **OBJECTIVE_ARGS.get(objective, {}))
    return _report(train(model, corpus, tc), model)


def _pairs():
    return synthetic_pairs(40, np.random.default_rng(5))


def _generator():
    return build_model(ModelConfig("masked_mixer", d_model=16, n_layers=2, n_ctx=16), seed=6)


def _pair_store():
    queries, targets = pairs_to_sequences(_pairs(), 16)
    return embed_pair_store(_generator(), queries, targets, model_id="ledger")


def _store_rows():
    store = _pair_store()
    return _digest(store.queries, store.targets)


def _infonce():
    model = _generator()
    queries, targets = pairs_to_sequences(_pairs(), 16)
    cfg = InfoNCEConfig(negatives=3, batches_per_update=2, lr=1e-3, steps=3, seed=7, eval_every=2)
    report = train_infonce(model, (queries[:32], targets[:32]), cfg, eval_pairs=(queries[32:], targets[32:]))
    return _report(report, model)


def _indirect():
    rng = np.random.default_rng(8)
    train_set, eval_set = split_store(EmbeddingStore(rng.normal(size=(40, 16)), rng.normal(size=(40, 16))), 10)
    model = build_model(ModelConfig("retrieval_mixer", d_model=16, n_layers=1, n_ctx=8), seed=9)
    report = train_indirect(model, train_set, eval_set, steps=3, batch_size=4, lr=1e-3, seed=10, eval_every=2)
    return _report(report, model)


def _inversion(family, **model_args):
    """A short inversion of one criterion-3 model: distances, best iterate, decode and calibration."""
    model = build_model(ModelConfig(family, d_model=256, n_layers=2, n_ctx=32, **model_args), seed=0)
    ids = np.random.default_rng(42).integers(0, 256, size=32)
    r = invert_input(model, ids, InversionConfig(n_iters=12, seed=0))
    return _digest(np.array(r.distances), np.array([r.final_distance, r.epsilon, r.hamming]),
                   np.array([r.best_iter, r.converged, r.calibration_decode_stable]), r.decoded)


def _file_bytes(save, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        save(obj, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def cases():
    """{key: zero-argument function returning the key's digest}."""
    table = {}
    for objective in OBJECTIVES:
        for block in ("mixer", "transformer"):
            for dtype in (TRAIN32, CHECK64):
                for clip in (1.0, 0.05, None):  # 1.0 never clips the clm and bidirectional mixers here
                    key = f"train/{objective}/{block}/{np.dtype(dtype).name}/clip={clip}"
                    table[key] = lambda b=block, o=objective, d=dtype, c=clip: _train_run(b, o, d, c)
    table["train/clm/mixer/float32/heads=2"] = lambda: _train_run("mixer", "clm", TRAIN32, 1.0, n_heads=2)
    table["train/clm/mixer/float32/expansion=2"] = lambda: _train_run("mixer", "clm", TRAIN32, 1.0, expansion=2)
    table["train/clm/mixer/float32/ctx22-batch16-d64"] = lambda: _train_run(
        "mixer", "clm", TRAIN32, 1.0, d_model=64, n_ctx=22, batch_size=16, steps=3
    )
    table["train_infonce"] = _infonce
    table["train_indirect"] = _indirect
    table["invert/masked_mixer"] = lambda: _inversion("masked_mixer")
    table["invert/transformer"] = lambda: _inversion("transformer", n_heads=4)
    table["pair_line_chunks/ids"] = lambda: _digest(pair_line_chunks(_pairs(), 16).ids)
    table["embed_pair_store/rows"] = _store_rows
    table["eval_topk_accuracy/rows"] = lambda: _digest(
        np.array(eval_topk_accuracy(_pair_store(), [2, 4, 8, 16], 40, np.random.default_rng(11)), dtype=np.float64)
    )
    table["checkpoint/bytes"] = lambda: _file_bytes(save_checkpoint, _generator())
    table["embedding_store/bytes"] = lambda: _file_bytes(save_embedding_store, _pair_store())
    return table


def digests():
    return {key: fn() for key, fn in cases().items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--key", help="print this key's digest instead of writing the ledger")
    args = parser.parse_args(argv)
    if args.key:
        print(cases()[args.key]())
        return 0
    table = digests()
    LEDGER.write_text(json.dumps({"fingerprint": fingerprint(), "digests": table}, indent=1) + "\n")
    print(f"wrote {len(table)} digests to {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
