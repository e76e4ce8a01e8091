"""Command-line surface: one subcommand per experiment family.

Every run echoes its resolved configuration and writes metrics/artifacts
under --out. Exit codes: 0 success, 2 usage error, 1 runtime failure.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import (
    load_checkpoint,
    load_embedding_store,
    save_checkpoint,
    save_embedding_store,
)
from .data import Tokenizer, build_corpus, load_pairs, pairs_to_sequences, synthetic_pairs, write_pairs
from .inversion import InversionConfig, invert_input, write_csv
from .jl import jl_bound, jl_min_dim, jl_shorthand_dim
from .models import FAMILIES, ModelConfig, build_model, generate
from .retrieval import (
    InfoNCEConfig,
    _check_eval_sizes,
    embed_pair_store,
    eval_topk_accuracy,
    normalize_store,
    train_indirect,
    train_infonce,
    write_accuracy_csv,
)
from .training import OBJECTIVES, TrainConfig, _check_positive, train, write_metrics_csv

OBJECTIVE_BY_COMMAND = {
    "train-clm": "clm",
    "train-multitoken": "multi_token",
    "train-manytoken": "many_token",
    "train-bidir": "bidirectional",
    "train-autoencoder": "autoencoder",
}


def _add_model_flags(p):
    p.add_argument("--family", choices=["mixer", "transformer"], default="mixer")
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--n-layers", type=int, default=2)
    p.add_argument("--n-ctx", type=int, default=32)
    p.add_argument("--heads", type=int, default=None, help="default: 1 for mixers, 4 for transformers")
    p.add_argument("--kernel", type=int, default=1)
    p.add_argument("--expansion", type=int, default=1)
    p.add_argument("--softmax-weights", action="store_true")
    p.add_argument("--pad-side", choices=["left", "right"], default="right")


def _add_train_flags(p):
    p.add_argument("--corpus", type=Path, required=True, help="UTF-8 text file")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--eval-every", type=int, default=50)
    p.add_argument("--split-ratio", type=float, default=0.9)
    p.add_argument("--grad-clip", type=float, default=1.0, help="global gradient-norm bound; 0 disables clipping")


def build_parser():
    parser = argparse.ArgumentParser(prog="mixerlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    parsers = {}

    def command(name, help, seed=True, precision=False):
        """A subcommand with --config and --out, and --seed and --precision where its handler reads them."""
        p = sub.add_parser(name, help=help)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if precision:
            p.add_argument("--precision", choices=["train32", "check64"], default="train32")
        p.add_argument("--config", type=Path, default=None, help="JSON file of defaults; explicit flags win")
        p.add_argument("--out", type=Path, default=Path("mixerlab-out"))
        parsers[name] = p
        return p

    for name in OBJECTIVE_BY_COMMAND:
        p = command(name, help=f"{OBJECTIVE_BY_COMMAND[name]} training run", precision=True)
        _add_model_flags(p)
        _add_train_flags(p)
        if name == "train-multitoken":
            p.add_argument("--m", type=int, default=2, help="number of shift widths summed")
        if name == "train-manytoken":
            p.add_argument("--prefix-len", type=int, required=True)

    p = command("embed", help="embed a pair corpus with a frozen model", seed=False)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--pairs", type=Path, required=True, help="UTF-8 lines `query<TAB>target`")

    p = command("train-retrieval-indirect", help="train the scoring model over frozen embeddings", precision=True)
    p.add_argument("--embeddings", type=Path, required=True)
    p.add_argument("--candidates", type=int, default=32)
    p.add_argument("--holdout", type=int, default=None, help="pairs reserved for eval (default 10%%)")
    p.add_argument("--n-layers", type=int, default=1)
    p.add_argument("--pca-dim", type=int, default=16)
    p.add_argument("--steps", type=int, default=2500)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--eval-every", type=int, default=500)

    p = command("train-retrieval-infonce", help="contrastive fine-tuning of an embedding model")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--pairs", type=Path, required=True)
    p.add_argument("--holdout", type=int, default=None, help="pairs reserved for eval (default 10%%)")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--negatives", type=int, default=31)
    p.add_argument("--tau", type=float, default=0.02)
    p.add_argument("--batches-per-update", type=int, default=4)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--eval-every", type=int, default=100)

    p = command("retrieve-eval", help="top-1 accuracy over candidate-set sizes")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--pairs", type=Path, required=True)
    p.add_argument("--sizes", type=str, default="32,256")
    p.add_argument("--trials", type=int, default=500)

    p = command("invert", help="gradient-based input recovery runs")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--text", type=str, default=None, help="invert chunks of this text (default: random bytes)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--n-iters", type=int, default=500)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--layer", type=int, default=-2)
    p.add_argument("--last-token-only", action="store_true")

    p = command("generate", help="greedy generation from a prompt", seed=False)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--prompt", type=str, required=True)
    p.add_argument("--n-new", type=int, default=32)

    p = command("jl-dim", help="distance-preserving embedding dimension bound", seed=False)
    p.add_argument("--m", type=float, required=True, help="number of points")
    p.add_argument("--eps", type=float, default=1.0, help="distortion in (0, 1]")

    p = command("make-pairs", help="emit a synthetic key-value pair corpus")
    p.add_argument("--count", type=int, default=576)
    p.add_argument("--key-len", type=int, default=6)
    p.add_argument("--payload-len", type=int, default=2)
    p.add_argument("--value-style", choices=["copy", "random"], default="copy")

    return parser, parsers


def _echo_config(args):
    args.out.mkdir(parents=True, exist_ok=True)
    payload = {k: (str(v) if isinstance(v, Path) else v) for k, v in vars(args).items()}
    with open(args.out / "config.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _model_from_flags(args):
    """The model of a training command: block `--family` in the topology of the command's objective."""
    wiring = (args.family, OBJECTIVES[OBJECTIVE_BY_COMMAND[args.command]])
    family = next(name for name, entry in FAMILIES.items() if entry == wiring)
    heads = args.heads if args.heads is not None else (4 if args.family == "transformer" else 1)
    cfg = ModelConfig(
        family=family,
        d_model=args.d_model,
        n_layers=args.n_layers,
        n_ctx=args.n_ctx,
        n_heads=heads,
        kernel_k=args.kernel,
        expansion=args.expansion,
        softmax_weights=args.softmax_weights,
        padding_side=args.pad_side,
    )
    return build_model(cfg, seed=args.seed, dtype=T.dtype_for(args.precision))


def _run_training(args):
    corpus = build_corpus(args.corpus, n_ctx=args.n_ctx, split_ratio=args.split_ratio, side=args.pad_side, seed=args.seed)
    model = _model_from_flags(args)
    cfg = TrainConfig(
        objective=OBJECTIVE_BY_COMMAND[args.command],
        batch_size=args.batch_size,
        steps=args.steps,
        lr=args.lr,
        seed=args.seed,
        eval_every=args.eval_every,
        multi_m=getattr(args, "m", 1),
        prefix_len=getattr(args, "prefix_len", None),
        grad_clip=None if args.grad_clip == 0 else args.grad_clip,
    )
    ckpt_dir = args.out / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)

    def save_fn(model, tag):
        save_checkpoint(model, ckpt_dir / f"{tag}.ckpt")

    report = train(model, corpus, cfg, save_fn=save_fn)
    save_checkpoint(model, args.out / "model.ckpt")
    write_metrics_csv(args.out / "metrics.csv", report)
    last = report.records[-1]
    print(f"final step {last.step}: train_loss={last.train_loss!r} eval_loss={last.eval_loss!r}")
    print(f"checkpoint: {args.out / 'model.ckpt'}")
    return 0


def _load_pair_sequences(path, n_ctx):
    """(queries, targets) of a pair file, left-padded to n_ctx."""
    return pairs_to_sequences(load_pairs(path), n_ctx)


def _run_embed(args):
    model = load_checkpoint(args.checkpoint)
    queries, targets = _load_pair_sequences(args.pairs, model.config.n_ctx)
    store = embed_pair_store(model, queries, targets, model_id=str(args.checkpoint))
    save_embedding_store(store, args.out / "embeddings.ckpt")
    print(f"embedded {len(store)} pairs -> {args.out / 'embeddings.ckpt'}")
    return 0


def _holdout(args, n):
    """The eval pairs of a retrieval command: --holdout, or 10% of the n pairs (at least one)."""
    holdout = args.holdout if args.holdout is not None else max(1, n // 10)
    if not 0 < holdout < n:
        raise ValueError(f"holdout must lie in (0, {n}) for {n} pairs, got {holdout}")
    return holdout


def _run_indirect(args):
    if args.candidates < 2:  # the query row and at least one candidate
        raise ValueError(f"candidates must be >= 2, got {args.candidates}")
    store = load_embedding_store(args.embeddings)
    holdout = _holdout(args, len(store))
    if holdout < args.candidates:
        raise ValueError(
            f"--holdout {holdout} gives fewer eval pairs than --candidates {args.candidates}; "
            "raise --holdout or lower --candidates"
        )
    train_store, eval_store = normalize_store(store, holdout=holdout, dim=args.pca_dim)
    scorer = build_model(
        ModelConfig("retrieval_mixer", d_model=train_store.queries.shape[1], n_layers=args.n_layers, n_ctx=args.candidates, vocab=3),
        seed=args.seed,
        dtype=T.dtype_for(args.precision),
    )
    report = train_indirect(
        scorer, train_store, eval_store, steps=args.steps, batch_size=args.batch_size, lr=args.lr,
        seed=args.seed, eval_every=args.eval_every,
    )
    write_metrics_csv(args.out / "metrics.csv", report)
    save_checkpoint(scorer, args.out / "retrieval-model.ckpt")
    print(f"eval CE: {report.records[0].eval_loss!r} -> {report.final_eval_loss()!r} (ln c = {float(np.log(args.candidates))!r})")
    return 0


def _run_infonce(args):
    model = load_checkpoint(args.checkpoint)
    queries, targets = _load_pair_sequences(args.pairs, model.config.n_ctx)
    holdout = _holdout(args, len(queries))
    cfg = InfoNCEConfig(
        tau=args.tau, negatives=args.negatives, batches_per_update=args.batches_per_update,
        lr=args.lr, steps=args.steps, seed=args.seed, eval_every=args.eval_every,
    )
    report = train_infonce(
        model, (queries[:-holdout], targets[:-holdout]), cfg, eval_pairs=(queries[-holdout:], targets[-holdout:])
    )
    write_metrics_csv(args.out / "metrics.csv", report)
    save_checkpoint(model, args.out / "model.ckpt")
    print(f"contrastive eval loss: {report.records[0].eval_loss!r} -> {report.records[-1].eval_loss!r}")
    return 0


def _parse_sizes(text):
    """The candidate-set sizes of `--sizes`, a comma-separated list of at least one integer."""
    try:
        sizes = [int(s) for s in text.split(",") if s]
    except ValueError:
        raise ValueError(f"--sizes must be comma-separated integers, got {text!r}") from None
    if not sizes:
        raise ValueError(f"--sizes must list at least one size, got {text!r}")
    return sizes


def _run_retrieve_eval(args):
    sizes = _parse_sizes(args.sizes)
    _check_eval_sizes(sizes, args.trials)
    model = load_checkpoint(args.checkpoint)
    queries, targets = _load_pair_sequences(args.pairs, model.config.n_ctx)
    store = embed_pair_store(model, queries, targets, model_id=str(args.checkpoint))
    rows = eval_topk_accuracy(store, sizes, trials=args.trials, rng=np.random.default_rng(args.seed))
    write_accuracy_csv(args.out / "accuracy.csv", rows)
    for n, trials, acc in rows:
        print(f"n={n} trials={trials} top1_accuracy={acc!r} (chance={1.0 / (n - 1)!r})")
    monotone = all(rows[i][2] >= rows[i + 1][2] for i in range(len(rows) - 1))
    print(f"monotone non-increasing in n: {monotone}")
    return 0


def _run_invert(args):
    _check_positive(args, "runs")
    if args.text == "":
        raise ValueError("--text must hold at least one character, got ''")
    model = load_checkpoint(args.checkpoint)
    n_ctx = model.config.n_ctx
    rng = np.random.default_rng(args.seed)
    if args.text is not None:
        ids = Tokenizer().tokenize(args.text)
        chunks = [np.asarray(ids[i : i + n_ctx]) for i in range(0, max(len(ids) - n_ctx + 1, 1), n_ctx)]
        chunks = [c for c in chunks if len(c) == n_ctx] or [np.resize(np.asarray(ids), n_ctx)]
    else:
        chunks = [rng.integers(0, 256, size=n_ctx) for _ in range(args.runs)]
    reports = []
    for i in range(args.runs):
        cfg = InversionConfig(
            n_iters=args.n_iters, eta=args.eta, target_layer=args.layer,
            last_token_only=args.last_token_only, seed=args.seed + i,
        )
        rep = invert_input(model, chunks[i % len(chunks)], cfg, model_id=str(args.checkpoint))
        reports.append(rep)
        print(f"run {i}: distance={rep.final_distance!r} epsilon={rep.epsilon!r} converged={rep.converged} hamming={rep.hamming!r}")
    write_csv(args.out / "inversion.csv", reports)
    print(f"mean hamming over {len(reports)} runs: {float(np.mean([r.hamming for r in reports]))!r}")
    return 0


def _run_generate(args):
    model = load_checkpoint(args.checkpoint)
    tok = Tokenizer()
    prompt = tok.tokenize(args.prompt)
    out = generate(model, prompt, args.n_new)
    text = tok.detokenize(out)
    (args.out / "generation.txt").write_text(text, encoding="utf-8")
    print(text)
    return 0


def _run_jl(args):
    bound = jl_bound(args.m, args.eps)
    n_min = jl_min_dim(args.m, args.eps)
    shorthand = jl_shorthand_dim(args.m, args.eps)
    print(f"bound = {bound!r}")
    print(f"n_min = {n_min}")
    if shorthand is not None:
        print(f"shorthand (rounds ln(m) first) = {shorthand}")
    with open(args.out / "jl.csv", "w") as fh:
        fh.write("m,eps,bound,n_min,shorthand\n")
        fh.write(f"{args.m!r},{args.eps!r},{bound!r},{n_min},{shorthand}\n")
    return 0


def _run_make_pairs(args):
    pairs = synthetic_pairs(
        args.count, np.random.default_rng(args.seed),
        key_len=args.key_len, payload_len=args.payload_len, value_style=args.value_style,
    )
    path = args.out / "pairs.tsv"
    write_pairs(path, pairs)
    print(f"wrote {len(pairs)} pairs -> {path}")
    return 0


HANDLERS = {
    "embed": _run_embed,
    "train-retrieval-indirect": _run_indirect,
    "train-retrieval-infonce": _run_infonce,
    "retrieve-eval": _run_retrieve_eval,
    "invert": _run_invert,
    "generate": _run_generate,
    "jl-dim": _run_jl,
    "make-pairs": _run_make_pairs,
}


def _config_argv(path, parser, command):
    """A --config file as flag tokens of `command`; a run's own config.json names its command.

    Each value (a string, a number, or true/false for a switch) becomes
    `--flag=value` for argparse to check; true is the bare switch, and false
    or null keeps the flag's default. A malformed file, another command, a
    key that is no flag of `command` or a value of another kind is a usage error.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as e:
        parser.error(f"argument --config: cannot read {path}: {e.strerror}")
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        parser.error(f"argument --config: {path} is not valid JSON: {e}")
    if not isinstance(values, dict):
        parser.error(f"argument --config: {path} must hold a JSON object")
    other = values.pop("command", command)
    if other != command:
        parser.error(f"argument --config: {path} is for command {other!r}, not {command!r}")
    actions = {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}
    unknown = [key for key in values if key not in actions]
    if unknown:
        parser.error(f"argument --config: {path} sets {', '.join(map(repr, unknown))}, not a flag of {command}")
    tokens = []
    for key, value in values.items():
        flag, switch = actions[key].option_strings[0], actions[key].nargs == 0
        kinds = bool if switch else (int, float) if actions[key].type in (int, float) else str
        if value is None or (value is False and switch):
            continue
        if not isinstance(value, kinds) or isinstance(value, bool) != switch:
            what = {bool: "true or false", str: "a string"}.get(kinds, "a number")
            parser.error(f"argument --config: {path} sets {key!r} to {json.dumps(value)}, not {what}")
        tokens.append(flag if switch else f"{flag}={value}")
    return tokens


def _parse_args(parser, parsers, argv):
    """Parse argv with the flag tokens of its --config file placed first, so explicit flags win.

    A first pass, with required flags waived, only finds the subcommand and the --config path.
    """
    required = [a for p in parsers.values() for a in p._actions if a.required]
    for action in required:
        action.required = False
    args = parser.parse_args(argv)
    for action in required:
        action.required = True
    tokens = [] if args.config is None else _config_argv(args.config, parsers[args.command], args.command)
    return parser.parse_args(argv[:1] + tokens + argv[1:])


def run_cli(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, parsers = build_parser()
    try:
        args = _parse_args(parser, parsers, argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        _echo_config(args)
        handler = HANDLERS.get(args.command, _run_training)
        return handler(args)
    except Exception as e:  # runtime failure contract: message + exit 1
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
