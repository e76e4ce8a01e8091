"""Exit-code contract, artifact layout, and subcommand wiring."""

import csv
import json
import warnings

import numpy as np
import pytest

from mixerlab import cli
from mixerlab.checkpoint import (
    CheckpointFormatError,
    load_checkpoint,
    read_container,
    save_checkpoint,
    save_embedding_store,
)
from mixerlab.cli import run_cli
from mixerlab.data import synthetic_pairs, write_pairs
from mixerlab.models import ModelConfig, build_model
from mixerlab.retrieval import EmbeddingStore


@pytest.fixture()
def corpus_file(tmp_path):
    rng = np.random.default_rng(0)
    text = bytes(rng.integers(97, 123, size=3000, dtype=np.uint8)).decode("ascii")
    path = tmp_path / "corpus.txt"
    path.write_text(text)
    return path


def read_metrics(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_unknown_subcommand_usage_exit(capsys):
    assert run_cli(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_no_args_usage_exit():
    assert run_cli([]) == 2


def test_jl_dim_prints_185(tmp_path, capsys):
    assert run_cli(["jl-dim", "--m", "1e10", "--eps", "1", "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "185" in out
    assert "184" in out  # shorthand variant also reported
    assert (tmp_path / "o" / "jl.csv").exists()
    assert (tmp_path / "o" / "config.json").exists()


def test_jl_dim_bad_eps_is_runtime_error(tmp_path, capsys):
    assert run_cli(["jl-dim", "--m", "100", "--eps", "2", "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("m", ["nan", "inf", "1"])
def test_jl_dim_m_not_a_finite_count_of_two_or_more_exit_1_names_m(tmp_path, capsys, m):
    assert run_cli(["jl-dim", "--m", m, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: m must be finite and >= 2, got {float(m)}\n"
    assert not (tmp_path / "o" / "jl.csv").exists()


def test_invert_missing_checkpoint_exit_1(tmp_path, capsys):
    code = run_cli(["invert", "--checkpoint", str(tmp_path / "nope.ckpt"), "--runs", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error" in capsys.readouterr().err.lower()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--sizes", "8,x"], "--sizes must be comma-separated integers, got '8,x'"),
        (["--sizes", "32,1"], "sizes must be >= 2, got 1"),
        (["--trials", "0"], "trials must be >= 1, got 0"),
    ],
)
def test_retrieve_eval_checks_sizes_and_trials_before_loading(tmp_path, capsys, flags, message):
    argv = ["retrieve-eval", "--checkpoint", str(tmp_path / "nope.ckpt"), "--pairs", str(tmp_path / "nope.tsv")]
    assert run_cli([*argv, *flags, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_train_clm_writes_ten_step_rows_and_artifacts(tmp_path, corpus_file):
    out = tmp_path / "run"
    code = run_cli([
        "train-clm", "--corpus", str(corpus_file), "--steps", "10", "--batch-size", "4",
        "--d-model", "16", "--n-layers", "1", "--n-ctx", "8", "--out", str(out), "--eval-every", "5",
    ])
    assert code == 0
    rows = read_metrics(out / "metrics.csv")
    train_rows = [r for r in rows if r["split"] == "train"]
    assert [int(r["step"]) for r in train_rows] == list(range(1, 11))
    assert (out / "model.ckpt").exists()
    assert (out / "config.json").exists()
    assert (out / "checkpoints" / "step000010.ckpt").exists()
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["command"] == "train-clm"
    model = load_checkpoint(out / "model.ckpt")
    assert model.config.family == "masked_mixer"


def test_cli_deterministic_under_fixed_seed(tmp_path, corpus_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli([
            "train-clm", "--corpus", str(corpus_file), "--steps", "5", "--batch-size", "4",
            "--d-model", "16", "--n-layers", "1", "--n-ctx", "8", "--out", str(out),
            "--seed", "3", "--precision", "check64",
        ]) == 0
        outs.append((out / "metrics.csv").read_text())
    assert outs[0] == outs[1]


def test_config_file_defaults_and_flag_override(tmp_path, corpus_file):
    cfg_path = tmp_path / "defaults.json"
    cfg_path.write_text(json.dumps({"steps": 3, "d_model": 16, "n_layers": 1, "n_ctx": 8, "batch_size": 2}))
    out = tmp_path / "run"
    assert run_cli([
        "train-clm", "--corpus", str(corpus_file), "--config", str(cfg_path),
        "--steps", "4", "--out", str(out),
    ]) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["steps"] == 4      # explicit flag wins
    assert echoed["d_model"] == 16   # config default applied


def test_generate_roundtrip(tmp_path, corpus_file):
    out = tmp_path / "run"
    assert run_cli([
        "train-clm", "--corpus", str(corpus_file), "--steps", "5", "--batch-size", "4",
        "--d-model", "16", "--n-layers", "1", "--n-ctx", "8", "--out", str(out),
    ]) == 0
    gen_out = tmp_path / "gen"
    assert run_cli([
        "generate", "--checkpoint", str(out / "model.ckpt"), "--prompt", "ab", "--n-new", "3",
        "--out", str(gen_out),
    ]) == 0
    assert (gen_out / "generation.txt").exists()


@pytest.mark.parametrize("family", ["bidirectional_mixer", "mixer_autoencoder"])
def test_generate_from_a_non_causal_checkpoint_exit_1(tmp_path, capsys, family):
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(build_model(ModelConfig(family, d_model=16, n_layers=1, n_ctx=8), seed=0), ckpt)
    out = tmp_path / "gen"
    capsys.readouterr()
    assert run_cli(["generate", "--checkpoint", str(ckpt), "--prompt", "ab", "--n-new", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: generate needs a causal family, got {family!r}\n"
    assert not (out / "generation.txt").exists()


def test_indirect_with_one_training_pair_exit_1_names_the_zero_row(tmp_path, capsys):
    store = tmp_path / "in.ckpt"
    rng = np.random.default_rng(1)
    save_embedding_store(EmbeddingStore(queries=rng.normal(size=(11, 8)), targets=rng.normal(size=(11, 8))), store)
    out = tmp_path / "o"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([
            "train-retrieval-indirect", "--embeddings", str(store), "--steps", "1", "--candidates", "4",
            "--holdout", "10", "--out", str(out),
        ]) == 1
    assert capsys.readouterr().err == "error: zero-norm query row 0 of store 0 has no cosine direction\n"
    assert not (out / "retrieval-model.ckpt").exists()


def test_invert_writes_csv(tmp_path):
    model = build_model(ModelConfig("masked_mixer", d_model=32, n_layers=1, n_ctx=8, vocab=259), seed=0)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(model, ckpt)
    out = tmp_path / "inv"
    assert run_cli([
        "invert", "--checkpoint", str(ckpt), "--runs", "2", "--n-iters", "5", "--out", str(out),
    ]) == 0
    rows = list(csv.DictReader(open(out / "inversion.csv")))
    assert len(rows) == 2
    assert set(rows[0]) == {"seed", "model_id", "layer", "n_ctx", "final_distance", "epsilon", "converged", "hamming"}


def test_make_pairs_embed_indirect_and_eval_pipeline(tmp_path):
    pairs_out = tmp_path / "pairs"
    assert run_cli(["make-pairs", "--count", "48", "--out", str(pairs_out)]) == 0
    model = build_model(
        ModelConfig("masked_mixer", d_model=16, n_layers=1, n_ctx=16, vocab=259, padding_side="left"), seed=0
    )
    ckpt = tmp_path / "gen.ckpt"
    save_checkpoint(model, ckpt)

    emb_out = tmp_path / "emb"
    assert run_cli([
        "embed", "--checkpoint", str(ckpt), "--pairs", str(pairs_out / "pairs.tsv"), "--out", str(emb_out),
    ]) == 0
    assert (emb_out / "embeddings.ckpt").exists()

    ret_out = tmp_path / "ret"
    assert run_cli([
        "train-retrieval-indirect", "--embeddings", str(emb_out / "embeddings.ckpt"),
        "--candidates", "8", "--steps", "3", "--batch-size", "2", "--n-layers", "1",
        "--holdout", "8", "--out", str(ret_out),
    ]) == 0
    assert (ret_out / "retrieval-model.ckpt").exists()
    assert (ret_out / "metrics.csv").exists()

    ev_out = tmp_path / "ev"
    assert run_cli([
        "retrieve-eval", "--checkpoint", str(ckpt), "--pairs", str(pairs_out / "pairs.tsv"),
        "--sizes", "8,16", "--trials", "20", "--out", str(ev_out),
    ]) == 0
    rows = list(csv.DictReader(open(ev_out / "accuracy.csv")))
    assert [int(r["n"]) for r in rows] == [8, 16]


def test_infonce_cli_smoke(tmp_path):
    pairs_out = tmp_path / "pairs"
    assert run_cli(["make-pairs", "--count", "40", "--out", str(pairs_out)]) == 0
    model = build_model(
        ModelConfig("masked_mixer", d_model=16, n_layers=1, n_ctx=16, vocab=259, padding_side="left"), seed=0
    )
    ckpt = tmp_path / "gen.ckpt"
    save_checkpoint(model, ckpt)
    out = tmp_path / "nce"
    assert run_cli([
        "train-retrieval-infonce", "--checkpoint", str(ckpt), "--pairs", str(pairs_out / "pairs.tsv"),
        "--steps", "2", "--negatives", "4", "--batches-per-update", "1", "--holdout", "8",
        "--out", str(out),
    ]) == 0
    assert (out / "model.ckpt").exists()
    assert (out / "metrics.csv").exists()


TRAINING_COMMANDS = {  # command: (extra flags, family for --family mixer, for --family transformer)
    "train-clm": ([], "masked_mixer", "transformer"),
    "train-multitoken": (["--m", "2"], "masked_mixer", "transformer"),
    "train-manytoken": (["--prefix-len", "4"], "masked_mixer", "transformer"),
    "train-bidir": ([], "bidirectional_mixer", "bidirectional_transformer"),
    "train-autoencoder": ([], "mixer_autoencoder", "transformer_autoencoder"),
}


def test_bidir_multitoken_manytoken_autoencoder_commands(tmp_path, corpus_file):
    base = [
        "--corpus", str(corpus_file), "--steps", "3", "--batch-size", "2",
        "--d-model", "16", "--n-layers", "1", "--n-ctx", "8",
    ]
    for command, (extra, *families) in TRAINING_COMMANDS.items():
        for flag, family in zip(("mixer", "transformer"), families):
            out = tmp_path / f"{command}-{flag}"
            assert run_cli([command, *base, *extra, "--family", flag, "--out", str(out)]) == 0
            assert load_checkpoint(out / "model.ckpt").config.family == family, (command, flag)


@pytest.mark.parametrize("case", ["last-argument", "missing-file", "not-json", "not-an-object"])
def test_bad_config_file_is_usage_error(tmp_path, corpus_file, capsys, case):
    cfg_path = tmp_path / "defaults.json"
    if case == "not-json":
        cfg_path.write_text("{steps: 3")
    elif case == "not-an-object":
        cfg_path.write_text("[3]")
    argv = ["train-clm", "--corpus", str(corpus_file), "--out", str(tmp_path / "run"), "--config"]
    if case != "last-argument":
        argv.append(str(cfg_path))
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "usage" in err.lower() and "--config" in err
    assert not (tmp_path / "run").exists()


def test_indirect_eval_split_below_candidates_exit_1_names_both_flags(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(1)
    emb = tmp_path / "emb.ckpt"
    save_embedding_store(EmbeddingStore(queries=rng.normal(size=(200, 8)), targets=rng.normal(size=(200, 8))), emb)
    out = tmp_path / "ret"
    normalized = []
    normalize_store = cli.normalize_store
    monkeypatch.setattr(cli, "normalize_store", lambda *a, **kw: normalized.append(a) or normalize_store(*a, **kw))
    capsys.readouterr()
    assert run_cli(["train-retrieval-indirect", "--embeddings", str(emb), "--steps", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: --holdout 20 gives fewer eval pairs than --candidates 32; raise --holdout or lower --candidates\n"
    )
    assert not (out / "metrics.csv").exists() and normalized == []
    argv = ["train-retrieval-indirect", "--embeddings", str(emb), "--steps", "1", "--holdout", "40", "--out", str(out)]
    assert run_cli(argv) == 0 and len(normalized) == 1
    summary = capsys.readouterr().out
    assert summary.endswith(f" (ln c = {float(np.log(32))!r})\n") and "np.float64" not in summary


def test_indirect_divergence_exit_1_without_checkpoint(tmp_path, capsys):
    rng = np.random.default_rng(1)
    emb = tmp_path / "emb.ckpt"
    save_embedding_store(EmbeddingStore(queries=rng.normal(size=(40, 8)), targets=rng.normal(size=(40, 8))), emb)
    out = tmp_path / "ret"
    with np.errstate(all="ignore"):
        code = run_cli([
            "train-retrieval-indirect", "--embeddings", str(emb), "--candidates", "4", "--pca-dim", "4",
            "--holdout", "8", "--steps", "50", "--batch-size", "2", "--lr", "1e8", "--out", str(out),
        ])
    assert code == 1
    assert "diverged" in capsys.readouterr().err
    assert not (out / "retrieval-model.ckpt").exists()


def test_config_file_satisfies_required_flag(tmp_path, corpus_file):
    cfg_path = tmp_path / "defaults.json"
    cfg_path.write_text(json.dumps({"corpus": str(corpus_file), "steps": 2, "d_model": 16, "n_layers": 1, "n_ctx": 8}))
    out = tmp_path / "run"
    assert run_cli(["train-clm", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text())["corpus"] == str(corpus_file)
    assert (out / "model.ckpt").exists()


def test_explicit_flag_wins_over_config_required_value(tmp_path, corpus_file):
    cfg_path = tmp_path / "defaults.json"
    cfg_path.write_text(json.dumps({"corpus": str(tmp_path / "missing.txt"), "steps": 2, "d_model": 16, "n_ctx": 8}))
    out = tmp_path / "run"
    assert run_cli(["train-clm", "--config", str(cfg_path), "--corpus", str(corpus_file), "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text())["corpus"] == str(corpus_file)


@pytest.mark.parametrize("with_config", [False, True])
def test_required_flag_missing_everywhere_is_usage_error(tmp_path, capsys, with_config):
    argv = ["train-manytoken", "--out", str(tmp_path / "run")]
    if with_config:
        cfg_path = tmp_path / "defaults.json"
        cfg_path.write_text(json.dumps({"prefix_len": 4}))
        argv += ["--config", str(cfg_path)]
    assert run_cli(argv) == 2
    missing = capsys.readouterr().err.split("the following arguments are required:")[1]
    assert "--corpus" in missing
    assert ("--prefix-len" in missing) != with_config
    assert not (tmp_path / "run").exists()


def test_infonce_eval_set_no_larger_than_negatives_exit_1(tmp_path, capsys):
    pairs_out = tmp_path / "pairs"
    assert run_cli(["make-pairs", "--count", "20", "--out", str(pairs_out)]) == 0
    model = build_model(
        ModelConfig("masked_mixer", d_model=16, n_layers=1, n_ctx=16, vocab=259, padding_side="left"), seed=0
    )
    ckpt = tmp_path / "gen.ckpt"
    save_checkpoint(model, ckpt)
    out = tmp_path / "nce"
    assert run_cli([
        "train-retrieval-infonce", "--checkpoint", str(ckpt), "--pairs", str(pairs_out / "pairs.tsv"),
        "--steps", "2", "--negatives", "4", "--batches-per-update", "1", "--holdout", "4", "--out", str(out),
    ]) == 1
    err = capsys.readouterr().err
    assert "5 eval pairs for 4 negatives, got 4" in err
    assert not (out / "model.ckpt").exists()


CONTAINER_COMMANDS = {  # command: flags around the truncated container at {ckpt}
    "embed": ["--checkpoint", "{ckpt}", "--pairs", "{pairs}"],
    "train-retrieval-indirect": ["--embeddings", "{ckpt}", "--steps", "1"],
    "train-retrieval-infonce": ["--checkpoint", "{ckpt}", "--pairs", "{pairs}", "--steps", "1", "--negatives", "2"],
    "retrieve-eval": ["--checkpoint", "{ckpt}", "--pairs", "{pairs}", "--sizes", "4", "--trials", "2"],
    "invert": ["--checkpoint", "{ckpt}", "--runs", "1", "--n-iters", "2"],
    "generate": ["--checkpoint", "{ckpt}", "--prompt", "ab", "--n-new", "2"],
}


@pytest.mark.parametrize("command", sorted(CONTAINER_COMMANDS))
def test_truncated_container_exit_1_one_error_line(tmp_path, capsys, command):
    pairs = tmp_path / "pairs.tsv"
    write_pairs(pairs, synthetic_pairs(24, np.random.default_rng(0)))
    ckpt = tmp_path / "in.ckpt"
    if command == "train-retrieval-indirect":
        rng = np.random.default_rng(1)
        save_embedding_store(EmbeddingStore(queries=rng.normal(size=(24, 8)), targets=rng.normal(size=(24, 8))), ckpt)
    else:
        cfg = ModelConfig("masked_mixer", d_model=16, n_layers=1, n_ctx=16, vocab=259, padding_side="left")
        save_checkpoint(build_model(cfg, seed=0), ckpt)
    data = ckpt.read_bytes()
    ckpt.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointFormatError) as raised:
        read_container(ckpt)
    flags = [f.format(ckpt=ckpt, pairs=pairs) for f in CONTAINER_COMMANDS[command]]
    capsys.readouterr()
    assert run_cli([command, *flags, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {raised.value}\n"


UNREAD_FLAGS = [  # (command, flag, value) of flags these commands do not take
    ("embed", "--seed", "5"),
    ("embed", "--precision", "check64"),
    ("generate", "--seed", "5"),
    ("generate", "--precision", "check64"),
    ("jl-dim", "--seed", "5"),
    ("jl-dim", "--precision", "check64"),
    ("invert", "--precision", "check64"),
    ("make-pairs", "--precision", "check64"),
    ("retrieve-eval", "--precision", "check64"),
    ("train-retrieval-infonce", "--precision", "check64"),
]


@pytest.mark.parametrize("command,flag,value", UNREAD_FLAGS)
def test_flag_the_command_does_not_read_is_usage_error(tmp_path, capsys, command, flag, value):
    required = {**CONTAINER_COMMANDS, "jl-dim": ["--m", "100"], "make-pairs": []}[command]
    flags = [f.format(ckpt=tmp_path / "in.ckpt", pairs=tmp_path / "pairs.tsv") for f in required]
    out = tmp_path / "o"
    assert run_cli([command, *flags, flag, value, "--out", str(out)]) == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["stpes", "prefix_len", "help"])
def test_config_key_that_sets_no_flag_is_usage_error(tmp_path, corpus_file, capsys, key):
    cfg_path = tmp_path / "defaults.json"
    cfg_path.write_text(json.dumps({"steps": 2, key: 7}))
    out = tmp_path / "run"
    assert run_cli(["train-clm", "--corpus", str(corpus_file), "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "usage" in err.lower() and f"sets '{key}', not a flag of train-clm" in err
    assert not out.exists()


def test_config_naming_another_command_is_usage_error(tmp_path, corpus_file, capsys):
    cfg_path = tmp_path / "defaults.json"
    cfg_path.write_text(json.dumps({"command": "train-clm", "steps": 2, "d_model": 16, "n_layers": 1, "n_ctx": 8}))
    out = tmp_path / "run"
    assert run_cli(["train-bidir", "--corpus", str(corpus_file), "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "is for command 'train-clm', not 'train-bidir'" in capsys.readouterr().err
    assert not out.exists()


BAD_CONFIG_VALUES = {  # case: (command, --config contents, what the usage error says)
    "family=rnn": ("train-clm", {"family": "rnn"}, "argument --family: invalid choice: 'rnn'"),
    "precision=bogus": ("train-clm", {"precision": "bogus"}, "argument --precision: invalid choice: 'bogus'"),
    "steps=1.5": ("train-clm", {"steps": 1.5}, "argument --steps: invalid int value: '1.5'"),
    "d_model=8.0": ("train-clm", {"d_model": 8.0}, "argument --d-model: invalid int value: '8.0'"),
    "softmax_weights=no": ("train-clm", {"softmax_weights": "no"}, """sets 'softmax_weights' to "no", not true or false"""),
    "steps=[3]": ("train-clm", {"steps": [3]}, "sets 'steps' to [3], not a number"),
    "eval_every=false": ("train-clm", {"eval_every": False}, "sets 'eval_every' to false, not a number"),
    "seed=object": ("train-clm", {"seed": {"value": 3}}, """sets 'seed' to {"value": 3}, not a number"""),
    "sizes=32": ("retrieve-eval", {"sizes": 32}, "sets 'sizes' to 32, not a string"),
    "text=true": ("invert", {"text": True}, "sets 'text' to true, not a string"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_config_value_its_flag_rejects_is_usage_error(tmp_path, corpus_file, capsys, case):
    command, values, message = BAD_CONFIG_VALUES[case]
    cfg_path = tmp_path / "defaults.json"
    cfg_path.write_text(json.dumps(values))
    required = {**CONTAINER_COMMANDS, "train-clm": ["--corpus", "{corpus}", "--eval-every", "1"]}[command]
    flags = [f.format(ckpt=tmp_path / "in.ckpt", pairs=tmp_path / "pairs.tsv", corpus=corpus_file) for f in required]
    out = tmp_path / "o"
    assert run_cli([command, *flags, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "usage" in err.lower() and message in err
    assert not out.exists()


@pytest.mark.parametrize("values,flags", [({"softmax_weights": True}, ["--softmax-weights"]), ({"heads": None}, [])])
def test_config_value_runs_as_its_flag(tmp_path, corpus_file, values, flags):
    cfg_path = tmp_path / "defaults.json"
    cfg_path.write_text(json.dumps(values))
    argv = ["train-clm", "--corpus", str(corpus_file), "--steps", "3", "--batch-size", "2", "--d-model", "16",
            "--n-layers", "1", "--n-ctx", "8", "--eval-every", "2"]
    flagged, configured = tmp_path / "flagged", tmp_path / "configured"
    assert run_cli([*argv, *flags, "--out", str(flagged)]) == 0
    assert run_cli([*argv, "--config", str(cfg_path), "--out", str(configured)]) == 0
    for name in ("metrics.csv", "model.ckpt"):
        assert (configured / name).read_bytes() == (flagged / name).read_bytes(), name
    assert load_checkpoint(configured / "model.ckpt").config.softmax_weights == bool(flags)


@pytest.mark.parametrize(
    "command,values",
    [("make-pairs", {"seed": -1}), ("invert", {"checkpoint": "in.ckpt", "seed": -1, "text": "-x"})],
)
def test_config_value_starting_with_a_dash_reaches_the_handler(tmp_path, monkeypatch, command, values):
    seen = []
    monkeypatch.setitem(cli.HANDLERS, command, lambda args: seen.append(args) or 0)
    cfg_path = tmp_path / "defaults.json"
    cfg_path.write_text(json.dumps(values))
    assert run_cli([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert type(seen[0].seed) is int and seen[0].seed == -1
    assert getattr(seen[0], "text", None) == values.get("text")


@pytest.mark.parametrize(
    "argv,outputs",
    [
        (
            ["train-clm", "--corpus", "{corpus}", "--steps", "5", "--batch-size", "4", "--d-model", "16",
             "--n-layers", "1", "--n-ctx", "8", "--seed", "3", "--eval-every", "2"],
            ["metrics.csv", "model.ckpt"],
        ),
        (["make-pairs", "--count", "30", "--key-len", "4", "--value-style", "random", "--seed", "2"], ["pairs.tsv"]),
    ],
)
def test_run_config_reproduces_the_run(tmp_path, corpus_file, argv, outputs):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli([a.format(corpus=corpus_file) for a in argv] + ["--out", str(first)]) == 0
    assert run_cli([argv[0], "--config", str(first / "config.json"), "--out", str(again)]) == 0
    for name in outputs:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name
    echoed = json.loads((first / "config.json").read_text())
    echoed.update(config=str(first / "config.json"), out=str(again))
    assert json.loads((again / "config.json").read_text()) == echoed


@pytest.mark.parametrize("command", ["train-clm", "embed"])
def test_non_utf8_text_exit_1_names_file_and_offset(tmp_path, capsys, command):
    text = bytearray(b"ab?\tab=ab\n" * 1000)
    text[9000] = 0xFF  # past the first 8 KB read buffer
    bad = tmp_path / "bad.txt"
    bad.write_bytes(bytes(text))
    if command == "train-clm":
        flags = ["--corpus", str(bad), "--steps", "1", "--d-model", "16", "--n-layers", "1", "--n-ctx", "8"]
    else:
        ckpt = tmp_path / "in.ckpt"
        save_checkpoint(build_model(ModelConfig("masked_mixer", d_model=16, n_layers=1, n_ctx=16), seed=0), ckpt)
        flags = ["--checkpoint", str(ckpt), "--pairs", str(bad)]
    capsys.readouterr()
    assert run_cli([command, *flags, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 at byte 9000: ")
    assert err.count("\n") == 1 and "Traceback" not in err


HOLDOUT_COMMANDS = {  # command: flags around the 100-pair input at {ckpt}
    "train-retrieval-indirect": ["--embeddings", "{ckpt}", "--steps", "1", "--candidates", "4", "--pca-dim", "4"],
    "train-retrieval-infonce": ["--checkpoint", "{ckpt}", "--pairs", "{pairs}", "--steps", "1", "--negatives", "2"],
}


@pytest.mark.parametrize("holdout", [-60, 0, 100])
@pytest.mark.parametrize("command", sorted(HOLDOUT_COMMANDS))
def test_holdout_outside_pair_count_exit_1(tmp_path, capsys, command, holdout):
    pairs = tmp_path / "pairs.tsv"
    write_pairs(pairs, synthetic_pairs(100, np.random.default_rng(0)))
    ckpt = tmp_path / "in.ckpt"
    if command == "train-retrieval-indirect":
        rng = np.random.default_rng(1)
        save_embedding_store(EmbeddingStore(queries=rng.normal(size=(100, 8)), targets=rng.normal(size=(100, 8))), ckpt)
    else:
        cfg = ModelConfig("masked_mixer", d_model=16, n_layers=1, n_ctx=16, vocab=259, padding_side="left")
        save_checkpoint(build_model(cfg, seed=0), ckpt)
    flags = [f.format(ckpt=ckpt, pairs=pairs) for f in HOLDOUT_COMMANDS[command]]
    capsys.readouterr()
    out = tmp_path / "o"
    assert run_cli([command, *flags, "--holdout", str(holdout), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: holdout must lie in (0, 100) for 100 pairs, got {holdout}\n"
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("flag,value", [("--steps", "-3"), ("--eval-every", "0"), ("--batch-size", "0")])
def test_train_config_below_one_exit_1_names_field(tmp_path, corpus_file, capsys, flag, value):
    argv = ["train-clm", "--corpus", str(corpus_file), "--d-model", "16", "--n-layers", "1", "--n-ctx", "8"]
    capsys.readouterr()
    out = tmp_path / "o"
    assert run_cli([*argv, flag, value, "--out", str(out)]) == 1
    field = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: {field} must be >= 1, got {value}\n"
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_grad_clip_below_zero_or_nan_exit_1_names_field(tmp_path, corpus_file, capsys, value):
    argv = ["train-clm", "--corpus", str(corpus_file), "--d-model", "16", "--n-layers", "1", "--n-ctx", "8"]
    capsys.readouterr()
    out = tmp_path / "o"
    assert run_cli([*argv, "--grad-clip", value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: grad_clip must be > 0 (None disables clipping), got {float(value)}\n"
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("value", ["-1", "nan"])
@pytest.mark.parametrize("command", ["train-clm", "train-retrieval-indirect", "train-retrieval-infonce"])
def test_rate_below_zero_or_nan_exit_1_names_field(tmp_path, corpus_file, capsys, command, value):
    if command == "train-clm":
        argv = ["--corpus", str(corpus_file), "--d-model", "16", "--n-layers", "1", "--n-ctx", "8"]
        artifact = "model.ckpt"
    elif command == "train-retrieval-indirect":
        store = tmp_path / "in.ckpt"
        rng = np.random.default_rng(1)
        save_embedding_store(EmbeddingStore(queries=rng.normal(size=(24, 8)), targets=rng.normal(size=(24, 8))), store)
        argv = ["--embeddings", str(store), "--steps", "1", "--candidates", "4", "--holdout", "4"]
        artifact = "retrieval-model.ckpt"
    else:
        pairs, ckpt = tmp_path / "pairs.tsv", tmp_path / "in.ckpt"
        write_pairs(pairs, synthetic_pairs(24, np.random.default_rng(0)))
        save_checkpoint(build_model(ModelConfig("masked_mixer", d_model=16, n_layers=1, n_ctx=16), seed=0), ckpt)
        argv = ["--checkpoint", str(ckpt), "--pairs", str(pairs), "--steps", "1", "--negatives", "2"]
        artifact = "model.ckpt"
    capsys.readouterr()
    out = tmp_path / "o"
    assert run_cli([command, *argv, "--lr", value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: lr must be finite and > 0, got {float(value)}\n"
    assert not (out / artifact).exists()


def test_grad_clip_zero_disables_clipping(tmp_path, corpus_file, monkeypatch):
    seen = []
    real_train = cli.train

    def spy(model, corpus, cfg, save_fn=None):
        seen.append(cfg.grad_clip)
        return real_train(model, corpus, cfg, save_fn=save_fn)

    monkeypatch.setattr(cli, "train", spy)
    argv = ["train-clm", "--corpus", str(corpus_file), "--d-model", "16", "--n-layers", "1", "--n-ctx", "8", "--steps", "1"]
    assert run_cli([*argv, "--grad-clip", "0", "--out", str(tmp_path / "o")]) == 0
    assert seen == [None]


COUNT_CASES = {  # case: (a count or rate it cannot run, the error naming it, the artifact it must not write)
    "invert": (["--runs", "0"], "runs must be >= 1, got 0", "inversion.csv"),
    "retrieve-eval": (["--trials", "0"], "trials must be >= 1, got 0", "accuracy.csv"),
    "retrieve-eval/sizes=1": (["--sizes", "32,1"], "sizes must be >= 2, got 1", "accuracy.csv"),
    "retrieve-eval/sizes=0": (["--sizes", "0"], "sizes must be >= 2, got 0", "accuracy.csv"),
    "retrieve-eval/sizes=-3": (["--sizes", "-3"], "sizes must be >= 2, got -3", "accuracy.csv"),
    "retrieve-eval/sizes=8,x": (["--sizes", "8,x"], "--sizes must be comma-separated integers, got '8,x'", "accuracy.csv"),
    "retrieve-eval/sizes=,": (["--sizes", ","], "--sizes must list at least one size, got ','", "accuracy.csv"),
    "generate": (["--n-new", "-1"], "n_new must be >= 0, got -1", "generation.txt"),
    "invert/n-iters=0": (["--n-iters", "0"], "n_iters must be >= 1, got 0", "inversion.csv"),
    "train-retrieval-infonce/negatives=0": (["--negatives", "0"], "negatives must be >= 1, got 0", "model.ckpt"),
    "invert/eta=nan": (["--eta", "nan"], "eta must be finite and > 0, got nan", "inversion.csv"),
    "invert/eta=inf": (["--eta", "inf"], "eta must be finite and > 0, got inf", "inversion.csv"),
    "invert/eta=0": (["--eta", "0"], "eta must be finite and > 0, got 0.0", "inversion.csv"),
    "train-retrieval-infonce/tau=nan": (["--tau", "nan"], "tau must be finite and > 0, got nan", "model.ckpt"),
    "train-retrieval-infonce/tau=inf": (["--tau", "inf"], "tau must be finite and > 0, got inf", "model.ckpt"),
    "train-retrieval-infonce/tau=-1": (["--tau", "-1"], "tau must be finite and > 0, got -1.0", "model.ckpt"),
    "invert/text=": (["--text", ""], "--text must hold at least one character, got ''", "inversion.csv"),
    "make-pairs/count=-5": (["--count", "-5"], "count must be >= 1, got -5", "pairs.tsv"),
    "make-pairs/key-len=0": (["--key-len", "0"], "key_len must be >= 1, got 0", "pairs.tsv"),
    "make-pairs/payload-len=-2": (
        ["--payload-len", "-2", "--value-style", "random"], "payload_len must be >= 1, got -2", "pairs.tsv",
    ),
}


@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_count_it_cannot_run_exit_1_names_value(tmp_path, capsys, case):
    command = case.split("/")[0]
    pairs = tmp_path / "pairs.tsv"
    write_pairs(pairs, synthetic_pairs(24, np.random.default_rng(0)))
    ckpt = tmp_path / "in.ckpt"
    cfg = ModelConfig("masked_mixer", d_model=16, n_layers=1, n_ctx=16, vocab=259, padding_side="left")
    save_checkpoint(build_model(cfg, seed=0), ckpt)
    count, message, artifact = COUNT_CASES[case]
    flags = [f.format(ckpt=ckpt, pairs=pairs) for f in CONTAINER_COMMANDS.get(command, [])]
    capsys.readouterr()
    out = tmp_path / "o"
    assert run_cli([command, *flags, *count, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / artifact).exists()


@pytest.mark.parametrize(
    "command,flag,value,message",
    [
        ("train-clm", "--n-layers", "-1", "n_layers must be >= 0, got -1"),
        ("train-clm", "--d-model", "0", "d_model must be >= 1, got 0"),
        ("train-clm", "--d-model", "-4", "d_model must be >= 1, got -4"),
        ("train-retrieval-indirect", "--pca-dim", "-2", "pca_dim must be >= 1, got -2"),
        ("train-retrieval-indirect", "--pca-dim", "0", "pca_dim must be >= 1, got 0"),
        ("train-retrieval-indirect", "--batch-size", "0", "batch_size must be >= 1, got 0"),
        ("train-retrieval-indirect", "--candidates", "1", "candidates must be >= 2, got 1"),
        ("train-retrieval-indirect", "--candidates", "0", "candidates must be >= 2, got 0"),
    ],
)
def test_model_size_it_cannot_run_exit_1_names_field(tmp_path, corpus_file, capsys, command, flag, value, message):
    if command == "train-clm":
        argv = [command, "--corpus", str(corpus_file), "--steps", "1", "--d-model", "16", "--n-layers", "1", "--n-ctx", "8"]
        artifact = "model.ckpt"
    else:
        store = tmp_path / "in.ckpt"
        rng = np.random.default_rng(1)
        save_embedding_store(EmbeddingStore(queries=rng.normal(size=(24, 8)), targets=rng.normal(size=(24, 8))), store)
        argv = [command, "--embeddings", str(store), "--steps", "1", "--candidates", "4", "--holdout", "4"]
        artifact = "retrieval-model.ckpt"
    capsys.readouterr()
    out = tmp_path / "o"
    assert run_cli([*argv, flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / artifact).exists()
