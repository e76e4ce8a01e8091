"""Exit-code contract, artifact layout, and subcommand wiring."""

import csv
import json

import numpy as np
import pytest

from mixerlab.checkpoint import load_checkpoint, save_checkpoint, save_embedding_store
from mixerlab.cli import run_cli
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


def test_invert_missing_checkpoint_exit_1(tmp_path, capsys):
    code = run_cli(["invert", "--checkpoint", str(tmp_path / "nope.ckpt"), "--runs", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error" in capsys.readouterr().err.lower()


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
