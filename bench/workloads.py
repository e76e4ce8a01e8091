"""The three benchmark workloads: train, invert and retrieve.

Each workload builds its inputs from the seed in ``setup``, then runs a
fixed job of phases; every phase calls public mixerlab functions and
returns how much work it did. A repetition of the job must reproduce the
first repetition bit for bit, and every workload checks its own outputs.
The sizes follow the acceptance-test configs at shorter length, so one
repetition takes a few seconds on one core.
"""

import hashlib
import time

import numpy as np

from mixerlab import checkpoint, data, inversion, models, retrieval, training

# Per-repetition lengths. The CLM phase gets most of the training steps.
CLM_STEPS = 24
OTHER_STEPS = 4
INVERT_ITERS = 120
INFONCE_STEPS = 8
INDIRECT_STEPS = 32
TOPK_TRIALS = 100
CKPT_ROUND_TRIPS = 8

# Inversion Hamming bounds at INVERT_ITERS. Over seeds 0-7 the flat mixer
# reached at most 0.125 and the transformer never dropped below 1.0.
MIXER_HAMMING_MAX = 0.25
TRANSFORMER_HAMMING_MIN = 0.75


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def report_losses(report):
    """Every train-step loss and every eval loss of a TrainReport."""
    steps = np.array([loss for _, loss, _, _ in report.step_losses], dtype=np.float64)
    evals = np.array([r.eval_loss for r in report.records], dtype=np.float64)
    return steps, evals


class Phase:
    """One timed call (or short run of calls) and the result it left."""

    def __init__(self, name, metric, unit, run):
        self.name, self.metric, self.unit, self.run = name, metric, unit, run


class Outcome:
    """What a phase returns: work done, a digest of its outputs, raw outputs."""

    def __init__(self, work, digest, **out):
        self.work, self.digest, self.out = work, digest, out


# ---------------------------------------------------------------------------
# train


class Train:
    """training.train under all five objectives, with eval points and saves."""

    name = "train"

    def setup(self, seed, tmp):
        rng = np.random.default_rng(seed)
        pairs = data.synthetic_pairs(576, rng)
        text = "\n".join(f"{q} {t}" for q, t in pairs[:150])
        rows = rng.integers(97, 123, size=(8, 16))
        ae_store = data.ChunkStore(data.chunk_and_pad(rows.ravel().tolist(), 16))
        mc = models.ModelConfig
        ctx = {
            "seed": seed,
            "tmp": tmp,
            "clm_corpus": (data.pair_line_chunks(pairs[:512], 22), data.pair_line_chunks(pairs[512:544], 22)),
            "text_corpus": data.build_corpus(text, n_ctx=16, split_ratio=0.8, inline=True),
            "ae_corpus": (ae_store, ae_store),
            "cfg": {
                "lm": mc("masked_mixer", d_model=64, n_layers=2, n_ctx=22, vocab=259, padding_side="left"),
                "bidir": mc("bidirectional_mixer", d_model=32, n_layers=2, n_ctx=16, vocab=259),
                "ae_mixer": mc("mixer_autoencoder", d_model=32, n_layers=1, n_ctx=16, vocab=259),
                "ae_transformer": mc("transformer_autoencoder", d_model=28, n_layers=1, n_ctx=16, vocab=259, n_heads=2),
            },
        }
        self.fresh(ctx)
        return ctx

    def fresh(self, ctx):
        """New untrained models for one repetition (training mutates them)."""
        ctx["models"] = {
            "clm": models.build_model(ctx["cfg"]["lm"], seed=ctx["seed"]),
            "multi_token": models.build_model(ctx["cfg"]["lm"], seed=ctx["seed"]),
            "many_token": models.build_model(ctx["cfg"]["lm"], seed=ctx["seed"]),
            "bidirectional": models.build_model(ctx["cfg"]["bidir"], seed=ctx["seed"]),
            "ae_mixer": models.build_model(ctx["cfg"]["ae_mixer"], seed=ctx["seed"]),
            "ae_transformer": models.build_model(ctx["cfg"]["ae_transformer"], seed=ctx["seed"]),
        }

    def _train(self, ctx, key, corpus, steps, eval_every, **kw):
        tc = training.TrainConfig(steps=steps, eval_every=eval_every, lr=2e-3, seed=ctx["seed"], **kw)
        model = ctx["models"][key]
        tmp = ctx["tmp"]

        def save_fn(m, tag):
            checkpoint.save_checkpoint(m, tmp / f"{key}-{tag}.ckpt")

        report = training.train(model, corpus, tc, save_fn=save_fn)
        return report, tmp / f"{key}-step{steps:06d}.ckpt"

    def _objective(self, key, corpus_key, steps, eval_every, **kw):
        def run(ctx):
            report, saved = self._train(ctx, key, ctx[corpus_key], steps, eval_every, **kw)
            steps_l, evals = report_losses(report)
            return Outcome(
                report.step_losses[-1][3], digest(steps_l, evals),
                reports={key: report}, saved={key: saved},
            )

        return run

    def _autoencoders(self, ctx):
        reports, saved, tokens, parts = {}, {}, 0, []
        for key in ("ae_mixer", "ae_transformer"):
            report, path = self._train(
                ctx, key, ctx["ae_corpus"], OTHER_STEPS, OTHER_STEPS, objective="autoencoder", batch_size=8
            )
            reports[key], saved[key] = report, path
            tokens += report.step_losses[-1][3]
            parts.extend(report_losses(report))
        return Outcome(tokens, digest(*parts), reports=reports, saved=saved)

    @property
    def phases(self):
        return (
            Phase("clm", "clm_tokens_per_s", "tokens/s",
                  self._objective("clm", "clm_corpus", CLM_STEPS, CLM_STEPS // 2, objective="clm", batch_size=16)),
            Phase("multi_token", "multi_token_tokens_per_s", "tokens/s",
                  self._objective("multi_token", "clm_corpus", OTHER_STEPS, OTHER_STEPS,
                                  objective="multi_token", multi_m=2, batch_size=16)),
            Phase("many_token", "many_token_tokens_per_s", "tokens/s",
                  self._objective("many_token", "clm_corpus", OTHER_STEPS, OTHER_STEPS,
                                  objective="many_token", prefix_len=11, batch_size=16)),
            Phase("bidirectional", "bidir_tokens_per_s", "tokens/s",
                  self._objective("bidirectional", "text_corpus", OTHER_STEPS, OTHER_STEPS,
                                  objective="bidirectional", batch_size=8)),
            Phase("autoencoder", "autoenc_tokens_per_s", "tokens/s", self._autoencoders),
        )

    def checks(self, ctx, outcomes):
        for outcome in outcomes.values():
            for key, report in outcome.out["reports"].items():
                steps_l, evals = report_losses(report)
                yield f"{key}.losses_finite", bool(np.all(np.isfinite(steps_l)) and np.all(np.isfinite(evals)))
                yield f"{key}.eval_loss_falls", bool(evals[-1] < evals[0])
                model = ctx["models"][key]
                yield f"{key}.saved_checkpoint_exact", same_model(model, checkpoint.load_checkpoint(outcome.out["saved"][key]))


def same_model(a, b):
    if a.config != b.config or list(a.params) != list(b.params):
        return False
    return all(
        a.params[n].data.dtype == b.params[n].data.dtype and a.params[n].data.tobytes() == b.params[n].data.tobytes()
        for n in a.params
    )


# ---------------------------------------------------------------------------
# invert


class Invert:
    """invert_input on one random byte sequence against a d256 mixer and transformer."""

    name = "invert"

    def setup(self, seed, tmp):
        rng = np.random.default_rng(seed)
        mc = models.ModelConfig
        return {
            "seed": seed,
            "ids": rng.integers(0, 256, size=32),
            "mixer": models.build_model(mc("masked_mixer", d_model=256, n_layers=2, n_ctx=32, vocab=259), seed=seed),
            "transformer": models.build_model(
                mc("transformer", d_model=256, n_layers=2, n_ctx=32, vocab=259, n_heads=4), seed=seed
            ),
        }

    def fresh(self, ctx):
        """Inversion freezes the model and restores it, so nothing to rebuild."""

    def _invert(self, key):
        def run(ctx):
            cfg = inversion.InversionConfig(n_iters=INVERT_ITERS, eta=0.1, seed=ctx["seed"])
            rep = inversion.invert_input(ctx[key], ctx["ids"], cfg, model_id=key)
            return Outcome(
                INVERT_ITERS,
                digest(np.array(rep.distances, dtype=np.float64), rep.decoded, np.float64(rep.epsilon)),
                report=rep,
            )

        return run

    @property
    def phases(self):
        return (
            Phase("invert_mixer", "invert_mixer_iters_per_s", "iters/s", self._invert("mixer")),
            Phase("invert_transformer", "invert_transformer_iters_per_s", "iters/s", self._invert("transformer")),
        )

    def checks(self, ctx, outcomes):
        mixer = outcomes["invert_mixer"].out["report"]
        tfm = outcomes["invert_transformer"].out["report"]
        for key, rep in (("mixer", mixer), ("transformer", tfm)):
            yield f"{key}.distances_finite", bool(np.all(np.isfinite(rep.distances)))
        yield "mixer.hamming_under_bound", mixer.hamming <= MIXER_HAMMING_MAX
        yield "transformer.hamming_over_bound", tfm.hamming >= TRANSFORMER_HAMMING_MIN


# ---------------------------------------------------------------------------
# retrieve


class Retrieve:
    """Embedding, both retrieval trainers, top-k evaluation and checkpoint round trips."""

    name = "retrieve"

    def setup(self, seed, tmp):
        rng = np.random.default_rng(seed)
        pairs = data.synthetic_pairs(576, rng)
        queries, targets = data.pairs_to_sequences(pairs, 22)
        mc = models.ModelConfig
        ctx = {
            "seed": seed,
            "tmp": tmp,
            "queries": queries,
            "targets": targets,
            "probe": rng.integers(0, 576, size=8),
            "cfg": {
                "gen": mc("masked_mixer", d_model=64, n_layers=2, n_ctx=22, vocab=259, padding_side="left"),
                "scorer": mc("retrieval_mixer", d_model=16, n_layers=1, n_ctx=32, vocab=3),
            },
        }
        self.fresh(ctx)
        return ctx

    def fresh(self, ctx):
        ctx["gen"] = models.build_model(ctx["cfg"]["gen"], seed=ctx["seed"])
        ctx["scorer"] = models.build_model(ctx["cfg"]["scorer"], seed=ctx["seed"] + 1)

    def _embed(self, ctx):
        store = retrieval.embed_pair_store(ctx["gen"], ctx["queries"], ctx["targets"], model_id="gen")
        ctx["store"] = store
        return Outcome(2 * len(ctx["queries"]), digest(store.queries, store.targets), store=store)

    def _infonce(self, ctx):
        cfg = retrieval.InfoNCEConfig(
            steps=INFONCE_STEPS, negatives=31, batches_per_update=1, lr=1e-4, eval_every=INFONCE_STEPS, seed=ctx["seed"]
        )
        report = retrieval.train_infonce(ctx["gen"], (ctx["queries"][:512], ctx["targets"][:512]), cfg)
        steps_l, _ = report_losses(report)
        return Outcome(INFONCE_STEPS, digest(steps_l), losses=steps_l)

    def _indirect(self, ctx):
        train_store, eval_store = retrieval.normalize_store(ctx["store"], holdout=64, dim=16)
        report = retrieval.train_indirect(
            ctx["scorer"], train_store, eval_store, steps=INDIRECT_STEPS, batch_size=16, lr=3e-3,
            seed=ctx["seed"], eval_every=INDIRECT_STEPS,
        )
        steps_l, evals = report_losses(report)
        sets = INDIRECT_STEPS * 16 + len(report.records) * len(eval_store)
        return Outcome(sets, digest(steps_l, evals), losses=np.concatenate([steps_l, evals[1:]]))

    def _topk(self, ctx):
        store = retrieval.center_and_normalize(ctx["store"])
        rows = retrieval.eval_topk_accuracy(store, [32, 256], trials=TOPK_TRIALS, rng=np.random.default_rng(ctx["seed"]))
        probes = [retrieval.retrieve_topk(store.queries[i], store.targets[:256], 5) for i in ctx["probe"]]
        ctx["normalized"] = store
        acc = np.array([r[2] for r in rows], dtype=np.float64)
        return Outcome(2 * TOPK_TRIALS + len(probes), digest(acc), rows=rows, probes=probes)

    def _checkpoints(self, ctx):
        """Save+load round trips of the tuned model and the embedding store.

        Only the save and load calls are timed; file sizes are read apart.
        """
        tmp = ctx["tmp"]
        moved = 0
        loaded = []
        elapsed = 0.0
        for i in range(CKPT_ROUND_TRIPS):
            mpath, spath = tmp / f"gen-{i}.ckpt", tmp / f"store-{i}.ckpt"
            t0 = time.perf_counter()
            checkpoint.save_checkpoint(ctx["gen"], mpath)
            model = checkpoint.load_checkpoint(mpath)
            checkpoint.save_embedding_store(ctx["store"], spath)
            store = checkpoint.load_embedding_store(spath)
            elapsed += time.perf_counter() - t0
            moved += 2 * (mpath.stat().st_size + spath.stat().st_size)
            loaded.append((model, store))
        return Outcome(moved / 1e6, "", loaded=loaded, busy_s=elapsed)

    @property
    def phases(self):
        return (
            Phase("embed", "embed_seqs_per_s", "seqs/s", self._embed),
            Phase("infonce", "infonce_examples_per_s", "examples/s", self._infonce),
            Phase("indirect", "scorer_sets_per_s", "sets/s", self._indirect),
            Phase("topk", "topk_queries_per_s", "queries/s", self._topk),
            Phase("checkpoint", "ckpt_mb_per_s", "MB/s", self._checkpoints),
        )

    def checks(self, ctx, outcomes):
        yield "infonce.losses_finite", bool(np.all(np.isfinite(outcomes["infonce"].out["losses"])))
        yield "indirect.losses_finite", bool(np.all(np.isfinite(outcomes["indirect"].out["losses"])))
        rows = outcomes["topk"].out["rows"]
        yield "topk.rows_complete", [(n, t) for n, t, _ in rows] == [(32, TOPK_TRIALS), (256, TOPK_TRIALS)] and all(
            0.0 <= a <= 1.0 for _, _, a in rows
        )
        store = ctx["normalized"]
        agree = True
        for i, (top, z) in zip(ctx["probe"], outcomes["topk"].out["probes"]):
            want_top, want_z = naive_topk(store.queries[i], store.targets[:256], 5)
            agree = agree and top == want_top and np.asarray(z).tobytes() == want_z.tobytes()
        yield "topk.matches_pairwise_oracle", bool(agree)
        src = ctx["store"]
        exact_model = exact_store = True
        for model, store in outcomes["checkpoint"].out["loaded"]:
            exact_model = exact_model and same_model(ctx["gen"], model)
            exact_store = exact_store and all(
                getattr(store, side).dtype == getattr(src, side).dtype
                and getattr(store, side).tobytes() == getattr(src, side).tobytes()
                for side in ("queries", "targets")
            )
        yield "checkpoint.model_round_trip_exact", bool(exact_model)
        yield "checkpoint.store_round_trip_exact", bool(exact_store)


def naive_topk(query, targets, k):
    """Per-pair cosine loop in float64, ties to the lower index."""
    q = np.asarray(query, dtype=np.float64)
    qu = q / np.sqrt(np.sum(q * q))
    z = np.empty(len(targets))
    for j, row in enumerate(np.asarray(targets, dtype=np.float64)):
        z[j] = np.sum((row / np.sqrt(np.sum(row * row))) * qu)
    order = sorted(range(len(z)), key=lambda j: (-z[j], j))
    return order[:k], z


WORKLOADS = {w.name: w for w in (Train(), Invert(), Retrieve())}
