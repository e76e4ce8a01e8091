"""Per-layer metrics from the spans of the traced repetitions.

Times are reported as shares of the traced timed region (the sum of the
phase root spans), so that every workload reports every metric: a layer a
workload never enters reads a share of 0, never a fake time. The region
itself, per repetition, is ``trace.region_s``; a share times it gives
seconds. Counts are per repetition of the job, and every traced
repetition does identical work, so they repeat exactly between runs.
"""

import statistics

import numpy as np

from spans import LAYERS

# Ops whose forward/backward split is reported.
OPS = ("matmul", "gelu", "layer_norm", "masked_conv1d", "softmax", "cross_entropy", "embedding_lookup", "add", "mul")


def _spec():
    """(metric, unit, better, wrapped names it needs), in report order."""
    out = [
        ("trace.overhead_frac", "frac", "lower", ()),
        ("trace.region_s", "s", "lower", ()),
        ("grad_step_ms.p50", "ms", "lower", ("tensor.backward",)),
        ("grad_step_ms.p90", "ms", "lower", ("tensor.backward",)),
    ]
    for layer in LAYERS + ("bench", "trace"):
        out.append((f"{layer}.self_share", "frac", "lower", ()))
    out += [
        ("tensor.backward.share", "frac", "lower", ("tensor.backward",)),
        ("tensor.backward.calls", "count", "lower", ("tensor.backward",)),
        ("tensor.graph_nodes_per_backward", "count", "lower", ("tensor.backward",)),
    ]
    for op in OPS:
        need = (f"tensor.{op}",)
        out += [
            (f"tensor.{op}.fwd_share", "frac", "lower", need),
            (f"tensor.{op}.bwd_share", "frac", "lower", need),
            (f"tensor.{op}.calls", "count", "lower", need),
        ]
    out += [
        ("tensor.matmul.gflop", "GFLOP", "lower", ("tensor.matmul",)),
        ("tensor.matmul.gflop_per_s", "GFLOP/s", "higher", ("tensor.matmul",)),
        ("tensor.gelu.elements", "count", "lower", ("tensor.gelu",)),
        ("tensor.pinv.share", "frac", "lower", ("tensor.pinv",)),
        ("tensor.multinomial_sample.share", "frac", "lower", ("tensor.multinomial_sample",)),
        ("tensor.multinomial_sample.calls", "count", "lower", ("tensor.multinomial_sample",)),
        ("models.forward.share", "frac", "lower", ("models.forward",)),
        ("models.forward.calls", "count", "lower", ("models.forward",)),
        ("models.forward.sequences_per_call", "count", "higher", ("models.forward",)),
        ("models.forward_from_embedding.share", "frac", "lower", ("models.forward_from_embedding",)),
        ("models.forward_from_embedding.calls", "count", "lower", ("models.forward_from_embedding",)),
        ("models.embedding_graph.calls_per_example", "count", "lower",
         ("models.embedding_graph", "retrieval.infonce_loss")),
    ]
    for name in ("batch_loss", "clip_global_norm", "adamw_step", "evaluate"):
        out.append((f"training.{name}.share", "frac", "lower", (f"training.{name}",)))
    for name in ("invert_input", "calibrate_epsilon", "decode_embedding"):
        out.append((f"inversion.{name}.share", "frac", "lower", (f"inversion.{name}",)))
    out += [
        ("inversion.iter_fwd.share", "frac", "lower", ("inversion.invert_input", "models.forward_from_embedding")),
        ("inversion.iter_bwd.share", "frac", "lower", ("inversion.invert_input", "tensor.backward")),
        ("inversion.best_iter", "count", "lower", ("inversion.invert_input",)),
        ("inversion.converged_ratio", "frac", "higher", ("inversion.invert_input",)),
    ]
    for name in ("embed_corpus", "infonce_loss", "sample_retrieval_batch", "sample_sequence_batch",
                 "retrieve_topk", "train_indirect", "train_infonce"):
        out.append((f"retrieval.{name}.share", "frac", "lower", (f"retrieval.{name}",)))
    for name in ("write_container", "read_container"):
        need = (f"checkpoint.{name}",)
        out += [
            (f"checkpoint.{name}.share", "frac", "lower", need),
            (f"checkpoint.{name}.bytes", "bytes", "lower", need),
        ]
    return out


SPEC = _spec()


def _children_of(arrays, names, parent_name, child_names):
    """Durations of spans named in child_names whose parent is named parent_name."""
    code = {n: i for i, n in enumerate(names)}
    if parent_name not in code:
        return np.zeros(0)
    parent = arrays["parent"]
    has_parent = parent >= 0
    parent_code = np.full(len(parent), -1)
    parent_code[has_parent] = arrays["code"][parent[has_parent]]
    wanted = np.isin(arrays["code"], [code[c] for c in child_names if c in code])
    pick = wanted & (parent_code == code[parent_name])
    return (arrays["end"] - arrays["start"])[pick]


def _grad_step_ms(arrays, names):
    """Interval between consecutive backward passes made by the same caller span.

    One interval is one gradient step of a trainer (or one inversion
    iteration): loss forward, backward, clipping and update, plus any eval
    or save that falls between two steps.
    """
    if "tensor.backward" not in names:
        return []
    pick = arrays["code"] == names.index("tensor.backward")
    parents, ends = arrays["parent"][pick], arrays["end"][pick]
    steps = []
    for p in np.unique(parents):
        e = np.sort(ends[parents == p])
        steps.extend(np.diff(e) * 1e3)
    return steps


def per_layer_metrics(tracer, traced, plain):
    """Metrics dict {name: (value, unit)}, the names missing, and trace details."""
    n = len(traced)
    summary = tracer.summary()
    arrays = tracer.arrays()
    names = tracer.names
    per = summary["per_name"]
    region = summary["root_s"]

    def share(name):
        return per.get(name, {}).get("s", 0.0) / region

    def calls(name):
        return per.get(name, {}).get("calls", 0) / n

    def count(key):
        return tracer.counts.get(key, 0) / n

    self_by_layer = {}
    for name, row in per.items():
        layer = name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + row["self_s"]

    plain_job = statistics.median(r.job_s for r in plain)
    traced_job = statistics.median(r.job_s for r in traced)
    steps = _grad_step_ms(arrays, names)
    reports = [o.out["report"] for r in traced for o in r.outcomes.values() if "report" in o.out]
    matmul_s = per.get("tensor.matmul", {}).get("s", 0.0) + summary["bwd_s"].get("matmul", 0.0)
    backward_calls = per.get("tensor.backward", {}).get("calls", 0)
    infonce_calls = per.get("retrieval.infonce_loss", {}).get("calls", 0)

    values = {
        "trace.overhead_frac": traced_job / plain_job - 1.0,
        "trace.region_s": region / n,
        "grad_step_ms.p50": float(np.percentile(steps, 50)) if steps else 0.0,
        "grad_step_ms.p90": float(np.percentile(steps, 90)) if steps else 0.0,
        "tensor.backward.share": share("tensor.backward"),
        "tensor.backward.calls": calls("tensor.backward"),
        "tensor.graph_nodes_per_backward": tracer.counts.get("tensor.graph_nodes", 0) / max(backward_calls, 1),
        "tensor.matmul.gflop": count("tensor.matmul.flop") / 1e9,
        "tensor.matmul.gflop_per_s": tracer.counts.get("tensor.matmul.flop", 0) / 1e9 / matmul_s if matmul_s else 0.0,
        "tensor.gelu.elements": count("tensor.gelu.elements"),
        "tensor.pinv.share": share("tensor.pinv"),
        "tensor.multinomial_sample.share": share("tensor.multinomial_sample"),
        "tensor.multinomial_sample.calls": calls("tensor.multinomial_sample"),
        "models.forward.share": share("models.forward"),
        "models.forward.calls": calls("models.forward"),
        "models.forward.sequences_per_call": (
            tracer.counts.get("models.forward.sequences", 0) / max(per.get("models.forward", {}).get("calls", 0), 1)
        ),
        "models.forward_from_embedding.share": share("models.forward_from_embedding"),
        "models.forward_from_embedding.calls": calls("models.forward_from_embedding"),
        "models.embedding_graph.calls_per_example": (
            per.get("models.embedding_graph", {}).get("calls", 0) / infonce_calls if infonce_calls else 0.0
        ),
        "inversion.iter_fwd.share": _children_of(
            arrays, names, "inversion.invert_input", ("models.forward_from_embedding", "tensor.l1_distance")
        ).sum() / region,
        "inversion.iter_bwd.share": _children_of(arrays, names, "inversion.invert_input", ("tensor.backward",)).sum()
        / region,
        "inversion.best_iter": float(np.mean([r.best_iter for r in reports])) if reports else 0.0,
        "inversion.converged_ratio": float(np.mean([r.converged for r in reports])) if reports else 0.0,
    }
    for layer in LAYERS + ("bench", "trace"):
        values[f"{layer}.self_share"] = self_by_layer.get(layer, 0.0) / region
    for op in OPS:
        values[f"tensor.{op}.fwd_share"] = share(f"tensor.{op}")
        values[f"tensor.{op}.bwd_share"] = summary["bwd_s"].get(op, 0.0) / region
        values[f"tensor.{op}.calls"] = calls(f"tensor.{op}")
    for metric, *_ in SPEC:
        parts = metric.split(".")
        if parts[-1] == "share" and metric not in values:
            values[metric] = share(".".join(parts[:-1]))
        if parts[-1] == "bytes":
            values[metric] = count(metric)

    missing_names = set(tracer.missing)
    metrics, missing = {}, []
    for metric, unit, _better, needs in SPEC:
        gone = [w for w in needs if w in missing_names]
        if gone:
            missing.append(f"{metric} (wrapped name gone: {', '.join(gone)})")
            continue
        metrics[metric] = (float(values[metric]), unit)
    detail = {
        "spans": summary["spans"],
        "traced_reps": n,
        "region_s_total": region,
        "self_sum_s_total": summary["self_sum_s"],
        "self_share_sum": sum(self_by_layer.values()) / region,
        "grad_steps_sampled": len(steps),
        "job_s_plain": plain_job,
        "job_s_traced": traced_job,
        "seconds_per_rep": {k: {"calls": v["calls"] / n, "s": v["s"] / n, "self_s": v["self_s"] / n}
                            for k, v in sorted(per.items())},
        "bwd_s_per_rep": {k: v / n for k, v in sorted(summary["bwd_s"].items())},
        "wrapped_missing": sorted(missing_names),
    }
    return metrics, missing, detail
