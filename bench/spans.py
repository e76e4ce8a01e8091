"""Outside-in span tracing of mixerlab's module-level functions.

The tracer replaces a function by a timing wrapper in every loaded
``mixerlab`` module that binds it, so calls made through ``from .x import
f`` are caught as well as calls through ``x.f``. Nothing inside the
package changes; ``uninstall`` puts the original objects back.

A span is (name, start, end, parent). Spans live in flat typed arrays
while the run lasts and are written out when it ends. A span's self time
is its duration minus the time its child spans cover, so the self times of
all spans under a root add up to the root's duration.

Tensor ops get one more hook: when an op returns a graph node, its
backward closure is replaced by a timed one, so that the backward pass
records one ``tensor.<op>.bwd`` span per node. The closure remembers the
stack of tensor ops that were open when the node was made, so the
backward time of a composite op (layer_norm, masked_conv1d) includes the
nodes its inner ops built.
"""

import functools
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("tensor", "models", "training", "inversion", "retrieval", "checkpoint", "data")

# Every wrapped name, by module. Tensor ops that build graph nodes are
# listed apart, because their backward closures are timed too.
TENSOR_OPS = (
    "add", "mul", "neg", "div", "exp", "log", "sqrt", "absval", "gelu", "tsum", "mean",
    "l1_distance", "matmul", "transpose", "reshape", "narrow", "concat", "shift", "softmax",
    "layer_norm", "embedding_lookup", "cross_entropy", "masked_conv1d", "softmax_conv_weights",
)
WRAPPED = {
    "tensor": TENSOR_OPS + ("backward", "pinv", "multinomial_sample"),
    "models": (
        "build_model", "forward", "forward_from_embedding", "mixer_forward",
        "mixer_forward_from_embedding", "transformer_forward", "transformer_forward_from_embedding",
        "bidirectional_forward", "autoencoder_forward", "retrieval_mixer_forward",
        "sequence_embedding", "embedding_graph",
    ),
    "training": ("train", "batch_loss", "evaluate", "adamw_state", "adamw_step", "clip_global_norm", "many_token_logits"),
    "inversion": ("invert_input", "calibrate_epsilon", "decode_embedding", "normalized_hamming"),
    "retrieval": (
        "embed_corpus", "embed_pair_store", "split_store", "center_and_normalize", "pca_project",
        "normalize_store", "sample_retrieval_batch", "sample_sequence_batch", "train_indirect",
        "infonce_loss", "train_infonce", "retrieve_topk", "eval_topk_accuracy",
    ),
    "checkpoint": (
        "write_container", "read_container", "save_checkpoint", "load_checkpoint",
        "save_embedding_store", "load_embedding_store",
    ),
    "data": ("synthetic_pairs", "pair_line_chunks", "pairs_to_sequences", "build_corpus", "chunk_and_pad"),
}


class _TimedBackward:
    """A node's backward closure, recorded as a span when the pass calls it."""

    __slots__ = ("tracer", "fn", "code", "stack_id", "flops")

    def __init__(self, tracer, fn, code, stack_id, flops):
        self.tracer, self.fn, self.code, self.stack_id, self.flops = tracer, fn, code, stack_id, flops

    def __call__(self, g):
        tr = self.tracer
        i = tr.open(self.code, self.stack_id)
        try:
            return self.fn(g)
        finally:
            tr.close(i)
            if self.flops:
                tr.count("tensor.matmul.flop", self.flops)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.name_code = {}
        self.names = []
        self.stack_code = {}
        self.stacks = []
        self.code = array("i")
        self.parent = array("i")
        self.tag = array("i")  # op-stack id for backward spans, -1 otherwise
        self.start = array("d")
        self.end = array("d")
        self.open_spans = []
        self.op_stack = []
        self.counts = {}
        self.patches = []
        self.missing = []
        self.installed = False

    # -- span recording --------------------------------------------------

    def intern(self, name):
        code = self.name_code.get(name)
        if code is None:
            code = self.name_code[name] = len(self.names)
            self.names.append(name)
        return code

    def open(self, code, tag=-1):
        i = len(self.start)
        self.code.append(code)
        self.parent.append(self.open_spans[-1] if self.open_spans else -1)
        self.tag.append(tag)
        self.end.append(0.0)
        self.open_spans.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self.open_spans.pop()

    @contextmanager
    def span(self, name):
        i = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(i)

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrapping ---------------------------------------------------------

    def install(self, package):
        """Wrap every name in WRAPPED wherever a package module binds it."""
        if self.installed:
            return
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        self.missing = []
        for layer, names in WRAPPED.items():
            home = sys.modules.get(f"{package}.{layer}")
            for name in names:
                orig = getattr(home, name, None) if home is not None else None
                if not callable(orig):
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrapper(layer, name, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self.patches.append((mod, attr, orig))
        self.installed = True

    def uninstall(self):
        for mod, attr, orig in reversed(self.patches):
            setattr(mod, attr, orig)
        self.patches = []
        self.installed = False

    def _wrapper(self, layer, name, fn):
        code = self.intern(f"{layer}.{name}")
        if layer == "tensor" and name in TENSOR_OPS:
            return self._op_wrapper(name, fn, code)
        pre = post = None
        if (layer, name) == ("tensor", "backward"):
            pre = self._count_nodes
        elif (layer, name) == ("models", "forward"):
            pre = self._count_sequences
        elif (layer, name) == ("checkpoint", "read_container"):
            pre = self._count_read_bytes
        elif (layer, name) == ("checkpoint", "write_container"):
            post = self._count_written_bytes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            i = self.open(code)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
                if post is not None:
                    post(args)

        return wrapper

    def _op_wrapper(self, name, fn, code):
        bwd_code = self.intern(f"tensor.{name}.bwd")
        is_matmul = name == "matmul"
        is_gelu = name == "gelu"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.op_stack.append(name)
            i = self.open(code)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            try:
                flops = 0
                if is_matmul:
                    a, b = args[0], args[1]
                    flops = 2 * int(np.prod(out.data.shape)) * a.data.shape[-1]
                    self.count("tensor.matmul.flop", flops)
                    flops *= int(a.requires_grad) + int(b.requires_grad)
                elif is_gelu:
                    self.count("tensor.gelu.elements", args[0].data.size)
                bw = getattr(out, "_backward", None)
                if bw is not None and not isinstance(bw, _TimedBackward):
                    out._backward = _TimedBackward(self, bw, bwd_code, self._stack_id(), flops)
            finally:
                self.op_stack.pop()
            return out

        return wrapper

    def _stack_id(self):
        key = tuple(dict.fromkeys(self.op_stack))
        sid = self.stack_code.get(key)
        if sid is None:
            sid = self.stack_code[key] = len(self.stacks)
            self.stacks.append(key)
        return sid

    # -- computed counters ------------------------------------------------

    def _count_nodes(self, args):
        """Graph nodes the backward pass will visit, counted as the engine walks them."""
        i = self.open(self.intern("trace.count_nodes"))
        try:
            seen = set()
            todo = [args[0]]
            nodes = 0
            while todo:
                node = todo.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                if getattr(node, "_backward", None) is not None:
                    nodes += 1
                    todo.extend(getattr(node, "_parents", ()))
            self.count("tensor.graph_nodes", nodes)
        finally:
            self.close(i)

    def _count_sequences(self, args):
        ids = getattr(args[1], "ids", args[1])
        self.count("models.forward.sequences", np.shape(ids)[0] if np.ndim(ids) == 2 else 1)

    def _count_read_bytes(self, args):
        self._count_file("checkpoint.read_container.bytes", args[0])

    def _count_written_bytes(self, args):
        self._count_file("checkpoint.write_container.bytes", args[0])

    def _count_file(self, key, path):
        self.count(key, os.path.getsize(path))

    # -- results ----------------------------------------------------------

    def arrays(self):
        return {
            "names": np.array(self.names, dtype=str),
            "stacks": np.array(["|".join(s) for s in self.stacks], dtype=str),
            "code": np.frombuffer(self.code, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self):
        """Per-name call counts, inclusive and self seconds; per-op backward seconds."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(a["code"], minlength=n_names)
        incl = np.bincount(a["code"], weights=dur, minlength=n_names)
        selfs = np.bincount(a["code"], weights=self_t, minlength=n_names)
        per_name = {
            name: {"calls": int(calls[c]), "s": float(incl[c]), "self_s": float(selfs[c])}
            for c, name in enumerate(self.names)
        }
        bwd = {}
        is_bwd = a["tag"] >= 0
        by_stack = np.bincount(a["tag"][is_bwd], weights=dur[is_bwd], minlength=len(self.stacks))
        for sid, ops in enumerate(self.stacks):
            for op in ops:
                bwd[op] = bwd.get(op, 0.0) + float(by_stack[sid])
        roots = ~has_parent
        return {
            "per_name": per_name,
            "bwd_s": bwd,
            "root_s": float(dur[roots].sum()),
            "self_sum_s": float(self_t.sum()),
            "spans": int(len(dur)),
        }

