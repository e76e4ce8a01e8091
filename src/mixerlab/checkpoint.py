"""Single-file binary container for model weights and embedding stores.

Layout: magic, version, a length-prefixed JSON config blob, then a tensor
table of (name, dtype tag, shape, raw little-endian row-major data)
entries. Loading reproduces every byte, so saved models round-trip
bit-exactly; corrupt files are rejected with the offending byte offset.
"""

import itertools
import json
import math
import os
import struct
from dataclasses import fields

import numpy as np

from .models import Model, ModelConfig, _param_specs
from .tensor import Tensor

MAGIC = b"MIXLAB1\n"
VERSION = 1

_DTYPE_TAGS = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_MAX_NDIM = 64  # numpy's limit
_TAG_FOR_DTYPE = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


class CheckpointFormatError(ValueError):
    pass


class _Reader:
    def __init__(self, fh):
        self.fh = fh
        self.offset = 0
        self.size = os.fstat(fh.fileno()).st_size

    def take(self, n, what):
        if n > self.size - self.offset:
            raise CheckpointFormatError(
                f"{what} needs {n} bytes but {self.size - self.offset} remain at byte {self.offset}"
            )
        data = self.fh.read(n)
        if len(data) != n:
            raise CheckpointFormatError(f"truncated while reading {what} at byte {self.offset}")
        self.offset += n
        return data

    def take_bytes(self, what):
        (n,) = struct.unpack("<I", self.take(4, what + " length"))
        return self.take(n, what)

    def take_str(self, what):
        start = self.offset + 4
        try:
            return self.take_bytes(what).decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointFormatError(f"{what} is not UTF-8 at byte {start + err.start}") from None

    def take_json_object(self, what):
        start = self.offset + 4
        text = self.take_str(what)
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as err:
            at = start + len(text[: err.pos].encode("utf-8"))
            raise CheckpointFormatError(f"{what} is not valid JSON at byte {at}: {err.msg}") from None
        if not isinstance(obj, dict):
            raise CheckpointFormatError(f"{what} at byte {start} is a JSON {type(obj).__name__}, not an object")
        return obj


def _sized(text):
    """`text` in UTF-8 after its uint32 byte length."""
    raw = text.encode("utf-8")
    return struct.pack(f"<I{len(raw)}s", len(raw), raw)


def write_container(path, config_obj, tensors):
    """Write named arrays plus a JSON-serializable config to `path` in one call.

    Each tensor's data is written from its own buffer: a C-ordered float32
    or float64 array, as every array the lab saves is, is not copied.
    """
    blob = _sized(json.dumps(config_obj, sort_keys=True))
    parts = [MAGIC, struct.pack("<I", VERSION), blob, struct.pack("<Q", len(tensors))]
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr)
        tag = _TAG_FOR_DTYPE.get(arr.dtype)
        if tag is None:
            raise CheckpointFormatError(f"unsupported tensor dtype {arr.dtype} for {name!r}")
        shape = struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape)
        parts += [_sized(name), _sized(tag), shape, arr.astype(_DTYPE_TAGS[tag], copy=False)]
    with open(path, "wb") as fh:
        fh.writelines(parts)


def read_container(path):
    """Return (config_obj, ordered name->array dict)."""
    with open(path, "rb") as fh:
        r = _Reader(fh)
        magic = r.take(len(MAGIC), "magic")
        if magic != MAGIC:
            raise CheckpointFormatError(f"bad magic {magic!r} at byte 0")
        (version,) = struct.unpack("<I", r.take(4, "version"))
        if version != VERSION:
            raise CheckpointFormatError(f"unknown container version {version} at byte {len(MAGIC)}")
        config_obj = r.take_json_object("config blob")
        (count,) = struct.unpack("<Q", r.take(8, "tensor count"))
        tensors = {}
        for _ in range(count):
            name_at = r.offset
            name = r.take_str("tensor name")
            if name in tensors:
                raise CheckpointFormatError(f"duplicate tensor name {name!r} at byte {name_at}")
            tag = r.take_str("dtype tag")
            if tag not in _DTYPE_TAGS:
                raise CheckpointFormatError(f"unknown dtype tag {tag!r} at byte {r.offset}")
            (ndim,) = struct.unpack("<I", r.take(4, "ndim"))
            if ndim > _MAX_NDIM:
                raise CheckpointFormatError(f"tensor {name!r} declares {ndim} dimensions at byte {r.offset - 4}")
            shape_at = r.offset
            shape = tuple(struct.unpack("<Q", r.take(8, "shape dim"))[0] for _ in range(ndim))
            n_bytes = math.prod(shape) * _DTYPE_TAGS[tag].itemsize
            raw = r.take(n_bytes, f"tensor {name!r} data")
            try:
                array = np.frombuffer(raw, dtype=_DTYPE_TAGS[tag]).reshape(shape)
            except ValueError as err:  # an empty shape whose other dims numpy cannot index
                raise CheckpointFormatError(f"tensor {name!r} shape at byte {shape_at}: {err}") from None
            tensors[name] = array.copy()
        trailing = fh.read(1)
        if trailing:
            raise CheckpointFormatError(f"unexpected trailing bytes at byte {r.offset}")
    return config_obj, tensors


def _read_kind(path, kind, keys, names=None):
    """read_container(path), checked for `kind`, the config `keys` ({key: type}) and the tensor `names`."""
    config_obj, tensors = read_container(path)
    if config_obj.get("kind") != kind:
        raise CheckpointFormatError(f"container at {path} holds {config_obj.get('kind')!r}, not {kind!r}")
    for key, typ in keys.items():
        if type(config_obj.get(key)) is not typ:
            raise CheckpointFormatError(f"{kind} container at {path} lacks a {typ.__name__} config value {key!r}")
    if names is not None:
        _check_names(path, tensors, names)
    return config_obj, tensors


def _check_names(path, tensors, names):
    for name in names:
        if name not in tensors:
            raise CheckpointFormatError(f"container at {path} lacks tensor {name!r}")
    for name in tensors:
        if name not in names:
            raise CheckpointFormatError(f"container at {path} holds unexpected tensor {name!r}")


def _check_one_dtype(path, arrays, what):
    """`arrays`, read from a container and so float32 or float64, must all share one of the two."""
    dtypes = {arr.dtype for arr in arrays}
    if len(dtypes) != 1:
        found = sorted(map(str, dtypes))
        raise CheckpointFormatError(f"{what} in {path} must share one float32 or float64 dtype, got {found}")


def _model_config(path, fields_obj):
    # older containers carry the removed reverse-stack embedding switch,
    # always false; any other value names a layout this version cannot build
    fields_obj = dict(fields_obj)
    if fields_obj.pop("bidir_separate_wte", False) is not False:
        raise CheckpointFormatError(f"model config 'bidir_separate_wte' in {path} must be false (removed option)")
    for f in fields(ModelConfig):
        if f.name in fields_obj and type(fields_obj[f.name]) is not f.type:
            raise CheckpointFormatError(f"model config {f.name!r} in {path} is not a {f.type.__name__}")
    try:
        return ModelConfig(**fields_obj)
    except (TypeError, ValueError) as err:
        raise CheckpointFormatError(f"invalid model config in {path}: {err}") from None


def save_checkpoint(model, path):
    """Persist a model; parameters round-trip bit-exactly."""
    write_container(
        path,
        {"kind": "model", "config": {f.name: getattr(model.config, f.name) for f in fields(ModelConfig)}},
        {name: p.data for name, p in model.params.items()},
    )


def load_checkpoint(path):
    """Load a model; its tensors must be exactly `_param_specs(config)` in one float dtype."""
    config_obj, tensors = _read_kind(path, "model", {"config": dict})
    cfg = _model_config(path, config_obj["config"])
    # one spec past the tensor count is enough to name a missing tensor; a
    # hostile n_layers or n_heads must not make the spec table large
    specs = dict(itertools.islice(((name, shape) for name, shape, _ in _param_specs(cfg)), len(tensors) + 1))
    if "many_token_placeholder" in tensors:  # added by training.train under the many_token objective
        specs["many_token_placeholder"] = (1, cfg.d_model)
    _check_names(path, tensors, specs)
    for name, arr in tensors.items():
        if arr.shape != specs[name]:
            raise CheckpointFormatError(f"tensor {name!r} in {path} has shape {arr.shape}, expected {specs[name]}")
    _check_one_dtype(path, tensors.values(), "model tensors")
    params = {name: Tensor(arr, requires_grad=True) for name, arr in tensors.items()}
    return Model(config=cfg, params=params)


def save_embedding_store(store, path):
    write_container(
        path,
        {"kind": "embeddings", "source_model_id": store.source_model_id},
        {"queries": store.queries, "targets": store.targets},
    )


def load_embedding_store(path):
    from .retrieval import EmbeddingStore

    config_obj, tensors = _read_kind(path, "embeddings", {"source_model_id": str}, ["queries", "targets"])
    queries, targets = tensors["queries"], tensors["targets"]
    _check_one_dtype(path, (queries, targets), "embedding tables")
    if queries.ndim != 2:
        raise CheckpointFormatError(f"embedding tables in {path} must be 2-D, got shape {queries.shape}")
    try:
        return EmbeddingStore(queries, targets, config_obj["source_model_id"])
    except ValueError as err:
        raise CheckpointFormatError(f"invalid embeddings in {path}: {err}") from None
