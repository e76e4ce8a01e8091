"""Single-file binary container for model weights, token caches, and embeddings.

Layout: magic, version, a length-prefixed JSON config blob, then a tensor
table of (name, dtype tag, shape, raw little-endian row-major data)
entries. Loading reproduces every byte, so saved models round-trip
bit-exactly; corrupt files are rejected with the offending byte offset.
"""

import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np

from .models import Model, ModelConfig
from .tensor import Tensor

MAGIC = b"MIXLAB1\n"
VERSION = 1

_DTYPE_TAGS = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8"), "token-i32": np.dtype("<i4")}
_TAG_FOR_KIND = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64", np.dtype(np.int32): "token-i32"}


class CheckpointFormatError(ValueError):
    pass


def _write_bytes(fh, b):
    fh.write(struct.pack("<I", len(b)))
    fh.write(b)


def _write_str(fh, s):
    _write_bytes(fh, s.encode("utf-8"))


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


def write_container(path, config_obj, tensors):
    """Write named arrays plus a JSON-serializable config to `path`."""
    blob = json.dumps(config_obj, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        _write_bytes(fh, blob)
        fh.write(struct.pack("<Q", len(tensors)))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr)
            tag = _TAG_FOR_KIND.get(arr.dtype)
            if tag is None:
                raise CheckpointFormatError(f"unsupported tensor dtype {arr.dtype} for {name!r}")
            _write_str(fh, name)
            _write_str(fh, tag)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.astype(_DTYPE_TAGS[tag]).tobytes(order="C"))


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
            name = r.take_str("tensor name")
            tag = r.take_str("dtype tag")
            if tag not in _DTYPE_TAGS:
                raise CheckpointFormatError(f"unknown dtype tag {tag!r} at byte {r.offset}")
            (ndim,) = struct.unpack("<I", r.take(4, "ndim"))
            shape = tuple(struct.unpack("<Q", r.take(8, "shape dim"))[0] for _ in range(ndim))
            n_bytes = math.prod(shape) * _DTYPE_TAGS[tag].itemsize
            raw = r.take(n_bytes, f"tensor {name!r} data")
            tensors[name] = np.frombuffer(raw, dtype=_DTYPE_TAGS[tag]).reshape(shape).copy()
        trailing = fh.read(1)
        if trailing:
            raise CheckpointFormatError(f"unexpected trailing bytes at byte {r.offset}")
    return config_obj, tensors


def save_checkpoint(model, path):
    """Persist a model; parameters round-trip bit-exactly."""
    write_container(
        path,
        {"kind": "model", "config": asdict(model.config)},
        {name: p.data for name, p in model.params.items()},
    )


def load_checkpoint(path):
    config_obj, tensors = read_container(path)
    if config_obj.get("kind") != "model":
        raise CheckpointFormatError(f"container at {path} holds {config_obj.get('kind')!r}, not a model")
    cfg = ModelConfig(**config_obj["config"])
    params = {name: Tensor(arr, requires_grad=True) for name, arr in tensors.items()}
    return Model(config=cfg, params=params)


def save_chunk_store(store, path):
    write_container(path, {"kind": "chunks", "pad_side": store.pad_side}, {"ids": store.ids.astype(np.int32)})


def load_chunk_store(path):
    from .data import ChunkStore, TokenSequence

    config_obj, tensors = read_container(path)
    if config_obj.get("kind") != "chunks":
        raise CheckpointFormatError(f"container at {path} holds {config_obj.get('kind')!r}, not chunks")
    side = config_obj["pad_side"]
    return ChunkStore([TokenSequence(row, pad_side=side) for row in tensors["ids"]], pad_side=side)


def save_embedding_store(store, path):
    write_container(
        path,
        {"kind": "embeddings", "source_model_id": store.source_model_id, "convention": store.convention},
        {"queries": store.queries, "targets": store.targets},
    )


def load_embedding_store(path):
    from .retrieval import EmbeddingStore

    config_obj, tensors = read_container(path)
    if config_obj.get("kind") != "embeddings":
        raise CheckpointFormatError(f"container at {path} holds {config_obj.get('kind')!r}, not embeddings")
    return EmbeddingStore(
        queries=tensors["queries"],
        targets=tensors["targets"],
        source_model_id=config_obj.get("source_model_id", ""),
        convention=config_obj.get("convention", ""),
    )
