"""Container round-trips, corruption handling, and the dimension calculator."""

import math
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixerlab.checkpoint import (
    MAGIC,
    CheckpointFormatError,
    load_checkpoint,
    load_embedding_store,
    read_container,
    save_checkpoint,
    save_embedding_store,
    write_container,
)
from mixerlab.jl import jl_bound, jl_min_dim, jl_shorthand_dim
from mixerlab.models import ModelConfig, build_model, forward
from mixerlab.retrieval import EmbeddingStore
from mixerlab.training import adamw_state, adamw_step, gradient_runs
from mixerlab import tensor as T


def tiny_model(seed=0):
    return build_model(ModelConfig("masked_mixer", d_model=8, n_layers=1, n_ctx=4, vocab=259), seed=seed)


def test_model_round_trip_bit_exact(tmp_path):
    model = tiny_model(seed=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert list(loaded.params) == list(model.params)
    for name in model.params:
        a, b = model.params[name].data, loaded.params[name].data
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_save_load_save_byte_identical(tmp_path):
    model = tiny_model(seed=4)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_model_forward_identical(tmp_path):
    model = tiny_model(seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    ids = np.array([1, 2, 3, 4])
    with T.no_grad():
        a = forward(model, ids)[0].data
        b = forward(loaded, ids)[0].data
    assert np.array_equal(a, b)


def test_tampered_magic_rejected(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(raw)
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_truncation_reports_byte_offset(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(CheckpointFormatError, match=r"byte \d+"):
        load_checkpoint(path)


def test_unknown_version_rejected(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = (99).to_bytes(4, "little")
    path.write_bytes(raw)
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_checkpoint(path)


def _entry(name, tag, shape, data):
    """The bytes of one tensor-table entry."""
    out = b"".join(struct.pack("<I", len(text)) + text.encode() for text in (name, tag))
    return out + struct.pack("<I", len(shape)) + b"".join(struct.pack("<Q", n) for n in shape) + data


def _container(blob, tensors=()):
    """Container bytes built by hand: magic, version, blob, then (name, tag, shape, data) entries."""
    out = MAGIC + struct.pack("<I", 1) + struct.pack("<I", len(blob)) + blob
    return out + struct.pack("<Q", len(tensors)) + b"".join(_entry(*t) for t in tensors)


BLOB_AT = len(MAGIC) + 4 + 4  # the blob follows magic, version and its length


def test_hand_built_container_reads(tmp_path):
    path = tmp_path / "ok.ckpt"
    path.write_bytes(_container(b'{"kind": "x"}', [("w", "f32", (2,), struct.pack("<2f", 1.0, 2.0))]))
    cfg, tensors = read_container(path)
    assert cfg == {"kind": "x"}
    assert tensors["w"].tolist() == [1.0, 2.0]


def test_bad_json_blob_rejected_with_offset(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_container(b'{"kind": }'))
    with pytest.raises(CheckpointFormatError, match=rf"not valid JSON at byte {BLOB_AT + 9}"):
        read_container(path)


def test_non_utf8_blob_rejected_with_offset(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_container(b'{"k": "\xff"}'))
    with pytest.raises(CheckpointFormatError, match=rf"not UTF-8 at byte {BLOB_AT + 7}"):
        read_container(path)


@pytest.mark.parametrize("blob", [b"[1, 2]", b"3", b'"model"', b"null"])
def test_non_object_blob_rejected_with_offset(tmp_path, blob):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_container(blob))
    with pytest.raises(CheckpointFormatError, match=rf"at byte {BLOB_AT} is a JSON \w+, not an object"):
        read_container(path)


def test_oversized_tensor_declaration_rejected_before_allocating(tmp_path):
    path = tmp_path / "huge.ckpt"
    path.write_bytes(_container(b"{}", [("w", "f32", (2**20, 2**20), b"\0" * 16)]))
    size = path.stat().st_size
    with pytest.raises(CheckpointFormatError, match=rf"needs {4 * 2**40} bytes but 16 remain at byte {size - 16}"):
        read_container(path)


def test_too_many_dimensions_rejected(tmp_path):
    path = tmp_path / "deep.ckpt"
    path.write_bytes(_container(b"{}", [("w", "f32", (1,) * 65, b"\0" * 4)]))
    with pytest.raises(CheckpointFormatError, match=r"tensor 'w' declares 65 dimensions at byte \d+"):
        read_container(path)


@pytest.mark.parametrize("shape", [(2**63, 0), (2**32, 2**31, 0)])
def test_empty_tensor_with_unindexable_shape_rejected(tmp_path, shape):
    path = tmp_path / "empty.ckpt"
    path.write_bytes(_container(b"{}", [("w", "f32", shape, b"")]))
    with pytest.raises(CheckpointFormatError, match=r"tensor 'w' shape at byte \d+: "):
        read_container(path)


def test_oversized_blob_length_rejected(tmp_path):
    raw = bytearray(_container(b"{}"))
    raw[BLOB_AT - 4 : BLOB_AT] = struct.pack("<I", 2**32 - 1)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(raw)
    with pytest.raises(CheckpointFormatError, match=rf"config blob needs {2**32 - 1} bytes .* at byte {BLOB_AT}"):
        read_container(path)


def test_embedding_store_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    store = EmbeddingStore(
        queries=rng.normal(size=(5, 8)).astype(np.float32),
        targets=rng.normal(size=(5, 8)).astype(np.float32),
        source_model_id="gen0",
    )
    path = tmp_path / "emb.ckpt"
    save_embedding_store(store, path)
    loaded = load_embedding_store(path)
    assert np.array_equal(loaded.queries, store.queries)
    assert np.array_equal(loaded.targets, store.targets)
    assert loaded.source_model_id == "gen0"


def test_non_contiguous_tables_load_back_bit_exactly(tmp_path):
    table = np.random.default_rng(7).normal(size=(10, 16)).astype(np.float32)
    views = EmbeddingStore(queries=table[::2, ::2], targets=np.asfortranarray(table[1::2, 1::2]), source_model_id="gen0")
    assert not (views.queries.flags.c_contiguous or views.targets.flags.c_contiguous)
    copies = EmbeddingStore(np.ascontiguousarray(views.queries), np.ascontiguousarray(views.targets), "gen0")
    save_embedding_store(views, tmp_path / "views.ckpt")
    save_embedding_store(copies, tmp_path / "copies.ckpt")
    assert (tmp_path / "views.ckpt").read_bytes() == (tmp_path / "copies.ckpt").read_bytes()
    loaded = load_embedding_store(tmp_path / "views.ckpt")
    for name in ("queries", "targets"):
        assert getattr(loaded, name).tobytes() == getattr(copies, name).tobytes()


def test_model_saved_after_an_adamw_step_loads_back_bit_exactly(tmp_path):
    model = tiny_model(seed=8)
    T.backward(T.tsum(T.mul(forward(model, np.array([1, 2, 3, 4]))[0], 0.5)))
    runs = gradient_runs(model.params)
    adamw_step(model.params, runs, adamw_state(model), 1, 0.01)
    flat = model.params["wte"].data.base
    assert flat is not None and all(p.data.base is flat for p in model.params.values())  # views of one flat array
    save_checkpoint(model, tmp_path / "model.ckpt")
    loaded = load_checkpoint(tmp_path / "model.ckpt")
    for name, p in model.params.items():
        assert loaded.params[name].data.tobytes() == p.data.tobytes(), name
        assert loaded.params[name].data.dtype == p.data.dtype


def test_embedding_store_written_without_convention_and_old_container_with_it_loads(tmp_path):
    rng = np.random.default_rng(6)
    store = EmbeddingStore(queries=rng.normal(size=(5, 8)), targets=rng.normal(size=(5, 8)), source_model_id="gen0")
    path = tmp_path / "emb.ckpt"
    save_embedding_store(store, path)
    assert read_container(path)[0] == {"kind": "embeddings", "source_model_id": "gen0"}
    old = tmp_path / "old.ckpt"
    blob = {"kind": "embeddings", "source_model_id": "gen0", "convention": "second-to-last-token last hidden layer"}
    write_container(old, blob, {"queries": store.queries, "targets": store.targets})
    loaded = load_embedding_store(old)
    assert loaded.source_model_id == "gen0"
    for table in ("queries", "targets"):
        assert getattr(loaded, table).dtype == np.float64
        assert getattr(loaded, table).tobytes() == getattr(store, table).tobytes()


def test_kind_mismatch_rejected(tmp_path):
    path = tmp_path / "emb.ckpt"
    save_embedding_store(tiny_embedding_store(), path)
    with pytest.raises(CheckpointFormatError, match="model"):
        load_checkpoint(path)


def test_container_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(CheckpointFormatError, match="dtype"):
        write_container(tmp_path / "bad.ckpt", {}, {"x": np.zeros(3, dtype=np.int64)})


def test_token_ids_neither_written_nor_read(tmp_path):
    # the container holds float32 and float64 tensors only: an int32 array is
    # not written, and an entry with the `token-i32` tag is not read
    with pytest.raises(CheckpointFormatError, match="unsupported tensor dtype int32 for 'ids'"):
        write_container(tmp_path / "ids.ckpt", {}, {"ids": np.zeros((2, 4), np.int32)})
    path = tmp_path / "chunks.ckpt"
    path.write_bytes(_container(b'{"kind": "chunks", "pad_side": "right"}', [("ids", "token-i32", (2,), b"\0" * 8)]))
    with pytest.raises(CheckpointFormatError, match=r"^unknown dtype tag 'token-i32' at byte \d+$"):
        read_container(path)


def test_container_preserves_config_json(tmp_path):
    path = tmp_path / "c.ckpt"
    write_container(path, {"kind": "custom", "alpha": [1, 2]}, {"x": np.zeros(3, dtype=np.float32)})
    cfg, tensors = read_container(path)
    assert cfg == {"kind": "custom", "alpha": [1, 2]}
    assert list(tensors) == ["x"]


# ---------------------------------------------------------------------------
# loader checks on hand-built containers

def model_tensors(model):
    return {name: p.data for name, p in model.params.items()}


def model_blob(model, **changes):
    return {"kind": "model", "config": {**asdict(model.config), **changes}}


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda t: {"wte": t["wte"]}, "lacks tensor 'blocks.0.ln1.gain'"),
        (lambda t: {**t, "extra": np.zeros(2, np.float32)}, "unexpected tensor 'extra'"),
        (
            lambda t: {**t, "lm_head": t["lm_head"].astype(np.float64)},
            r"one float32 or float64 dtype, got \['float32', 'float64'\]",
        ),
    ],
)
def test_model_bad_tensors_rejected(tmp_path, edit, message):
    model = tiny_model()
    path = tmp_path / "m.ckpt"
    write_container(path, model_blob(model), edit(model_tensors(model)))
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"alpha": 1}, "unexpected keyword argument 'alpha'"),
        ({"n_ctx": 1}, "n_ctx must be >= 2"),
        ({"family": "nope"}, "unknown family"),
        ({"d_model": "8"}, "'d_model' .* is not a int"),
        ({"d_model": 8.0}, "'d_model' .* is not a int"),
        ({"softmax_weights": 0}, "'softmax_weights' .* is not a bool"),
        ({"vocab": 258}, r"'wte' .* shape \(8, 259\), expected \(8, 258\)"),
        ({"n_layers": 10**12}, "lacks tensor 'blocks.1.ln1.gain'"),  # without building 10^13 specs
        ({"bidir_separate_wte": True}, "'bidir_separate_wte' .* must be false"),
        ({"bidir_separate_wte": 0}, "'bidir_separate_wte' .* must be false"),
        ({"n_layers": -1}, "n_layers must be >= 0, got -1"),
        ({"d_model": 0}, "d_model must be >= 1, got 0"),
    ],
)
def test_model_invalid_config_rejected(tmp_path, changes, message):
    model = tiny_model()
    path = tmp_path / "m.ckpt"
    write_container(path, model_blob(model, **changes), model_tensors(model))
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_legacy_bidir_separate_wte_false_loads_exactly(tmp_path, dtype):
    # containers written while ModelConfig had the field carry it as false
    model = build_model(ModelConfig("bidirectional_mixer", d_model=8, n_layers=1, n_ctx=6), seed=2, dtype=dtype)
    path = tmp_path / "m.ckpt"
    write_container(path, model_blob(model, bidir_separate_wte=False), model_tensors(model))
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert list(loaded.params) == list(model.params)
    for name, p in model.params.items():
        assert loaded.params[name].data.dtype == dtype
        assert loaded.params[name].data.tobytes() == p.data.tobytes()


def test_model_config_missing_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    write_container(path, {"kind": "model"}, model_tensors(tiny_model()))
    with pytest.raises(CheckpointFormatError, match="lacks a dict config value 'config'"):
        load_checkpoint(path)


def test_model_float64_loads(tmp_path):
    model = build_model(tiny_model().config, seed=1, dtype=np.float64)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    assert load_checkpoint(path).dtype == np.float64


EMBEDDINGS = {"kind": "embeddings", "source_model_id": "m"}
TABLE = np.zeros((3, 4), np.float32)
NAN_TABLE = np.where(np.arange(12).reshape(3, 4) == 6, np.float32(np.nan), TABLE)


@pytest.mark.parametrize(
    "blob,tensors,message",
    [
        (EMBEDDINGS, {"targets": TABLE}, "lacks tensor 'queries'"),
        (EMBEDDINGS, {"queries": TABLE}, "lacks tensor 'targets'"),
        (EMBEDDINGS, {"queries": TABLE, "targets": TABLE[:2]}, "pair by index"),
        (EMBEDDINGS, {"queries": TABLE[0], "targets": TABLE[0]}, "must be 2-D"),
        (EMBEDDINGS, {"queries": NAN_TABLE, "targets": TABLE}, "non-finite"),
        (EMBEDDINGS, {"queries": TABLE, "targets": TABLE.astype(np.float64)}, "one float32 or float64 dtype"),
    ],
)
def test_embedding_store_invalid_contents_rejected(tmp_path, blob, tensors, message):
    path = tmp_path / "e.ckpt"
    write_container(path, blob, tensors)
    with pytest.raises(CheckpointFormatError, match=message):
        load_embedding_store(path)


# ---------------------------------------------------------------------------
# corrupted containers: every load either round-trips bit-exactly or raises
# CheckpointFormatError, with traced memory bounded by the container's size

PEAK_MEMORY_PER_FILE_BYTE = 8


def model_state(model):
    return model.config, [(name, p.data.dtype, p.data.tobytes()) for name, p in model.params.items()]


def embedding_state(store):
    tables = [(t.dtype, t.shape, t.tobytes()) for t in (store.queries, store.targets)]
    return store.source_model_id, tables


def tiny_embedding_store():
    rng = np.random.default_rng(8)
    return EmbeddingStore(
        queries=rng.normal(size=(64, 16)).astype(np.float32),
        targets=rng.normal(size=(64, 16)).astype(np.float32),
        source_model_id="gen0",
    )


LOADERS = {
    "model": (lambda: tiny_model(seed=9), save_checkpoint, load_checkpoint, model_state),
    "embeddings": (tiny_embedding_store, save_embedding_store, load_embedding_store, embedding_state),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_duplicate_tensor_name_rejected_with_offset(tmp_path, kind):
    # an all-zero second entry named like the first must not replace it
    make, save, load, _ = LOADERS[kind]
    path = tmp_path / f"{kind}.ckpt"
    save(make(), path)
    name, first = next(iter(read_container(path)[1].items()))
    raw = bytearray(path.read_bytes())
    (blob_len,) = struct.unpack_from("<I", raw, BLOB_AT - 4)
    count_at = BLOB_AT + blob_len
    struct.pack_into("<Q", raw, count_at, struct.unpack_from("<Q", raw, count_at)[0] + 1)
    tag = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}[first.dtype]
    second_at = len(raw)
    path.write_bytes(bytes(raw) + _entry(name, tag, first.shape, np.zeros_like(first).tobytes()))
    with pytest.raises(CheckpointFormatError, match=rf"^duplicate tensor name '{name}' at byte {second_at}$"):
        load(path)


@pytest.fixture(scope="module")
def corruption_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corrupt")
    for kind, (make, save, _, _) in LOADERS.items():
        save(make(), root / f"{kind}.ckpt")
    return root


ITEMSIZE = {b"f32": 4, b"f64": 8}


def length_fields(raw):
    """(offset, width) of every length field of a container, found by walking its layout.

    The fields are the config blob length, the tensor count and, per tensor,
    the name and dtype tag lengths, ndim and each dim.
    """
    at = len(MAGIC) + 4
    (blob,) = struct.unpack_from("<I", raw, at)
    fields = [(at, 4), (at + 4 + blob, 8)]
    (count,) = struct.unpack_from("<Q", raw, at + 4 + blob)
    at += 4 + blob + 8
    for _ in range(count):
        for _ in ("name", "tag"):
            (n,) = struct.unpack_from("<I", raw, at)
            fields.append((at, 4))
            tag = bytes(raw[at + 4:at + 4 + n])
            at += 4 + n
        (ndim,) = struct.unpack_from("<I", raw, at)
        dims = struct.unpack_from(f"<{ndim}Q", raw, at + 4)
        fields += [(at, 4)] + [(at + 4 + 8 * i, 8) for i in range(ndim)]
        at += 4 + 8 * ndim + math.prod(dims) * ITEMSIZE[tag]
    assert at == len(raw)
    return fields


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(LOADERS)), mutation=st.sampled_from(["truncate", "xor", "splice"]), data=st.data())
def test_corrupted_containers_round_trip_or_raise(corruption_dir, kind, mutation, data):
    root = corruption_dir
    raw = bytearray((root / f"{kind}.ckpt").read_bytes())
    size = len(raw)
    if mutation == "splice":
        # one whole length field gets an arbitrary value or one near its own
        at, width = data.draw(st.sampled_from(length_fields(raw)))
        fmt = "<I" if width == 4 else "<Q"
        (was,) = struct.unpack_from(fmt, raw, at)
        value = data.draw(st.one_of(st.integers(0, 256**width - 1), st.integers(max(0, was - 16), was + 16)))
        struct.pack_into(fmt, raw, at, value)
    else:
        # about half the offsets land in the first 512 bytes: magic, version, config blob and the first tensor headers
        offset = data.draw(st.one_of(st.integers(0, 511), st.integers(0, len(raw) - 1)))
        if mutation == "truncate":
            del raw[offset:]
        else:
            raw[offset] ^= data.draw(st.integers(1, 255))
    path = root / f"mutated-{kind}.ckpt"
    path.write_bytes(raw)
    _, save, load, state = LOADERS[kind]

    tracemalloc.start()
    try:
        loaded = load(path)
    except CheckpointFormatError:
        loaded = None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # the base is the uncorrupted file: raising on a 0-byte truncation still costs a few kB
    assert peak <= PEAK_MEMORY_PER_FILE_BYTE * size, (kind, len(raw), peak)
    assert mutation != "truncate" or loaded is None
    if loaded is None:
        return
    again = root / f"again-{kind}.ckpt"
    save(loaded, again)
    assert state(load(again)) == state(loaded)
    if kind == "model":
        with T.no_grad(), np.errstate(all="ignore"):
            forward(loaded, np.ones(loaded.config.n_ctx, dtype=np.int32))


# ---------------------------------------------------------------------------
# dimension calculator

def test_jl_min_dim_values():
    assert jl_min_dim(10**10, 1.0) == 185
    assert jl_min_dim(15 * 10**12, 1.0) == 243
    assert jl_min_dim(15 * 10**18, 1.0) == 354


def test_jl_matches_formula_exactly():
    import math

    for m, eps in ((100, 0.5), (10**6, 0.1), (37, 1.0)):
        assert jl_min_dim(m, eps) == math.ceil(8 * math.log(m) / eps**2)


def test_jl_shorthand_rounding():
    assert jl_shorthand_dim(10**10, 1.0) == 184
    assert jl_shorthand_dim(15 * 10**12, 1.0) == 240
    assert jl_shorthand_dim(15 * 10**18, 1.0) == 352


def test_jl_rejects_bad_args():
    with pytest.raises(ValueError):
        jl_min_dim(1, 1.0)
    for m in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"m must be finite and >= 2, got {m}"):
            jl_bound(m, 1.0)
    with pytest.raises(ValueError):
        jl_min_dim(100, 0.0)
    with pytest.raises(ValueError):
        jl_min_dim(100, 1.5)
    for m in (0.5, 1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^m must be finite and >= 2, got {m}$"):
            jl_shorthand_dim(m, 1.0)
    for eps in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match=f"^eps must lie in \\(0, 1\\], got {eps}$"):
            jl_shorthand_dim(100, eps)


def test_jl_bound_monotone_in_eps():
    assert jl_bound(1000, 0.5) > jl_bound(1000, 1.0)
