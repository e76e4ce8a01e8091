"""Tokenizer round-trips, chunk/pad contracts, and deterministic splits."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixerlab.data import (
    PAD_ID,
    ChunkStore,
    Tokenizer,
    build_corpus,
    chunk_and_pad,
    load_pairs,
    pair_line_chunks,
    pairs_to_sequences,
    synthetic_pairs,
    write_pairs,
)


def test_tokenize_basic():
    tok = Tokenizer()
    assert tok.tokenize("ab") == [97, 98]
    assert tok.detokenize([97, 98]) == "ab"


def test_tokenize_empty():
    tok = Tokenizer()
    assert tok.tokenize("") == []
    assert tok.detokenize([]) == ""


def test_round_trip_large_random_bytes():
    rng = np.random.default_rng(0)
    blob = bytes(rng.integers(0, 256, size=1_000_000, dtype=np.uint8))
    text = blob.decode("utf-8", errors="replace")
    tok = Tokenizer()
    assert tok.detokenize(tok.tokenize(text)) == text


@settings(max_examples=50, deadline=None)
@given(st.text())
def test_round_trip_property(text):
    tok = Tokenizer()
    ids = tok.tokenize(text)
    assert all(0 <= i < 256 for i in ids)
    assert tok.detokenize(ids) == text


def test_detokenize_drops_specials():
    tok = Tokenizer()
    assert tok.detokenize([257, 97, 256, 98, 258]) == "ab"


def test_chunk_and_pad_partial_tail():
    chunks = chunk_and_pad([1, 2, 3, 4, 5], 4, "right")
    assert len(chunks) == 2
    assert chunks[0].tolist() == [1, 2, 3, 4]
    assert chunks[1].tolist() == [5, PAD_ID, PAD_ID, PAD_ID]


def test_chunk_and_pad_exact_fit():
    chunks = chunk_and_pad([1, 2, 3, 4], 4, "right")
    assert len(chunks) == 1
    assert PAD_ID not in chunks[0]


def test_chunk_and_pad_left_side():
    chunks = chunk_and_pad([1, 2, 3, 4, 5], 4, "left")
    assert chunks[1].tolist() == [PAD_ID, PAD_ID, PAD_ID, 5]


def test_chunk_empty_input():
    assert chunk_and_pad([], 4) == []


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=200), st.integers(2, 17))
def test_chunk_round_trip_property(ids, n_ctx):
    chunks = chunk_and_pad(ids, n_ctx)
    rebuilt = [i for c in chunks for i in c.tolist() if i != PAD_ID]
    assert rebuilt == [i for i in ids]
    assert all(len(c) == n_ctx for c in chunks)


def test_build_corpus_split_counts(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("x" * 400)  # 100 chunks of 4
    train, evals = build_corpus(path, n_ctx=4, split_ratio=0.9)
    assert len(train) + len(evals) == 100
    assert abs(len(train) - 90) <= 3
    assert len(evals) >= 1


def test_build_corpus_rejects_degenerate_ratio(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("hello world")
    with pytest.raises(ValueError, match="split_ratio"):
        build_corpus(path, n_ctx=4, split_ratio=1.0)


def test_build_corpus_deterministic(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("abcdefgh" * 32)
    t1, e1 = build_corpus(path, n_ctx=8, split_ratio=0.8, seed=5)
    t2, e2 = build_corpus(path, n_ctx=8, split_ratio=0.8, seed=5)
    assert np.array_equal(t1.ids, t2.ids)
    assert np.array_equal(e1.ids, e2.ids)


def test_build_corpus_both_splits_nonempty_extreme_ratio():
    train, evals = build_corpus("ab" * 8, n_ctx=4, split_ratio=0.999, inline=True)
    assert len(train) >= 1 and len(evals) >= 1


def test_build_corpus_unreadable_path():
    with pytest.raises(IOError):
        build_corpus("/no/such/file.txt", n_ctx=4)


def _bad_utf8_file(path, offset, line=b"ab?\tab=ab\n"):
    """Valid pair lines with one 0xff byte at `offset`, past the first 8 KB read buffer."""
    raw = bytearray(line * (offset // len(line) + 2))
    raw[offset] = 0xFF
    path.write_bytes(bytes(raw))
    return path


@pytest.mark.parametrize("read", [lambda p: build_corpus(p, n_ctx=8), load_pairs], ids=["corpus", "pairs"])
def test_non_utf8_file_names_path_and_byte_offset(tmp_path, read):
    path = _bad_utf8_file(tmp_path / "text.txt", 9000)
    with pytest.raises(ValueError) as raised:
        read(path)
    assert str(raised.value).startswith(f"{path}: not UTF-8 at byte 9000: ")


def test_text_files_translate_newlines(tmp_path):
    path = tmp_path / "text.txt"
    path.write_bytes(b"ab?\tab=ab\r\ncd?\tcd=cd\rx?\tx=x\n")
    assert load_pairs(path) == [("ab?", "ab=ab"), ("cd?", "cd=cd"), ("x?", "x=x")]
    train, evals = build_corpus(path, n_ctx=4, split_ratio=0.5)
    ids = np.concatenate([train.ids.ravel(), evals.ids.ravel()])
    assert 13 not in ids and np.sum(ids == 10) == 3


def test_synthetic_pairs_share_key_prefix():
    pairs = synthetic_pairs(20, np.random.default_rng(1))
    for q, t in pairs:
        assert q.endswith("?") and "=" in t
        assert t.startswith(q[:-1])


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"count": -5}, "count must be >= 1, got -5"),
        ({"count": 0}, "count must be >= 1, got 0"),
        ({"key_len": 0}, "key_len must be >= 1, got 0"),
        ({"payload_len": -2, "value_style": "random"}, "payload_len must be >= 1, got -2"),
        ({"value_style": "cpy"}, "value_style must be 'copy' or 'random', got 'cpy'"),
    ],
)
def test_synthetic_pairs_rejects_bad_value_before_drawing(kwargs, message):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{message}$"):
        synthetic_pairs(**{"count": 4, "rng": rng, **kwargs})
    assert rng.bit_generator.state == state


def test_pairs_file_round_trip(tmp_path):
    pairs = synthetic_pairs(5, np.random.default_rng(2))
    path = tmp_path / "pairs.tsv"
    write_pairs(path, pairs)
    assert load_pairs(path) == pairs


def test_pairs_to_sequences_left_padded():
    pairs = [("ab?", "ab=xy")]
    queries, targets = pairs_to_sequences(pairs, 8)
    assert queries[0].tolist()[:5] == [PAD_ID] * 5
    assert targets[0].tolist()[-5:] == [97, 98, 61, 120, 121]


def test_chunk_store_indexing():
    chunks = chunk_and_pad(list(range(10)), 5)
    store = ChunkStore(chunks)
    assert len(store) == 2
    assert store.ids[1].tolist() == [5, 6, 7, 8, 9]


def test_chunk_store_holds_its_ids_once():
    rng = np.random.default_rng(0)
    seqs = list(rng.integers(0, 256, size=(4096, 64), dtype=np.int32))
    tracemalloc.start()
    try:
        store = ChunkStore(seqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert store.ids.dtype == np.int32 and store.ids.shape == (4096, 64)
    assert np.array_equal(store.ids, np.stack(seqs))
    assert peak < 1.25 * store.ids.nbytes


def _is_sequence(row, n_ctx):
    return isinstance(row, np.ndarray) and row.dtype == np.int32 and row.shape == (n_ctx,)


def test_sequences_are_int32_arrays_of_n_ctx_everywhere():
    n_ctx, pairs = 8, synthetic_pairs(6, np.random.default_rng(4))
    chunks = chunk_and_pad(range(20), n_ctx, "left")
    queries, targets = pairs_to_sequences(pairs, n_ctx)
    train, evals = build_corpus("abcdefgh" * 12, n_ctx=n_ctx, inline=True)
    stores = (train, evals, pair_line_chunks(pairs, n_ctx), ChunkStore(chunks))
    assert all(_is_sequence(row, n_ctx) for row in chunks + queries + targets)
    assert all(_is_sequence(row, n_ctx) for store in stores for row in store.ids)


@pytest.mark.parametrize("ids", [[1, 2, 3], []], ids=["tokens", "empty"])
def test_chunk_and_pad_rejects_unknown_side(ids):
    with pytest.raises(ValueError, match="^side must be 'left' or 'right', got 'middle'$"):
        chunk_and_pad(ids, 4, "middle")
