"""Byte-level tokenization, fixed-context chunking, and corpus splits.

A token sequence is an int32 array of n_ctx ids; its pads hold PAD_ID, and it declares no pad side.
"""

import hashlib
import io

import numpy as np

PAD_ID = 256
VOCAB_SIZE = 259  # bytes 0..255, PAD_ID, and two reserved ids: 257 (bos) and 258 (eos)


class Tokenizer:
    """Byte-level tokenizer: ids 0..255 are raw bytes, plus pad/bos/eos.

    Round-trips arbitrary UTF-8 text exactly; pad is never produced by
    tokenize and special ids are dropped on detokenize.
    """

    def tokenize(self, text):
        return list(text.encode("utf-8"))

    def detokenize(self, ids):
        return bytes(i for i in ids if i < 256).decode("utf-8", errors="replace")


def _pad(ids, n_ctx, side):
    """The first n_ctx ids of a list as an int32 array, filled to n_ctx with PAD_ID on `side`."""
    ids = ids[:n_ctx]
    pad = [PAD_ID] * (n_ctx - len(ids))
    return np.asarray(pad + ids if side == "left" else ids + pad, dtype=np.int32)


def chunk_and_pad(ids, n_ctx, side="right"):
    """Split ids into int32 arrays of n_ctx ids, padding the final partial chunk on `side`.

    No token is lost or duplicated; an empty input gives an empty list. A
    side other than "left" or "right" raises ValueError, also for an empty input.
    """
    if n_ctx < 2:
        raise ValueError(f"n_ctx must be >= 2, got {n_ctx}")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    ids = list(ids)
    return [_pad(ids[start:start + n_ctx], n_ctx, side) for start in range(0, len(ids), n_ctx)]


class ChunkStore:
    """Immutable collection of fixed-length token sequences, stacked as the (count, n_ctx) int32 rows of `ids`."""

    def __init__(self, sequences):
        self.ids = np.array(sequences, dtype=np.int32) if sequences else np.zeros((0, 0), np.int32)

    def __len__(self):
        return self.ids.shape[0]


def _decode_text(raw, path):
    """A file's bytes as UTF-8 text, newlines translated as in text mode.

    The whole file is decoded at once, so a decode error's offset counts
    from the start of the file, not from the start of a read buffer.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 at byte {err.start}: {err.reason}") from None
    return io.StringIO(text, newline=None).read()


def _split_fraction(index, seed):
    digest = hashlib.sha256(f"corpus:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") / 2**64


def build_corpus(source, n_ctx, split_ratio=0.9, side="right", seed=0, inline=False):
    """Tokenize a text file (or inline text) into train/eval chunk stores.

    The split is deterministic: each chunk goes to train when the hash of
    (seed, chunk index) falls below split_ratio. Both splits are guaranteed
    non-empty whenever the input yields at least two chunks.
    """
    if not 0.0 < split_ratio < 1.0:
        raise ValueError(f"split_ratio must lie strictly inside (0, 1), got {split_ratio}")
    if inline:
        text = source
    else:
        try:
            with open(source, "rb") as fh:
                raw = fh.read()
        except OSError as e:
            raise IOError(f"cannot read corpus {source}: {e}") from e
        text = _decode_text(raw, source)
    chunks = chunk_and_pad(Tokenizer().tokenize(text), n_ctx, side)
    fractions = [_split_fraction(i, seed) for i in range(len(chunks))]
    to_train = [f < split_ratio for f in fractions]
    if len(chunks) >= 2:
        if all(to_train):
            to_train[int(np.argmax(fractions))] = False
        elif not any(to_train):
            to_train[int(np.argmin(fractions))] = True
    train = [c for c, t in zip(chunks, to_train) if t]
    evals = [c for c, t in zip(chunks, to_train) if not t]
    return ChunkStore(train), ChunkStore(evals)


def synthetic_pairs(count, rng, key_len=6, payload_len=2, value_style="copy"):
    """Query/target text pairs sharing a random key prefix.

    Queries look like "qwerty?" and targets like "qwerty=qwerty" (the value
    echoes the key, the default) or "qwerty=xs" (random value). The echoed
    value forces a language model trained on these lines to carry the key
    through its hidden states, which is what makes the pairs matchable from
    embeddings. A count or length below 1 or another value style raises
    ValueError naming the field before anything is drawn.
    """
    for name, value in (("count", count), ("key_len", key_len), ("payload_len", payload_len)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if value_style not in ("copy", "random"):
        raise ValueError(f"value_style must be 'copy' or 'random', got {value_style!r}")
    letters = "abcdefghijklmnopqrstuvwxyz"
    pairs = []
    for _ in range(count):
        key = "".join(letters[i] for i in rng.integers(0, 26, size=key_len))
        if value_style == "copy":
            value = key
        else:
            value = "".join(letters[i] for i in rng.integers(0, 26, size=payload_len))
        pairs.append((f"{key}?", f"{key}={value}"))
    return pairs


def write_pairs(path, pairs):
    """Persist pairs as UTF-8 lines `query<TAB>target`."""
    with open(path, "w", encoding="utf-8") as fh:
        for q, t in pairs:
            fh.write(f"{q}\t{t}\n")


def load_pairs(path):
    with open(path, "rb") as fh:
        text = _decode_text(fh.read(), path)
    pairs = []
    for lineno, line in enumerate(io.StringIO(text), 1):
        line = line.rstrip("\n")
        if not line:
            continue
        if "\t" not in line:
            raise ValueError(f"{path}:{lineno}: expected `query<TAB>target`")
        q, t = line.split("\t", 1)
        pairs.append((q, t))
    return pairs


def pair_line_chunks(pairs, n_ctx):
    """One pretraining chunk per pair: the line "query target", padded on the left.

    Keeping each pair on its own chunk preserves the query-to-target copy
    structure that chunked concatenation would straddle.
    """
    tok = Tokenizer()
    return ChunkStore([_pad(tok.tokenize(f"{q} {t}"), n_ctx, "left") for q, t in pairs])


def pairs_to_sequences(pairs, n_ctx):
    """Tokenize each side of the pairs and pad it on the left to a fixed-length sequence."""
    tok = Tokenizer()
    queries = [_pad(tok.tokenize(q), n_ctx, "left") for q, _ in pairs]
    targets = [_pad(tok.tokenize(t), n_ctx, "left") for _, t in pairs]
    return queries, targets

