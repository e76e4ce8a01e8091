"""Inversion procedure contracts: schedule, calibration, decode, Hamming."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixerlab import inversion
from mixerlab.data import PAD_ID
from mixerlab.inversion import (
    InversionConfig,
    calibrate_epsilon,
    csv_row,
    decode_embedding,
    invert_input,
    normalized_hamming,
)
from mixerlab.models import ModelConfig, build_model, forward_from_embedding
from mixerlab.tensor import CHECK64, TRAIN32


def small_mixer(seed=0, d_model=64, n_ctx=12):
    cfg = ModelConfig("masked_mixer", d_model=d_model, n_layers=2, n_ctx=n_ctx, vocab=259)
    return build_model(cfg, seed=seed)


# ---------------------------------------------------------------------------
# normalized Hamming

def test_hamming_identical():
    assert normalized_hamming([1, 2, 3], [1, 2, 3]) == 0.0


def test_hamming_one_third():
    assert normalized_hamming([1, 2, 3], [1, 5, 3]) == pytest.approx(1 / 3)


def test_hamming_ignores_reference_pads():
    assert normalized_hamming([1, 2, PAD_ID, PAD_ID], [1, 2, 9, 9]) == 0.0


def test_hamming_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        normalized_hamming([1, 2], [1, 2, 3])


def test_hamming_range_and_zero_iff():
    assert normalized_hamming([4, 4, 4], [5, 5, 5]) == 1.0
    assert normalized_hamming([PAD_ID, PAD_ID], [1, 2]) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 10), min_size=1, max_size=20), st.data())
def test_hamming_pseudometric_properties(xs, data):
    n = len(xs)
    ys = data.draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
    zs = data.draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
    pad_mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    xs = [PAD_ID if m else v for v, m in zip(xs, pad_mask)]
    ys_padded = [PAD_ID if m else v for v, m in zip(ys, pad_mask)]

    # symmetry once both sides carry the same pad mask
    assert normalized_hamming(xs, ys_padded) == normalized_hamming(ys_padded, xs)
    assert 0.0 <= normalized_hamming(xs, ys) <= 1.0

    # triangle inequality over the reference's non-pad positions
    keep = [x != PAD_ID for x in xs]
    if any(keep):
        dist = lambda a, b: sum(1 for k, u, v in zip(keep, a, b) if k and u != v) / sum(keep)
        assert dist(ys, zs) <= dist(ys, xs) + dist(xs, zs) + 1e-12
        assert normalized_hamming(xs, ys) == pytest.approx(dist(xs, ys))


# ---------------------------------------------------------------------------
# decode

def test_decode_exact_one_hot_embedding():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(16, 9))  # full column rank
    tokens = np.array([3, 0, 8, 5])
    e = w[:, tokens].T
    assert np.array_equal(decode_embedding(w, e), tokens)


def test_decode_robust_to_tiny_noise():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(16, 9))
    tokens = np.array([1, 7, 2, 2])
    e = w[:, tokens].T + rng.normal(scale=1e-6, size=(4, 16))
    assert np.array_equal(decode_embedding(w, e), tokens)


def test_decode_matches_lstsq_oracle_rank_deficient():
    rng = np.random.default_rng(2)
    u = rng.normal(size=(10, 3))
    v = rng.normal(size=(3, 7))
    w = u @ v  # rank 3
    e = rng.normal(size=(5, 10))
    ours = decode_embedding(w, e)
    coeffs, *_ = np.linalg.lstsq(w, e.T, rcond=1e-10)
    oracle = np.argmax(coeffs, axis=0)
    assert np.array_equal(ours, oracle)


def test_decode_encode_identity_full_column_rank():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d, v = int(rng.integers(6, 20)), int(rng.integers(2, 6))
        w = rng.normal(size=(d, v))
        tokens = rng.integers(0, v, size=8)
        e = w[:, tokens].T
        assert normalized_hamming(tokens, decode_embedding(w, e)) == 0.0


# ---------------------------------------------------------------------------
# epsilon calibration

def test_epsilon_zero_noise_degenerate(monkeypatch):
    monkeypatch.setattr(inversion, "CALIB_NOISE_STD", 0.0)
    model = small_mixer()
    ids = np.arange(12) % 200
    calib = calibrate_epsilon(model, ids, InversionConfig())
    assert calib.epsilon == 0.0
    assert calib.decode_stable


def test_epsilon_monotone_in_noise_std(monkeypatch):
    model = small_mixer(seed=4)
    ids = np.arange(12) % 200
    means = []
    for std in (0.01, 0.05, 0.1):
        monkeypatch.setattr(inversion, "CALIB_NOISE_STD", std)
        vals = [calibrate_epsilon(model, ids, InversionConfig(seed=s)).epsilon for s in range(20)]
        means.append(np.mean(vals))
    assert means[0] < means[1] < means[2]


def test_epsilon_decode_stable_for_seeded_case():
    model = small_mixer(seed=5)
    ids = np.arange(12) % 200
    assert calibrate_epsilon(model, ids, InversionConfig(seed=7)).decode_stable


def test_layer_out_of_range_rejected():
    model = small_mixer()
    ids = np.arange(12) % 200
    with pytest.raises(ValueError, match="layer"):
        invert_input(model, ids, InversionConfig(n_iters=1, target_layer=9))


# ---------------------------------------------------------------------------
# the full procedure

def test_schedule_endpoints():
    cfg = InversionConfig(n_iters=500, eta=0.3)
    assert cfg.eta_at(0) == pytest.approx(0.3)
    assert cfg.eta_at(499) == pytest.approx(0.03)
    assert InversionConfig(n_iters=1, eta=0.3).eta_at(0) == 0.3


@pytest.mark.parametrize(
    "kw,message",
    [
        (dict(n_iters=0), "n_iters must be >= 1, got 0"),
        (dict(eta=0.0), "eta must be finite and > 0, got 0.0"),
        (dict(eta=-0.1), "eta must be finite and > 0, got -0.1"),
        (dict(eta=float("nan")), "eta must be finite and > 0, got nan"),
        (dict(eta=float("inf")), "eta must be finite and > 0, got inf"),
    ],
)
def test_config_rejects_a_rate_or_count_it_cannot_run_naming_the_field(kw, message):
    with pytest.raises(ValueError) as raised:
        InversionConfig(**kw)
    assert str(raised.value) == message


def test_oracle_start_is_fixed_point():
    """Iterating from the true embedding keeps distance at 0."""
    model = small_mixer(seed=6)
    ids = (np.arange(12) * 7) % 200
    e_true = model.params["wte"].data[:, ids].T

    from mixerlab import tensor as T
    from mixerlab.inversion import _activations

    with T.no_grad():
        _, target = _activations(model, e_true, ids, InversionConfig())
        _, again = _activations(model, e_true.copy(), ids, InversionConfig())
    assert float(np.abs(target.data - again.data).sum()) == 0.0
    assert normalized_hamming(ids, decode_embedding(model.params["wte"], e_true)) == 0.0


def test_invert_small_mixer_recovers_input():
    model = small_mixer(seed=8, d_model=128, n_ctx=12)
    rng = np.random.default_rng(9)
    ids = rng.integers(0, 256, size=12)
    rep = invert_input(model, ids, InversionConfig(n_iters=300, seed=2), model_id="unit")
    assert rep.hamming <= 0.1
    assert rep.converged == (rep.final_distance < rep.epsilon)
    assert rep.distances[0] > rep.final_distance


def test_best_so_far_objective_non_increasing():
    model = small_mixer(seed=10)
    ids = np.arange(12) % 250
    rep = invert_input(model, ids, InversionConfig(n_iters=120, seed=3))
    best = np.minimum.accumulate(rep.distances)
    assert best[-1] <= best[0]
    assert rep.final_distance == pytest.approx(min(rep.distances))


def test_csv_row_schema():
    model = small_mixer(seed=11)
    ids = np.arange(12) % 250
    rep = invert_input(model, ids, InversionConfig(n_iters=5, seed=4), model_id="m0")
    row = csv_row(rep)
    assert len(row) == 8
    assert row[1] == "m0"
    assert row[3] == 12


def test_model_left_unfrozen_state_restored():
    model = small_mixer(seed=12)
    ids = np.arange(12) % 250
    before = {n: p.requires_grad for n, p in model.params.items()}
    invert_input(model, ids, InversionConfig(n_iters=2, seed=5))
    assert {n: p.requires_grad for n, p in model.params.items()} == before


def _full_forward(model, e, ids=None, layer=None):
    """The reference: every block, ln_f and lm_head run, then the list is cut at `layer`."""
    logits, hiddens = forward_from_embedding(model, e, ids=ids)
    return logits, hiddens[: layer % len(hiddens) + 1]


@pytest.mark.parametrize("dtype", [CHECK64, TRAIN32])
@pytest.mark.parametrize("family", ["masked_mixer", "transformer"])
def test_truncated_forward_inverts_like_the_full_forward(monkeypatch, family, dtype):
    n = 2
    model = build_model(ModelConfig(family, d_model=16, n_layers=n, n_ctx=8, n_heads=2), seed=13, dtype=dtype)
    ids = np.arange(8) * 5 % 250
    ids[-2:] = PAD_ID
    for layer in range(-(n + 2), n + 2):
        for last_token_only in (False, True):
            cfg = InversionConfig(n_iters=6, target_layer=layer, last_token_only=last_token_only, seed=layer + 9)
            got = invert_input(model, ids, cfg)
            with monkeypatch.context() as m:
                m.setattr(inversion, "forward_from_embedding", _full_forward)
                want = invert_input(model, ids, cfg)
            assert got.distances == want.distances, (layer, last_token_only)
            assert (got.epsilon, got.best_iter, got.calibration_decode_stable) == (
                want.epsilon, want.best_iter, want.calibration_decode_stable)
            assert np.array_equal(got.decoded, want.decoded)
