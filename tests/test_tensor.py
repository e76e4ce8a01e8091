"""Engine-level contracts: op semantics, gradient soundness, pinv, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf
from scipy.stats import chisquare

from mixerlab import tensor as T
from mixerlab.models import ModelConfig, build_model
from mixerlab.tensor import Tensor, backward, grad_check, multinomial_sample, pinv
from mixerlab.training import TrainConfig, batch_loss


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# matmul

def test_matmul_identity():
    a = t64(np.eye(2))
    b = t64([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.matmul(a, b).data, b.data)


def test_matmul_hand_case():
    out = T.matmul(t64([[1.0, 2.0]]), t64([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))


def test_matmul_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    a_data = rng.normal(size=(4, 5))
    b = t64(rng.normal(size=(5, 3)))
    probe = t64(rng.normal(size=(4, 3)))

    def f(a):
        return T.tsum(T.mul(T.matmul(a, b), probe))

    assert grad_check(f, t64(a_data, requires_grad=True)) <= 1e-6

    a_fixed = t64(a_data)

    def g(bv):
        return T.tsum(T.mul(T.matmul(a_fixed, bv), probe))

    assert grad_check(g, t64(rng.normal(size=(5, 3)), requires_grad=True)) <= 1e-6


@pytest.mark.parametrize("shape", [(3, 7), (9, 7), (1, 3, 7), (2, 2, 7), (3, 4, 7)])
def test_matmul_input_grad_in_both_orientations(shape):
    """A 2-D right operand with 7 input rows: fewer flat rows than 7 take (y @ g.T).T, the rest g @ y.T."""
    rng = np.random.default_rng(len(shape) * 10 + shape[-2])
    w0, probe = rng.normal(size=(7, 5)), t64(rng.normal(size=shape[:-1] + (5,)))
    x0 = rng.normal(size=shape)
    assert grad_check(lambda x: T.tsum(T.mul(T.matmul(x, t64(w0)), probe)), t64(x0, True)) <= 1e-6
    assert grad_check(lambda w: T.tsum(T.mul(T.matmul(t64(x0), w), probe)), t64(w0, True)) <= 1e-6
    x = t64(x0, True)
    backward(T.tsum(T.mul(T.matmul(x, t64(w0)), probe)))
    assert x.grad.shape == shape
    assert np.allclose(x.grad, probe.data @ w0.T, rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# masked convolution

def test_masked_conv_lower_triangular_sum():
    seq, d = 3, 2
    x = t64(np.arange(6, dtype=np.float64).reshape(seq, d))
    w = t64(np.ones((seq, seq, 1)))
    mask = np.tril(np.ones((seq, seq)))
    out = T.masked_conv1d(x, w, mask)
    expect = np.array([x.data[0], x.data[0] + x.data[1], x.data[0] + x.data[1] + x.data[2]])
    assert np.array_equal(out.data, expect)


def test_masked_conv_future_rows_inert():
    seq, d = 3, 4
    rng = np.random.default_rng(1)
    x_data = rng.normal(size=(seq, d))
    w = t64(rng.normal(size=(seq, seq, 1)))
    mask = np.tril(np.ones((seq, seq)))
    base = T.masked_conv1d(t64(x_data), w, mask).data
    x_data2 = x_data.copy()
    x_data2[2] += 10.0
    bumped = T.masked_conv1d(t64(x_data2), w, mask).data
    assert np.array_equal(base[0], bumped[0])
    assert np.array_equal(base[1], bumped[1])


def test_masked_conv_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    seq, d, k = 8, 4, 2
    mask = np.tril(np.ones((seq, seq)))
    x = t64(rng.normal(size=(seq, d)))
    probe = t64(rng.normal(size=(seq, d)))

    def f(w):
        return T.tsum(T.mul(T.masked_conv1d(x, w, mask), probe))

    w = t64(rng.normal(size=(seq, seq, k)), requires_grad=True)
    assert grad_check(f, w) <= 1e-6

    w_fixed = t64(rng.normal(size=(seq, seq, k)))

    def g(xv):
        return T.tsum(T.mul(T.masked_conv1d(xv, w_fixed, mask), probe))

    assert grad_check(g, t64(rng.normal(size=(seq, d)), requires_grad=True)) <= 1e-6


def test_masked_conv_masked_taps_get_zero_grad():
    rng = np.random.default_rng(3)
    seq, d = 4, 3
    mask = np.tril(np.ones((seq, seq)))
    x = t64(rng.normal(size=(seq, d)))
    w = t64(rng.normal(size=(seq, seq, 1)), requires_grad=True)
    backward(T.tsum(T.masked_conv1d(x, w, mask)))
    assert np.all(w.grad[:, :, 0][mask == 0] == 0.0)


def test_masked_conv_kernel_too_large():
    x = t64(np.zeros((3, 2)))
    w = t64(np.zeros((3, 3, 5)))
    with pytest.raises(ValueError, match="kernel"):
        T.masked_conv1d(x, w, np.tril(np.ones((3, 3))))


# ---------------------------------------------------------------------------
# softmax

def test_softmax_symmetry():
    out = T.softmax(t64([0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [0.5, 0.5], atol=0)


def test_softmax_extreme_inputs_stable():
    out = T.softmax(t64([1000.0, 0.0]), axis=0)
    assert abs(out.data[0] - 1.0) <= 1e-12
    assert out.data[1] <= 1e-12
    assert np.all(np.isfinite(out.data))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    out = T.softmax(t64(rng.normal(scale=100.0, size=(5, 7))), axis=1)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    probe = t64(rng.normal(size=9))

    def f(x):
        return T.tsum(T.mul(T.softmax(x, axis=0), probe))

    assert grad_check(f, t64(rng.normal(size=9), requires_grad=True)) <= 1e-6


# ---------------------------------------------------------------------------
# cross entropy

def test_cross_entropy_uniform_logits():
    logits = t64(np.zeros((3, 16)))
    loss = T.cross_entropy(logits, [1, 5, 9])
    assert abs(loss.item() - np.log(16.0)) <= 1e-12


def test_cross_entropy_separation_limit():
    logits_data = np.full((2, 4), -100.0)
    logits_data[0, 2] = 100.0
    logits_data[1, 0] = 100.0
    loss = T.cross_entropy(t64(logits_data), [2, 0])
    assert loss.item() <= 1e-12


def test_cross_entropy_all_ignored_is_an_error():
    with pytest.raises(ValueError, match="empty loss"):
        T.cross_entropy(t64(np.zeros((2, 4))), [3, 3], ignore_id=3)


def test_cross_entropy_ignores_pad_positions():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(4, 5))
    full = T.cross_entropy(t64(logits[:2]), [1, 2]).item()
    masked = T.cross_entropy(t64(logits), [1, 2, 9, 9], ignore_id=9).item()
    assert abs(full - masked) <= 1e-12


def test_softmax_cross_entropy_composite_grad():
    rng = np.random.default_rng(7)

    def f(x):
        return T.cross_entropy(x, [2, 0, 1])

    assert grad_check(f, t64(rng.normal(size=(3, 4)), requires_grad=True)) <= 1e-6


# ---------------------------------------------------------------------------
# backward contracts

def test_backward_square():
    x = t64(3.0, requires_grad=True)
    backward(T.mul(x, x))
    assert x.grad.item() == 6.0


def test_backward_product():
    x = t64(2.0, requires_grad=True)
    y = t64(5.0, requires_grad=True)
    backward(T.mul(x, y))
    assert x.grad.item() == 5.0
    assert y.grad.item() == 2.0


def test_backward_accumulates_on_repeat():
    x = t64(3.0, requires_grad=True)
    loss = T.mul(x, x)
    backward(loss)
    backward(loss)
    assert x.grad.item() == 12.0


def test_backward_rejects_non_scalar():
    x = t64([1.0, 2.0], requires_grad=True)
    with pytest.raises(T.GraphError, match="scalar"):
        backward(T.mul(x, x))


def test_backward_shared_subexpression():
    x = t64(2.0, requires_grad=True)
    y = T.mul(x, x)
    backward(T.add(y, y))
    assert x.grad.item() == 8.0


def test_mixed_precision_graph_rejected():
    a = Tensor(np.zeros(3, dtype=np.float32))
    b = Tensor(np.zeros(3, dtype=np.float64))
    with pytest.raises(T.GraphError, match="precision"):
        T.add(a, b)


# ---------------------------------------------------------------------------
# grad_check edge cases and remaining primitives

def test_grad_check_constant_function_is_zero():
    def f(x):
        return t64(1.0)

    assert grad_check(f, t64([1.0, 2.0], requires_grad=True)) == 0.0


@pytest.mark.parametrize(
    "name,builder",
    [
        ("gelu", lambda probe: lambda x: T.tsum(T.mul(T.gelu(x), probe))),
        ("exp", lambda probe: lambda x: T.tsum(T.mul(T.exp(x), probe))),
        ("sqrt", lambda probe: lambda x: T.tsum(T.mul(T.sqrt(T.add(T.mul(x, x), 1.0)), probe))),
        ("abs", lambda probe: lambda x: T.tsum(T.mul(T.absval(x), probe))),
        ("mean", lambda probe: lambda x: T.mul(T.mean(x), T.tsum(probe))),
        ("div", lambda probe: lambda x: T.tsum(T.mul(T.div(probe, T.add(T.mul(x, x), 1.0)), probe))),
        ("shift", lambda probe: lambda x: T.tsum(T.mul(T.shift(x, axis=1, offset=2), probe))),
        ("narrow", lambda probe: lambda x: T.tsum(T.mul(T.narrow(x, 1, 1, 3), T.narrow(probe, 1, 1, 3)))),
    ],
)
def test_primitive_grads(name, builder):
    rng = np.random.default_rng(sum(map(ord, name)))
    probe = t64(rng.normal(size=(4, 6)))
    x = t64(rng.normal(size=(4, 6)) + (2.0 if name == "sqrt" else 0.0), requires_grad=True)
    assert grad_check(builder(probe), x) <= 1e-6


def test_layer_norm_grad():
    rng = np.random.default_rng(8)
    gain = t64(rng.normal(size=6))
    bias = t64(rng.normal(size=6))
    probe = t64(rng.normal(size=(4, 6)))

    def f(x):
        return T.tsum(T.mul(T.layer_norm(x, gain, bias), probe))

    assert grad_check(f, t64(rng.normal(size=(4, 6)), requires_grad=True)) <= 1e-6


@pytest.mark.parametrize("order", ["C", "F"])
def test_layer_norm_matches_mean_formula_bit_for_bit_in_float32(order):
    # an F-ordered upstream gradient is what matmul's (y @ g.T).T orientation hands back
    rng = np.random.default_rng(12)
    x0, gain0, bias0 = (rng.normal(size=s).astype(np.float32) for s in ((32, 96), 96, 96))
    g = np.asarray(rng.normal(size=(32, 96)).astype(np.float32), order=order)
    centered = x0 - x0.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = centered * inv
    gh = g * gain0
    want_gx = inv * (gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    x, gain, bias = Tensor(x0, True), Tensor(gain0, True), Tensor(bias0, True)
    out = T.layer_norm(x, gain, bias)
    gx, ggain, gbias = out._backward(g)
    assert out.data.tobytes() == (xhat * gain0 + bias0).tobytes()
    assert gx.tobytes(order="A") == want_gx.tobytes(order="A") and gx.flags.c_contiguous == want_gx.flags.c_contiguous
    assert ggain.tobytes() == (g * xhat).sum(axis=0).tobytes() and gbias.tobytes() == g.sum(axis=0).tobytes()


# ---------------------------------------------------------------------------
# attention and rope, each one node, against the elementwise chains they replace

def attention_chain(q, k, v, allowed):
    """Oracle: scores, scale, 0/1 mask multiply, fill add and `softmax` as separate nodes, then values."""
    m = Tensor(allowed.astype(q.dtype))
    fill = Tensor(((1.0 - allowed) * -T._NEG_BIG).astype(q.dtype))
    scores = T.mul(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(q.shape[-1]))
    return T.matmul(T.softmax(T.add(T.mul(scores, m), fill), axis=-1), v)


def rope_chain(x, cos, sin):
    """Oracle: x * cos + (x @ rot) * sin, rot the signed permutation taking (x1, x2) to (-x2, x1)."""
    half = x.shape[-1] // 2
    rot = np.zeros((2 * half, 2 * half))
    rot[half:, :half] = -np.eye(half)
    rot[:half, half:] = np.eye(half)
    return T.add(T.mul(x, Tensor(cos)), T.mul(T.matmul(x, Tensor(rot.astype(x.dtype))), Tensor(sin)))


def causal_pad_mask(batch, s):
    """(batch, 1, s, s) 0/1 mask: causal, the last sequence's final two keys are pads, self always kept."""
    keep = np.ones((batch, s))
    keep[-1, -2:] = 0.0
    return (np.tril(np.ones((s, s))) * np.maximum(keep[:, None, :], np.eye(s)))[:, None]


def rope_tables(s, d, dtype):
    angles = np.outer(np.arange(s), 10000.0 ** (-np.arange(d // 2) / (d // 2)))
    return (np.tile(np.cos(angles), 2).astype(dtype), np.tile(np.sin(angles), 2).astype(dtype))


def outputs_and_grads(op, inputs, probe):
    """op's output and the gradients of sum(output * probe) to every input."""
    for t in inputs:
        t.grad = None
    out = op(*inputs)
    backward(T.tsum(T.mul(out, Tensor(probe))))
    return [out.data] + [t.grad for t in inputs]


@pytest.mark.parametrize("wrt", [0, 1, 2])
def test_attention_grad_matches_finite_differences(wrt):
    rng = np.random.default_rng(20 + wrt)
    qkv = [t64(rng.normal(size=(2, 3, 5, 4))) for _ in range(3)]
    allowed = causal_pad_mask(2, 5)
    probe = t64(rng.normal(size=(2, 3, 5, 4)))

    def f(x):
        args = list(qkv)
        args[wrt] = x
        return T.tsum(T.mul(T.attention(*args, allowed), probe))

    assert grad_check(f, t64(qkv[wrt].data.copy(), requires_grad=True)) <= 1e-6


def test_rope_grad_matches_finite_differences():
    rng = np.random.default_rng(23)
    cos, sin = rope_tables(5, 6, np.float64)
    probe = t64(rng.normal(size=(2, 3, 5, 6)))
    x = t64(rng.normal(size=(2, 3, 5, 6)), requires_grad=True)
    assert grad_check(lambda x: T.tsum(T.mul(T.rope(x, cos, sin), probe)), x) <= 1e-6


@pytest.mark.parametrize(
    "dtype,shape",
    [
        (np.float64, (2, 3, 5, 6)),
        # the inversion workload's shape: d256 as 4 heads of 64, one 32-token sequence
        (np.float32, (4, 32, 64)),
        # a padded batch whose 1/sqrt(d) is not a power of two
        (np.float32, (2, 3, 16, 24)),
    ],
)
def test_attention_and_rope_match_their_chains(dtype, shape):
    """Within 1e-12 in float64, and bit for bit in float32."""
    rng = np.random.default_rng(25)
    s, d = shape[-2:]
    allowed = causal_pad_mask(shape[0], s) if len(shape) == 4 else np.tril(np.ones((s, s)))[None]
    cos, sin = rope_tables(s, d, dtype)
    probe = rng.normal(size=shape).astype(dtype)
    pairs = [
        (lambda q, k, v: T.attention(q, k, v, allowed), lambda q, k, v: attention_chain(q, k, v, allowed), 3),
        (lambda x: T.rope(x, cos, sin), lambda x: rope_chain(x, cos, sin), 1),
    ]
    for op, chain, arity in pairs:
        inputs = [Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True) for _ in range(arity)]
        for got, want in zip(outputs_and_grads(op, inputs, probe), outputs_and_grads(chain, inputs, probe)):
            assert got.dtype == dtype
            if dtype == np.float64:
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            else:
                assert got.tobytes() == want.tobytes()


def test_attention_hidden_key_gets_zero_weight_and_zero_grad():
    rng = np.random.default_rng(26)
    s = 6
    allowed = causal_pad_mask(2, s)
    q = t64(rng.normal(size=(2, 1, s, s)), requires_grad=True)
    k = t64(rng.normal(size=(2, 1, s, s)), requires_grad=True)
    v = t64(np.broadcast_to(np.eye(s), (2, 1, s, s)).copy(), requires_grad=True)
    weights = T.attention(q, k, v, allowed)  # v = I, so the output rows are the weights
    assert np.all(weights.data[allowed == 0] == 0.0)
    for i in range(s):
        hidden = allowed[:, 0, i] == 0  # (batch, key): keys query i cannot see
        probe = np.zeros((2, 1, s, s))
        probe[:, :, i] = rng.normal(size=(2, 1, s))  # the loss reads query i only
        for t in (q, k, v):
            t.grad = None
        backward(T.tsum(T.mul(T.attention(q, k, v, allowed), t64(probe))))
        assert np.all(k.grad[:, 0][hidden] == 0.0) and np.all(v.grad[:, 0][hidden] == 0.0)
        assert np.any(v.grad[:, 0][~hidden] != 0.0)


# ---------------------------------------------------------------------------
# the pre-norm feed-forward sublayer, one node, against the chain it replaces

def feed_forward_chain(x, gain, bias, w1, b1, w2, b2):
    """Oracle: layer_norm, matmul, bias add, gelu, matmul, bias add and residual add as separate nodes."""
    ff = T.matmul(T.gelu(T.add(T.matmul(T.layer_norm(x, gain, bias), w1), b1)), w2)
    return T.add(x, T.add(ff, b2))


def feed_forward_inputs(rng, shape, dtype):
    d = shape[-1]
    x = rng.normal(size=shape)
    if len(shape) == 3 and shape[1] > 1:
        x[-1, -2:] = x[-1, -3]  # the last sequence ends in two copies of one pad row
    arrays = [x, 1.0 + 0.1 * rng.normal(size=d), 0.1 * rng.normal(size=d), rng.normal(size=(d, 4 * d)) / np.sqrt(d),
              0.1 * rng.normal(size=4 * d), rng.normal(size=(4 * d, d)) / np.sqrt(4 * d), 0.1 * rng.normal(size=d)]
    return [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]


@pytest.mark.parametrize("shape", [(32, 256), (3, 7, 24), (5, 1, 16)])
def test_feed_forward_matches_its_chain_bit_for_bit_in_float32(shape):
    """Output and all seven gradients, with an F-ordered upstream gradient as the models give it."""
    rng = np.random.default_rng(27)
    inputs = feed_forward_inputs(rng, shape, np.float32)
    # a head with more input rows than the block output has flat rows takes
    # matmul's (y @ g.T).T orientation, so its gradient reaches the node F-ordered
    head = Tensor(rng.normal(size=(shape[-1], 3)).astype(np.float32))
    probe = rng.normal(size=shape[:-1] + (3,)).astype(np.float32)
    upstream = T.matmul(inputs[0], head)._backward(probe)[0]
    assert upstream.flags.f_contiguous or not upstream.flags.c_contiguous
    got = outputs_and_grads(lambda *a: T.matmul(T.feed_forward(*a), head), inputs, probe)
    want = outputs_and_grads(lambda *a: T.matmul(feed_forward_chain(*a), head), inputs, probe)
    assert T.feed_forward(*inputs).data.tobytes() == feed_forward_chain(*inputs).data.tobytes()
    for g, w in zip(got, want):
        assert g.dtype == np.float32 and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("wrt", range(7))
def test_feed_forward_grad_matches_finite_differences(wrt):
    rng = np.random.default_rng(28 + wrt)
    inputs = feed_forward_inputs(rng, (2, 3, 4), np.float64)
    probe = t64(rng.normal(size=(2, 3, 4)))

    def f(t):
        args = list(inputs)
        args[wrt] = t
        return T.tsum(T.mul(T.feed_forward(*args), probe))

    assert grad_check(f, t64(inputs[wrt].data.copy(), requires_grad=True)) <= 1e-6


def test_feed_forward_rejects_shapes_that_do_not_chain():
    x, gain, bias, w1, b1, w2, b2 = feed_forward_inputs(np.random.default_rng(29), (2, 3, 4), np.float64)
    with pytest.raises(T.ShapeError, match=r"w2 \(16, 3\)"):
        T.feed_forward(x, gain, bias, w1, b1, t64(np.zeros((16, 3))), b2)


# ---------------------------------------------------------------------------
# the two token-mixing sublayers, one node each, against the chains they replace

def conv_sublayer_chain(x, gain, bias, w, mask):
    """Oracle: layer_norm, masked_conv1d and the residual add as separate nodes."""
    return T.add(x, T.masked_conv1d(T.layer_norm(x, gain, bias), w, mask))


def attention_sublayer_chain(x, gain, bias, wq, wk, wv, wo, allowed, cos, sin, n_heads):
    """Oracle: layer_norm, per-projection matmul, reshape and swapaxes, two ropes, attention, merge, wo, add."""
    h = T.layer_norm(x, gain, bias)
    heads_shape = x.shape[:-1] + (n_heads, x.shape[-1] // n_heads)

    def split(w):
        return T.swapaxes(T.reshape(T.matmul(h, w), heads_shape), -3, -2)

    q, k, v = T.rope(split(wq), cos, sin), T.rope(split(wk), cos, sin), split(wv)
    heads = T.attention(q, k, v, np.asarray(allowed)[..., None, :, :])
    return T.add(x, T.matmul(T.reshape(T.swapaxes(heads, -3, -2), x.shape), wo))


def sublayer_mask(direction, shape):
    """(S, S) 0/1 mask of a direction, or "pad": causal with the last sequence's final two keys pads."""
    s = shape[-2]
    if direction == "pad":
        batch = shape[0] if len(shape) == 3 else 1
        allowed = causal_pad_mask(batch, s)[:, 0]
        return allowed if len(shape) == 3 else allowed[0]
    return {"forward": np.tril, "reverse": np.triu, "none": lambda m: m}[direction](np.ones((s, s)))


def conv_sublayer_inputs(rng, shape, kernel_k, dtype):
    s, d = shape[-2:]
    arrays = [rng.normal(size=shape), 1.0 + 0.1 * rng.normal(size=d), 0.1 * rng.normal(size=d),
              rng.normal(size=(s, s, kernel_k)) / np.sqrt(s * kernel_k)]
    return [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]


def attention_sublayer_inputs(rng, shape, dtype):
    d = shape[-1]
    arrays = [rng.normal(size=shape), 1.0 + 0.1 * rng.normal(size=d), 0.1 * rng.normal(size=d)]
    arrays += [rng.normal(size=(d, d)) / np.sqrt(d) for _ in range(4)]
    return [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]


def assert_node_matches_chain(node, chain, inputs, rng):
    """Output and every input gradient bit for bit, behind a head product whose gradient may reach the node F-ordered."""
    dtype, shape = inputs[0].dtype, inputs[0].shape
    head = Tensor(rng.normal(size=(shape[-1], 3)).astype(dtype))
    probe = rng.normal(size=shape[:-1] + (3,)).astype(dtype)
    got = outputs_and_grads(lambda *a: T.matmul(node(*a), head), inputs, probe)
    want = outputs_and_grads(lambda *a: T.matmul(chain(*a), head), inputs, probe)
    assert node(*inputs).data.tobytes() == chain(*inputs).data.tobytes()
    for g, w in zip(got, want):
        assert g.dtype == dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("direction", ["forward", "reverse", "none"])
@pytest.mark.parametrize("kernel_k", [1, 3])
@pytest.mark.parametrize("shape", [(6, 8), (3, 6, 8), (2, 22, 16)])
def test_conv_sublayer_matches_its_chain_bit_for_bit(dtype, direction, kernel_k, shape):
    rng = np.random.default_rng(31)
    inputs = conv_sublayer_inputs(rng, shape, kernel_k, dtype)
    mask = sublayer_mask(direction, shape)
    assert_node_matches_chain(
        lambda *a: T.conv_sublayer(*a, mask), lambda *a: conv_sublayer_chain(*a, mask), inputs, rng
    )


def test_conv_sublayer_takes_softmax_weights_bit_for_bit():
    """The softmax-transformed weights are a graph input whose gradient flows on to the raw weights."""
    rng = np.random.default_rng(32)
    x, gain, bias, w = conv_sublayer_inputs(rng, (3, 6, 8), 2, np.float32)
    mask = sublayer_mask("forward", (6, 8))
    assert_node_matches_chain(
        lambda *a: T.conv_sublayer(*a[:3], T.softmax_conv_weights(a[3], mask), mask),
        lambda *a: conv_sublayer_chain(*a[:3], T.softmax_conv_weights(a[3], mask), mask),
        [x, gain, bias, w], rng,
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("direction", ["forward", "reverse", "none", "pad"])
@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("shape", [(6, 16), (3, 6, 16), (4, 22, 64)])
def test_attention_sublayer_matches_its_chain_bit_for_bit(dtype, direction, n_heads, shape):
    rng = np.random.default_rng(33)
    inputs = attention_sublayer_inputs(rng, shape, dtype)
    allowed = sublayer_mask(direction, shape)
    cos, sin = rope_tables(shape[-2], shape[-1] // n_heads, dtype)
    assert_node_matches_chain(
        lambda *a: T.attention_sublayer(*a, allowed, cos, sin, n_heads),
        lambda *a: attention_sublayer_chain(*a, allowed, cos, sin, n_heads),
        inputs, rng,
    )


@pytest.mark.parametrize("wrt", range(4))
def test_conv_sublayer_grad_matches_finite_differences(wrt):
    rng = np.random.default_rng(34 + wrt)
    inputs = conv_sublayer_inputs(rng, (2, 4, 5), 2, np.float64)
    mask = sublayer_mask("forward", (4, 5))
    probe = t64(rng.normal(size=(2, 4, 5)))

    def f(t):
        args = list(inputs)
        args[wrt] = t
        return T.tsum(T.mul(T.conv_sublayer(*args, mask), probe))

    assert grad_check(f, t64(inputs[wrt].data.copy(), requires_grad=True)) <= 1e-6


@pytest.mark.parametrize("wrt", range(7))
def test_attention_sublayer_grad_matches_finite_differences(wrt):
    rng = np.random.default_rng(38 + wrt)
    inputs = attention_sublayer_inputs(rng, (2, 4, 8), np.float64)
    allowed = sublayer_mask("pad", (2, 4, 8))
    cos, sin = rope_tables(4, 4, np.float64)
    probe = t64(rng.normal(size=(2, 4, 8)))

    def f(t):
        args = list(inputs)
        args[wrt] = t
        return T.tsum(T.mul(T.attention_sublayer(*args, allowed, cos, sin, 2), probe))

    assert grad_check(f, t64(inputs[wrt].data.copy(), requires_grad=True)) <= 1e-6


def test_attention_sublayer_rejects_shapes_that_do_not_chain():
    x, gain, bias, wq, wk, wv, wo = attention_sublayer_inputs(np.random.default_rng(45), (2, 4, 8), np.float64)
    cos, sin = rope_tables(4, 4, np.float64)
    with pytest.raises(T.ShapeError, match=r"wo \(8, 4\)"):
        T.attention_sublayer(x, gain, bias, wq, wk, wv, t64(np.zeros((8, 4))), np.ones((4, 4)), cos, sin, 2)
    with pytest.raises(T.ShapeError, match="3 heads"):
        T.attention_sublayer(x, gain, bias, wq, wk, wv, wo, np.ones((4, 4)), cos, sin, 3)


def graph_nodes(loss):
    """Graph nodes a backward from `loss` visits."""
    seen, todo, nodes = set(), [loss], 0
    while todo:
        node = todo.pop()
        if id(node) not in seen and node._backward is not None:
            seen.add(id(node))
            nodes += 1
            todo.extend(node._parents)
    return nodes


@pytest.mark.parametrize("family,nodes", [("masked_mixer", 10), ("transformer", 10)])
def test_clm_backward_graph_nodes(family, nodes):
    """One CLM step visits two nodes per block, its token-mixing and feed-forward sublayers."""
    model = build_model(ModelConfig(family, d_model=64, n_layers=2, n_ctx=22, n_heads=1 if family == "masked_mixer" else 4))
    ids = np.random.default_rng(30).integers(0, 256, size=(4, 22))
    assert graph_nodes(batch_loss(model, ids, TrainConfig(objective="clm"))) == nodes


def test_embedding_lookup_grad_scatters():
    rng = np.random.default_rng(9)
    wte = t64(rng.normal(size=(5, 7)), requires_grad=True)
    ids = np.array([3, 3, 0])
    out = T.embedding_lookup(wte, ids)
    assert out.data.shape == (3, 5)
    backward(T.tsum(out))
    assert np.allclose(wte.grad[:, 3], 2.0)
    assert np.allclose(wte.grad[:, 0], 1.0)
    assert np.allclose(wte.grad[:, 1], 0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ids_shape", [(40,), (5, 8), (2, 4, 5)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_embedding_lookup_grad_matches_strided_scatter_bit_for_bit(dtype, ids_shape, order):
    """Against the scatter into the transposed gradient that the flat scatter replaced.

    Six ids over 40 rows repeat many times, and gradient entries spread over
    six orders of magnitude, so adding a column's rows in another order
    would round differently.
    """
    rng = np.random.default_rng(46)
    d, vocab = 7, 6
    wte = Tensor(rng.normal(size=(d, vocab)).astype(dtype), requires_grad=True)
    ids = rng.integers(0, vocab, size=ids_shape)
    g = rng.normal(size=ids_shape + (d,)) * 10.0 ** rng.uniform(-3, 3, size=ids_shape + (d,))
    g = np.asarray(g.astype(dtype), order=order)
    want = np.zeros((d, vocab), dtype=dtype)
    np.add.at(want.T, ids.reshape(-1), g.reshape(-1, d))
    (got,) = T.embedding_lookup(wte, ids)._backward(g)
    assert got.dtype == dtype and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_embedding_lookup_rejects_bad_ids():
    wte = t64(np.zeros((4, 6)))
    with pytest.raises(ValueError, match="out of range"):
        T.embedding_lookup(wte, [6])


def test_take_rows_gathers_and_repeats_rows():
    a = t64(np.arange(24).reshape(2, 3, 4))
    idx = np.array([[5, 0], [5, 2], [1, 1]])
    out = T.take_rows(a, idx)
    assert out.data.shape == (3, 2, 4)
    np.testing.assert_array_equal(out.data, a.data.reshape(6, 4)[idx])


def test_take_rows_sums_the_gradients_of_repeated_rows_in_index_order():
    rng = np.random.default_rng(47)
    a = Tensor(rng.normal(size=(2, 3, 5)).astype(np.float32), requires_grad=True)
    idx = np.array([4, 1, 4, 4, 0, 1])
    g = (rng.normal(size=(6, 5)) * 10.0 ** rng.uniform(-3, 3, size=(6, 5))).astype(np.float32)
    (got,) = T.take_rows(a, idx)._backward(g)
    want = np.zeros((6, 5), dtype=np.float32)
    for row, src in zip(g, idx):
        want[src] += row
    assert got.shape == (2, 3, 5) and got.dtype == np.float32
    assert got.tobytes() == want.reshape(2, 3, 5).tobytes()


def test_take_rows_grad_matches_finite_differences():
    rng = np.random.default_rng(48)
    idx = np.array([[3, 3, 0], [2, 5, 3]])
    probe = t64(rng.normal(size=(2, 3, 4)))
    f = lambda a: T.tsum(T.mul(T.take_rows(a, idx), probe))  # noqa: E731
    assert grad_check(f, t64(rng.normal(size=(2, 3, 4)), requires_grad=True)) <= 1e-6


@pytest.mark.parametrize("bad", [6, -1])
def test_take_rows_rejects_an_index_outside_the_rows(bad):
    with pytest.raises(ValueError, match="row index out of range for 6 rows"):
        T.take_rows(t64(np.zeros((2, 3, 4))), [0, bad])


def test_concat_and_transpose_grads():
    rng = np.random.default_rng(10)
    b = t64(rng.normal(size=(3, 2)))
    probe = t64(rng.normal(size=(3, 5)))

    def f(a):
        joined = T.concat([a, b], axis=1)
        return T.tsum(T.mul(T.transpose(T.transpose(joined)), probe))

    assert grad_check(f, t64(rng.normal(size=(3, 3)), requires_grad=True)) <= 1e-6


@pytest.mark.parametrize("axes", [(0, 2), (-3, -2), (1, -1), (-1, -2), (2, 2)])
def test_swapaxes_matches_numpy_and_grad(axes):
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=(2, 3, 4))
    out = T.swapaxes(t64(x0), *axes)
    assert np.array_equal(out.data, np.swapaxes(x0, *axes))
    assert out.data.flags.c_contiguous
    probe = t64(rng.normal(size=out.shape))
    assert grad_check(lambda x: T.tsum(T.mul(T.swapaxes(x, *axes), probe)), t64(x0, True)) <= 1e-6


def test_swapaxes_rejects_missing_axis():
    with pytest.raises(T.ShapeError, match=r"axes 0 and 3 .*\(2, 3\)"):
        T.swapaxes(t64(np.zeros((2, 3))), 0, 3)
    with pytest.raises(T.ShapeError, match=r"\(3,\)"):
        T.transpose(t64(np.zeros(3)))


# ---------------------------------------------------------------------------
# gelu

def test_gelu_float64_forward_is_exact_erf_form_bit_for_bit():
    x = np.random.default_rng(12).normal(size=(32, 1024)) * 3
    out = T.gelu(Tensor(x)).data
    # the argument is x * sqrt(1/2); x / sqrt(2) rounds differently for some inputs
    reference = x * 0.5 * (1 + erf(x * np.sqrt(0.5)))
    assert out.dtype == np.float64
    assert np.array_equal(out, reference)


F32_UNIT = 2.0**-24
GELU_F32_ULPS = 6  # the float32 erf kernel measured 4.28 (forward) and 4.70 (gradient) of these units


def gelu_f32_errors(x):
    """float32 GELU forward and input-gradient errors against the float64 erf form, in units of 2^-24.

    The forward error is relative to max(1, |x|); the gradient error is absolute.
    """
    xt = Tensor(np.asarray(x, dtype=np.float32), requires_grad=True)
    with np.errstate(over="ignore"):  # x * x overflows float32 for |x| > 1.8e19; exp(-inf) is then 0
        out = T.gelu(xt)
        backward(T.tsum(out))
    assert out.data.dtype == np.float32 and xt.grad.dtype == np.float32
    x64 = xt.data.astype(np.float64)
    cdf = 0.5 * (1 + erf(x64 * np.sqrt(0.5)))
    grad = cdf + x64 * np.exp(-0.5 * x64 * x64) / np.sqrt(2 * np.pi)
    fwd_err = np.abs(out.data - x64 * cdf) / (F32_UNIT * np.maximum(1.0, np.abs(x64)))
    return fwd_err.max(), np.abs(xt.grad - grad).max() / F32_UNIT


def test_gelu_float32_error_on_dense_grid():
    fwd, grad = gelu_f32_errors(np.linspace(-12.0, 12.0, 2_000_001))
    assert fwd <= GELU_F32_ULPS
    assert grad <= GELU_F32_ULPS


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_gelu_float32_error_property(values):
    fwd, grad = gelu_f32_errors(values)
    assert fwd <= GELU_F32_ULPS
    assert grad <= GELU_F32_ULPS


def test_gelu_float32_saturates_exactly():
    big = np.concatenate([[6.0], np.geomspace(6.0, 3.0e38, 1000)]).astype(np.float32)
    assert np.array_equal(T.gelu(Tensor(big)).data, big)
    assert np.all(T.gelu(Tensor(-big)).data == 0)


def test_gelu_float32_non_finite_matches_float64_path():
    x = np.array([np.nan, np.inf, -np.inf])
    with np.errstate(invalid="ignore", over="ignore"):
        results = []
        for dtype in (np.float32, np.float64):
            xt = Tensor(x.astype(dtype), requires_grad=True)
            out = T.gelu(xt)
            backward(T.tsum(out))
            results.append((out.data, xt.grad))
    (out32, grad32), (out64, grad64) = results
    assert np.array_equal(out32, out64.astype(np.float32), equal_nan=True)
    assert np.array_equal(grad32, grad64.astype(np.float32), equal_nan=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_backward_keeps_dtype(dtype):
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(3, 8)).astype(dtype), requires_grad=True)
    backward(T.tsum(T.mul(T.gelu(x), Tensor(rng.normal(size=(3, 8)).astype(dtype)))))
    assert x.grad.dtype == dtype


def test_gelu_grad_check_3d():
    rng = np.random.default_rng(14)
    probe = t64(rng.normal(size=(2, 3, 5)))
    x = t64(rng.uniform(-3.0, 3.0, size=(2, 3, 5)), requires_grad=True)
    assert grad_check(lambda v: T.tsum(T.mul(T.gelu(v), probe)), x) <= 1e-6


# ---------------------------------------------------------------------------
# pinv

def test_pinv_identity():
    assert np.allclose(pinv(np.eye(3)), np.eye(3), atol=1e-12)


def test_pinv_diagonal():
    assert np.allclose(pinv(np.diag([1.0, 2.0])), np.diag([1.0, 0.5]), atol=1e-12)


def test_pinv_left_inverse_full_column_rank():
    rng = np.random.default_rng(11)
    w = rng.normal(size=(8, 3))
    assert np.allclose(pinv(w) @ w, np.eye(3), atol=1e-8)


def penrose_residuals(w, wp):
    scale = max(np.abs(w).max(), 1e-30)
    scale_p = max(np.abs(wp).max(), 1e-30)
    return (
        np.abs(w @ wp @ w - w).max() / scale,
        np.abs(wp @ w @ wp - wp).max() / scale_p,
        np.abs((w @ wp).T - w @ wp).max() / scale,
        np.abs((wp @ w).T - wp @ w).max() / scale_p,
    )


@pytest.mark.parametrize("shape,rank", [((6, 4), None), ((4, 6), None), ((8, 5), 2)])
def test_pinv_penrose_identities(shape, rank):
    rng = np.random.default_rng(12)
    w = rng.normal(size=shape)
    if rank is not None:
        u = rng.normal(size=(shape[0], rank))
        v = rng.normal(size=(rank, shape[1]))
        w = u @ v
    assert max(penrose_residuals(w, pinv(w))) <= 1e-8


# ---------------------------------------------------------------------------
# multinomial sampling

def test_multinomial_forced_outcome():
    rng = np.random.default_rng(13)
    assert sorted(multinomial_sample([1.0, 0.0, 1.0], 2, rng)) == [0, 2]


def test_multinomial_single():
    rng = np.random.default_rng(14)
    assert multinomial_sample([1.0], 1, rng) == [0]


def test_multinomial_insufficient_mass():
    rng = np.random.default_rng(15)
    with pytest.raises(ValueError, match="positive"):
        multinomial_sample([1.0, 0.0], 2, rng)


def test_multinomial_deterministic_for_seed():
    a = multinomial_sample(np.ones(20), 5, np.random.default_rng(99))
    b = multinomial_sample(np.ones(20), 5, np.random.default_rng(99))
    assert a == b


def test_multinomial_zero_weight_never_drawn():
    rng = np.random.default_rng(16)
    weights = np.ones(10)
    weights[4] = 0.0
    for _ in range(200):
        assert 4 not in multinomial_sample(weights, 3, rng)


def test_multinomial_uniformity_chi_square():
    rng = np.random.default_rng(17)
    counts = np.zeros(100)
    draws = 100_000
    for _ in range(draws):
        counts[multinomial_sample(np.ones(100), 1, rng)[0]] += 1
    expected = draws / 100
    sigma = np.sqrt(draws * 0.01 * 0.99)
    assert np.all(np.abs(counts - expected) <= 5 * sigma)
    _, p = chisquare(counts)
    assert p > 0.001


# ---------------------------------------------------------------------------
# determinism

def test_ops_bit_deterministic():
    def run():
        rng = np.random.default_rng(21)
        x = t64(rng.normal(size=(6, 6)), requires_grad=True)
        y = T.softmax(T.matmul(x, x), axis=1)
        backward(T.tsum(T.mul(y, y)))
        return y.data.copy(), x.grad.copy()

    y1, g1 = run()
    y2, g2 = run()
    assert np.array_equal(y1, y2)
    assert np.array_equal(g1, g2)
