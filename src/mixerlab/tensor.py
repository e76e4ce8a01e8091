"""Minimal deterministic reverse-mode autodiff over numpy arrays.

Every operation records its parents and a closure computing parent
gradients; `backward` replays the closures in reverse creation order,
which is a valid topological order because inputs always exist before
the outputs built from them. Gradients are accumulated (summed), never
overwritten, and only leaf tensors retain a `.grad` after the pass.

Two precisions are supported: float32 for training (TRAIN32) and
float64 for invariant and finite-difference checks (CHECK64). All
tensors participating in one graph must share a dtype.
"""

import itertools
import threading
from contextlib import contextmanager

import numpy as np

TRAIN32 = np.float32
CHECK64 = np.float64

_PRECISIONS = {"train32": TRAIN32, "check64": CHECK64}

_NEG_BIG = 1e30  # additive mask constant; exp(-1e30 - anything sane) underflows to exactly 0

PINV_RCOND = 1e-10  # pinv zeroes singular values below PINV_RCOND * sigma_max

LN_EPS = 1e-5  # added to each row's variance by layer_norm and the three sublayer nodes

GRAD_CHECK_H = 1e-5  # grad_check's central-difference step

_creation_counter = itertools.count()

_local = threading.local()  # graphs are thread-confined; so is the grad switch


def _grad_on():
    return getattr(_local, "grad_enabled", True)


def dtype_for(mode):
    """Map a precision mode name ('train32' or 'check64') to a numpy dtype."""
    try:
        return _PRECISIONS[mode]
    except KeyError:
        raise ValueError(f"unknown precision mode {mode!r}, expected 'train32' or 'check64'")


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference / evaluation)."""
    prev = _grad_on()
    _local.grad_enabled = False
    try:
        yield
    finally:
        _local.grad_enabled = prev


class ShapeError(ValueError):
    pass


class GraphError(ValueError):
    pass


class Tensor:
    """N-d real array with optional gradient tracking.

    `data` is a row-major numpy array (float32 or float64), immutable by
    convention after creation; `grad` is a same-shape accumulator that
    appears after the first backward pass through this leaf.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_id")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._id = next(_creation_counter)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # operator sugar; second operands may be plain numbers
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_lift(other, self.dtype)))

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self):
        return transpose(self)


def _lift(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _check_same_dtype(*tensors):
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise GraphError(f"tensors in one graph must share a precision mode, got {sorted(map(str, dtypes))}")


def _make(data, parents, backward_fn):
    """Build an output tensor, attaching the graph node when grads are needed."""
    out = Tensor(data)
    if _grad_on() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(g, shape):
    """Sum gradient over axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise ops

def add(a, b):
    a = a if isinstance(a, Tensor) else _lift(a, b.dtype)
    b = _lift(b, a.dtype)
    _check_same_dtype(a, b)
    needs = (a.requires_grad, b.requires_grad)

    def backward(g):
        return (
            _unbroadcast(g, a.data.shape) if needs[0] else None,
            _unbroadcast(g, b.data.shape) if needs[1] else None,
        )

    return _make(a.data + b.data, (a, b), backward)


def mul(a, b):
    a = a if isinstance(a, Tensor) else _lift(a, b.dtype)
    b = _lift(b, a.dtype)
    _check_same_dtype(a, b)
    needs = (a.requires_grad, b.requires_grad)

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if needs[0] else None,
            _unbroadcast(g * a.data, b.data.shape) if needs[1] else None,
        )

    return _make(a.data * b.data, (a, b), backward)


def neg(a):
    return _make(-a.data, (a,), lambda g: (-g,))


def div(a, b):
    a = a if isinstance(a, Tensor) else _lift(a, b.dtype)
    b = _lift(b, a.dtype)
    _check_same_dtype(a, b)
    needs = (a.requires_grad, b.requires_grad)

    def backward(g):
        ga = _unbroadcast(g / b.data, a.data.shape) if needs[0] else None
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape) if needs[1] else None
        return ga, gb

    return _make(a.data / b.data, (a, b), backward)


def exp(a):
    out_data = np.exp(a.data)
    return _make(out_data, (a,), lambda g: (g * out_data,))


def log(a):
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a):
    out_data = np.sqrt(a.data)
    return _make(out_data, (a,), lambda g: (g * (0.5 / out_data),))


def absval(a):
    return _make(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


# Odd rational approximation erf(z) ~ z * P(z^2) / Q(z^2) on [-4, 4], the
# float32 erf of Eigen (generic_fast_erf_float) and XLA; highest power first.
_ERF_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
    -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02,
))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03, -7.37332916720468e-03,
    -1.42647390514189e-02,
))


def _horner32(z2, coeffs, out):
    np.multiply(z2, coeffs[0], out=out)
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= z2
        out += c
    return out


def _erf_f32(z, out):
    """float32 erf of `z` into `out` (which may be `z`), with two temporaries.

    `z` is clamped to [-4, 4], where erf(4) already rounds to 1 in float32,
    so the result is exactly +-1 beyond it and NaN stays NaN. Within 4.5e-7
    of the exact erf; numpy's SIMD loops run it about 5x faster than
    scipy.special.erf, whose float32 loop costs as much as its float64 one.
    """
    np.clip(z, -4.0, 4.0, out=out)
    z2 = out * out
    p = _horner32(z2, _ERF_P, np.empty_like(z2))
    p *= out
    q = _horner32(z2, _ERF_Q, out)  # the clamped argument is spent; its buffer takes Q
    return np.divide(p, q, out=out)


def _gelu_phi(x):
    """0.5 * (1 + erf(x * sqrt(1/2))), GELU's gate, in x's dtype: GELU(x) is x * phi."""
    phi = x * x.dtype.type(np.sqrt(0.5))
    if x.dtype == np.float32:
        _erf_f32(phi, out=phi)
    else:
        from scipy.special import erf

        erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    return phi


def _gelu_grad(x, phi, g):
    """g * GELU'(x), with phi = `_gelu_phi(x)`; allocates only its output."""
    d = x * x
    d *= -0.5
    np.exp(d, out=d)
    d *= x.dtype.type(1.0 / np.sqrt(2.0 * np.pi))
    d *= x
    d += phi
    d *= g
    return d


def gelu(a):
    """Gaussian-error-linear unit, erf form: x * 0.5 * (1 + erf(x * sqrt(1/2))).

    float64 inputs use the exact scipy.special.erf, imported on first use
    so that a float32-only run never loads scipy; float32 inputs use
    `_erf_f32`. Every constant is cast to x's dtype, so a float32 input
    stays float32 in both passes (a float64 scalar would promote the
    backward's arrays to float64), and the arithmetic runs in place: the
    forward allocates only phi and its output (plus `_erf_f32`'s
    temporaries), the backward only its output.
    """
    x = a.data
    phi = _gelu_phi(x)
    return _make(x * phi, (a,), lambda g: (_gelu_grad(x, phi, g),))


# ---------------------------------------------------------------------------
# reductions

def tsum(a, axis=None, keepdims=False):
    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), backward)


def mean(a, axis=None, keepdims=False):
    if axis is None:
        n = a.data.size
    else:
        n = int(np.prod([a.data.shape[i] for i in np.atleast_1d(axis)]))
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def l1_distance(a, b):
    """Sum of absolute differences, the metric driving inversion."""
    return tsum(absval(a - b))


# ---------------------------------------------------------------------------
# shape ops

def matmul(a, b):
    """Matrix product over the last two axes; leading (batch) axes broadcast.

    A 2-D right operand (every weight matrix) is applied to all rows of `a`
    as one flat product: at batch 16 x 22 tokens that forward plus both
    gradients is about 1.7x faster than numpy's stacked product, whose
    right-operand gradient also needs a per-sequence sum. The input
    gradient of that product is computed as g @ y.T when the flat input has
    at least as many rows as y, and as (y @ g.T).T when it has fewer: for
    one 32-token sequence through a d256 model the second orientation runs
    1.3-1.8x faster in single-thread sgemm, for hundreds of rows the first.
    """
    _check_same_dtype(a, b)
    x, y = a.data, b.data
    try:
        if x.ndim < 2 or y.ndim < 2 or x.shape[-1] != y.shape[-2]:
            raise ValueError
        np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul shape mismatch: {x.shape} @ {y.shape}") from None
    needs = (a.requires_grad, b.requires_grad)

    if y.ndim == 2:
        rows = x.reshape(-1, x.shape[-1])

        def backward(g):
            g2 = g.reshape(-1, y.shape[1])
            ga = gb = None
            if needs[0]:
                ga = _flat_input_grad(g2, y, x.shape)
            if needs[1]:
                gb = rows.T @ g2
            return ga, gb

        return _make((rows @ y).reshape(x.shape[:-1] + y.shape[1:]), (a, b), backward)

    def backward(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(y, -1, -2)), x.shape) if needs[0] else None
        gb = _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), y.shape) if needs[1] else None
        return ga, gb

    return _make(np.matmul(x, y), (a, b), backward)


def _flat_input_grad(g2, y, shape):
    """g2 @ y.T reshaped to `shape`: the input gradient of a flat product rows @ y (see `matmul`)."""
    return (g2 @ y.T if len(g2) >= len(y) else (y @ g2.T).T).reshape(shape)


def swapaxes(a, axis1, axis2):
    """Exchange two axes; the result is a contiguous copy."""
    ndim = a.data.ndim
    if not (-ndim <= axis1 < ndim and -ndim <= axis2 < ndim):
        raise ShapeError(f"cannot swap axes {axis1} and {axis2} of shape {a.data.shape}")
    return _make(
        np.ascontiguousarray(np.swapaxes(a.data, axis1, axis2)),
        (a,),
        lambda g: (np.ascontiguousarray(np.swapaxes(g, axis1, axis2)),),
    )


def transpose(a):
    """Swap the last two axes."""
    return swapaxes(a, -1, -2)


def reshape(a, shape):
    old = a.data.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def narrow(a, axis, start, length):
    """Slice `length` entries from `start` along `axis`."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[idx] = g
        return (ga,)

    return _make(a.data[idx].copy(), (a,), backward)


def take_rows(a, idx):
    """Rows `idx` of `a` flattened over its leading axes, as idx.shape + (d,).

    One node gathers, drops and repeats rows of a (..., d) tensor. The
    backward adds each output row's gradient into its source row with one
    unbuffered add in index order, so rows that share a source sum their
    gradients in a fixed order. As in `embedding_lookup`, the add runs over
    flat element indices: about 3.5x faster than adding whole rows.
    """
    idx = np.asarray(idx, dtype=np.int64)
    d = a.data.shape[-1]
    flat = a.data.reshape(-1, d)
    if idx.min(initial=0) < 0 or (idx.size and idx.max() >= len(flat)):
        raise ValueError(f"row index out of range for {len(flat)} rows")

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga.reshape(-1), (idx.reshape(-1, 1) * d + np.arange(d)).reshape(-1), g.reshape(-1))
        return (ga,)

    return _make(flat[idx], (a,), backward)


def concat(tensors, axis):
    _check_same_dtype(*tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    needs = [t.requires_grad for t in tensors]

    def backward(g):
        out = []
        for i, t in enumerate(tensors):
            if not needs[i]:
                out.append(None)
                continue
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offsets[i], offsets[i + 1])
            out.append(g[tuple(idx)].copy())
        return tuple(out)

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def shift(a, axis, offset):
    """Shift entries by `offset` along `axis`, filling vacated slots with zeros.

    Positive offset moves content toward higher indices.
    """
    n = a.data.shape[axis]
    k = abs(offset)
    if k >= n:
        return _make(np.zeros_like(a.data), (a,), lambda g: (np.zeros_like(a.data),))

    def sl(start, stop):
        idx = [slice(None)] * a.data.ndim
        idx[axis] = slice(start, stop)
        return tuple(idx)

    if offset > 0:
        dst, src = sl(k, n), sl(0, n - k)
    else:
        dst, src = sl(0, n - k), sl(k, n)

    out_data = np.zeros_like(a.data)
    out_data[dst] = a.data[src]

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[src] = g[dst]
        return (ga,)

    return _make(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# neural-net ops

def softmax(a, axis=-1):
    """Numerically stable softmax; rows along `axis` sum to 1."""
    x = a.data
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / np.sum(e, axis=axis, keepdims=True)

    def backward(g):
        dot = np.sum(g * out_data, axis=axis, keepdims=True)
        return ((g - dot) * out_data,)

    return _make(out_data, (a,), backward)


def _row_mean(a):
    """Mean over the last axis, keeping it: the same bits as `a.mean(axis=-1, keepdims=True)`.

    `mean` divides the sum by an integer count in float64 and rounds the
    quotient back to a's dtype; a float32 quotient rounded once more
    through float64 is the correctly rounded float32 quotient, so dividing
    in a's dtype gives the same bits without the float64 detour.
    """
    s = np.add.reduce(a, axis=-1, keepdims=True)
    s /= a.shape[-1]
    return s


def _layer_norm_fwd(x, gain, bias):
    """(output, xhat, 1/sigma) of layer_norm on arrays; allocates only those and the row means."""
    xhat = x - _row_mean(x)
    out = np.multiply(xhat, xhat)
    inv = _row_mean(out)
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain, out=out)
    out += bias
    return out, xhat, inv


def _layer_norm_grads(g, gain, bias, xhat, inv, needs):
    """Gradients of layer_norm's (x, gain, bias) from its output gradient g; None where not `needs`."""
    gx = None
    if needs[0]:
        # one expression, not in-place steps: g is F-ordered after some
        # matmul backwards, and gx keeps the memory order this gives it,
        # on which the row sums of later `_unbroadcast` calls depend
        gh = g * gain.data
        gx = inv * (gh - _row_mean(gh) - xhat * _row_mean(gh * xhat))
    return (
        gx,
        _unbroadcast(g * xhat, gain.data.shape) if needs[1] else None,
        _unbroadcast(g, bias.data.shape) if needs[2] else None,
    )


def layer_norm(x, gain, bias):
    """Per-row normalization over the last axis with learned gain and bias.

    One graph node: the backward is the closed form of the normalization's
    Jacobian, dx = (g' - mean(g') - xhat * mean(g' * xhat)) / sigma with
    g' = g * gain, instead of a chain of elementwise nodes. The forward
    allocates only the centered rows (which become xhat), one scratch
    array (which becomes the output) and the per-row statistics.
    """
    _check_same_dtype(x, gain, bias)
    out, xhat, inv = _layer_norm_fwd(x.data, gain.data, bias.data)
    needs = (x.requires_grad, gain.requires_grad, bias.requires_grad)
    return _make(out, (x, gain, bias), lambda g: _layer_norm_grads(g, gain, bias, xhat, inv, needs))


def feed_forward(x, gain, bias, w1, b1, w2, b2):
    """Pre-norm feed-forward sublayer with its residual, as one graph node.

    x + (gelu(layer_norm(x, gain, bias) @ w1 + b1) @ w2 + b2), for x of
    shape (..., S, d), w1 (d, h) and w2 (h, d). Both passes run the kernels
    of the seven-node chain `layer_norm`, `matmul`, `add`, `gelu`,
    `matmul`, `add`, `add` in its order, with the adds in place, so the
    output and every gradient keep the chain's bits. The x gradient is the
    residual's g plus the norm's: `backward` sums the chain's two flows
    into x in that order.
    """
    _check_same_dtype(x, gain, bias, w1, b1, w2, b2)
    d, hidden = x.data.shape[-1], w1.data.shape[-1]
    if (w1.data.shape, b1.data.shape, w2.data.shape, b2.data.shape) != ((d, hidden), (hidden,), (hidden, d), (d,)):
        raise ShapeError(
            f"feed_forward shapes do not chain: x {x.data.shape}, w1 {w1.data.shape}, b1 {b1.data.shape}, "
            f"w2 {w2.data.shape}, b2 {b2.data.shape}"
        )
    h, xhat, inv = _layer_norm_fwd(x.data, gain.data, bias.data)
    rows = h.reshape(-1, d)
    z = (rows @ w1.data).reshape(x.data.shape[:-1] + (hidden,))
    z += b1.data
    phi = _gelu_phi(z)
    u = (z * phi).reshape(-1, hidden)
    out = (u @ w2.data).reshape(x.data.shape)
    out += b2.data
    out += x.data
    needs = tuple(t.requires_grad for t in (x, gain, bias, w1, b1, w2, b2))

    def backward(g):
        g2 = g.reshape(-1, d)
        gx = ggain = gbias = gw1 = gb1 = None
        if any(needs[:5]):
            dz = _gelu_grad(z, phi, _flat_input_grad(g2, w2.data, z.shape))
            dz2 = dz.reshape(-1, hidden)
            gb1 = _unbroadcast(dz, b1.data.shape) if needs[4] else None
            gw1 = rows.T @ dz2 if needs[3] else None
            if any(needs[:3]):
                gh = _flat_input_grad(dz2, w1.data, h.shape)
                gx, ggain, gbias = _layer_norm_grads(gh, gain, bias, xhat, inv, needs)
                if needs[0]:
                    gx = g + gx
        return (
            gx, ggain, gbias, gw1, gb1,
            u.T @ g2 if needs[5] else None,
            _unbroadcast(g, b2.data.shape) if needs[6] else None,
        )

    return _make(out, (x, gain, bias, w1, b1, w2, b2), backward)


def _attention_fwd(qd, kd, allowed):
    """(weights, k^T, scale) of `attention` on arrays; the output is weights @ v."""
    kt = np.ascontiguousarray(np.swapaxes(kd, -1, -2))
    scale = qd.dtype.type(1.0 / np.sqrt(qd.shape[-1]))
    att = np.matmul(qd, kt)
    att *= scale
    np.copyto(att, qd.dtype.type(-_NEG_BIG), where=np.asarray(allowed) == 0)
    att -= np.max(att, axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= np.sum(att, axis=-1, keepdims=True)
    return att, kt, scale


def _attention_grads(g, att, qd, kt, vd, scale, needs):
    """Gradients of attention's (q, k, v) from its output gradient g; None where not `needs`."""
    gv = np.matmul(np.swapaxes(att, -1, -2), g) if needs[2] else None
    gq = gk = None
    if needs[0] or needs[1]:
        # a disallowed key has att == +0, so its score gradient is already
        # the +-0 that multiplying by the 0/1 mask would give
        gs = np.matmul(g, np.swapaxes(vd, -1, -2))
        gs -= np.sum(gs * att, axis=-1, keepdims=True)
        gs *= att
        gs *= scale
        if needs[0]:
            gq = np.matmul(gs, np.swapaxes(kt, -1, -2))
        if needs[1]:
            gk = np.ascontiguousarray(np.swapaxes(np.matmul(np.swapaxes(qd, -1, -2), gs), -1, -2))
    return gq, gk, gv


def attention(q, k, v, allowed):
    """Scaled dot-product attention over the allowed keys, as one graph node.

    q, k and v are (..., S, d); `allowed` is a 0/1 array that broadcasts
    against the (..., S, S) scores, 1 where query i may read key j. Each
    query's weights are the softmax of q k^T / sqrt(d) over its allowed
    keys, and the output is those weights times v. A disallowed score is
    set to -_NEG_BIG, whose exp underflows to exactly 0, so a key a query
    cannot see gets weight 0 and its k and v rows get exactly 0 gradient
    from that query.

    The arithmetic is that of the elementwise chain scale, mask, fill and
    `softmax` with the same products, so both passes give its bits.
    """
    _check_same_dtype(q, k, v)
    qd, vd = q.data, v.data
    att, kt, scale = _attention_fwd(qd, k.data, allowed)
    needs = (q.requires_grad, k.requires_grad, v.requires_grad)
    return _make(np.matmul(att, vd), (q, k, v), lambda g: _attention_grads(g, att, qd, kt, vd, scale, needs))


def _rotate_half(x):
    """(-x2, x1) for x = (x1, x2), the two halves of the last axis."""
    half = x.shape[-1] // 2
    return np.concatenate([-x[..., half:], x[..., :half]], axis=-1)


def _rope_fwd(x, cos, sin):
    out = x * cos
    out += _rotate_half(x) * sin
    return out


def _rope_grad(g, cos, sin):
    # the rotation's transpose is its negative
    return g * cos - _rotate_half(g * sin)


def rope(x, cos, sin):
    """Rotary position embedding: x * cos + rotate_half(x) * sin, as one graph node.

    x is (..., S, d) with d even; cos and sin are (S, d) arrays whose two
    column halves repeat the per-pair angles, and rotate_half(x) is
    (-x2, x1) for x = (x1, x2). The half swap is a slice, not a product
    with a signed permutation matrix, which gives the same bits: each
    output of that product is one +-1 term plus exact zeros.
    """
    return _make(_rope_fwd(x.data, cos, sin), (x,), lambda g: (_rope_grad(g, cos, sin),))


def attention_sublayer(x, gain, bias, wq, wk, wv, wo, allowed, cos, sin, n_heads):
    """Pre-norm multi-head attention sublayer with its residual, as one graph node.

    x + merge(attention(rope(q), rope(k), v)) @ wo, where q, k and v are
    layer_norm(x, gain, bias) times wq, wk and wv (each (d, d)), split into
    `n_heads` heads of width d / n_heads on a head axis before the sequence
    axis, and merge puts the heads back side by side. x is (..., S, d);
    `allowed` broadcasts against one sequence's (..., S, S) scores and is
    shared by its heads; cos and sin are `rope`'s (S, d / n_heads) tables.

    Both passes run the kernels of the chain `layer_norm`, three `matmul`s
    with `reshape` and `swapaxes`, two `rope`s, `attention`, `swapaxes`,
    `reshape`, `matmul` and the residual `add`, in its order and on arrays
    of its memory layouts, so the output and every gradient keep the
    chain's bits. The normed input's gradient sums the v, k and q flows in
    the order the chain's backward pass does.
    """
    _check_same_dtype(x, gain, bias, wq, wk, wv, wo)
    shape = x.data.shape
    d = shape[-1]
    if d % n_heads or any(w.data.shape != (d, d) for w in (wq, wk, wv, wo)):
        raise ShapeError(
            f"attention_sublayer shapes do not chain: x {shape}, {n_heads} heads, "
            f"wq {wq.data.shape}, wk {wk.data.shape}, wv {wv.data.shape}, wo {wo.data.shape}"
        )
    heads_shape = shape[:-1] + (n_heads, d // n_heads)  # (..., S, H, d_head)
    h, xhat, inv = _layer_norm_fwd(x.data, gain.data, bias.data)
    rows = h.reshape(-1, d)

    def split(w):
        return np.ascontiguousarray(np.swapaxes((rows @ w.data).reshape(heads_shape), -3, -2))

    q, k, v = _rope_fwd(split(wq), cos, sin), _rope_fwd(split(wk), cos, sin), split(wv)
    att, kt, scale = _attention_fwd(q, k, np.asarray(allowed)[..., None, :, :])
    merged = np.ascontiguousarray(np.swapaxes(np.matmul(att, v), -3, -2)).reshape(-1, d)
    out = (merged @ wo.data).reshape(shape)
    out += x.data
    needs = tuple(t.requires_grad for t in (x, gain, bias, wq, wk, wv, wo))

    def backward(g):
        g2 = g.reshape(-1, d)
        gx = ggain = gbias = gwq = gwk = gwv = None
        if any(needs[:6]):
            gm = _flat_input_grad(g2, wo.data, shape).reshape(heads_shape)
            gq, gk, gv = _attention_grads(
                np.ascontiguousarray(np.swapaxes(gm, -3, -2)), att, q, kt, v, scale, (True, True, True)
            )

            def unsplit(gp, w, need_w):
                """(normed-input gradient, weight gradient) of one split projection."""
                gp2 = np.ascontiguousarray(np.swapaxes(gp, -3, -2)).reshape(-1, d)
                return _flat_input_grad(gp2, w.data, shape), (rows.T @ gp2 if need_w else None)

            ghv, gwv = unsplit(gv, wv, needs[5])
            ghk, gwk = unsplit(_rope_grad(gk, cos, sin), wk, needs[4])
            ghq, gwq = unsplit(_rope_grad(gq, cos, sin), wq, needs[3])
            if any(needs[:3]):
                gx, ggain, gbias = _layer_norm_grads(ghv + ghk + ghq, gain, bias, xhat, inv, needs)
                if needs[0]:
                    gx = g + gx
        return gx, ggain, gbias, gwq, gwk, gwv, merged.T @ g2 if needs[6] else None

    return _make(out, (x, gain, bias, wq, wk, wv, wo), backward)


def embedding_lookup(wte, ids):
    """Embedding rows for integer token ids of any shape.

    wte has shape (d_model, vocab); ids of shape (..., S) give (..., S, d_model).
    The backward scatters each row of the output gradient into its id's
    column with one unbuffered add over flat indices c * vocab + id of the
    C-ordered (d_model, vocab) gradient, so repeated ids add up in the
    order of the rows.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim == 0:
        raise ShapeError("embedding ids must have at least one axis, got a scalar")
    d, vocab = wte.data.shape
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= vocab):
        raise ValueError(f"token id out of range for vocab {vocab}")
    out_data = wte.data.T[ids]

    def backward(g):
        gw = np.zeros_like(wte.data)
        flat = ids.reshape(-1, 1) + np.arange(0, d * vocab, vocab)
        np.add.at(gw.reshape(-1), flat.reshape(-1), g.reshape(-1))
        return (gw,)

    return _make(out_data, (wte,), backward)


def cross_entropy(logits, targets, ignore_id=None, reduction="mean"):
    """Negative log-likelihood of `targets` under row-softmax of `logits`.

    Positions whose target equals `ignore_id` contribute nothing; if every
    position is ignored the loss is undefined and an error is raised.
    """
    targets = np.asarray(targets, dtype=np.int64)
    n, v = logits.data.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} does not match logits rows {n}")
    keep = np.ones(n, dtype=bool) if ignore_id is None else targets != ignore_id
    count = int(keep.sum())
    if count == 0:
        raise ValueError("empty loss: every target position is ignored")
    bad = targets[keep]
    if bad.min() < 0 or bad.max() >= v:
        raise ValueError(f"target id out of range for vocab {v}")

    x = logits.data
    shifted = x - np.max(x, axis=1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(shifted), axis=1))
    logp = shifted[np.arange(n), targets.clip(0, v - 1)] - logsumexp
    total = -np.sum(logp[keep])
    scale = 1.0 / count if reduction == "mean" else 1.0

    def backward(g):
        probs = np.exp(shifted - logsumexp[:, None])
        probs[np.arange(n), targets.clip(0, v - 1)] -= 1.0
        probs[~keep] = 0.0
        return ((g * scale) * probs.astype(x.dtype, copy=False),)

    return _make(np.asarray(total * scale, dtype=x.dtype), (logits,), backward)


def masked_conv1d(x, w, mask):
    """Causal token mixing: out[i] sums masked contributions of rows j of x.

    x is (..., seq, d); w is (out_seq, in_seq, k); mask is a 0/1 array over
    (out_seq, in_seq) multiplied into the weights inside the forward pass,
    so masked taps provably receive zero gradient. Tap t reads the channel
    axis shifted right by t ("same"-style left padding). All taps run as
    one contraction: the taps' weights sit side by side in an
    (out_seq, k * in_seq) matrix that multiplies the k shifted copies of x
    stacked along the sequence axis.
    """
    _check_same_dtype(x, w)
    out, flat_w, taps, m = _conv_fwd(x.data, w.data, mask)
    needs = (x.requires_grad, w.requires_grad)
    return _make(out, (x, w), lambda g: _conv_grads(g, flat_w, taps, m, needs))


def _conv_fwd(x, w, mask):
    """(output, flat masked weights, stacked taps, 3-D mask) of masked_conv1d on arrays."""
    seq, d = x.shape[-2:]
    out_seq, in_seq, k = w.shape
    if in_seq != seq:
        raise ShapeError(f"conv weight in-dim {in_seq} does not match sequence {seq}")
    if k < 1 or k > seq:
        raise ValueError(f"kernel size {k} must lie in [1, seq={seq}]")
    if mask.shape != (out_seq, in_seq):
        raise ShapeError(f"mask shape {mask.shape} does not match weights {(out_seq, in_seq)}")
    m = np.asarray(mask, dtype=w.dtype)[:, :, None]
    flat_w = (w * m).transpose(0, 2, 1).reshape(out_seq, k * in_seq)
    if k == 1:
        taps = x
    else:
        lead = x.shape[:-2]
        taps = np.zeros(lead + (k, seq, d), dtype=x.dtype)
        for t in range(min(k, d)):  # a tap shifted by d or more reads only padding
            taps[..., t, :, t:] = x[..., :, : d - t]
        taps = taps.reshape(lead + (k * seq, d))
    return np.matmul(flat_w, taps), flat_w, taps, m


def _conv_grads(g, flat_w, taps, m, needs):
    """Gradients of masked_conv1d's (x, w) from its output gradient g; None where not `needs`."""
    out_seq, in_seq = m.shape[:2]
    k = flat_w.shape[1] // in_seq
    lead, d = taps.shape[:-2], taps.shape[-1]
    gx = gw = None
    if needs[0]:
        g_taps = np.matmul(flat_w.T, g).reshape(lead + (k, in_seq, d))
        gx = g_taps[..., 0, :, :] if k == 1 else g_taps[..., 0, :, :].copy()
        for t in range(1, min(k, d)):
            gx[..., :, : d - t] += g_taps[..., t, :, t:]
    if needs[1]:
        batch = tuple(range(len(lead)))
        g_flat = np.tensordot(g, taps, axes=(batch + (g.ndim - 1,), batch + (taps.ndim - 1,)))
        gw = g_flat.reshape(out_seq, k, in_seq).transpose(0, 2, 1) * m
    return gx, gw


def conv_sublayer(x, gain, bias, w, mask):
    """Pre-norm masked-convolution sublayer with its residual, as one graph node.

    x + masked_conv1d(layer_norm(x, gain, bias), w, mask), for x of shape
    (..., S, d) and w and mask as in `masked_conv1d`. Both passes run the
    kernels of the three-node chain `layer_norm`, `masked_conv1d`, `add`
    in its order, so the output and every gradient keep the chain's bits;
    the x gradient is the residual's g plus the norm's, summed in the
    chain's order.
    """
    _check_same_dtype(x, gain, bias, w)
    h, xhat, inv = _layer_norm_fwd(x.data, gain.data, bias.data)
    out, flat_w, taps, m = _conv_fwd(h, w.data, mask)
    out += x.data
    needs = (x.requires_grad, gain.requires_grad, bias.requires_grad, w.requires_grad)

    def backward(g):
        gx = ggain = gbias = None
        gh, gw = _conv_grads(g, flat_w, taps, m, (any(needs[:3]), needs[3]))
        if gh is not None:
            gx, ggain, gbias = _layer_norm_grads(gh, gain, bias, xhat, inv, needs)
            if needs[0]:
                gx = g + gx
        return gx, ggain, gbias, gw

    return _make(out, (x, gain, bias, w), backward)


def softmax_conv_weights(w, mask):
    """Softmax conv weights per output row over the unmasked (source, tap) slots.

    Returns effective weights: non-negative, each row summing to 1 across
    its unmasked entries, zeros elsewhere.
    """
    out_seq, in_seq, k = w.data.shape
    m3 = Tensor(np.asarray(mask, dtype=w.dtype).reshape(out_seq, in_seq, 1))
    stable = exp(add(w, _lift(-float(np.max(w.data)), w.dtype)))
    masked = mul(stable, m3)
    denom = tsum(masked, axis=(1, 2), keepdims=True)
    return div(masked, denom)


# ---------------------------------------------------------------------------
# backward pass

def backward(loss):
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf of the graph.

    Traverses exactly the reverse creation order of reachable nodes.
    Repeated calls keep accumulating into leaves until their `grad` is
    set back to None.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._backward is None and not loss.requires_grad:
        return

    nodes = []
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            nodes.append(node)
            stack.extend(node._parents)
    nodes.sort(key=lambda n: n._id, reverse=True)

    flows = {id(loss): np.ones_like(loss.data)}
    for node in nodes:
        g = flows.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None:
                continue
            if parent._backward is None:
                if parent.requires_grad:
                    parent.grad = pg.copy() if parent.grad is None else parent.grad + pg
            else:
                prev = flows.get(id(parent))
                flows[id(parent)] = pg if prev is None else prev + pg
    if loss._backward is None and loss.requires_grad:
        loss.grad = flows[id(loss)] if loss.grad is None else loss.grad + flows[id(loss)]


# ---------------------------------------------------------------------------
# validation harness

def grad_check(f, x):
    """Max relative error between analytic and central-difference gradients.

    `f` maps a Tensor to a scalar Tensor; `x` must be float64 (check64).
    """
    if x.data.dtype != np.float64:
        raise GraphError("grad_check requires check64 (float64) tensors")
    x.grad = None
    loss = f(x)
    backward(loss)
    analytic = x.grad if x.grad is not None else np.zeros_like(x.data)

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + GRAD_CHECK_H
        with no_grad():
            up = f(x).item()
        flat[i] = orig - GRAD_CHECK_H
        with no_grad():
            down = f(x).item()
        flat[i] = orig
        num_flat[i] = (up - down) / (2.0 * GRAD_CHECK_H)

    denom = np.abs(analytic) + np.abs(numeric) + 1e-12
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# linear algebra and sampling utilities (no graph participation)

def pinv(w):
    """Moore-Penrose pseudoinverse of an array via SVD with singular-value cutoff.

    Singular values below PINV_RCOND * sigma_max are zeroed, which realizes the
    ridge-regularized inverse in its zero-regularization limit while staying
    rank-deficiency safe.
    """
    u, s, vt = np.linalg.svd(np.asarray(w), full_matrices=False)
    cutoff = PINV_RCOND * (s.max() if s.size else 0.0)
    inv_s = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (vt.T * inv_s) @ u.T


def multinomial_sample(weights, count, rng):
    """Sample `count` distinct indices proportional to non-negative weights.

    Zero-weight indices never appear; raises if fewer than `count` strictly
    positive weights exist. Deterministic for a fixed generator state.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0):
        raise ValueError("multinomial weights must be non-negative")
    positive = int((weights > 0).sum())
    if positive < count:
        raise ValueError(f"need {count} strictly positive weights, have {positive}")
    probs = weights / weights.sum()
    return rng.choice(weights.size, size=count, replace=False, p=probs).tolist()
