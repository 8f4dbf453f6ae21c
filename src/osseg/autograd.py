"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors store flat 64-bit float data (as a numpy array) plus an optional
gradient buffer. Every differentiable operation records its parents and a
local backward rule on the output tensor; the resulting parent-link DAG is
the computation graph. Tensor creation order equals topological order, so
``backward`` replays the reachable nodes exactly once in reverse creation
order.

Constants (``requires_grad=False`` inputs with no differentiable parents)
produce outputs with no recorded rule, so inference-only passes build no
graph at all.

Correctness, not throughput, is the contract; convolution uses cached im2col
gather indices and upsampling fixed 2-tap slices, so that desk-scale training
stays fast enough.
"""

import functools
import itertools

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericError, ValidationError

# Additive-mask sentinel standing in for -inf; softmax treats anything at or
# below MASK_THRESHOLD as fully masked.
MASKED_SENTINEL = -1e30
MASK_THRESHOLD = -1e29

IGNORE_LABEL = 255

_creation_counter = itertools.count()


class Tensor:
    """A dense float64 array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_order")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None
        self._order = next(_creation_counter)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}{flag})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, backward_fn):
    """Wrap `data` as the output of an op; records the rule only if needed."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t, g):
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.array(g, dtype=np.float64)  # copy: g may alias a child's buffer
        else:
            t.grad += g


def backward(loss):
    """Populate gradients of everything `loss` depends on.

    `loss` must be a scalar (size-1) tensor. Nodes are visited exactly once,
    in reverse creation order, which by construction is a reverse
    topological order of the graph.
    """
    if loss.size != 1:
        raise DimensionError(f"backward expects a scalar loss, got shape {tuple(loss.shape)}")
    nodes = []
    seen = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen or t._backward_fn is None:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    nodes.sort(key=lambda t: t._order)
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    for t in reversed(nodes):
        t._backward_fn(t.grad)


def _unbroadcast(g, shape):
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _node(data, (a, b), bw)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def bw(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), bw)


def scale(a, s):
    a = _as_tensor(a)
    s = float(s)
    data = a.data * s

    def bw(g):
        _accumulate(a, g * s)

    return _node(data, (a,), bw)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {tuple(a.shape)} x {tuple(b.shape)}")
    data = a.data @ b.data

    def bw(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _node(data, (a, b), bw)


def transpose(a):
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError(f"transpose expects a 2-D tensor, got shape {tuple(a.shape)}")
    data = a.data.T.copy()

    def bw(g):
        _accumulate(a, g.T)

    return _node(data, (a,), bw)


def reshape(a, shape):
    a = _as_tensor(a)
    old_shape = a.shape
    data = a.data.reshape(shape)

    def bw(g):
        _accumulate(a, g.reshape(old_shape))

    return _node(data, (a,), bw)


def relu(a):
    a = _as_tensor(a)
    mask = a.data > 0
    data = np.where(mask, a.data, 0.0)

    def bw(g):
        _accumulate(a, g * mask)

    return _node(data, (a,), bw)


def softmax_lastdim(x):
    """Numerically stable softmax over the last dimension.

    Entries at or below MASK_THRESHOLD are treated as -inf and receive
    exactly zero weight. A slice whose entries are all masked yields the
    all-zeros slice instead of NaN, so that a downstream residual connection
    passes the corresponding token through unchanged.
    """
    x = _as_tensor(x)
    if np.isnan(x.data).any():
        raise NumericError("softmax input contains NaN")
    flat = x.data.reshape(-1, x.shape[-1])
    masked = flat <= MASK_THRESHOLD
    row_alive = ~masked.all(axis=1)
    live_vals = np.where(masked, -np.inf, flat)
    row_max = np.where(row_alive, live_vals.max(axis=1, initial=-np.inf), 0.0)
    e = np.exp(np.clip(flat - row_max[:, None], -745.0, 50.0))
    e[masked] = 0.0
    denom = e.sum(axis=1)
    denom[denom == 0.0] = 1.0
    out = (e / denom[:, None]).reshape(x.shape)

    def bw(g):
        y = out
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(x, y * (g - dot))

    return _node(out, (x,), bw)


def layernorm_lastdim(x, gamma, beta, eps=1e-5):
    """Layer normalization over the last dimension with affine parameters."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise DimensionError(
            f"layernorm affine shapes {tuple(gamma.shape)}/{tuple(beta.shape)} "
            f"do not match feature size {n}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    data = gamma.data * xhat + beta.data

    def bw(g):
        dxhat = g * gamma.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        _accumulate(x, dx)
        lead = tuple(range(g.ndim - 1))
        _accumulate(gamma, (g * xhat).sum(axis=lead))
        _accumulate(beta, g.sum(axis=lead))

    return _node(data, (x, gamma, beta), bw)


@functools.lru_cache(maxsize=32)
def _conv_indices(c_in, h, w, k, stride, pad):
    """im2col gather indices; the 32 most recent input shapes stay cached."""
    hp, wp = h + 2 * pad, w + 2 * pad
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    oy = np.arange(h_out) * stride
    ox = np.arange(w_out) * stride
    dy = np.arange(k)
    dx = np.arange(k)
    rows = (oy[:, None, None, None] + dy[None, None, :, None])  # h_out,1,k,1
    cols = (ox[None, :, None, None] + dx[None, None, None, :])  # 1,w_out,1,k
    spatial = rows * wp + cols  # h_out,w_out,k,k
    chan = np.arange(c_in) * (hp * wp)
    idx = spatial[:, :, None, :, :] + chan[None, None, :, None, None]
    idx = idx.reshape(h_out * w_out, c_in * k * k)
    return idx, h_out, w_out, hp, wp


def _im2col(arr, idx, pad, hp, wp):
    c = arr.shape[0]
    if pad:
        xp = np.zeros((c, hp, wp))
        xp[:, pad:pad + arr.shape[1], pad:pad + arr.shape[2]] = arr
    else:
        xp = arr
    return xp.reshape(-1)[idx]


def conv2d(x, w, stride=1, pad=0):
    """2-D cross-correlation with zero padding.

    x: (C_in, H, W); w: (C_out, C_in, k, k) with odd k, no larger than the
    padded input. Floor semantics, as in PyTorch: the output holds positions
    0, stride, 2*stride, ... of the stride-1 correlation, so its size is
    (H + 2*pad - k) // stride + 1 per axis.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise DimensionError(
            f"conv2d expects (C,H,W) and (C_out,C_in,k,k), got {tuple(x.shape)} and {tuple(w.shape)}"
        )
    c_in, h, wd = x.shape
    c_out, c_in_w, k, k2 = w.shape
    if c_in != c_in_w or k != k2:
        raise DimensionError(f"conv2d: weight shape {tuple(w.shape)} does not match input {tuple(x.shape)}")
    if k % 2 != 1:
        raise ConfigurationError(f"conv2d kernel size must be odd, got {k}")
    if k > h + 2 * pad or k > wd + 2 * pad:
        raise ConfigurationError(
            f"conv2d kernel {k}x{k} does not fit input {h}x{wd} padded by {pad}"
        )
    idx, h_out, w_out, hp, wp = _conv_indices(c_in, h, wd, k, stride, pad)
    cols = _im2col(x.data, idx, pad, hp, wp)
    w_mat = w.data.reshape(c_out, -1)
    out = (cols @ w_mat.T).T.reshape(c_out, h_out, w_out)

    def bw(g):
        g_mat = g.reshape(c_out, -1).T  # (h_out*w_out, c_out)
        if w.requires_grad:
            _accumulate(w, (g_mat.T @ cols).reshape(w.shape))
        if x.requires_grad:
            # Scatter-add each im2col entry's gradient back to its source.
            g_cols = g_mat @ w_mat  # (h_out*w_out, c_in*k*k)
            flat = np.bincount(
                idx.reshape(-1), weights=g_cols.reshape(-1), minlength=c_in * hp * wp
            )
            gx = flat.reshape(c_in, hp, wp)
            if pad:
                gx = gx[:, pad:pad + h, pad:pad + wd]
            _accumulate(x, gx)

    return _node(out, (x, w), bw)


def _up1d(arr, axis):
    """Double one axis with 2-tap bilinear weights (half-pixel alignment).

    Along the axis: out[2i] = 0.25*a[i-1] + 0.75*a[i] (clamped at i=0) and
    out[2i+1] = 0.75*a[i] + 0.25*a[i+1] (clamped at i=n-1).
    """
    a = np.swapaxes(arr, 0, axis)
    n = a.shape[0]
    out = np.empty((2 * n,) + a.shape[1:])
    even, odd = out[0::2], out[1::2]
    even[0] = a[0]
    even[1:] = 0.25 * a[:-1] + 0.75 * a[1:]
    odd[-1] = a[-1]
    odd[:-1] = 0.75 * a[:-1] + 0.25 * a[1:]
    return np.swapaxes(out, 0, axis)


def _up1d_transpose(grad, axis):
    """Adjoint of _up1d along the same axis."""
    g = np.swapaxes(grad, 0, axis)
    ge, go = g[0::2], g[1::2]
    n = ge.shape[0]
    out = np.zeros((n,) + g.shape[1:])
    out[0] += ge[0]
    out[1:] += 0.75 * ge[1:]
    out[:-1] += 0.25 * ge[1:]
    out[-1] += go[-1]
    out[:-1] += 0.75 * go[:-1]
    out[1:] += 0.25 * go[:-1]
    return np.swapaxes(out, 0, axis)


def bilinear_upsample2x(x):
    """Bilinear 2x upsampling of a (C, H, W) tensor."""
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise DimensionError(f"bilinear_upsample2x expects (C,H,W), got {tuple(x.shape)}")
    out = _up1d(_up1d(x.data, 1), 2)

    def bw(g):
        _accumulate(x, _up1d_transpose(_up1d_transpose(g, 2), 1))

    return _node(out, (x,), bw)


def cross_entropy_pixelwise(logits, label):
    """Mean cross-entropy over non-ignored pixels.

    logits: (N, H, W) tensor; label: (H, W) integer array with values in
    {0..N-1} or IGNORE_LABEL. Returns a scalar tensor; if every pixel is
    ignored the loss is 0 with zero gradient.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 3:
        raise DimensionError(f"cross_entropy expects (N,H,W) logits, got {tuple(logits.shape)}")
    n = logits.shape[0]
    lab = np.asarray(label)
    if lab.shape != logits.shape[1:]:
        raise DimensionError(
            f"label shape {lab.shape} does not match logits spatial shape {tuple(logits.shape[1:])}"
        )
    flat_lab = lab.reshape(-1).astype(np.int64)
    valid = flat_lab != IGNORE_LABEL
    if (flat_lab[valid] >= n).any() or (flat_lab[valid] < 0).any():
        bad = flat_lab[valid]
        bad = bad[(bad >= n) | (bad < 0)][0]
        raise ValidationError(f"label id {bad} out of range for {n} classes")
    count = int(valid.sum())
    flat = logits.data.reshape(n, -1)
    if count == 0:
        def bw_zero(g):
            pass
        return _node(np.zeros(()), (logits,), bw_zero)

    m = flat.max(axis=0)
    lse = m + np.log(np.exp(flat - m).sum(axis=0))
    pix = np.arange(flat.shape[1])
    safe_lab = np.where(valid, flat_lab, 0)
    nll = lse - flat[safe_lab, pix]
    loss = nll[valid].sum() / count

    def bw(g):
        p = np.exp(flat - lse)  # (N, P) softmax probabilities
        p[safe_lab, pix] -= 1.0
        p[:, ~valid] = 0.0
        _accumulate(logits, (float(g) / count) * p.reshape(logits.shape))

    return _node(np.asarray(loss), (logits,), bw)
