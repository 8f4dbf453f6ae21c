"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors store flat 64-bit float data (as a numpy array) plus an optional
gradient buffer. Every differentiable operation records its parents and a
local backward rule on the output tensor; the resulting parent-link DAG is
the computation graph. Tensor creation order equals topological order, so
``backward`` replays the reachable nodes exactly once in reverse creation
order. Constants (``requires_grad=False`` inputs with no differentiable
parents) produce outputs with no recorded rule, so inference-only passes
build no graph at all.

Correctness, not throughput, is the contract. Still, desk-scale training
is bound by per-op Python overhead, so the network's layers are fused ops
of one node each: `conv2d` adds its bias and applies its ReLU,
`block_attention` is an attention sublayer with its four projections,
`layernorm_lastdim` adds the residual it normalises, `ffn` is the
feed-forward sublayer and `block_logits` a block's class-pixel product
with its 2x upsample. A full train step's graph has 63 nodes.
"""

import ctypes
import functools
import itertools
import sys

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericError, ValidationError

# A training step frees its graph (megabytes) and the next allocates it again; glibc
# would hand it back to the kernel and page-fault it in anew, ~500 faults a step at a
# cost that swings with the machine's load. Keep 1 GiB free heap; mmap only >= 32 MiB.
if sys.platform.startswith("linux") and hasattr(_libc := ctypes.CDLL(None), "mallopt"):
    _libc.mallopt(-1, 1 << 30), _libc.mallopt(-3, 32 << 20)  # M_TRIM/M_MMAP_THRESHOLD

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
    for p in parents:
        if p.requires_grad:
            out.requires_grad, out._parents, out._backward_fn = True, tuple(parents), backward_fn
            break
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


def concat_rows(parts):
    """Stack tensors along rows (an exact copy): a 2-D part as it is, a (C, H, W)
    part as its H*W pixels' channel vectors, in pixel order.

    Each part's gradient is its row slice of the output's. A single 2-D part
    is returned as is.
    """
    parts = [_as_tensor(p) for p in parts]
    rows = [p.data.reshape(p.shape[0], -1).T if p.data.ndim == 3 else p.data for p in parts]
    if not parts or any(r.ndim != 2 or r.shape[1] != rows[0].shape[1] for r in rows):
        raise DimensionError(f"concat_rows: incompatible shapes {[tuple(p.shape) for p in parts]}")
    if len(parts) == 1 and parts[0].data.ndim == 2:
        return parts[0]
    data = np.concatenate(rows, axis=0)
    bounds = list(itertools.accumulate([0] + [len(r) for r in rows]))

    def bw(g):
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            _accumulate(p, g[lo:hi] if p.data.ndim == 2 else g[lo:hi].T.reshape(p.shape))

    return _node(data, parts, bw)


def relu(a):
    a = _as_tensor(a)
    mask = a.data > 0
    data = np.where(mask, a.data, 0.0)

    def bw(g):
        _accumulate(a, g * mask)

    return _node(data, (a,), bw)


def _masked_softmax(x):
    """Softmax over the last axis of the array `x` (the rules of `softmax_lastdim`)."""
    if (x > MASK_THRESHOLD).all():  # no mask and no NaN: the same values, in fewer passes
        e = x - x.max(axis=-1, keepdims=True)
        np.maximum(e, -745.0, out=e)  # e <= 0: the clip's upper bound of 50 holds
        np.exp(e, out=e)
        e /= e.sum(axis=-1, keepdims=True)
        return e
    if np.isnan(x).any():
        raise NumericError("softmax input contains NaN")
    masked = x <= MASK_THRESHOLD
    row_alive = ~masked.all(axis=-1, keepdims=True)
    live_vals = np.where(masked, -np.inf, x)
    row_max = np.where(row_alive, live_vals.max(axis=-1, initial=-np.inf, keepdims=True), 0.0)
    e = np.exp(np.clip(x - row_max, -745.0, 50.0))
    e[masked] = 0.0
    denom = e.sum(axis=-1, keepdims=True)
    denom[denom == 0.0] = 1.0
    return e / denom


def _softmax_backward(y, g):
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax_lastdim(x):
    """Numerically stable softmax over the last dimension.

    Entries at or below MASK_THRESHOLD are treated as -inf and receive
    exactly zero weight. A slice whose entries are all masked yields the
    all-zeros slice instead of NaN, so that a downstream residual connection
    passes the corresponding token through unchanged.
    """
    x = _as_tensor(x)
    out = _masked_softmax(x.data)

    def bw(g):
        _accumulate(x, _softmax_backward(out, g))

    return _node(out, (x,), bw)


def _split_heads(a, heads):
    """(B, rows, heads*d) -> (B*heads, rows, d): each block's channel groups as blocks."""
    if heads == 1:
        return a
    b, rows, c = a.shape
    return a.reshape(b, rows, heads, c // heads).transpose(0, 2, 1, 3).reshape(b * heads, rows, -1)


def _join_heads(a, heads):
    """The inverse of `_split_heads`: (B*heads, rows, d) -> (B, rows, heads*d)."""
    if heads == 1:
        return a
    b, rows, d = a.shape[0] // heads, a.shape[1], a.shape[2]
    return a.reshape(b, heads, rows, d).transpose(0, 2, 1, 3).reshape(b, rows, heads * d)


def _sum_into(parts, index, count):
    """The adjoint of taking entries `index` of `count` along axis 0: each of
    `parts` summed into its entry."""
    out = np.zeros((count,) + parts.shape[1:])
    np.add.at(out, index, parts)
    return out


def block_attention(x, memory, wq, wk, wv, wo, keys, key_rows, bias=None, scale=None, heads=1,
                    rows=None):
    """An attention sublayer with its four projections, as one op: A W_o.

    Q = x W_q, or its rows `rows` (a 1-D index) if given, holds len(keys)
    blocks of N rows; K = memory W_k and V = memory W_v hold blocks of
    `key_rows` rows. Query block b attends only to block j = keys[b]: its
    rows of A are softmax(scale * Q_b K_j^T + bias[b]) V_j, with `bias` an
    optional constant (blocks, N, key_rows) and `scale` an optional factor.
    The softmax follows `softmax_lastdim`: masked entries get zero weight, a
    fully masked row of A is zero and a NaN raises NumericError. With
    `heads` > 1, the channels of Q, K and V split into that many groups that
    attend as blocks of their own, with the same bias, and A joins them back.

    Stacked 3-D matmuls keep the cost linear in the number of blocks. A key
    block, or a row of x, that several query blocks or rows read sums their
    gradients.
    """
    x, memory, wq, wk, wv, wo = ts = tuple(map(_as_tensor, (x, memory, wq, wk, wv, wo)))
    blocks, rows = len(keys), None if rows is None else np.asarray(rows, np.int64)
    bias = None if bias is None else _as_tensor(bias).data
    fits = all(t.data.ndim == 2 for t in ts) and blocks > 0 and key_rows >= 1 and heads >= 1
    if fits:
        (xr, xc), (mr, mc), (qi, d), (ki, kd), (vi, dv), (oi, _) = (t.data.shape for t in ts)
        q_rows = xr if rows is None else rows.size
        key_blocks = mr // key_rows
        own = list(keys) == list(range(key_blocks))
        fits = (xc == qi and mc == ki == vi and kd == d and oi == dv and q_rows % blocks == 0
                and not (mr % key_rows or d % heads or dv % heads)
                and (own or 0 <= min(keys) and max(keys) < key_blocks)
                and (rows is None or rows.ndim == 1 and ((0 <= rows) & (rows < xr)).all())
                and (bias is None or bias.shape == (blocks, q_rows // blocks, key_rows)))
    if not fits:
        raise DimensionError(f"block_attention: {[tuple(t.shape) for t in ts]} and bias "
                             f"{None if bias is None else bias.shape} do not split into blocks "
                             f"{list(keys)} of {key_rows} key rows and {heads} heads")
    n = q_rows // blocks
    q = x.data @ wq.data if rows is None else (x.data @ wq.data)[rows]
    k, v = memory.data @ wk.data, memory.data @ wv.data
    qb = _split_heads(q.reshape(blocks, n, -1), heads)
    kb, vb = k.reshape(key_blocks, key_rows, -1), v.reshape(key_blocks, key_rows, -1)
    if not own:
        kb, vb = kb[keys], vb[keys]
    kb, vb = _split_heads(kb, heads), _split_heads(vb, heads)
    logits = qb @ kb.transpose(0, 2, 1)
    if scale is not None:
        logits *= scale
    if bias is not None:
        logits += bias if heads == 1 else np.repeat(bias, heads, axis=0)
    weights = _masked_softmax(logits)
    a = _join_heads(weights @ vb, heads).reshape(q_rows, -1)

    def bw(g):
        _accumulate(wo, a.T @ g)
        gb = _split_heads((g @ wo.data.T).reshape(blocks, n, -1), heads)
        gl = _softmax_backward(weights, gb @ vb.transpose(0, 2, 1))
        if scale is not None:
            gl *= scale
        gq = _join_heads(gl @ kb, heads).reshape(q_rows, -1)
        if rows is not None:
            gq = _sum_into(gq, rows, len(x.data))
        gk = _join_heads(gl.transpose(0, 2, 1) @ qb, heads)
        gv = _join_heads(weights.transpose(0, 2, 1) @ gb, heads)
        if not own:  # per key block, the sum over the query blocks that read it
            gk, gv = _sum_into(gk, keys, key_blocks), _sum_into(gv, keys, key_blocks)
        gk, gv = gk.reshape(k.shape), gv.reshape(v.shape)
        _accumulate(wq, x.data.T @ gq)
        _accumulate(wk, memory.data.T @ gk)
        _accumulate(wv, memory.data.T @ gv)
        _accumulate(x, gq @ wq.data.T)
        _accumulate(memory, gk @ wk.data.T + gv @ wv.data.T)

    return _node(a @ wo.data, ts, bw)


def ffn(x, w1, b1, w2, b2):
    """relu(x w1 + b1) w2 + b2 over the rows of the 2-D x, as one node."""
    x, w1, b1, w2, b2 = ts = tuple(map(_as_tensor, (x, w1, b1, w2, b2)))
    if not (x.data.ndim == 2 and b1.data.ndim == b2.data.ndim == 1
            and w1.data.shape == (x.data.shape[1], b1.size) and w2.data.shape == (b1.size, b2.size)):
        raise DimensionError(f"ffn: shapes {[tuple(t.shape) for t in ts]} do not chain")
    h = x.data @ w1.data + b1.data
    mask = h > 0
    h = np.where(mask, h, 0.0)

    def bw(g):
        _accumulate(w2, h.T @ g)
        _accumulate(b2, g.sum(axis=0))
        gh = (g @ w2.data.T) * mask
        _accumulate(w1, x.data.T @ gh)
        _accumulate(b1, gh.sum(axis=0))
        _accumulate(x, gh @ w1.data.T)

    return _node(h @ w2.data + b2.data, ts, bw)


def layernorm_lastdim(x, residual, gamma, beta, eps=1e-5):
    """Layer normalization of x + residual over the last dimension with affine
    parameters: a residual connection and its norm, as one node."""
    x, residual, gamma, beta = map(_as_tensor, (x, residual, gamma, beta))
    n = x.data.shape[-1]
    if residual.data.shape != x.data.shape or not gamma.data.shape == beta.data.shape == (n,):
        shapes = [tuple(t.shape) for t in (residual, gamma, beta)]
        raise DimensionError(f"layernorm: residual and affine shapes {shapes} do not match "
                             f"input {tuple(x.shape)}")
    s = x.data + residual.data
    # add.reduce / n is what .mean computes, bit for bit, without its overhead.
    mu = np.add.reduce(s, axis=-1, keepdims=True) / n
    centered = s - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    data = gamma.data * xhat + beta.data

    def bw(g):
        dxhat = g * gamma.data
        dx = inv * (
            dxhat
            - np.add.reduce(dxhat, axis=-1, keepdims=True) / n
            - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n)
        )
        _accumulate(x, dx)
        _accumulate(residual, dx)
        lead = tuple(range(g.ndim - 1))
        _accumulate(gamma, (g * xhat).sum(axis=lead))
        _accumulate(beta, g.sum(axis=lead))

    return _node(data, (x, residual, gamma, beta), bw)


@functools.lru_cache(maxsize=32)
def _conv_indices(c_in, h, w, k, stride, pad):
    """Offsets in the flat padded input of conv2d's (c, dy, dx, oy, ox) column
    entries, for its input gradient; the 32 most recent shapes stay cached."""
    hp, wp = h + 2 * pad, w + 2 * pad
    rows = np.arange(k)[:, None, None, None] + stride * np.arange((hp - k) // stride + 1)[:, None]
    cols = np.arange(k)[:, None, None] + stride * np.arange((wp - k) // stride + 1)
    chan = np.arange(c_in)[:, None, None, None, None] * (hp * wp)
    return (chan + rows * wp + cols).reshape(-1)


def conv2d(x, w, b, stride=1, pad=0):
    """relu(cross-correlation + bias) with zero padding, as one node.

    x: (C_in, H, W); w: (C_out, C_in, k, k) with odd k, no larger than the
    padded input; b: (C_out, 1, 1). Floor semantics, as in PyTorch: the
    output holds positions 0, stride, 2*stride, ... of the stride-1
    correlation, so its size is (H + 2*pad - k) // stride + 1 per axis.
    Every conv of the network is followed by its bias and a ReLU, so the
    three are one op: the bias is added and the ReLU applied in place.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise DimensionError(
            f"conv2d expects (C,H,W) and (C_out,C_in,k,k), got {tuple(x.shape)} and {tuple(w.shape)}"
        )
    c_in, h, wd = x.shape
    c_out, c_in_w, k, k2 = w.shape
    if c_in != c_in_w or k != k2:
        raise DimensionError(f"conv2d: weight shape {tuple(w.shape)} does not match input {tuple(x.shape)}")
    if b.shape != (c_out, 1, 1):
        raise DimensionError(f"conv2d: bias shape {tuple(b.shape)} is not {(c_out, 1, 1)}")
    if k % 2 != 1:
        raise ConfigurationError(f"conv2d kernel size must be odd, got {k}")
    if k > h + 2 * pad or k > wd + 2 * pad:
        raise ConfigurationError(
            f"conv2d kernel {k}x{k} does not fit input {h}x{wd} padded by {pad}"
        )
    hp, wp = h + 2 * pad, wd + 2 * pad
    h_out, w_out = (hp - k) // stride + 1, (wp - k) // stride + 1
    if pad:
        xp = np.zeros((c_in, hp, wp))
        xp[:, pad:pad + h, pad:pad + wd] = x.data
    else:
        xp = np.ascontiguousarray(x.data)
    # Row (c, dy, dx): channel c at offset (dy, dx) of every output position, copied
    # once out of a strided view (numpy checks it against xp's size).
    cols = np.ndarray((c_in, k, k, h_out, w_out), np.float64, xp, 0,
                      (8 * hp * wp, 8 * wp, 8, 8 * stride * wp, 8 * stride)
                      ).reshape(c_in * k * k, h_out * w_out)
    del xp  # before the product allocates its output, so the op's peak stays lower
    w_mat = w.data.reshape(c_out, -1)
    out = (w_mat @ cols).reshape(c_out, h_out, w_out)
    out += b.data
    np.maximum(out, 0.0, out=out)

    def bw(g):
        g = g * (out > 0)  # ReLU's mask: out > 0 exactly where its input was
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))
        g_mat = g.reshape(c_out, -1)  # (c_out, h_out*w_out)
        if w.requires_grad:
            _accumulate(w, (g_mat @ cols.T).reshape(w.shape))
        if x.requires_grad:
            # Scatter-add each column entry's gradient back to its source.
            flat = np.bincount(_conv_indices(c_in, h, wd, k, stride, pad),
                               weights=(w_mat.T @ g_mat).reshape(-1), minlength=c_in * hp * wp)
            gx = flat.reshape(c_in, hp, wp)
            if pad:
                gx = gx[:, pad:pad + h, pad:pad + wd]
            _accumulate(x, gx)

    return _node(out, (x, w, b), bw)


@functools.lru_cache(maxsize=32)
def _upsample_matrix(n):
    """(2n, n) matrix of 2-tap bilinear doubling (half-pixel alignment).

    Row 2i is 0.25*a[i-1] + 0.75*a[i] and row 2i+1 is 0.75*a[i] +
    0.25*a[i+1]; a tap past either end falls back on the edge value.
    """
    u = np.zeros((2 * n, n))
    i = np.arange(n)
    u[2 * i, np.maximum(i - 1, 0)] += 0.25
    u[2 * i, i] += 0.75
    u[2 * i + 1, i] += 0.75
    u[2 * i + 1, np.minimum(i + 1, n - 1)] += 0.25
    u.flags.writeable = False
    return u


def _upsample2x(x):
    """U_H @ x_c @ U_W^T per channel of the (C, H, W) array x; the adjoint is
    U_H^T @ g_c @ U_W."""
    u_h, u_w = _upsample_matrix(x.shape[1]), _upsample_matrix(x.shape[2])
    return u_h @ (x.reshape(-1, x.shape[2]) @ u_w.T).reshape(x.shape[0], x.shape[1], -1)


def bilinear_upsample2x(x):
    """Bilinear 2x upsampling of a (C, H, W) tensor: U_H @ x_c @ U_W^T per channel."""
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise DimensionError(f"bilinear_upsample2x expects (C,H,W), got {tuple(x.shape)}")
    _, h, w = x.shape

    def bw(g):
        _accumulate(x, _upsample_matrix(h).T @ g @ _upsample_matrix(w))

    return _node(_upsample2x(x.data), (x,), bw)


def block_logits(tokens, pixels, rows):
    """bilinear_upsample2x of tokens[rows] @ pixels, as one node: the rows
    `rows` (a slice) of the 2-D `tokens` times a (C, H, W) pixel map."""
    tokens, pixels = _as_tensor(tokens), _as_tensor(pixels)
    if tokens.data.ndim != 2 or pixels.data.ndim != 3 or tokens.shape[1] != pixels.shape[0]:
        raise DimensionError(f"block_logits: rows of {tuple(tokens.shape)} do not match "
                             f"pixels {tuple(pixels.shape)}")
    c, h, w = pixels.shape
    picked, flat = tokens.data[rows], pixels.data.reshape(c, h * w)

    def bw(g):
        gl = (_upsample_matrix(h).T @ g @ _upsample_matrix(w)).reshape(-1, h * w)
        gt = np.zeros(tokens.shape)
        gt[rows] = gl @ flat.T
        _accumulate(tokens, gt)
        _accumulate(pixels, (picked.T @ gl).reshape(pixels.shape))

    return _node(_upsample2x((picked @ flat).reshape(-1, h, w)), (tokens, pixels), bw)


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
