"""Query-based transformer segmentation network.

The network is a small backbone (three stride-2 conv stages), a pixel
decoder (two upsample+conv stages, ending at half resolution) and a
transformer decoder over one learnable query token per class. The logits
are the product of the final class-token embeddings and the per-pixel
embeddings, formed at half resolution and then upsampled 2x bilinearly.
Both steps are linear, so up to float rounding this equals upsampling the
embeddings first, at a fraction of the cost.

Every attention step is the one `attention` op. Among the class tokens it
runs as self-attention, or, in the cross-domain pass, with queries from a
second (conditioning) branch and an additive N x N class bias that removes
every row and column indexed by a sampled class; with no class sampled it
is plain cross-domain attention. Fully masked rows produce zero attention
output, so the residual connection carries those tokens through unchanged.

A forward pass takes a batch of equal-size images. The backbone and pixel
decoder run per image; the transformer decoder runs once, over the B
images' class tokens stacked as rows. A block-diagonal MASKED_SENTINEL
bias keeps each image's attention to its own keys, so up to float
summation order every image's logits are those of a pass over it alone.
A batch of one adds no mask and no row selection.
"""

import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ArgumentError, ConfigurationError, DimensionError, FormatError, NumericError
from .rng import derive_rng

CHECKPOINT_MAGIC = b"OSSEG1"


@dataclass
class ModelConfig:
    num_classes: int = 5
    embed_dim: int = 32
    decoder_layers: int = 2
    heads: int = 1
    backbone_channels: tuple = (8, 16, 32)
    scaled_attention: bool = False

    def __post_init__(self):
        self.backbone_channels = tuple(int(c) for c in self.backbone_channels)
        if self.embed_dim % self.heads != 0:
            raise ConfigurationError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )
        if self.decoder_layers < 1:
            raise ConfigurationError("decoder_layers must be >= 1")
        if len(self.backbone_channels) != 3:
            raise ConfigurationError("backbone_channels must list exactly 3 stages")


@dataclass
class ForwardTrace:
    """Intermediate states of one forward pass over a batch of B images.

    Per-image lists hold one entry per image; the decoder's token states
    are stacked, sample b in rows [b*N, (b+1)*N).
    """

    f_img: list  # per image, backbone features: (C_3, H/8, W/8)
    e_pixel: list  # per image, pixel embeddings at half resolution: (C_e, H/2, W/2)
    layer_queries: list  # per layer, the query of its token-attention step: (B*N, C_e)
    e_class: Tensor  # final tokens, one row per class and image: (B*N, C_e)
    logits: list  # per image, its class rows @ its e_pixel upsampled 2x: (N, H, W)


class ModelParams:
    """Named parameter tensors of one network instance, packed in one vector.

    `flat` holds every tensor's values back to back, in `_param_shapes`
    order, and each tensor's `data` is a reshaped view into it. Once the
    parameters are made trainable, `grad` holds their gradients in the same
    layout and each tensor's `grad` is a view into it, so backward
    accumulates into the vector in place. Whole-model arithmetic (the
    optimizer, the EMA teacher, a copy) is then a few vector operations.
    """

    def __init__(self, config, flat, requires_grad=False):
        self.config = config
        self.flat = flat
        self.grad = None
        shapes = _param_shapes(config)
        views = _views(flat, shapes.values())
        self.tensors = {name: Tensor(view) for name, view in zip(shapes, views)}
        self.trainable(requires_grad)

    @classmethod
    def pack(cls, config, arrays, requires_grad=False):
        """Parameters holding `arrays[name]` for every tensor of the config's network."""
        flat = np.concatenate([np.asarray(arrays[name], dtype=np.float64).reshape(-1)
                               for name in _param_shapes(config)])
        return cls(config, flat, requires_grad)

    def __getitem__(self, name):
        return self.tensors[name]

    def names(self):
        return list(self.tensors.keys())

    def trainable(self, flag=True):
        """Switch gradient tracking; the gradient vector, once made, stays."""
        if flag and self.grad is None:
            self.grad = np.zeros_like(self.flat)
            views = _views(self.grad, _param_shapes(self.config).values())
            for t, view in zip(self.tensors.values(), views):
                t.grad = view
        for t in self.tensors.values():
            t.requires_grad = flag
        return self

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)

    def copy(self):
        """Independent, untracked parameters with the same values."""
        return ModelParams(self.config, self.flat.copy())


def _views(flat, shapes):
    """Consecutive pieces of the vector `flat`, reshaped to `shapes` (no copies)."""
    views, off = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[off:off + size].reshape(shape))
        off += size
    return views


def _param_shapes(cfg):
    c1, c2, c3 = cfg.backbone_channels
    ce, n = cfg.embed_dim, cfg.num_classes
    hidden = 2 * ce
    shapes = {
        "backbone.0.w": (c1, 3, 3, 3), "backbone.0.b": (c1, 1, 1),
        "backbone.1.w": (c2, c1, 3, 3), "backbone.1.b": (c2, 1, 1),
        "backbone.2.w": (c3, c2, 3, 3), "backbone.2.b": (c3, 1, 1),
        "pixdec.0.w": (c2, c3, 3, 3), "pixdec.0.b": (c2, 1, 1),
        "pixdec.1.w": (ce, c2, 3, 3), "pixdec.1.b": (ce, 1, 1),
        "query_embed": (n, ce),
    }
    for layer in range(cfg.decoder_layers):
        p = f"dec.{layer}."
        shapes.update({
            p + "ca.wq": (ce, ce), p + "ca.wk": (c3, ce),
            p + "ca.wv": (c3, ce), p + "ca.wo": (ce, ce),
            p + "ln1.g": (ce,), p + "ln1.b": (ce,),
            p + "sa.wq": (ce, ce), p + "sa.wk": (ce, ce),
            p + "sa.wv": (ce, ce), p + "sa.wo": (ce, ce),
            p + "ln2.g": (ce,), p + "ln2.b": (ce,),
            p + "ffn.w1": (ce, hidden), p + "ffn.b1": (hidden,),
            p + "ffn.w2": (hidden, ce), p + "ffn.b2": (ce,),
            p + "ln3.g": (ce,), p + "ln3.b": (ce,),
        })
    return shapes


def init_params(config, seed=0):
    """Glorot-style random init; layer-norm gains start at 1, biases at 0."""
    rng = derive_rng(seed, "init")
    arrays = {}
    for name, shape in _param_shapes(config).items():
        if name.endswith(".g"):
            data = np.ones(shape)
        elif name.endswith((".b", ".b1", ".b2")):
            data = np.zeros(shape)
        elif name == "query_embed":
            data = rng.normal(0.0, 0.5, shape)
        else:
            fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
            fan_out = shape[0] if len(shape) == 4 else shape[-1]
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            data = rng.uniform(-limit, limit, shape)
        arrays[name] = data
    return ModelParams.pack(config, arrays, requires_grad=True)


def attention(q, k, v, scaled=False, bias=None):
    """softmax(Q K^T) V, optionally with pre-softmax additive bias.

    No 1/sqrt(d) scaling is applied unless `scaled` is set; the unscaled
    form is the default throughout this package.
    """
    logits = ag.matmul(q, ag.transpose(k))
    if scaled:
        logits = ag.scale(logits, 1.0 / math.sqrt(q.shape[-1]))
    if bias is not None:
        if bias.shape != logits.shape:
            raise DimensionError(
                f"attention bias shape {tuple(bias.shape)} does not match logits {tuple(logits.shape)}"
            )
        logits = ag.add(logits, bias)
    weights = ag.softmax_lastdim(logits)
    return ag.matmul(weights, v)


def build_class_bias(num_classes, sampled_classes):
    """N x N additive bias: entry (x, y) is 0 iff neither x nor y is sampled."""
    classes = sorted(set(int(c) for c in sampled_classes))
    if any(c < 0 or c >= num_classes for c in classes):
        raise ArgumentError(f"sampled class ids {classes} out of range for N={num_classes}")
    m = np.zeros((num_classes, num_classes))
    for c in classes:
        m[c, :] = ag.MASKED_SENTINEL
        m[:, c] = ag.MASKED_SENTINEL
    return Tensor(m)


def _multihead(q, k, v, heads, scaled, bias=None):
    """Attention per head over equal channel groups, joined along channels.

    Head h reads channels [h*d, (h+1)*d) through a constant 0/1 selection
    matrix and writes them back through its transpose, so the split and the
    join copy values exactly.
    """
    if heads == 1:
        return attention(q, k, v, scaled, bias)
    eye = np.eye(q.shape[-1])
    d = q.shape[-1] // heads
    out = None
    for h in range(heads):
        pick = Tensor(eye[:, h * d:(h + 1) * d])
        head = attention(ag.matmul(q, pick), ag.matmul(k, pick), ag.matmul(v, pick), scaled, bias)
        part = ag.matmul(head, Tensor(eye[h * d:(h + 1) * d]))
        out = part if out is None else ag.add(out, part)
    return out


def _check_image(img):
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise DimensionError(f"expected an HxWx3 image, got shape {arr.shape}")
    h, w = arr.shape[:2]
    if h % 8 or w % 8:
        raise ConfigurationError(f"image size {h}x{w} must be divisible by 8")
    return arr


def _backbone_and_pixels(params, arr):
    x = Tensor(arr.transpose(2, 0, 1))
    for stage in range(3):
        conv = ag.conv2d(x, params[f"backbone.{stage}.w"], stride=2, pad=1)
        x = ag.relu(ag.add(conv, params[f"backbone.{stage}.b"]))
    f_img = x
    y = ag.bilinear_upsample2x(f_img)
    y = ag.relu(ag.add(ag.conv2d(y, params["pixdec.0.w"], stride=1, pad=1), params["pixdec.0.b"]))
    y = ag.bilinear_upsample2x(y)
    e_pixel = ag.relu(ag.add(ag.conv2d(y, params["pixdec.1.w"], stride=1, pad=1), params["pixdec.1.b"]))
    return f_img, e_pixel


def _batch_bias(blocks, rows, cols):
    """Additive attention bias of a batch, one diagonal block per sample.

    `blocks[b]` is sample b's (rows, cols) bias Tensor, or None for none.
    Every entry off the diagonal blocks is MASKED_SENTINEL, so each
    sample's queries attend only to its own keys. A batch of one needs no
    mask: its block is returned as is.
    """
    if len(blocks) == 1:
        return blocks[0]
    m = np.full((len(blocks) * rows, len(blocks) * cols), ag.MASKED_SENTINEL)
    for b, block in enumerate(blocks):
        m[b * rows:(b + 1) * rows, b * cols:(b + 1) * cols] = 0.0 if block is None else block.data
    return Tensor(m)


def _decoder(params, f_imgs, token_attn):
    """Run the transformer decoder once over a batch of backbone features.

    The B samples' class tokens are stacked as rows, (B*N, C_e), and their
    image memories, flattened to (H/8 * W/8, C_3) each, likewise. Row-wise
    ops need no change; the image cross-attention gets a block-diagonal
    mask so that each sample reads only its own memory.

    `token_attn(layer, tokens)` implements sublayer (b): it receives the
    stacked token state entering the attention step and returns (query,
    contribution): the query its attention used (None if it used none) and
    the pre-residual attention contribution. Returns (layer_queries, e_class).
    """
    cfg = params.config
    batch = len(f_imgs)
    c3, rows, cols = f_imgs[0].shape
    memory = ag.concat_rows([ag.transpose(ag.reshape(f, (c3, rows * cols))) for f in f_imgs])
    img_bias = _batch_bias([None] * batch, cfg.num_classes, rows * cols)
    tokens = ag.concat_rows([params["query_embed"]] * batch)
    layer_queries = []
    for layer in range(cfg.decoder_layers):
        p = f"dec.{layer}."
        k_img = ag.matmul(memory, params[p + "ca.wk"])
        v_img = ag.matmul(memory, params[p + "ca.wv"])
        q = ag.matmul(tokens, params[p + "ca.wq"])
        attn_a = _multihead(q, k_img, v_img, cfg.heads, cfg.scaled_attention, img_bias)
        tokens = ag.layernorm_lastdim(
            ag.add(tokens, ag.matmul(attn_a, params[p + "ca.wo"])),
            params[p + "ln1.g"], params[p + "ln1.b"],
        )
        query, contrib = token_attn(layer, tokens)
        layer_queries.append(query)
        tokens = ag.layernorm_lastdim(
            ag.add(tokens, contrib), params[p + "ln2.g"], params[p + "ln2.b"],
        )
        h = ag.relu(ag.add(ag.matmul(tokens, params[p + "ffn.w1"]), params[p + "ffn.b1"]))
        h = ag.add(ag.matmul(h, params[p + "ffn.w2"]), params[p + "ffn.b2"])
        tokens = ag.layernorm_lastdim(
            ag.add(tokens, h), params[p + "ln3.g"], params[p + "ln3.b"],
        )
    return layer_queries, tokens


def _trace(params, f_imgs, e_pixels, layer_queries, e_class):
    """ForwardTrace with each sample's logits: its class rows times its pixels."""
    n, batch = params.config.num_classes, len(f_imgs)
    rows = [e_class]
    if batch > 1:
        eye = np.eye(batch * n)
        rows = [ag.matmul(Tensor(eye[b * n:(b + 1) * n]), e_class) for b in range(batch)]
    logits = []
    for e_rows, e_pixel in zip(rows, e_pixels):
        ce, h, w = e_pixel.shape
        out = ag.matmul(e_rows, ag.reshape(e_pixel, (ce, h * w)))
        logits.append(ag.bilinear_upsample2x(ag.reshape(out, (n, h, w))))
    return ForwardTrace(f_imgs, e_pixels, layer_queries, e_class, logits)


def _token_attention(params, batch, cond_queries=None, biases=None):
    """Sublayer (b) of `_decoder`: attention among each sample's class tokens.

    Queries are the tokens' own projection, or, in the cross-domain pass,
    the conditioning branch's query of the same layer; `biases` holds the
    optional additive class bias of each sample.
    """
    cfg = params.config
    bias = _batch_bias(biases or [None] * batch, cfg.num_classes, cfg.num_classes)

    def token_attn(layer, tokens):
        p = f"dec.{layer}."
        if cond_queries is None:
            q = ag.matmul(tokens, params[p + "sa.wq"])
        else:
            q = cond_queries[layer]
        k = ag.matmul(tokens, params[p + "sa.wk"])
        v = ag.matmul(tokens, params[p + "sa.wv"])
        at = _multihead(q, k, v, cfg.heads, cfg.scaled_attention, bias)
        return q, ag.matmul(at, params[p + "sa.wo"])
    return token_attn


def _forward(params, imgs, token_attn):
    arrs = [_check_image(img) for img in imgs]
    if not arrs or any(arr.shape != arrs[0].shape for arr in arrs):
        raise DimensionError(
            f"a forward pass takes one or more equal-size images, got {[a.shape for a in arrs]}"
        )
    trunk = [_backbone_and_pixels(params, arr) for arr in arrs]
    f_imgs = [f for f, _ in trunk]
    e_pixels = [e for _, e in trunk]
    layer_queries, e_class = _decoder(params, f_imgs, token_attn)
    return _trace(params, f_imgs, e_pixels, layer_queries, e_class)


def forward(params, imgs):
    """Standard forward pass over a list of equal-size images.

    The trunk runs per image, the decoder once over the batch, with
    self-attention among each image's class tokens.
    """
    return _forward(params, imgs, _token_attention(params, len(imgs)))


def forward_identity_token_attention(params, imgs):
    """Reference path: the token-attention sublayer contributes zero.

    Tokens pass through sublayer (b) via the residual connection alone;
    everything else matches `forward`. Used to verify the fully-masked
    class-aware attention behavior.
    """
    def token_attn(layer, tokens):
        return None, Tensor(np.zeros(tokens.shape))

    return _forward(params, imgs, token_attn)


def forward_cross(params, main, cond, biases):
    """Cross-domain decoder pass over two existing batched forward traces.

    `main` is the trace of the main branch: its image features supply the
    keys and values of the image cross-attention, and its pixel embeddings
    the logits. `cond` is the `forward` trace of the conditioning branch,
    over as many images: the query each of its layers' token
    self-attention computed is that layer's query here, so queries use the
    same learned projection as the self-attention path. Each decoder
    layer's token self-attention is replaced by class-aware cross-domain
    attention: those queries, keys and values from the main branch's
    tokens, and `biases[b]`, the N x N class bias of sample b.

    Only the decoder runs here, once for the batch: the backbone and pixel
    decoder of both branches are those already recorded in the traces,
    which other loss terms may share.
    """
    n, batch = params.config.num_classes, len(main.f_img)
    if len(cond.f_img) != batch or len(biases) != batch:
        raise DimensionError(
            f"forward_cross: {batch} main, {len(cond.f_img)} conditioning samples "
            f"and {len(biases)} class biases"
        )
    for bias in biases:
        if bias.shape != (n, n):
            raise DimensionError(f"class bias shape {tuple(bias.shape)} is not ({n}, {n})")
    token_attn = _token_attention(params, batch, cond.layer_queries, biases)
    layer_queries, e_class = _decoder(params, main.f_img, token_attn)
    return _trace(params, main.f_img, main.e_pixel, layer_queries, e_class)


def predict(params, img):
    """Per-pixel argmax class map (ties break to the lowest class id).

    Finite parameters can still overflow on some input. That is checked
    once, on the logits, rather than warned about per op: NumericError if
    any logit is non-finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        logits = forward(params, [img]).logits[0].data
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits: the parameters overflow on this image")
    return logits.argmax(axis=0).astype(np.uint8)


# --- checkpoint I/O ---------------------------------------------------------

def _config_block(cfg):
    lines = [
        f"num_classes={cfg.num_classes}",
        f"embed_dim={cfg.embed_dim}",
        f"decoder_layers={cfg.decoder_layers}",
        f"heads={cfg.heads}",
        "backbone_channels=" + ",".join(str(c) for c in cfg.backbone_channels),
        f"scaled_attention={int(cfg.scaled_attention)}",
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parse_config_block(blob):
    fields = {}
    for line in blob.decode("utf-8").splitlines():
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    return ModelConfig(
        num_classes=int(fields["num_classes"]),
        embed_dim=int(fields["embed_dim"]),
        decoder_layers=int(fields["decoder_layers"]),
        heads=int(fields["heads"]),
        backbone_channels=tuple(int(c) for c in fields["backbone_channels"].split(",")),
        scaled_attention=bool(int(fields["scaled_attention"])),
    )


def save_checkpoint(path, params):
    """Flat binary container: magic, config block, then named float64 blobs."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    cfg_blob = _config_block(params.config)
    buf.write(struct.pack("<I", len(cfg_blob)))
    buf.write(cfg_blob)
    buf.write(struct.pack("<I", len(params.tensors)))
    for name, t in params.tensors.items():
        nb = name.encode("utf-8")
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        shape = t.data.shape
        buf.write(struct.pack("<B", len(shape)))
        for dim in shape:
            buf.write(struct.pack("<I", dim))
        buf.write(t.data.astype("<f8").tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_checkpoint(path):
    """Inverse of `save_checkpoint`; strict about the container's content.

    Raises FormatError unless the file holds exactly the tensors of its
    config's network, with their shapes and finite values, and nothing after
    the last tensor.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:6] != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint", offset=0)
    off = 6

    def take(count):
        nonlocal off
        if off + count > len(blob):
            raise FormatError("truncated checkpoint", offset=len(blob))
        piece = blob[off:off + count]
        off += count
        return piece

    try:
        (cfg_len,) = struct.unpack("<I", take(4))
        cfg = _parse_config_block(take(cfg_len))
        expected = _param_shapes(cfg)
        (count,) = struct.unpack("<I", take(4))
        arrays = {}
        for _ in range(count):
            start = off
            (name_len,) = struct.unpack("<H", take(2))
            name = take(name_len).decode("utf-8")
            (rank,) = struct.unpack("<B", take(1))
            shape = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
            if name in arrays:
                raise FormatError(f"duplicate checkpoint tensor {name!r}", offset=start)
            if expected.get(name) != shape:
                raise FormatError(
                    f"checkpoint tensor {name!r} of shape {shape} does not match the config "
                    f"({expected.get(name, 'no such tensor')})", offset=start,
                )
            size = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(take(8 * size), dtype="<f8").reshape(shape)
            if not np.isfinite(data).all():
                raise FormatError(f"non-finite value in checkpoint tensor {name!r}", offset=start)
            arrays[name] = data
    except (struct.error, ValueError, KeyError, UnicodeDecodeError) as exc:
        raise FormatError(f"malformed checkpoint: {exc}", offset=off) from exc
    missing = [name for name in expected if name not in arrays]
    if missing:
        raise FormatError(f"checkpoint lacks tensor {missing[0]!r}", offset=off)
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes after the last tensor", offset=off)
    return ModelParams.pack(cfg, arrays)
