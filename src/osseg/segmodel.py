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
"""

import io
import math
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ArgumentError, ConfigurationError, DimensionError, FormatError
from .rng import derive_rng

CHECKPOINT_MAGIC = b"OSSEG1"


class AttentionPairing(Enum):
    NONE = "none"
    OURS_PT_TO_INTERMEDIATE = "ours_pt_to_intermediate"
    VARIANT_ST = "variant_st"
    VARIANT_S = "variant_s"


@dataclass
class ModelConfig:
    num_classes: int = 5
    embed_dim: int = 32
    decoder_layers: int = 2
    heads: int = 1
    backbone_channels: tuple = (8, 16, 32)
    attention_pairing: AttentionPairing = AttentionPairing.NONE
    scaled_attention: bool = False

    def __post_init__(self):
        self.backbone_channels = tuple(int(c) for c in self.backbone_channels)
        if isinstance(self.attention_pairing, str):
            self.attention_pairing = AttentionPairing(self.attention_pairing)
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
    """Intermediate states of one forward pass."""

    f_img: Tensor  # backbone features: (C_3, H/8, W/8)
    e_pixel: Tensor  # pixel embeddings at half resolution: (C_e, H/2, W/2)
    layer_queries: list  # query of each layer's token-attention step: (N, C_e)
    e_class: Tensor  # final tokens, one row per class: (N, C_e)
    logits: Tensor  # e_class @ e_pixel upsampled 2x: (N, H, W)


class ModelParams:
    """Named parameter tensors of one network instance."""

    def __init__(self, config, tensors):
        self.config = config
        self.tensors = dict(tensors)

    def __getitem__(self, name):
        return self.tensors[name]

    def names(self):
        return list(self.tensors.keys())

    def trainable(self, flag=True):
        for t in self.tensors.values():
            t.requires_grad = flag
        return self

    def zero_grad(self):
        for t in self.tensors.values():
            t.grad = None

    def copy(self):
        cloned = {k: Tensor(t.data.copy()) for k, t in self.tensors.items()}
        return ModelParams(self.config, cloned)


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
    tensors = {}
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
        tensors[name] = Tensor(data, requires_grad=True)
    return ModelParams(config, tensors)


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


def _image_memory(params, f_img, layer):
    c3 = f_img.shape[0]
    flat = ag.transpose(ag.reshape(f_img, (c3, f_img.shape[1] * f_img.shape[2])))
    p = f"dec.{layer}."
    k = ag.matmul(flat, params[p + "ca.wk"])
    v = ag.matmul(flat, params[p + "ca.wv"])
    return k, v


def _decoder(params, f_img, token_attn):
    """Run the transformer decoder.

    `token_attn(layer, tokens)` implements sublayer (b): it receives the
    token state entering the attention step and returns (query,
    contribution): the query its attention used (None if it used none) and
    the pre-residual attention contribution. Returns (layer_queries, e_class).
    """
    cfg = params.config
    tokens = params["query_embed"]
    layer_queries = []
    for layer in range(cfg.decoder_layers):
        p = f"dec.{layer}."
        k_img, v_img = _image_memory(params, f_img, layer)
        q = ag.matmul(tokens, params[p + "ca.wq"])
        attn_a = _multihead(q, k_img, v_img, cfg.heads, cfg.scaled_attention)
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


def _logits(e_class, e_pixel):
    ce, h, w = e_pixel.shape
    out = ag.matmul(e_class, ag.reshape(e_pixel, (ce, h * w)))
    return ag.bilinear_upsample2x(ag.reshape(out, (e_class.shape[0], h, w)))


def _token_attention(params, cond_queries=None, bias=None):
    """Sublayer (b) of `_decoder`: attention among the class tokens.

    Queries are the tokens' own projection, or, in the cross-domain pass,
    the conditioning branch's query of the same layer; `bias` is the
    optional additive class bias.
    """
    cfg = params.config

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


def forward(params, img):
    """Standard forward pass: self-attention among the class tokens."""
    arr = _check_image(img)
    f_img, e_pixel = _backbone_and_pixels(params, arr)
    layer_queries, e_class = _decoder(params, f_img, _token_attention(params))
    return ForwardTrace(f_img, e_pixel, layer_queries, e_class, _logits(e_class, e_pixel))


def forward_identity_token_attention(params, img):
    """Reference path: the token-attention sublayer contributes zero.

    Tokens pass through sublayer (b) via the residual connection alone;
    everything else matches `forward`. Used to verify the fully-masked
    class-aware attention behavior.
    """
    arr = _check_image(img)
    f_img, e_pixel = _backbone_and_pixels(params, arr)

    def token_attn(layer, tokens):
        return None, Tensor(np.zeros(tokens.shape))

    layer_queries, e_class = _decoder(params, f_img, token_attn)
    return ForwardTrace(f_img, e_pixel, layer_queries, e_class, _logits(e_class, e_pixel))


def forward_cross(params, main, cond, bias):
    """Cross-domain decoder pass over two existing forward traces.

    `main` is the trace of the main branch: its image features supply the
    keys and values of the image cross-attention, and its pixel embeddings
    the logits. `cond` is the `forward` trace of the conditioning branch:
    the query each of its layers' token self-attention computed is that
    layer's query here, so queries use the same learned projection as the
    self-attention path. Each decoder layer's token self-attention is
    replaced by class-aware cross-domain attention: those queries, keys and
    values from the main branch's tokens, and the N x N class `bias`.

    Only the decoder runs here: the backbone and pixel decoder of both
    branches are those already recorded in the traces, which other loss
    terms may share.

    The caller chooses which traces occupy the two slots: the main branch is
    the intermediate image for OURS_PT_TO_INTERMEDIATE and VARIANT_S and the
    pseudo-target image for VARIANT_ST; the conditioning branch is the
    pseudo-target image for OURS_PT_TO_INTERMEDIATE and the source image for
    both variants.
    """
    token_attn = _token_attention(params, cond.layer_queries, bias)
    layer_queries, e_class = _decoder(params, main.f_img, token_attn)
    return ForwardTrace(main.f_img, main.e_pixel, layer_queries, e_class,
                        _logits(e_class, main.e_pixel))


def predict(params, img):
    """Per-pixel argmax class map (ties break to the lowest class id)."""
    trace = forward(params, img)
    return trace.logits.data.argmax(axis=0).astype(np.uint8)


# --- checkpoint I/O ---------------------------------------------------------

def _config_block(cfg):
    lines = [
        f"num_classes={cfg.num_classes}",
        f"embed_dim={cfg.embed_dim}",
        f"decoder_layers={cfg.decoder_layers}",
        f"heads={cfg.heads}",
        "backbone_channels=" + ",".join(str(c) for c in cfg.backbone_channels),
        f"attention_pairing={cfg.attention_pairing.value}",
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
        attention_pairing=AttentionPairing(fields["attention_pairing"]),
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
        tensors = {}
        for _ in range(count):
            start = off
            (name_len,) = struct.unpack("<H", take(2))
            name = take(name_len).decode("utf-8")
            (rank,) = struct.unpack("<B", take(1))
            shape = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
            if name in tensors:
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
            tensors[name] = Tensor(data.copy())
    except (struct.error, ValueError, KeyError, UnicodeDecodeError) as exc:
        raise FormatError(f"malformed checkpoint: {exc}", offset=off) from exc
    missing = [name for name in expected if name not in tensors]
    if missing:
        raise FormatError(f"checkpoint lacks tensor {missing[0]!r}", offset=off)
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes after the last tensor", offset=off)
    return ModelParams(cfg, tensors)
