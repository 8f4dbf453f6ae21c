"""Query-based transformer segmentation network.

The network is a small backbone (three stride-2 conv stages), a pixel
decoder (two upsample+conv stages, ending at half resolution) and a
transformer decoder over one learnable query token per class. The logits
are the product of the final class-token embeddings and the per-pixel
embeddings, formed at half resolution and then upsampled 2x bilinearly.
Both steps are linear, so up to float rounding this equals upsampling the
embeddings first, at a fraction of the cost.

A pass takes a list of equal-size images. The backbone and pixel decoder
run per image; the transformer decoder runs once, over blocks of N class
tokens stacked as rows: one block per image and, in the cross-domain pass,
one more per cross entry. Each decoder sublayer, with its projections, is
one node (`autograd.block_attention`, `ffn`), as are each add & norm and
each block's logits. Each query block attends only to its own key block,
so the cost is linear in the number of blocks and every image's logits
are those of a pass over it alone. Among the class tokens attention is
self-attention, or, for a cross block, takes its queries from another
(conditioning) block's rows and adds an N x N class bias that removes
every row and column indexed by a sampled class; with no class sampled it
is plain cross-domain attention. Fully masked rows produce zero attention
output, so the residual connection carries those tokens through unchanged.
"""

import contextlib
import contextvars
import math
import os
import struct
from dataclasses import dataclass, fields

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
        if len(self.backbone_channels) != 3:
            raise ConfigurationError("backbone_channels must list exactly 3 stages")
        sizes = (self.embed_dim, self.decoder_layers, self.heads, *self.backbone_channels)
        if min(sizes) < 1:
            raise ConfigurationError("embed_dim, decoder_layers, heads and backbone_channels "
                                     f"must be >= 1, got {sizes}")
        if not 1 <= self.num_classes < ag.IGNORE_LABEL:
            raise ConfigurationError(f"num_classes must be in [1, {ag.IGNORE_LABEL - 1}], "
                                     f"got {self.num_classes}")
        if self.embed_dim % self.heads != 0:
            raise ConfigurationError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )


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


# A network has the trunk's and query embedding's tensors plus those of each
# decoder layer (see `_param_shapes`). A checkpoint record of a tensor takes
# at least a 2-byte name length, a 1-byte name, the rank, one dimension and
# one value.
_TRUNK_TENSORS, _LAYER_TENSORS, _MIN_RECORD_BYTES = 11, 18, 16


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
        x = ag.conv2d(x, params[f"backbone.{stage}.w"], params[f"backbone.{stage}.b"], 2, 1)
    y = ag.conv2d(ag.bilinear_upsample2x(x), params["pixdec.0.w"], params["pixdec.0.b"], 1, 1)
    e_pixel = ag.conv2d(ag.bilinear_upsample2x(y), params["pixdec.1.w"], params["pixdec.1.b"], 1, 1)
    return x, e_pixel


# The tensors of a decoder layer's sublayers and norms, in the order the ops take them.
_SUBLAYER_TENSORS = [names.split() for names in (
    "ca.wq ca.wk ca.wv ca.wo", "ln1.g ln1.b", "sa.wq sa.wk sa.wv sa.wo", "ln2.g ln2.b",
    "ffn.w1 ffn.b1 ffn.w2 ffn.b2", "ln3.g ln3.b")]


def _decoder(params, features, cross):
    """Run the transformer decoder once over the blocks of a pass.

    Block b < S = len(features) belongs to image b; block S + c to cross
    entry c = (main, cond, bias). Each block's N class tokens are stacked
    as rows, ((S+C)*N, C_e), and the S image memories, flattened to
    (H/8 * W/8, C_3) each, likewise, so a block's image cross-attention
    reads its own image's rows, a cross block `main`'s. Token attention runs
    within each block; a cross block takes its queries from block `cond`'s
    rows of the same layer's query projection, and adds its class bias.
    Each sublayer, with its projections, is one node, and so is each add &
    norm. Returns the final tokens.
    """
    cfg = params.config
    n, images = cfg.num_classes, len(features)
    blocks = images + len(cross)
    scale = 1.0 / math.sqrt(cfg.embed_dim // cfg.heads) if cfg.scaled_attention else None
    memory = ag.concat_rows(features)
    img_keys = list(range(images)) + [main for main, _, _ in cross]
    queries = bias = None
    if cross:
        conds = list(range(images)) + [cond for _, cond, _ in cross]
        queries = (np.asarray(conds)[:, None] * n + np.arange(n)).reshape(-1)
        bias = np.zeros((blocks, n, n))
        bias[images:] = [class_bias.data for _, _, class_bias in cross]
    tokens = ag.concat_rows([params["query_embed"]] * blocks)
    for layer in range(cfg.decoder_layers):
        ca, ln1, sa, ln2, ffn, ln3 = ([params.tensors[f"dec.{layer}.{name}"] for name in names]
                                      for names in _SUBLAYER_TENSORS)
        attn = ag.block_attention(tokens, memory, *ca, img_keys, memory.shape[0] // images,
                                  None, scale, cfg.heads)
        tokens = ag.layernorm_lastdim(attn, tokens, *ln1)
        attn = ag.block_attention(tokens, tokens, *sa, range(blocks), n, bias, scale, cfg.heads,
                                  queries)
        tokens = ag.layernorm_lastdim(attn, tokens, *ln2)
        tokens = ag.layernorm_lastdim(ag.ffn(tokens, *ffn), tokens, *ln3)
    return tokens


def _forward(params, imgs, cross):
    arrs = [_check_image(img) for img in imgs]
    if not arrs or any(arr.shape != arrs[0].shape for arr in arrs):
        raise DimensionError(
            f"a forward pass takes one or more equal-size images, got {[a.shape for a in arrs]}"
        )
    features, e_pixels = zip(*[_backbone_and_pixels(params, arr) for arr in arrs])
    e_class = _decoder(params, features, cross)
    # Each block's logits: its class rows times its image's pixel embeddings.
    n = params.config.num_classes
    owners = list(range(len(arrs))) + [main for main, _, _ in cross]
    return [ag.block_logits(e_class, e_pixels[owner], slice(b * n, (b + 1) * n))
            for b, owner in enumerate(owners)]


def forward(params, imgs):
    """Standard forward pass over a list of equal-size images: each image's
    (N, H, W) logits.

    The trunk runs per image, the decoder once over the batch, with
    self-attention among each image's class tokens.
    """
    return _forward(params, imgs, [])


def forward_cross(params, imgs, cross):
    """One pass over `imgs` plus one cross-domain block per entry of `cross`.

    The images' own blocks are those of `forward(params, imgs)`. Entry
    (main, cond, bias) adds a block over image `main`: its image
    cross-attention reads `main`'s features and its logits `main`'s pixel
    embeddings, while each decoder layer's token self-attention becomes
    class-aware cross-domain attention, with the query that block `cond`'s
    own token attention computed in the same layer (the same learned
    projection as the self-attention path), keys and values from the cross
    block's tokens, and `bias`, an N x N class bias. Returns the logits
    of the images' blocks first, then one per entry.

    Image features, keys and values are computed once per image, however
    many blocks read them.
    """
    n = params.config.num_classes
    for main, cond, bias in cross:
        if not (0 <= main < len(imgs) and 0 <= cond < len(imgs)):
            raise DimensionError(
                f"forward_cross: entry ({main}, {cond}) names an image outside the {len(imgs)} given"
            )
        if bias.shape != (n, n):
            raise DimensionError(f"class bias shape {tuple(bias.shape)} is not ({n}, {n})")
    return _forward(params, imgs, cross)


def label_maps(params, imgs, threshold=0.0):
    """Per-pixel argmax class map of each of a list of equal-size images.

    One `forward` pass labels the whole list, and each map is that of a
    pass over its image alone. Ties break to the lowest class id. With a
    `threshold` above 0, pixels whose softmax confidence is below it
    become IGNORE. Finite parameters can still overflow on some input.
    That is checked once, on the logits, rather than warned about per op:
    NumericError if any logit is non-finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        logits = [x.data for x in forward(params, imgs)]
    maps = []
    for x in logits:
        if not np.isfinite(x).all():
            raise NumericError("non-finite logits: the parameters overflow on this image")
        pred, best = np.zeros(x.shape[1:], np.uint8), x[0]
        for c in range(1, len(x)):  # argmax as a running max: a strict > keeps a tie's lowest id
            pred[x[c] > best] = c
            best = np.maximum(best, x[c])
        if threshold > 0.0:
            shifted = np.exp(x - best)
            pred[shifted.max(axis=0) / shifted.sum(axis=0) < threshold] = ag.IGNORE_LABEL
        maps.append(pred)
    return maps


def predict(params, img):
    """The `label_maps` class map of one image."""
    return label_maps(params, [img])[0]


# --- checkpoint I/O ---------------------------------------------------------

def _config_block(cfg):
    """One `name=value` line per ModelConfig field, in field order: ints as
    ints, the tuple comma-joined, the bool as 0/1."""
    text = ""
    for f in fields(ModelConfig):
        value = getattr(cfg, f.name)
        text += f"{f.name}={','.join(map(str, value)) if f.type is tuple else int(value)}\n"
    return text.encode("utf-8")


def _parse_config_block(blob):
    """Inverse of `_config_block` (ModelConfig makes the tuple's parts ints);
    lines that name no field are skipped."""
    values = {}
    for line in blob.decode("utf-8").splitlines():
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return ModelConfig(**{f.name: values[f.name].split(",") if f.type is tuple
                          else f.type(int(values[f.name])) for f in fields(ModelConfig)})


def save_checkpoint(path, params):
    """Flat binary container: magic, config block, then named float64 blobs."""
    cfg_blob = _config_block(params.config)
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", len(cfg_blob)), cfg_blob,
             struct.pack("<I", len(params.tensors))]
    for name, t in params.tensors.items():
        nb, shape = name.encode("utf-8"), t.data.shape
        parts += [struct.pack(f"<H{len(nb)}sB{len(shape)}I", len(nb), nb, len(shape), *shape),
                  t.data.astype("<f8").tobytes()]
    write_atomic(path, b"".join(parts))


# While a command runs, the (device, inode) of each file it has read and the outputs
# it declared that no write has checked yet; None outside a command. `cli._run` sets
# it for its run, and every reader of an input adds to it. A context variable, so
# that no other thread or task sees the run's.
_READS = contextvars.ContextVar("osseg_reads", default=None)


@contextlib.contextmanager
def recording_reads(outputs=()):
    """Within the block, `note_read` records the files read and `claim_outputs`
    refuses to replace one of them. The first claim covers `outputs` as well: a
    command reads all its inputs before it writes, so a declared output that names
    an input fails before any output is touched."""
    token = _READS.set((set(), list(outputs)))
    try:
        yield
    finally:
        _READS.reset(token)


def note_read(f):
    """Record the open file `f` as read by the running command, if one runs."""
    run = _READS.get()
    if run is not None:
        st = os.fstat(f.fileno())
        run[0].add((st.st_dev, st.st_ino))


def claim_outputs(paths=()):
    """A usage error if the running command read one of `paths`, or at its first
    claim one of its declared outputs. A writer of several files claims them all
    before it writes the first, and a command that works long after reading its
    inputs claims once they are read."""
    run = _READS.get()
    if run is None:
        return
    reads, declared = run
    for path in [*declared, *paths]:
        try:
            st = os.lstat(path)
        except OSError:
            continue  # nothing to replace; the write itself reports any other fault
        if (st.st_dev, st.st_ino) in reads:
            raise ArgumentError(f"refusing to replace {path}: this command read it")
    declared.clear()


def write_atomic(path, data):
    """Every file osseg writes: `data` goes beside `path`, then `os.replace`s it, so no
    reader sees part of a file and a failed write leaves the old one, no temporary.
    Replacing a file the running command read is a usage error (`claim_outputs`)."""
    claim_outputs([path])
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path):
    """Inverse of `save_checkpoint`; strict about the container's content.

    Raises FormatError unless the file holds exactly the tensors of its
    config's network, with their shapes and finite values, and nothing after
    the last tensor.
    """
    with open(path, "rb") as f:
        note_read(f)
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
        tensors = _TRUNK_TENSORS + _LAYER_TENSORS * cfg.decoder_layers
        if tensors * _MIN_RECORD_BYTES > len(blob) - off:
            raise FormatError(f"checkpoint too short for the {tensors} tensors of its config",
                              offset=off)
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
            data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
            if not np.isfinite(data).all():
                raise FormatError(f"non-finite value in checkpoint tensor {name!r}", offset=start)
            arrays[name] = data
    except (struct.error, ValueError, KeyError, UnicodeDecodeError,
            ConfigurationError) as exc:
        raise FormatError(f"malformed checkpoint: {exc}", offset=off) from exc
    missing = [name for name in expected if name not in arrays]
    if missing:
        raise FormatError(f"checkpoint lacks tensor {missing[0]!r}", offset=off)
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes after the last tensor", offset=off)
    return ModelParams.pack(cfg, arrays)
