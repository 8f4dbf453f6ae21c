"""Procedural two-domain benchmark generator plus PPM/PGM raster I/O.

Scenes are layered geometric compositions: a sky band, a ground band,
building rectangles, vegetation ellipses and vehicle rectangles, painted in
that order so vehicles are never occluded. The style gap between domains is
carried by the palette and texture noise; the spatial-structure gap by the
layout mode: OPEN_FIELD keeps vehicles away from buildings, DENSE_CITY
parks them flush against building walls.

Geometry is drawn from a per-sample stream that never sees palette or noise
parameters, so two specs differing only in style produce identical label
maps under identical seeds.
"""

import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .autograd import IGNORE_LABEL as IGNORE
from .errors import ArgumentError, FormatError, ValidationError
from .rng import derive_rng
from .segmodel import claim_outputs, note_read, write_atomic

SKY, GROUND, BUILDING, VEHICLE, VEGETATION = 0, 1, 2, 3, 4

# Daylight-ish source palette ("palette A") and its dusk counterpart
# ("palette B"): a global per-channel affine cast of the source colors,
# the kind of illumination-level style shift a low-frequency amplitude
# transplant can carry.
SOURCE_PALETTE = (
    (0.53, 0.78, 0.95),  # sky
    (0.42, 0.48, 0.34),  # ground
    (0.62, 0.60, 0.58),  # building
    (0.85, 0.15, 0.12),  # vehicle
    (0.13, 0.52, 0.18),  # vegetation
)
TARGET_PALETTE = (
    (0.482, 0.606, 0.860),
    (0.402, 0.396, 0.372),
    (0.546, 0.480, 0.564),
    (0.712, 0.165, 0.196),
    (0.194, 0.424, 0.244),
)


class LayoutMode(Enum):
    OPEN_FIELD = "open_field"
    DENSE_CITY = "dense_city"


class DomainTag(Enum):
    SOURCE = "source"
    PSEUDO_TARGET = "pseudo_target"
    INTERMEDIATE = "intermediate"
    TARGET = "target"


@dataclass
class SceneSpec:
    image_size: tuple = (64, 64)
    palette: tuple = SOURCE_PALETTE  # one colour per class id, so len(palette) classes
    texture_noise_sigma: float = 0.05
    layout_mode: LayoutMode = LayoutMode.OPEN_FIELD
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.layout_mode, str):
            self.layout_mode = LayoutMode(self.layout_mode)
        self.palette = tuple(tuple(float(v) for v in c) for c in self.palette)
        if len(self.palette) < 2:
            raise ArgumentError(f"palette has {len(self.palette)} colours; sky and ground need 2")
        if self.texture_noise_sigma < 0:
            raise ArgumentError("texture_noise_sigma must be >= 0")
        if any(s < 8 or s % 8 for s in self.image_size):
            raise ArgumentError(
                f"image_size entries must be positive multiples of 8, got {self.image_size}"
            )


@dataclass
class DomainSample:
    image: np.ndarray  # (H, W, 3) float64 in [0, 1]
    label: np.ndarray  # (H, W) uint8, class ids or IGNORE
    domain_tag: DomainTag = DomainTag.SOURCE

    def __post_init__(self):
        if self.image.shape[:2] != self.label.shape:
            raise ArgumentError(
                f"image {self.image.shape[:2]} and label {self.label.shape} sizes differ"
            )


def _paint_rect(label, r0, c0, h, w, cls):
    hh, ww = label.shape
    label[max(0, r0):min(hh, r0 + h), max(0, c0):min(ww, c0 + w)] = cls


def _paint_ellipse(label, cy, cx, ry, rx, cls):
    hh, ww = label.shape
    yy, xx = np.ogrid[:hh, :ww]
    mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    label[mask] = cls


def _generate_label(spec, rng):
    h, w = spec.image_size
    label = np.empty((h, w), dtype=np.uint8)
    horizon = int(h * 0.35) + int(rng.integers(-h // 16, h // 16 + 1))
    label[:horizon] = SKY
    label[horizon:] = GROUND

    num_classes = len(spec.palette)
    if num_classes <= 2:
        return label

    # Vegetation first so later structures stay fully visible.
    if num_classes > VEGETATION:
        for _ in range(int(rng.integers(1, 3))):
            cy = int(rng.integers(horizon, h - 2))
            cx = int(rng.integers(0, w))
            ry = int(rng.integers(max(3, h // 10), max(4, h // 6)))
            rx = int(rng.integers(max(3, w // 10), max(4, w // 6)))
            _paint_ellipse(label, cy, cx, ry, rx, VEGETATION)

    buildings = []
    dense = spec.layout_mode is LayoutMode.DENSE_CITY
    count = int(rng.integers(2, 4)) if dense else int(rng.integers(1, 3))
    for _ in range(count):
        bw = int(rng.integers(w // 5, w // 2)) if dense else int(rng.integers(w // 8, w // 3))
        bh = int(rng.integers(h // 4, int(h * 0.55)))
        c0 = int(rng.integers(0, max(1, w - bw)))
        r0 = horizon - bh + int(rng.integers(0, max(1, h // 10)))
        depth = h // 4 if dense else h // 8
        _paint_rect(label, r0, c0, bh + depth, bw, BUILDING)
        buildings.append((r0, c0, bh + depth, bw))

    if num_classes > VEHICLE:
        vh = int(rng.integers(max(3, h // 12), max(4, h // 8)))
        vw = int(rng.integers(max(4, w // 7), max(5, w // 4)))
        for _ in range(2):
            row = int(rng.integers(horizon + 1, h - vh))
            if dense and buildings:
                # Park the vehicle inset against a building facade so it is
                # bordered by building pixels on most sides.
                b = buildings[int(rng.integers(0, len(buildings)))]
                col = int(rng.integers(b[1], max(b[1] + 1, b[1] + b[3] - vw)))
                col = min(max(col, 0), w - vw)
                bottom = min(b[0] + b[2], h - 1)
                row = min(max(bottom - vh + 1, horizon + 1), h - vh - 1)
            else:
                # Keep a wide berth from every building.
                col = None
                for _ in range(40):
                    cand = int(rng.integers(0, w - vw))
                    if all(cand + vw + 8 <= b[1] or cand >= b[1] + b[3] + 8 for b in buildings):
                        col = cand
                        break
                if col is None:
                    continue
            _paint_rect(label, row, col, vh, vw, VEHICLE)
    return label


def generate_sample(spec, index):
    """One deterministic sample; geometry and noise use separate streams."""
    geom_rng = derive_rng(spec.seed, "geometry", index)
    label = _generate_label(spec, geom_rng)
    palette = np.asarray(spec.palette)
    image = palette[label]
    if spec.texture_noise_sigma > 0:
        noise_rng = derive_rng(spec.seed, "texture", index)
        image = image + noise_rng.normal(0.0, spec.texture_noise_sigma, image.shape)
    image = np.clip(image, 0.0, 1.0)
    return DomainSample(image=image, label=label, domain_tag=DomainTag.SOURCE)


def generate_dataset(spec, count):
    """Generate `count` samples; per-sample streams make order irrelevant."""
    if count < 1:
        raise ArgumentError(f"count must be >= 1, got {count}")
    return [generate_sample(spec, i) for i in range(count)]


# --- raster I/O --------------------------------------------------------------

def _read_pnm(path, magic, channels):
    """Pixels of a binary PNM file (maxval 255) as an (H, W, channels) uint8 array.

    Strict about the container: a zero width or height, a short payload
    and any byte after the payload each raise FormatError.
    """
    with open(path, "rb") as f:
        note_read(f)
        blob = f.read()
    if blob[:2] != magic:
        raise FormatError(f"{path}: expected magic {magic.decode()}", offset=0)
    fields = []
    off = 2
    while len(fields) < 3:
        while off < len(blob) and blob[off:off + 1].isspace():
            off += 1
        if off < len(blob) and blob[off:off + 1] == b"#":
            while off < len(blob) and blob[off:off + 1] != b"\n":
                off += 1
            continue
        start = off
        while off < len(blob) and not blob[off:off + 1].isspace():
            off += 1
        token = blob[start:off]
        if not token.isdigit():
            raise FormatError(f"{path}: malformed header token {token!r}", offset=start)
        fields.append(int(token))
    if off >= len(blob):
        raise FormatError(f"{path}: header ends prematurely", offset=off)
    off += 1  # single whitespace after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}", offset=2)
    if width == 0 or height == 0:
        raise FormatError(f"{path}: empty {width}x{height} raster", offset=2)
    end = off + width * height * channels
    if len(blob) < end:
        raise FormatError(f"{path}: truncated pixel payload", offset=len(blob))
    if len(blob) > end:
        raise FormatError(f"{path}: {len(blob) - end} trailing bytes after the pixels", offset=end)
    return np.frombuffer(blob, dtype=np.uint8, offset=off).reshape(height, width, channels)


def _write_pnm(path, magic, data):
    """A binary PNM file (maxval 255) of the uint8 array `data`, (H, W) or (H, W, 3)."""
    write_atomic(path, b"%s\n%d %d\n255\n" % (magic, data.shape[1], data.shape[0]) + data.tobytes())


def write_image(path, img):
    """Binary PPM (P6, maxval 255); values quantized by round(v * 255)."""
    img = np.clip(np.asarray(img, dtype=np.float64), 0.0, 1.0)
    _write_pnm(path, b"P6", np.rint(img * 255.0).astype(np.uint8))


def read_image(path):
    return _read_pnm(path, b"P6", 3).astype(np.float64) / 255.0


def write_label(path, lbl):
    """Binary PGM (P5, maxval 255); byte value equals the class id."""
    _write_pnm(path, b"P5", np.asarray(lbl, dtype=np.uint8))


def read_label(path, num_classes=None):
    data = _read_pnm(path, b"P5", 1)[:, :, 0].copy()
    if num_classes is not None:
        bad = (data >= num_classes) & (data != IGNORE)
        if bad.any():
            value = int(data[bad][0])
            raise ValidationError(f"{path}: label value {value} >= num_classes {num_classes}")
    return data


# --- dataset directories ------------------------------------------------------

def write_dataset(root, split, samples):
    """Write samples under <root>/<split>/ and a manifest at <root>/manifest.txt."""
    rels = [(os.path.join(split, f"img_{i}.ppm"), os.path.join(split, f"lbl_{i}.pgm"))
            for i in range(len(samples))]
    manifest = os.path.join(root, "manifest.txt")
    claim_outputs([os.path.join(root, rel) for pair in rels for rel in pair] + [manifest])
    os.makedirs(os.path.join(root, split), exist_ok=True)
    for (img_rel, lbl_rel), sample in zip(rels, samples):
        write_image(os.path.join(root, img_rel), sample.image)
        write_label(os.path.join(root, lbl_rel), sample.label)
    lines = [f"{img_rel}\t{lbl_rel}" for img_rel, lbl_rel in rels]
    write_atomic(manifest, ("\n".join(lines) + "\n").encode("utf-8"))


def read_dataset(root, num_classes=None, domain_tag=DomainTag.SOURCE):
    """Load every img/lbl pair listed in <root>/manifest.txt.

    Each non-blank manifest line is `<image path>\t<label path>`, relative
    to `root`. A line without the tab, a path that cannot be read, or a pair
    whose sizes differ, raises FormatError naming manifest.txt and the line.
    """
    manifest = os.path.join(root, "manifest.txt")
    if not os.path.exists(manifest):
        raise ArgumentError(f"no manifest.txt under {root}")
    samples = []
    with open(manifest, "rb") as f:
        note_read(f)
        for ln, raw in enumerate(f, start=1):
            where = f"{manifest}:{ln}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise FormatError(f"{where}: not UTF-8 ({exc.reason})") from exc
            if not line:
                continue
            img_rel, tab, lbl_rel = line.partition("\t")
            if not tab:
                raise FormatError(f"{where}: expected <image>TAB<label>, got {line!r}")
            if "\0" in line:
                raise FormatError(f"{where}: NUL byte in a path")
            try:
                image = read_image(os.path.join(root, img_rel))
                label = read_label(os.path.join(root, lbl_rel), num_classes)
            except OSError as exc:
                raise FormatError(f"{where}: {exc}") from exc
            if image.shape[:2] != label.shape:
                raise FormatError(
                    f"{where}: image {image.shape[:2]} and label {label.shape} sizes differ"
                )
            samples.append(DomainSample(image=image, label=label, domain_tag=domain_tag))
    return samples
