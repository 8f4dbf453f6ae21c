"""Mean-teacher self-training loop.

Each step trains the student on the stylized (pseudo-target) crop, on a
class-mixed intermediate crop labeled by the teacher's pseudo-labels, and
optionally on a cross-domain pass whose token queries come from a
conditioning branch. The teacher is an exponential moving average of the
student and is the model used for pseudo-labels and inference.

A step first lets the teacher pseudo-label the acceptor crops and builds
the mixed crops, then makes one student call over every crop it needs
(pseudo-target, mixed, and source for the variants) plus one cross-domain
block per sample (see `segmodel.forward_cross`): each crop's trunk, image
keys and values are computed once, and every loss term reads its block's
logits.
"""

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from . import autograd as ag
from . import mixer, segmodel, styletransfer
from .autograd import Tensor, cross_entropy_pixelwise
from .errors import ArgumentError, NumericError, TrainingError
from .rng import derive_rng
from .segmodel import ModelConfig, build_class_bias, forward, forward_cross
from .synthdata import DomainSample, DomainTag

_BOOL_VALUES = {"true": True, "1": True, "false": False, "0": False}

# A full training run at batch 64 and crop 64 peaks near 1 GiB resident (see README).
MAX_BATCH = 64


class AttentionPairing(Enum):
    """Which crops fill the two slots of each `segmodel.forward_cross` entry.

    Each sample's cross block runs over its main crop, with the token
    queries of its conditioning crop's own block in the same student call.
    The main crop is the intermediate (mixed) crop for
    OURS_PT_TO_INTERMEDIATE and VARIANT_S and the pseudo-target crop for
    VARIANT_ST; the conditioning crop is the pseudo-target crop for
    OURS_PT_TO_INTERMEDIATE and the source crop for both variants. NONE
    adds no cross block.
    """

    NONE = "none"
    OURS_PT_TO_INTERMEDIATE = "ours_pt_to_intermediate"
    VARIANT_ST = "variant_st"
    VARIANT_S = "variant_s"


@dataclass
class TrainConfig:
    lambda_cd: float = 0.01
    ema_alpha: float = 0.99
    lr: float = 1e-3
    iterations: int = 2000
    batch: int = 2
    crop: int = 32
    seed: int = 0
    pseudo_label_threshold: float = 0.0
    use_ground_truth_mix: bool = False
    use_idr: bool = True
    pairing: AttentionPairing = AttentionPairing.NONE

    def __post_init__(self):
        if isinstance(self.pairing, str):
            self.pairing = AttentionPairing(self.pairing)
        if not (math.isfinite(self.lambda_cd) and self.lambda_cd >= 0):
            raise ArgumentError(f"lambda_cd must be finite and >= 0, got {self.lambda_cd}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ArgumentError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.ema_alpha < 1.0:
            raise ArgumentError("ema_alpha must be in [0, 1)")
        if not 0.0 <= self.pseudo_label_threshold <= 1.0:
            raise ArgumentError("pseudo_label_threshold must be in [0, 1]")
        if not 1 <= self.batch <= MAX_BATCH:
            raise ArgumentError(f"batch must be in [1, {MAX_BATCH}], got {self.batch}")
        if self.iterations < 0:
            raise ArgumentError(f"iterations must be >= 0, got {self.iterations}")
        if self.crop < 8 or self.crop % 8:
            raise ArgumentError(f"crop must be a positive multiple of 8, got {self.crop}")


_CONFIG_PARSERS = {f.name: (lambda s: _BOOL_VALUES[s.lower()]) if f.type is bool else f.type
                   for f in fields(TrainConfig)}


def parse_config_file(path):
    """UTF-8 `key = value` lines, each naming a TrainConfig field at most once."""
    values = {}
    with open(path, "rb") as f:
        segmodel.note_read(f)
        for ln, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ArgumentError(f"{path}:{ln}: not UTF-8 ({exc.reason})") from exc
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or key not in _CONFIG_PARSERS:
                raise ArgumentError(f"{path}:{ln}: unknown config line {line!r}")
            if key in values:
                raise ArgumentError(f"{path}:{ln}: {key} is set twice")
            try:
                values[key] = _CONFIG_PARSERS[key](value)
            except (ValueError, KeyError) as exc:
                raise ArgumentError(f"{path}:{ln}: bad value for {key}: {value!r}") from exc
    return TrainConfig(**values)


@dataclass
class LossReport:
    l_pt: float
    l_idr: float
    l_cd: float
    l_total: float
    l_src: float = None


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    Works on the flat value and gradient vectors of trainable parameters
    (see `segmodel.ModelParams`): one pass of in-place whole-vector
    operations per step, through two preallocated scratch vectors. Each
    elementwise product and sum is taken in the order the comments give,
    so the result is bit-identical to that formula applied per tensor.
    A second moment that overflows raises NumericError before the
    parameters move.
    """

    beta1, beta2, eps, weight_decay = 0.9, 0.999, 1e-8, 0.01

    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self._a = np.empty_like(params.flat)
        self._b = np.empty_like(params.flat)

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        p, g, m, v, a, b = (self.params.flat, self.params.grad, self.m, self.v,
                            self._a, self._b)
        # m = beta1*m + (1-beta1)*g and v = beta2*v + ((1-beta2)*g)*g
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=a)
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=a)
        v += np.multiply(a, g, out=a)
        if not np.isfinite(v).all():
            raise NumericError("AdamW second moment overflowed")
        # update = (m/bc1) / (sqrt(v/bc2) + eps); p -= lr*(update + wd*p)
        np.sqrt(np.divide(v, bc2, out=a), out=a)
        a += self.eps
        np.divide(m, bc1, out=b)
        b /= a
        b += np.multiply(p, self.weight_decay, out=a)
        p -= np.multiply(b, self.lr, out=b)


def ema_update(teacher, student, alpha):
    """theta' <- alpha * theta' + (1 - alpha) * theta, over the flat vectors."""
    teacher.flat *= alpha
    teacher.flat += (1.0 - alpha) * student.flat


def pseudo_label(teacher, imgs, threshold=0.0):
    """The teacher's `segmodel.label_maps` of a list of crops, in one pass.

    Low-confidence pixels become IGNORE. No gradients flow: the teacher's
    tensors are constants, so the forward pass records no graph.
    """
    return segmodel.label_maps(teacher, imgs, threshold)


def _crop_window(rng, shape, size):
    """A uniformly drawn size x size window of an image of `shape`, as a 2-D slice."""
    top = int(rng.integers(0, shape[0] - size + 1))
    left = int(rng.integers(0, shape[1] - size + 1))
    return np.s_[top:top + size, left:left + size]


@dataclass
class SampleCrops:
    """One sample's crops of a step; `mask` and `mixed` are set when the step mixes,
    `pseudo_label` (the teacher's, of the acceptor crop) when it mixes with
    pseudo-labels, `classes` when it samples classes."""

    donor: DomainSample
    source: np.ndarray
    acceptor: DomainSample
    classes: frozenset = None
    pseudo_label: np.ndarray = None
    mask: np.ndarray = None
    mixed: DomainSample = None


def build_crops(teacher, batch_src, batch_pt, batch_acceptor, rng, cfg):
    """One step's crops, sampled classes and class-mixed crops: a SampleCrops per sample.

    Every sample's crop windows and sampled classes (when the IDR loss or
    the pairing reads them) are drawn first, in sample order. Then, when
    IDR or the pairing needs a mixed crop, each mixed crop is built. Unless
    the mix takes the acceptor's ground truth (`use_ground_truth_mix`), the
    teacher first labels the acceptor crops in one pass.
    """
    crops = []
    for src_i, pt_i, src_j in zip(batch_src, batch_pt, batch_acceptor):
        d = _crop_window(rng, src_i.label.shape, cfg.crop)
        a = _crop_window(rng, src_j.label.shape, cfg.crop)
        c = SampleCrops(
            donor=DomainSample(pt_i.image[d], pt_i.label[d], DomainTag.PSEUDO_TARGET),
            source=src_i.image[d],
            acceptor=DomainSample(src_j.image[a], src_j.label[a], DomainTag.SOURCE),
        )
        if cfg.use_idr or cfg.pairing is not AttentionPairing.NONE:
            c.classes = mixer.sample_classes(c.donor.label, rng)
        crops.append(c)
    if cfg.use_idr or cfg.pairing in (AttentionPairing.OURS_PT_TO_INTERMEDIATE,
                                      AttentionPairing.VARIANT_S):
        pls = ([None] * len(crops) if cfg.use_ground_truth_mix else pseudo_label(
            teacher, [c.acceptor.image for c in crops], cfg.pseudo_label_threshold))
        for c, pl in zip(crops, pls):
            c.pseudo_label = pl
            c.mask = mixer.build_mask(c.donor.label, c.classes)
            c.mixed = mixer.mix(c.donor, c.acceptor, c.mask, c.acceptor.label if pl is None else pl)
    return crops


def _mean_loss(logits, labels):
    """Mean pixelwise cross-entropy over the blocks; a constant 0 for none."""
    if not logits:
        return Tensor(np.zeros(()))
    total = cross_entropy_pixelwise(logits[0], labels[0])
    for x, y in zip(logits[1:], labels[1:]):
        total = ag.add(total, cross_entropy_pixelwise(x, y))
    return ag.scale(total, 1.0 / len(logits))


def step_loss(student, teacher, batch_src, batch_pt, batch_acceptor, rng, cfg):
    """The loss graph of one step over an aligned batch: (total, LossReport).

    `batch_src[b]` and `batch_pt[b]` share the same index i (the source
    image and its stylized twin); `batch_acceptor[b]` is the independently
    drawn source sample j. `total` is `l_pt + l_idr + lambda_cd * l_cd`,
    plus `l_src` for VARIANT_ST.

    After `build_crops`, one student call runs over the pseudo-target
    crops, the mixed crops, the source crops (variants only) and one cross
    block per sample; every loss term reads its blocks' logits.
    """
    n = student.config.num_classes
    crops = build_crops(teacher, batch_src, batch_pt, batch_acceptor, rng, cfg)
    batch = len(crops)
    labels = [c.donor.label for c in crops]
    mixed = [c.mixed for c in crops if c.mixed is not None]
    mixed_labels = [m.label for m in mixed]
    imgs = [c.donor.image for c in crops] + [m.image for m in mixed]
    src_at = len(imgs)
    if cfg.pairing in (AttentionPairing.VARIANT_ST, AttentionPairing.VARIANT_S):
        imgs += [c.source for c in crops]

    # Cross entries (main, cond, bias): the mixed crops start at `batch`.
    cross, cd_labels = [], []
    if cfg.pairing is not AttentionPairing.NONE:
        main_at, cond_at, cd_labels = {
            AttentionPairing.OURS_PT_TO_INTERMEDIATE: (batch, 0, mixed_labels),
            AttentionPairing.VARIANT_S: (batch, src_at, mixed_labels),
            AttentionPairing.VARIANT_ST: (0, src_at, labels),
        }[cfg.pairing]
        cross = [(main_at + b, cond_at + b, build_class_bias(n, c.classes))
                 for b, c in enumerate(crops)]
    logits = forward_cross(student, imgs, cross) if cross else forward(student, imgs)

    l_pt = _mean_loss(logits[:batch], labels)
    l_idr = _mean_loss(logits[batch:2 * batch] if cfg.use_idr else [], mixed_labels)
    l_cd = _mean_loss(logits[len(imgs):], cd_labels)
    total = ag.add(ag.add(l_pt, l_idr), ag.scale(l_cd, cfg.lambda_cd))
    l_src = None
    if cfg.pairing is AttentionPairing.VARIANT_ST:
        l_src = _mean_loss(logits[src_at:src_at + batch], labels)
        total = ag.add(total, l_src)

    report = LossReport(
        l_pt=l_pt.item(), l_idr=l_idr.item(), l_cd=l_cd.item(), l_total=total.item(),
        l_src=l_src.item() if l_src is not None else None,
    )
    return total, report


def train_step(student, teacher, batch_src, batch_pt, batch_acceptor, rng, cfg,
               optimizer, step=0):
    """One optimization step over `step_loss`; returns its LossReport.

    A diverging step raises TrainingError naming the step: a non-finite
    loss term, a NaN reaching an attention softmax, a non-finite gradient
    or an overflowing AdamW second moment. Those whole-vector checks stand
    in for numpy's per-op floating-point warnings, which are silenced here.
    """
    with np.errstate(all="ignore"):
        try:
            total, report = step_loss(student, teacher, batch_src, batch_pt, batch_acceptor,
                                      rng, cfg)
            for f in fields(report):
                value = getattr(report, f.name)
                if value is not None and not math.isfinite(value):
                    raise TrainingError(f"step {step}: loss term {f.name} is non-finite ({value})")
            student.zero_grad()
            ag.backward(total)
            if not np.isfinite(student.grad).all():
                raise NumericError("non-finite gradient")
            optimizer.step()
        except NumericError as exc:
            raise TrainingError(f"step {step}: {exc}") from exc
        ema_update(teacher, student, cfg.ema_alpha)
    return report


@dataclass
class TrainData:
    source: list
    reference: np.ndarray = None
    pseudo_target: list = None


def prepare_data(cfg, data):
    """(source, pseudo-target) lists of one image size that a `cfg.crop` crop fits.

    The pseudo-target set is built on the fly from the one-shot reference
    when `data` holds none.
    """
    if not data.source:
        raise ArgumentError("source dataset is empty")
    pseudo = data.pseudo_target
    if pseudo is None:
        if data.reference is None:
            raise ArgumentError("need either a prebuilt pseudo-target set or a reference image")
        pseudo = styletransfer.build_pseudo_target(data.source, data.reference)
    if len(pseudo) != len(data.source):
        raise ArgumentError(
            f"{len(pseudo)} pseudo-target samples for {len(data.source)} source samples"
        )
    h, w = data.source[0].label.shape
    for name, samples in (("source", data.source), ("pseudo-target", pseudo)):
        for k, sample in enumerate(samples):
            if sample.label.shape != (h, w):
                raise ArgumentError(f"{name} sample {k} is not {h}x{w} like source sample 0")
    if cfg.crop > min(h, w):
        raise ArgumentError(f"crop {cfg.crop} exceeds image size {h}x{w}")
    return data.source, pseudo


def step_draws(cfg, source, pseudo):
    """Each step's (i, j, source[i], pseudo[i], source[j], rng) of a run, without end.

    A step draws `cfg.batch` indices i, then j, from the seed's `sampling`
    stream; `rng` is its one `step` stream, which every step's `build_crops`
    draws its crops and classes from in turn.
    """
    sample_rng = derive_rng(cfg.seed, "sampling")
    step_rng = derive_rng(cfg.seed, "step")
    while True:
        idx_i = sample_rng.integers(0, len(source), size=cfg.batch)
        idx_j = sample_rng.integers(0, len(source), size=cfg.batch)
        yield (idx_i, idx_j, [source[i] for i in idx_i], [pseudo[i] for i in idx_i],
               [source[j] for j in idx_j], step_rng)


def train(cfg, data, model_config=None):
    """Run the full loop; returns (teacher params, per-step LossReports).

    Fully deterministic given cfg.seed: each step takes its samples, crops
    and classes from `step_draws`.
    """
    source, pseudo = prepare_data(cfg, data)
    model_config = model_config or ModelConfig()
    student = segmodel.init_params(model_config, seed=cfg.seed).trainable(True)
    teacher = student.copy()  # starts as an exact copy, never sees gradients
    optimizer = AdamW(student, lr=cfg.lr)
    draws = step_draws(cfg, source, pseudo)
    log = []
    for step in range(cfg.iterations):
        _, _, *batches, rng = next(draws)
        log.append(train_step(student, teacher, *batches, rng, cfg, optimizer, step=step))
    return teacher, log
