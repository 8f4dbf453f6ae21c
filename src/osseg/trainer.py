"""Mean-teacher self-training loop.

Each step trains the student on the stylized (pseudo-target) crop, on a
class-mixed intermediate crop labeled by the teacher's pseudo-labels, and
optionally on a cross-domain pass whose token queries come from a
conditioning branch. The teacher is an exponential moving average of the
student and is the model used for pseudo-labels and inference.

A step runs the student's forward pass at most once per image: every loss
term reads the trace of its image, and the cross-domain pass runs only its
decoder over two of those traces (see `segmodel.forward_cross`).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import mixer, segmodel, styletransfer
from .autograd import Tensor, cross_entropy_pixelwise
from .errors import ArgumentError, TrainingError
from .rng import derive_rng
from .segmodel import AttentionPairing, ModelConfig, build_class_bias, forward, forward_cross
from .synthdata import IGNORE, DomainSample, DomainTag

_BOOL_VALUES = {"true": True, "1": True, "false": False, "0": False}


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
        if self.lambda_cd < 0:
            raise ArgumentError("lambda_cd must be >= 0")
        if not 0.0 <= self.ema_alpha < 1.0:
            raise ArgumentError("ema_alpha must be in [0, 1)")
        if not 0.0 <= self.pseudo_label_threshold <= 1.0:
            raise ArgumentError("pseudo_label_threshold must be in [0, 1]")
        if self.batch < 1:
            raise ArgumentError(f"batch must be >= 1, got {self.batch}")
        if self.iterations < 0:
            raise ArgumentError(f"iterations must be >= 0, got {self.iterations}")
        if self.crop < 8 or self.crop % 8:
            raise ArgumentError(f"crop must be a positive multiple of 8, got {self.crop}")


_CONFIG_PARSERS = {
    "lambda_cd": float, "ema_alpha": float, "lr": float,
    "iterations": int, "batch": int, "crop": int, "seed": int,
    "pseudo_label_threshold": float,
    "use_ground_truth_mix": lambda s: _BOOL_VALUES[s.lower()],
    "use_idr": lambda s: _BOOL_VALUES[s.lower()],
    "pairing": AttentionPairing,
}


def parse_config_file(path):
    """UTF-8 `key = value` lines with exactly the TrainConfig field names."""
    fields = {}
    with open(path, "r", encoding="utf-8") as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or key not in _CONFIG_PARSERS:
                raise ArgumentError(f"{path}:{ln}: unknown config line {line!r}")
            try:
                fields[key] = _CONFIG_PARSERS[key](value)
            except (ValueError, KeyError) as exc:
                raise ArgumentError(f"{path}:{ln}: bad value for {key}: {value!r}") from exc
    return TrainConfig(**fields)


@dataclass
class LossReport:
    l_pt: float
    l_idr: float
    l_cd: float
    l_total: float
    l_src: float = None


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(t.data) for k, t in params.tensors.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.tensors.items()}

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.tensors.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= self.lr * (update + self.weight_decay * p.data)


def ema_update(teacher, student, alpha):
    """theta' <- alpha * theta' + (1 - alpha) * theta, elementwise."""
    for name, t in teacher.tensors.items():
        t.data *= alpha
        t.data += (1.0 - alpha) * student.tensors[name].data


def pseudo_label(teacher, img, threshold=0.0):
    """Teacher argmax per pixel; low-confidence pixels become IGNORE.

    Ties break to the lowest class id. No gradients flow: the teacher's
    tensors are constants, so the forward pass records no graph.
    """
    logits = forward(teacher, img).logits.data
    pred = logits.argmax(axis=0).astype(np.uint8)
    if threshold > 0.0:
        shifted = np.exp(logits - logits.max(axis=0, keepdims=True))
        maxp = shifted.max(axis=0) / shifted.sum(axis=0)
        pred[maxp < threshold] = IGNORE
    return pred


def _crop(arr, top, left, size):
    return arr[top:top + size, left:left + size]


def _crop_positions(rng, h, w, size):
    top = int(rng.integers(0, h - size + 1))
    left = int(rng.integers(0, w - size + 1))
    return top, left


def _batch_mean(terms):
    if not terms:
        return Tensor(np.zeros(()))
    total = terms[0]
    for t in terms[1:]:
        total = ag.add(total, t)
    return ag.scale(total, 1.0 / len(terms))


def _check_finite(value, term, step):
    if not math.isfinite(value):
        raise TrainingError(f"step {step}: loss term {term} is non-finite ({value})")


def train_step(student, teacher, batch_src, batch_pt, batch_acceptor, rng, cfg,
               optimizer, step=0):
    """One optimization step over an aligned batch.

    `batch_src[b]` and `batch_pt[b]` share the same index i (the source
    image and its stylized twin); `batch_acceptor[b]` is the independently
    drawn source sample j. Returns the LossReport for this step.

    Per sample, the student traces the pseudo-target crop, the mixed crop
    (when IDR or the pairing needs it) and the source crop (variants only)
    once each; the cross pass and the loss terms share those traces.
    """
    n = student.config.num_classes
    size = cfg.crop
    need_mix = cfg.use_idr or cfg.pairing in (
        AttentionPairing.OURS_PT_TO_INTERMEDIATE, AttentionPairing.VARIANT_S,
    )
    pt_terms, idr_terms, cd_terms, src_terms = [], [], [], []
    for src_i, pt_i, src_j in zip(batch_src, batch_pt, batch_acceptor):
        h, w = src_i.label.shape
        dt, dl = _crop_positions(rng, h, w, size)
        at, al = _crop_positions(rng, h, w, size)
        pt_img = _crop(pt_i.image, dt, dl, size)
        y_i = _crop(pt_i.label, dt, dl, size)
        src_i_img = _crop(src_i.image, dt, dl, size)
        acc_img = _crop(src_j.image, at, al, size)
        acc_gt = _crop(src_j.label, at, al, size)

        pt_trace = forward(student, pt_img)
        pt_terms.append(cross_entropy_pixelwise(pt_trace.logits, y_i))

        sampled = None
        if need_mix or cfg.pairing is not AttentionPairing.NONE:
            sampled = mixer.sample_classes(y_i, rng)
        mixed = mixed_trace = None
        if need_mix:
            acc_pl = pseudo_label(teacher, acc_img, cfg.pseudo_label_threshold)
            pair = mixer.MixPair(
                donor=DomainSample(pt_img, y_i, DomainTag.PSEUDO_TARGET),
                acceptor=DomainSample(acc_img, acc_gt, DomainTag.SOURCE, pseudo_label=acc_pl),
            )
            mask = mixer.build_mask(y_i, sampled)
            if cfg.use_ground_truth_mix:
                mixed = mixer.mix_with_ground_truth(pair, mask)
            else:
                mixed = mixer.mix(pair, mask)
            mixed_trace = forward(student, mixed.image)
        if cfg.use_idr:
            idr_terms.append(cross_entropy_pixelwise(mixed_trace.logits, mixed.label))

        if cfg.pairing is not AttentionPairing.NONE:
            bias = build_class_bias(n, sampled.classes)
            if cfg.pairing is AttentionPairing.OURS_PT_TO_INTERMEDIATE:
                main, cond, cd_label = mixed_trace, pt_trace, mixed.label
            elif cfg.pairing is AttentionPairing.VARIANT_S:
                main, cond, cd_label = mixed_trace, forward(student, src_i_img), mixed.label
            else:  # VARIANT_ST: source conditions the pseudo-target branch
                cond = forward(student, src_i_img)
                src_terms.append(cross_entropy_pixelwise(cond.logits, y_i))
                main, cd_label = pt_trace, y_i
            trace = forward_cross(student, main, cond, bias)
            cd_terms.append(cross_entropy_pixelwise(trace.logits, cd_label))

    l_pt = _batch_mean(pt_terms)
    l_idr = _batch_mean(idr_terms) if cfg.use_idr else Tensor(np.zeros(()))
    l_cd = _batch_mean(cd_terms) if cd_terms else Tensor(np.zeros(()))
    total = ag.add(ag.add(l_pt, l_idr), ag.scale(l_cd, cfg.lambda_cd))
    l_src = None
    if cfg.pairing is AttentionPairing.VARIANT_ST:
        l_src = _batch_mean(src_terms)
        total = ag.add(total, l_src)

    report = LossReport(
        l_pt=l_pt.item(), l_idr=l_idr.item(), l_cd=l_cd.item(), l_total=total.item(),
        l_src=l_src.item() if l_src is not None else None,
    )
    _check_finite(report.l_pt, "l_pt", step)
    _check_finite(report.l_idr, "l_idr", step)
    _check_finite(report.l_cd, "l_cd", step)
    _check_finite(report.l_total, "l_total", step)

    student.zero_grad()
    ag.backward(total)
    optimizer.step()
    ema_update(teacher, student, cfg.ema_alpha)
    return report


@dataclass
class TrainData:
    source: list
    reference: np.ndarray = None
    pseudo_target: list = None


def train(cfg, data, model_config=None):
    """Run the full loop; returns (teacher params, per-step LossReports).

    The pseudo-target set is built on the fly from the one-shot reference
    when not supplied. Fully deterministic given cfg.seed.
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
    if cfg.crop > min(h, w):
        raise ArgumentError(f"crop {cfg.crop} exceeds image size {h}x{w}")

    model_config = model_config or ModelConfig(attention_pairing=cfg.pairing)
    student = segmodel.init_params(model_config, seed=cfg.seed).trainable(True)
    teacher = student.copy()  # starts as an exact copy, never sees gradients
    optimizer = AdamW(student, lr=cfg.lr)
    sample_rng = derive_rng(cfg.seed, "sampling")
    step_rng = derive_rng(cfg.seed, "step")

    count = len(data.source)
    log = []
    for step in range(cfg.iterations):
        idx_i = sample_rng.integers(0, count, size=cfg.batch)
        idx_j = sample_rng.integers(0, count, size=cfg.batch)
        report = train_step(
            student, teacher,
            [data.source[i] for i in idx_i],
            [pseudo[i] for i in idx_i],
            [data.source[j] for j in idx_j],
            step_rng, cfg, optimizer, step=step,
        )
        log.append(report)
    return teacher, log
