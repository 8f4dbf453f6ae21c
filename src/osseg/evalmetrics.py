"""Confusion-matrix evaluation: per-class IoU, mIoU and subset mIoU.

Rows index ground truth, columns index prediction. Classes whose union is
empty are reported as absent (None) and excluded from every mean rather
than scored 0 or 1.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, DimensionError, ValidationError
from .synthdata import IGNORE


@dataclass
class ConfusionMatrix:
    num_classes: int
    counts: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.counts is None:
            self.counts = np.zeros((self.num_classes, self.num_classes), dtype=np.int64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.shape != (self.num_classes, self.num_classes):
                raise DimensionError(
                    f"counts shape {self.counts.shape} != ({self.num_classes}, {self.num_classes})"
                )


@dataclass
class IoUReport:
    per_class: list  # float IoU per class, or None where the union is empty
    miou: float
    miou_subset: float


def accumulate(cm, pred, gt):
    """Add one prediction/ground-truth pair; ignore pixels are skipped."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise DimensionError(f"pred {pred.shape} and gt {gt.shape} shapes differ")
    n = cm.num_classes
    valid = gt != IGNORE
    g = gt[valid].astype(np.int64)
    p = pred[valid].astype(np.int64)
    if g.size and (g.max() >= n or p.max() >= n or g.min() < 0 or p.min() < 0):
        raise ValidationError(f"class id out of range for {n} classes")
    cm.counts += np.bincount(n * g + p, minlength=n * n).reshape(n, n)
    return cm


def iou_report(cm, subset=None):
    """IoU_c = tp / (row + col - tp); zero-union classes are excluded from means."""
    n = cm.num_classes
    subset = set() if subset is None else set(int(c) for c in subset)
    if any(c < 0 or c >= n for c in subset):
        raise ArgumentError(f"subset {sorted(subset)} out of range for {n} classes")
    tp = np.diag(cm.counts).astype(np.float64)
    union = cm.counts.sum(axis=1) + cm.counts.sum(axis=0) - np.diag(cm.counts)
    per_class = [float(tp[c] / union[c]) if union[c] > 0 else None for c in range(n)]
    scored = [v for v in per_class if v is not None]
    miou = float(np.mean(scored)) if scored else 0.0
    subset_scored = [per_class[c] for c in sorted(subset) if per_class[c] is not None]
    miou_subset = float(np.mean(subset_scored)) if subset_scored else 0.0
    return IoUReport(per_class=per_class, miou=miou, miou_subset=miou_subset)
