"""Class-mixed sampling for intermediate-domain randomization.

Half of the classes present in the donor (pseudo-target) label are sampled;
pixels of those classes are copied from the donor image onto the acceptor
(source) image, and the mixed label combines the donor's ground truth with
the acceptor's pseudo-label (or ground truth, for the ablation variant).
"""

import numpy as np

from .errors import DimensionError, EmptyLabelError
from .synthdata import IGNORE, DomainSample, DomainTag


def sample_classes(label, rng):
    """Frozenset of ceil(k/2) of the k present classes, drawn uniformly without replacement."""
    candidates = [int(v) for v in np.unique(label) if v != IGNORE]
    k = len(candidates)
    if k == 0:
        raise EmptyLabelError("label contains no non-ignore pixels")
    take = (k + 1) // 2
    chosen = rng.choice(np.asarray(candidates), size=take, replace=False)
    return frozenset(int(c) for c in chosen)


def build_mask(label, classes):
    """Binary mask: 1 where the label's class is sampled, 0 elsewhere (incl. ignore)."""
    mask = np.isin(label, sorted(classes)) & (label != IGNORE)
    return mask.astype(np.uint8)


def mix(donor, acceptor, mask, acceptor_label):
    """Pixel-exact selection: donor where mask==1, acceptor elsewhere.

    The mixed label takes the donor's ground truth on selected pixels and
    `acceptor_label` (the teacher's pseudo-label, or the acceptor's ground
    truth for the ablation variant) elsewhere; ignore values propagate from
    whichever side is selected.
    """
    mask = np.asarray(mask, dtype=np.uint8)
    if donor.image.shape != acceptor.image.shape or mask.shape != donor.label.shape:
        raise DimensionError(f"donor {donor.image.shape}, acceptor {acceptor.image.shape} "
                             f"and mask {mask.shape} sizes differ")
    sel = mask.astype(bool)
    image = np.where(sel[:, :, None], donor.image, acceptor.image)
    label = np.where(sel, donor.label, acceptor_label).astype(np.uint8)
    return DomainSample(image=image, label=label, domain_tag=DomainTag.INTERMEDIATE)
