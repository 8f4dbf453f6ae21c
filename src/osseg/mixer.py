"""Class-mixed sampling for intermediate-domain randomization.

Half of the classes present in the donor (pseudo-target) label are sampled;
pixels of those classes are copied from the donor image onto the acceptor
(source) image, and the mixed label combines the donor's ground truth with
the acceptor's pseudo-label (or ground truth, for the ablation variant).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, EmptyLabelError
from .synthdata import IGNORE, DomainSample, DomainTag


@dataclass
class MixPair:
    donor: DomainSample  # pseudo-target sample, carries its ground-truth label
    acceptor: DomainSample  # source sample, must carry a pseudo-label

    def __post_init__(self):
        if self.donor.image.shape != self.acceptor.image.shape:
            raise DimensionError(
                f"donor {self.donor.image.shape} and acceptor "
                f"{self.acceptor.image.shape} sizes differ"
            )
        if self.donor.domain_tag is not DomainTag.PSEUDO_TARGET:
            raise ContractError(f"donor must be PSEUDO_TARGET, got {self.donor.domain_tag}")
        if self.acceptor.domain_tag is not DomainTag.SOURCE:
            raise ContractError(f"acceptor must be SOURCE, got {self.acceptor.domain_tag}")


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


def _mix_with_label(pair, mask, acceptor_label):
    mask = np.asarray(mask, dtype=np.uint8)
    if mask.shape != pair.donor.label.shape:
        raise DimensionError(
            f"mask {mask.shape} does not match sample {pair.donor.label.shape}"
        )
    sel = mask.astype(bool)
    image = np.where(sel[:, :, None], pair.donor.image, pair.acceptor.image)
    label = np.where(sel, pair.donor.label, acceptor_label).astype(np.uint8)
    return DomainSample(image=image, label=label, domain_tag=DomainTag.INTERMEDIATE)


def mix(pair, mask):
    """Pixel-exact selection: donor where mask==1, acceptor elsewhere.

    The mixed label takes the donor's ground truth on selected pixels and
    the acceptor's pseudo-label elsewhere; ignore values propagate from
    whichever side is selected.
    """
    if pair.acceptor.pseudo_label is None:
        raise ContractError("acceptor sample has no pseudo-label attached")
    return _mix_with_label(pair, mask, pair.acceptor.pseudo_label)


def mix_with_ground_truth(pair, mask):
    """Ablation variant: the acceptor contributes its ground-truth label."""
    return _mix_with_label(pair, mask, pair.acceptor.label)
