import numpy as np
import pytest

from osseg.errors import DimensionError, EmptyLabelError
from osseg.mixer import build_mask, mix, sample_classes
from osseg.synthdata import IGNORE, DomainSample, DomainTag


def make_pair(rng, size=8, n=5):
    """(donor, acceptor, the acceptor's pseudo-label)."""
    donor = DomainSample(
        image=rng.random((size, size, 3)),
        label=rng.integers(0, n, (size, size)).astype(np.uint8),
        domain_tag=DomainTag.PSEUDO_TARGET,
    )
    acceptor = DomainSample(
        image=rng.random((size, size, 3)),
        label=rng.integers(0, n, (size, size)).astype(np.uint8),
        domain_tag=DomainTag.SOURCE,
    )
    return donor, acceptor, rng.integers(0, n, (size, size)).astype(np.uint8)


class TestSampleClasses:
    def test_single_class_is_forced(self):
        label = np.full((4, 4), 3, dtype=np.uint8)
        out = sample_classes(label, np.random.default_rng(0))
        assert out == frozenset({3})
        assert type(out) is frozenset and all(type(c) is int for c in out)

    def test_three_classes_give_two(self):
        label = np.array([[0, 1], [2, 0]], dtype=np.uint8)
        out = sample_classes(label, np.random.default_rng(1))
        assert len(out) == 2
        assert out <= {0, 1, 2}

    def test_all_ignore_raises(self):
        with pytest.raises(EmptyLabelError):
            sample_classes(np.full((2, 2), IGNORE, dtype=np.uint8), np.random.default_rng(2))

    def test_uniform_over_subsets(self):
        # 2-subsets of 4 classes: each class has marginal p=1/2.
        label = np.arange(4, dtype=np.uint8).reshape(2, 2)
        rng = np.random.default_rng(3)
        counts = np.zeros(4)
        draws = 10000
        for _ in range(draws):
            for c in sample_classes(label, rng):
                counts[c] += 1
        sigma = np.sqrt(draws * 0.25)
        assert np.all(np.abs(counts - draws / 2) <= 3 * sigma)

    def test_deterministic_given_rng_state(self):
        label = np.arange(4, dtype=np.uint8).reshape(2, 2)
        a = sample_classes(label, np.random.default_rng(7))
        b = sample_classes(label, np.random.default_rng(7))
        assert a == b

    def test_ignore_not_a_candidate(self):
        label = np.array([[0, IGNORE], [IGNORE, IGNORE]], dtype=np.uint8)
        out = sample_classes(label, np.random.default_rng(4))
        assert out == frozenset({0})


class TestBuildMask:
    def test_single_class(self):
        label = np.array([[0, 1], [2, 1]], dtype=np.uint8)
        mask = build_mask(label, frozenset({1}))
        assert np.array_equal(mask, [[0, 1], [0, 1]])

    def test_empty_set(self):
        label = np.array([[0, 1], [2, 1]], dtype=np.uint8)
        assert not build_mask(label, frozenset()).any()

    def test_all_present_classes(self):
        label = np.array([[0, 1], [2, 1]], dtype=np.uint8)
        assert build_mask(label, frozenset({0, 1, 2})).all()

    def test_ignore_pixels_get_zero(self):
        label = np.array([[1, IGNORE]], dtype=np.uint8)
        mask = build_mask(label, frozenset({1}))
        assert np.array_equal(mask, [[1, 0]])


class TestMix:
    def test_all_ones_mask_gives_donor(self):
        donor, acceptor, pl = make_pair(np.random.default_rng(0))
        out = mix(donor, acceptor, np.ones((8, 8), dtype=np.uint8), pl)
        assert np.array_equal(out.image, donor.image)
        assert np.array_equal(out.label, donor.label)
        assert out.domain_tag is DomainTag.INTERMEDIATE

    def test_all_zeros_mask_gives_acceptor(self):
        donor, acceptor, pl = make_pair(np.random.default_rng(1))
        out = mix(donor, acceptor, np.zeros((8, 8), dtype=np.uint8), pl)
        assert np.array_equal(out.image, acceptor.image)
        assert np.array_equal(out.label, pl)

    def test_per_pixel_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            donor, acceptor, pl = make_pair(rng)
            mask = rng.integers(0, 2, (8, 8)).astype(np.uint8)
            out = mix(donor, acceptor, mask, pl)
            for i in range(8):
                for j in range(8):
                    if mask[i, j]:
                        assert np.array_equal(out.image[i, j], donor.image[i, j])
                        assert out.label[i, j] == donor.label[i, j]
                    else:
                        assert np.array_equal(out.image[i, j], acceptor.image[i, j])
                        assert out.label[i, j] == pl[i, j]

    def test_size_mismatch_raises(self):
        donor, acceptor, pl = make_pair(np.random.default_rng(3))
        small, _, _ = make_pair(np.random.default_rng(3), size=4)
        with pytest.raises(DimensionError):
            mix(donor, small, np.zeros((8, 8), dtype=np.uint8), pl)
        with pytest.raises(DimensionError):
            mix(donor, acceptor, np.zeros((4, 4), dtype=np.uint8), pl)

    def test_ignore_propagates_from_selected_side(self):
        donor, acceptor, pl = make_pair(np.random.default_rng(4))
        pl[0, 0] = IGNORE
        out = mix(donor, acceptor, np.zeros((8, 8), dtype=np.uint8), pl)
        assert out.label[0, 0] == IGNORE

    def test_selection_is_idempotent(self):
        rng = np.random.default_rng(5)
        donor, acceptor, pl = make_pair(rng)
        mask = rng.integers(0, 2, (8, 8)).astype(np.uint8)
        once = mix(donor, acceptor, mask, pl)
        again = DomainSample(image=once.image, label=acceptor.label, domain_tag=DomainTag.SOURCE)
        twice = mix(donor, again, mask, once.label)
        assert np.array_equal(once.image, twice.image)
        assert np.array_equal(once.label, twice.label)

    def test_masked_pixels_hold_sampled_classes(self):
        rng = np.random.default_rng(6)
        donor, acceptor, pl = make_pair(rng)
        sampled = sample_classes(donor.label, rng)
        mask = build_mask(donor.label, sampled)
        out = mix(donor, acceptor, mask, pl)
        values = set(int(v) for v in np.unique(out.label[mask.astype(bool)]))
        assert values <= set(sampled) | {IGNORE}

    def test_no_invented_class_ids(self):
        rng = np.random.default_rng(7)
        donor, acceptor, pl = make_pair(rng)
        mask = rng.integers(0, 2, (8, 8)).astype(np.uint8)
        out = mix(donor, acceptor, mask, pl)
        allowed = set(np.unique(donor.label)) | set(np.unique(pl))
        assert set(np.unique(out.label)) <= allowed


class TestMixWithGroundTruth:
    def test_all_zeros_gives_acceptor_ground_truth(self):
        donor, acceptor, _ = make_pair(np.random.default_rng(8))
        out = mix(donor, acceptor, np.zeros((8, 8), dtype=np.uint8), acceptor.label)
        assert np.array_equal(out.label, acceptor.label)

    def test_all_ones_identical_to_mix(self):
        donor, acceptor, pl = make_pair(np.random.default_rng(9))
        ones = np.ones((8, 8), dtype=np.uint8)
        a = mix(donor, acceptor, ones, pl)
        b = mix(donor, acceptor, ones, acceptor.label)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.label, b.label)

    def test_differs_exactly_where_pseudo_disagrees_and_unmasked(self):
        rng = np.random.default_rng(10)
        donor, acceptor, pl = make_pair(rng)
        mask = rng.integers(0, 2, (8, 8)).astype(np.uint8)
        a = mix(donor, acceptor, mask, pl)
        b = mix(donor, acceptor, mask, acceptor.label)
        diff = a.label != b.label
        expected = (mask == 0) & (pl != acceptor.label)
        assert np.array_equal(diff, expected)
        assert np.array_equal(a.image, b.image)
