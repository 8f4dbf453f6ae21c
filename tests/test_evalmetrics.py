import numpy as np
import pytest

from osseg.errors import ArgumentError, DimensionError, ValidationError
from osseg.evalmetrics import ConfusionMatrix, accumulate, iou_report
from osseg.synthdata import IGNORE


def iou_oracle(counts):
    """Direct-formula IoU per class; None where the union is empty."""
    n = counts.shape[0]
    out = []
    for c in range(n):
        tp = counts[c, c]
        union = counts[c, :].sum() + counts[:, c].sum() - tp
        out.append(tp / union if union > 0 else None)
    return out


class TestAccumulate:
    def test_perfect_prediction(self):
        cm = ConfusionMatrix(2)
        pred = np.zeros((2, 2), dtype=np.uint8)
        accumulate(cm, pred, pred)
        assert cm.counts[0, 0] == 4
        assert cm.counts.sum() == 4

    def test_all_ignore_leaves_matrix_unchanged(self):
        cm = ConfusionMatrix(3)
        gt = np.full((4, 4), IGNORE, dtype=np.uint8)
        accumulate(cm, np.zeros((4, 4), dtype=np.uint8), gt)
        assert not cm.counts.any()

    def test_matches_per_pixel_count_oracle(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 3, (8, 8)).astype(np.uint8)
        gt = rng.integers(0, 3, (8, 8)).astype(np.uint8)
        gt[0, :3] = IGNORE
        cm = accumulate(ConfusionMatrix(3), pred, gt)
        expect = np.zeros((3, 3), dtype=np.int64)
        for i in range(8):
            for j in range(8):
                if gt[i, j] != IGNORE:
                    expect[gt[i, j], pred[i, j]] += 1
        assert np.array_equal(cm.counts, expect)

    def test_out_of_range_class_rejected(self):
        cm = ConfusionMatrix(2)
        with pytest.raises(ValidationError):
            accumulate(cm, np.array([[5]], dtype=np.uint8), np.array([[0]], dtype=np.uint8))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            accumulate(ConfusionMatrix(2), np.zeros((2, 2)), np.zeros((3, 3)))

    def test_accumulation_order_independent(self):
        rng = np.random.default_rng(1)
        pairs = [
            (rng.integers(0, 3, (4, 4)).astype(np.uint8), rng.integers(0, 3, (4, 4)).astype(np.uint8))
            for _ in range(5)
        ]
        a = ConfusionMatrix(3)
        for p, g in pairs:
            accumulate(a, p, g)
        b = ConfusionMatrix(3)
        for p, g in reversed(pairs):
            accumulate(b, p, g)
        assert np.array_equal(a.counts, b.counts)


class TestIoUReport:
    def test_perfect_prediction_scores_one(self):
        cm = ConfusionMatrix(3, counts=np.diag([4, 5, 6]))
        report = iou_report(cm)
        assert report.per_class == [1.0, 1.0, 1.0]
        assert report.miou == 1.0

    def test_disjoint_prediction_scores_zero(self):
        counts = np.array([[0, 3], [2, 5]])
        report = iou_report(ConfusionMatrix(2, counts=counts))
        assert report.per_class[0] == 0.0

    def test_hand_case(self):
        cm = ConfusionMatrix(2, counts=np.array([[2, 1], [1, 2]]))
        report = iou_report(cm)
        assert report.per_class == [0.5, 0.5]
        assert report.miou == 0.5

    def test_absent_class_excluded_from_mean(self):
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[0, 0] = 4
        counts[1, 1] = 2
        counts[1, 0] = 2
        report = iou_report(ConfusionMatrix(3, counts=counts))
        assert report.per_class[2] is None
        assert abs(report.miou - np.mean([4 / 6, 0.5])) < 1e-15

    def test_subset_mean(self):
        cm = ConfusionMatrix(3, counts=np.diag([1, 1, 1]))
        report = iou_report(cm, subset={0, 2})
        assert report.miou_subset == 1.0

    def test_subset_out_of_range(self):
        with pytest.raises(ArgumentError):
            iou_report(ConfusionMatrix(2), subset={5})

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            counts = rng.integers(0, 50, (n, n)).astype(np.int64)
            report = iou_report(ConfusionMatrix(n, counts=counts))
            expect = iou_oracle(counts)
            for got, want in zip(report.per_class, expect):
                if want is None:
                    assert got is None
                else:
                    assert abs(got - want) < 1e-12
            scored = [v for v in expect if v is not None]
            assert abs(report.miou - np.mean(scored)) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 30, (4, 4)).astype(np.int64)
        perm = rng.permutation(4)
        base = iou_report(ConfusionMatrix(4, counts=counts))
        permuted = iou_report(ConfusionMatrix(4, counts=counts[np.ix_(perm, perm)]))
        for c in range(4):
            assert base.per_class[perm[c]] == permuted.per_class[c]
        assert abs(base.miou - permuted.miou) < 1e-12

    def test_iou_bounds(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 100, (5, 5)).astype(np.int64)
        report = iou_report(ConfusionMatrix(5, counts=counts))
        for v in report.per_class:
            if v is not None:
                assert 0.0 <= v <= 1.0
