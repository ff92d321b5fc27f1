import numpy as np
import numpy.testing as npt
import pytest

from pctl.errors import ContractError
from pctl.metrics import (
    ConfusionMatrix,
    confusion,
    domain_overlap_score,
    oa_aa_kappa,
    svd_project_2d,
)


def brute_force_metrics(truth, pred, k):
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    keep = truth > 0
    truth, pred = truth[keep], pred[keep]
    oa = np.mean(truth == pred)
    recalls = [np.mean(pred[truth == c] == c) for c in range(1, k + 1)
               if np.any(truth == c)]
    aa = float(np.mean(recalls))
    pe = 0.0
    n = truth.size
    for c in range(1, k + 1):
        pe += (np.sum(truth == c) / n) * (np.sum(pred == c) / n)
    kappa = (oa - pe) / (1 - pe) if pe < 1 else float("nan")
    return oa, aa, kappa


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self):
        truth = np.array([1, 2, 3, 1, 2])
        cm = confusion(truth, truth, 3)
        npt.assert_array_equal(cm.counts, np.diag([2, 2, 1]))

    def test_empty_input_gives_zero_matrix(self):
        cm = confusion([], [], 3)
        npt.assert_array_equal(cm.counts, np.zeros((3, 3)))

    def test_unlabeled_truth_skipped(self):
        cm = confusion([0, 1, 0, 2], [1, 1, 2, 2], 2)
        npt.assert_array_equal(cm.counts, [[1, 0], [0, 1]])

    def test_matches_brute_force_tally(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 5, 1000)
        pred = rng.integers(1, 5, 1000)
        cm = confusion(truth, pred, 4)
        expected = np.zeros((4, 4), dtype=int)
        for t, p in zip(truth, pred):
            if t > 0:
                expected[t - 1, p - 1] += 1
        npt.assert_array_equal(cm.counts, expected)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ContractError):
            confusion([1, 5], [1, 1], 4)
        with pytest.raises(ContractError):
            confusion([1, 2], [1, 0], 4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            confusion([1, 2], [1], 2)


class TestOaAaKappa:
    def test_perfect_diagonal(self):
        oa, aa, kappa = oa_aa_kappa(ConfusionMatrix(np.diag([5, 7, 3])))
        assert (oa, aa, kappa) == (1.0, 1.0, 1.0)

    def test_worked_two_class_example(self):
        # OA = 85/100; AA = (25/30 + 60/70)/2; kappa from p_e = (30*35 + 70*65)/100^2
        oa, aa, kappa = oa_aa_kappa(ConfusionMatrix([[25, 5], [10, 60]]))
        npt.assert_allclose(oa, 0.85, atol=1e-12)
        npt.assert_allclose(aa, 0.8452380952380952, atol=1e-9)
        npt.assert_allclose(kappa, 0.659090909090909, atol=1e-9)

    def test_single_class_degenerate_kappa_is_nan(self):
        cm = ConfusionMatrix([[10, 0], [0, 0]])
        with pytest.warns(UserWarning):
            oa, aa, kappa = oa_aa_kappa(cm)
        assert oa == 1.0 and aa == 1.0
        assert np.isnan(kappa)

    def test_matches_brute_force_on_random_labelings(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            k = int(rng.integers(2, 6))
            truth = rng.integers(0, k + 1, 1000)
            pred = rng.integers(1, k + 1, 1000)
            if not np.any(truth > 0):
                continue
            cm = confusion(truth, pred, k)
            import warnings as _w
            with _w.catch_warnings():
                _w.simplefilter("ignore")
                got = oa_aa_kappa(cm)
                expected = brute_force_metrics(truth, pred, k)
            npt.assert_allclose(got[0], expected[0], atol=1e-12)
            npt.assert_allclose(got[1], expected[1], atol=1e-12)
            npt.assert_allclose(got[2], expected[2], atol=1e-12)

    def test_bounds_and_kappa_below_oa(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            counts = rng.integers(0, 30, (3, 3))
            counts[0, 0] += 1
            oa, aa, kappa = oa_aa_kappa(ConfusionMatrix(counts))
            assert 0.0 <= oa <= 1.0 and 0.0 <= aa <= 1.0
            if not np.isnan(kappa):
                assert kappa <= oa + 1e-12


class TestSvdProjection:
    def test_planar_points_keep_pairwise_distances(self):
        rng = np.random.default_rng(3)
        flat = rng.standard_normal((40, 2))
        lift = rng.standard_normal((2, 7))
        q, _ = np.linalg.qr(lift.T)
        points = flat @ q.T[:2, :]  # exactly rank 2 in 7 dims
        proj = svd_project_2d(points)
        d_in = np.linalg.norm(points[:, None] - points[None, :], axis=2)
        d_out = np.linalg.norm(proj[:, None] - proj[None, :], axis=2)
        npt.assert_allclose(d_out, d_in, atol=1e-8)

    def test_duplicated_points_project_identically(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((10, 5))
        doubled = np.vstack([pts, pts])
        proj = svd_project_2d(doubled)
        npt.assert_allclose(proj[:10], proj[10:], atol=1e-12)

    def test_rotation_invariance_up_to_sign(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((25, 4))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        p1 = svd_project_2d(pts)
        p2 = svd_project_2d(pts @ q)
        for axis in range(2):
            direct = np.allclose(p1[:, axis], p2[:, axis], atol=1e-8)
            flipped = np.allclose(p1[:, axis], -p2[:, axis], atol=1e-8)
            assert direct or flipped

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((20, 3))
        npt.assert_array_equal(svd_project_2d(pts), svd_project_2d(pts))

    def test_rank_zero_rejected(self):
        with pytest.raises(ContractError):
            svd_project_2d(np.ones((5, 3)))

    def test_too_small_input_rejected(self):
        with pytest.raises(ContractError):
            svd_project_2d(np.zeros((1, 5)))


class TestDomainOverlap:
    def test_identical_clouds_score_zero(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((30, 2))
        labels = np.repeat([1, 2, 3], 10)
        scores = domain_overlap_score(pts, labels, pts.copy(), labels.copy())
        assert set(scores) == {1, 2, 3}
        assert all(v == 0.0 for v in scores.values())

    def test_ten_pooled_stds_scores_ten(self):
        rng = np.random.default_rng(9)
        n = 4000
        src = rng.normal(0.0, 1.0, (n, 2))
        tgt = rng.normal(0.0, 1.0, (n, 2))
        tgt[:, 0] += 10.0
        labels = np.ones(n, dtype=int)
        scores = domain_overlap_score(src, labels, tgt, labels)
        npt.assert_allclose(scores[1], 10.0, rtol=0.05)

    def test_missing_class_excluded_with_warning(self):
        rng = np.random.default_rng(10)
        src = rng.standard_normal((20, 2))
        tgt = rng.standard_normal((10, 2))
        with pytest.warns(UserWarning, match="missing"):
            scores = domain_overlap_score(src, np.repeat([1, 2], 10),
                                          tgt, np.repeat(1, 10))
        assert set(scores) == {1}
