import tracemalloc

import numpy as np
import pytest

from psm.cli import _write_csv
from psm.data import gen_clusters
from psm.diagnostics import (
    GradientProfile,
    bce_gradient_coefficient,
    gradient_profile,
    knn_probe,
    linear_probe,
    linear_probe_k,
    purity,
)
from psm.numerics import RngState, l2_normalize_rows


def _half_rows(rng, n, dim):
    """Unit rows of four entries +-1/2 at random places, zeros elsewhere.

    Every dot product of two such rows is a multiple of 1/4 and exact, so a
    product formed in any block shape equals the whole product bit for bit.
    """
    rows = np.zeros((n, dim))
    for row in rows:
        row[rng.permutation(dim)[:4]] = rng.choice([-0.5, 0.5], size=4)
    return rows


def _exact_sets(seed, n_train=90, n_test=100, dim=6):
    """Train rows with duplicates (so neighbours tie), test rows and labels."""
    rng = np.random.default_rng(seed)
    distinct = _half_rows(rng, n_train // 3, dim)
    train = distinct[rng.integers(0, len(distinct), size=n_train)]
    test = _half_rows(rng, n_test, dim)
    positives = _half_rows(rng, n_test, dim)
    return train, rng.integers(0, 3, size=n_train), test, rng.integers(0, 3, size=n_test), positives


def _peak_traced_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _reference_purity(mined_labels, query_labels):
    """Top-k purity as the per-query code computed it: a mean of per-query means."""
    fractions = [np.mean(np.asarray(got) == want) for got, want in zip(mined_labels, query_labels)]
    return float(np.mean(fractions))


class TestPurity:
    def test_hand_worked_batch(self):
        top1, topk = purity(np.array([[1, 1, 0], [0, 2, 2]]), np.array([1, 2]))
        assert top1 == 0.5
        assert topk == pytest.approx(4 / 6, abs=1e-15)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="queries"):
            purity(np.array([[1], [2]]), np.array([0, 1, 2]))

    def test_empty_mined_rows_rejected(self):
        with pytest.raises(ValueError):
            purity(np.zeros((2, 0), dtype=np.int64), np.array([0, 1]))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_mean_of_per_query_means(self, k):
        for seed in range(20):
            rng = RngState(100 * k + seed)
            bsz = 1 + int(rng.integers(1, 40))
            labels = rng.integers(0, 4, size=bsz)
            mined = rng.integers(0, 4, size=(bsz, k))
            top1, topk = purity(mined, labels)
            assert top1 == float(np.mean([row[0] == y for row, y in zip(mined, labels)]))
            want = _reference_purity(list(mined), labels)
            if k == 1:
                assert topk == want
            else:
                assert abs(topk - want) <= 1e-15


class TestBceCoefficient:
    def test_negative_branch(self):
        assert bce_gradient_coefficient(0.3) == pytest.approx(0.3)

    def test_array_input(self):
        out = bce_gradient_coefficient(np.array([0.0, 0.25, 1.0]))
        np.testing.assert_array_equal(out, [0.0, 0.25, 1.0])

    @pytest.mark.parametrize("s", [-0.1, 1.1])
    def test_domain_checked(self, s):
        with pytest.raises(ValueError, match="0, 1"):
            bce_gradient_coefficient(s)


class TestGradientProfile:
    def test_hand_worked_single_query(self):
        root3 = np.sqrt(3.0) / 2.0
        bank = np.array([[1.0, 0.0], [0.5, root3], [0.0, 1.0], [-1.0, 0.0]])
        q = np.array([[1.0, 0.0]])
        p = np.array([[0.6, 0.8]])
        profile = gradient_profile(q, p, bank, rank_depth=4)
        np.testing.assert_allclose(
            profile.mean_norm, [1.0, 0.75, 0.5, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(profile.var_norm, np.ones(4), atol=1e-12)
        assert profile.mean_positive_rank == pytest.approx(2.0)
        assert profile.rank_depth == 4

    def test_mean_curve_never_increases(self):
        bank = l2_normalize_rows(RngState(1).normal((80, 6)))
        q = l2_normalize_rows(RngState(2).normal((9, 6)))
        p = l2_normalize_rows(RngState(3).normal((9, 6)))
        profile = gradient_profile(q, p, bank, rank_depth=50)
        assert np.all(np.diff(profile.mean_norm) <= 1e-12)

    def test_all_opposite_bank_normalizes_to_ones(self):
        bank = np.array([[-1.0, 0.0]] * 3)
        q = np.array([[1.0, 0.0]])
        profile = gradient_profile(q, q, bank, rank_depth=3)
        np.testing.assert_array_equal(profile.mean_norm, np.ones(3))
        np.testing.assert_array_equal(profile.var_norm, np.ones(3))
        assert profile.mean_positive_rank == pytest.approx(1.0)

    def test_matches_full_sort_reference(self):
        rows = l2_normalize_rows(RngState(5).normal((60, 5)))
        bank = np.concatenate([rows, rows[:20]])
        q = l2_normalize_rows(RngState(6).normal((7, 5)))
        p = l2_normalize_rows(RngState(7).normal((7, 5)))
        profile = gradient_profile(q, p, bank, rank_depth=45)
        ranked = -np.sort(-(q @ bank.T), axis=1)[:, :45]
        stats = (ranked + 1.0) / 2.0
        np.testing.assert_array_equal(
            profile.mean_norm, stats.mean(axis=0) / stats.mean(axis=0).max()
        )
        np.testing.assert_array_equal(
            profile.var_norm, stats.var(axis=0) / stats.var(axis=0).max()
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_blocked_equals_whole_product(self, seed):
        # 100 queries: three full blocks of 32 and one of 4
        bank, _, q, _, p = _exact_sets(seed)
        profile = gradient_profile(q, p, bank, rank_depth=40)
        sims = q @ bank.T
        ranked = -np.sort(-sims, axis=1)[:, :40]
        stats = (ranked + 1.0) / 2.0
        np.testing.assert_array_equal(
            profile.mean_norm, stats.mean(axis=0) / stats.mean(axis=0).max()
        )
        np.testing.assert_array_equal(
            profile.var_norm, stats.var(axis=0) / stats.var(axis=0).max()
        )
        s_pos = np.einsum("ij,ij->i", q, p)
        want = float((1.0 + (sims > s_pos[:, None]).sum(axis=1)).mean())
        assert profile.mean_positive_rank == want

    def test_memory_is_one_block_of_similarities(self):
        rng = np.random.default_rng(4)
        bank = l2_normalize_rows(rng.normal(size=(3000, 16)))
        q = l2_normalize_rows(rng.normal(size=(400, 16)))
        peak = _peak_traced_bytes(gradient_profile, q, q, bank, rank_depth=50)
        assert peak < 400 * 3000 * 8 / 4

    def test_bank_must_cover_rank_depth(self):
        bank = np.array([[1.0, 0.0], [0.0, 1.0]])
        q = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError, match="needs at least"):
            gradient_profile(q, q, bank, rank_depth=3)

    def test_rank_depth_must_be_positive(self):
        bank = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError, match="rank_depth"):
            gradient_profile(np.eye(2)[:1], np.eye(2)[:1], bank, rank_depth=0)

    def test_shape_mismatch_rejected(self):
        bank = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError, match="align"):
            gradient_profile(np.eye(2), np.eye(2)[:1], bank, rank_depth=1)

    def test_unit_rows_required(self):
        bank = np.array([[1.0, 0.0]])
        q = np.array([[2.0, 0.0]])
        with pytest.raises(ValueError):
            gradient_profile(q, q, bank, rank_depth=1)

    def test_no_queries_rejected(self):
        # the curves were NaN, with NumPy's empty-mean warnings
        empty = np.zeros((0, 2))
        with pytest.raises(ValueError, match="at least one query"):
            gradient_profile(empty, empty, np.eye(2), rank_depth=1)

    def test_unit_bank_rows_required(self):
        q = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError, match="bank must hold unit rows.*row 1"):
            gradient_profile(q, q, np.array([[1.0, 0.0], [0.9, 0.0]]), rank_depth=1)


class TestKnnProbe:
    def test_clean_clusters_score_one(self):
        e0 = np.array([1.0, 0.0])
        e1 = np.array([0.0, 1.0])
        train = np.stack([e0, e0, e1, e1])
        labels = np.array([0, 0, 1, 1])
        acc = knn_probe(train, labels, np.stack([e0, e1]), np.array([0, 1]), k_nn=2)
        assert acc == pytest.approx(1.0)

    def test_vote_tie_resolves_to_smallest_label(self):
        train = np.eye(2)
        labels = np.array([0, 1])
        query = l2_normalize_rows(np.array([[1.0, 1.0]]))
        assert knn_probe(train, labels, query, np.array([0]), k_nn=2) == 1.0
        assert knn_probe(train, labels, query, np.array([1]), k_nn=2) == 0.0

    def test_k_larger_than_train_is_clamped(self):
        train = np.eye(2)
        labels = np.array([0, 1])
        acc = knn_probe(train, labels, train, labels, k_nn=50)
        assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_vote(self, seed):
        rng = RngState(seed)
        # few distinct directions, so neighbours tie and votes split evenly
        dirs = l2_normalize_rows(rng.normal((6, 4)))
        train = dirs[rng.integers(0, 6, size=90)]
        labels = rng.integers(0, 3, size=90)
        test = dirs[rng.integers(0, 6, size=300)]  # spans several blocks
        test_labels = rng.integers(0, 3, size=300)
        vote_ties = 0
        for k_nn in (1, 4, 20, 200):
            correct = 0
            for row, want in zip(test, test_labels):
                nn = np.argsort(-(train @ row), kind="stable")[:k_nn]
                counts = [int(np.sum(labels[nn] == c)) for c in range(3)]
                correct += counts.index(max(counts)) == want
                vote_ties += counts.count(max(counts)) > 1
            got = knn_probe(train, labels, test, test_labels, k_nn=k_nn)
            assert got == correct / len(test)
        assert vote_ties > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_blocked_equals_whole_product(self, seed):
        # 100 test rows: three full blocks of 32 and one of 4
        train, labels, test, test_labels, _ = _exact_sets(seed)
        sims = test @ train.T
        ties = 0
        for k_nn in (1, 5, 20, 90):
            nn = np.argsort(-sims, axis=1, kind="stable")[:, :k_nn]
            counts = np.stack([(labels[nn] == c).sum(axis=1) for c in range(3)], axis=1)
            want = int((counts.argmax(axis=1) == test_labels).sum()) / len(test)
            assert knn_probe(train, labels, test, test_labels, k_nn=k_nn) == want
            # rows whose k-th neighbour ties with a row left out
            kth = np.take_along_axis(sims, nn[:, -1:], axis=1)
            ties += int(((sims >= kth).sum(axis=1) > k_nn).sum())
        assert ties > 0

    def test_memory_is_one_block_of_similarities(self):
        rng = np.random.default_rng(5)
        train = l2_normalize_rows(rng.normal(size=(3000, 16)))
        test = l2_normalize_rows(rng.normal(size=(400, 16)))
        labels = rng.integers(0, 10, size=3000)
        peak = _peak_traced_bytes(knn_probe, train, labels, test, labels[:400], k_nn=20)
        assert peak < 400 * 3000 * 8 / 4

    def test_sparse_labels_vote_like_dense_ones(self):
        # the brute-force test's tied votes, with labels 0, 7 and 10**15: the
        # counts do not grow with the largest label, and ties still go to
        # the smallest one
        rng = RngState(0)
        dirs = l2_normalize_rows(rng.normal((6, 4)))
        train = dirs[rng.integers(0, 6, size=90)]
        labels = rng.integers(0, 3, size=90)
        test = dirs[rng.integers(0, 6, size=300)]
        test_labels = rng.integers(0, 3, size=300)
        sparse = np.array([0, 7, 10**15])
        for k_nn in (1, 4, 20, 200):
            dense = knn_probe(train, labels, test, test_labels, k_nn=k_nn)
            got = knn_probe(train, sparse[labels], test, sparse[test_labels], k_nn=k_nn)
            assert got == dense

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            knn_probe(np.eye(2), np.array([0, -1]), np.eye(2), np.array([0, 1]))

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            knn_probe(np.zeros((0, 2)), np.zeros(0), np.eye(2), np.array([0, 1]))

    def test_empty_test_rejected(self):
        # the accuracy divided by zero test rows
        with pytest.raises(ValueError, match="empty test set"):
            knn_probe(np.eye(2), np.array([0, 1]), np.zeros((0, 2)), np.zeros(0))

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k_nn"):
            knn_probe(np.eye(2), np.array([0, 1]), np.eye(2), np.array([0, 1]), k_nn=0)


class TestLinearProbe:
    def test_separable_clusters_score_one(self):
        from psm.data import gen_clusters

        train = gen_clusters(3, 30, 8, 8.0, seed=21, split="train")
        test = gen_clusters(3, 10, 8, 8.0, seed=21, split="test")
        top1, topk = linear_probe(
            train.features, train.labels, test.features, test.labels
        )
        assert top1 == pytest.approx(1.0)
        assert topk == pytest.approx(1.0)

    def test_topk_spans_all_classes_when_few(self):
        emb = np.eye(3)
        labels = np.array([0, 1, 2])
        _, topk = linear_probe(emb, labels, emb, labels)
        assert topk == pytest.approx(1.0)

    def test_sparse_labels_fit_like_dense_ones(self):
        # overlapping clusters, so top-1 is below 1; the weights hold one row
        # per distinct label, so label 10**15 costs what label 2 does
        train = gen_clusters(3, 30, 8, 1.0, seed=4, split="train")
        test = gen_clusters(3, 10, 8, 1.0, seed=4, split="test")
        sparse = np.array([0, 7, 10**15])
        dense = linear_probe(train.features, train.labels, test.features, test.labels)
        got = linear_probe(
            train.features, sparse[train.labels], test.features, sparse[test.labels]
        )
        assert got == dense and dense[0] < 1.0
        assert linear_probe_k(sparse[train.labels], sparse[test.labels]) == 3

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            linear_probe(np.zeros((0, 2)), np.zeros(0), np.eye(2), np.array([0, 1]))


class TestCsvWriters:
    def test_gradient_profile_rows(self, tmp_path):
        profile = GradientProfile(
            mean_norm=np.array([1.0, 0.75]),
            var_norm=np.array([1.0, 0.5]),
            mean_positive_rank=2.0,
            rank_depth=2,
        )
        path = tmp_path / "g.csv"
        rows = zip((1, 2), profile.mean_norm, profile.var_norm)
        _write_csv(path, "rank,mean_norm,var_norm", rows)
        assert path.read_text(encoding="utf-8") == (
            "rank,mean_norm,var_norm\n1,1.0,1.0\n2,0.75,0.5\n"
        )

    def test_purity_rows(self, tmp_path):
        path = tmp_path / "p.csv"
        _write_csv(path, "epoch,batch,purity", [(1, 0, 0.5), (1, 1, 1.0)])
        assert path.read_text(encoding="utf-8") == (
            "epoch,batch,purity\n1,0,0.5\n1,1,1.0\n"
        )
