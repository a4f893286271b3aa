import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psm.numerics import (
    RngState,
    check_unit_rows,
    l2_normalize_rows,
    softmax,
    top_k_indices,
)


class TestNormalize:
    def test_three_four_row(self):
        out = l2_normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_unit_row_unchanged(self):
        out = l2_normalize_rows(np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_zero_row_stays_zero_and_flags(self):
        out, flags = l2_normalize_rows(
            np.array([[0.0, 0.0], [3.0, 4.0]]), return_flags=True
        )
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        assert flags.tolist() == [True, False]

    @given(
        st.lists(
            st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
            min_size=1,
            max_size=8,
        )
    )
    @example([[0.0, 0.0, 8.428457206266921e-162]])
    @example([[1e-170, 0.0, 0.0]])
    def test_rows_unit_or_zero(self, rows):
        m = np.array(rows, dtype=np.float64)
        out, flags = l2_normalize_rows(m, return_flags=True)
        norms = np.linalg.norm(out, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))
        np.testing.assert_array_equal(flags, ~m.any(axis=1))

    @pytest.mark.parametrize("tiny", [1e-170, 8.428457206266921e-162, 5e-324])
    def test_tiny_row_is_rescaled_not_flagged(self, tiny):
        out, flags = l2_normalize_rows(np.array([[0.0, -tiny, 0.0]]), return_flags=True)
        np.testing.assert_array_equal(out, [[0.0, -1.0, 0.0]])
        assert flags.tolist() == [False]

    def test_ordinary_rows_take_the_direct_path(self):
        m = RngState(4).normal((50, 7)) * np.logspace(-90, 90, 50)[:, None]
        want = m / np.sqrt(np.einsum("ij,ij->i", m, m))[:, None]
        np.testing.assert_array_equal(l2_normalize_rows(m), want)


class TestSoftmax:
    def test_uniform_on_equal_scores(self):
        np.testing.assert_allclose(
            softmax(np.zeros((2, 4))), np.full((2, 4), 0.25), atol=1e-15
        )

    def test_log3_gap(self):
        w = softmax(np.array([[np.log(3.0) - 0.2, -0.2]]))
        np.testing.assert_allclose(w, [[0.75, 0.25]], atol=1e-12)

    def test_rows_are_independent(self):
        w = softmax(np.array([[0.0, 0.0], [np.log(3.0), 0.0], [5.0, 5.0]]))
        np.testing.assert_allclose(w, [[0.5, 0.5], [0.75, 0.25], [0.5, 0.5]], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.zeros((1, 0)))
        with pytest.raises(ValueError):
            softmax(np.zeros(3))  # one row must be passed as a (1, n) matrix

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([[1.0, np.nan]]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    def test_simplex_and_shift_invariance(self, scores):
        v = np.array(scores, dtype=np.float64)
        rows = np.stack([v, v[::-1] - 3.0])
        w = softmax(rows)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(w > 0)
        np.testing.assert_allclose(softmax(rows + 17.25), w, atol=1e-12)

    def test_extreme_scores_stable(self):
        w = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(w).all() and w[0, 0] == pytest.approx(1.0)


class TestTopK:
    def test_plain_order(self):
        idx = top_k_indices(np.array([0.1, 0.9, 0.5]), 2)
        assert idx.tolist() == [1, 2]

    def test_ties_prefer_lowest_index(self):
        idx = top_k_indices(np.array([0.5, 0.9, 0.9, 0.5]), 3)
        assert idx.tolist() == [1, 2, 0]

    def test_k_larger_than_input(self):
        idx = top_k_indices(np.array([0.3, 0.1]), 10)
        assert idx.tolist() == [0, 1]

    def test_k_zero(self):
        assert top_k_indices(np.array([0.3]), 0).size == 0

    def test_rows_select_independently(self):
        s = np.array([[0.1, 0.9, 0.5], [0.7, 0.7, 0.2]])
        assert top_k_indices(s, 2).tolist() == [[1, 2], [0, 1]]

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            top_k_indices(np.array([0.3]), -1)

    # Rows up to 300 wide are sorted whole (at most 32 scores) or split into
    # strided column groups plus a tail, one per column or 4 per wanted
    # index, so the floor pass and the tie rule meet across group borders.
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda rows: st.integers(1, 300).flatmap(
                lambda n: st.tuples(
                    st.lists(
                        st.lists(
                            st.sampled_from(
                                [-3.0, -1.0, -0.0, 0.0, 1.0, 2.0, np.nan, np.inf, -np.inf]
                            ),
                            min_size=n,
                            max_size=n,
                        ),
                        min_size=rows,
                        max_size=rows,
                    ),
                    st.integers(0, n + 2),
                )
            )
        )
    )
    def test_equals_stable_argsort(self, case):
        rows, k = case
        s = np.array(rows, dtype=np.float64)
        want = np.argsort(-s, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(top_k_indices(s, k), want)
        np.testing.assert_array_equal(top_k_indices(s[0], k), want[0])

    # the reference shapes, then each side of the whole-row sort (n = 32,
    # 33) and of each group count: one per column (4k >= n), 4k, n // 32
    @pytest.mark.parametrize(
        "rows, n, k",
        [
            (64, 2048, 5),
            (512, 2048, 20),
            (8, 32, 4),
            (8, 33, 4),
            (8, 33, 9),
            (8, 100, 25),
            (8, 300, 2),
            (8, 700, 20),
        ],
    )
    def test_shapes_with_ties_at_kth_place(self, rows, n, k):
        rng = np.random.default_rng([rows, n, k])
        s = np.round(rng.uniform(-1.0, 1.0, size=(rows, n)), 6)
        order = np.argsort(-s, axis=1, kind="stable")
        r = np.arange(rows)
        kth = s[r, order[:, k - 1]]
        # the (k+1)-th and the last place take the k-th score, so three
        # scores tie across the cut, in columns anywhere in the row
        s[r[:, None], order[:, [k, n - 1]]] = kth[:, None]
        assert np.all(np.sort(s, axis=1)[:, n - k - 2] == kth)
        want = np.argsort(-s, axis=1, kind="stable")[:, :k]
        assert np.any(want[:, k - 1] != order[:, k - 1])
        np.testing.assert_array_equal(top_k_indices(s, k), want)


class TestCheckUnitRows:
    def test_accepts_unit_and_zero_rows(self):
        check_unit_rows(np.array([[1.0, 0.0], [0.0, 0.0]]), "x")

    def test_rejects_off_norm(self):
        with pytest.raises(ValueError, match="x must hold unit rows"):
            check_unit_rows(np.array([[2.0, 0.0]]), "x")


class TestRngState:
    def test_same_seed_same_stream(self):
        a = RngState(42).normal(16)
        b = RngState(42).normal(16)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngState(1).normal(16), RngState(2).normal(16))

    def test_split_is_deterministic(self):
        a = RngState(7).split("aug", 3, 1).uniform(8)
        b = RngState(7).split("aug", 3, 1).uniform(8)
        np.testing.assert_array_equal(a, b)

    def test_int_and_str_tags_are_distinct(self):
        r = RngState(7)
        assert not np.array_equal(r.split(1).uniform(8), r.split("1").uniform(8))

    def test_bool_tag_rejected(self):
        with pytest.raises(TypeError):
            RngState(7).split(True)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            RngState(7).split()

    def test_substreams_are_independent_of_draw_order(self):
        root = RngState(9)
        a_first = root.split("a").uniform(4)
        root2 = RngState(9)
        _ = root2.split("b").uniform(100)
        a_second = root2.split("a").uniform(4)
        np.testing.assert_array_equal(a_first, a_second)

    def test_permutation_is_permutation(self):
        p = RngState(5).permutation(20)
        assert sorted(p.tolist()) == list(range(20))

    def test_uniform_range(self):
        u = RngState(3).uniform(1000)
        assert np.all((u >= 0.0) & (u < 1.0))

    @settings(max_examples=25)
    @given(st.integers(0, 2**62), st.lists(st.integers(0, 1000), min_size=1, max_size=4))
    def test_split_path_reproducible(self, seed, tags):
        x = RngState(seed).split(*tags).uniform(3)
        y = RngState(seed).split(*tags).uniform(3)
        np.testing.assert_array_equal(x, y)
