import numpy as np
import pytest

from psm.numerics import RngState, l2_normalize_rows
from psm.pnsm import (
    MiningConfig,
    filter_csr,
    mine_mask,
    mine_negatives,
)


def _vec_with_sim(s):
    return np.array([s, np.sqrt(1.0 - s * s)])


def _probs(s_neg, s_pos, a):
    """mine_mask's retention probabilities of one query's candidates."""
    s_neg = np.atleast_1d(np.asarray(s_neg, dtype=np.float64))
    off = np.array([0, len(s_neg)], dtype=np.int64)
    probs, _ = mine_mask(s_neg, np.array([s_pos]), off, a, np.zeros(len(s_neg)))
    return probs


class TestMiningProbability:
    def test_scalar_oracle(self):
        assert _probs(0.0, 1.0, 0.5)[0] == pytest.approx(np.exp(-0.5), abs=1e-15)

    def test_zero_gap_is_certain(self):
        assert _probs(0.7, 0.7, 3.0)[0] == 1.0

    def test_a_zero_is_certain(self):
        assert _probs(-1.0, 1.0, 0.0)[0] == 1.0

    def test_array_input(self):
        p = _probs([0.0, 0.5], 0.5, 2.0)
        np.testing.assert_allclose(p, [np.exp(-0.5), 1.0], atol=1e-15)

    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            _probs(0.0, 0.0, -1.0)

    @pytest.mark.parametrize("a", [float("nan"), float("inf")])
    def test_non_finite_a_rejected(self, a):
        with pytest.raises(ValueError):
            _probs(0.0, 0.0, a)

    def test_symmetry_in_gap(self):
        p = _probs([0.2, 0.8], 0.5, 1.3)
        assert p[0] == pytest.approx(p[1], abs=1e-15)


class TestMineNegatives:
    def test_empty_candidates(self):
        out = mine_negatives(
            np.array([1.0, 0.0]), 0.9, np.zeros((0, 2)), MiningConfig(), RngState(0)
        )
        assert out.kept.size == 0 and out.probs.size == 0

    def test_certain_candidates_always_kept(self):
        # s_neg == s_pos for every candidate: p = 1, kept regardless of draws
        q = np.array([1.0, 0.0])
        cands = np.tile(_vec_with_sim(0.6), (5, 1))
        for seed in range(20):
            out = mine_negatives(q, 0.6, cands, MiningConfig(a=4.0), RngState(seed))
            assert out.kept.tolist() == [0, 1, 2, 3, 4]
            np.testing.assert_array_equal(out.probs, np.ones(5))

    def test_fallback_keeps_single_best(self):
        # a=100 with gaps >= 0.9 pushes every p below ~1e-35: all rejected,
        # fallback retains exactly the smallest-gap candidate.
        q = np.array([1.0, 0.0])
        cands = np.stack([_vec_with_sim(0.1), _vec_with_sim(0.05), _vec_with_sim(-0.3)])
        for seed in range(20):
            out = mine_negatives(q, 1.0, cands, MiningConfig(a=100.0), RngState(seed))
            assert out.kept.tolist() == [0]

    def test_fallback_tie_takes_first(self):
        q = np.array([1.0, 0.0])
        same = _vec_with_sim(0.0)
        cands = np.stack([same, same, same])
        out = mine_negatives(q, 1.0, cands, MiningConfig(a=100.0), RngState(5))
        assert out.kept.tolist() == [0]

    def test_replay_is_exact(self):
        q = np.array([0.0, 1.0])
        cands = l2_normalize_rows(RngState(1).normal((10, 2)))
        a = mine_negatives(q, 0.4, cands, MiningConfig(a=2.0), RngState(77).split("x"))
        b = mine_negatives(q, 0.4, cands, MiningConfig(a=2.0), RngState(77).split("x"))
        np.testing.assert_array_equal(a.kept, b.kept)
        np.testing.assert_array_equal(a.probs, b.probs)


class TestMiningConfig:
    def test_defaults(self):
        cfg = MiningConfig()
        assert cfg.a == 0.5

    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            MiningConfig(a=-0.1)

    @pytest.mark.parametrize("a", [float("nan"), float("inf")])
    def test_non_finite_a_rejected(self, a):
        with pytest.raises(ValueError):
            MiningConfig(a=a)

class TestFilterCsr:
    def test_a_zero_keeps_everything(self):
        sims = np.array([0.1, -0.9, 0.5, 0.3])
        off = np.array([0, 2, 4], dtype=np.int64)
        probs, keep = filter_csr(sims, np.array([0.5, 0.5]), off, MiningConfig(a=0.0), RngState(0))
        assert keep.all()
        np.testing.assert_array_equal(probs, np.ones(4))

    def test_deterministic_under_seed(self):
        rng = RngState(10)
        sims = 2 * rng.uniform(30) - 1
        off = np.array([0, 10, 18, 30], dtype=np.int64)
        s_pos = np.array([0.2, 0.5, 0.9])
        cfg = MiningConfig(a=5.0)
        _, k1 = filter_csr(sims, s_pos, off, cfg, RngState(3).split("m"))
        _, k2 = filter_csr(sims, s_pos, off, cfg, RngState(3).split("m"))
        np.testing.assert_array_equal(k1, k2)

    def test_empty_segment_allowed(self):
        sims = np.array([0.5])
        off = np.array([0, 0, 1], dtype=np.int64)
        probs, keep = filter_csr(
            sims, np.array([0.1, 0.5]), off, MiningConfig(a=1.0), RngState(0)
        )
        assert keep[0]  # only candidate of query 1 has zero gap


class TestMineMask:
    def test_misaligned_uniforms_rejected(self):
        off = np.array([0, 2], dtype=np.int64)
        with pytest.raises(ValueError):
            mine_mask(np.zeros(2), np.zeros(1), off, 1.0, np.zeros(3))

    @pytest.mark.parametrize("a", [-1.0, float("nan"), float("inf")])
    def test_bad_a_rejected(self, a):
        off = np.array([0, 2], dtype=np.int64)
        with pytest.raises(ValueError):
            mine_mask(np.zeros(2), np.zeros(1), off, a, np.zeros(2))

    def test_fallback_with_empty_segments(self):
        # Seven queries: 0, 2, 5 and 6 own no candidates, 1 and 4 reject
        # every candidate, 3 keeps one of two.
        off = np.array([0, 0, 3, 3, 5, 8, 8, 8], dtype=np.int64)
        sims = np.array([0.9, 0.2, 0.2, 0.5, -0.5, -0.7, 0.3, 0.6])
        s_pos = np.array([0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0])
        uniforms = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        probs, keep = mine_mask(sims, s_pos, off, 1.0, uniforms)
        # query 1 ties at cells 1 and 2 and keeps the first; query 4 keeps
        # its smallest gap, cell 7; query 3 keeps its drawn first cell alone
        assert keep.tolist() == [False, True, False, True, False, False, False, True]
        rows = np.repeat(np.arange(7), np.diff(off))
        np.testing.assert_array_equal(probs, np.exp(-((sims - s_pos[rows]) ** 2)))

    def test_fallback_matches_per_query_reference(self):
        rng = RngState(31)
        counts = np.array([0, 4, 0, 0, 7, 1, 3, 0, 5, 0, 0])
        off = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        sims = 2 * rng.uniform(int(off[-1])) - 1
        s_pos = 2 * rng.uniform(len(counts)) - 1
        uniforms = rng.uniform(int(off[-1]))
        probs, keep = mine_mask(sims, s_pos, off, 6.0, uniforms)
        for i in range(len(counts)):
            s, e = off[i], off[i + 1]
            want = uniforms[s:e] < probs[s:e]
            if e > s and not want.any():
                want[np.argmax(probs[s:e])] = True
            np.testing.assert_array_equal(keep[s:e], want)
        assert keep.sum() > np.count_nonzero(uniforms < probs)  # a fallback fired
