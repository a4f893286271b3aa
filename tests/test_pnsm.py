import numpy as np
import pytest

from psm.numerics import RngState, l2_normalize_rows
from psm.pnsm import (
    MiningConfig,
    filter_csr,
    mine_mask,
    mine_negatives,
    mining_probability,
)


def _vec_with_sim(s):
    return np.array([s, np.sqrt(1.0 - s * s)])


class TestMiningProbability:
    def test_scalar_oracle(self):
        assert mining_probability(0.0, 1.0, 0.5) == pytest.approx(
            np.exp(-0.5), abs=1e-15
        )

    def test_zero_gap_is_certain(self):
        assert mining_probability(0.7, 0.7, 3.0) == 1.0

    def test_a_zero_is_certain(self):
        assert mining_probability(-1.0, 1.0, 0.0) == 1.0

    def test_array_input(self):
        p = mining_probability(np.array([0.0, 0.5]), 0.5, 2.0)
        np.testing.assert_allclose(p, [np.exp(-0.5), 1.0], atol=1e-15)

    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            mining_probability(0.0, 0.0, -1.0)

    def test_symmetry_in_gap(self):
        assert mining_probability(0.2, 0.5, 1.3) == pytest.approx(
            mining_probability(0.8, 0.5, 1.3), abs=1e-15
        )


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

    def test_non_unit_candidates_rejected(self):
        with pytest.raises(ValueError):
            mine_negatives(
                np.array([1.0, 0.0]),
                0.5,
                np.full((2, 2), 0.9),
                MiningConfig(),
                RngState(0),
            )


class TestMiningConfig:
    def test_defaults(self):
        cfg = MiningConfig()
        assert cfg.a == 0.5

    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            MiningConfig(a=-0.1)

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
