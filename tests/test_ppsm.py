import numpy as np
import pytest

from psm.memory_bank import MinedNeighborSet
from psm.numerics import RngState, l2_normalize_rows
from psm.ppsm import (
    STRATEGIES,
    WEIGHT_SPAN_MINED_ONLY,
    LossOutput,
    WeightVector,
    apply_weight_strategy,
    hard_loss,
    nce_loss_grad,
    psm_loss,
    soft_loss,
    soft_weights,
)


def _neighbors(members, query_id=0):
    members = np.asarray(members, dtype=np.float64)
    return MinedNeighborSet(
        query_id=query_id,
        members=members,
        bank_indices=np.arange(max(members.shape[0] - 1, 0), dtype=np.int64),
        sims=np.ones(members.shape[0]),
    )


def _vec_with_sim(s):
    """Unit 2-vector whose dot product with (1, 0) equals s."""
    return np.array([s, np.sqrt(1.0 - s * s)])


class TestSoftWeights:
    def test_equal_similarities_uniform(self):
        z1 = np.array([1.0, 0.0])
        ns = _neighbors([z1, z1, z1])
        np.testing.assert_allclose(
            soft_weights(z1, ns).weights, np.full(3, 1 / 3), atol=1e-15
        )

    def test_softmax_oracle_log3_gap(self):
        # similarities 0.6 and 0.6 - ln 3 produce weights (0.75, 0.25)
        z1 = np.array([1.0, 0.0])
        ns = _neighbors([_vec_with_sim(0.6), _vec_with_sim(0.6 - np.log(3.0))])
        np.testing.assert_allclose(
            soft_weights(z1, ns).weights, [0.75, 0.25], atol=1e-12
        )

    def test_cold_bank_single_member(self):
        z1 = np.array([1.0, 0.0])
        w = soft_weights(z1, _neighbors([z1]))
        np.testing.assert_array_equal(w.weights, [1.0])
        assert w.strategy == "V0"

    def test_mined_only_pins_view_weight(self):
        z1 = np.array([1.0, 0.0])
        ns = _neighbors([z1, _vec_with_sim(0.3), _vec_with_sim(0.3)])
        w = soft_weights(z1, ns, span=WEIGHT_SPAN_MINED_ONLY)
        assert w.weights[0] == 1.0
        np.testing.assert_allclose(w.weights[1:], [0.5, 0.5], atol=1e-12)

    def test_empty_neighbors_rejected(self):
        with pytest.raises(ValueError):
            soft_weights(np.array([1.0, 0.0]), _neighbors(np.zeros((0, 2))))

    def test_unknown_span_rejected(self):
        z1 = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            soft_weights(z1, _neighbors([z1]), span="everything")


class TestStrategies:
    BASE = np.array([0.5, 0.3, 0.2])

    def _apply(self, strategy):
        return apply_weight_strategy(WeightVector(self.BASE.copy()), strategy, k=2)

    def test_v0_untouched(self):
        np.testing.assert_array_equal(self._apply("V0").weights, self.BASE)

    def test_v1_thresholds_at_inverse_k(self):
        np.testing.assert_array_equal(self._apply("V1").weights, [0.5, 0.0, 0.0])

    def test_v2_uniform_over_survivors(self):
        np.testing.assert_array_equal(self._apply("V2").weights, [1.0, 0.0, 0.0])

    def test_v3_survivors_to_one(self):
        np.testing.assert_array_equal(self._apply("V3").weights, [1.0, 0.0, 0.0])

    def test_v4_all_ones(self):
        np.testing.assert_array_equal(self._apply("V4").weights, [1.0, 1.0, 1.0])

    def test_v2_two_survivors(self):
        w = apply_weight_strategy(
            WeightVector(np.array([0.4, 0.35, 0.15, 0.1])), "V2", k=3
        )
        np.testing.assert_allclose(w.weights, [0.5, 0.5, 0.0, 0.0], atol=1e-15)

    def test_v2_no_survivors_all_zero(self):
        w = apply_weight_strategy(
            WeightVector(np.array([0.34, 0.33, 0.33])), "V2", k=2
        )
        np.testing.assert_array_equal(w.weights, np.zeros(3))

    def test_k_zero_passthrough(self):
        w = apply_weight_strategy(WeightVector(np.array([1.0])), "V1", k=0)
        np.testing.assert_array_equal(w.weights, [1.0])

    def test_k_zero_v4_still_ones(self):
        w = apply_weight_strategy(WeightVector(np.array([0.4])), "V4", k=0)
        np.testing.assert_array_equal(w.weights, [1.0])

    def test_requires_v0_input(self):
        tagged = WeightVector(np.array([1.0, 0.0]), strategy="V1")
        with pytest.raises(ValueError):
            apply_weight_strategy(tagged, "V2", k=1)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            apply_weight_strategy(WeightVector(self.BASE.copy()), "V9", k=2)

    def test_all_strategies_enumerated(self):
        assert STRATEGIES == ("V0", "V1", "V2", "V3", "V4")


class TestHardLoss:
    def test_ln2_when_negative_equals_positive(self):
        q = np.array([[1.0, 0.0]])
        z2 = np.array([[1.0, 0.0]])
        out = hard_loss(q, z2, [z2[0:1]], t=0.5)
        assert out.value == pytest.approx(np.log(2.0), abs=1e-12)

    def test_two_logit_oracle(self):
        # s_pos=1, s_neg=0.4, t=0.5: loss = ln(1 + e^{-1.2})
        q = np.array([[1.0, 0.0]])
        z2 = np.array([[1.0, 0.0]])
        neg = _vec_with_sim(0.4)[None, :]
        out = hard_loss(q, z2, [neg], t=0.5)
        assert out.value == pytest.approx(np.log1p(np.exp(-1.2)), abs=1e-12)

    def test_no_negatives_zero_loss(self):
        q = np.array([[0.0, 2.0]])  # raw, normalized internally
        z2 = np.array([[0.0, 1.0]])
        out = hard_loss(q, z2, [np.zeros((0, 2))], t=0.5)
        assert out.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out.grad_q, 0.0, atol=1e-12)

    def test_batch_mean_reduction(self):
        rng = RngState(2)
        q = rng.normal((3, 4))
        z2 = l2_normalize_rows(rng.normal((3, 4)))
        negs = [l2_normalize_rows(rng.normal((2, 4))) for _ in range(3)]
        out = hard_loss(q, z2, negs, t=0.5)
        assert out.value == pytest.approx(out.per_query.mean(), abs=1e-12)
        assert out.neg_counts.tolist() == [2, 2, 2]

    def test_more_negatives_raise_loss(self):
        rng = RngState(4)
        q = rng.normal((1, 6))
        z2 = l2_normalize_rows(rng.normal((1, 6)))
        neg = l2_normalize_rows(rng.normal((3, 6)))
        small = hard_loss(q, z2, [neg[:2]], t=0.5).value
        large = hard_loss(q, z2, [neg], t=0.5).value
        assert large > small

    def test_shape_and_temperature_validation(self):
        q = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError):
            hard_loss(q, np.eye(2), [np.zeros((0, 2))], t=0.5)
        with pytest.raises(ValueError):
            hard_loss(q, q, [np.zeros((0, 2))], t=0.0)
        with pytest.raises(ValueError):
            hard_loss(q, q, [], t=0.5)


class TestSoftLoss:
    def test_equal_sims_no_negatives_ln_kplus1(self):
        # all members identical: simplex weights, lse collapses to ln(k+1)
        k = 3
        q = np.array([[2.0, 0.0]])
        member = np.array([1.0, 0.0])
        ns = _neighbors(np.tile(member, (k + 1, 1)))
        w = soft_weights(member, ns)
        out = soft_loss(q, [ns], [w], [np.zeros((0, 2))], t=0.5)
        assert out.value == pytest.approx(np.log(k + 1.0), abs=1e-12)

    def test_k_zero_equals_hard_loss(self):
        rng = RngState(5)
        q = rng.normal((4, 6))
        z2 = l2_normalize_rows(rng.normal((4, 6)))
        negs = [l2_normalize_rows(rng.normal((3, 6))) for _ in range(4)]
        sets = [_neighbors(z2[i : i + 1], query_id=i) for i in range(4)]
        weights = [WeightVector(np.array([1.0])) for _ in range(4)]
        soft = soft_loss(q, sets, weights, negs, t=0.5)
        hard = hard_loss(q, z2, negs, t=0.5)
        assert soft.value == pytest.approx(hard.value, abs=1e-12)
        np.testing.assert_allclose(soft.grad_q, hard.grad_q, atol=1e-12)

    def test_zero_weights_zero_loss(self):
        rng = RngState(6)
        q = rng.normal((2, 4))
        members = l2_normalize_rows(rng.normal((3, 4)))
        sets = [_neighbors(members, query_id=i) for i in range(2)]
        weights = [WeightVector(np.zeros(3), strategy="V2") for _ in range(2)]
        negs = [l2_normalize_rows(rng.normal((2, 4))) for _ in range(2)]
        out = soft_loss(q, sets, weights, negs, t=0.5)
        assert out.value == 0.0
        np.testing.assert_allclose(out.grad_q, 0.0, atol=1e-15)

    def test_arity_validation(self):
        q = np.eye(2)
        ns = _neighbors([np.array([1.0, 0.0])])
        wv = WeightVector(np.array([1.0]))
        with pytest.raises(ValueError):
            soft_loss(q, [ns], [wv, wv], [np.zeros((0, 2))] * 2, t=0.5)
        with pytest.raises(ValueError, match="weights"):
            soft_loss(
                q,
                [ns, ns],
                [wv, WeightVector(np.array([0.5, 0.5]))],
                [np.zeros((0, 2))] * 2,
                t=0.5,
            )

    def test_negative_weights_rejected(self):
        q = np.eye(2)
        ns = _neighbors([np.array([1.0, 0.0])])
        bad = WeightVector(np.array([-0.1]))
        with pytest.raises(ValueError, match="negative"):
            soft_loss(q, [ns, ns], [bad, bad], [np.zeros((0, 2))] * 2, t=0.5)


class TestPsmLoss:
    def test_linear_combination(self):
        rng = RngState(9)
        q = rng.normal((3, 5))
        z2 = l2_normalize_rows(rng.normal((3, 5)))
        negs = [l2_normalize_rows(rng.normal((4, 5))) for _ in range(3)]
        hard = hard_loss(q, z2, negs, t=0.5)
        sets = [_neighbors(z2[i : i + 1], query_id=i) for i in range(3)]
        weights = [WeightVector(np.array([1.0])) for _ in range(3)]
        soft = soft_loss(q, sets, weights, negs, t=0.5)
        lam = 2.5
        total = psm_loss(soft, hard, lam)
        assert total.value == pytest.approx(soft.value + lam * hard.value, abs=1e-12)
        np.testing.assert_allclose(
            total.grad_q, soft.grad_q + lam * hard.grad_q, atol=1e-12
        )

    def test_shape_mismatch_rejected(self):
        a = LossOutput(0.0, np.zeros((2, 3)), np.zeros(2, dtype=np.int64), np.zeros(2))
        b = LossOutput(0.0, np.zeros((3, 3)), np.zeros(3, dtype=np.int64), np.zeros(3))
        with pytest.raises(ValueError):
            psm_loss(a, b, 1.0)


def _fd_grad(fn, q, h=1e-6):
    g = np.zeros_like(q)
    for i in range(q.shape[0]):
        for j in range(q.shape[1]):
            qp, qm = q.copy(), q.copy()
            qp[i, j] += h
            qm[i, j] -= h
            g[i, j] = (fn(qp) - fn(qm)) / (2 * h)
    return g


class TestFiniteDifferences:
    def test_hard_loss_gradient(self):
        rng = RngState(11)
        q = rng.normal((3, 5))
        z2 = l2_normalize_rows(rng.normal((3, 5)))
        negs = [l2_normalize_rows(rng.normal((4, 5))) for _ in range(3)]
        out = hard_loss(q, z2, negs, t=0.4)
        fd = _fd_grad(lambda qq: hard_loss(qq, z2, negs, t=0.4).value, q)
        np.testing.assert_allclose(out.grad_q, fd, rtol=0, atol=1e-7)

    def test_soft_loss_gradient(self):
        rng = RngState(12)
        q = rng.normal((2, 5))
        members = [l2_normalize_rows(rng.normal((4, 5))) for _ in range(2)]
        sets = [_neighbors(members[i], query_id=i) for i in range(2)]
        z1 = l2_normalize_rows(rng.normal((2, 5)))
        weights = [soft_weights(z1[i], sets[i]) for i in range(2)]
        negs = [l2_normalize_rows(rng.normal((3, 5))) for _ in range(2)]
        out = soft_loss(q, sets, weights, negs, t=0.6)
        fd = _fd_grad(lambda qq: soft_loss(qq, sets, weights, negs, t=0.6).value, q)
        np.testing.assert_allclose(out.grad_q, fd, rtol=0, atol=1e-7)


def _ragged_instance(seed):
    """Ragged loss inputs: variable positives and negatives per query."""
    rng = RngState(seed)
    nq = 1 + int(rng.integers(1, 7))
    dim = 2 + int(rng.integers(0, 14))
    q = rng.normal((nq, dim))
    p_counts = [1 + int(rng.integers(0, 4)) for _ in range(nq)]
    n_counts = [int(rng.integers(0, 7)) for _ in range(nq)]
    pos_flat = l2_normalize_rows(rng.normal((sum(p_counts), dim)))
    w_flat = rng.uniform(sum(p_counts)) + 0.05
    pos_off = np.concatenate([[0], np.cumsum(p_counts)]).astype(np.int64)
    n_cands = max(sum(n_counts), 1)
    cands = l2_normalize_rows(rng.normal((n_cands, dim)))
    neg_idx = rng.integers(0, n_cands, size=sum(n_counts)).astype(np.int64)
    neg_off = np.concatenate([[0], np.cumsum(n_counts)]).astype(np.int64)
    t = 0.2 + 0.8 * float(rng.uniform())
    return q, pos_flat, w_flat, pos_off, cands, neg_idx, neg_off, t


class TestNceLossGrad:
    def test_is_deterministic(self):
        inst = _ragged_instance(7)
        v1, g1 = nce_loss_grad(*inst)
        v2, g2 = nce_loss_grad(*inst)
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(g1, g2)

    def test_bad_temperature_rejected(self):
        inst = list(_ragged_instance(3))
        inst[-1] = 0.0
        with pytest.raises(ValueError):
            nce_loss_grad(*inst)
