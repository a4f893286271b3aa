import dataclasses

import numpy as np
import pytest
from conftest import hard_pool, soft_pool

from psm.memory_bank import MemoryBank
from psm.network import NetworkConfig, forward_online, init_params
from psm.numerics import RngState, l2_normalize_rows
from psm.ppsm import (
    STRATEGIES,
    WEIGHT_SPAN_MINED_ONLY,
    WEIGHT_SPAN_WITH_VIEW,
    apply_weight_strategy,
    nce_loss_grad,
    soft_weights,
)
from psm.trainer import TrainConfig, _masked_nce, _psm_pass


def _vec_with_sim(s):
    """Unit 2-vector whose dot product with (1, 0) equals s."""
    return np.array([s, np.sqrt(1.0 - s * s)])


def _one(z1, members, span=WEIGHT_SPAN_WITH_VIEW):
    """Weights of a single query: z1 (d,), members (p, d)."""
    return soft_weights(np.asarray(z1)[None, :], np.asarray(members)[None], span)[0]


class TestSoftWeights:
    def test_equal_similarities_uniform(self):
        z1 = np.array([1.0, 0.0])
        np.testing.assert_allclose(_one(z1, [z1, z1, z1]), np.full(3, 1 / 3), atol=1e-15)

    def test_softmax_oracle_log3_gap(self):
        # similarities 0.6 and 0.6 - ln 3 produce weights (0.75, 0.25)
        z1 = np.array([1.0, 0.0])
        members = [_vec_with_sim(0.6), _vec_with_sim(0.6 - np.log(3.0))]
        np.testing.assert_allclose(_one(z1, members), [0.75, 0.25], atol=1e-12)

    def test_cold_bank_single_member(self):
        z1 = np.array([1.0, 0.0])
        np.testing.assert_array_equal(_one(z1, [z1]), [1.0])

    def test_mined_only_pins_view_weight(self):
        z1 = np.array([1.0, 0.0])
        members = [z1, _vec_with_sim(0.3), _vec_with_sim(0.3)]
        w = _one(z1, members, span=WEIGHT_SPAN_MINED_ONLY)
        assert w[0] == 1.0
        np.testing.assert_allclose(w[1:], [0.5, 0.5], atol=1e-12)

    def test_empty_neighbors_rejected(self):
        with pytest.raises(ValueError):
            _one(np.array([1.0, 0.0]), np.zeros((0, 2)))

    def test_unknown_span_rejected(self):
        z1 = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            _one(z1, [z1], span="everything")

    def test_misaligned_shapes_rejected(self):
        z1 = np.eye(2)
        with pytest.raises(ValueError):
            soft_weights(z1, np.ones((3, 2, 2)) / np.sqrt(2.0))
        with pytest.raises(ValueError):
            soft_weights(z1, np.ones((2, 2)))


def _reference_softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def _reference_soft_weights(z1, members, span):
    """One query's weights as the per-query code computed them: z1 (d,), members (p, d)."""
    sims = members @ z1
    if span == WEIGHT_SPAN_WITH_VIEW:
        return _reference_softmax(sims)
    w = np.ones(len(sims))
    if len(sims) > 1:
        w[1:] = _reference_softmax(sims[1:])
    return w


def _reference_strategy(w, strategy, k):
    """V0..V4 on one row of weights, entry by entry."""
    if strategy == "V4":
        return np.ones_like(w)
    if strategy == "V0" or k == 0:
        return w.copy()
    kept = [x >= 1.0 / k for x in w]
    out = []
    for x, keep in zip(w, kept):
        if not keep:
            out.append(0.0)
        else:
            out.append({"V1": x, "V2": 1.0 / sum(kept), "V3": 1.0}[strategy])
    return np.array(out)


class TestBatchedWeightsMatchReference:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("span", [WEIGHT_SPAN_WITH_VIEW, WEIGHT_SPAN_MINED_ONLY])
    def test_every_row_matches_the_per_query_code(self, span, strategy):
        for k_eff in range(7):
            rng = RngState(7000 + k_eff)
            bsz, d = 3 + k_eff, 2 + 2 * k_eff
            z1 = l2_normalize_rows(rng.split("z1").normal((bsz, d)))
            flat = l2_normalize_rows(rng.split("m").normal((bsz * (k_eff + 1), d)))
            members = flat.reshape(bsz, k_eff + 1, d)
            # the first two rows mine z1 itself, so V1..V3 keep a survivor there
            members[:2, -1] = z1[:2]
            got = apply_weight_strategy(soft_weights(z1, members, span), strategy, k_eff)
            want = np.stack(
                [
                    _reference_strategy(
                        _reference_soft_weights(z1[i], members[i], span), strategy, k_eff
                    )
                    for i in range(bsz)
                ]
            )
            assert got.shape == (bsz, k_eff + 1)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


class TestStrategies:
    BASE = np.array([0.5, 0.3, 0.2])

    def _apply(self, strategy):
        return apply_weight_strategy(self.BASE.copy(), strategy, k=2)

    def test_v0_untouched(self):
        np.testing.assert_array_equal(self._apply("V0"), self.BASE)

    def test_v1_thresholds_at_inverse_k(self):
        np.testing.assert_array_equal(self._apply("V1"), [0.5, 0.0, 0.0])

    def test_v2_uniform_over_survivors(self):
        np.testing.assert_array_equal(self._apply("V2"), [1.0, 0.0, 0.0])

    def test_v3_survivors_to_one(self):
        np.testing.assert_array_equal(self._apply("V3"), [1.0, 0.0, 0.0])

    def test_v4_all_ones(self):
        np.testing.assert_array_equal(self._apply("V4"), [1.0, 1.0, 1.0])

    def test_v2_two_survivors(self):
        w = apply_weight_strategy(np.array([0.4, 0.35, 0.15, 0.1]), "V2", k=3)
        np.testing.assert_allclose(w, [0.5, 0.5, 0.0, 0.0], atol=1e-15)

    def test_v2_no_survivors_all_zero(self):
        w = apply_weight_strategy(np.array([0.34, 0.33, 0.33]), "V2", k=2)
        np.testing.assert_array_equal(w, np.zeros(3))

    def test_k_zero_passthrough(self):
        w = apply_weight_strategy(np.array([1.0]), "V1", k=0)
        np.testing.assert_array_equal(w, [1.0])

    def test_k_zero_v4_still_ones(self):
        w = apply_weight_strategy(np.array([0.4]), "V4", k=0)
        np.testing.assert_array_equal(w, [1.0])

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matrix_matches_row_by_row(self, strategy):
        k = 3
        rows = RngState(8).uniform((40, k + 1)) * (2.0 / k)
        rows[0] = 1.0 / k  # exactly at the threshold: survives
        rows[1] = 0.1  # no survivors
        rows[2, :2] = 1.0 / k
        batch = apply_weight_strategy(rows.copy(), strategy, k)
        expected = np.stack([apply_weight_strategy(r.copy(), strategy, k) for r in rows])
        np.testing.assert_array_equal(batch, expected)

    def test_input_left_untouched(self):
        rows = np.array([[0.5, 0.3, 0.2]])
        for strategy in STRATEGIES:
            out = apply_weight_strategy(rows, strategy, k=2)
            out[:] = -1.0
        np.testing.assert_array_equal(rows, [[0.5, 0.3, 0.2]])

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            apply_weight_strategy(self.BASE.copy(), "V9", k=2)

    def test_all_strategies_enumerated(self):
        assert STRATEGIES == ("V0", "V1", "V2", "V3", "V4")


def _pool(build, q, *args):
    """One of conftest's pool losses over raw q, unmined, at t = 0.5."""
    return build(TrainConfig(t=0.5, use_pnsm=False), l2_normalize_rows(q), *args, RngState(0))


class TestHardLoss:
    def test_ln2_when_negative_equals_positive(self):
        z2 = np.array([[1.0, 0.0]])
        out = _masked_nce(z2, z2[:, None], np.ones((1, 1)), z2, np.ones((1, 1), dtype=bool), 0.5)
        assert out.value == pytest.approx(np.log(2.0), abs=1e-12)

    def test_two_logit_oracle(self):
        # s_pos=1, s_neg=0.4, t=0.5: loss = ln(1 + e^{-1.2})
        z2 = np.array([[1.0, 0.0]])
        neg = _vec_with_sim(0.4)[None, :]
        out = _masked_nce(z2, z2[:, None], np.ones((1, 1)), neg, np.ones((1, 1), dtype=bool), 0.5)
        assert out.value == pytest.approx(np.log1p(np.exp(-1.2)), abs=1e-12)

    def test_no_negatives_zero_loss(self):
        # a single query owns both of the pool's rows, so it has no negatives
        q = np.array([[0.0, 2.0]])  # raw, normalized internally
        z2 = np.array([[0.0, 1.0]])
        out = _pool(hard_pool, q, z2, np.array([[1.0, 0.0]]))(q)
        assert out.neg_counts.tolist() == [0]
        assert out.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out.grad_q, 0.0, atol=1e-12)

    def test_batch_mean_reduction(self):
        rng = RngState(2)
        q = rng.normal((3, 4))
        z2 = l2_normalize_rows(rng.normal((3, 4)))
        cands = l2_normalize_rows(rng.normal((6, 4)))
        neg = np.tile([True, True, False, True, False, True], (3, 1))
        out = _masked_nce(q, z2[:, None], np.ones((3, 1)), cands, neg, 0.5)
        rows = [
            _masked_nce(q[i : i + 1], z2[i : i + 1, None], np.ones((1, 1)), cands, neg[i : i + 1], 0.5)
            for i in range(3)
        ]
        assert out.value == pytest.approx(np.mean([r.value for r in rows]), abs=1e-12)
        np.testing.assert_allclose(
            out.grad_q, np.vstack([r.grad_q for r in rows]) / 3, rtol=0, atol=1e-15
        )
        assert out.neg_counts.tolist() == [4, 4, 4]
        pool = _pool(hard_pool, q, z2, cands[:3])(q)
        assert pool.neg_counts.tolist() == [4, 4, 4]  # 2B rows less the query's two

    def test_more_negatives_raise_loss(self):
        rng = RngState(4)
        q = rng.normal((1, 6))
        z2 = l2_normalize_rows(rng.normal((1, 6)))
        cands = l2_normalize_rows(rng.normal((3, 6)))
        pos, w = z2[:, None], np.ones((1, 1))
        small = _masked_nce(q, pos, w, cands, np.array([[True, True, False]]), 0.5)
        large = _masked_nce(q, pos, w, cands, np.ones((1, 3), dtype=bool), 0.5)
        assert large.value > small.value


class TestSoftLoss:
    def test_equal_sims_no_negatives_ln_kplus1(self):
        # all members identical: simplex weights, lse collapses to ln(k+1);
        # a single query owns every member, so the pool has no negatives
        k = 3
        q = np.array([[2.0, 0.0]])
        member = np.array([1.0, 0.0])
        members = np.tile(member, (1, k + 1, 1))
        w = soft_weights(member[None, :], members)
        out = _pool(soft_pool, q, members, w)(q)
        assert out.neg_counts.tolist() == [0]
        assert out.value == pytest.approx(np.log(k + 1.0), abs=1e-12)

    def test_k_zero_equals_hard_loss(self):
        # with k = 0 the soft pool is the one-positive InfoNCE of each query
        # against the other queries' views
        rng = RngState(5)
        q = rng.normal((4, 6))
        z2 = l2_normalize_rows(rng.normal((4, 6)))
        out = _pool(soft_pool, q, z2[:, None, :], np.ones((4, 1)))(q)
        logits = l2_normalize_rows(q) @ z2.T / 0.5
        lse = np.log(np.exp(logits).sum(axis=1))
        assert out.value == pytest.approx(np.mean(lse - np.diag(logits)), abs=1e-12)
        assert out.neg_counts.tolist() == [3, 3, 3, 3]

    def test_zero_weights_zero_loss(self):
        rng = RngState(6)
        q = rng.normal((2, 4))
        members = np.stack([l2_normalize_rows(rng.normal((3, 4)))] * 2)
        out = _pool(soft_pool, q, members, np.zeros((2, 3)))(q)
        assert out.value == 0.0
        np.testing.assert_allclose(out.grad_q, 0.0, atol=1e-15)


def _one_pass(cfg):
    """trainer._psm_pass on a small network's online rows and a warm bank."""
    rng = RngState(9)
    params = init_params(
        NetworkConfig(in_dim=6, encoder=(8, 6), projector=(6, 5), predictor=(6, 5)),
        rng.split("net"),
    )
    bank = MemoryBank(16, 5, with_labels=True)
    bank.enqueue_batch(l2_normalize_rows(rng.split("bank").normal((12, 5))), np.arange(12) % 3)
    x = rng.split("x").normal((4, 6))
    z2a, z2b = (l2_normalize_rows(rng.split("z", i).normal((4, 5))) for i in (1, 2))
    cands_hard = np.concatenate([z2a, z2b])
    z1, q1, _ = forward_online(params, x)
    return _psm_pass(
        cfg, bank, z1, q1, z2b, cands_hard, np.arange(4) % 3, rng.split("pnsm")
    )


class TestPsmLoss:
    def test_linear_combination(self):
        # each pool draws from its own substream, so its mask, value and
        # gradient do not depend on whether the other pool is on
        cfg = TrainConfig(k=3, a=2.0, lam=2.5)
        total = _one_pass(cfg)
        soft = _one_pass(dataclasses.replace(cfg, use_hard=False))
        hard = _one_pass(dataclasses.replace(cfg, use_soft=False))
        assert (total.soft_value, total.hard_value) == (soft.soft_value, hard.hard_value)
        assert soft.hard_value == 0.0 and hard.soft_value == 0.0
        assert soft.loss == soft.soft_value and hard.loss == 2.5 * hard.hard_value
        assert total.loss == pytest.approx(soft.soft_value + 2.5 * hard.hard_value, abs=1e-12)
        g_total, g_soft, g_hard = (e.grad for e in (total, soft, hard))
        np.testing.assert_allclose(g_total, g_soft + g_hard, atol=1e-12)


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
        other = l2_normalize_rows(rng.normal((3, 5)))
        # the mined mask is drawn once at q and then held fixed
        cfg = TrainConfig(t=0.4, a=2.0)
        loss = hard_pool(cfg, l2_normalize_rows(q), z2, other, rng.split("mine"))
        fd = _fd_grad(lambda qq: loss(qq).value, q)
        np.testing.assert_allclose(loss(q).grad_q, fd, rtol=0, atol=1e-7)

    def test_soft_loss_gradient(self):
        rng = RngState(12)
        q = rng.normal((2, 5))
        members = np.stack([l2_normalize_rows(rng.normal((4, 5))) for _ in range(2)])
        z1 = l2_normalize_rows(rng.normal((2, 5)))
        weights = soft_weights(z1, members)
        cfg = TrainConfig(t=0.6, a=2.0)
        loss = soft_pool(cfg, l2_normalize_rows(q), members, weights, rng.split("mine"))
        fd = _fd_grad(lambda qq: loss(qq).value, q)
        np.testing.assert_allclose(loss(q).grad_q, fd, rtol=0, atol=1e-7)

    def test_soft_loss_gradient_with_unnormalized_weights(self):
        # V3-style 0/1 weights and one row summing to 2.5: the gradient's
        # denominator term scales with each row's weight sum, which
        # simplex weights (sum 1) cannot show
        rng = RngState(13)
        q = rng.normal((3, 5))
        members = np.stack([l2_normalize_rows(rng.normal((4, 5))) for _ in range(3)])
        weights = np.array([[1.0, 1.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0], [1.0, 0.5, 1.0, 0.0]])
        cfg = TrainConfig(t=0.5, a=2.0)
        loss = soft_pool(cfg, l2_normalize_rows(q), members, weights, rng.split("mine"))
        fd = _fd_grad(lambda qq: loss(qq).value, q)
        np.testing.assert_allclose(loss(q).grad_q, fd, rtol=0, atol=1e-7)


def _ragged_instance(seed):
    """Loss inputs: one positive count P (0 to 6) per instance, ragged negatives."""
    rng = RngState(seed)
    nq = 1 + int(rng.integers(1, 7))
    dim = 2 + int(rng.integers(0, 14))
    q = rng.normal((nq, dim))
    p_count = int(rng.integers(0, 7))
    n_counts = [int(rng.integers(0, 7)) for _ in range(nq)]
    pos = l2_normalize_rows(rng.normal((nq * p_count, dim))).reshape(nq, p_count, dim)
    w = rng.uniform((nq, p_count)) + 0.05
    n_cands = max(sum(n_counts), 1)
    cands = l2_normalize_rows(rng.normal((n_cands, dim)))
    neg_idx = rng.integers(0, n_cands, size=sum(n_counts)).astype(np.int64)
    neg_off = np.concatenate([[0], np.cumsum(n_counts)]).astype(np.int64)
    t = 0.2 + 0.8 * float(rng.uniform())
    return q, pos, w, t, cands, neg_idx, neg_off


def _reference_nce_loss_grad(q_raw, pos_all, w_all, t, cands, neg_idx, neg_off):
    """The weighted NCE one query at a time; the batched kernel must match it."""
    nq = q_raw.shape[0]
    n_pos = pos_all.shape[1]
    loss = np.zeros(nq, dtype=np.float64)
    grad = np.zeros_like(q_raw)
    for i in range(nq):
        u = q_raw[i]
        nrm = float(np.sqrt(u @ u))
        if nrm == 0.0 or n_pos == 0:
            continue
        q = u / nrm
        ns, ne = neg_off[i], neg_off[i + 1]
        pos = pos_all[i]
        w = w_all[i]
        idx = neg_idx[ns:ne]
        sp = pos @ q
        sn = cands[idx] @ q if ne > ns else np.empty(0)
        logits = np.concatenate([sp, sn]) / t
        m = logits.max()
        e = np.exp(logits - m)
        z = e.sum()
        lse = m + np.log(z)
        wsum = w.sum()
        loss[i] = float(np.dot(w, lse - sp / t))
        # d(loss)/d(similarity) for every member of the denominator.
        dlds = (wsum / t) * (e / z)
        dlds[:n_pos] -= w / t
        g = dlds[:n_pos] @ pos
        if ne > ns:
            g = g + dlds[n_pos:] @ cands[idx]
        grad[i] = (g - (q @ g) * q) / nrm
    return loss, grad


def _assert_matches_reference(inst):
    loss, grad = nce_loss_grad(*inst)
    ref_loss, ref_grad = _reference_nce_loss_grad(*inst)
    np.testing.assert_allclose(loss, ref_loss, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)
    return loss, grad


def _has_duplicate_negative(inst):
    neg_idx, neg_off = inst[5], inst[6]
    return any(
        len(set(neg_idx[a:b].tolist())) < b - a for a, b in zip(neg_off[:-1], neg_off[1:])
    )


class TestNceLossGrad:
    def test_is_deterministic(self):
        inst = _ragged_instance(7)
        v1, g1 = nce_loss_grad(*inst)
        v2, g2 = nce_loss_grad(*inst)
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(g1, g2)

    def test_bad_temperature_rejected(self):
        inst = list(_ragged_instance(3))
        inst[3] = 0.0
        with pytest.raises(ValueError):
            nce_loss_grad(*inst)

    def test_matches_reference_loop(self):
        instances = [_ragged_instance(seed) for seed in range(50)]
        # the same candidate listed twice for one query must count twice
        assert sum(_has_duplicate_negative(inst) for inst in instances) >= 10
        for inst in instances:
            _assert_matches_reference(inst)

    def test_zero_norm_query_gets_zero(self):
        inst = list(_ragged_instance(4))
        inst[0] = inst[0].copy()
        inst[0][1] = 0.0
        loss, grad = _assert_matches_reference(inst)
        assert loss[1] == 0.0
        np.testing.assert_array_equal(grad[1], 0.0)
        assert np.all(loss[[0, *range(2, len(loss))]] != 0.0)

    def test_query_without_positives_gets_zero(self):
        q, pos, w, t, cands, neg_idx, neg_off = _ragged_instance(5)
        # a P = 0 block: every query keeps its negatives but has no positive
        inst = (q, pos[:, :0], w[:, :0], t, cands, neg_idx, neg_off)
        assert neg_off[-1] > 0
        loss, grad = _assert_matches_reference(inst)
        np.testing.assert_array_equal(loss, 0.0)
        np.testing.assert_array_equal(grad, 0.0)

    def test_empty_negative_segment_keeps_positive_loss(self):
        q = RngState(13).normal((3, 4))
        pos = l2_normalize_rows(RngState(14).normal((9, 4))).reshape(3, 3, 4)
        w = np.array([[0.5, 0.25, 0.25], [1.0, 0.7, 0.3], [0.2, 0.3, 0.5]])
        cands = l2_normalize_rows(RngState(15).normal((4, 4)))
        neg_idx = np.array([0, 1, 1, 3])
        neg_off = np.array([0, 0, 4, 4])  # queries 0 and 2 have no negatives
        inst = (q, pos, w, 0.5, cands, neg_idx, neg_off)
        loss, _ = _assert_matches_reference(inst)
        # no negatives: lse spans the query's own positives alone
        for i in (0, 2):
            sp = pos[i] @ (q[i] / np.linalg.norm(q[i])) / 0.5
            lse = np.log(np.exp(sp).sum())
            assert loss[i] == pytest.approx(np.dot(w[i], lse - sp), rel=1e-12)

    def test_no_candidates(self):
        for seed in (6, 7):  # P = 0 and P = 4
            q, pos, w, t, _, _, _ = _ragged_instance(seed)
            nq, dim = q.shape
            no_negatives = np.zeros(nq + 1, dtype=np.int64)
            inst = (q, pos, w, t, np.zeros((0, dim)), no_negatives[:0], no_negatives)
            loss, _ = _assert_matches_reference(inst)
            assert np.all(np.isfinite(loss))

    def test_duplicate_negative_counts_as_a_copy(self):
        q, pos, w, t, cands, _, _ = _ragged_instance(9)
        nq = q.shape[0]
        off = np.arange(nq + 1) * 2
        # every query lists candidate 0 twice, or two equal candidates once each
        twice = nce_loss_grad(q, pos, w, t, cands, np.zeros(2 * nq), off)
        copies = np.vstack([cands[:1], cands[:1]])
        once = nce_loss_grad(q, pos, w, t, copies, np.tile([0, 1], nq), off)
        for a, b in zip(twice, once):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-15)
