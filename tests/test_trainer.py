import dataclasses

import numpy as np
import pytest

from psm.cli import _write_csv
from psm.data import gen_clusters
from psm.memory_bank import MemoryBank
from psm.network import (
    HEADS,
    LAYER_FIELDS,
    NetworkConfig,
    backward,
    commit_bn_stats,
    copy_params,
    forward_online,
    forward_projection,
    forward_target,
    init_params,
    iter_trainable,
)
from psm.numerics import RngState, l2_normalize_rows
from psm.trainer import (
    METRICS_HEADER,
    TrainConfig,
    _evaluate_step,
    _masked_nce,
    _pass,
    _pool_mask,
    pretrain,
    run_ablation_suite,
)


def _mini_cfg(**over):
    base = dict(
        batch_size=16,
        k=5,
        epochs=2,
        warmup_epochs=0,
        peak_lr=0.05,
        bank_capacity=512,
        encoder=(32, 16),
        projector=(16, 8),
        predictor=(8, 8),
        probe_every=10,
        seed=0,
    )
    base.update(over)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def mini_data():
    train = gen_clusters(4, 16, 8, 6.0, seed=1, split="train")
    test = gen_clusters(4, 8, 8, 6.0, seed=1, split="test")
    return train, test


class TestValidate:
    @pytest.mark.parametrize(
        "over",
        [
            dict(t=0.0),
            dict(batch_size=1),
            dict(k=-1),
            dict(a=-0.5),
            dict(lam=-1.0),
            dict(ema_momentum=1.5),
            dict(bank_capacity=0),
            dict(epochs=1, warmup_epochs=2),
            dict(epochs=-1),
            dict(warmup_epochs=-1),
            dict(strategy="V9"),
            dict(weight_span="everything"),
            dict(use_soft=False, use_hard=False),
            dict(k=0, use_hard=False),
            dict(use_soft=False, lam=0.0),
            dict(probe_knn=0),
            dict(probe_every=-1),
            # wrong types and non-finite numbers
            dict(a=float("nan")),
            dict(a=float("inf")),
            dict(t=float("nan")),
            dict(lam=float("nan")),
            dict(peak_lr=float("nan")),
            dict(epochs=2.5),
            dict(batch_size="16"),
            dict(t="0.5"),
            dict(k=True),
            dict(encoder=5),
            dict(encoder=(32, 0)),
            dict(projector=()),
            dict(predictor=(8, 8.0)),
            dict(use_pnsm="no"),
            dict(strategy=1),
            dict(augment={"sigma": 0.1}),
            # optimizer ranges
            dict(base_lr=-1e-4),
            dict(peak_lr=-5.0),
            dict(floor_lr=-0.01),
            dict(weight_decay=-1.0),
            dict(sgd_momentum=-0.1),
            dict(sgd_momentum=1.0),
            dict(sgd_momentum=5.0),
        ],
    )
    def test_rejects(self, over):
        with pytest.raises(ValueError):
            _mini_cfg(**over)

    def test_replace_is_checked_too(self):
        with pytest.raises(ValueError, match="warmup"):
            dataclasses.replace(_mini_cfg(), warmup_epochs=3)

    def test_fields_are_frozen(self):
        cfg = _mini_cfg()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.k = -1
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.augment.sigma = -1.0

    def test_baseline_ignores_loss_switches(self):
        _mini_cfg(baseline=True, use_soft=False, use_hard=False)
        _mini_cfg(baseline=True, use_soft=False, lam=0.0)

    def test_probe_only_at_the_end_is_valid(self):
        _mini_cfg(probe_every=0)

    def test_default_is_valid(self):
        TrainConfig()

    def test_ints_stand_for_floats(self):
        _mini_cfg(t=1, a=0, lam=2, peak_lr=1)

    def test_optimizer_range_edges_are_valid(self):
        zeros = dict(base_lr=0.0, peak_lr=0.0, floor_lr=0.0, weight_decay=0.0)
        _mini_cfg(**zeros, sgd_momentum=0.0)

    def test_optimizer_takes_the_config_values(self):
        cfg = _mini_cfg(sgd_momentum=0.8, weight_decay=0.002, base_lr=0.001,
                        floor_lr=0.01, epochs=7, warmup_epochs=3)
        opt = cfg.optimizer()
        rates = (opt.momentum, opt.weight_decay, opt.base_lr, opt.peak_lr, opt.floor_lr)
        assert rates == (0.8, 0.002, 0.001, 0.05, 0.01)
        assert (opt.warmup_epochs, opt.total_epochs, opt.step_count, opt.buffers) == (3, 7, 0, {})


class TestNegativeCountOracle:
    def test_counts_prove_enqueue_after_query(self, mini_data):
        train, _ = mini_data
        cfg = _mini_cfg(use_pnsm=False)
        art = pretrain(cfg, train)
        # batch 16: hard pool is always 2*16-2 = 30 per query. The soft pool
        # is (16-1)*(k_eff+1): 15 while the bank is empty (k_eff 0), 90 once
        # it holds at least k entries. Epoch 1 therefore averages
        # (45 + 120 + 120 + 120) / 4 and epoch 2 is exactly 120.
        assert art.metrics[0]["neg_retained_mean"] == 101.25
        assert art.metrics[1]["neg_retained_mean"] == 120.0

    def test_purity_rows_skip_cold_bank(self, mini_data):
        train, _ = mini_data
        art = pretrain(_mini_cfg(use_pnsm=False), train)
        assert len(art.purity_rows) == 7
        assert all(0.0 <= row[2] <= 1.0 for row in art.purity_rows)
        assert art.metrics[0]["purity_topk"] is not None


class TestDeterminism:
    def test_same_config_is_bit_identical(self, mini_data):
        train, test = mini_data
        a = pretrain(_mini_cfg(), train, test)
        b = pretrain(_mini_cfg(), train, test)
        assert a.metrics == b.metrics
        for (ka, ta), (kb, tb) in zip(
            iter_trainable(a.params), iter_trainable(b.params)
        ):
            assert ka == kb
            np.testing.assert_array_equal(ta, tb)

    def test_seed_changes_the_run(self, mini_data):
        train, test = mini_data
        a = pretrain(_mini_cfg(seed=0), train, test)
        b = pretrain(_mini_cfg(seed=1), train, test)
        assert a.metrics[-1]["loss_total"] != b.metrics[-1]["loss_total"]


class TestSwapInvariance:
    def test_symmetrized_step_ignores_view_order(self):
        net_cfg = NetworkConfig(
            in_dim=8, encoder=(16, 8), projector=(8, 6), predictor=(6, 6)
        )
        params = init_params(net_cfg, RngState(3))
        target = copy_params(params)
        bank = MemoryBank(64, 6, with_labels=True)
        bank.enqueue_batch(
            l2_normalize_rows(RngState(4).normal((40, 6))),
            RngState(5).integers(0, 4, size=40),
        )
        cfg = _mini_cfg(symmetrize=True, use_pnsm=False, k=3)
        x = gen_clusters(4, 4, 8, 6.0, seed=6).features
        x1 = x + 0.05
        x2 = x - 0.05
        labels = np.arange(16, dtype=np.int64) % 4
        ev_a, _ = _evaluate_step(
            cfg, params, target, bank, np.stack([x1, x2]), labels, 1, 0, RngState(9)
        )
        ev_b, _ = _evaluate_step(
            cfg, params, target, bank, np.stack([x2, x1]), labels, 1, 0, RngState(9)
        )
        assert ev_a.loss == pytest.approx(ev_b.loss, abs=1e-9)
        assert ev_a.soft_value == pytest.approx(ev_b.soft_value, abs=1e-9)
        assert ev_a.hard_value == pytest.approx(ev_b.hard_value, abs=1e-9)
        ga = backward(params, ev_a.cache, ev_a.grad)
        gb = backward(params, ev_b.cache, ev_b.grad)
        for key in ga:
            np.testing.assert_allclose(ga[key], gb[key], rtol=1e-7, atol=1e-10)


def _tiny_psm_step(symmetrize, use_pnsm):
    """One PSM step at B=16, k=3 against a 40-row bank."""
    net_cfg = NetworkConfig(
        in_dim=8, encoder=(16, 8), projector=(8, 6), predictor=(6, 6)
    )
    params = init_params(net_cfg, RngState(3))
    bank = MemoryBank(64, 6, with_labels=True)
    bank.enqueue_batch(
        l2_normalize_rows(RngState(4).normal((40, 6))),
        RngState(5).integers(0, 4, size=40),
    )
    x = gen_clusters(4, 4, 8, 6.0, seed=6).features
    cfg = _mini_cfg(symmetrize=symmetrize, use_pnsm=use_pnsm, k=3)
    labels = np.arange(16, dtype=np.int64) % 4
    _evaluate_step(
        cfg, params, copy_params(params), bank, np.stack([x + 0.05, x - 0.05]), labels,
        1, 0, RngState(9),
    )


class TestMiningSubstreams:
    def _step_keys(self, monkeypatch, symmetrize):
        from psm import pnsm, trainer

        keys = []

        def recording(sims_flat, s_pos, off, cfg, rng):
            keys.append(rng._key)
            return pnsm.filter_csr(sims_flat, s_pos, off, cfg, rng)

        monkeypatch.setattr(trainer, "filter_csr", recording)
        _tiny_psm_step(symmetrize, use_pnsm=True)
        return keys

    def test_symmetrized_passes_draw_distinct_streams(self, monkeypatch):
        keys = self._step_keys(monkeypatch, symmetrize=True)
        assert len(keys) == 4  # hard and soft pools of both passes
        assert len(set(keys)) == 4

    def test_first_pass_streams_unchanged_by_symmetrize(self, monkeypatch):
        plain = self._step_keys(monkeypatch, symmetrize=False)
        sym = self._step_keys(monkeypatch, symmetrize=True)
        step = RngState(9).split("pnsm", 1, 0)
        assert plain == [step.split("hard")._key, step.split("soft")._key]
        assert sym[:2] == plain


def _hard_csr(n):
    """Reference layout of the hard pool: indices into the stacked (2n, d) views."""
    mask = np.ones((n, 2 * n), dtype=bool)
    rows = np.arange(n)
    mask[rows, rows] = False
    mask[rows, n + rows] = False
    idx = np.tile(np.arange(2 * n, dtype=np.int64), (n, 1))[mask]
    off = np.arange(n + 1, dtype=np.int64) * (2 * n - 2)
    return idx, off


def _soft_csr(n, p):
    """Reference layout of the soft pool: indices into the flat (n*p, d) members."""
    mask = np.ones((n, n * p), dtype=bool)
    for i in range(n):
        mask[i, i * p : (i + 1) * p] = False
    idx = np.tile(np.arange(n * p, dtype=np.int64), (n, 1))[mask]
    off = np.arange(n + 1, dtype=np.int64) * ((n - 1) * p)
    return idx, off


def _reference_filtered(idx, off, keep):
    """Drop rejected entries from a CSR list and re-thread its offsets."""
    csum = np.concatenate([[0], np.cumsum(keep)])
    new_off = np.zeros_like(off)
    new_off[1:] = csum[off[1:]]
    return idx[keep], new_off


class TestPoolLayout:
    """The dense pool masks hand the kernels exactly the old CSR lists."""

    def _record(self, monkeypatch):
        from psm import pnsm, ppsm, trainer

        calls = []

        def filter_rec(sims_flat, s_pos, off, cfg, rng):
            out = pnsm.filter_csr(sims_flat, s_pos, off, cfg, rng)
            calls.append(("filter", (sims_flat, off), out[1]))
            return out

        def nce_rec(q1, pos, w, t, cands, neg_idx, neg_off):
            calls.append(("nce", (q1, cands, neg_idx, neg_off), (pos, w)))
            return ppsm.weighted_nce_csr(q1, pos, w, t, cands, neg_idx, neg_off)

        monkeypatch.setattr(trainer, "filter_csr", filter_rec)
        monkeypatch.setattr(trainer, "weighted_nce_csr", nce_rec)
        return calls

    def _check(self, calls, mining, n_pools):
        pools = 0
        while calls:
            keep = None
            if mining:
                kind, (sims_flat, filter_off), keep = calls.pop(0)
                assert kind == "filter"
            kind, (q, cands, neg_idx, neg_off), (pos, w) = calls.pop(0)
            assert kind == "nce"
            bsz, n_cands = q.shape[0], cands.shape[0]
            if n_cands == 2 * bsz:
                idx, off = _hard_csr(bsz)
                p_count = 1  # the other view alone, weight 1
                np.testing.assert_array_equal(w, 1.0)
            else:
                p_count = n_cands // bsz  # every member of the query
                idx, off = _soft_csr(bsz, p_count)
                np.testing.assert_array_equal(pos.reshape(n_cands, -1), cands)
            assert pos.shape == (bsz, p_count, cands.shape[1])
            assert w.shape == (bsz, p_count)
            if mining:
                sims = np.clip(q @ cands.T, -1.0, 1.0)
                rows = np.repeat(np.arange(bsz), np.diff(off))
                np.testing.assert_array_equal(sims_flat, sims[rows, idx])
                np.testing.assert_array_equal(filter_off, off)
                assert not keep.all()  # the filter really thinned this pool
                idx, off = _reference_filtered(idx, off, keep)
            np.testing.assert_array_equal(neg_idx, idx)
            np.testing.assert_array_equal(neg_off, off)
            pools += 1
        assert pools == n_pools

    @pytest.mark.parametrize("mining", [True, False])
    @pytest.mark.parametrize("symmetrize", [False, True])
    def test_psm_step(self, monkeypatch, mining, symmetrize):
        calls = self._record(monkeypatch)
        _tiny_psm_step(symmetrize, use_pnsm=mining)
        pool_sizes = [c[1][1].shape[0] for c in calls if c[0] == "nce"]
        assert pool_sizes == [32, 64] * (1 + symmetrize)  # hard 2B, then soft B*(k+1)
        self._check(calls, mining, n_pools=2 * (1 + symmetrize))

    @pytest.mark.parametrize("mining", [True, False])
    def test_baseline_step(self, monkeypatch, mining):
        calls = self._record(monkeypatch)
        net_cfg = NetworkConfig(
            in_dim=8, encoder=(16, 8), projector=(8, 6), predictor=(6, 6)
        )
        params = init_params(net_cfg, RngState(3))
        x = gen_clusters(4, 4, 8, 6.0, seed=6).features
        cfg = _mini_cfg(baseline=True, use_pnsm=mining)
        views = np.stack([x + 0.05, x - 0.05])
        _evaluate_step(cfg, params, None, None, views, None, 1, 0, RngState(9))
        self._check(calls, mining, n_pools=2)


class TestLossComposition:
    def test_hard_only_total_scales_with_lambda(self, mini_data):
        train, _ = mini_data
        art = pretrain(_mini_cfg(use_soft=False, lam=2.0, epochs=1), train)
        row = art.metrics[0]
        assert row["loss_soft"] == 0.0
        assert row["loss_total"] == pytest.approx(2.0 * row["loss_hard"], rel=1e-12)

    def test_soft_only_runs(self, mini_data):
        train, _ = mini_data
        art = pretrain(_mini_cfg(use_hard=False, epochs=1), train)
        row = art.metrics[0]
        assert row["loss_hard"] == 0.0
        assert row["loss_total"] == pytest.approx(row["loss_soft"], rel=1e-12)

    def test_k_zero_with_hard_loss_runs(self, mini_data):
        train, _ = mini_data
        art = pretrain(_mini_cfg(k=0, epochs=1), train)
        assert np.isfinite(art.metrics[0]["loss_total"])
        assert art.metrics[0]["purity_topk"] is None

    @pytest.mark.parametrize("strategy", ["V1", "V2", "V3", "V4"])
    def test_strategies_run_finite(self, mini_data, strategy):
        train, _ = mini_data
        art = pretrain(_mini_cfg(strategy=strategy, epochs=1), train)
        assert np.isfinite(art.metrics[0]["loss_total"])

    def test_mined_only_span_runs_finite(self, mini_data):
        train, _ = mini_data
        art = pretrain(_mini_cfg(weight_span="mined_only", epochs=1), train)
        assert np.isfinite(art.metrics[0]["loss_total"])

    def test_symmetrize_runs_and_keeps_counts(self, mini_data):
        train, _ = mini_data
        art = pretrain(_mini_cfg(symmetrize=True, use_pnsm=False), train)
        assert art.metrics[1]["neg_retained_mean"] == 120.0


def _baseline_cfg(**over):
    return dataclasses.replace(_mini_cfg(**over), baseline=True)


class TestBaseline:
    def test_soft_hard_columns_are_empty(self, mini_data):
        train, test = mini_data
        art = pretrain(_baseline_cfg(epochs=1), train, test)
        row = art.metrics[0]
        assert row["loss_soft"] is None and row["loss_hard"] is None
        assert row["purity_top1"] is None
        assert art.target is None

    def test_zero_width_filter_equals_no_filter(self, mini_data):
        train, _ = mini_data
        keep_all = pretrain(_baseline_cfg(a=0.0, use_pnsm=True), train)
        no_pnsm = pretrain(_baseline_cfg(use_pnsm=False), train)
        assert keep_all.metrics == no_pnsm.metrics
        for (_, ta), (_, tb) in zip(
            iter_trainable(keep_all.params), iter_trainable(no_pnsm.params)
        ):
            np.testing.assert_array_equal(ta, tb)

    def test_pool_switches_are_ignored(self, mini_data):
        """The baseline is the hard pool alone, in both directions, at weight 1."""
        train, test = mini_data
        plain = pretrain(_baseline_cfg(a=2.0), train, test)
        switched = pretrain(
            _mini_cfg(
                baseline=True, a=2.0, lam=0.5, use_soft=False, use_hard=False,
                symmetrize=True, strategy="V2", weight_span="mined_only",
            ),
            train,
            test,
        )
        assert switched.metrics == plain.metrics
        assert (switched.init_knn, switched.final_knn) == (plain.init_knn, plain.final_knn)
        for head in HEADS:
            for la, lb in zip(plain.params.head(head), switched.params.head(head)):
                for name in LAYER_FIELDS:
                    np.testing.assert_array_equal(getattr(la, name), getattr(lb, name))
        assert switched.opt.buffers.keys() == plain.opt.buffers.keys()
        for key, buf in plain.opt.buffers.items():
            np.testing.assert_array_equal(switched.opt.buffers[key], buf, err_msg=key)

    def test_mining_changes_the_baseline(self, mini_data):
        train, _ = mini_data
        mined = pretrain(_baseline_cfg(a=2.0), train)
        plain = pretrain(_baseline_cfg(use_pnsm=False), train)
        assert (
            mined.metrics[0]["neg_retained_mean"]
            < plain.metrics[0]["neg_retained_mean"]
        )


class TestBaselineForward:
    """The baseline runs the online pass only up to the projector."""

    def _step(self):
        net_cfg = NetworkConfig(
            in_dim=8, encoder=(16, 8), projector=(8, 6), predictor=(6, 6)
        )
        params = init_params(net_cfg, RngState(3))
        x = gen_clusters(4, 4, 8, 6.0, seed=6).features
        cfg = _mini_cfg(baseline=True, a=2.0)
        views = np.stack([x + 0.05, x - 0.05])
        ev, _ = _evaluate_step(cfg, params, None, None, views, None, 1, 0, RngState(9))
        return params, ev

    def test_step_equals_the_full_online_pass(self, monkeypatch):
        """The loss reads the full pass's z1; the gradient stops at the projector.

        The per-view gradients are compared in TestOnePassPerStep.
        """
        from psm import trainer

        params, short_ev = self._step()
        short_grads = backward(params, short_ev.cache, short_ev.grad)

        def full_pass(params, x):
            z1, _, cache = forward_online(params, x, train=True)
            return z1, cache

        monkeypatch.setattr(trainer, "forward_projection", full_pass)
        _, full_ev = self._step()
        assert short_ev.loss == full_ev.loss
        assert short_ev.retained_mean == full_ev.retained_mean
        np.testing.assert_array_equal(short_ev.grad, full_ev.grad)
        assert "predictor" not in short_ev.cache and "predictor" in full_ev.cache
        assert {key.partition(".")[0] for key in short_grads} == {"encoder", "projector"}

    def test_predictor_running_stats_stay_initial(self, mini_data):
        train, _ = mini_data
        art = pretrain(_baseline_cfg(epochs=1), train)
        for layer in art.params.predictor:
            np.testing.assert_array_equal(layer.run_mean, 0.0)
            np.testing.assert_array_equal(layer.run_var, 1.0)
        assert not np.array_equal(art.params.encoder[0].run_mean, 0.0)
        # the predictor is neither run nor trained: no decay, no buffer
        init = init_params(art.params.config, RngState(0).split("net"))
        for layer, ref in zip(art.params.predictor, init.predictor):
            for name in ("w", "b", "gamma", "beta"):
                np.testing.assert_array_equal(getattr(layer, name), getattr(ref, name))
        assert not any(key.startswith("predictor") for key in art.opt.buffers)
        assert any(key.startswith("encoder") for key in art.opt.buffers)

    def test_psm_run_trains_the_predictor(self, mini_data):
        train, _ = mini_data
        art = pretrain(_mini_cfg(epochs=1), train)
        init = init_params(art.params.config, RngState(0).split("net"))
        for layer, ref in zip(art.params.predictor, init.predictor):
            assert not np.array_equal(layer.w, ref.w)
            assert not np.array_equal(layer.run_mean, ref.run_mean)
        assert sorted(art.opt.buffers) == sorted(key for key, _ in iter_trainable(art.params))


class TestOnePassPerStep:
    """A step's one stacked online pass equals one pass per view, bit for bit.

    The reference runs each view through its own single-view forward call
    and its own backward, then sums the gradients in view order.
    """

    def _setup(self):
        net_cfg = NetworkConfig(
            in_dim=9, encoder=(17, 11), projector=(13, 7), predictor=(15, 7)
        )
        params = init_params(net_cfg, RngState(3))
        perturb = RngState(10)
        for _, arr in iter_trainable(params):
            arr += 0.2 * perturb.normal(arr.shape)
        x = RngState(6).normal((13, 9))
        return params, x + 0.05, x - 0.05

    @staticmethod
    def _assert_same_update(params, ev, ref_params, ref_caches, ref_grads):
        grads = backward(params, ev.cache, ev.grad)
        summed = ref_grads[0]
        for part in ref_grads[1:]:
            for key in summed:
                summed[key] += part[key]
        assert grads.keys() == summed.keys()
        for key, val in summed.items():
            np.testing.assert_array_equal(grads[key], val, err_msg=key)
        commit_bn_stats(params, ev.cache)
        for cache in ref_caches:
            commit_bn_stats(ref_params, cache)
        for head in HEADS:
            for layer, ref in zip(params.head(head), ref_params.head(head)):
                np.testing.assert_array_equal(layer.run_mean, ref.run_mean)
                np.testing.assert_array_equal(layer.run_var, ref.run_var)

    def test_baseline_step(self):
        params, x1, x2 = self._setup()
        ref_params = copy_params(params)
        cfg = _mini_cfg(baseline=True, a=2.0)
        views = np.stack([x1, x2])
        ev, _ = _evaluate_step(cfg, params, None, None, views, None, 1, 0, RngState(9))

        za, cache_a = forward_projection(ref_params, x1)
        zb, cache_b = forward_projection(ref_params, x2)
        cands = np.concatenate([za, zb])
        owner = np.tile(np.arange(13), 2)
        rng_pnsm = RngState(9).split("pnsm", 1, 0)
        losses, retained, grads = [], [], []
        for v, (q, pos, cache) in enumerate(((za, zb, cache_a), (zb, za, cache_b))):
            neg = _pool_mask(cfg, q, pos, cands, owner, rng_pnsm.split("pass", v))
            out = _masked_nce(q, pos[:, None], np.ones((13, 1)), cands, neg, cfg.t)
            losses.append(out.value)
            retained.append(float(out.neg_counts.mean()))
            grads.append(backward(ref_params, cache, 0.5 * out.grad_q))
        assert ev.loss == 0.5 * (losses[0] + losses[1])
        assert ev.retained_mean == 0.5 * (retained[0] + retained[1])
        self._assert_same_update(params, ev, ref_params, (cache_a, cache_b), grads)

    @pytest.mark.parametrize("symmetrize", [False, True])
    def test_psm_step(self, symmetrize):
        params, x1, x2 = self._setup()
        ref_params = copy_params(params)
        target = copy_params(params)
        bank = MemoryBank(64, 7, with_labels=True)
        bank.enqueue_batch(
            l2_normalize_rows(RngState(4).normal((40, 7))),
            RngState(5).integers(0, 4, size=40),
        )
        labels = np.arange(13, dtype=np.int64) % 4
        cfg = _mini_cfg(symmetrize=symmetrize, k=3, a=2.0)
        ev, enqueue_view = _evaluate_step(
            cfg, params, target, bank, np.stack([x1, x2]), labels, 1, 0, RngState(9)
        )

        cands_hard = forward_target(target, np.concatenate([x1, x2]))
        z2a, z2b = np.split(cands_hard, 2)
        rng_pnsm = RngState(9).split("pnsm", 1, 0)
        za, qa, cache_a = forward_online(ref_params, x1)
        dirs = [_pass(cfg, bank, za, qa, z2b, cands_hard, labels, rng_pnsm)]
        caches = [cache_a]
        if symmetrize:
            zb, qb, cache_b = forward_online(ref_params, x2)
            rng_b = rng_pnsm.split("pass", 1)
            dirs.append(_pass(cfg, bank, zb, qb, z2a, cands_hard, labels, rng_b))
            caches.append(cache_b)

        def mean(values):
            return 0.5 * (values[0] + values[1]) if symmetrize else values[0]

        scale = 0.5 if symmetrize else 1.0
        grads = [
            backward(ref_params, cache, scale * d.grad)
            for d, cache in zip(dirs, caches)
        ]
        for name in ("loss", "soft_value", "hard_value"):
            assert getattr(ev, name) == mean([getattr(d, name) for d in dirs])
        assert ev.retained_mean == mean([d.retained_mean for d in dirs])
        assert (ev.purity_top1, ev.purity_topk) == (dirs[0].purity_top1, dirs[0].purity_topk)
        np.testing.assert_array_equal(enqueue_view, z2b)
        self._assert_same_update(params, ev, ref_params, caches, grads)


class TestProbeCadence:
    def test_knn_populates_on_schedule(self, mini_data):
        train, test = mini_data
        art = pretrain(_mini_cfg(epochs=5, probe_every=2), train, test)
        populated = [row["knn_acc"] is not None for row in art.metrics]
        assert populated == [False, True, False, True, True]
        assert art.init_knn is not None
        assert art.final_knn == art.metrics[-1]["knn_acc"]

    def test_no_test_set_means_no_probes(self, mini_data):
        train, _ = mini_data
        art = pretrain(_mini_cfg(epochs=1), train)
        assert art.init_knn is None and art.final_knn is None
        assert art.metrics[0]["knn_acc"] is None


class TestEdges:
    def test_batch_larger_than_dataset(self, mini_data):
        train, _ = mini_data
        cfg = _mini_cfg(batch_size=128, epochs=1)
        with pytest.raises(ValueError, match="exceeds dataset size"):
            pretrain(cfg, train)

    def test_zero_epochs_returns_empty_metrics(self, mini_data):
        train, test = mini_data
        art = pretrain(_mini_cfg(epochs=0), train, test)
        assert art.metrics == []
        assert art.final_knn == art.init_knn

    def test_metrics_rows_carry_every_column(self, mini_data):
        train, test = mini_data
        art = pretrain(_mini_cfg(epochs=1), train, test)
        assert set(art.metrics[0]) == set(METRICS_HEADER.split(","))


class TestAblation:
    def test_rows_per_cell(self, mini_data):
        train, test = mini_data
        cells = [
            ("full", _mini_cfg(epochs=1)),
            ("no_soft", _mini_cfg(epochs=1, use_soft=False)),
        ]
        rows = run_ablation_suite(cells, train, test)
        assert [row["label"] for row in rows] == ["full", "no_soft"]
        for row in rows:
            assert set(row) == {"label", "knn_acc", "purity_top1", "loss_total"}
            assert 0.0 <= row["knn_acc"] <= 1.0

    def test_empty_grid_rejected(self, mini_data):
        train, test = mini_data
        with pytest.raises(ValueError, match="empty"):
            run_ablation_suite([], train, test)

    def test_replace_builds_cells(self):
        base = _mini_cfg()
        cell = dataclasses.replace(base, strategy="V2")
        assert cell.strategy == "V2" and base.strategy == "V0"


def _metric_cells(rows):
    """Each metrics dict's values in METRICS_HEADER order, as cmd_pretrain writes them."""
    cols = METRICS_HEADER.split(",")
    return [[row.get(c) for c in cols] for row in rows]


class TestMetricsCsv:
    def test_none_and_nan_become_empty_cells(self, tmp_path):
        rows = [
            {
                "epoch": 1,
                "lr": 0.5,
                "loss_total": 1.5,
                "loss_soft": None,
                "loss_hard": float("nan"),
                "purity_top1": 0.25,
                "purity_topk": None,
                "neg_retained_mean": 2.0,
                "knn_acc": None,
            }
        ]
        path = tmp_path / "m.csv"
        _write_csv(path, METRICS_HEADER, _metric_cells(rows))
        assert path.read_text(encoding="utf-8") == (
            METRICS_HEADER + "\n1,0.5,1.5,,,0.25,,2.0,\n"
        )

    def test_repr_floats_round_trip(self, tmp_path):
        value = 0.1 + 0.2
        rows = [{"epoch": 1, "lr": value, "loss_total": value}]
        path = tmp_path / "m.csv"
        _write_csv(path, METRICS_HEADER, _metric_cells(rows))
        cell = path.read_text(encoding="utf-8").splitlines()[1].split(",")[1]
        assert float(cell) == value
