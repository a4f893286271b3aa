import dataclasses

import numpy as np
import pytest

from psm.data import gen_clusters
from psm.memory_bank import MemoryBank
from psm.network import NetworkConfig, copy_params, init_params, iter_trainable
from psm.numerics import RngState, l2_normalize_rows
from psm.trainer import (
    METRICS_HEADER,
    TrainConfig,
    _accumulate_grads,
    _evaluate_psm_step,
    pretrain,
    run_ablation_suite,
    write_metrics_csv,
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
            dict(strategy="V9"),
            dict(weight_span="everything"),
            dict(use_soft=False, use_hard=False),
            dict(k=0, use_hard=False),
        ],
    )
    def test_rejects(self, over):
        with pytest.raises(ValueError):
            _mini_cfg(**over).validate()

    def test_baseline_ignores_loss_switches(self):
        _mini_cfg(baseline=True, use_soft=False, use_hard=False).validate()

    def test_default_is_valid(self):
        TrainConfig().validate()


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
        ev_a, _ = _evaluate_psm_step(
            cfg, params, target, bank, x1, x2, labels, 1, 0, RngState(9)
        )
        ev_b, _ = _evaluate_psm_step(
            cfg, params, target, bank, x2, x1, labels, 1, 0, RngState(9)
        )
        assert ev_a.loss == pytest.approx(ev_b.loss, abs=1e-9)
        assert ev_a.soft_value == pytest.approx(ev_b.soft_value, abs=1e-9)
        assert ev_a.hard_value == pytest.approx(ev_b.hard_value, abs=1e-9)
        ga = _accumulate_grads(params, ev_a, baseline=False)
        gb = _accumulate_grads(params, ev_b, baseline=False)
        for key in ga:
            np.testing.assert_allclose(ga[key], gb[key], rtol=1e-7, atol=1e-10)


class TestMiningSubstreams:
    def _step_keys(self, monkeypatch, symmetrize):
        from psm import pnsm, trainer

        keys = []

        def recording(sims_flat, s_pos, off, cfg, rng):
            keys.append(rng._key)
            return pnsm.filter_csr(sims_flat, s_pos, off, cfg, rng)

        monkeypatch.setattr(trainer, "filter_csr", recording)
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
        cfg = _mini_cfg(symmetrize=symmetrize, use_pnsm=True, k=3)
        labels = np.arange(16, dtype=np.int64) % 4
        _evaluate_psm_step(
            cfg, params, copy_params(params), bank, x + 0.05, x - 0.05, labels, 1, 0,
            RngState(9),
        )
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

    def test_mining_changes_the_baseline(self, mini_data):
        train, _ = mini_data
        mined = pretrain(_baseline_cfg(a=2.0), train)
        plain = pretrain(_baseline_cfg(use_pnsm=False), train)
        assert (
            mined.metrics[0]["neg_retained_mean"]
            < plain.metrics[0]["neg_retained_mean"]
        )


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
        write_metrics_csv(rows, path)
        assert path.read_text(encoding="utf-8") == (
            METRICS_HEADER + "\n1,0.5,1.5,,,0.25,,2.0,\n"
        )

    def test_repr_floats_round_trip(self, tmp_path):
        value = 0.1 + 0.2
        rows = [{"epoch": 1, "lr": value, "loss_total": value}]
        path = tmp_path / "m.csv"
        write_metrics_csv(rows, path)
        cell = path.read_text(encoding="utf-8").splitlines()[1].split(",")[1]
        assert float(cell) == value
