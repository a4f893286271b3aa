import argparse
import json
import struct

import numpy as np
import pytest

from psm import cli
from psm.data import Dataset, gen_clusters, load_csv, save_csv, split_dataset
from psm.memory_bank import MemoryBank, load_bank, query_topk, save_bank
from psm.network import load_checkpoint, save_checkpoint
from psm.numerics import RngState, l2_normalize_rows
from psm.pnsm import MiningConfig, mine_negatives

SYN = "c3,d8,n16,sep6"


@pytest.fixture(scope="module")
def heads_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.json"
    path.write_text(
        json.dumps({"encoder": [32, 16], "projector": [16, 8], "predictor": [8, 8]})
    )
    return path


def _pretrain_args(out, heads_config, extra=()):
    return [
        "pretrain",
        "--synthetic",
        SYN,
        "--epochs",
        "2",
        "--warmup",
        "0",
        "--batch",
        "16",
        "--config",
        str(heads_config),
        "--out",
        str(out),
        "--seed",
        "3",
        *extra,
    ]


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory, heads_config):
    out = tmp_path_factory.mktemp("mini") / "run"
    code = cli.main(_pretrain_args(out, heads_config))
    assert code == 0
    return out


# Every pretrain flag that sets a TrainConfig field: its arguments, the
# field, the value the flag gives it, and a --config value it must beat.
_FIELD_FLAGS = [
    (["--seed", "5"], "seed", 5, 9),
    (["--k", "3"], "k", 3, 1),
    (["--a", "1.5"], "a", 1.5, 0.25),
    (["--lambda", "0.5"], "lam", 0.5, 2.0),
    (["--t", "0.3"], "t", 0.3, 0.7),
    (["--batch", "8"], "batch_size", 8, 16),
    (["--epochs", "2"], "epochs", 2, 1),
    (["--warmup", "1"], "warmup_epochs", 1, 0),
    (["--bank", "700"], "bank_capacity", 700, 100),
    (["--probe-every", "2"], "probe_every", 2, 10),
    (["--strategy", "V2"], "strategy", "V2", "V1"),
    (["--span", "mined_only"], "weight_span", "mined_only", "with_view"),
    (["--no-pnsm"], "use_pnsm", False, True),
    (["--no-soft"], "use_soft", False, True),
    (["--no-hard"], "use_hard", False, True),
    (["--baseline"], "baseline", True, False),
    (["--symmetrize"], "symmetrize", True, False),
]


class TestPretrain:
    def test_every_pretrain_flag_is_a_field_flag(self):
        sub = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        flags = {a.option_strings[-1] for a in sub.choices["pretrain"]._actions}
        others = {"--help", "--data", "--synthetic", "--config", "--out"}
        assert flags - others == {argv[0] for argv, *_ in _FIELD_FLAGS}

    @pytest.mark.parametrize(
        "argv, field, value, other", _FIELD_FLAGS, ids=[c[0][0] for c in _FIELD_FLAGS]
    )
    def test_flag_sets_its_field_over_the_config(self, tmp_path, argv, field, value, other):
        config = {"encoder": [16], "projector": [8], "predictor": [8],
                  "epochs": 1, "warmup_epochs": 0, "batch_size": 16, field: other}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        code = cli.main(
            ["pretrain", "--synthetic", SYN, "--config", str(path), "--out", str(out), *argv]
        )
        assert code == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo[field] == value and type(echo[field]) is type(value)

    def test_run_directory_contents(self, mini_run):
        for name in (
            "config.json",
            "metrics.csv",
            "purity.csv",
            "checkpoint.psmc",
            "summary.json",
        ):
            assert (mini_run / name).is_file(), name

    def test_metrics_rows_match_epochs(self, mini_run):
        lines = (mini_run / "metrics.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == (
            "epoch,lr,loss_total,loss_soft,loss_hard,"
            "purity_top1,purity_topk,neg_retained_mean,knn_acc"
        )

    def test_purity_skips_cold_bank_step(self, mini_run):
        lines = (mini_run / "purity.csv").read_text().splitlines()
        assert lines[0] == "epoch,batch,purity"
        assert len(lines) == 6

    def test_summary_and_stdout_agree(
        self, tmp_path, heads_config, capsys
    ):
        out = tmp_path / "run"
        assert cli.main(_pretrain_args(out, heads_config)) == 0
        stdout = capsys.readouterr().out
        assert f"run written to {out}" in stdout
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"data", "data_kind", "init_knn", "final_knn", "final_metrics"}
        assert summary["data"] == SYN and summary["data_kind"] == "synthetic"
        final_line = [l for l in stdout.splitlines() if l.startswith("final_knn=")]
        assert float(final_line[0].split("=")[1]) == summary["final_knn"]

    def test_rerun_is_byte_identical(self, tmp_path, heads_config, mini_run):
        out = tmp_path / "again"
        assert cli.main(_pretrain_args(out, heads_config)) == 0
        for name in (
            "config.json",
            "metrics.csv",
            "purity.csv",
            "checkpoint.psmc",
            "summary.json",
        ):
            assert (out / name).read_bytes() == (mini_run / name).read_bytes(), name

    def test_sparse_csv_labels_run_like_dense_ones(self, tmp_path, heads_config, capsys):
        # class 2 labelled 10**15: training, its kNN probes and both probe
        # modes see the same three classes as with labels 0, 1, 2
        ds = gen_clusters(3, 16, 8, 6.0, seed=3, split="train")
        sparse = np.array([0, 1, 10**15])[ds.labels]
        runs, probes = {}, {}
        for name, labels in (("dense", ds.labels), ("sparse", sparse)):
            path = tmp_path / f"{name}.csv"
            save_csv(Dataset(ds.features, labels), path)
            out = runs[name] = tmp_path / name
            argv = ["pretrain", "--data", str(path), "--epochs", "2", "--warmup", "0",
                    "--batch", "16", "--config", str(heads_config), "--out", str(out)]
            assert cli.main(argv) == 0
            capsys.readouterr()
            probe = ["probe", "--checkpoint", str(out / "checkpoint.psmc"), "--data", str(path)]
            for mode in ("knn", "linear"):
                assert cli.main([*probe, "--mode", mode]) == 0
            probes[name] = capsys.readouterr().out
        for name in ("metrics.csv", "purity.csv", "checkpoint.psmc"):
            assert (runs["dense"] / name).read_bytes() == (runs["sparse"] / name).read_bytes()
        assert probes["dense"] == probes["sparse"]
        assert "top3=" in probes["sparse"]

    def test_cli_overrides_beat_config_file(self, tmp_path, heads_config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3, "epochs": 5, "warmup_epochs": 0}))
        out = tmp_path / "run"
        code = cli.main(
            [
                "pretrain",
                "--synthetic",
                SYN,
                "--config",
                str(cfg),
                "--k",
                "1",
                "--epochs",
                "1",
                "--batch",
                "16",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["k"] == 1 and echo["epochs"] == 1

    def test_config_file_seed_holds_without_the_flag(self, tmp_path, heads_config):
        def run(name, file_seed, flag):
            cfg = dict(json.loads(heads_config.read_text()), epochs=1, warmup_epochs=0)
            if file_seed is not None:
                cfg["seed"] = file_seed
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / name
            argv = ["pretrain", "--synthetic", SYN, "--batch", "16",
                    "--config", str(path), "--out", str(out), *flag]
            assert cli.main(argv) == 0
            return out

        from_file = run("file", 5, ())
        from_flag = run("flag", None, ("--seed", "5"))
        assert json.loads((from_file / "config.json").read_text())["seed"] == 5
        for name in ("config.json", "metrics.csv", "checkpoint.psmc", "summary.json"):
            assert (from_file / name).read_bytes() == (from_flag / name).read_bytes(), name
        flag_wins = run("both", 5, ("--seed", "0"))
        assert json.loads((flag_wins / "config.json").read_text())["seed"] == 0
        assert (flag_wins / "checkpoint.psmc").read_bytes() != (
            from_file / "checkpoint.psmc"
        ).read_bytes()

    def test_aug_keys_route_into_policy(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"augment": {"sigma": 0.3}, "epochs": 1, "warmup_epochs": 0})
        )
        out = tmp_path / "run"
        code = cli.main(
            [
                "pretrain",
                "--synthetic",
                SYN,
                "--config",
                str(cfg),
                "--batch",
                "16",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        echo = json.loads((out / "config.json").read_text())
        defaults = {"dropout": 0.2, "scale_lo": 0.8, "scale_hi": 1.25}
        assert echo["augment"] == {"sigma": 0.3, **defaults}

    @pytest.mark.parametrize(
        "flags, heads",
        [
            (["--batch", "16"], None),
            (["--batch", "16", "--baseline"], None),
            (["--batch", "13"], {"encoder": [19, 37], "projector": [19, 13],
                                 "predictor": [19, 13]}),
        ],
        ids=["plain", "baseline", "odd_heads"],
    )
    def test_config_json_repeats_the_run(self, tmp_path, flags, heads):
        first, again = tmp_path / "first", tmp_path / "again"
        argv = ["pretrain", "--synthetic", SYN, "--epochs", "2", "--warmup", "1",
                "--seed", "3", *flags]
        if heads is not None:
            (tmp_path / "heads.json").write_text(json.dumps(heads))
            argv += ["--config", str(tmp_path / "heads.json")]
        assert cli.main([*argv, "--out", str(first)]) == 0
        argv = ["pretrain", "--synthetic", SYN, "--config", str(first / "config.json")]
        assert cli.main([*argv, "--out", str(again)]) == 0
        for name in ("config.json", "metrics.csv", "purity.csv", "checkpoint.psmc"):
            assert (again / name).read_bytes() == (first / name).read_bytes(), name


# A run that would train cleanly: one epoch, no warmup, a batch that fits.
_SMALL = ["--synthetic", SYN, "--batch", "16", "--epochs", "1", "--warmup", "0"]


class TestExitCodes:
    @pytest.mark.parametrize(
        "extra, config",
        [
            (["--synthetic", SYN, "--k", "0", "--no-hard"], {}),
            (["--synthetic", "c4,d8,n8,sep6", "--batch", "64", "--epochs", "2",
              "--warmup", "0"], {}),
            (["--synthetic", SYN], {"probe_knn": 0}),
            ([*_SMALL, "--a", "nan"], {}),
            ([*_SMALL, "--t", "nan"], {}),
            ([*_SMALL, "--lambda", "nan"], {}),
            (["--synthetic", "c3,d8,n16,sepnan", *_SMALL[2:]], {}),
            (_SMALL, {"augment": {"sigma": float("nan")}}),
            (_SMALL, {"peak_lr": float("nan")}),
            (["--synthetic", SYN, "--batch", "16", "--warmup", "0"], {"epochs": 2.5}),
            (["--synthetic", SYN, "--epochs", "1", "--warmup", "0"], {"batch_size": "16"}),
            (_SMALL, {"t": "0.5"}),
            (_SMALL, {"encoder": 5}),
            (_SMALL, {"use_pnsm": "no"}),
            (_SMALL, {"peak_lr": -5.0}),
            (_SMALL, {"sgd_momentum": 5.0}),
            (_SMALL, {"weight_decay": -1.0}),
            ([*_SMALL, "--no-soft", "--lambda", "0"], {}),
            ([*_SMALL, "--probe-every", "-1"], {}),
        ],
        ids=[
            "k0_no_hard", "batch_exceeds_rows", "probe_knn_0", "a_nan", "t_nan",
            "lambda_nan", "sep_nan", "aug_sigma_nan", "peak_lr_nan", "epochs_float",
            "batch_size_str", "t_str", "encoder_int", "use_pnsm_str",
            "peak_lr_negative", "momentum_5", "weight_decay_negative",
            "no_soft_lambda_0", "probe_every_negative",
        ],
    )
    def test_validation_failure_precedes_writes(self, tmp_path, extra, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "never"
        code = cli.main(["pretrain", *extra, "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--t", "1e-300"], "non-finite activations in encoder layer 0"),
            (["--lambda", "1e308"], "non-finite loss at epoch 1 step 0"),
        ],
        ids=["t_tiny", "lambda_huge"],
    )
    def test_training_failure_writes_no_file(self, tmp_path, capsys, extra, message):
        out = tmp_path / "run"
        assert cli.main(["pretrain", *_SMALL, *extra, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []  # the directory is made first, then left empty

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = cli.main(
            ["pretrain", "--synthetic", SYN, "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"aug_sigma": 0.3}, "unknown config keys: ['aug_sigma']"),
            ({"augment": {"sigmaa": 0.3}}, "unknown augment keys: ['sigmaa']"),
        ],
        ids=["flat_aug_sigma", "augment_sigmaa"],
    )
    def test_unknown_keys_are_named_at_their_level(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        code = cli.main(["pretrain", *_SMALL, "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        code = cli.main(
            [
                "pretrain",
                "--synthetic",
                SYN,
                "--config",
                str(tmp_path / "absent.json"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1

    def test_malformed_config_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code = cli.main(
            ["pretrain", "--synthetic", SYN, "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 1

    @pytest.mark.parametrize("spec", ["c4,dx,n16,sep6", "c4,d8,n16", "c4,zz,n16,sep6"])
    def test_bad_synthetic_spec(self, tmp_path, spec):
        code = cli.main(
            ["pretrain", "--synthetic", spec, "--out", str(tmp_path / "o")]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "spec, key", [("c4,c16,d8,n16,sep6", "classes"), ("c4,d8,n16,sep6,d8", "dim")]
    )
    def test_repeated_synthetic_token(self, tmp_path, capsys, spec, key):
        out = tmp_path / "o"
        code = cli.main(["pretrain", "--synthetic", spec, *_SMALL[2:], "--out", str(out)])
        assert code == 1
        assert f"synthetic spec sets {key} twice" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_file(self, tmp_path):
        code = cli.main(
            ["pretrain", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_malformed_data_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
        code = cli.main(
            ["pretrain", "--data", str(bad), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_non_finite_data_csv(self, tmp_path):
        ds = Dataset(RngState(5).normal((40, 3)), np.arange(40, dtype=np.int64) % 2)
        ds.features[17, 1] = np.nan
        path = tmp_path / "nan.csv"
        save_csv(ds, path)
        out = tmp_path / "o"
        code = cli.main(["pretrain", "--data", str(path), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_negative_label_data_csv(self, tmp_path, capsys):
        ds = Dataset(RngState(5).normal((40, 3)), np.arange(40, dtype=np.int64) % 2)
        ds.labels[17] = -1
        path = tmp_path / "neg.csv"
        save_csv(ds, path)
        out = tmp_path / "o"
        code = cli.main(["pretrain", "--data", str(path), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "line 19: negative label" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pretrain", "--out", "x"],
            ["pretrain", "--synthetic", SYN, "--data", "d.csv", "--out", "x"],
            ["pretrain", "--synthetic", SYN, "--out", "x", "--strategy", "V9"],
            ["probe", "--checkpoint", "c", "--synthetic", SYN, "--mode", "zzz"],
            ["diagnose", "--checkpoint", "c", "--synthetic", SYN, "--out", "x"],
        ],
    )
    def test_usage_errors_exit_one(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 1


class TestRunFiles:
    def test_every_cell_follows_one_rule(self, tmp_path):
        path = tmp_path / "t.csv"
        row = [None, float("nan"), np.float64(-np.inf), 0.1 + 0.2, np.float64(0.1),
               np.float32(0.5), 3, np.int64(4), "k=1", True]
        cli._write_csv(path, "a,b,c,d,e,f,g,h,i,j", [row, []])
        assert path.read_text(encoding="utf-8") == (
            "a,b,c,d,e,f,g,h,i,j\n,,,0.30000000000000004,0.1,0.5,3,4,k=1,True\n\n"
        )

    def test_json_is_sorted_and_indented(self, tmp_path):
        path = tmp_path / "t.json"
        cli._write_json(path, {"b": [1, 2], "a": {"d": None, "c": 0.5}})
        assert path.read_text(encoding="utf-8") == json.dumps(
            {"a": {"c": 0.5, "d": None}, "b": [1, 2]}, indent=2
        ) + "\n"


class TestProbe:
    def test_knn_mode(self, mini_run, capsys):
        code = cli.main(
            [
                "probe",
                "--checkpoint",
                str(mini_run / "checkpoint.psmc"),
                "--synthetic",
                SYN,
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mode=knn k_nn=20" in out
        acc_line = [l for l in out.splitlines() if l.startswith("accuracy=")][0]
        assert 0.0 <= float(acc_line.split("=")[1]) <= 1.0

    def test_linear_mode(self, mini_run, capsys):
        code = cli.main(
            [
                "probe",
                "--checkpoint",
                str(mini_run / "checkpoint.psmc"),
                "--synthetic",
                SYN,
                "--seed",
                "3",
                "--mode",
                "linear",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mode=linear" in out
        assert any(l.startswith("top1=") for l in out.splitlines())
        assert any(l.startswith("top3=") for l in out.splitlines())

    def test_linear_mode_names_the_k_it_scored(self, mini_run, tmp_path, capsys):
        # label 4 has one row, and seed 5 puts it in the test split only: the
        # probe scores five classes, so its top-k accuracy is a top-5
        labels = np.append(np.arange(80, dtype=np.int64) % 4, 4)
        path = tmp_path / "five.csv"
        save_csv(Dataset(RngState(7).normal((81, 8)), labels), path)
        _, test = split_dataset(load_csv(path), 0.2, 5)
        assert 4 in test.labels
        checkpoint = str(mini_run / "checkpoint.psmc")
        argv = ["probe", "--checkpoint", checkpoint, "--data", str(path), "--seed", "5"]
        assert cli.main([*argv, "--mode", "linear"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "mode=linear" and lines[1].startswith("top1=")
        assert lines[2].startswith("top5=")

    def test_data_width_mismatch_is_data_error(self, mini_run, capsys):
        code = cli.main(
            [
                "probe",
                "--checkpoint",
                str(mini_run / "checkpoint.psmc"),
                "--synthetic",
                "c3,d9,n16,sep6",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "data dim 9" in err and "checkpoint input dim 8" in err

    @pytest.mark.parametrize("mode", ["knn", "linear"])
    def test_negative_label_is_data_error(self, mini_run, tmp_path, capsys, mode):
        # without the check, linear mode put label -1 in the last one-hot
        # column and printed wrong accuracies with exit 0
        ds = Dataset(RngState(6).normal((48, 8)), np.arange(48, dtype=np.int64) % 3)
        ds.labels[4] = -1
        path = tmp_path / "neg.csv"
        save_csv(ds, path)
        checkpoint = str(mini_run / "checkpoint.psmc")
        argv = ["probe", "--checkpoint", checkpoint, "--data", str(path), "--mode", mode]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "line 6: negative label" in captured.err

    @pytest.mark.parametrize("fault", ["nan_weight", "bn_eps", "bn_flag", "optimizer"])
    def test_impossible_checkpoint_is_data_error(self, mini_run, tmp_path, capsys, fault):
        path = tmp_path / "bad.psmc"
        if fault == "bn_flag":
            raw = bytearray((mini_run / "checkpoint.psmc").read_bytes())
            raw[16] = 7  # the batch-norm byte
            path.write_bytes(bytes(raw))
        else:
            params, opt, target = load_checkpoint(mini_run / "checkpoint.psmc")
            if fault == "nan_weight":
                params.encoder[0].w[0, 0] = np.nan
            elif fault == "bn_eps":
                params.config.bn_eps = -1.0
            else:
                opt.momentum, opt.peak_lr = np.nan, -5.0
                opt.warmup_epochs, opt.total_epochs = 9, 2
            save_checkpoint(params, opt, target, path)
        argv = ["probe", "--checkpoint", str(path), "--synthetic", SYN, "--seed", "3"]
        code = cli.main(argv + ["--mode", "knn"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""

    def test_missing_checkpoint_is_data_error(self, tmp_path):
        code = cli.main(
            [
                "probe",
                "--checkpoint",
                str(tmp_path / "none.psmc"),
                "--synthetic",
                SYN,
            ]
        )
        assert code == 2


class TestDiagnose:
    def test_purity_replay(self, mini_run, tmp_path, capsys):
        out = tmp_path / "diag"
        code = cli.main(
            [
                "diagnose",
                "--checkpoint",
                str(mini_run / "checkpoint.psmc"),
                "--synthetic",
                SYN,
                "--what",
                "purity",
                "--out",
                str(out),
                "--batch",
                "16",
                "--bank",
                "128",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        lines = (out / "purity.csv").read_text().splitlines()
        assert lines[0] == "epoch,batch,purity"
        assert len(lines) == 3
        assert "mean_purity=" in capsys.readouterr().out

    def test_gradient_profile(self, mini_run, tmp_path, capsys):
        out = tmp_path / "diag"
        code = cli.main(
            [
                "diagnose",
                "--checkpoint",
                str(mini_run / "checkpoint.psmc"),
                "--synthetic",
                SYN,
                "--what",
                "gradients",
                "--out",
                str(out),
                "--rank-depth",
                "20",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        lines = (out / "gradient_profile.csv").read_text().splitlines()
        assert lines[0] == "rank,mean_norm,var_norm"
        assert len(lines) == 21
        assert "mean_positive_rank=" in capsys.readouterr().out

    def test_rank_depth_beyond_bank(self, mini_run, tmp_path):
        code = cli.main(
            [
                "diagnose",
                "--checkpoint",
                str(mini_run / "checkpoint.psmc"),
                "--synthetic",
                SYN,
                "--what",
                "gradients",
                "--out",
                str(tmp_path / "d"),
                "--rank-depth",
                "999",
            ]
        )
        assert code == 1
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--what", "purity", "--batch", "999"],
            ["--what", "purity", "--batch", "0"],
            ["--what", "purity", "--k", "-1"],
            ["--what", "purity", "--bank", "0"],
            ["--what", "gradients", "--rank-depth", "0"],
        ],
        ids=["batch_999", "batch_0", "k_negative", "bank_0", "rank_depth_0"],
    )
    def test_oversized_batch(self, mini_run, tmp_path, capsys, extra):
        out = tmp_path / "d"
        code = cli.main(
            [
                "diagnose",
                "--checkpoint",
                str(mini_run / "checkpoint.psmc"),
                "--synthetic",
                SYN,
                "--out",
                str(out),
                *extra,
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_data_width_mismatch_is_data_error(self, mini_run, tmp_path, capsys):
        out = tmp_path / "d"
        code = cli.main(
            [
                "diagnose",
                "--checkpoint",
                str(mini_run / "checkpoint.psmc"),
                "--synthetic",
                "c3,d9,n16,sep6",
                "--what",
                "purity",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "data dim 9" in err and "checkpoint input dim 8" in err
        assert not out.exists()


@pytest.fixture()
def bank_and_queries(tmp_path):
    bank = MemoryBank(8, 4)
    bank.enqueue_batch(l2_normalize_rows(RngState(1).normal((6, 4))))
    bank_path = tmp_path / "bank.psmb"
    save_bank(bank, bank_path)
    ds = Dataset(RngState(2).normal((2, 4)), np.zeros(2, dtype=np.int64))
    query_path = tmp_path / "q.csv"
    save_csv(ds, query_path)
    return bank_path, query_path


def _reference_mine_lines(bank_path, query_path, mode, k, a, seed):
    """Reference ``psm mine`` output: candidate rows gathered by fancy
    index, and every printed number formatted one NumPy scalar at a time."""
    bank = load_bank(bank_path)
    queries = l2_normalize_rows(load_csv(query_path).features)
    rng = RngState(seed)
    lines = []
    if mode == "positive":
        for i, q in enumerate(queries):
            ns = query_topk(bank, q, k)
            idx = ",".join(str(int(v)) for v in ns.bank_indices)
            sims = ",".join(repr(float(v)) for v in ns.sims[1:])
            lines.append(f"query={i} indices=[{idx}] sims=[{sims}]")
        return lines
    entries = bank.entries()
    for i, q in enumerate(queries):
        sims = entries @ q
        anchor = int(np.argmax(sims))
        cand_rows = np.delete(np.arange(len(bank)), anchor)
        mined = mine_negatives(
            q, float(sims[anchor]), entries[cand_rows], MiningConfig(a=a),
            rng.split("mine", i),
        )
        kept = ",".join(str(int(v)) for v in cand_rows[mined.kept])
        probs = ",".join(repr(float(v)) for v in mined.probs[mined.kept])
        lines.append(f"query={i} anchor={anchor} kept=[{kept}] probs=[{probs}]")
    return lines


# Anchors of the first queries: the first, a middle and the last bank row.
_ANCHORS = (0, 6, 11)


def _write_duplicate_bank(tmp_path, anchors, n_random):
    """A 12-row bank in which rows 4, 9 and 8 repeat rows 0, 6 and 7, plus
    queries near the rows ``anchors`` and ``n_random`` random ones."""
    rows = l2_normalize_rows(RngState(5).normal((12, 6)))
    rows[4], rows[9], rows[8] = rows[0], rows[6], rows[7]
    bank = MemoryBank(16, 6)
    bank.enqueue_batch(rows)
    bank_path = tmp_path / "dup.psmb"
    save_bank(bank, bank_path)
    near = rows[list(anchors)] + 1e-3 * RngState(6).normal((len(anchors), 6))
    queries = np.vstack([near, RngState(7).normal((n_random, 6))])
    query_path = tmp_path / "dup.csv"
    save_csv(Dataset(queries, np.zeros(len(queries), dtype=np.int64)), query_path)
    return bank_path, query_path


@pytest.fixture()
def duplicate_bank(tmp_path):
    return _write_duplicate_bank(tmp_path, _ANCHORS, 5)


class TestMine:
    @pytest.mark.parametrize(
        "mode, k, a",
        [
            ("positive", 3, "0.5"),
            ("positive", 20, "0.5"),
            ("negative", 5, "0"),
            ("negative", 5, "0.5"),
            ("negative", 5, "1e4"),
        ],
    )
    def test_output_matches_reference_formatting(self, duplicate_bank, capsys, mode, k, a):
        bank_path, query_path = duplicate_bank
        argv = ["mine", "--bank", str(bank_path), "--query", str(query_path)]
        code = cli.main([*argv, "--mode", mode, "--k", str(k), "--a", a, "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        lines = _reference_mine_lines(bank_path, query_path, mode, k, float(a), 3)
        assert out == "".join(line + "\n" for line in lines)
        if mode == "positive":
            return
        anchors = [int(line.split("anchor=")[1].split()[0]) for line in lines]
        assert tuple(anchors[:3]) == _ANCHORS
        probs = [line.split("probs=[")[1].rstrip("]").split(",") for line in lines]
        if a == "0":
            assert all(p == ["1.0"] * 11 for p in probs)
        if a == "1e4":
            # tiny probabilities print in exponent form, and a query whose
            # candidates were all rejected keeps exactly one (the fallback)
            assert any("e-" in v for p in probs for v in p)
            assert any(len(p) == 1 and float(p[0]) < 1e-3 for p in probs)

    @pytest.mark.parametrize("a", ["0", "0.5"])
    def test_anchor_jumps_match_reference(self, tmp_path, capsys, a):
        # anchors step back and forth by several rows, repeat, and go from
        # the first bank row to the last and back, so the candidates without
        # the anchor and the remap of kept rows meet both ends of the bank
        anchors = (5, 1, 10, 0, 11, 2, 11, 0, 3, 3)
        bank_path, query_path = _write_duplicate_bank(tmp_path, anchors, 0)
        argv = ["mine", "--bank", str(bank_path), "--query", str(query_path)]
        assert cli.main([*argv, "--mode", "negative", "--a", a, "--seed", "4"]) == 0
        out = capsys.readouterr().out
        lines = _reference_mine_lines(bank_path, query_path, "negative", 5, float(a), 4)
        assert out == "".join(line + "\n" for line in lines)
        got = tuple(int(line.split("anchor=")[1].split()[0]) for line in lines)
        assert got == anchors

    def test_positive_mode(self, bank_and_queries, capsys):
        bank_path, query_path = bank_and_queries
        code = cli.main(
            ["mine", "--bank", str(bank_path), "--query", str(query_path)]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("query=0 indices=[")
        sims = [
            float(v)
            for v in lines[0].split("sims=[")[1].rstrip("]").split(",")
        ]
        assert len(sims) == 5
        assert all(-1.0 <= s <= 1.0 for s in sims)
        assert sims == sorted(sims, reverse=True)

    def test_negative_mode_keep_all(self, bank_and_queries, capsys):
        bank_path, query_path = bank_and_queries
        code = cli.main(
            [
                "mine",
                "--bank",
                str(bank_path),
                "--query",
                str(query_path),
                "--mode",
                "negative",
                "--a",
                "0",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("query=0 anchor=")
        kept = lines[0].split("kept=[")[1].split("]")[0].split(",")
        assert len(kept) == 5
        probs = [
            float(v)
            for v in lines[0].split("probs=[")[1].rstrip("]").split(",")
        ]
        assert probs == [1.0] * 5

    @pytest.mark.parametrize("a", ["nan", "inf", "-1"])
    def test_bad_density_is_config_error(self, bank_and_queries, capsys, a):
        bank_path, query_path = bank_and_queries
        argv = ["mine", "--bank", str(bank_path), "--query", str(query_path)]
        code = cli.main([*argv, "--mode", "negative", "--a", a])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and "a must be finite" in captured.err

    def test_dim_mismatch_is_data_error(self, bank_and_queries, tmp_path):
        bank_path, _ = bank_and_queries
        ds = Dataset(RngState(3).normal((2, 3)), np.zeros(2, dtype=np.int64))
        narrow = tmp_path / "narrow.csv"
        save_csv(ds, narrow)
        code = cli.main(
            ["mine", "--bank", str(bank_path), "--query", str(narrow)]
        )
        assert code == 2

    def test_non_finite_query_is_data_error(self, bank_and_queries, tmp_path, capsys):
        bank_path, _ = bank_and_queries
        ds = Dataset(RngState(3).normal((2, 4)), np.zeros(2, dtype=np.int64))
        ds.features[1, 2] = np.nan
        path = tmp_path / "nan.csv"
        save_csv(ds, path)
        code = cli.main(["mine", "--bank", str(bank_path), "--query", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "line 3: non-finite" in captured.err

    def test_bank_header_claiming_huge_shape_is_data_error(
        self, tmp_path, bank_and_queries, capsys
    ):
        _, query_path = bank_and_queries
        bad = tmp_path / "huge.psmb"
        # magic, version, capacity and count of 2**62 rows, dim 64, no
        # labels, then 4 stray bytes: 37 bytes in all
        bad.write_bytes(
            b"PSMB" + struct.pack("<IQQQB", 1, 2**62, 2**62, 64, 0) + b"\0" * 4
        )
        assert len(bad.read_bytes()) == 37
        code = cli.main(["mine", "--bank", str(bad), "--query", str(query_path)])
        assert code == 2
        assert "truncated file" in capsys.readouterr().err

    def test_bank_header_claiming_huge_capacity_allocates_nothing(
        self, tmp_path, capsys
    ):
        bank_path = tmp_path / "huge.psmb"
        # magic, version, capacity 2**40, count 0, dim 64, no labels: the
        # header alone, 33 bytes; storage for 2**40 rows would be 512 TiB
        bank_path.write_bytes(b"PSMB" + struct.pack("<IQQQB", 1, 2**40, 0, 64, 0))
        assert len(bank_path.read_bytes()) == 33
        query_path = tmp_path / "q.csv"
        queries = Dataset(RngState(2).normal((2, 64)), np.zeros(2, dtype=np.int64))
        save_csv(queries, query_path)
        code = cli.main(["mine", "--bank", str(bank_path), "--query", str(query_path)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out.splitlines() == [
            "query=0 indices=[] sims=[]",
            "query=1 indices=[] sims=[]",
        ]

    @pytest.mark.parametrize("mode", ["positive", "negative"])
    @pytest.mark.parametrize("bad", [2.0, float("nan")])
    def test_malformed_bank_row_is_data_error(
        self, tmp_path, bank_and_queries, capsys, mode, bad
    ):
        _, query_path = bank_and_queries
        rows = l2_normalize_rows(RngState(8).normal((3, 4)))
        rows[1] = bad * np.array([1.0, 0.0, 0.0, 0.0])
        path = tmp_path / "bad_row.psmb"
        # magic, version, capacity 4, count 3, dim 4, no labels, the rows
        path.write_bytes(
            b"PSMB" + struct.pack("<IQQQB", 1, 4, 3, 4, 0) + rows.astype("<f8").tobytes()
        )
        argv = ["mine", "--bank", str(path), "--query", str(query_path), "--mode", mode]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "in row 1" in captured.err

    def test_corrupt_bank_is_data_error(self, tmp_path, bank_and_queries):
        _, query_path = bank_and_queries
        bad = tmp_path / "bad.psmb"
        bad.write_bytes(b"GARBAGE!" * 4)
        code = cli.main(["mine", "--bank", str(bad), "--query", str(query_path)])
        assert code == 2

    def test_negative_mode_needs_two_entries(self, tmp_path, bank_and_queries, capsys):
        _, query_path = bank_and_queries
        bank = MemoryBank(4, 4)
        bank.enqueue_batch(l2_normalize_rows(RngState(4).normal((1, 4))))
        path = tmp_path / "one.psmb"
        save_bank(bank, path)
        code = cli.main(
            [
                "mine",
                "--bank",
                str(path),
                "--query",
                str(query_path),
                "--mode",
                "negative",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and "at least 2 entries" in captured.err


class TestAblate:
    def test_sweep_writes_table(self, tmp_path, capsys):
        out = tmp_path / "abl"
        code = cli.main(
            [
                "ablate",
                "--synthetic",
                SYN,
                "--axis",
                "k",
                "--values",
                "1,3",
                "--epochs",
                "1",
                "--batch",
                "16",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "label,knn_acc,purity_top1,loss_total"
        assert [l.split(",")[0] for l in lines[1:]] == ["k=1", "k=3"]
        assert "table written to" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "axis, values", [("a", "0,2.5"), ("lambda", "0.5,1"), ("strategy", "V0,V2")]
    )
    def test_every_axis_sets_its_field(self, tmp_path, axis, values):
        out = tmp_path / "abl"
        argv = ["ablate", "--synthetic", SYN, "--axis", axis, "--values", values,
                "--epochs", "1", "--batch", "16", "--out", str(out)]
        assert cli.main(argv) == 0
        rows = [l.split(",") for l in (out / "ablation.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == [f"{axis}={v}" for v in values.split(",")]
        assert rows[0][3] != rows[1][3]  # the field reached training: the losses differ

    def test_invalid_cell_value(self, tmp_path):
        code = cli.main(
            [
                "ablate",
                "--synthetic",
                SYN,
                "--axis",
                "strategy",
                "--values",
                "V9",
                "--epochs",
                "1",
                "--out",
                str(tmp_path / "abl"),
            ]
        )
        assert code == 1

    def test_oversized_batch_precedes_writes(self, tmp_path):
        out = tmp_path / "abl"
        code = cli.main(
            [
                "ablate",
                "--synthetic",
                SYN,
                "--axis",
                "k",
                "--values",
                "1,3",
                "--epochs",
                "2",
                "--batch",
                "999",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert not out.exists()
