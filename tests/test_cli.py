import json
import struct

import numpy as np
import pytest

from psm import cli
from psm.data import Dataset, save_csv
from psm.memory_bank import MemoryBank, save_bank
from psm.numerics import RngState, l2_normalize_rows

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


class TestPretrain:
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
        assert set(summary) == {"init_knn", "final_knn", "final_metrics"}
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
        assert echo["data"] == SYN and echo["data_kind"] == "synthetic"

    def test_aug_keys_route_into_policy(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"aug_sigma": 0.3, "epochs": 1, "warmup_epochs": 0})
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
        assert echo["augment"]["sigma"] == 0.3


class TestExitCodes:
    def test_validation_failure_precedes_writes(self, tmp_path):
        out = tmp_path / "never"
        code = cli.main(
            [
                "pretrain",
                "--synthetic",
                SYN,
                "--k",
                "0",
                "--no-hard",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = cli.main(
            ["pretrain", "--synthetic", SYN, "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

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

    def test_oversized_batch(self, mini_run, tmp_path):
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
                str(tmp_path / "d"),
                "--batch",
                "999",
            ]
        )
        assert code == 1


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


class TestMine:
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

    def test_corrupt_bank_is_data_error(self, tmp_path, bank_and_queries):
        _, query_path = bank_and_queries
        bad = tmp_path / "bad.psmb"
        bad.write_bytes(b"GARBAGE!" * 4)
        code = cli.main(["mine", "--bank", str(bad), "--query", str(query_path)])
        assert code == 2

    def test_negative_mode_needs_two_entries(self, tmp_path, bank_and_queries):
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
        assert code == 1


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
