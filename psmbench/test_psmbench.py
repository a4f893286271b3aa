"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest psmbench

Each check must reject a deliberately wrong answer, every workload must
pass its checks against today's program, and the traced run must report
every per-layer metric.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import TINY  # noqa: E402


def _unit(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def tied_bank():
    rows, _, queries = workloads.bank_inputs(3, TINY)
    return rows, _unit(queries)


def test_ranked_breaks_ties_by_smaller_index():
    assert checks.ranked(np.array([0.5, 0.9, 0.9, 0.1]), 3).tolist() == [1, 2, 0]


def test_bank_inputs_tie_at_kth_place(tied_bank):
    rows, queries = tied_bank
    assert workloads.straddling_ties(rows, queries, TINY.k) > 0


def test_topk_check_accepts_truth_and_rejects_swaps(tied_bank):
    rows, queries = tied_bank
    sims = checks.canonical_sims(queries, rows)
    idx = [checks.ranked(s, TINY.k).tolist() for s in sims]
    vals = [s[i].tolist() for s, i in zip(sims, idx)]
    assert checks.check_topk(rows, queries, TINY.k, idx, vals) == []

    swapped = [list(i) for i in idx]
    swapped[0][0], swapped[0][1] = swapped[0][1], swapped[0][0]
    assert checks.check_topk(rows, queries, TINY.k, swapped, vals)

    # the tie at the k-th place must go to the smaller index
    q = next(
        i for i in range(len(queries))
        if sims[i][idx[i][-1]] == np.sort(sims[i])[::-1][TINY.k]
    )
    twin = [j for j in range(len(rows)) if j not in idx[q] and sims[q][j] == sims[q][idx[q][-1]]]
    wrong_tie = [list(i) for i in idx]
    wrong_tie[q][-1] = twin[0]
    assert twin[0] > idx[q][-1]
    assert checks.check_topk(rows, queries, TINY.k, wrong_tie, vals)


def test_knn_check_rejects_a_wrong_vote():
    rng = np.random.default_rng(0)
    train, test = _unit(rng.normal(size=(40, 6))), _unit(rng.normal(size=(10, 6)))
    y_train, y_test = rng.integers(0, 3, 40), rng.integers(0, 3, 10)
    from psm.diagnostics import knn_probe

    acc = knn_probe(train, y_train, test, y_test, k_nn=5)
    assert checks.check_knn_vote(train, y_train, test, y_test, 5, acc) == []
    assert checks.check_knn_vote(train, y_train, test, y_test, 5, acc + 0.1)


def test_knn_vote_ties_go_to_smallest_label():
    train = np.eye(4)[[0, 1, 2, 3]]
    test = np.array([[0.6, 0.6, 0.0, 0.0]]) / np.sqrt(0.72)
    labels = np.array([2, 1, 0, 0])
    # top-2 neighbours carry labels 2 and 1: the tie goes to label 1
    assert checks.check_knn_vote(train, labels, test, np.array([1]), 2, 1.0) == []
    assert checks.check_knn_vote(train, labels, test, np.array([2]), 2, 1.0)


def _mine(rows, queries, a, seed=0):
    from psm.numerics import RngState
    from psm.pnsm import MiningConfig, mine_negatives

    out = []
    for i, q in enumerate(queries):
        sims = rows @ q
        anchor = int(np.argmax(sims))
        cand = np.delete(np.arange(len(rows)), anchor)
        mined = mine_negatives(
            q, float(sims[anchor]), rows[cand], MiningConfig(a=a), RngState(seed).split("m", i)
        )
        out.append((anchor, cand[mined.kept].tolist(), mined.probs[mined.kept].tolist()))
    return out


def test_mining_check_rejects_wrong_probability_and_empty_set(tied_bank):
    rows, queries = tied_bank
    good = _mine(rows, queries, 2.0)
    assert checks.check_mined_negatives(rows, queries, 2.0, good) == []

    anchor, kept, probs = good[0]
    off = [(anchor, kept, [probs[0] * 1.001] + probs[1:])] + good[1:]
    assert checks.check_mined_negatives(rows, queries, 2.0, off)
    empty = [(anchor, [], [])] + good[1:]
    assert checks.check_mined_negatives(rows, queries, 2.0, empty)


def test_mining_check_rejects_a_biased_kept_count():
    rng = np.random.default_rng(1)
    rows, queries = _unit(rng.normal(size=(400, 8))), _unit(rng.normal(size=(30, 8)))
    good = _mine(rows, queries, 0.5)
    assert checks.check_mined_negatives(rows, queries, 0.5, good) == []
    halved = [(a, k[: max(1, len(k) // 2)], p[: max(1, len(k) // 2)]) for a, k, p in good]
    assert any("in total" in p for p in checks.check_mined_negatives(rows, queries, 0.5, halved))


def test_rank_purity_and_linear_checks_reject_wrong_answers():
    rng = np.random.default_rng(2)
    bank, q, pos = (_unit(rng.normal(size=(n, 5))) for n in (50, 7, 7))
    ranks = [1 + int(np.sum(bank @ a > a @ b)) for a, b in zip(q, pos)]
    assert checks.check_positive_rank(q, pos, bank, float(np.mean(ranks))) == []
    assert checks.check_positive_rank(q, pos, bank, float(np.mean(ranks)) + 1.0)

    batches = [(_unit(rng.normal(size=(4, 5))), rng.integers(0, 2, 4)) for _ in range(3)]
    truth = checks.check_replay_purity(batches, 6, 2, 0.0)
    got = float(truth[0].split("replay gives ")[1])
    assert checks.check_replay_purity(batches, 6, 2, got) == []

    assert checks.check_linear_probe(0.5, 0.9) == []
    assert checks.check_linear_probe(0.9, 0.5)


def test_epoch_row_check_rejects_broken_rows():
    row = {
        "epoch": 1, "loss_total": 3.0, "loss_soft": 1.0, "loss_hard": 2.0,
        "purity_top1": 0.5, "purity_topk": 0.4, "neg_retained_mean": 10.0,
    }
    assert checks.check_epoch_rows([row], 1.0, (2.0, 20.0)) == []
    for bad in (
        {"loss_total": 3.5},
        {"loss_soft": float("nan")},
        {"purity_topk": 1.2},
        {"neg_retained_mean": 1.0},
        {"neg_retained_mean": 21.0},
    ):
        assert checks.check_epoch_rows([dict(row, **bad)], 1.0, (2.0, 20.0)), bad


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_passes_its_checks(name):
    result, record = run.run(name, seed=5, seconds=0.0, trace=False, sizes=TINY)
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "peak_rss_mb", "knn_acc"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_report_every_per_layer_metric():
    seen: dict[str, float] = {}
    for name in workloads.WORKLOADS:
        result, record = run.run(name, seed=5, seconds=0.0, trace=True, sizes=TINY)
        assert result["correct"] and record["absent"] == []
        assert set(result["metrics"]) == set(spans.per_layer_names())
        assert len(record["rounds"]) == 2
        for key, metric in result["metrics"].items():
            seen[key] = max(seen.get(key, 0.0), metric["value"])
    # every layer is exercised by at least one workload
    assert [k for k, v in seen.items() if v <= 0 and k != "trace.overhead_frac"] == []


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "peak_rss_mb", "knn_acc"
    }
    assert [m["name"] for m in spec["per_layer"]] == spans.per_layer_names()


def test_missing_function_is_reported_absent(monkeypatch):
    import psm.cli

    monkeypatch.delattr(psm.cli, "linear_probe")
    result, record = run.run("analyse", seed=5, seconds=0.0, trace=True, sizes=TINY)
    assert "diagnostics.linear_probe.ms" in record["absent"]
    assert "diagnostics.linear_probe.ms" not in result["metrics"]


def test_without_program_sources_exits_nonzero(tmp_path):
    bench = tmp_path / "psmbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "psmbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
