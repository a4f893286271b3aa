"""Shared fixtures. The desk_run fixture is the expensive one: it executes
the full reference training command once per session and several acceptance
tests read from it."""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from psm import cli
from psm.trainer import _masked_nce, _pool_mask

DESK_ARGS = [
    "pretrain",
    "--synthetic",
    "c4,d32,n512,sep6",
    "--epochs",
    "100",
    "--seed",
    "7",
]


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory) -> dict:
    """One full-scale training run through the CLI, timed."""
    out = tmp_path_factory.mktemp("desk") / "run1"
    t0 = time.monotonic()
    code = cli.main(DESK_ARGS + ["--out", str(out)])
    elapsed = time.monotonic() - t0
    assert code == 0
    rows = list(csv.DictReader(open(out / "metrics.csv", encoding="utf-8")))
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    return {
        "dir": out,
        "metrics": rows,
        "summary": summary,
        "elapsed": elapsed,
        "checkpoint": out / "checkpoint.psmc",
    }


@pytest.fixture()
def tiny_sets():
    """Small train/test pair shared by trainer-level tests."""
    from psm import gen_clusters

    train = gen_clusters(3, 32, 16, 6.0, seed=11, split="train")
    test = gen_clusters(3, 8, 16, 6.0, seed=11, split="test")
    return train, test


# The trainer's two pools as losses of the raw queries: _pool_mask builds
# the (B, M) negative mask from the owner array, drawn once at q_unit and
# then held fixed, and _masked_nce reads the CSR lists off it.
def hard_pool(cfg, q_unit, view, other, rng):
    """The hard pool: the 2B target rows [other; view], owner ``tile``."""
    bsz = len(view)
    cands = np.concatenate([other, view])
    neg = _pool_mask(cfg, q_unit, view, cands, np.tile(np.arange(bsz), 2), rng)
    return lambda q: _masked_nce(q, view[:, None], np.ones((bsz, 1)), cands, neg, cfg.t)


def soft_pool(cfg, q_unit, members, weights, rng):
    """The soft pool: every query's members as candidates, owner ``repeat``."""
    bsz, p_count, dim = members.shape
    cands = members.reshape(bsz * p_count, dim)
    owner = np.repeat(np.arange(bsz), p_count)
    neg = _pool_mask(cfg, q_unit, members[:, 0], cands, owner, rng)
    return lambda q: _masked_nce(q, members, weights, cands, neg, cfg.t)
