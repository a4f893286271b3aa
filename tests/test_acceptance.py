"""Acceptance suite: one test per numbered criterion, at the stated
tolerances and scales. The expensive shared artifact is the session-scoped
desk_run fixture in conftest.py (the full 100-epoch reference command);
criterion 8 additionally trains its own ablation grid, so this file takes
several minutes end to end.

Each test prints one ``ACCEPTANCE <id> PASS/FAIL`` line with the measured
numbers; the same text is the assertion message on failure.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from conftest import DESK_ARGS, hard_pool, soft_pool

from psm import cli
from psm.data import gen_clusters
from psm.diagnostics import gradient_profile
from psm.memory_bank import MemoryBank, query_topk
from psm.network import (
    NetworkConfig,
    OptimizerState,
    backward,
    ema_update,
    forward_online,
    forward_target,
    init_params,
    iter_trainable,
    load_checkpoint,
    lr_at,
)
from psm.numerics import RngState, l2_normalize_rows, softmax
from psm.pnsm import mine_mask
from psm.ppsm import apply_weight_strategy, soft_weights
from psm.trainer import TrainConfig, _pool_mask, pretrain


def _report(tag: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {tag} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _fd_matrix(fn, q, h=1e-6):
    fd = np.zeros_like(q)
    for i in range(q.shape[0]):
        for j in range(q.shape[1]):
            orig = q[i, j]
            q[i, j] = orig + h
            up = fn(q)
            q[i, j] = orig - h
            dn = fn(q)
            q[i, j] = orig
            fd[i, j] = (up - dn) / (2 * h)
    return fd


def _rel_err(fd, an):
    return float(np.abs(fd - an).max()) / max(float(np.abs(an).max()), 1e-12)


def _loss_instance(seed: int):
    """Random instance of the trainer's two pools; odd seeds freeze a mined mask."""
    rng = RngState(9000 + seed)
    n = 2 + seed % 7
    d = 2 + (seed * 3) % 15
    k = seed % 6
    t = 0.3 + (seed % 4) * 0.2
    lam = 1.0 + (seed % 3) * 0.75
    q = rng.split("q").normal((n, d))
    z2 = l2_normalize_rows(rng.split("z2").normal((n, d)))
    other = l2_normalize_rows(rng.split("hn").normal((n, d)))
    members, weights = [], []
    for i in range(n):
        extra = l2_normalize_rows(rng.split("m", i).normal((k, d)))
        members.append(np.concatenate([z2[i][None, :], extra], axis=0))
        raw_w = rng.split("w", i).uniform(k + 1) + 0.1
        weights.append(raw_w / raw_w.sum())
    cfg = TrainConfig(t=t, a=2.0, use_pnsm=seed % 2 == 1)
    q_unit = l2_normalize_rows(q)
    hard = hard_pool(cfg, q_unit, z2, other, rng.split("mh"))
    soft = soft_pool(cfg, q_unit, np.stack(members), np.stack(weights), rng.split("ms"))
    return q, hard, soft, lam


def test_criterion_01_loss_gradients_match_finite_differences():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        q, hard, soft, lam = _loss_instance(seed)

        def f_total(qq):
            return soft(qq).value + lam * hard(qq).value

        pairs = (
            (lambda qq: hard(qq).value, hard(q).grad_q),
            (lambda qq: soft(qq).value, soft(q).grad_q),
            (f_total, soft(q).grad_q + lam * hard(q).grad_q),
        )
        for fn, analytic in pairs:
            worst = max(worst, _rel_err(_fd_matrix(fn, q), analytic))
    elapsed = time.perf_counter() - start
    _report(
        "1",
        worst <= 1e-5 and elapsed < 30.0,
        f"worst relative gradient error {worst:.3e} over 100 instances "
        f"(hard/soft/combined, masked and unmasked) in {elapsed:.1f}s",
    )


def test_criterion_02_parameter_gradients_match_finite_differences():
    start = time.perf_counter()
    worst = 0.0
    for bn in (False, True):
        net_cfg = NetworkConfig(
            in_dim=8, encoder=(8, 6), projector=(6, 5), predictor=(6, 5), bn=bn
        )
        params = init_params(net_cfg, RngState(60 + int(bn)))
        rng = RngState(61)
        x = rng.split("x").normal((6, 8))
        d_out, k, t, lam = 5, 3, 0.5, 1.0
        cfg = TrainConfig(t=t, use_pnsm=False)
        z2 = l2_normalize_rows(rng.split("z2").normal((6, d_out)))
        other = l2_normalize_rows(rng.split("hn").normal((6, d_out)))
        sets, weights = [], []
        for i in range(6):
            extra = l2_normalize_rows(rng.split("m", i).normal((k, d_out)))
            sets.append(np.concatenate([z2[i][None, :], extra], axis=0))
            raw_w = rng.split("w", i).uniform(k + 1) + 0.1
            weights.append(raw_w / raw_w.sum())
        _, q1, cache = forward_online(params, x, train=True)
        hard = hard_pool(cfg, q1, z2, other, rng.split("mh"))
        soft = soft_pool(cfg, q1, np.stack(sets), np.stack(weights), rng.split("ms"))

        def loss_at(p):
            _, q1, _ = forward_online(p, x, train=True)
            return soft(q1).value + lam * hard(q1).value

        grads = backward(params, cache, soft(q1).grad_q + lam * hard(q1).grad_q)
        fd = {}
        for key, tensor in iter_trainable(params):
            approx = np.zeros_like(tensor)
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                mi = it.multi_index
                orig = tensor[mi]
                tensor[mi] = orig + 1e-6
                up = loss_at(params)
                tensor[mi] = orig - 1e-6
                dn = loss_at(params)
                tensor[mi] = orig
                approx[mi] = (up - dn) / 2e-6
            fd[key] = approx
        scale = max(max(float(np.abs(grads[k_]).max()) for k_ in fd), 1e-12)
        for key in fd:
            worst = max(worst, float(np.abs(fd[key] - grads[key]).max()) / scale)
    elapsed = time.perf_counter() - start
    _report(
        "2",
        worst <= 1e-4 and elapsed < 60.0,
        f"worst relative parameter-gradient error {worst:.3e} "
        f"(batch norm on and off) in {elapsed:.1f}s",
    )


def test_criterion_03_mining_matches_brute_force():
    for i in range(1000):
        rng = RngState(3000 + i)
        dim = 2 + i % 5
        capacity = 1 + i % 12
        bank = MemoryBank(capacity, dim)
        stream = []
        for b in range(1 + i % 3):
            batch = l2_normalize_rows(rng.split("b", b).normal((1 + (i + b) % 6, dim)))
            stream.append(batch)
            bank.enqueue_batch(batch)
        naive = np.concatenate(stream, axis=0)[-capacity:]
        np.testing.assert_array_equal(bank.entries(), naive)
        q = l2_normalize_rows(rng.split("q").normal((1, dim)))[0]
        k = i % 7
        sims = np.clip(naive @ q, -1.0, 1.0)
        expect = np.argsort(-sims, kind="stable")[: min(k, len(naive))]
        ns = query_topk(bank, q, k)
        np.testing.assert_array_equal(ns.bank_indices, expect)
        np.testing.assert_array_equal(ns.sims[1:], sims[expect])
    _report("3", True, "top-k and FIFO replay exactly match brute force on 1000 instances")


def test_criterion_04_weight_simplex_and_strategy_rules():
    worst = 0.0
    for i in range(200):
        rng = RngState(4000 + i)
        d = 3 + i % 6
        k = 1 + i % 5
        z1 = l2_normalize_rows(rng.split("z").normal((1, d)))
        members = l2_normalize_rows(rng.split("m").normal((k + 1, d)))
        worst = max(worst, abs(float(soft_weights(z1, members[None]).sum()) - 1.0))
    v = RngState(4999).normal((1, 6))
    shift_gap = float(np.abs(softmax(v) - softmax(v + 17.25)).max())
    base = np.array([0.5, 0.3, 0.2])
    rules_ok = (
        np.allclose(apply_weight_strategy(base, "V1", 2), [0.5, 0.0, 0.0])
        and np.allclose(apply_weight_strategy(base, "V2", 2), [1.0, 0.0, 0.0])
        and np.allclose(apply_weight_strategy(base, "V3", 2), [1.0, 0.0, 0.0])
        and np.array_equal(apply_weight_strategy(base, "V4", 2), [1.0, 1.0, 1.0])
    )
    _report(
        "4",
        worst <= 1e-12 and shift_gap <= 1e-12 and rules_ok,
        f"simplex deviation {worst:.2e}, shift-invariance gap {shift_gap:.2e}, "
        "threshold/renormalize/unit rules reproduced",
    )


def _shared_pool_mask(sims, s_pos_val, a, rng, trials):
    """Mining mask of ``trials`` identical queries over one shared candidate row.

    Every query is e1 and its view sits at similarity ``s_pos_val``; each
    candidate sits at its entry of ``sims``. An extra last query owns every
    candidate, so the trial rows lose none to the owner rule and its own
    empty row comes after theirs in the uniform order.
    """
    q = np.tile([1.0, 0.0], (trials + 1, 1))
    view = np.tile(_vec_with_sim(s_pos_val), (trials + 1, 1))
    cands = np.stack([_vec_with_sim(s) for s in sims])
    owner = np.full(len(sims), trials)
    neg = _pool_mask(TrainConfig(a=a), q, view, cands, owner, rng)
    return neg[:trials]


def _vec_with_sim(s):
    """Unit 2-vector whose dot product with (1, 0) equals s."""
    return np.array([s, np.sqrt(1.0 - s * s)])


def test_criterion_05_retention_distribution():
    start = time.perf_counter()
    trials = 10_000
    s_pos_val = 0.9
    worst_gap, worst_tol = 0.0, 1.0
    for a in (0.0, 0.5, 2.0, 100.0):
        for ds in (0.0, 0.3, 1.0):
            s_neg = s_pos_val - ds
            p = float(np.exp(-a * (s_neg - s_pos_val) ** 2))
            probs, _ = mine_mask(
                np.array([s_neg, s_pos_val]), np.array([s_pos_val]),
                np.array([0, 2]), a, np.zeros(2),
            )
            np.testing.assert_allclose(probs, [p, 1.0], atol=1e-12)
            keep = _shared_pool_mask(
                [s_neg, s_pos_val], s_pos_val, a, RngState(int(a * 10 + ds * 100)), trials
            )
            # the companion candidate sits at zero gap, so it is always kept
            # and the fallback can never interfere with the measured slot
            assert keep[:, 1].all()
            frac = float(keep[:, 0].mean())
            tol = max(3.0 * np.sqrt(p * (1.0 - p) / trials), 1e-5)
            gap = abs(frac - p)
            if gap / tol > worst_gap / worst_tol:
                worst_gap, worst_tol = gap, tol
            assert gap <= tol, f"a={a} gap={ds}: |{frac} - {p}| > {tol}"
            if a == 0.0:
                assert keep.all()
    # hopeless pools still yield one negative: the highest-probability one
    keep = _shared_pool_mask([-0.1, 0.1, 0.0], s_pos_val, 100.0, RngState(55), trials)
    fallback_ok = bool(np.all(keep == np.array([False, True, False])))
    elapsed = time.perf_counter() - start
    _report(
        "5",
        fallback_ok and elapsed < 10.0,
        f"retention within 3 binomial sigma on 12 (a, gap) grids "
        f"(worst |frac-p| {worst_gap:.2e} vs tol {worst_tol:.2e}), zero-width "
        f"keeps all, fallback keeps exactly the best candidate, in {elapsed:.1f}s",
    )


def test_criterion_06_ema_and_schedule():
    cfg = NetworkConfig(in_dim=4, encoder=(4,), projector=(4,), predictor=(4,), bn=True)
    online = init_params(cfg, RngState(70))
    target = init_params(cfg, RngState(71))
    online.encoder[0].run_mean[:] = RngState(72).normal(4)
    target.encoder[0].run_mean[:] = RngState(73).normal(4)
    expect = {key: 0.99 * t for key, t in iter_trainable(target)}
    for key, o in iter_trainable(online):
        expect[key] += (1.0 - 0.99) * o
    stats_expect = 0.99 * target.encoder[0].run_mean
    stats_expect += (1.0 - 0.99) * online.encoder[0].run_mean
    ema_update(target, online, 0.99)
    ema_ok = all(
        np.array_equal(t, expect[key]) for key, t in iter_trainable(target)
    ) and np.array_equal(target.encoder[0].run_mean, stats_expect)

    opt = OptimizerState()
    lr0 = lr_at(opt, 0.0)
    lr_peak = lr_at(opt, float(opt.warmup_epochs))
    boundary_gap = abs(lr_peak - lr_at(opt, opt.warmup_epochs - 1e-12))
    _report(
        "6",
        ema_ok and lr0 == 0.0001 and lr_peak == 0.1 and boundary_gap <= 1e-12,
        f"momentum update exact at 0.99 (running stats included); "
        f"lr {lr0!r} at epoch 0, {lr_peak!r} at warmup end, "
        f"boundary gap {boundary_gap:.2e}",
    )


def test_criterion_07a_final_probe_accuracy(desk_run):
    final = desk_run["summary"]["final_knn"]
    _report("7a", final >= 0.90, f"final kNN probe {final!r} >= 0.90")


def test_criterion_07b_margin_over_random_init(desk_run):
    init = desk_run["summary"]["init_knn"]
    final = desk_run["summary"]["final_knn"]
    gap = final - init
    _report(
        "7b",
        gap >= 0.20,
        f"probe gain over the untrained encoder is {gap!r} "
        f"(init {init!r}, final {final!r}); a randomly initialized encoder "
        "already scores near ceiling on these separable clusters, so a 0.20 "
        "margin is not reachable at this scale",
    )


def test_criterion_07c_purity_trend(desk_run):
    rows = desk_run["metrics"]
    first = float(rows[0]["purity_top1"])
    last = float(rows[-1]["purity_top1"])
    _report(
        "7c", last >= first, f"top-1 purity rose from {first!r} to {last!r}"
    )


def test_criterion_07d_runtime(desk_run):
    elapsed = desk_run["elapsed"]
    _report("7d", elapsed < 300.0, f"reference run took {elapsed:.1f}s (< 300s)")


@pytest.fixture(scope="module")
def ablation_probe(desk_run):
    """Final kNN accuracy per (variant, seed) over seeds 7, 8 and 9.

    ("full", 7) is the desk run. The other 10 cells train up front in
    spawned worker processes with BLAS on one thread; each keeps its own
    config, data and seed, so its result does not depend on the process
    it ran in.
    """
    overrides = {
        "full": {},
        "no_soft": {"use_soft": False},
        "baseline_pnsm": {"baseline": True},
        "baseline": {"baseline": True, "use_pnsm": False},
    }
    cells = [(v, s) for v in overrides for s in (7, 8, 9) if (v, s) != ("full", 7)]
    one_thread = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    spawn = multiprocessing.get_context("spawn")
    # workers start at submit and inherit the environment as it is then
    with mock.patch.dict(os.environ, one_thread), ProcessPoolExecutor(
        min(2, os.cpu_count() or 1), mp_context=spawn
    ) as pool:
        jobs = {
            (v, s): pool.submit(
                pretrain,
                TrainConfig(seed=s, **overrides[v]),
                gen_clusters(4, 512, 32, 6.0, seed=s, split="train"),
                gen_clusters(4, 128, 32, 6.0, seed=s, split="test"),
            )
            for v, s in cells
        }
        probe = {key: job.result().final_knn for key, job in jobs.items()}
    probe["full", 7] = desk_run["summary"]["final_knn"]
    return probe


def test_criterion_08a_soft_loss_ablation_direction(ablation_probe):
    seeds = (7, 8, 9)
    full = float(np.mean([ablation_probe["full", s] for s in seeds]))
    no_soft = float(np.mean([ablation_probe["no_soft", s] for s in seeds]))
    _report(
        "8a",
        full >= no_soft,
        f"mean final probe, full {full!r} >= without the weighted loss {no_soft!r}",
    )


def test_criterion_08b_negative_mining_plugs_into_baseline(ablation_probe):
    seeds = (7, 8, 9)
    mined = float(np.mean([ablation_probe["baseline_pnsm", s] for s in seeds]))
    plain = float(np.mean([ablation_probe["baseline", s] for s in seeds]))
    _report(
        "8b",
        mined >= plain - 0.02,
        f"baseline with negative mining {mined!r} >= plain baseline {plain!r} - 0.02",
    )


def test_criterion_09_gradient_profile_shape(desk_run):
    params, _, target = load_checkpoint(desk_run["checkpoint"])
    train = gen_clusters(4, 512, 32, 6.0, seed=7, split="train")
    test = gen_clusters(4, 128, 32, 6.0, seed=7, split="test")
    bank_emb = forward_target(target, train.features)
    _, q, _ = forward_online(params, test.features, train=False)
    z2 = forward_target(target, test.features)
    profile = gradient_profile(q, z2, bank_emb, rank_depth=200)
    smoothed = np.convolve(profile.mean_norm, np.ones(10) / 10.0, mode="valid")
    increase = float(np.diff(smoothed).max())
    _report(
        "9",
        increase <= 1e-12,
        f"smoothed rank curve is non-increasing (largest step {increase:.2e}, "
        f"mean positive rank {profile.mean_positive_rank!r})",
    )


def test_criterion_10_reruns_are_byte_identical(desk_run, tmp_path):
    out = tmp_path / "again"
    assert cli.main(DESK_ARGS + ["--out", str(out)]) == 0
    a = (desk_run["dir"] / "metrics.csv").read_bytes()
    b = (out / "metrics.csv").read_bytes()
    _report(
        "10",
        a == b,
        f"metrics.csv byte-identical across independent reruns ({len(a)} bytes)",
    )
