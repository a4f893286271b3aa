"""Training orchestration: the full mining pipeline, a baseline, ablations.

Per step the pipeline runs: two views, online and target forwards, top-k
neighbor mining for every query, soft weighting, negative-pool assembly
(target projections of both views of the other samples for the hard loss,
the other queries' neighbor members for the soft loss), optional Bernoulli
negative filtering, the combined loss, manual backprop, SGD, the EMA
target update, and finally the bank enqueue. Enqueue happens strictly
after querying, so a sample's own view never shows up among its mined
neighbors; the view is already member 0 by construction.

The baseline mode is a symmetric two-view InfoNCE over in-batch negatives
with a single shared encoder+projector: no EMA, no bank, no predictor in
the loss path. Negative mining plugs into it unchanged.

Everything is deterministic in (config, dataset): rng substreams are keyed
by purpose, epoch, and step, never shared across uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .data import AugmentPolicy, Dataset, two_views
from .diagnostics import knn_probe
from .memory_bank import MemoryBank, query_topk_batch
from .network import (
    NetworkConfig,
    NetworkParams,
    OptimizerState,
    backward,
    commit_bn_stats,
    copy_params,
    embed,
    ema_update,
    forward_online,
    forward_target,
    init_params,
    lr_at,
    sgd_step,
)
from .numerics import RngState
from .pnsm import MiningConfig, filter_csr
from .ppsm import (
    STRATEGIES,
    LossOutput,
    WEIGHT_SPAN_MINED_ONLY,
    WEIGHT_SPAN_WITH_VIEW,
    WeightVector,
    apply_weight_strategy,
    psm_loss,
    weighted_nce_csr,
)

METRICS_HEADER = (
    "epoch,lr,loss_total,loss_soft,loss_hard,"
    "purity_top1,purity_topk,neg_retained_mean,knn_acc"
)


@dataclass
class TrainConfig:
    t: float = 0.5
    batch_size: int = 64
    k: int = 5
    a: float = 0.5
    lam: float = 1.0
    ema_momentum: float = 0.99
    bank_capacity: int = 2048
    epochs: int = 100
    warmup_epochs: int = 20
    weight_decay: float = 0.001
    sgd_momentum: float = 0.9
    base_lr: float = 0.0001
    peak_lr: float = 0.1
    floor_lr: float = 0.0
    strategy: str = "V0"
    weight_span: str = WEIGHT_SPAN_WITH_VIEW
    use_soft: bool = True
    use_hard: bool = True
    use_pnsm: bool = True
    symmetrize: bool = False
    baseline: bool = False
    seed: int = 0
    encoder: tuple[int, ...] = (128, 64)
    projector: tuple[int, ...] = (128, 64)
    predictor: tuple[int, ...] = (128, 64)
    bn: bool = True
    augment: AugmentPolicy = field(default_factory=AugmentPolicy)
    probe_every: int = 10
    probe_knn: int = 20

    def validate(self) -> None:
        if self.t <= 0:
            raise ValueError("temperature must be positive")
        if self.batch_size < 2:
            raise ValueError("batch size must be at least 2")
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if self.a < 0:
            raise ValueError("a must be nonnegative")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if not 0.0 <= self.ema_momentum <= 1.0:
            raise ValueError("EMA momentum must lie in [0, 1]")
        if self.bank_capacity < 1:
            raise ValueError("bank capacity must be positive")
        if self.epochs < 0 or self.warmup_epochs < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.warmup_epochs > self.epochs:
            raise ValueError("warmup cannot exceed total epochs")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.weight_span not in (WEIGHT_SPAN_WITH_VIEW, WEIGHT_SPAN_MINED_ONLY):
            raise ValueError(f"unknown weight span {self.weight_span!r}")
        if not self.baseline:
            if not self.use_soft and not self.use_hard:
                raise ValueError("at least one of the soft/hard losses must be on")
            if self.k == 0 and not self.use_hard:
                raise ValueError("k=0 with the hard loss disabled leaves no signal")


@dataclass
class RunArtifacts:
    config: TrainConfig
    metrics: list[dict]
    purity_rows: list[tuple[int, int, float]]
    init_knn: float | None
    final_knn: float | None
    params: NetworkParams
    target: NetworkParams | None
    opt: OptimizerState


@dataclass
class _StepEval:
    """Losses and diagnostics of one forward evaluation (no state change)."""

    total: LossOutput
    soft_value: float
    hard_value: float
    grads_per_pass: list[tuple[dict, NDArray[np.float64]]]
    purity_top1: float | None
    purity_topk: float | None
    retained_mean: float


_CSR_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _hard_csr(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Negative indices into the stacked (2n, d) view matrix, per query."""
    key = ("hard", n)
    if key not in _CSR_CACHE:
        mask = np.ones((n, 2 * n), dtype=bool)
        rows = np.arange(n)
        mask[rows, rows] = False
        mask[rows, n + rows] = False
        idx = np.tile(np.arange(2 * n, dtype=np.int64), (n, 1))[mask]
        off = np.arange(n + 1, dtype=np.int64) * (2 * n - 2)
        _CSR_CACHE[key] = (idx, off)
    return _CSR_CACHE[key]


def _soft_csr(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices into the flattened (n*p, d) neighbor members, per query."""
    key = ("soft", n, p)
    if key not in _CSR_CACHE:
        mask = np.ones((n, n * p), dtype=bool)
        for i in range(n):
            mask[i, i * p : (i + 1) * p] = False
        idx = np.tile(np.arange(n * p, dtype=np.int64), (n, 1))[mask]
        off = np.arange(n + 1, dtype=np.int64) * ((n - 1) * p)
        _CSR_CACHE[key] = (idx, off)
    return _CSR_CACHE[key]


def _row_softmax(scores: np.ndarray) -> np.ndarray:
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _zero_loss(bsz: int, dim: int) -> LossOutput:
    return LossOutput(
        value=0.0,
        grad_q=np.zeros((bsz, dim)),
        neg_counts=np.zeros(bsz, dtype=np.int64),
        per_query=np.zeros(bsz),
    )


def _filtered_csr(sims_full, idx, off, s_pos, cfg, rng):
    """Apply the Bernoulli mask to one candidate pool."""
    flat = sims_full[np.repeat(np.arange(off.shape[0] - 1), np.diff(off)), idx]
    _, keep = filter_csr(flat, s_pos, off, MiningConfig(a=cfg.a), rng)
    csum = np.concatenate([[0], np.cumsum(keep)])
    new_off = np.zeros_like(off)
    new_off[1:] = csum[off[1:]]
    return idx[keep], new_off


def _psm_pass(
    cfg: TrainConfig,
    params: NetworkParams,
    bank: MemoryBank,
    x_query: np.ndarray,
    pos_view: np.ndarray,
    cands_hard: np.ndarray,
    labels: np.ndarray,
    rng_pnsm: RngState,
):
    """One directional pass: query view against target positives."""
    bsz = x_query.shape[0]
    z1, q1, cache = forward_online(params, x_query, train=True)
    members, nb_idx, _, k_eff = query_topk_batch(bank, pos_view, cfg.k)
    p_count = k_eff + 1
    dim = members.shape[2]

    wsims = np.einsum("bd,bpd->bp", z1, members)
    if cfg.weight_span == WEIGHT_SPAN_WITH_VIEW:
        weights = _row_softmax(wsims)
    else:
        weights = np.ones_like(wsims)
        if p_count > 1:
            weights[:, 1:] = _row_softmax(wsims[:, 1:])
    if cfg.strategy != "V0":
        for i in range(bsz):
            weights[i] = apply_weight_strategy(
                WeightVector(weights[i]), cfg.strategy, k_eff
            ).weights

    s_pos = np.clip(np.einsum("bd,bd->b", q1, pos_view), -1.0, 1.0)

    hard = _zero_loss(bsz, dim)
    soft = _zero_loss(bsz, dim)
    retained = 0.0

    if cfg.use_hard:
        idx, off = _hard_csr(bsz)
        if cfg.use_pnsm:
            sims_h = np.clip(q1 @ cands_hard.T, -1.0, 1.0)
            idx, off = _filtered_csr(
                sims_h, idx, off, s_pos, cfg, rng_pnsm.split("hard")
            )
        hard = weighted_nce_csr(
            q1,
            pos_view,
            np.ones(bsz),
            np.arange(bsz + 1, dtype=np.int64),
            cands_hard,
            idx,
            off,
            cfg.t,
        )
        retained += float(hard.neg_counts.mean())

    if cfg.use_soft:
        cands_soft = members.reshape(bsz * p_count, dim)
        idx, off = _soft_csr(bsz, p_count)
        if cfg.use_pnsm:
            sims_s = np.clip(q1 @ cands_soft.T, -1.0, 1.0)
            idx, off = _filtered_csr(
                sims_s, idx, off, s_pos, cfg, rng_pnsm.split("soft")
            )
        soft = weighted_nce_csr(
            q1,
            cands_soft,
            weights.reshape(-1),
            np.arange(bsz + 1, dtype=np.int64) * p_count,
            cands_soft,
            idx,
            off,
            cfg.t,
        )
        retained += float(soft.neg_counts.mean())

    total = psm_loss(soft, hard, cfg.lam)

    purity_top1 = purity_topk = None
    if k_eff > 0 and bank.has_labels:
        mined = bank.labels_at(nb_idx)
        purity_top1 = float(np.mean(mined[:, 0] == labels))
        purity_topk = float(np.mean(mined == labels[:, None]))

    return total, soft.value, hard.value, cache, purity_top1, purity_topk, retained


def _evaluate_psm_step(
    cfg: TrainConfig,
    params: NetworkParams,
    target: NetworkParams,
    bank: MemoryBank,
    x1: np.ndarray,
    x2: np.ndarray,
    labels: np.ndarray,
    epoch: int,
    step: int,
    root: RngState,
) -> tuple[_StepEval, NDArray[np.float64]]:
    """Pure loss evaluation for one step; returns the eval and the enqueue view."""
    z2a = forward_target(target, x1)
    z2b = forward_target(target, x2)
    cands_hard = np.concatenate([z2a, z2b], axis=0)
    rng_pnsm = root.split("pnsm", epoch, step)

    total, soft_v, hard_v, cache, p1, pk, retained = _psm_pass(
        cfg, params, bank, x1, z2b, cands_hard, labels, rng_pnsm
    )
    passes = [(cache, total.grad_q)]
    if cfg.symmetrize:
        total_b, soft_b, hard_b, cache_b, _, _, retained_b = _psm_pass(
            cfg, params, bank, x2, z2a, cands_hard, labels, rng_pnsm.split("pass", 1)
        )
        passes = [(cache, 0.5 * total.grad_q), (cache_b, 0.5 * total_b.grad_q)]
        total = LossOutput(
            value=0.5 * (total.value + total_b.value),
            grad_q=np.zeros_like(total.grad_q),
            neg_counts=total.neg_counts + total_b.neg_counts,
            per_query=0.5 * (total.per_query + total_b.per_query),
        )
        soft_v = 0.5 * (soft_v + soft_b)
        hard_v = 0.5 * (hard_v + hard_b)
        retained = 0.5 * (retained + retained_b)

    if not np.isfinite(total.value):
        raise ValueError(f"non-finite loss at epoch {epoch} step {step}")
    eval_ = _StepEval(
        total=total,
        soft_value=soft_v,
        hard_value=hard_v,
        grads_per_pass=[(c, g) for c, g in passes],
        purity_top1=p1,
        purity_topk=pk,
        retained_mean=retained,
    )
    return eval_, z2b


def _evaluate_baseline_step(
    cfg: TrainConfig,
    params: NetworkParams,
    x1: np.ndarray,
    x2: np.ndarray,
    epoch: int,
    step: int,
    root: RngState,
) -> _StepEval:
    z1a, _, cache_a = forward_online(params, x1, train=True)
    z1b, _, cache_b = forward_online(params, x2, train=True)
    bsz, dim = z1a.shape
    cands = np.concatenate([z1a, z1b], axis=0)
    idx0, off0 = _hard_csr(bsz)
    rng_pnsm = root.split("pnsm", epoch, step)
    ones = np.ones(bsz)
    pos_off = np.arange(bsz + 1, dtype=np.int64)

    losses = []
    retained = 0.0
    for pass_no, (q, pos) in enumerate(((z1a, z1b), (z1b, z1a))):
        idx, off = idx0, off0
        if cfg.use_pnsm:
            s_pos = np.clip(np.einsum("bd,bd->b", q, pos), -1.0, 1.0)
            sims = np.clip(q @ cands.T, -1.0, 1.0)
            idx, off = _filtered_csr(
                sims, idx0, off0, s_pos, cfg, rng_pnsm.split("pass", pass_no)
            )
        out = weighted_nce_csr(q, pos, ones, pos_off, cands, idx, off, cfg.t)
        losses.append(out)
        retained += float(out.neg_counts.mean())

    value = 0.5 * (losses[0].value + losses[1].value)
    if not np.isfinite(value):
        raise ValueError(f"non-finite loss at epoch {epoch} step {step}")
    grads_per_pass = [
        (cache_a, 0.5 * losses[0].grad_q),
        (cache_b, 0.5 * losses[1].grad_q),
    ]
    return _StepEval(
        total=LossOutput(
            value=value,
            grad_q=np.zeros((bsz, dim)),
            neg_counts=losses[0].neg_counts + losses[1].neg_counts,
            per_query=0.5 * (losses[0].per_query + losses[1].per_query),
        ),
        soft_value=float("nan"),
        hard_value=float("nan"),
        grads_per_pass=grads_per_pass,
        purity_top1=None,
        purity_topk=None,
        retained_mean=0.5 * retained,
    )


def _accumulate_grads(cfg: TrainConfig, params, eval_: _StepEval, baseline: bool):
    grads: dict[str, np.ndarray] | None = None
    for cache, g in eval_.grads_per_pass:
        kw = {"grad_z1": g} if baseline else {"grad_q1": g}
        part = backward(params, cache, **kw)
        if grads is None:
            grads = part
        else:
            for key in grads:
                grads[key] += part[key]
    return grads


def _probe(params: NetworkParams, train_ds: Dataset, test_ds: Dataset, k_nn: int) -> float:
    return knn_probe(
        embed(params, train_ds.features),
        train_ds.labels,
        embed(params, test_ds.features),
        test_ds.labels,
        k_nn=k_nn,
    )


def pretrain(
    cfg: TrainConfig, train_ds: Dataset, test_ds: Dataset | None = None
) -> RunArtifacts:
    """Run the configured pipeline; one metrics row per epoch.

    The kNN probe columns populate at every probe_every-th epoch and the
    final one, and only when a test set is supplied.
    """
    cfg.validate()
    return _pretrain_impl(cfg, train_ds, test_ds, baseline=cfg.baseline)


def pretrain_baseline(
    cfg: TrainConfig,
    train_ds: Dataset,
    test_ds: Dataset | None = None,
    use_pnsm: bool | None = None,
) -> RunArtifacts:
    """Symmetric InfoNCE baseline, optionally with negative mining."""
    cfg = replace(
        cfg,
        baseline=True,
        use_pnsm=cfg.use_pnsm if use_pnsm is None else use_pnsm,
    )
    cfg.validate()
    return _pretrain_impl(cfg, train_ds, test_ds, baseline=True)


def _pretrain_impl(
    cfg: TrainConfig, train_ds: Dataset, test_ds: Dataset | None, baseline: bool
) -> RunArtifacts:
    steps_per_epoch = train_ds.n // cfg.batch_size
    if cfg.epochs > 0 and steps_per_epoch == 0:
        raise ValueError(
            f"batch size {cfg.batch_size} exceeds dataset size {train_ds.n}"
        )
    root = RngState(cfg.seed)
    net_cfg = NetworkConfig(
        in_dim=train_ds.dim,
        encoder=cfg.encoder,
        projector=cfg.projector,
        predictor=cfg.predictor,
        bn=cfg.bn,
    )
    params = init_params(net_cfg, root.split("net"))
    target = None if baseline else copy_params(params)
    opt = OptimizerState(
        momentum=cfg.sgd_momentum,
        weight_decay=cfg.weight_decay,
        warmup_epochs=cfg.warmup_epochs,
        total_epochs=cfg.epochs,
        base_lr=cfg.base_lr,
        peak_lr=cfg.peak_lr,
        floor_lr=cfg.floor_lr,
    )
    bank = None
    if not baseline:
        bank = MemoryBank(cfg.bank_capacity, cfg.projector[-1], with_labels=True)

    init_knn = _probe(params, train_ds, test_ds, cfg.probe_knn) if test_ds else None
    metrics: list[dict] = []
    purity_rows: list[tuple[int, int, float]] = []
    feats, labels = train_ds.features, train_ds.labels
    final_knn = init_knn

    for epoch in range(1, cfg.epochs + 1):
        perm = root.split("shuffle", epoch).permutation(train_ds.n)
        lr_row = lr_at(opt, float(epoch - 1))
        acc = {"total": 0.0, "soft": 0.0, "hard": 0.0, "retained": 0.0}
        pur1: list[float] = []
        purk: list[float] = []
        for step in range(steps_per_epoch):
            sel = perm[step * cfg.batch_size : (step + 1) * cfg.batch_size]
            x, y = feats[sel], labels[sel]
            x1, x2 = two_views(x, cfg.augment, root.split("aug", epoch, step))
            if baseline:
                ev = _evaluate_baseline_step(cfg, params, x1, x2, epoch, step, root)
                enqueue_view = None
            else:
                ev, enqueue_view = _evaluate_psm_step(
                    cfg, params, target, bank, x1, x2, y, epoch, step, root
                )
            grads = _accumulate_grads(cfg, params, ev, baseline)
            for cache, _ in ev.grads_per_pass:
                commit_bn_stats(params, cache)
            lr = lr_at(opt, (epoch - 1) + step / steps_per_epoch)
            sgd_step(params, grads, opt, lr)
            if not baseline:
                ema_update(target, params, cfg.ema_momentum)
                bank.enqueue_batch(enqueue_view, y)
            acc["total"] += ev.total.value
            acc["soft"] += ev.soft_value
            acc["hard"] += ev.hard_value
            acc["retained"] += ev.retained_mean
            if ev.purity_top1 is not None:
                pur1.append(ev.purity_top1)
                purk.append(ev.purity_topk)
                purity_rows.append((epoch, step, ev.purity_topk))
        knn = None
        if test_ds is not None and (
            epoch == cfg.epochs or (cfg.probe_every > 0 and epoch % cfg.probe_every == 0)
        ):
            knn = _probe(params, train_ds, test_ds, cfg.probe_knn)
            final_knn = knn
        metrics.append(
            {
                "epoch": epoch,
                "lr": lr_row,
                "loss_total": acc["total"] / steps_per_epoch,
                "loss_soft": None if baseline else acc["soft"] / steps_per_epoch,
                "loss_hard": None if baseline else acc["hard"] / steps_per_epoch,
                "purity_top1": float(np.mean(pur1)) if pur1 else None,
                "purity_topk": float(np.mean(purk)) if purk else None,
                "neg_retained_mean": acc["retained"] / steps_per_epoch,
                "knn_acc": knn,
            }
        )
    return RunArtifacts(
        config=cfg,
        metrics=metrics,
        purity_rows=purity_rows,
        init_knn=init_knn,
        final_knn=final_knn,
        params=params,
        target=target,
        opt=opt,
    )


def run_ablation_suite(
    cells: Sequence[tuple[str, TrainConfig]],
    train_ds: Dataset,
    test_ds: Dataset,
) -> list[dict]:
    """One pretrain per labeled config; rows of final probe/purity/loss."""
    if not cells:
        raise ValueError("ablation grid is empty")
    rows = []
    for label, cfg in cells:
        art = pretrain(cfg, train_ds, test_ds)
        last = art.metrics[-1] if art.metrics else {}
        rows.append(
            {
                "label": label,
                "knn_acc": art.final_knn,
                "purity_top1": last.get("purity_top1"),
                "loss_total": last.get("loss_total"),
            }
        )
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and not np.isfinite(value):
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_metrics_csv(metrics: Sequence[dict], path: str | Path) -> None:
    """Exact, reproducible text form of the per-epoch metrics."""
    cols = METRICS_HEADER.split(",")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(METRICS_HEADER + "\n")
        for row in metrics:
            fh.write(",".join(_fmt(row.get(c)) for c in cols) + "\n")
