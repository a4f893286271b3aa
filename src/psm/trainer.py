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

from dataclasses import dataclass, field
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

    loss: float
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


def _pool_loss(
    cfg: TrainConfig,
    q: np.ndarray,
    view: np.ndarray,
    pos: np.ndarray,
    w: np.ndarray,
    cands: np.ndarray,
    csr: tuple[np.ndarray, np.ndarray],
    rng: RngState,
    *tags: int | str,
) -> LossOutput:
    """Weighted NCE of q against one candidate pool, Bernoulli-filtered when mining.

    Each query owns ``len(w) // B`` consecutive rows of ``pos``; ``csr``
    lists its candidate rows. The mask is anchored at the similarity of q
    to ``view`` and draws from ``rng.split(*tags)``.
    """
    bsz = q.shape[0]
    idx, off = csr
    if cfg.use_pnsm:
        s_pos = np.clip(np.einsum("bd,bd->b", q, view), -1.0, 1.0)
        sims = np.clip(q @ cands.T, -1.0, 1.0)
        flat = sims[np.repeat(np.arange(bsz), np.diff(off)), idx]
        _, keep = filter_csr(flat, s_pos, off, MiningConfig(a=cfg.a), rng.split(*tags))
        csum = np.concatenate([[0], np.cumsum(keep)])
        new_off = np.zeros_like(off)
        new_off[1:] = csum[off[1:]]
        idx, off = idx[keep], new_off
    pos_off = np.arange(bsz + 1, dtype=np.int64) * (len(w) // bsz)
    return weighted_nce_csr(q, pos, w, pos_off, cands, idx, off, cfg.t)


def _mean_of_passes(a: _StepEval, b: _StepEval) -> _StepEval:
    """Average two directional passes; each backpropagates half its gradient."""
    return _StepEval(
        loss=0.5 * (a.loss + b.loss),
        soft_value=0.5 * (a.soft_value + b.soft_value),
        hard_value=0.5 * (a.hard_value + b.hard_value),
        grads_per_pass=[(c, 0.5 * g) for c, g in a.grads_per_pass + b.grads_per_pass],
        purity_top1=a.purity_top1,
        purity_topk=a.purity_topk,
        retained_mean=0.5 * (a.retained_mean + b.retained_mean),
    )


def _psm_pass(
    cfg: TrainConfig,
    params: NetworkParams,
    bank: MemoryBank,
    x_query: np.ndarray,
    pos_view: np.ndarray,
    cands_hard: np.ndarray,
    labels: np.ndarray,
    rng_pnsm: RngState,
) -> _StepEval:
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

    hard = _zero_loss(bsz, dim)
    soft = _zero_loss(bsz, dim)
    retained = 0.0
    if cfg.use_hard:
        hard = _pool_loss(
            cfg, q1, pos_view, pos_view, np.ones(bsz), cands_hard, _hard_csr(bsz),
            rng_pnsm, "hard",
        )
        retained += float(hard.neg_counts.mean())
    if cfg.use_soft:
        cands_soft = members.reshape(bsz * p_count, dim)
        soft = _pool_loss(
            cfg, q1, pos_view, cands_soft, weights.reshape(-1), cands_soft,
            _soft_csr(bsz, p_count), rng_pnsm, "soft",
        )
        retained += float(soft.neg_counts.mean())

    total = psm_loss(soft, hard, cfg.lam)

    purity_top1 = purity_topk = None
    if k_eff > 0 and bank.has_labels:
        mined = bank.labels_at(nb_idx)
        purity_top1 = float(np.mean(mined[:, 0] == labels))
        purity_topk = float(np.mean(mined == labels[:, None]))

    return _StepEval(
        loss=total.value,
        soft_value=soft.value,
        hard_value=hard.value,
        grads_per_pass=[(cache, total.grad_q)],
        purity_top1=purity_top1,
        purity_topk=purity_topk,
        retained_mean=retained,
    )


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
    eval_ = _psm_pass(cfg, params, bank, x1, z2b, cands_hard, labels, rng_pnsm)
    if cfg.symmetrize:
        eval_ = _mean_of_passes(
            eval_,
            _psm_pass(
                cfg, params, bank, x2, z2a, cands_hard, labels, rng_pnsm.split("pass", 1)
            ),
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
    """Symmetric two-view InfoNCE over in-batch negatives, shared encoder."""
    z1a, _, cache_a = forward_online(params, x1, train=True)
    z1b, _, cache_b = forward_online(params, x2, train=True)
    bsz = z1a.shape[0]
    cands = np.concatenate([z1a, z1b], axis=0)
    rng_pnsm = root.split("pnsm", epoch, step)
    passes = []
    for pass_no, (q, pos, cache) in enumerate(((z1a, z1b, cache_a), (z1b, z1a, cache_b))):
        out = _pool_loss(
            cfg, q, pos, pos, np.ones(bsz), cands, _hard_csr(bsz), rng_pnsm, "pass", pass_no
        )
        passes.append(
            _StepEval(
                loss=out.value,
                soft_value=float("nan"),
                hard_value=float("nan"),
                grads_per_pass=[(cache, out.grad_q)],
                purity_top1=None,
                purity_topk=None,
                retained_mean=0.0 + float(out.neg_counts.mean()),
            )
        )
    return _mean_of_passes(*passes)


def _accumulate_grads(params, eval_: _StepEval, baseline: bool):
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
    baseline = cfg.baseline
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
            if not np.isfinite(ev.loss):
                raise ValueError(f"non-finite loss at epoch {epoch} step {step}")
            grads = _accumulate_grads(params, ev, baseline)
            for cache, _ in ev.grads_per_pass:
                commit_bn_stats(params, cache)
            lr = lr_at(opt, (epoch - 1) + step / steps_per_epoch)
            sgd_step(params, grads, opt, lr)
            if not baseline:
                ema_update(target, params, cfg.ema_momentum)
                bank.enqueue_batch(enqueue_view, y)
            acc["total"] += ev.loss
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
