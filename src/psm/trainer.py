"""Training orchestration: the full mining pipeline, a baseline, ablations.

Per step the pipeline runs: two views, online and target forwards, top-k
neighbor mining for every query, soft weighting, the negative pools
(target projections of both views of the other samples for the hard loss,
the other queries' neighbor members for the soft loss), each a dense
(query x candidate) boolean mask that optional Bernoulli filtering thins
in place, the combined loss, manual backprop, SGD, the EMA
target update, and finally the bank enqueue. Enqueue happens strictly
after querying, so a sample's own view never shows up among its mined
neighbors; the view is already member 0 by construction.

The baseline mode is a symmetric two-view InfoNCE over in-batch negatives
with a single shared encoder+projector: no EMA, no bank, and the predictor
is neither run nor trained, so all its tensors keep their initial values.
Negative mining plugs into it unchanged.

A step stacks its views (2, B, in) and runs one online pass on both (the
baseline, --symmetrize) or on the first, then one backward and one batch-norm
commit. Loss direction v queries view v against the other view; a step
averages its directions.

Everything is deterministic in (config, dataset): rng substreams are keyed
by purpose, epoch, and step, never shared across uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .data import AugmentPolicy, Dataset, two_views
from .diagnostics import knn_probe, purity
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
    forward_projection,
    forward_target,
    init_params,
    lr_at,
    sgd_step,
)
from .numerics import RngState, check_field_types
from .pnsm import MiningConfig, filter_csr
from .ppsm import (
    STRATEGIES,
    LossOutput,
    WEIGHT_SPAN_MINED_ONLY,
    WEIGHT_SPAN_WITH_VIEW,
    apply_weight_strategy,
    soft_weights,
    weighted_nce_csr,
)

METRICS_HEADER = (
    "epoch,lr,loss_total,loss_soft,loss_hard,"
    "purity_top1,purity_topk,neg_retained_mean,knn_acc"
)


@dataclass(frozen=True)
class TrainConfig:
    """Every setting of a run; building one checks them all."""

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

    def __post_init__(self):
        check_field_types(self)
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
        self.optimizer()  # OptimizerState checks the rates and the epoch counts
        if self.bank_capacity < 1:
            raise ValueError("bank capacity must be positive")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.weight_span not in (WEIGHT_SPAN_WITH_VIEW, WEIGHT_SPAN_MINED_ONLY):
            raise ValueError(f"unknown weight span {self.weight_span!r}")
        if self.probe_knn < 1:
            raise ValueError("probe_knn must be at least 1")
        if self.probe_every < 0:
            raise ValueError("probe_every must be nonnegative")
        if not self.baseline:
            if not self.use_soft and not self.use_hard:
                raise ValueError("at least one of the soft/hard losses must be on")
            if self.k == 0 and not self.use_hard:
                raise ValueError("k=0 with the hard loss disabled leaves no signal")
            if not self.use_soft and self.lam == 0:
                raise ValueError("lambda=0 with the soft loss disabled leaves no signal")

    def optimizer(self) -> OptimizerState:
        """A fresh SGD state with this config's rates and schedule."""
        return OptimizerState(
            momentum=self.sgd_momentum,
            weight_decay=self.weight_decay,
            warmup_epochs=self.warmup_epochs,
            total_epochs=self.epochs,
            base_lr=self.base_lr,
            peak_lr=self.peak_lr,
            floor_lr=self.floor_lr,
        )

    def steps_per_epoch(self, n_rows: int) -> int:
        """Full batches per epoch over ``n_rows`` rows; at least one if training."""
        steps = n_rows // self.batch_size
        if self.epochs > 0 and steps == 0:
            raise ValueError(
                f"batch size {self.batch_size} exceeds dataset size {n_rows}"
            )
        return steps


@dataclass
class RunArtifacts:
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
    grad: NDArray[np.float64]  # backward's gradient: one direction, or stacked
    retained_mean: float
    purity_top1: float | None = None
    purity_topk: float | None = None
    cache: dict | None = None


def _mean_over_directions(dirs: list[_StepEval], cache: dict) -> _StepEval:
    """Average the directions, gradients included; purity is direction 0's."""
    n = len(dirs)
    return _StepEval(
        loss=sum(d.loss for d in dirs) / n,
        soft_value=sum(d.soft_value for d in dirs) / n,
        hard_value=sum(d.hard_value for d in dirs) / n,
        grad=np.stack([d.grad for d in dirs]) / n,
        retained_mean=sum(d.retained_mean for d in dirs) / n,
        purity_top1=dirs[0].purity_top1,
        purity_topk=dirs[0].purity_topk,
        cache=cache,
    )


def _offsets(neg: np.ndarray) -> np.ndarray:
    """CSR offsets of a (B, M) mask: row i owns the flat run off[i]:off[i+1]."""
    off = np.zeros(neg.shape[0] + 1, dtype=np.int64)
    np.cumsum(neg.sum(axis=1), out=off[1:])
    return off


def _pool_mask(
    cfg: TrainConfig,
    q: np.ndarray,
    view: np.ndarray,
    cands: np.ndarray,
    owner: np.ndarray,
    rng: RngState,
) -> NDArray[np.bool_]:
    """The (B, M) negative mask of one candidate pool, Bernoulli-thinned when mining.

    Query i may take candidate m as a negative unless ``owner[m] == i``,
    that is, unless the candidate holds one of the query's own rows.
    Mining anchors at the similarity of q to ``view``, draws from ``rng``
    one uniform per True cell in row-major order, and clears the rejected
    cells.
    """
    bsz, n_cands = q.shape[0], cands.shape[0]
    neg = np.ones((bsz, n_cands), dtype=bool)
    neg[owner, np.arange(n_cands)] = False
    if cfg.use_pnsm:
        s_pos = np.clip(np.einsum("bd,bd->b", q, view), -1.0, 1.0)
        sims = np.clip(q @ cands.T, -1.0, 1.0)
        _, keep = filter_csr(sims[neg], s_pos, _offsets(neg), MiningConfig(a=cfg.a), rng)
        neg[neg] = keep
    return neg


def _masked_nce(
    q: np.ndarray,
    pos: np.ndarray,
    w: np.ndarray,
    cands: np.ndarray,
    neg: np.ndarray,
    t: float,
) -> LossOutput:
    """Weighted NCE of q against the candidates its mask row keeps.

    ``pos`` is the (B, P, d) positive block and ``w`` its (B, P) weights.
    The flat CSR lists the kernel takes are read off the mask once, in
    row-major order.
    """
    idx = np.broadcast_to(np.arange(neg.shape[1]), neg.shape)[neg]
    return weighted_nce_csr(q, pos, w, t, cands, idx, _offsets(neg))


def _psm_pass(
    cfg: TrainConfig,
    bank: MemoryBank,
    z1: np.ndarray,
    q1: np.ndarray,
    pos_view: np.ndarray,
    cands_hard: np.ndarray,
    labels: np.ndarray,
    rng_pnsm: RngState,
) -> _StepEval:
    """One direction: a view's online z1/q1 rows against target positives."""
    bsz = q1.shape[0]
    members, nb_idx, _, k_eff = query_topk_batch(bank, pos_view, cfg.k)
    p_count = k_eff + 1
    weights = soft_weights(z1, members, cfg.weight_span)
    weights = apply_weight_strategy(weights, cfg.strategy, k_eff)

    # A disabled pool adds a zero value and a zero gradient.
    soft_value = hard_value = 0.0
    soft_grad = hard_grad = 0.0
    retained = 0.0
    if cfg.use_hard:
        owner = np.tile(np.arange(bsz), 2)
        neg = _pool_mask(cfg, q1, pos_view, cands_hard, owner, rng_pnsm.split("hard"))
        pos, w = pos_view[:, None], np.ones((bsz, 1))
        hard = _masked_nce(q1, pos, w, cands_hard, neg, cfg.t)
        hard_value, hard_grad = hard.value, hard.grad_q
        retained += float(hard.neg_counts.mean())
    if cfg.use_soft:
        cands_soft = members.reshape(bsz * p_count, -1)
        owner = np.repeat(np.arange(bsz), p_count)
        neg = _pool_mask(cfg, q1, pos_view, cands_soft, owner, rng_pnsm.split("soft"))
        soft = _masked_nce(q1, members, weights, cands_soft, neg, cfg.t)
        soft_value, soft_grad = soft.value, soft.grad_q
        retained += float(soft.neg_counts.mean())

    purity_top1 = purity_topk = None
    if k_eff > 0 and bank.has_labels:
        purity_top1, purity_topk = purity(bank.labels_at(nb_idx), labels)

    return _StepEval(
        loss=soft_value + cfg.lam * hard_value,
        soft_value=soft_value,
        hard_value=hard_value,
        grad=soft_grad + cfg.lam * hard_grad,
        retained_mean=retained,
        purity_top1=purity_top1,
        purity_topk=purity_topk,
    )


def _evaluate_psm_step(
    cfg: TrainConfig,
    params: NetworkParams,
    target: NetworkParams,
    bank: MemoryBank,
    views: np.ndarray,
    labels: np.ndarray,
    epoch: int,
    step: int,
    root: RngState,
) -> tuple[_StepEval, NDArray[np.float64]]:
    """Pure loss evaluation for one step; returns the eval and the enqueue view.

    Direction v queries view v against the other view's target projection.
    """
    bsz = views.shape[1]
    # one pass over the 2B stacked rows (two B-row passes can round differently)
    cands_hard = forward_target(target, views.reshape(2 * bsz, -1))
    z2 = cands_hard.reshape(2, bsz, -1)
    n_dirs = 2 if cfg.symmetrize else 1
    z1, q1, cache = forward_online(params, views[:n_dirs])
    rng_pnsm = root.split("pnsm", epoch, step)
    dirs = [
        _psm_pass(
            cfg, bank, z1[v], q1[v], z2[1 - v], cands_hard, labels,
            rng_pnsm.split("pass", v) if v else rng_pnsm,
        )
        for v in range(n_dirs)
    ]
    return _mean_over_directions(dirs, cache), z2[1]


def _evaluate_baseline_step(
    cfg: TrainConfig,
    params: NetworkParams,
    views: np.ndarray,
    epoch: int,
    step: int,
    root: RngState,
) -> _StepEval:
    """Symmetric two-view InfoNCE over in-batch negatives, shared encoder."""
    z1, cache = forward_projection(params, views)
    bsz = z1.shape[1]
    cands = z1.reshape(2 * bsz, -1)
    owner = np.tile(np.arange(bsz), 2)
    rng_pnsm = root.split("pnsm", epoch, step)
    dirs, nan = [], float("nan")
    for v in range(2):
        q, pos = z1[v], z1[1 - v]
        neg = _pool_mask(cfg, q, pos, cands, owner, rng_pnsm.split("pass", v))
        out = _masked_nce(q, pos[:, None], np.ones((bsz, 1)), cands, neg, cfg.t)
        retained = float(out.neg_counts.mean())
        dirs.append(_StepEval(out.value, nan, nan, out.grad_q, retained))
    return _mean_over_directions(dirs, cache)


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
    baseline = cfg.baseline
    steps_per_epoch = cfg.steps_per_epoch(train_ds.n)
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
    opt = cfg.optimizer()
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
            views = np.stack(two_views(x, cfg.augment, root.split("aug", epoch, step)))
            if baseline:
                ev = _evaluate_baseline_step(cfg, params, views, epoch, step, root)
                enqueue_view = None
            else:
                ev, enqueue_view = _evaluate_psm_step(
                    cfg, params, target, bank, views, y, epoch, step, root
                )
            if not np.isfinite(ev.loss):
                raise ValueError(f"non-finite loss at epoch {epoch} step {step}")
            grads = backward(params, ev.cache, ev.grad)
            commit_bn_stats(params, ev.cache)
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

