"""Positive-sample mining losses and neighbor weighting.

The soft loss treats the query's augmented view plus its mined bank
neighbors as simultaneous positives, weighted by a softmax over their
similarities to the online projection z1. The hard loss is the plain
one-positive form on the view alone. Both return analytic gradients with
respect to the raw (pre-normalization) prediction rows q1; every other
embedding, and the weights themselves, are treated as constants. That
stop-gradient boundary matches the asymmetric online/target design: the
target branch never receives gradient.

Weighting strategies:
  V0  softmax weights as computed
  V1  weights below 1/k zeroed, survivors keep their V0 values
  V2  survivors of the V1 filter reweighted to 1/k' (k' survivors)
  V3  survivors reweighted to 1
  V4  every entry set to 1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .memory_bank import MinedNeighborSet
from .numerics import check_unit_rows, softmax

STRATEGIES = ("V0", "V1", "V2", "V3", "V4")

WEIGHT_SPAN_WITH_VIEW = "with_view"
WEIGHT_SPAN_MINED_ONLY = "mined_only"


@dataclass
class WeightVector:
    """Per-neighbor loss weights w0..wk plus the strategy that produced them."""

    weights: NDArray[np.float64]
    strategy: str = "V0"


@dataclass
class LossOutput:
    """Scalar loss, gradient w.r.t. raw q1 rows, and per-query diagnostics."""

    value: float
    grad_q: NDArray[np.float64]
    neg_counts: NDArray[np.int64]
    per_query: NDArray[np.float64]


def soft_weights(
    z1: np.ndarray,
    neighbors: MinedNeighborSet,
    span: str = WEIGHT_SPAN_WITH_VIEW,
) -> WeightVector:
    """Softmax weights over s(z1, NN(z2)_i), no temperature.

    With the default span the softmax runs over all k+1 members, so the
    weights form a simplex. Under ``mined_only`` the softmax covers members
    1..k and w0 is pinned to 1.
    """
    z1 = np.asarray(z1, dtype=np.float64).reshape(-1)
    check_unit_rows(z1[None, :], "z1")
    if neighbors.members.shape[0] == 0:
        raise ValueError("neighbor set is empty")
    sims = neighbors.members @ z1
    if span == WEIGHT_SPAN_WITH_VIEW:
        w = softmax(sims)
    elif span == WEIGHT_SPAN_MINED_ONLY:
        w = np.ones(len(sims))
        if len(sims) > 1:
            w[1:] = softmax(sims[1:])
    else:
        raise ValueError(f"unknown weight span {span!r}")
    return WeightVector(weights=w, strategy="V0")


def apply_weight_strategy(w: WeightVector, strategy: str, k: int) -> WeightVector:
    """Reshape V0 weights per the ablation strategies V0..V4.

    ``k`` is the mined-neighbor count defining the V1 threshold 1/k; the
    filter applies to all k+1 entries, index 0 included. With k = 0 there
    is nothing to threshold and the weights pass through untouched (V4
    still pins everything to 1).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if w.strategy != "V0":
        raise ValueError("strategies must be applied to raw V0 weights")
    weights = np.asarray(w.weights, dtype=np.float64).copy()
    if strategy == "V0":
        return WeightVector(weights=weights, strategy="V0")
    if strategy == "V4":
        return WeightVector(weights=np.ones_like(weights), strategy="V4")
    if k == 0:
        return WeightVector(weights=weights, strategy=strategy)
    survivors = weights >= 1.0 / k
    weights[~survivors] = 0.0
    if strategy == "V2":
        n_surv = int(survivors.sum())
        if n_surv:
            weights[survivors] = 1.0 / n_surv
    elif strategy == "V3":
        weights[survivors] = 1.0
    return WeightVector(weights=weights, strategy=strategy)


# Weighted NCE loss + gradient, ragged over both positives and negatives.
#
# Layout: query i owns positives pos_flat[pos_off[i]:pos_off[i+1]] with
# weights w_flat over the same span, and negatives cands[neg_idx[m]] for
# m in [neg_off[i], neg_off[i+1]). The per-query loss is
#     sum_j w_j * (logsumexp(all logits / t) - s_pos_j / t)
# where "all logits" spans that query's positives and negatives together.
# The gradient is with respect to the raw (pre-normalization) query row;
# weights, positives, and candidates are constants.


def _nce_loss_grad_numpy(q_raw, pos_flat, w_flat, pos_off, cands, neg_idx, neg_off, t):
    nq, dim = q_raw.shape
    loss = np.zeros(nq, dtype=np.float64)
    grad = np.zeros_like(q_raw)
    for i in range(nq):
        u = q_raw[i]
        nrm = float(np.sqrt(u @ u))
        if nrm == 0.0:
            continue
        q = u / nrm
        ps, pe = pos_off[i], pos_off[i + 1]
        ns, ne = neg_off[i], neg_off[i + 1]
        if pe == ps:
            continue
        pos = pos_flat[ps:pe]
        w = w_flat[ps:pe]
        idx = neg_idx[ns:ne]
        sp = pos @ q
        sn = cands[idx] @ q if ne > ns else np.empty(0)
        logits = np.concatenate([sp, sn]) / t
        m = logits.max()
        e = np.exp(logits - m)
        z = e.sum()
        lse = m + np.log(z)
        wsum = w.sum()
        loss[i] = float(np.dot(w, lse - sp / t))
        # d(loss)/d(similarity) for every member of the denominator.
        dlds = (wsum / t) * (e / z)
        dlds[: pe - ps] -= w / t
        g = dlds[: pe - ps] @ pos
        if ne > ns:
            g = g + dlds[pe - ps :] @ cands[idx]
        grad[i] = (g - (q @ g) * q) / nrm
    return loss, grad


def _as_f64(x):
    return np.ascontiguousarray(x, dtype=np.float64)


def _as_i64(x):
    return np.ascontiguousarray(x, dtype=np.int64)


def nce_loss_grad(
    q_raw: NDArray[np.float64],
    pos_flat: NDArray[np.float64],
    w_flat: NDArray[np.float64],
    pos_off: NDArray[np.int64],
    cands: NDArray[np.float64],
    neg_idx: NDArray[np.int64],
    neg_off: NDArray[np.int64],
    t: float,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Per-query weighted NCE loss values and gradients w.r.t. raw queries.

    Args:
        q_raw: (B, d) query rows, normalized inside the kernel.
        pos_flat: flattened positive embeddings, unit rows.
        w_flat: weight per positive, aligned with pos_flat.
        pos_off: (B+1,) segment offsets into pos_flat / w_flat.
        cands: (M, d) candidate matrix holding every potential negative.
        neg_idx: flat candidate row indices, one per retained negative.
        neg_off: (B+1,) segment offsets into neg_idx.
        t: temperature, > 0.

    Returns:
        (loss_per_query, grad_raw) with shapes (B,) and (B, d).
    """
    if t <= 0.0:
        raise ValueError(f"temperature must be positive, got {t}")
    q_raw = _as_f64(q_raw)
    pos_flat = _as_f64(pos_flat)
    w_flat = _as_f64(w_flat)
    cands = _as_f64(cands)
    pos_off = _as_i64(pos_off)
    neg_idx = _as_i64(neg_idx)
    neg_off = _as_i64(neg_off)
    if cands.ndim != 2:
        cands = cands.reshape(0, q_raw.shape[1])
    return _nce_loss_grad_numpy(
        q_raw, pos_flat, w_flat, pos_off, cands, neg_idx, neg_off, float(t)
    )


def _pack_negatives(
    negatives: Sequence[np.ndarray], dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = []
    counts = [0] * len(negatives)
    for i, neg in enumerate(negatives):
        neg = np.asarray(neg, dtype=np.float64)
        if neg.size == 0:
            continue
        if neg.ndim != 2 or neg.shape[1] != dim:
            raise ValueError(f"negative set {i} has shape {neg.shape}, want (*, {dim})")
        check_unit_rows(neg, f"negative set {i}")
        counts[i] = neg.shape[0]
        rows.append(neg)
    cands = np.concatenate(rows, axis=0) if rows else np.zeros((0, dim))
    neg_off = np.zeros(len(negatives) + 1, dtype=np.int64)
    np.cumsum(counts, out=neg_off[1:])
    neg_idx = np.arange(cands.shape[0], dtype=np.int64)
    return cands, neg_idx, neg_off


def weighted_nce_csr(
    q1: np.ndarray,
    pos_flat: np.ndarray,
    w_flat: np.ndarray,
    pos_off: np.ndarray,
    cands: np.ndarray,
    neg_idx: np.ndarray,
    neg_off: np.ndarray,
    t: float,
) -> LossOutput:
    """Batch-mean weighted NCE over pre-packed ragged segments.

    This is the single entry point every loss below reduces to; the trainer
    calls it directly with shared candidate matrices to avoid copies. No
    input validation happens here beyond what the kernel needs.
    """
    q1 = np.asarray(q1, dtype=np.float64)
    bsz = q1.shape[0]
    per_query, grad = nce_loss_grad(
        q1, pos_flat, w_flat, pos_off, cands, neg_idx, neg_off, t
    )
    neg_counts = np.diff(np.asarray(neg_off, dtype=np.int64))
    return LossOutput(
        value=float(per_query.mean()) if bsz else 0.0,
        grad_q=grad / max(bsz, 1),
        neg_counts=neg_counts,
        per_query=per_query,
    )


def hard_loss(
    q1: np.ndarray,
    z2: np.ndarray,
    negatives: Sequence[np.ndarray],
    t: float,
    w0: float = 1.0,
) -> LossOutput:
    """One-positive contrastive loss against the query's own view.

    Args:
        q1: (B, d) raw predictions; normalized internally, and the returned
            gradient is with respect to these raw rows.
        z2: (B, d) unit target views, one positive per query.
        negatives: per-query arrays of unit negative rows; any subset of
            the full batch negatives (a mined set is fine), possibly empty.
        t: temperature.
        w0: weight on the positive term.
    """
    q1 = np.asarray(q1, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    if t <= 0:
        raise ValueError(f"temperature must be positive, got {t}")
    if q1.shape != z2.shape:
        raise ValueError(f"q1 {q1.shape} and z2 {z2.shape} must match")
    if len(negatives) != q1.shape[0]:
        raise ValueError("one negative set per query required")
    check_unit_rows(z2, "z2")
    bsz, dim = q1.shape
    cands, neg_idx, neg_off = _pack_negatives(negatives, dim)
    pos_off = np.arange(bsz + 1, dtype=np.int64)
    w_flat = np.full(bsz, float(w0))
    return weighted_nce_csr(q1, z2, w_flat, pos_off, cands, neg_idx, neg_off, t)


def soft_loss(
    q1: np.ndarray,
    neighbor_sets: Sequence[MinedNeighborSet],
    weights: Sequence[WeightVector],
    negative_sets: Sequence[np.ndarray],
    t: float,
) -> LossOutput:
    """Weighted multi-positive loss over each query's mined neighbor set.

    Every member of a query's neighbor set appears in both the numerator
    (weighted by its w_i) and the shared denominator, alongside that
    query's negatives.
    """
    q1 = np.asarray(q1, dtype=np.float64)
    if t <= 0:
        raise ValueError(f"temperature must be positive, got {t}")
    bsz, dim = q1.shape
    if not (len(neighbor_sets) == len(weights) == bsz):
        raise ValueError("need one neighbor set and one weight vector per query")
    pos_rows = []
    w_rows = []
    pos_off = np.zeros(bsz + 1, dtype=np.int64)
    for i, (ns, wv) in enumerate(zip(neighbor_sets, weights)):
        members = np.asarray(ns.members, dtype=np.float64)
        wvec = np.asarray(wv.weights, dtype=np.float64)
        if members.shape[0] != wvec.shape[0]:
            raise ValueError(
                f"query {i}: {members.shape[0]} members but {wvec.shape[0]} weights"
            )
        if members.shape[1] != dim:
            raise ValueError(f"query {i}: member dim {members.shape[1]} != {dim}")
        check_unit_rows(members, f"neighbor set {i}")
        if np.any(wvec < 0):
            raise ValueError(f"query {i}: negative weights")
        pos_rows.append(members)
        w_rows.append(wvec)
        pos_off[i + 1] = pos_off[i] + members.shape[0]
    pos_flat = np.concatenate(pos_rows, axis=0)
    w_flat = np.concatenate(w_rows)
    cands, neg_idx, neg_off = _pack_negatives(negative_sets, dim)
    return weighted_nce_csr(q1, pos_flat, w_flat, pos_off, cands, neg_idx, neg_off, t)


def psm_loss(soft: LossOutput, hard: LossOutput, lam: float) -> LossOutput:
    """Total loss: soft + lam * hard, gradients combined likewise."""
    if soft.grad_q.shape != hard.grad_q.shape:
        raise ValueError(
            f"gradient shapes differ: {soft.grad_q.shape} vs {hard.grad_q.shape}"
        )
    return LossOutput(
        value=soft.value + lam * hard.value,
        grad_q=soft.grad_q + lam * hard.grad_q,
        neg_counts=soft.neg_counts + hard.neg_counts,
        per_query=soft.per_query + lam * hard.per_query,
    )

