"""Positive-sample mining: neighbor weights and the weighted NCE loss.

The trainer's positives for a query are its target view (member 0) and
the k bank neighbors mined for that view. ``soft_weights`` turns their
similarities to the online projection z1 into a softmax, and
``apply_weight_strategy`` reshapes those weights per the V0..V4
ablations. ``weighted_nce_csr`` is the one loss. Each query owns one row
of a dense (B, P, d) positive block with (B, P) weights; every positive
sits in the numerator with its weight and in the query's denominator
beside the query's negatives. The trainer runs it once per pool: the soft
pool with a query's k+1 members as its P positives, the hard pool (and
the baseline) with the other view alone, P = 1 and weight 1. It returns
the analytic gradient with respect to the raw (pre-normalization)
prediction rows q1; every other embedding, and the weights themselves,
are treated as constants. That stop-gradient boundary matches the
asymmetric online/target design: the target branch never receives
gradient.

Weighting strategies:
  V0  softmax weights as computed
  V1  weights below 1/k zeroed, survivors keep their V0 values
  V2  survivors of the V1 filter reweighted to 1/k' (k' survivors)
  V3  survivors reweighted to 1
  V4  every entry set to 1
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .numerics import check_unit_rows, softmax

STRATEGIES = ("V0", "V1", "V2", "V3", "V4")

WEIGHT_SPAN_WITH_VIEW = "with_view"
WEIGHT_SPAN_MINED_ONLY = "mined_only"


@dataclass
class LossOutput:
    """Batch-mean loss, its gradient w.r.t. raw q1 rows, negatives per query."""

    value: float
    grad_q: NDArray[np.float64]
    neg_counts: NDArray[np.int64]


def soft_weights(
    z1: np.ndarray, members: np.ndarray, span: str = WEIGHT_SPAN_WITH_VIEW
) -> NDArray[np.float64]:
    """Softmax weights over s(z1_b, member_bp), no temperature.

    ``z1`` holds one unit row per query, (B, d); ``members`` holds each
    query's view and its k mined neighbors, (B, k+1, d). Returns (B, k+1).
    With the default span the softmax runs over all k+1 members, so every
    row is a simplex. Under ``mined_only`` the softmax covers members 1..k
    and w0 is pinned to 1.
    """
    if span not in (WEIGHT_SPAN_WITH_VIEW, WEIGHT_SPAN_MINED_ONLY):
        raise ValueError(f"unknown weight span {span!r}")
    z1 = np.asarray(z1, dtype=np.float64)
    members = np.asarray(members, dtype=np.float64)
    if members.ndim != 3 or members.shape[1] == 0:
        raise ValueError(f"members must be (B, k+1, d), got {members.shape}")
    if z1.shape != (members.shape[0], members.shape[2]):
        raise ValueError(f"z1 {z1.shape} does not fit members {members.shape}")
    check_unit_rows(z1, "z1")
    sims = np.einsum("bd,bpd->bp", z1, members)
    if span == WEIGHT_SPAN_WITH_VIEW:
        return softmax(sims)
    weights = np.ones_like(sims)
    if sims.shape[1] > 1:
        weights[:, 1:] = softmax(sims[:, 1:])
    return weights


def apply_weight_strategy(
    weights: np.ndarray, strategy: str, k: int
) -> NDArray[np.float64]:
    """A new array of V0 weights reshaped per the ablation strategies V0..V4.

    ``weights`` is one row of k+1 weights or a (rows, k+1) matrix, each row
    treated on its own. ``k`` is the mined-neighbor count defining the V1
    threshold 1/k, which applies to all k+1 entries, index 0 included. With
    k = 0 the weights pass through untouched (V4 still pins them to 1).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    weights = np.asarray(weights, dtype=np.float64).copy()
    if strategy == "V4":
        return np.ones_like(weights)
    if strategy == "V0" or k == 0:
        return weights
    survivors = weights >= 1.0 / k
    weights[~survivors] = 0.0
    if strategy == "V2":
        # 1.0 / n_surv per row; a row without survivors is already all zero
        n_surv = survivors.sum(axis=-1, keepdims=True)
        weights = np.where(survivors, 1.0 / np.maximum(n_surv, 1), weights)
    elif strategy == "V3":
        weights[survivors] = 1.0
    return weights


# Weighted NCE loss + gradient over dense positives and ragged negatives.
#
# Query i owns the P positives pos[i], weighted w[i], and the negatives
# cands[neg_idx[neg_off[i]:neg_off[i+1]]]; a candidate listed twice counts
# twice. Its loss is sum_j w_ij * (logsumexp(all logits / t) - s_pos_ij / t),
# where "all logits" spans its positives and negatives together. The
# gradient is w.r.t. the raw (pre-normalization) query row; weights,
# positives and candidates are constants.
#
# One (B, M) product q @ cands.T holds every query-candidate logit, and one
# bincount over row*M + idx counts each candidate's listings per query. Row
# maxima come from the listed logits and the (B, P) positive logits. The
# (B, M) and (B, P) derivatives of the loss w.r.t. each similarity, D and
# Dp, give the gradient D @ cands + sum_p Dp[:, p] * pos[:, p], projected
# onto each query's tangent plane and divided by its norm; no (B, M, d)
# temporary is formed. A zero-norm row, and every row of a P = 0 block, gets
# loss 0 and gradient 0; a row with no negatives keeps its positive-only loss.


def nce_loss_grad(
    q_raw: NDArray[np.float64],
    pos: NDArray[np.float64],
    w: NDArray[np.float64],
    t: float,
    cands: NDArray[np.float64],
    neg_idx: NDArray[np.int64],
    neg_off: NDArray[np.int64],
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Per-query weighted NCE loss values and gradients w.r.t. raw queries.

    Args:
        q_raw: (B, d) query rows, normalized inside the kernel.
        pos: (B, P, d) positive embeddings per query, unit rows.
        w: (B, P) weight per positive.
        t: temperature, > 0.
        cands: (M, d) candidate matrix holding every potential negative.
        neg_idx: flat candidate row indices, one per retained negative.
        neg_off: (B+1,) segment offsets into neg_idx.

    Returns:
        (loss_per_query, grad_raw) with shapes (B,) and (B, d).
    """
    if t <= 0.0:
        raise ValueError(f"temperature must be positive, got {t}")
    q_raw = np.ascontiguousarray(q_raw, dtype=np.float64)
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    cands = np.ascontiguousarray(cands, dtype=np.float64)
    neg_idx = np.ascontiguousarray(neg_idx, dtype=np.int64)
    neg_off = np.ascontiguousarray(neg_off, dtype=np.int64)
    nq, n_cands = q_raw.shape[0], cands.shape[0]
    neg_row = np.repeat(np.arange(nq), np.diff(neg_off))
    nrm = np.sqrt(np.einsum("bd,bd->b", q_raw, q_raw))
    live = (nrm > 0.0) & (pos.shape[1] > 0)
    nrm = np.where(live, nrm, 1.0)
    q = q_raw / nrm[:, None]

    # How often each candidate sits in each query's negatives, and the logits.
    n_listed = np.bincount(
        neg_row * n_cands + neg_idx, minlength=nq * n_cands
    ).reshape(nq, n_cands)
    logit_neg = q @ cands.T
    logit_neg /= t
    logit_pos = np.einsum("bpd,bd->bp", pos, q) / t
    m = np.maximum(
        np.where(n_listed > 0, logit_neg, -np.inf).max(axis=1, initial=-np.inf),
        logit_pos.max(axis=1, initial=-np.inf),
    )
    m = np.where(live, m, 0.0)
    # Unlisted cells may lie above the row maximum; capping them at 0 keeps
    # exp finite before their zero count clears them.
    e_neg = logit_neg
    e_neg -= m[:, None]
    np.minimum(e_neg, 0.0, out=e_neg)
    np.exp(e_neg, out=e_neg)
    e_neg *= n_listed
    e_pos = np.exp(logit_pos - m[:, None])
    z = e_neg.sum(axis=1) + e_pos.sum(axis=1)
    z = np.where(live, z, 1.0)
    lse = m + np.log(z)
    wsum = w.sum(axis=1)
    loss = (w * (lse[:, None] - logit_pos)).sum(axis=1)

    # d(loss)/d(similarity) for every member of each query's denominator.
    scale = wsum / (t * z)
    d_neg = e_neg
    d_neg *= scale[:, None]
    d_pos = scale[:, None] * e_pos - w / t
    g = d_neg @ cands + np.einsum("bp,bpd->bd", d_pos, pos)
    grad = (g - np.einsum("bd,bd->b", q, g)[:, None] * q) / nrm[:, None]
    loss[~live] = 0.0
    grad[~live] = 0.0
    return loss, grad


def weighted_nce_csr(
    q1: np.ndarray,
    pos: np.ndarray,
    w: np.ndarray,
    t: float,
    cands: np.ndarray,
    neg_idx: np.ndarray,
    neg_off: np.ndarray,
) -> LossOutput:
    """Batch-mean weighted NCE over (B, P) positive blocks and ragged negatives.

    The layout is ``nce_loss_grad``'s: query i owns the positives ``pos[i]``
    with weights ``w[i]`` and the negatives
    ``cands[neg_idx[neg_off[i]:neg_off[i+1]]]``. The trainer reads each
    pool's negative lists off its (query x candidate) mask and shares one
    candidate matrix per pool, so no negative row is copied. No input
    validation happens here beyond what the kernel needs.
    """
    per_query, grad = nce_loss_grad(q1, pos, w, t, cands, neg_idx, neg_off)
    bsz = len(per_query)
    neg_counts = np.diff(np.asarray(neg_off, dtype=np.int64))
    return LossOutput(
        value=float(per_query.mean()) if bsz else 0.0,
        grad_q=grad / max(bsz, 1),
        neg_counts=neg_counts,
    )
