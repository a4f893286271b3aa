"""Negative-sample mining: Bernoulli retention peaked at the positive similarity.

Each negative candidate survives with probability exp(-a * (s_neg - s_pos)**2),
so negatives whose similarity sits far from the positive's (uninformative ones
near -1/0, and the most extreme hard ones) are thinned out, while candidates
that look like the positive, the likely false negatives and the informative
hard negatives, are kept almost surely. ``a`` controls how sharply the window
closes; a = 0 keeps everything.

Mining is applied to similarities only and never carries gradient. All
randomness flows through explicit RngState substreams, so replaying a
(seed, epoch, step) triple reproduces the retained sets exactly, whatever
order the queries are evaluated in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .numerics import RngState, check_unit_rows


@dataclass
class MiningConfig:
    """Density parameter of negative mining.

    The rng substream a caller passes in is expected to already encode the
    (seed, epoch, step) position.
    """

    a: float = 0.5

    def __post_init__(self):
        if self.a < 0:
            raise ValueError(f"a must be nonnegative, got {self.a}")


@dataclass
class MinedNegativeSet:
    """Retention result for one query: kept candidate indices plus all p_i."""

    query_id: int
    kept: NDArray[np.int64]
    probs: NDArray[np.float64]


def mining_probability(s_neg, s_pos, a: float):
    """p = exp(-a * (s_neg - s_pos)**2), elementwise on array input."""
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    d = np.asarray(s_neg, dtype=np.float64) - np.asarray(s_pos, dtype=np.float64)
    p = np.exp(-a * d * d)
    if np.ndim(p) == 0:
        return float(p)
    return p


def _mine_mask_numpy(sims_flat, s_pos, off, a, uniforms):
    counts = np.diff(off)
    anchor = np.repeat(s_pos, counts)
    delta = sims_flat - anchor
    probs = np.exp(-a * delta * delta)
    keep = uniforms < probs
    # Fallback: a query whose candidates were all rejected keeps its
    # single most probable candidate (first index on ties).
    csum = np.concatenate([[0], np.cumsum(keep)])
    kept_per_q = csum[off[1:]] - csum[off[:-1]]
    for i in np.nonzero((kept_per_q == 0) & (counts > 0))[0]:
        s, e = off[i], off[i + 1]
        keep[s + int(np.argmax(probs[s:e]))] = True
    return probs, keep


def mine_mask(
    sims_flat: NDArray[np.float64],
    s_pos: NDArray[np.float64],
    off: NDArray[np.int64],
    a: float,
    uniforms: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Bernoulli retention mask over ragged per-query candidate similarities.

    Candidate m of query i is kept when uniforms[m] < exp(-a * (sims[m] -
    s_pos[i])**2). A query whose candidates were all rejected keeps the
    single candidate with the largest probability (first on ties), so the
    retained set is nonempty whenever the candidate set is.
    """
    if a < 0.0:
        raise ValueError(f"a must be nonnegative, got {a}")
    sims_flat = np.ascontiguousarray(sims_flat, dtype=np.float64)
    s_pos = np.ascontiguousarray(s_pos, dtype=np.float64)
    off = np.ascontiguousarray(off, dtype=np.int64)
    uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
    if sims_flat.shape != uniforms.shape:
        raise ValueError("uniforms must align with sims_flat")
    return _mine_mask_numpy(sims_flat, s_pos, off, float(a), uniforms)


def mine_negatives(
    q1: np.ndarray,
    s_pos: float,
    candidates: np.ndarray,
    cfg: MiningConfig,
    rng: RngState,
    query_id: int = 0,
) -> MinedNegativeSet:
    """Bernoulli-select negatives for a single query.

    If every candidate is rejected, the one with the largest probability is
    retained instead (first index on ties), so the result is nonempty
    whenever ``candidates`` is.
    """
    q1 = np.asarray(q1, dtype=np.float64).reshape(-1)
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.size == 0:
        return MinedNegativeSet(query_id, np.empty(0, dtype=np.int64), np.empty(0))
    check_unit_rows(candidates, "candidates")
    sims = np.clip(candidates @ q1, -1.0, 1.0)
    off = np.array([0, len(sims)], dtype=np.int64)
    uniforms = rng.uniform(len(sims))
    probs, keep = mine_mask(sims, np.array([s_pos]), off, cfg.a, uniforms)
    return MinedNegativeSet(query_id, np.nonzero(keep)[0].astype(np.int64), probs)


def filter_csr(
    sims_flat: np.ndarray,
    s_pos: np.ndarray,
    off: np.ndarray,
    cfg: MiningConfig,
    rng: RngState,
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Mining mask over pre-computed ragged similarities (trainer hot path).

    One flat uniform block is drawn for the whole pool, indexed by candidate
    position; determinism and order-independence follow from the fixed
    layout. Returns (probs, keep) aligned with sims_flat.
    """
    uniforms = rng.uniform(int(np.asarray(sims_flat).shape[0]))
    return mine_mask(sims_flat, s_pos, off, cfg.a, uniforms)
