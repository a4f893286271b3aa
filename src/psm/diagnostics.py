"""Analysis instruments: mining purity, gradient-vs-rank profiles, probes.

These run on the artifact's own embeddings and banks. Purity asks how many
mined neighbors share the query's held-out label; the gradient profile
measures how strongly each similarity rank of the bank would pull on a
query under the binary cross-entropy coefficient; the probes score frozen
embeddings with kNN or a small logistic head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .numerics import check_unit_rows, softmax, top_k_indices

# Query rows per block of knn_probe and gradient_profile. The block splits
# the similarity product as well as the selection, so a call holds one
# (32, n) slice of similarities whatever the number of queries. BLAS may
# round a row in the last bit otherwise in a product of another shape, so
# a new block size can move an output in its last digit.
_KNN_BLOCK = 32


def purity(mined_labels: np.ndarray, query_labels: np.ndarray) -> tuple[float, float]:
    """Top-1 and top-k neighbor purity of one batch of mined labels.

    Row i of the (B, k) ``mined_labels``, k >= 1, lists the labels mined for
    query i, nearest first; the augmented view is not among them. Returns
    the share of queries whose nearest neighbor shares their label and the
    share of all B * k mined labels that match their query's label.
    """
    mined = np.asarray(mined_labels)
    query_labels = np.asarray(query_labels).reshape(-1)
    if mined.ndim != 2 or mined.shape[1] == 0 or len(mined) != len(query_labels):
        raise ValueError(
            f"mined labels {mined.shape} do not fit {len(query_labels)} queries"
        )
    top1 = float(np.mean(mined[:, 0] == query_labels))
    return top1, float(np.mean(mined == query_labels[:, None]))


def bce_gradient_coefficient(s):
    """Pairwise-BCE gradient coefficient of a negative at similarity s.

    On [0, 1]-mapped similarities a negative contributes s (a positive
    would contribute s - 1), so dissimilar negatives (s near 0) are
    uninformative.
    """
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 0.0) or np.any(s > 1.0):
        raise ValueError("similarity must lie in [0, 1] for this analysis")
    return s


@dataclass
class GradientProfile:
    """Rank-indexed gradient statistics, each curve scaled to max 1."""

    mean_norm: NDArray[np.float64]
    var_norm: NDArray[np.float64]
    mean_positive_rank: float
    rank_depth: int


def _normalize_curve(curve: np.ndarray) -> np.ndarray:
    top = curve.max() if curve.size else 0.0
    if top <= 0.0:
        return np.ones_like(curve)
    return curve / top


def gradient_profile(
    queries: np.ndarray, positives: np.ndarray, bank: np.ndarray, rank_depth: int = 200
) -> GradientProfile:
    """Mean/variance of the per-negative gradient magnitude by similarity rank.

    ``bank`` holds the (n, d) unit rows to rank. For each query they are
    ranked by descending cosine similarity; the row at rank r contributes
    the magnitude of its BCE coefficient (negative branch, similarity
    remapped to [0, 1]) times the unit norm of d(s)/d(query). Curves are
    the across-query mean and variance per rank, each divided by its own
    maximum; a curve that is identically zero normalizes to all ones. The
    positive rank is where each query's own view would slot into that
    ranking, 1-based, averaged.
    """
    if rank_depth < 1:
        raise ValueError("rank_depth must be positive")
    bank = np.asarray(bank, dtype=np.float64)
    check_unit_rows(bank, "bank")
    if len(bank) < rank_depth:
        raise ValueError(
            f"bank holds {len(bank)} entries; profile needs at least {rank_depth}"
        )
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    positives = np.atleast_2d(np.asarray(positives, dtype=np.float64))
    if positives.shape != queries.shape:
        raise ValueError("queries and positives must align")
    if len(queries) == 0:
        raise ValueError("gradient profile needs at least one query")
    check_unit_rows(queries, "queries")
    check_unit_rows(positives, "positives")
    s_pos = np.einsum("ij,ij->i", queries, positives)
    ranked = np.empty((len(queries), rank_depth))
    pos_rank = np.empty(len(queries))
    for start in range(0, len(queries), _KNN_BLOCK):
        block = slice(start, start + _KNN_BLOCK)
        sims = queries[block] @ bank.T
        np.clip(sims, -1.0, 1.0, out=sims)
        pos_rank[block] = 1.0 + (sims > s_pos[block, None]).sum(axis=1)
        np.negative(sims, out=sims)
        sims.partition(rank_depth - 1, axis=1)
        ranked[block] = -np.sort(sims[:, :rank_depth], axis=1)
    # statistic per (query, rank): |coefficient| * ||d s / d q|| with the
    # derivative of a dot product against a unit bank row having norm 1
    stats = bce_gradient_coefficient((ranked + 1.0) / 2.0)
    mean_curve = stats.mean(axis=0)
    var_curve = stats.var(axis=0)
    return GradientProfile(
        mean_norm=_normalize_curve(mean_curve),
        var_norm=_normalize_curve(var_curve),
        mean_positive_rank=float(pos_rank.mean()),
        rank_depth=rank_depth,
    )


def knn_probe(
    train_emb: np.ndarray,
    train_labels: np.ndarray,
    test_emb: np.ndarray,
    test_labels: np.ndarray,
    k_nn: int = 20,
) -> float:
    """Majority vote over the k_nn most cosine-similar training rows.

    Vote ties resolve to the smallest label. Expects normalized embeddings.
    """
    train_emb = np.asarray(train_emb, dtype=np.float64)
    test_emb = np.asarray(test_emb, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    if train_emb.shape[0] == 0:
        raise ValueError("empty train set")
    if test_emb.shape[0] == 0:
        raise ValueError("empty test set")
    if k_nn < 1:
        raise ValueError("k_nn must be at least 1")
    if train_labels.min() < 0:
        raise ValueError("kNN probe labels must be nonnegative")
    k = min(k_nn, train_emb.shape[0])
    # votes count on the codes of the sorted distinct labels, so counts grow
    # with the number of classes, not with the largest label
    classes, codes = np.unique(train_labels, return_inverse=True)
    n_classes = len(classes)
    correct = 0
    for start in range(0, test_emb.shape[0], _KNN_BLOCK):
        block = slice(start, start + _KNN_BLOCK)
        votes = codes[top_k_indices(test_emb[block] @ train_emb.T, k)]
        rows = votes.shape[0]
        # per-row code counts via one bincount over (row, code) cells; argmax
        # takes the first maximum, so vote ties go to the smallest label
        cells = (np.arange(rows)[:, None] * n_classes + votes).ravel()
        counts = np.bincount(cells, minlength=rows * n_classes).reshape(rows, n_classes)
        predicted = classes[counts.argmax(axis=1)]
        correct += int(np.count_nonzero(predicted == test_labels[block]))
    return correct / test_emb.shape[0]


def linear_probe_k(train_labels: np.ndarray, test_labels: np.ndarray) -> int:
    """linear_probe's top-k: 5, or fewer if both splits together hold fewer classes."""
    return min(5, len(np.union1d(train_labels, test_labels)))


def linear_probe(
    train_emb: np.ndarray,
    train_labels: np.ndarray,
    test_emb: np.ndarray,
    test_labels: np.ndarray,
) -> tuple[float, float]:
    """Multinomial logistic head on frozen embeddings: 100 full-batch GD steps of size 1.

    Returns (top-1 accuracy, top-k accuracy) on the test rows, with k from
    linear_probe_k.
    """
    train_emb = np.asarray(train_emb, dtype=np.float64)
    test_emb = np.asarray(test_emb, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    if train_emb.shape[0] == 0 or test_emb.shape[0] == 0:
        raise ValueError("probe needs nonempty train and test sets")
    n, d = train_emb.shape
    # one class per distinct label of either split, fitted on its code
    both = np.concatenate([train_labels, test_labels])
    classes, codes = np.unique(both, return_inverse=True)
    train_codes, test_codes = codes[:n], codes[n:]
    w = np.zeros((len(classes), d))
    b = np.zeros(len(classes))
    onehot = np.zeros((n, len(classes)))
    onehot[np.arange(n), train_codes] = 1.0
    for _ in range(100):
        g = (softmax(train_emb @ w.T + b) - onehot) / n
        w -= g.T @ train_emb
        b -= g.sum(axis=0)
    logits = test_emb @ w.T + b
    order = top_k_indices(logits, linear_probe_k(train_labels, test_labels))
    top1 = float(np.mean(order[:, 0] == test_codes))
    topk = float(np.mean((order == test_codes[:, None]).any(axis=1)))
    return top1, topk

