"""Correctness checks computed apart from the program.

Each check takes the program's answer and returns a list of problems, empty
when the answer is right. A check recomputes the answer by brute force, or
tests a property the method must have; none compares with a stored output.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# Answers recomputed here agree with the program's to round-off only.
TOL = 1e-9


def ranked(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, best first; ties go to the smaller index."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((np.arange(scores.size), -scores))
    return order[:k]


def canonical_sims(queries: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Query-by-row dot products in which identical rows get identical values.

    The tie rule can only be judged when duplicate rows tie exactly, so the
    similarity of each distinct row is computed once and shared.
    """
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    return (np.asarray(queries) @ uniq.T)[:, inverse.reshape(-1)]


def check_knn_vote(
    train_emb, train_labels, test_emb, test_labels, k_nn: int, reported: float
) -> list[str]:
    """Brute-force cosine kNN vote; vote ties go to the smallest label."""
    train_labels = np.asarray(train_labels)
    sims = np.asarray(test_emb) @ np.asarray(train_emb).T
    k = min(k_nn, len(train_labels))
    correct = 0
    for i, want in enumerate(np.asarray(test_labels)):
        votes = Counter(train_labels[ranked(sims[i], k)].tolist())
        top = max(votes.values())
        correct += min(lab for lab, n in votes.items() if n == top) == want
    expected = correct / len(test_labels)
    if reported is None or abs(reported - expected) > TOL:
        return [f"kNN accuracy {reported!r}, brute-force vote gives {expected!r}"]
    return []


def check_topk(
    rows: np.ndarray,
    queries: np.ndarray,
    k: int,
    indices: list[list[int]],
    sims: list[list[float]],
) -> list[str]:
    """Each query's reported neighbours are its k best rows, smaller index first on ties."""
    if len(indices) != len(queries) or len(sims) != len(queries):
        return [f"{len(indices)} neighbour lists for {len(queries)} queries"]
    all_sims = canonical_sims(queries, rows)
    problems = []
    for i, (got, got_s) in enumerate(zip(indices, sims)):
        want = ranked(all_sims[i], min(k, len(rows))).tolist()
        if list(got) != want:
            problems.append(f"query {i}: top-{k} {list(got)}, expected {want}")
        elif np.max(np.abs(np.asarray(got_s) - all_sims[i, want]), initial=0.0) > TOL:
            problems.append(f"query {i}: reported similarities are off")
    return problems


def check_mined_negatives(
    rows: np.ndarray,
    queries: np.ndarray,
    a: float,
    mined: list[tuple[int, list[int], list[float]]],
) -> list[str]:
    """Anchor, retention probabilities and kept counts of negative mining.

    The anchor is the most similar row (smaller index on ties). Every
    printed probability must equal exp(-a (s - s_anchor)^2), every kept set
    must be non-empty, and the total kept count must lie within six standard
    deviations of the sum of all candidates' probabilities (plus one for
    rounding), as independent Bernoulli draws give.
    """
    if len(mined) != len(queries):
        return [f"{len(mined)} mined sets for {len(queries)} queries"]
    all_sims = canonical_sims(queries, rows)
    problems = []
    kept_total, mean, var = 0, 0.0, 0.0
    for i, (anchor, kept, probs) in enumerate(mined):
        s = all_sims[i]
        want_anchor = int(ranked(s, 1)[0])
        if anchor != want_anchor:
            problems.append(f"query {i}: anchor {anchor}, expected {want_anchor}")
            continue
        kept = np.asarray(kept, dtype=np.int64)
        if kept.size == 0:
            problems.append(f"query {i}: kept set is empty")
            continue
        if (
            len(set(kept.tolist())) != kept.size
            or kept.min() < 0
            or kept.max() >= len(rows)
            or anchor in kept
        ):
            problems.append(f"query {i}: kept indices are not distinct non-anchor rows")
            continue
        expect = np.exp(-a * (s[kept] - s[anchor]) ** 2)
        if len(probs) != kept.size or np.max(np.abs(expect - np.asarray(probs))) > TOL:
            problems.append(f"query {i}: probabilities differ from exp(-a (s - s_anchor)^2)")
        p_all = np.exp(-a * (np.delete(s, anchor) - s[anchor]) ** 2)
        kept_total += kept.size
        mean += float(p_all.sum())
        var += float((p_all * (1.0 - p_all)).sum())
    if abs(kept_total - mean) > 6.0 * math.sqrt(var) + 1.0:
        problems.append(
            f"kept {kept_total} negatives in total, expected {mean:.1f} "
            f"+- {6.0 * math.sqrt(var):.1f}"
        )
    return problems


def check_positive_rank(
    queries: np.ndarray, positives: np.ndarray, bank_rows: np.ndarray, reported: float
) -> list[str]:
    """Mean 1-based rank of each query's positive among the bank rows."""
    ranks = []
    for q, p in zip(queries, positives):
        s_pos = float(q @ p)
        ranks.append(1 + int(np.count_nonzero(bank_rows @ q > s_pos)))
    expected = float(np.mean(ranks))
    if reported is None or abs(reported - expected) > TOL:
        return [f"mean positive rank {reported!r}, brute force gives {expected!r}"]
    return []


def check_replay_purity(
    batches: list[tuple[np.ndarray, np.ndarray]], capacity: int, k: int, reported: float
) -> list[str]:
    """Mean neighbour purity of one epoch mined against a FIFO of past batches.

    ``batches`` holds each step's (embeddings, labels) in order. A step's
    queries are mined against the last ``capacity`` rows of earlier steps;
    steps with an empty bank are skipped.
    """
    past_rows: list[np.ndarray] = []
    past_labels: list[np.ndarray] = []
    per_step = []
    for emb, labels in batches:
        if past_rows:
            bank = np.concatenate(past_rows)[-capacity:]
            bank_labels = np.concatenate(past_labels)[-capacity:]
            kk = min(k, len(bank))
            sims = canonical_sims(emb, bank)
            per_query = [
                np.mean(bank_labels[ranked(sims[i], kk)] == labels[i])
                for i in range(len(labels))
            ]
            per_step.append(np.mean(per_query))
        past_rows.append(emb)
        past_labels.append(labels)
    expected = float(np.mean(per_step)) if per_step else float("nan")
    if reported is None or not abs(reported - expected) <= TOL:
        return [f"mean purity {reported!r}, replay gives {expected!r}"]
    return []


def check_linear_probe(top1: float, topk: float) -> list[str]:
    if top1 is None or topk is None or not 0.0 <= top1 <= topk <= 1.0:
        return [f"linear probe top-1 {top1!r} and top-k {topk!r} violate 0 <= top1 <= topk <= 1"]
    return []


def check_epoch_rows(
    rows: list[dict], lam: float | None, retained: tuple[float, float]
) -> list[str]:
    """Per-epoch metric rows of a training run.

    With ``lam`` given (the PSM pipeline) the total loss must equal
    soft + lam * hard. Every loss is finite, purity lies in [0, 1], and the
    mean retained negative count lies between ``retained`` bounds.
    """
    problems = []
    lo, hi = retained
    for row in rows:
        e = row["epoch"]
        losses = ["loss_total"] + (["loss_soft", "loss_hard"] if lam is not None else [])
        if not all(row[n] is not None and math.isfinite(row[n]) for n in losses):
            problems.append(f"epoch {e}: non-finite loss")
            continue
        if lam is not None:
            want = row["loss_soft"] + lam * row["loss_hard"]
            if abs(row["loss_total"] - want) > TOL * max(1.0, abs(want)):
                problems.append(f"epoch {e}: loss_total != loss_soft + lambda * loss_hard")
        for name in ("purity_top1", "purity_topk"):
            if row[name] is not None and not 0.0 <= row[name] <= 1.0:
                problems.append(f"epoch {e}: {name} {row[name]!r} outside [0, 1]")
        if not lo <= row["neg_retained_mean"] <= hi:
            problems.append(
                f"epoch {e}: neg_retained_mean {row['neg_retained_mean']!r} outside [{lo}, {hi}]"
            )
    return problems
