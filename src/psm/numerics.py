"""Core numeric helpers shared by every module.

Everything here is double precision and pure: identical inputs (including
RNG state) give bit-identical outputs. Embedding matrices are plain
``(rows, d)`` float64 arrays in row-major order; a row is one sample.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.typing import NDArray

EmbeddingMatrix = NDArray[np.float64]

_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Below this norm the squares of a row's entries can be subnormal, which
# costs precision, or flush to zero; such rows are rescaled before squaring.
_TINY_NORM = 1e-100


def l2_normalize_rows(
    m: EmbeddingMatrix, *, return_flags: bool = False
) -> EmbeddingMatrix | tuple[EmbeddingMatrix, NDArray[np.bool_]]:
    """Scale every nonzero row of ``m`` to unit Euclidean norm.

    Zero-norm rows are left as zeros rather than raising, so a degenerate
    augmentation cannot abort a run mid-epoch. Callers that care receive
    the per-row zero mask via ``return_flags=True``. Rows whose norm is
    tiny are divided by their largest magnitude first, so squaring their
    entries cannot underflow; every other row takes the direct path.

    Args:
        m: matrix of shape (rows, d).
        return_flags: when true, also return a boolean mask of zero rows.

    Returns:
        The normalized matrix, or ``(normalized, zero_mask)``.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))
    tiny = norms < _TINY_NORM
    if np.any(tiny):
        m = m.copy()
        scale = np.abs(m[tiny]).max(axis=1, initial=0.0)
        m[tiny] /= np.where(scale == 0.0, 1.0, scale)[:, None]
        norms[tiny] = np.sqrt(np.einsum("ij,ij->i", m[tiny], m[tiny]))
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    out = m / safe[:, None]
    if return_flags:
        return out, zero
    return out


def softmax(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """Stable softmax of a nonempty finite score vector.

    Computed with max subtraction; the output is positive and sums to 1
    within 1e-12. Adding a constant to all scores leaves it unchanged.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("softmax needs a nonempty 1-d vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("softmax input must be finite")
    e = np.exp(v - v.max())
    return e / e.sum()


def top_k_indices(scores: NDArray[np.float64], k: int) -> NDArray[np.int64]:
    """Indices of the ``min(k, n)`` largest scores of each row, descending.

    ``scores`` is one row of n scores or a (rows, n) matrix; the result has
    the same number of dimensions. The answer equals the first k columns
    of ``np.argsort(-scores, kind="stable")``: ties go to the smaller
    index, also where they straddle the k-th place, and NaN ranks last.
    Only the k survivors of a partial selection are sorted.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim not in (1, 2):
        raise ValueError("scores must be 1-d or 2-d")
    neg = -np.atleast_2d(scores)
    rows, n = neg.shape
    kk = min(k, n)
    if kk == 0:
        idx = np.empty((rows, 0), dtype=np.int64)
    else:
        idx = np.argpartition(neg, kk - 1, axis=1)[:, :kk]
        kth = np.take_along_axis(neg, idx[:, kk - 1 : kk], axis=1)
        # The partition picks an arbitrary subset of the entries that tie
        # at the k-th value; rows where such ties straddle the cut, or
        # where that value is NaN, are redone by rank of index.
        redo = np.isnan(kth[:, 0]) | ((neg <= kth).sum(axis=1) > kk)
        for r in np.flatnonzero(redo):
            idx[r] = _exact_survivors(neg[r], kth[r, 0], kk)
        idx = np.sort(idx, axis=1)
        order = np.argsort(np.take_along_axis(neg, idx, axis=1), axis=1, kind="stable")
        idx = np.take_along_axis(idx, order, axis=1).astype(np.int64, copy=False)
    return idx[0] if scores.ndim == 1 else idx


def _exact_survivors(neg: np.ndarray, kth: float, kk: int) -> NDArray[np.intp]:
    """The kk smallest of ``neg`` (NaN largest), smaller index first on ties."""
    if np.isnan(kth):
        below, tied = ~np.isnan(neg), np.isnan(neg)
    else:
        below, tied = neg < kth, neg == kth
    ahead = np.flatnonzero(below)
    return np.concatenate([ahead, np.flatnonzero(tied)[: kk - ahead.size]])


def check_unit_rows(m: np.ndarray, what: str, tol: float = 1e-6) -> None:
    """Raise unless every row of ``m`` has norm 1 (within tol) or exactly 0."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", np.atleast_2d(m), np.atleast_2d(m)))
    bad = ~(np.abs(norms - 1.0) <= tol) & ~(norms == 0.0)
    if np.any(bad):
        worst = float(norms[bad][0])
        raise ValueError(f"{what} must hold unit rows; found norm {worst:.6g}")


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _U64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return (z ^ (z >> 31)) & _U64


def _mix_tag(h: int, tag: int | str) -> int:
    # Domain-separate ints from strings so split(1) != split("1").
    if isinstance(tag, bool):
        raise TypeError("bool tags are ambiguous; use int or str")
    if isinstance(tag, (int, np.integer)):
        h = _splitmix64(h ^ 0x1)
        h = _splitmix64(h ^ (int(tag) & _U64))
    elif isinstance(tag, str):
        digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
        h = _splitmix64(h ^ 0x2)
        h = _splitmix64(h ^ int.from_bytes(digest, "little"))
    else:
        raise TypeError(f"unsupported tag type {type(tag).__name__}")
    return h


class RngState:
    """Deterministic, splittable random source built on counter-based Philox.

    A state is identified by a 64-bit seed plus the path of tags used to
    derive it. ``split`` mixes its tags into a fresh 128-bit Philox key, so
    substreams are independent and the draw order inside one substream
    never affects any other. Never share one instance across threads;
    derive one substream per unit of work instead.
    """

    __slots__ = ("seed", "_key", "_gen")

    def __init__(self, seed: int, _key: tuple[int, int] | None = None):
        self.seed = int(seed)
        if _key is None:
            w0 = _splitmix64(self.seed & _U64)
            w1 = _splitmix64(w0)
            _key = (w0, w1)
        self._key = _key
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array(_key, dtype=np.uint64))
        )

    def split(self, *tags: int | str) -> "RngState":
        """Derive an independent substream keyed by ``tags``."""
        if not tags:
            raise ValueError("split needs at least one tag")
        h0, h1 = self._key
        for tag in tags:
            h0 = _mix_tag(h0, tag)
        h1 = _splitmix64(h1 ^ h0)
        return RngState(self.seed, _key=(h0, h1))

    def uniform(self, size: int | tuple[int, ...] | None = None):
        return self._gen.random(size)

    def normal(self, size: int | tuple[int, ...] | None = None):
        return self._gen.standard_normal(size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> NDArray[np.int64]:
        return self._gen.permutation(n).astype(np.int64)

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, key={self._key})"

