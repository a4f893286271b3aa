"""Core numeric helpers shared by every module.

Everything here is double precision and pure: identical inputs (including
RNG state) give bit-identical outputs. Embedding matrices are plain
``(rows, d)`` float64 arrays in row-major order; a row is one sample.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
from numpy.typing import NDArray

EmbeddingMatrix = NDArray[np.float64]

_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Below this norm the squares of a row's entries can be subnormal, which
# costs precision, or flush to zero; such rows are rescaled before squaring.
_TINY_NORM = 1e-100

# top_k_indices' floor pass splits a row of n scores into n // 32 strided
# groups, but never fewer than 4 per wanted index: the floor is then the
# k-th largest of at least 4k group maxima, not the smallest of only k,
# which would admit most of a narrow row. Rows of at most 32 scores are
# sorted whole.
_TOPK_GROUP_COLS = 32
_TOPK_GROUPS_PER_K = 4


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


def softmax(scores: NDArray[np.float64]) -> NDArray[np.float64]:
    """Row-wise stable softmax of a finite (rows, n) score matrix, n >= 1.

    Each row is shifted by its own maximum before exponentiating; every
    output row is positive and sums to 1 within 1e-12, and adding a
    constant to a row leaves that row unchanged.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] == 0:
        raise ValueError(f"softmax needs a (rows, n >= 1) matrix, got {scores.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("softmax input must be finite")
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def top_k_indices(scores: NDArray[np.float64], k: int) -> NDArray[np.int64]:
    """Indices of the ``min(k, n)`` largest scores of each row, descending.

    ``scores`` is one row of n scores or a (rows, n) matrix; the result has
    the same number of dimensions. The answer equals the first k columns
    of ``np.argsort(-scores, kind="stable")``: ties go to the smaller
    index, also where they straddle the k-th place, and NaN ranks last.
    One pass over strided column groups sets a floor that at least k
    scores reach; only the scores at or above it are sorted. Rows of at
    most 32 scores are sorted whole.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim not in (1, 2):
        raise ValueError("scores must be 1-d or 2-d")
    s = np.ascontiguousarray(np.atleast_2d(scores))
    rows, n = s.shape
    kk = min(k, n)
    idx = np.empty((rows, kk), dtype=np.int64)
    if n <= _TOPK_GROUP_COLS:
        idx[:] = np.argsort(-s, axis=1, kind="stable")[:, :kk]
    elif kk:
        # Column j, j + g, j + 2g, ... form group j; the tail columns past
        # the last full stride fold into the first groups. Each of the kk
        # largest group maxima is some score, so at least kk scores reach
        # the floor, and with them every score of the top kk and every
        # score tied with the kk-th.
        g = min(n, max(_TOPK_GROUPS_PER_K * kk, n // _TOPK_GROUP_COLS))
        full = n // g * g
        gmax = s[:, :full].reshape(rows, full // g, g).max(axis=1)
        np.maximum(gmax[:, : n - full], s[:, full:], out=gmax[:, : n - full])
        floor = -np.partition(-gmax, kk - 1, axis=1)[:, kk - 1]
        row, col = np.divmod(np.flatnonzero(s >= floor[:, None]), n)
        order = np.lexsort((col, -s[row, col], row))
        counts = np.bincount(row, minlength=rows)
        ok = counts >= kk
        first = (np.cumsum(counts) - counts)[ok]
        idx[ok] = col[order[first[:, None] + np.arange(kk)]]
        # a floor of NaN (fewer than kk groups free of NaN) admits nothing
        for r in np.flatnonzero(~ok):
            idx[r] = np.argsort(-s[r], kind="stable")[:kk]
    return idx[0] if scores.ndim == 1 else idx


def check_field_types(obj) -> None:
    """Raise ValueError unless each dataclass field of ``obj`` has its default's type.

    Bools are bools, ints are non-bool ints, floats are ints or finite floats
    and tuples are nonempty tuples of positive ints.
    """
    for f in dataclasses.fields(obj):
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        value, kind = getattr(obj, f.name), type(default)
        is_int = isinstance(value, int) and not isinstance(value, bool)
        if kind is bool:
            ok = isinstance(value, bool)
        elif kind is int:
            ok = is_int
        elif kind is float:
            ok = is_int or (isinstance(value, float) and math.isfinite(value))
        elif kind is tuple:
            ok = isinstance(value, tuple) and len(value) > 0
            ok = ok and all(type(w) is int and w > 0 for w in value)
        else:
            ok = isinstance(value, kind)
        if not ok:
            raise ValueError(f"{f.name}={value!r} is not a valid {kind.__name__}")


def check_unit_rows(m: np.ndarray, what: str) -> None:
    """Raise unless every row of ``m`` has norm 1 (within 1e-6) or exactly 0."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", np.atleast_2d(m), np.atleast_2d(m)))
    bad = ~(np.abs(norms - 1.0) <= 1e-6) & ~(norms == 0.0)
    if np.any(bad):
        row = int(np.argmax(bad))
        raise ValueError(
            f"{what} must hold unit rows; found norm {norms[row]:.6g} in row {row}"
        )


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

