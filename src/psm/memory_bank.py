"""FIFO embedding store with top-k cosine queries.

The bank stores detached unit-norm rows from the target branch, oldest
first, and nothing else: row i of its storage is the entry with enqueue
index i. Entries are value snapshots: mutating a batch after enqueue never
changes bank contents. Bank indices reported by queries refer to enqueue
order, 0 being the oldest entry currently stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from . import _binio
from .numerics import check_unit_rows, top_k_indices

_BANK_MAGIC = b"PSMB"
_BANK_VERSION = 1


@dataclass
class MinedNeighborSet:
    """Ordered neighbor list for one query.

    Index 0 of ``members`` is the query's own augmented view; indices 1..k
    hold bank entries sorted by descending similarity to that view.
    ``bank_indices`` aligns with members 1..k and ``sims[0]`` is exactly 1.
    """

    members: NDArray[np.float64]
    bank_indices: NDArray[np.int64]
    sims: NDArray[np.float64]


class MemoryBank:
    """Fixed-capacity FIFO store of normalized embeddings.

    Single writer; read-only queries may interleave freely between
    enqueues. Labels ride along for the purity diagnostic only and are
    never consulted by any loss path. Storage holds exactly the current
    entries, so a large capacity costs nothing until it is used.
    """

    def __init__(self, capacity: int, dim: int, with_labels: bool = False):
        if capacity < 1 or dim < 1:
            raise ValueError("capacity and dim must be positive")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self._buf = np.zeros((0, self.dim), dtype=np.float64)
        self._labels = np.zeros(0, dtype=np.int64) if with_labels else None

    def __len__(self) -> int:
        return self._buf.shape[0]

    @property
    def has_labels(self) -> bool:
        return self._labels is not None

    def entries(self) -> NDArray[np.float64]:
        """Copy of stored embeddings, oldest first."""
        return self._buf.copy()

    def labels(self) -> NDArray[np.int64]:
        if self._labels is None:
            raise ValueError("bank was created without labels")
        return self._labels.copy()

    def enqueue_batch(self, batch: np.ndarray, labels: np.ndarray | None = None) -> None:
        """Append rows, evicting the oldest entries when over capacity."""
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self.dim:
            raise ValueError(
                f"batch shape {batch.shape} does not match bank dim {self.dim}"
            )
        check_unit_rows(batch, "enqueued batch")
        if self._labels is not None:
            if labels is None:
                raise ValueError("bank stores labels; enqueue must supply them")
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (batch.shape[0],):
                raise ValueError("labels length does not match batch")
        elif labels is not None:
            raise ValueError("bank was created without labels")

        # keep the newest capacity - n old rows and the newest capacity new ones
        new = slice(max(0, batch.shape[0] - self.capacity), None)
        old = slice(max(0, len(self) + batch.shape[0] - self.capacity), None)
        self._buf = np.concatenate([self._buf[old], batch[new]])
        if self._labels is not None:
            self._labels = np.concatenate([self._labels[old], labels[new]])

    def labels_at(self, order_indices: np.ndarray) -> NDArray[np.int64]:
        """Labels for entries addressed in enqueue order."""
        if self._labels is None:
            raise ValueError("bank was created without labels")
        return self._labels[np.asarray(order_indices, dtype=np.int64)]

    def similarities(self, z2: np.ndarray) -> NDArray[np.float64]:
        """Cosine similarity of each query row to every entry, oldest first.

        Shape (B, len(bank)) for a (B, d) query block.
        """
        z2 = np.atleast_2d(np.asarray(z2, dtype=np.float64))
        sims = z2 @ self._buf.T
        return np.clip(sims, -1.0, 1.0, out=sims)


def query_topk(bank: MemoryBank, z2: np.ndarray, k: int) -> MinedNeighborSet:
    """Top-k most similar bank entries for one query view.

    Returns a set whose index 0 is ``z2`` itself with similarity exactly 1;
    a bank with fewer than k entries yields all of them, and an empty bank
    yields the singleton set.
    """
    z2 = np.asarray(z2, dtype=np.float64).reshape(-1)
    if z2.shape[0] != bank.dim:
        raise ValueError(f"query dim {z2.shape[0]} does not match bank dim {bank.dim}")
    members, idx, sims, _ = query_topk_batch(bank, z2[None, :], k)
    return MinedNeighborSet(members=members[0], bank_indices=idx[0], sims=sims[0])


def query_topk_batch(
    bank: MemoryBank, z2: np.ndarray, k: int
) -> tuple[NDArray[np.float64], NDArray[np.int64], NDArray[np.float64], int]:
    """Vectorized query_topk over a (B, d) block of views.

    All queries share k_eff = min(k, bank size). Returns (members, indices,
    sims, k_eff) shaped (B, k_eff+1, d), (B, k_eff), (B, k_eff+1). Ties
    rank the older entry (smaller enqueue index) first.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    z2 = np.asarray(z2, dtype=np.float64)
    bsz = z2.shape[0]
    k_eff = min(k, len(bank))
    members = np.empty((bsz, k_eff + 1, bank.dim), dtype=np.float64)
    members[:, 0, :] = z2
    sims_out = np.ones((bsz, k_eff + 1), dtype=np.float64)
    if k_eff == 0:
        return members, np.empty((bsz, 0), dtype=np.int64), sims_out, 0
    sims = bank.similarities(z2)
    idx = top_k_indices(sims, k_eff)
    members[:, 1:, :] = bank._buf[idx]
    sims_out[:, 1:] = np.take_along_axis(sims, idx, axis=1)
    return members, idx, sims_out, k_eff


def save_bank(bank: MemoryBank, path: str | Path) -> None:
    """Dump the bank to its binary format (entries oldest first)."""
    with open(path, "wb") as fh:
        _binio.write_magic(fh, _BANK_MAGIC, _BANK_VERSION)
        _binio.write_u64(fh, bank.capacity)
        _binio.write_u64(fh, len(bank))
        _binio.write_u64(fh, bank.dim)
        _binio.write_u8(fh, 1 if bank.has_labels else 0)
        _binio.write_f64_array(fh, bank.entries())
        if bank.has_labels:
            _binio.write_i64_array(fh, bank.labels())


def load_bank(path: str | Path) -> MemoryBank:
    with open(path, "rb") as fh:
        version = _binio.read_magic(fh, _BANK_MAGIC)
        if version != _BANK_VERSION:
            raise _binio.FormatError(f"unsupported bank version {version}")
        capacity = _binio.read_u64(fh)
        count = _binio.read_u64(fh)
        dim = _binio.read_u64(fh)
        has_labels = _binio.read_flag(fh)
        if capacity < 1 or dim < 1:
            raise _binio.FormatError("bank capacity and dim must be positive")
        if count > capacity:
            raise _binio.FormatError("count exceeds capacity")
        entries = _binio.read_f64_array(fh, (count, dim))
        try:
            check_unit_rows(entries, "bank")
        except ValueError as exc:
            raise _binio.FormatError(str(exc)) from None
        labels = _binio.read_i64_array(fh, (count,)) if has_labels else None
        _binio.expect_eof(fh, "bank")
    bank = MemoryBank(capacity, dim, with_labels=has_labels)
    if count:
        bank.enqueue_batch(entries, labels)
    return bank
