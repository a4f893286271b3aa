"""Synthetic cluster datasets, two-view augmentation, and dataset CSV I/O.

The generator draws class means on a sphere of configurable radius and
unit-variance Gaussian points around them. Labels are carried for probes
and diagnostics only; the training loop never sees them. Train and test
splits of the same seed share class means but use disjoint noise streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .numerics import RngState, check_field_types, l2_normalize_rows


class DataFormatError(ValueError):
    """A dataset file was malformed."""


@dataclass
class Dataset:
    features: NDArray[np.float64]
    labels: NDArray[np.int64]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be 2-d")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("one label per row required")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class AugmentPolicy:
    """Vector-space stand-ins for image augmentation: noise, dropout, scale."""

    sigma: float = 0.1
    dropout: float = 0.2
    scale_lo: float = 0.8
    scale_hi: float = 1.25

    def __post_init__(self):
        check_field_types(self)
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if not 0.0 < self.scale_lo <= self.scale_hi:
            raise ValueError("need 0 < scale_lo <= scale_hi")


def gen_clusters(
    classes: int,
    n_per_class: int,
    dim: int,
    separation: float,
    seed: int,
    split: str = "train",
) -> Dataset:
    """Gaussian blobs around class means placed on a sphere.

    The means depend only on (classes, dim, separation, seed); the sample
    noise additionally depends on ``split``, so "train" and "test" sets of
    the same seed are disjoint draws around identical means.
    """
    if classes < 2 or dim < 2:
        raise ValueError("need at least 2 classes and 2 dimensions")
    if n_per_class < 1:
        raise ValueError("n_per_class must be positive")
    if not (np.isfinite(separation) and separation > 0):
        raise ValueError("separation must be positive and finite")
    root = RngState(seed)
    means = l2_normalize_rows(root.split("means").normal((classes, dim)))
    means = means * separation
    feats = np.empty((classes * n_per_class, dim))
    labels = np.empty(classes * n_per_class, dtype=np.int64)
    for c in range(classes):
        noise = root.split("samples", split, c).normal((n_per_class, dim))
        feats[c * n_per_class : (c + 1) * n_per_class] = means[c] + noise
        labels[c * n_per_class : (c + 1) * n_per_class] = c
    return Dataset(features=feats, labels=labels)


def two_views(
    x: np.ndarray, policy: AugmentPolicy, rng: RngState
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Two independent stochastic views of a (B, d) batch of rows.

    Each view applies scale jitter, then feature dropout, then additive
    Gaussian noise, drawn from per-view substreams of ``rng``. The identity
    policy (sigma 0, dropout 0, scale [1, 1]) returns the input exactly.
    """
    batch = np.asarray(x, dtype=np.float64)

    def one_view(sub: RngState) -> np.ndarray:
        scale = policy.scale_lo + sub.uniform((batch.shape[0], 1)) * (
            policy.scale_hi - policy.scale_lo
        )
        keep = sub.uniform(batch.shape) >= policy.dropout
        noise = sub.normal(batch.shape)
        return batch * scale * keep + policy.sigma * noise

    return one_view(rng.split("view", 1)), one_view(rng.split("view", 2))


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Text form: header ``label,f0,...,f{d-1}``, floats via repr."""
    with open(path, "w", encoding="utf-8") as fh:
        cols = ",".join(f"f{j}" for j in range(dataset.dim))
        fh.write(f"label,{cols}\n")
        for label, row in zip(dataset.labels, dataset.features):
            vals = ",".join(map(repr, row.tolist()))
            fh.write(f"{int(label)},{vals}\n")


def load_csv(path: str | Path) -> Dataset:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise DataFormatError(f"{path}: bad header {lines[0]!r}")
    dim = len(header) - 1
    labels = []
    rows = []
    line_nos = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise DataFormatError(
                f"{path}: line {ln}: expected {dim + 1} fields, got {len(parts)}"
            )
        try:
            label = int(parts[0])
            rows.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {ln}: {exc}") from exc
        if label < 0:
            raise DataFormatError(f"{path}: line {ln}: negative label")
        if label >= 2**63:
            raise DataFormatError(f"{path}: line {ln}: label {label} does not fit int64")
        labels.append(label)
        line_nos.append(ln)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    features = np.array(rows, dtype=np.float64)
    bad = ~np.isfinite(features).all(axis=1)
    if bad.any():
        ln = line_nos[int(np.argmax(bad))]
        raise DataFormatError(f"{path}: line {ln}: non-finite feature value")
    return Dataset(features=features, labels=np.array(labels, dtype=np.int64))


def split_dataset(
    dataset: Dataset, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split into (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    perm = RngState(seed).split("data_split").permutation(dataset.n)
    n_test = max(1, int(round(dataset.n * test_fraction)))
    test_idx = perm[:n_test]
    train_idx = perm[n_test:]
    return (
        Dataset(dataset.features[train_idx], dataset.labels[train_idx]),
        Dataset(dataset.features[test_idx], dataset.labels[test_idx]),
    )
