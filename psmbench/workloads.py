"""The benchmark's workloads: inputs made from a seed, rounds of operations, checks.

A workload is set up once per measurement (its inputs are a pure function
of the seed) and then runs whole rounds of the same operations:

* ``desk``: one ``pretrain`` of the full PSM pipeline per round; an
  operation is one training step.
* ``baseline``: one ``pretrain`` of the symmetric InfoNCE baseline with
  negative mining per round; an operation is one training step.
* ``analyse``: six read-only CLI calls per round against a checkpoint, a
  bank and a query CSV written during set-up; an operation is one call.

Rounds of one run are identical, so every round after the first must
reproduce the first round's outputs exactly; the first round's outputs are
checked in full against answers computed apart from the program. Between
rounds, outside the timed part, ``settle`` reduces a round's output to
what the checks need.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from psm import cli
from psm.data import Dataset, gen_clusters, save_csv
from psm.memory_bank import MemoryBank, save_bank
from psm.network import (
    NetworkConfig,
    OptimizerState,
    embed,
    forward_online,
    forward_target,
    init_params,
    save_checkpoint,
)
from psm.numerics import RngState
from psm.trainer import TrainConfig, pretrain

import checks
from spans import ROOT_CLI, ROOT_TRAINER


@dataclass(frozen=True)
class Sizes:
    """Input shapes; the defaults are the reference desk run's."""

    classes: int = 4
    dim: int = 32
    n_per_class: int = 512
    separation: float = 2.0
    batch: int = 64
    bank: int = 2048
    k: int = 5
    epochs: int = 10
    warmup: int = 2
    queries: int = 512
    bank_dim: int = 64
    tied_queries: int = 64
    a: float = 0.5
    k_nn: int = 20
    rank_depth: int = 200

    @property
    def synthetic(self) -> str:
        return f"c{self.classes},d{self.dim},n{self.n_per_class},sep{self.separation:g}"


# Small enough for the benchmark's own tests to run every workload in seconds.
TINY = Sizes(
    classes=3,
    dim=8,
    n_per_class=32,
    batch=8,
    bank=32,
    k=3,
    epochs=2,
    warmup=1,
    queries=12,
    bank_dim=16,
    tied_queries=4,
    rank_depth=20,
)


@dataclass
class Outcome:
    """What one round produced: failed operation count and its output."""

    failed: int
    output: object = None
    error: str = ""


def synthetic_split(sizes: Sizes, seed: int) -> tuple[Dataset, Dataset]:
    """The train/test pair the CLI generates for ``--synthetic`` at this seed."""
    kw = dict(
        classes=sizes.classes, dim=sizes.dim, separation=sizes.separation, seed=seed
    )
    train = gen_clusters(n_per_class=sizes.n_per_class, split="train", **kw)
    test = gen_clusters(n_per_class=max(1, sizes.n_per_class // 4), split="test", **kw)
    return train, test


class Training:
    """``pretrain`` once per round: the PSM pipeline, or the baseline."""

    def __init__(self, sizes: Sizes, baseline: bool):
        self.sizes = sizes
        self.baseline = baseline

    def setup(self, seed: int, workdir: Path) -> None:
        s = self.sizes
        self.train, self.test = synthetic_split(s, seed)
        self.cfg = TrainConfig(
            batch_size=s.batch,
            k=s.k,
            a=s.a,
            bank_capacity=s.bank,
            epochs=s.epochs,
            warmup_epochs=s.warmup,
            seed=seed,
            baseline=self.baseline,
            use_pnsm=True,
            probe_knn=s.k_nn,
        )

    @property
    def ops_per_round(self) -> int:
        return self.cfg.epochs * (self.train.n // self.cfg.batch_size)

    def run_round(self, call) -> Outcome:
        try:
            art = call(ROOT_TRAINER, pretrain, self.cfg, self.train, self.test)
        except Exception:  # a failed step ends the round; count it, keep running
            return Outcome(self.ops_per_round, error=traceback.format_exc())
        return Outcome(0, art)

    def retained_bounds(self) -> tuple[float, float]:
        """Fallback floor of one negative per pool, up to the full pools."""
        b, k = self.cfg.batch_size, self.cfg.k
        if self.baseline:
            return 1.0, 2 * b - 2
        return 2.0, (2 * b - 2) + (b - 1) * (k + 1)

    def check(self, outcomes: list[Outcome]) -> list[str]:
        done = [o.output for o in outcomes if o.output is not None]
        if not done:
            return ["no round completed"]
        art = done[0]
        problems = checks.check_epoch_rows(
            art.metrics, None if self.baseline else self.cfg.lam, self.retained_bounds()
        )
        if not self.baseline and any(r["purity_top1"] is None for r in art.metrics):
            problems.append("an epoch of the PSM pipeline reported no purity")
        problems += checks.check_knn_vote(
            embed(art.params, self.train.features),
            self.train.labels,
            embed(art.params, self.test.features),
            self.test.labels,
            self.cfg.probe_knn,
            art.final_knn,
        )
        for other in done[1:]:
            if other.metrics != art.metrics or other.final_knn != art.final_knn:
                problems.append("a rerun of the same configuration gave other metrics")
                break
        return problems

    def settle(self, outcome: Outcome, first: bool) -> None:
        """The run's artifacts are small; every round keeps them whole."""

    def knn_acc(self, outcomes: list[Outcome]) -> float:
        return next(o.output.final_knn for o in outcomes if o.output is not None)


def _unit(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def bank_inputs(seed: int, sizes: Sizes):
    """Clustered unit bank rows with duplicates, and unit queries near them.

    For each of the first ``tied_queries`` queries, a copy of its k-th
    nearest row is inserted at a random place, so that the k-th and
    (k+1)-th neighbours tie exactly and the smaller enqueue index must win.
    Returns (rows, row labels, queries).
    """
    rng = np.random.default_rng([seed, 2])
    n_unique = sizes.bank - sizes.tied_queries
    centers = _unit(rng.normal(size=(sizes.classes, sizes.bank_dim)))
    labels = rng.integers(0, sizes.classes, size=n_unique)
    rows = _unit(centers[labels] + 0.15 * rng.normal(size=(n_unique, sizes.bank_dim)))
    q_labels = rng.integers(0, sizes.classes, size=sizes.queries)
    queries = _unit(
        centers[q_labels] + 0.15 * rng.normal(size=(sizes.queries, sizes.bank_dim))
    )
    sims = queries[: sizes.tied_queries] @ rows.T
    kth = [int(checks.ranked(s, sizes.k)[-1]) for s in sims]
    where = rng.integers(0, n_unique + 1, size=sizes.tied_queries)
    rows = np.insert(rows, where, rows[kth], axis=0)
    labels = np.insert(labels, where, labels[kth])
    return rows, labels, queries


def straddling_ties(rows: np.ndarray, queries: np.ndarray, k: int) -> int:
    """Queries whose k-th and (k+1)-th best rows have the same similarity."""
    sims = checks.canonical_sims(queries, rows)
    top = -np.sort(-sims, axis=1)
    return int(np.count_nonzero(top[:, k - 1] == top[:, k]))


_FLOAT = r"([-+0-9.eE]+|nan|inf)"


def _value(text: str, key: str) -> float | None:
    m = re.search(rf"^{re.escape(key)}={_FLOAT}$", text, re.MULTILINE)
    return float(m.group(1)) if m else None


def _int_list(field: str) -> list[int]:
    return [int(v) for v in field.split(",")] if field else []


def _float_list(field: str) -> list[float]:
    return [float(v) for v in field.split(",")] if field else []


class _Capture(io.TextIOBase):
    """Standard output kept as the list of written pieces.

    ``mine --mode negative`` prints about 20 MB per call; appending the
    pieces costs far less, and far more steadily, than growing a StringIO.
    """

    def __init__(self):
        self.parts: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def getvalue(self) -> str:
        return "".join(self.parts)


class Analyse:
    """Read-only CLI calls against a checkpoint, a bank and a query CSV."""

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path) -> None:
        s = self.sizes
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        ckpt = workdir / "init.psmc"
        bank_path = workdir / "bank.psmb"
        query_path = workdir / "queries.csv"
        self.params = init_params(
            NetworkConfig(in_dim=s.dim), RngState(seed).split("psmbench", "net")
        )
        save_checkpoint(self.params, OptimizerState(), self.params, ckpt)
        self.rows, row_labels, self.queries = bank_inputs(seed, s)
        if straddling_ties(self.rows, self.queries, s.k) == 0:
            raise RuntimeError("no query has a tie at the k-th place; the tie rule goes untested")
        bank = MemoryBank(len(self.rows), s.bank_dim, with_labels=True)
        bank.enqueue_batch(self.rows, row_labels)
        save_bank(bank, bank_path)
        save_csv(Dataset(self.queries, np.zeros(len(self.queries), dtype=np.int64)), query_path)

        data = ["--checkpoint", str(ckpt), "--synthetic", s.synthetic, "--seed", str(seed)]
        diag = ["--out", str(workdir / "diag"), *data]
        mine = ["mine", "--bank", str(bank_path), "--query", str(query_path)]
        self.calls = {
            "probe_knn": ["probe", *data, "--mode", "knn", "--k-nn", str(s.k_nn)],
            "probe_linear": ["probe", *data, "--mode", "linear"],
            "diagnose_gradients": [
                "diagnose", "--what", "gradients", *diag, "--rank-depth", str(s.rank_depth),
            ],
            "diagnose_purity": [
                "diagnose", "--what", "purity", *diag,
                "--k", str(s.k), "--batch", str(s.batch), "--bank", str(s.bank),
            ],
            "mine_positive": [*mine, "--mode", "positive", "--k", str(s.k)],
            "mine_negative": [
                *mine, "--mode", "negative", "--a", repr(s.a), "--seed", str(seed),
            ],
        }

    @property
    def ops_per_round(self) -> int:
        return len(self.calls)

    def run_round(self, call) -> Outcome:
        failed, errors = 0, []
        self._printed = {}
        for name, argv in self.calls.items():
            out, err = _Capture(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = call(ROOT_CLI, cli.main, argv)
            except Exception:  # count the call as failed and go on with the round
                code = -1
                err.write(traceback.format_exc())
            if code != 0:
                failed += 1
                errors.append(f"{name}: exit {code}: {err.getvalue().strip()}")
            self._printed[name] = out
        return Outcome(failed, error="\n".join(errors))

    def settle(self, outcome: Outcome, first: bool) -> None:
        """Keep a digest of the round's printed output, and the text of the first."""
        texts = {name: out.getvalue() for name, out in self._printed.items()}
        self._printed = {}
        digest = hashlib.sha256("\0".join(texts.values()).encode()).hexdigest()
        outcome.output = (digest, texts if first else None)

    def check(self, outcomes: list[Outcome]) -> list[str]:
        s = self.sizes
        digest, first = outcomes[0].output
        if any(o.output[0] != digest for o in outcomes[1:]):
            return ["a repeated CLI call printed other output"]
        train, test = synthetic_split(s, self.seed)
        p = self.params
        problems = checks.check_knn_vote(
            embed(p, train.features),
            train.labels,
            embed(p, test.features),
            test.labels,
            s.k_nn,
            _value(first["probe_knn"], "accuracy"),
        )
        kk = min(5, s.classes)
        problems += checks.check_linear_probe(
            _value(first["probe_linear"], "top1"), _value(first["probe_linear"], f"top{kk}")
        )
        _, q, _ = forward_online(p, test.features, train=False)
        problems += checks.check_positive_rank(
            q,
            forward_target(p, test.features),
            forward_target(p, train.features),
            _value(first["diagnose_gradients"], "mean_positive_rank"),
        )
        perm = RngState(self.seed).split("diagnose").permutation(train.n)
        steps = [perm[i * s.batch : (i + 1) * s.batch] for i in range(train.n // s.batch)]
        problems += checks.check_replay_purity(
            [(forward_target(p, train.features[sel]), train.labels[sel]) for sel in steps],
            s.bank,
            s.k,
            _value(first["diagnose_purity"], "mean_purity"),
        )
        queries = _unit(self.queries)
        pos = re.findall(
            r"^query=\d+ indices=\[([^\]]*)\] sims=\[([^\]]*)\]$",
            first["mine_positive"],
            re.MULTILINE,
        )
        problems += checks.check_topk(
            self.rows,
            queries,
            s.k,
            [_int_list(i) for i, _ in pos],
            [_float_list(v) for _, v in pos],
        )
        neg = re.findall(
            r"^query=\d+ anchor=(\d+) kept=\[([^\]]*)\] probs=\[([^\]]*)\]$",
            first["mine_negative"],
            re.MULTILINE,
        )
        problems += checks.check_mined_negatives(
            self.rows,
            queries,
            s.a,
            [(int(a), _int_list(k), _float_list(pr)) for a, k, pr in neg],
        )
        return problems

    def knn_acc(self, outcomes: list[Outcome]) -> float:
        return _value(outcomes[0].output[1]["probe_knn"], "accuracy")


def make(name: str, sizes: Sizes = Sizes()):
    if name == "desk":
        return Training(sizes, baseline=False)
    if name == "baseline":
        return Training(sizes, baseline=True)
    if name == "analyse":
        return Analyse(sizes)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("desk", "baseline", "analyse")
