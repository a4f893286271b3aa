"""Per-layer spans for the traced run, recorded from outside the program.

Each layer's public function is replaced, where its caller looks it up, by
a wrapper that records a span (name, start, end, parent) in memory. A
layer's self time is its span minus the time its child spans cover. The
wrappers are installed only for traced rounds and removed afterwards, so
untraced rounds run the program exactly as shipped.

A site that no longer exists (a later change removed or renamed the
function) is skipped; every metric that depends only on missing sites is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _count_entries(counters, args, out):
    counters["memory_bank.entries.bytes"] += out.nbytes


def _count_nce(counters, args, out):
    # weighted_nce_csr(q1, pos_flat, w_flat, pos_off, cands, neg_idx, neg_off, t)
    counters["ppsm.weighted_nce_csr.negatives"] += len(args[5])


def _count_filter(counters, args, out):
    _, keep = out
    counters["pnsm.filter_csr.kept"] += int(keep.sum())
    counters["pnsm.filter_csr.candidates"] += keep.size


def _count_mined(counters, args, out):
    counters["pnsm.mine_negatives.kept"] += len(out.kept)
    counters["pnsm.mine_negatives.candidates"] += len(out.probs)


# layer name -> (lookup sites "module:Owner.attr", optional counter).
# Sites are where the caller resolves the name: the trainer imports most
# functions into its own namespace, while the CLI reaches the network
# through the module object.
LAYERS: dict[str, tuple[tuple[str, ...], object]] = {
    "memory_bank.query_topk_batch": (
        ("psm.trainer:query_topk_batch", "psm.cli:query_topk_batch"),
        None,
    ),
    "memory_bank.query_topk": (("psm.cli:query_topk",), None),
    "memory_bank.similarities": (("psm.memory_bank:MemoryBank.similarities",), None),
    "memory_bank.enqueue_batch": (("psm.memory_bank:MemoryBank.enqueue_batch",), None),
    "memory_bank.entries": (("psm.memory_bank:MemoryBank.entries",), _count_entries),
    "memory_bank.load_bank": (("psm.cli:load_bank",), None),
    "ppsm.weighted_nce_csr": (("psm.trainer:weighted_nce_csr",), _count_nce),
    "kernels.nce_loss_grad": (("psm.ppsm:nce_loss_grad",), None),
    "kernels.mine_mask": (("psm.pnsm:mine_mask",), None),
    "pnsm.filter_csr": (("psm.trainer:filter_csr",), _count_filter),
    "pnsm.mine_negatives": (("psm.cli:mine_negatives",), _count_mined),
    "network.forward_online": (
        ("psm.trainer:forward_online", "psm.network:forward_online"),
        None,
    ),
    "network.forward_target": (
        ("psm.trainer:forward_target", "psm.network:forward_target"),
        None,
    ),
    "network.backward": (("psm.trainer:backward",), None),
    "network.sgd_step": (("psm.trainer:sgd_step",), None),
    "network.ema_update": (("psm.trainer:ema_update",), None),
    "network.commit_bn_stats": (("psm.trainer:commit_bn_stats",), None),
    "network.embed": (("psm.trainer:embed", "psm.network:embed"), None),
    "network.load_checkpoint": (("psm.network:load_checkpoint",), None),
    "data.two_views": (("psm.trainer:two_views",), None),
    "data.load_csv": (("psm.cli:load_csv",), None),
    "diagnostics.knn_probe": (("psm.trainer:knn_probe", "psm.cli:knn_probe"), None),
    "diagnostics.linear_probe": (("psm.cli:linear_probe",), None),
    "diagnostics.gradient_profile": (("psm.cli:gradient_profile",), None),
}

# Roots: the benchmark's own calls into the program.
ROOT_TRAINER = "trainer.pretrain"
ROOT_CLI = "cli.main"

# per-layer metric -> (unit, wrapped layer it needs or None, whether a
# counter on that layer feeds it). entries() is reported by the bytes it
# copies rather than by its time.
METRICS: dict[str, tuple[str, str | None, bool]] = {
    **{f"{layer}.ms": ("ms", layer, False) for layer in LAYERS if layer != "memory_bank.entries"},
    "memory_bank.entries.bytes_per_op": ("B/op", "memory_bank.entries", True),
    "ppsm.weighted_nce_csr.calls_per_op": ("calls/op", "ppsm.weighted_nce_csr", False),
    "ppsm.weighted_nce_csr.negatives_per_call": ("count/call", "ppsm.weighted_nce_csr", True),
    "pnsm.filter_csr.kept_frac": ("fraction", "pnsm.filter_csr", True),
    "pnsm.mine_negatives.kept_frac": ("fraction", "pnsm.mine_negatives", True),
    "trainer.step.ms": ("ms", "data.two_views", False),
    "trainer.self.ms_per_op": ("ms/op", None, False),
    "cli.main.ms": ("ms", None, False),
    "cli.self.ms_per_op": ("ms/op", None, False),
    "trace.overhead_frac": ("fraction", None, False),
}


def per_layer_names() -> list[str]:
    """Every per-layer metric name the traced run reports, in output order."""
    return list(METRICS)


def _resolve(site: str):
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr


class Tracer:
    """In-memory span recorder; wrappers are live only between install/uninstall."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.present: set[str] = set()
        self.uncounted: set[str] = set()
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; used for the benchmark's root calls."""
        idx = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(idx)

    def _wrapper(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
            if count is not None:
                try:
                    count(tracer.counters, args, out)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # the function's signature or result changed shape
                    tracer.uncounted.add(name)
            return out

        return traced

    def install(self) -> None:
        for name, (sites, count) in LAYERS.items():
            for site in sites:
                owner, attr = _resolve(site)
                if owner is None:
                    continue
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(name, original, count))
                self.present.add(name)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _median_ms(values: list[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def step_intervals(spans: list[Span]) -> list[float]:
    """Seconds between consecutive two_views calls under the same pretrain root.

    One interval is one training step; the interval that spans an epoch
    boundary also holds the epoch's bookkeeping and any periodic probe,
    which the median discards.
    """
    starts: dict[int, list[float]] = defaultdict(list)
    for span in spans:
        if span.name == "data.two_views":
            starts[span.parent].append(span.start)
    out = []
    for seq in starts.values():
        out += [b - a for a, b in zip(seq, seq[1:])]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(
    tracer: Tracer, traced_ops: int, traced_s_per_op: float, plain_s_per_op: float
) -> tuple[dict[str, dict], list[str]]:
    """Per-layer metrics from the recorded spans; returns (metrics, absent names).

    ``.ms`` metrics are the median self time per call; ``per_op`` metrics
    are divided by the operations of the traced rounds. A layer that was
    wrapped but not called on this workload reads 0.
    """
    self_times: dict[str, list[float]] = defaultdict(list)
    for span in tracer.spans:
        self_times[span.name].append(span.self_s)
    ops = max(traced_ops, 1)
    c = tracer.counters
    nce_calls = len(self_times["ppsm.weighted_nce_csr"])
    values = {f"{layer}.ms": _median_ms(self_times[layer]) for layer in LAYERS}
    values.update(
        {
            "memory_bank.entries.bytes_per_op": c["memory_bank.entries.bytes"] / ops,
            "ppsm.weighted_nce_csr.calls_per_op": nce_calls / ops,
            "ppsm.weighted_nce_csr.negatives_per_call": _ratio(
                c["ppsm.weighted_nce_csr.negatives"], nce_calls
            ),
            "pnsm.filter_csr.kept_frac": _ratio(
                c["pnsm.filter_csr.kept"], c["pnsm.filter_csr.candidates"]
            ),
            "pnsm.mine_negatives.kept_frac": _ratio(
                c["pnsm.mine_negatives.kept"], c["pnsm.mine_negatives.candidates"]
            ),
            "trainer.step.ms": _median_ms(step_intervals(tracer.spans)),
            "trainer.self.ms_per_op": 1e3 * sum(self_times[ROOT_TRAINER]) / ops,
            "cli.main.ms": _median_ms(self_times[ROOT_CLI]),
            "cli.self.ms_per_op": 1e3 * sum(self_times[ROOT_CLI]) / ops,
            "trace.overhead_frac": traced_s_per_op / plain_s_per_op - 1.0,
        }
    )
    metrics: dict[str, dict] = {}
    absent: list[str] = []
    for name, (unit, layer, counted) in METRICS.items():
        if layer is not None and (
            layer not in tracer.present or (counted and layer in tracer.uncounted)
        ):
            absent.append(name)
        else:
            metrics[name] = {"value": float(values[name]), "unit": unit}
    return metrics, absent
