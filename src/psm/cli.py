"""Command-line front end: pretrain, probe, diagnose, mine, ablate.

Every command is a pure function of its arguments, input files, and seed;
rerunning reproduces outputs byte for byte. Exit codes: 0 success, 1 bad
usage or configuration, 2 unreadable or malformed data files. All
validation happens before any output file is created, and a command's
files are written once its work has succeeded. Every CSV and JSON file
goes through ``_write_csv`` or ``_write_json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import _binio, network
from .data import (
    DataFormatError,
    Dataset,
    gen_clusters,
    load_csv,
    split_dataset,
)
from .diagnostics import (
    gradient_profile,
    knn_probe,
    linear_probe,
    linear_probe_k,
    purity,
)
from .memory_bank import MemoryBank, load_bank, query_topk, query_topk_batch
from .numerics import RngState, l2_normalize_rows
from .pnsm import MiningConfig, mine_negatives
from .trainer import METRICS_HEADER, TrainConfig, pretrain, run_ablation_suite

class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this program reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cell(value) -> str:
    """A CSV cell: empty for None or a non-finite float, repr for a float."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value)) if np.isfinite(value) else ""
    return str(value)


def _write_csv(path: Path, header: str, rows) -> None:
    """Write ``header`` and one line of ``_cell`` texts per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _parse_synthetic(spec: str) -> dict:
    """Parse a generator spec like ``c4,d32,n512,sep6``."""
    out = {}
    for token in spec.split(","):
        token = token.strip()
        for prefix, key, conv in (
            ("sep", "separation", float),
            ("c", "classes", int),
            ("d", "dim", int),
            ("n", "n_per_class", int),
        ):
            if token.startswith(prefix):
                if key in out:
                    raise ValueError(f"synthetic spec sets {key} twice: {token!r}")
                try:
                    out[key] = conv(token[len(prefix) :])
                except ValueError:
                    raise ValueError(f"bad synthetic token {token!r}") from None
                break
        else:
            raise ValueError(f"bad synthetic token {token!r}")
    missing = {"classes", "dim", "n_per_class", "separation"} - out.keys()
    if missing:
        raise ValueError(f"synthetic spec lacks {sorted(missing)}")
    return out


def _load_data(args, seed: int) -> tuple[Dataset, Dataset]:
    if getattr(args, "synthetic", None):
        spec = _parse_synthetic(args.synthetic)
        train = gen_clusters(seed=seed, split="train", **spec)
        spec_test = dict(spec, n_per_class=max(1, spec["n_per_class"] // 4))
        test = gen_clusters(seed=seed, split="test", **spec_test)
        return train, test
    full = load_csv(args.data)
    return split_dataset(full, 0.2, seed)


def _from_json(cls, values: dict, what: str):
    """Build dataclass ``cls`` from a JSON object, as ``dataclasses.asdict`` writes it.

    A field whose default is a dataclass takes a JSON object, built the same
    way; a JSON list becomes a tuple.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(values) - fields.keys()
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    kwargs = {}
    for name, value in values.items():
        nested = fields[name].default_factory
        if dataclasses.is_dataclass(nested) and isinstance(value, dict):
            value = _from_json(nested, value, name)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


def _config_from_args(args) -> TrainConfig:
    values: dict = {}
    if args.config:
        cfg_path = Path(args.config)
        if not cfg_path.is_file():
            raise ValueError(f"config file not found: {cfg_path}")
        loaded = json.loads(cfg_path.read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        values.update(loaded)

    for f in dataclasses.fields(TrainConfig):  # every flag's dest is its field
        value = getattr(args, f.name, None)
        if value is not None:
            values[f.name] = value
    return _from_json(TrainConfig, values, "config")


def cmd_pretrain(args) -> int:
    cfg = _config_from_args(args)
    train_ds, test_ds = _load_data(args, cfg.seed)
    cfg.steps_per_epoch(train_ds.n)  # a batch that does not fit fails before any write
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    art = pretrain(cfg, train_ds, test_ds)  # a run that fails here writes no file
    _write_json(out / "config.json", dataclasses.asdict(cfg))
    cols = METRICS_HEADER.split(",")
    metric_rows = ([row.get(c) for c in cols] for row in art.metrics)
    _write_csv(out / "metrics.csv", METRICS_HEADER, metric_rows)
    _write_csv(out / "purity.csv", "epoch,batch,purity", art.purity_rows)
    network.save_checkpoint(
        art.params,
        art.opt,
        art.target if art.target is not None else art.params,
        out / "checkpoint.psmc",
    )
    summary = {
        "data": args.synthetic if args.synthetic else str(args.data),
        "data_kind": "synthetic" if args.synthetic else "csv",
        "init_knn": art.init_knn,
        "final_knn": art.final_knn,
        "final_metrics": art.metrics[-1] if art.metrics else None,
    }
    _write_json(out / "summary.json", summary)
    print(f"run written to {out}")
    if art.final_knn is not None:
        print(f"final_knn={art.final_knn!r}")
    return 0


def _load_checkpoint(path, ds: Dataset):
    """Online and target parameters of a checkpoint whose input width fits ``ds``."""
    params, _, target = network.load_checkpoint(path)
    if params.config.in_dim != ds.dim:
        raise DataFormatError(
            f"data dim {ds.dim} does not match checkpoint input dim "
            f"{params.config.in_dim}"
        )
    return params, target


def cmd_probe(args) -> int:
    if not Path(args.checkpoint).is_file():
        raise FileNotFoundError(f"checkpoint not found: {args.checkpoint}")
    train_ds, test_ds = _load_data(args, args.seed)
    params, _ = _load_checkpoint(args.checkpoint, train_ds)
    train_emb = network.embed(params, train_ds.features)
    test_emb = network.embed(params, test_ds.features)
    if args.mode == "knn":
        acc = knn_probe(
            train_emb, train_ds.labels, test_emb, test_ds.labels, k_nn=args.k_nn
        )
        print(f"mode=knn k_nn={args.k_nn}")
        print(f"accuracy={acc!r}")
    else:
        top1, topk = linear_probe(
            train_emb, train_ds.labels, test_emb, test_ds.labels
        )
        kk = linear_probe_k(train_ds.labels, test_ds.labels)
        print("mode=linear")
        print(f"top1={top1!r}")
        print(f"top{kk}={topk!r}")
    return 0


def cmd_diagnose(args) -> int:
    for name, value, low in (
        ("batch", args.batch, 1),
        ("k", args.k, 0),
        ("bank", args.bank, 1),
        ("rank-depth", args.rank_depth, 1),
    ):
        if value < low:
            raise ValueError(f"--{name} must be at least {low}, got {value}")
    if not Path(args.checkpoint).is_file():
        raise FileNotFoundError(f"checkpoint not found: {args.checkpoint}")
    train_ds, test_ds = _load_data(args, args.seed)
    params, target = _load_checkpoint(args.checkpoint, train_ds)
    out = Path(args.out)

    if args.what == "gradients":
        bank_emb = network.forward_target(target, train_ds.features)
        _, q, _ = network.forward_online(params, test_ds.features, train=False)
        z2 = network.forward_target(target, test_ds.features)
        profile = gradient_profile(q, z2, bank_emb, rank_depth=args.rank_depth)
        out.mkdir(parents=True, exist_ok=True)
        ranks = range(1, profile.rank_depth + 1)
        _write_csv(
            out / "gradient_profile.csv",
            "rank,mean_norm,var_norm",
            zip(ranks, profile.mean_norm, profile.var_norm),
        )
        print(f"gradient profile written to {out / 'gradient_profile.csv'}")
        print(f"mean_positive_rank={profile.mean_positive_rank!r}")
        return 0

    # purity: replay one epoch of mining against a fresh bank
    bank = MemoryBank(args.bank, params.config.projector[-1], with_labels=True)
    perm = RngState(args.seed).split("diagnose").permutation(train_ds.n)
    rows = []
    steps = train_ds.n // args.batch
    if steps == 0:
        raise ValueError("batch size exceeds dataset size")
    for step in range(steps):
        sel = perm[step * args.batch : (step + 1) * args.batch]
        z2 = network.forward_target(target, train_ds.features[sel])
        _, nb_idx, _, k_eff = query_topk_batch(bank, z2, args.k)
        if k_eff > 0:
            _, topk = purity(bank.labels_at(nb_idx), train_ds.labels[sel])
            rows.append((1, step, topk))
        bank.enqueue_batch(z2, train_ds.labels[sel])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "purity.csv", "epoch,batch,purity", rows)
    mean = float(np.mean([r[2] for r in rows])) if rows else float("nan")
    print(f"purity written to {out / 'purity.csv'}")
    print(f"mean_purity={mean!r}")
    return 0


def _bracketed(values: np.ndarray) -> str:
    """``[v0,v1,...]``, each value printed as repr() of its Python int or float.

    The list's own C-level repr formats every element, so no NumPy scalar
    or Python-level call is made per value; a repr never contains ", ".
    """
    return repr(values.tolist()).replace(", ", ",")


def cmd_mine(args) -> int:
    mining = MiningConfig(a=args.a)
    bank = load_bank(args.bank)
    ds = load_csv(args.query)
    queries = l2_normalize_rows(ds.features)
    if queries.shape[1] != bank.dim:
        raise DataFormatError(
            f"query dim {queries.shape[1]} does not match bank dim {bank.dim}"
        )
    if args.mode == "negative" and len(bank) < 2:
        raise ValueError("negative mode needs a bank with at least 2 entries")
    rng = RngState(args.seed)
    if args.mode == "positive":
        for i, q in enumerate(queries):
            ns = query_topk(bank, q, args.k)
            idx, sims = _bracketed(ns.bank_indices), _bracketed(ns.sims[1:])
            print(f"query={i} indices={idx} sims={sims}")
        return 0
    entries = bank.entries()
    others = np.empty((len(entries) - 1, bank.dim))  # every bank row but the anchor
    for i, q in enumerate(queries):
        sims = entries @ q
        anchor = int(np.argmax(sims))
        others[:anchor] = entries[:anchor]
        others[anchor:] = entries[anchor + 1 :]
        s_pos = float(sims[anchor])
        mined = mine_negatives(q, s_pos, others, mining, rng.split("mine", i))
        # candidate m is bank row m below the anchor and row m + 1 above it
        kept = _bracketed(mined.kept + (mined.kept >= anchor))
        probs = _bracketed(mined.probs[mined.kept])
        print(f"query={i} anchor={anchor} kept={kept} probs={probs}")
    return 0


def cmd_ablate(args) -> int:
    given = {"seed": args.seed, "epochs": args.epochs, "batch_size": args.batch}
    if args.epochs is not None and args.epochs < TrainConfig.warmup_epochs:
        given["warmup_epochs"] = max(args.epochs // 5, 0)
    base = TrainConfig(**{name: v for name, v in given.items() if v is not None})
    field = "lam" if args.axis == "lambda" else args.axis
    kind = type(getattr(base, field))
    cells = []
    for raw in args.values.split(","):
        raw = raw.strip()
        cell = dataclasses.replace(base, **{field: kind(raw)})
        cells.append((f"{args.axis}={raw}", cell))
    train_ds, test_ds = _load_data(args, args.seed)
    base.steps_per_epoch(train_ds.n)  # every cell shares the batch size
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = run_ablation_suite(cells, train_ds, test_ds)
    table_path = out / "ablation.csv"
    cols = ("label", "knn_acc", "purity_top1", "loss_total")
    _write_csv(table_path, ",".join(cols), ([row[c] for c in cols] for row in rows))
    for row in rows:
        print(f"{row['label']}: knn={row['knn_acc']} loss={row['loss_total']}")
    print(f"table written to {table_path}")
    return 0


def _add_data_args(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="dataset CSV (split 80/20 by seed)")
    group.add_argument("--synthetic", help="generator spec, e.g. c4,d32,n512,sep6")


def build_parser() -> _Parser:
    parser = _Parser(prog="psm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("pretrain", help="train a model into a run directory")
    _add_data_args(p)
    p.add_argument("--config", help="JSON config file with TrainConfig keys")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--seed", type=int, help="defaults to the config file's, else 0")
    p.add_argument("--k", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--batch", dest="batch_size", metavar="BATCH", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument(
        "--warmup", dest="warmup_epochs", metavar="WARMUP", type=int,
        help="warmup epochs (defaults to 20)",
    )
    p.add_argument("--bank", dest="bank_capacity", metavar="BANK", type=int)
    p.add_argument("--probe-every", dest="probe_every", type=int)
    p.add_argument("--strategy", choices=["V0", "V1", "V2", "V3", "V4"])
    p.add_argument("--span", dest="weight_span", choices=["with_view", "mined_only"])
    p.add_argument("--no-pnsm", dest="use_pnsm", action="store_const", const=False)
    p.add_argument("--no-soft", dest="use_soft", action="store_const", const=False)
    p.add_argument("--no-hard", dest="use_hard", action="store_const", const=False)
    p.add_argument("--baseline", action="store_const", const=True)
    p.add_argument("--symmetrize", action="store_const", const=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("probe", help="score a checkpoint's embeddings")
    p.add_argument("--checkpoint", required=True)
    _add_data_args(p)
    p.add_argument("--mode", choices=["knn", "linear"], default="knn")
    p.add_argument("--k-nn", dest="k_nn", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("diagnose", help="write purity or gradient-profile CSVs")
    p.add_argument("--checkpoint", required=True)
    _add_data_args(p)
    p.add_argument("--what", choices=["purity", "gradients"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rank-depth", dest="rank_depth", type=int, default=200)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--bank", type=int, default=2048)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("mine", help="one-shot mining against a bank dump")
    p.add_argument("--bank", required=True, help="bank file")
    p.add_argument("--query", required=True, help="query CSV (labels ignored)")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--mode", choices=["positive", "negative"], default="positive")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("ablate", help="sweep one axis of the config grid")
    _add_data_args(p)
    p.add_argument("--axis", choices=["strategy", "k", "a", "lambda"], required=True)
    p.add_argument("--values", required=True, help="comma-separated cell values")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, _binio.FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
