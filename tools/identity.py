"""Compare a fixed matrix of CLI outputs between the working tree and a revision.

    python3 tools/identity.py --against HEAD~1 [--full]

REV is unpacked with ``git archive`` into a temporary directory. Both trees
then run the same ``psm`` calls, each in its own process with BLAS pinned to
one thread, at most two at a time:

* 4-epoch ``c4,d32,n128,sep2`` pretrain runs: plain, ``--baseline``,
  ``--baseline --no-pnsm``, ``baseline_switches`` (``--baseline`` with the
  flags it ignores: ``--symmetrize --no-soft --no-hard --lambda 0.5
  --strategy V2 --span mined_only``), ``--symmetrize``, ``--no-soft``,
  ``--strategy V2``, a config with ``{"bn": false}`` and ``allflags``, which
  sets every other ``pretrain`` flag (``--k 3 --a 1.5 --lambda 0.5 --t 0.3
  --bank 700 --probe-every 2 --span mined_only --no-hard``);
* a 4-epoch ``--data`` run on a CSV the tool writes: 300 rows, 8
  features, three overlapping classes labelled 0, 2 and 5, so the CSV
  reader, the seeded split and labels that skip values are compared too;
* one 2-epoch ``ablate --axis lambda --values 0.5,1`` sweep on the
  ``c4,d32,n128,sep2`` data;
* odd shapes: 4-epoch ``c3,d13,n200,sep2 --batch 13`` runs with encoder
  widths 19/37 and projector and predictor widths 19/13, plain and
  ``--baseline``;
* ``probe`` (knn, linear) and ``diagnose`` (purity, gradients) on the plain
  and ``--baseline`` checkpoints of both data shapes, on the ``allflags``
  and CSV checkpoints, and on the plain odd checkpoint with ``c3,d13,n172,sep2``
  data, whose 129 test rows leave a lone row after four 32-row evaluation
  blocks;
* one round of psmbench's ``analyse`` workload at seeds 101, 102 and 103,
  imported from each tree's ``psmbench/`` without writing into it: its
  inputs (checkpoint, bank, query CSV), its ``diagnose`` files and the
  standard output of its six calls;
* with ``--full``, the 100-epoch reference run
  (``c4,d32,n512,sep6 --epochs 100 --seed 7``).

Every output file, and the standard output of every call with its run
directory masked, is compared byte for byte. For each file the tool prints
"identical"; otherwise, for a CSV, the largest absolute difference per
column that differs, for a JSON file, the keys only one side has (``-key``
only in REV, ``+key`` only in the working tree) and the largest absolute
difference per shared numeric leaf that differs, and for any other file,
the count of differing bytes. The exit code is 0 when every file is
identical and 1 otherwise. The tool is a development aid; no test runs it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SMALL_DATA = ["--synthetic", "c4,d32,n128,sep2", "--seed", "3"]
SMALL = [*SMALL_DATA, "--epochs", "4", "--warmup", "1"]
ODD_DATA = ["--synthetic", "c3,d13,n200,sep2", "--seed", "3"]
ODD = [*ODD_DATA, "--epochs", "4", "--warmup", "1", "--batch", "13", "--config", "{odd}"]
CSV_DATA = ["--data", "{csv}", "--seed", "3"]
CONFIGS = {
    "nobn": {"bn": False},
    "odd": {"encoder": [19, 37], "projector": [19, 13], "predictor": [19, 13]},
}
RUNS = {
    "plain": SMALL,
    "baseline": [*SMALL, "--baseline"],
    "baseline_nopnsm": [*SMALL, "--baseline", "--no-pnsm"],
    "baseline_switches": [
        *SMALL, "--baseline", "--symmetrize", "--no-soft", "--no-hard", "--lambda", "0.5",
        "--strategy", "V2", "--span", "mined_only",
    ],
    "sym": [*SMALL, "--symmetrize"],
    "nosoft": [*SMALL, "--no-soft"],
    "v2": [*SMALL, "--strategy", "V2"],
    "nobn": [*SMALL, "--config", "{nobn}"],
    "allflags": [
        *SMALL, "--k", "3", "--a", "1.5", "--lambda", "0.5", "--t", "0.3", "--bank", "700",
        "--probe-every", "2", "--span", "mined_only", "--no-hard",
    ],
    "odd": ODD,
    "odd_baseline": [*ODD, "--baseline"],
    "csv": [*CSV_DATA, "--epochs", "4", "--warmup", "1"],
}
ABLATE = ["ablate", *SMALL_DATA, "--axis", "lambda", "--values", "0.5,1", "--epochs", "2"]
FULL_RUNS = {"ref": ["--synthetic", "c4,d32,n512,sep6", "--epochs", "100", "--seed", "7"]}
# read name: (run whose checkpoint is read, data arguments)
READ_FROM = {
    "plain": ("plain", SMALL_DATA),
    "baseline": ("baseline", SMALL_DATA),
    "allflags": ("allflags", SMALL_DATA),
    "odd": ("odd", ODD_DATA),
    "odd_baseline": ("odd_baseline", ODD_DATA),
    "odd_lone_row": ("odd", ["--synthetic", "c3,d13,n172,sep2", "--seed", "3"]),
    "csv": ("csv", CSV_DATA),
}
READS = {
    "probe_knn": ["probe", "--mode", "knn"],
    "probe_linear": ["probe", "--mode", "linear"],
    "diagnose_purity": ["diagnose", "--what", "purity", "--out", "{dir}/diag"],
    "diagnose_gradients": ["diagnose", "--what", "gradients", "--out", "{dir}/diag"],
}
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ANALYSE_SEEDS = (101, 102, 103)
# One analyse round in a fresh interpreter: argv is the tree, the seed and
# the output directory. Bytecode is not written, so the tree stays as it is.
ANALYSE = '''
import sys
from pathlib import Path
sys.dont_write_bytecode = True
tree, seed, out = Path(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3])
sys.path[:0] = [str(tree / "psmbench"), str(tree / "src")]
import workloads
workload = workloads.make("analyse")
workload.setup(seed, out)
outcome = workload.run_round(lambda _name, fn, argv: fn(argv))
workload.settle(outcome, first=True)
for name, text in outcome.output[1].items():
    (out / f"{name}.stdout").write_text(text.replace(str(out), "<RUN>"))
print(f"failed calls: {outcome.failed}", outcome.error, sep="\\n")
'''


def labels_csv() -> str:
    """The ``--data`` run's dataset: 100 rows each of labels 0, 2 and 5."""
    rng = np.random.default_rng(11)
    labels = np.repeat([0, 2, 5], 100)
    means = rng.normal(size=(3, 8))
    features = means[np.repeat([0, 1, 2], 100)] + rng.normal(size=(300, 8))
    lines = [",".join(["label", *(f"f{j}" for j in range(8))])]
    lines += [",".join([str(y), *map(repr, row)]) for y, row in zip(labels, features.tolist())]
    return "\n".join(lines) + "\n"


def unpack(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def psm(tree: Path, out: Path, name: str, argv: list[str]) -> None:
    """Run one ``psm`` call from ``tree``; keep its stdout with ``out`` masked."""
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, **ENV, "PYTHONPATH": str(tree / "src")}
    configs = {name: out.parent / f"{name}.json" for name in CONFIGS}
    # relative to the call's directory, so summary.json names it alike in both trees
    argv = [a.format(dir=out, csv="../labels.csv", **configs) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "psm.cli", *argv], cwd=out, env=env,
        capture_output=True, text=True,
    )
    text = proc.stdout.replace(str(out), "<RUN>") + f"exit {proc.returncode}\n"
    (out / f"{name}.stdout").write_text(text)
    if proc.returncode:
        sys.stderr.write(f"{out}: {' '.join(argv)}: exit {proc.returncode}\n{proc.stderr}")


def analyse(tree: Path, seed: int, out: Path) -> None:
    """Run one psmbench analyse round of ``tree`` at ``seed`` into ``out``."""
    out.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "-c", ANALYSE, str(tree), str(seed), str(out)],
        cwd=out, env={**os.environ, **ENV}, capture_output=True, text=True,
    )
    (out / "round.stdout").write_text(proc.stdout + f"exit {proc.returncode}\n")
    if proc.returncode:
        sys.stderr.write(f"{out}: analyse seed {seed}: exit {proc.returncode}\n{proc.stderr}")


def run_matrix(trees: dict[str, Path], work: Path, full: bool) -> None:
    runs = {**RUNS, **(FULL_RUNS if full else {})}
    for side in SIDES:
        (work / side).mkdir(parents=True)
        for name, config in CONFIGS.items():
            (work / side / f"{name}.json").write_text(json.dumps(config))
        (work / side / "labels.csv").write_text(labels_csv())
    with ThreadPoolExecutor(max_workers=2) as pool:
        jobs = [
            pool.submit(psm, trees[side], work / side / name, "pretrain",
                        ["pretrain", *argv, "--out", str(work / side / name / "run")])
            for name, argv in runs.items() for side in SIDES
        ] + [
            pool.submit(psm, trees[side], work / side / "ablate", "ablate",
                        [*ABLATE, "--out", str(work / side / "ablate" / "run")])
            for side in SIDES
        ] + [
            pool.submit(analyse, trees[side], seed, work / side / f"analyse_{seed}")
            for seed in ANALYSE_SEEDS for side in SIDES
        ]
        for job in jobs:
            job.result()
        jobs = [
            pool.submit(
                psm, trees[side], work / side / f"{name}_read", read,
                [*argv, "--checkpoint", str(work / side / run / "run" / "checkpoint.psmc"),
                 *data],
            )
            for name, (run, data) in READ_FROM.items() for read, argv in READS.items()
            for side in SIDES
        ]
        for job in jobs:
            job.result()


def _worst(diffs: dict[str, list], key: str, a, b) -> bool:
    """Track the largest |a - b| and the count of differing values under ``key``.

    Returns whether a and b are both numbers or else equal text.
    """
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return a == b
    if x != y:
        worst = diffs.setdefault(key, [0.0, 0])
        worst[0] = max(worst[0], abs(x - y))
        worst[1] += 1
    return True




def csv_diff(a: bytes, b: bytes) -> str:
    ra = list(csv.reader(io.StringIO(a.decode())))
    rb = list(csv.reader(io.StringIO(b.decode())))
    if len(ra) != len(rb) or ra[:1] != rb[:1]:
        return f"header or row count differs ({len(ra)} against {len(rb)} rows)"
    diffs: dict[str, list] = {}
    for row_a, row_b in zip(ra[1:], rb[1:]):
        for col, x, y in zip(ra[0], row_a, row_b):
            if not _worst(diffs, col, x, y):
                return f"text differs in column {col}"
    return ", ".join(f"{col} {d:.3g} in {n} rows" for col, (d, n) in diffs.items())


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _leaves(val, f"{path}.{key}" if path else key)
    else:
        yield path, obj


def json_diff(a: bytes, b: bytes) -> str:
    la, lb = dict(_leaves(json.loads(a))), dict(_leaves(json.loads(b)))
    one_side = [f"-{k}" for k in la if k not in lb] + [f"+{k}" for k in lb if k not in la]
    notes = [f"keys differ: {', '.join(one_side)}"] if one_side else []
    diffs: dict[str, list] = {}
    for key in (k for k in la if k in lb):
        if not _worst(diffs, key, la[key], lb[key]):
            return "; ".join([*notes, f"value differs at {key}"])
    if diffs:
        notes.append(", ".join(f"{key} {d:.3g}" for key, (d, _) in diffs.items()))
    return "; ".join(notes)


def byte_diff(a: bytes, b: bytes) -> str:
    if len(a) != len(b):
        return f"sizes differ: {len(a)} against {len(b)} bytes"
    return f"{sum(x != y for x, y in zip(a, b))} of {len(a)} bytes differ"


def compare(work: Path) -> dict[str, str]:
    """Map each output path to "identical" or a description of the difference."""
    files = sorted(
        {p.relative_to(work / side) for side in SIDES for p in (work / side).rglob("*")
         if p.is_file()}
    )
    report = {}
    for rel in files:
        a, b = (work / side / rel for side in SIDES)
        if not (a.is_file() and b.is_file()):
            report[str(rel)] = f"only in {'parent' if a.is_file() else 'change'}"
            continue
        da, db = a.read_bytes(), b.read_bytes()
        if da == db:
            report[str(rel)] = "identical"
        elif rel.suffix == ".csv":
            report[str(rel)] = csv_diff(da, db)
        elif rel.suffix == ".json":
            report[str(rel)] = json_diff(da, db)
        else:
            report[str(rel)] = byte_diff(da, db)
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, metavar="REV", help="git revision")
    ap.add_argument("--full", action="store_true", help="add the 100-epoch reference run")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="psm-identity-") as tmp:
        tmp = Path(tmp)
        unpack(args.against, tmp / "tree")
        run_matrix({"parent": tmp / "tree", "change": ROOT}, tmp / "out", args.full)
        report = compare(tmp / "out")
    for rel, verdict in report.items():
        print(f"{rel}: {verdict}")
    same = sum(v == "identical" for v in report.values())
    print(f"{same} of {len(report)} files identical")
    return 0 if same == len(report) else 1


if __name__ == "__main__":
    sys.exit(main())
