"""Benchmark of record for psm-lab: one workload, one seed, one JSON result.

    python3 psmbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the program from
``src/``. BLAS is pinned to ``--blas-threads`` (default 1) through the
environment of this process before NumPy loads. The workload's inputs are
made from ``--seed``; whole rounds of its operations run until ``--seconds``
have passed; the outputs are then checked against answers computed apart
from the program.

With ``--trace 0`` the result holds the end-to-end metrics (setup_s,
ops_per_s, peak_rss_mb, knn_acc). With ``--trace 1`` it holds the per-layer
metrics: traced and untraced rounds alternate, and the untraced ones give
the tracing overhead. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; the line before it
records the environment. The full record, with every round and any failed
check, is written to ``.psmbench_out/`` at the checkout root. The exit code
is 0 when every check passed, 1 when one failed, and 2 when the program's
sources are missing.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".psmbench_out"
WORKLOADS = ("desk", "baseline", "analyse")
SETUP_REPEATS = 5
_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import workloads; print(time.perf_counter() - t)"
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", dest="blas_threads", type=int, default=1)
    return ap.parse_args(argv)


def blas_threads_in_force() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import psm

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads_in_force(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
        "psm_version": psm.__version__,
    }


def import_seconds(first: float) -> list[float]:
    """This process's import time plus that of fresh interpreters, for a median."""
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), str(ROOT / "psmbench")],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(proc.stdout))
    return samples


def _plain(name, fn, *args):
    return fn(*args)


def measure(workload, seconds: float, trace: bool):
    """Whole rounds until ``seconds`` have passed; traced and plain rounds alternate."""
    import spans

    tracer = spans.Tracer() if trace else None
    rounds, outcomes = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 0
        if traced:
            tracer.install()
        t = time.perf_counter()
        try:
            outcome = workload.run_round(tracer.call if traced else _plain)
        finally:
            if traced:
                tracer.uninstall()
        dt = time.perf_counter() - t
        workload.settle(outcome, first=not outcomes)
        outcomes.append(outcome)
        rounds.append(
            {
                "traced": traced,
                "seconds": dt,
                "ops": workload.ops_per_round,
                "failed": outcome.failed,
                "error": outcome.error,
            }
        )
        if time.perf_counter() - start >= seconds and (not trace or len(rounds) >= 2):
            return rounds, outcomes, tracer


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None, import_s=(0.0,)):
    """Set up, measure and check one workload; returns (result, record)."""
    import workloads

    workload = workloads.make(name, sizes or workloads.Sizes())
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.setup(seed, workdir / str(i))
            setup_times.append(time.perf_counter() - t)
        rounds, outcomes, tracer = measure(workload, seconds, trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = workload.check(outcomes)
        knn = workload.knn_acc(outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    absent: list[str] = []
    if trace:
        import spans

        traced = [r for r in rounds if r["traced"]]
        metrics, absent = spans.summarize(
            tracer,
            sum(r["ops"] for r in traced),
            statistics.median(r["seconds"] / r["ops"] for r in traced),
            statistics.median(r["seconds"] / r["ops"] for r in plain),
        )
    else:
        metrics = {
            "setup_s": {
                "value": statistics.median(import_s) + statistics.median(setup_times),
                "unit": "s",
            },
            "ops_per_s": {
                "value": statistics.median((r["ops"] - r["failed"]) / r["seconds"] for r in plain),
                "unit": "ops/s",
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "knn_acc": {"value": knn, "unit": "fraction"},
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "trace": trace,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "rounds": rounds,
        "problems": problems,
        "absent": absent,
        "result": result,
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    if not (ROOT / "src" / "psm" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: F401  (imports NumPy and the program)

    import_s = import_seconds(time.perf_counter() - _T0)
    env = environment(args.seed)
    if env["blas_threads"] not in (None, args.blas_threads):
        print(
            f"error: BLAS runs {env['blas_threads']} threads, {args.blas_threads} requested",
            file=sys.stderr,
        )
        return 1
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    record["environment"] = env
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in record["problems"]:
        print(f"check failed: {line}", file=sys.stderr)
    for name in record["absent"]:
        print(f"absent: {name} (its function is no longer there)", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
