#!/usr/bin/env python3
"""Benchmark of qsat's quantized training, float evaluation and folded
integer inference.

Run from the root of a qsat checkout:

    python3 perfbench/run.py --workload train-q4-convnet --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --steadiness 10 --seconds 35 [--workload NAME ...]
    python3 perfbench/run.py --prepare

A run makes the starting checkpoints with ``qsat train`` when the cache has
none for this version of ``src/qsat``, then measures the workload in a fresh
process and prints that process's JSON result as its last line.  With
``--trace 1`` the result holds the per-layer metrics instead of the
end-to-end ones.  ``--steadiness N`` runs each workload N times with seeds
1..N and prints every end-to-end metric's median, quartiles and spread
against its bound in BENCHMARK.json.  ``--prepare`` remakes the
checkpoints.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"
RUNS = ROOT / ".perfbench_runs"
BLAS_THREADS = "1"
RUN_TIMEOUT_S = 170
PREPARE_TIMEOUT_S = 300
# (directory, config, directory whose checkpoint it starts from)
CHECKPOINTS = (("fp", "fp_convnet.cfg", None), ("q4", "q4_convnet.cfg", "fp"))


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QSAT_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def checkpoint_dir() -> Path:
    """Cache directory keyed by the program's sources and the configs."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "qsat").glob("*.py")) + sorted((HERE / "configs").glob("*.cfg"))
    for path in files:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return CACHE / digest.hexdigest()[:16]


def prepare(target: Path) -> None:
    """Make the starting checkpoints with ``qsat train``, outside any run."""
    tmp = CACHE / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        for name, config, init in CHECKPOINTS:
            cmd = [sys.executable, "-m", "qsat.cli", "train", "--config",
                   str(HERE / "configs" / config), "--out", str(tmp / name), "--force"]
            if init:
                cmd += ["--init", str(tmp / init / "checkpoint.ckpt")]
            print(f"perfbench: making the {name} checkpoint", file=sys.stderr)
            subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr,
                           timeout=PREPARE_TIMEOUT_S, check=True)
        try:
            os.replace(tmp, target)
        except OSError:
            if not target.is_dir():
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload in a fresh process; its parsed JSON result."""
    target = checkpoint_dir()
    if not target.is_dir():
        prepare(target)
    work = RUNS / f"{workload}-{seed}-{trace}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--ckpt-dir", str(target), "--work-dir", str(work)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark() -> dict:
    """BENCHMARK.json: the workloads and the declared metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(trace: int) -> list[dict]:
    return benchmark()["per_layer" if trace else "end_to_end"]


def steadiness(runs: int, workloads: list[str], seconds: float) -> dict:
    """Each workload ``runs`` times; quartile spread of every metric."""
    summary = {}
    for workload in workloads:
        results = []
        for seed in range(1, runs + 1):
            result = one_run(workload, seed, seconds, 0)
            print(f"{workload} seed {seed}: {json.dumps(result)}", file=sys.stderr)
            results.append(result)
        rows = {}
        for metric in declared_metrics(0):
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            rows[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": spread, "bound": metric["bound"]}
            verdict = ("within a third of its bound" if spread < metric["bound"] / 3
                       else "within its bound" if spread <= metric["bound"] else "OVER its bound")
            print(f"{workload:20} {metric['name']:18} median {median:10.4f} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:7.2%} "
                  f"bound {metric['bound']:.0%}: {verdict}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload:20} failed {failed}/{attempted}, "
              f"correct in {sum(r['correct'] for r in results)}/{runs} runs")
        summary[workload] = {"metrics": rows, "attempted": attempted, "failed": failed,
                             "correct": all(r["correct"] for r in results)}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    bench = benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N")
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsat" / "__init__.py").is_file():
        print(f"perfbench: no qsat sources under {ROOT / 'src'}; run from a qsat checkout",
              file=sys.stderr)
        return 2
    try:
        if args.prepare:
            target = checkpoint_dir()
            shutil.rmtree(target, ignore_errors=True)
            prepare(target)
            return 0
        if args.steadiness:
            summary = steadiness(args.steadiness, args.workload or workloads, args.seconds)
            print(json.dumps(summary))
            return 0
        if not args.workload or len(args.workload) != 1 or args.seed is None:
            parser.error("a measured run needs one --workload and a --seed")
        result = one_run(args.workload[0], args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
