"""infoineq benchmark: end-to-end and per-layer figures for one workload.

Run from the root of an infoineq checkout:

    python3 perfbench/run.py --workload corpus_n3 --seed 1 --seconds 20 --trace 0

The timed passes run in a fresh interpreter (perfbench/worker.py), whose
peak RSS is `peak_rss_mb`.  With --trace 0 the run also starts fresh
interpreters that only import `infoineq.cli`, for `setup_s`.  With --trace 1
it reports the per-layer table instead.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exits 2 without a result when the directory is not a
checkout with the package and its tests.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads
from calibrate import Calibration

HERE = Path(__file__).resolve().parent
REQUIRED = ("src/infoineq/cli.py", "tests/proof_check.py")
SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 150
SETUP_CODE = "import infoineq.cli, time; print(time.monotonic_ns(), infoineq.cli.__file__)"


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def setup_seconds(root: Path, env: dict[str, str]) -> list[float]:
    """Seconds from spawning an interpreter until `import infoineq.cli` returns.

    The child reads the same system-wide monotonic clock as this process.
    Each sample is scaled to nominal seconds by the calibration loop.  One
    unmeasured import first writes the byte-code caches, as any earlier run
    of the program would have.
    """
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=root, check=True, capture_output=True, timeout=60)
    calibration = Calibration()
    samples = []
    for _ in range(SETUP_SAMPLES):
        scale = calibration.scale()
        start = time.monotonic_ns()
        out = subprocess.run(cmd, env=env, cwd=root, check=True, capture_output=True,
                             text=True, timeout=60).stdout
        stamp, path = out.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to((root / "src").resolve()):
            raise SystemExit(f"perfbench: setup run imported infoineq from {path.strip()}")
        samples.append((int(stamp) - start) / 1e9 * scale)
    return samples


def run_worker(args, root: Path, env: dict[str, str]) -> tuple[dict, float]:
    """The worker's result and its peak RSS in MB."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    # The worker is the first child this process waits for, so the children's
    # maximum resident set size is the worker's own (kilobytes on Linux).
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1]), peak_mb


def end_to_end(worker: dict, setup: list[float], peak_mb: float) -> tuple[dict, list[str]]:
    metrics = {
        "problems_per_s": (worker["problems_per_s"], "1/s"),
        "problem_s.p50": (worker["problem_s.p50"], "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    info = [f"{worker['passes']} passes, {worker['calls']} calls; unscaled median call "
            f"{worker['raw_call_s.p50']:.6g} s; setup_s from {len(setup)} interpreters"]
    return metrics, info


def per_layer(worker: dict) -> tuple[dict, list[str]]:
    metrics = {name: (worker["metrics"][name], unit) for name, unit in spans.UNITS.items()}
    info = [f"{worker['traced_passes']} traced and {worker['untraced_passes']} untraced passes; "
            f"self times miss {worker['unaccounted_frac']:.3%} of a traced pass",
            f"spans in {worker['spans_file']}"]
    return metrics, info


def report(args, worker: dict, metrics: dict[str, tuple[float, str]], info: list[str]) -> None:
    attempted, failed = worker["attempted"], worker["failed"]
    print(f"{args.workload} seed {args.seed}: {worker['problems']} problems, "
          f"{attempted} calls, {failed} failed (failed_frac {failed / attempted:g})")
    for reason in worker["failures"]:
        print(f"  FAILED {reason}")
    for line in info:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<22} {value:>12.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path.cwd()
    missing = [rel for rel in REQUIRED if not (root / rel).is_file()]
    if missing:
        print(f"perfbench: not an infoineq checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        worker, peak_mb = run_worker(args, root, env)
        if args.trace:
            metrics, info = per_layer(worker)
        else:
            metrics, info = end_to_end(worker, setup_seconds(root, env), peak_mb)
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(args, worker, metrics, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
