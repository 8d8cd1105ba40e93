"""Timed passes over one workload, run by run.py in a fresh interpreter.

Drives the real user path, `infoineq.cli.main(argv)`, one problem at a time
(a closed loop with one client) and checks every output against the frozen
verdict.  Prints one JSON line with the raw results for run.py.

With --trace 0 it repeats passes until --seconds have gone.
With --trace 1 it alternates an untraced and a traced pass, so the tracing
overhead is measured under the same conditions, and writes the spans of the
traced passes to perfbench/out/ at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans
import workloads
from calibrate import Calibration

OUT_DIR = Path(__file__).resolve().parent / "out"
# Share of a traced pass that may fall outside the `cli.main` spans (the
# loop and output capture between calls) before the layer table is refused.
MAX_UNACCOUNTED = 0.02


class Checker:
    """Judges one call's exit code and output against the frozen verdict."""

    def __init__(self, check_proof_document):
        self._check_proof_document = check_proof_document
        self._verified: dict[str, tuple] = {}  # problem id -> output already checked

    def failure(self, problem: workloads.Problem, code, out: str, err: str) -> str | None:
        """None if the call is correct, else a one-line reason."""
        if isinstance(code, Exception):
            return f"{problem.id}: raised {code!r}"
        expected = workloads.EXIT_CODE[problem.verdict]
        if code != expected:
            return f"{problem.id}: exit code {code}, expected {expected} ({problem.reason})"
        if self._verified.get(problem.id) == (out, err):
            return None
        try:
            if problem.verdict == workloads.PROVEN:
                self._check_proof(out)
            else:
                self._check_ray_summary(err)
        except Exception as exc:  # any defect in the output counts as a failed problem
            return f"{problem.id}: output rejected: {exc!r}"
        self._verified[problem.id] = (out, err)
        return None

    def _check_proof(self, out: str) -> None:
        doc = json.loads(out)
        for direction in doc.get("directions", [doc]):
            self._check_proof_document(json.dumps(direction))

    @staticmethod
    def _check_ray_summary(err: str) -> None:
        values = [Fraction(line.split(":", 1)[1].strip()) for line in err.splitlines()
                  if line.startswith("objective on ray:")]
        if not values or any(v >= 0 for v in values):
            raise AssertionError(f"no ray with a negative objective in {err!r}")


def run_pass(main, calls: list[tuple], tracer: spans.Tracer | None = None,
             calibration: Calibration | None = None):
    """One pass over (problem, argv) pairs; returns the wall time and per-call records.

    A record is (problem, exit code or exception, stdout, stderr, seconds,
    scale to nominal seconds).  The scale is the mean of the calibration
    before and after the call, or 1.0 without a calibration.
    """
    records = []
    start = perf_counter()
    for problem, argv in calls:
        before = calibration.scale() if calibration is not None else 1.0
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.problem = problem.id
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = main(argv) if tracer is None else tracer.call(spans.ROOT, main, argv)
            except Exception as exc:  # a raising problem is a failed problem
                code = exc
            t1 = perf_counter()
        after = calibration.scale() if calibration is not None else 1.0
        records.append((problem, code, out.getvalue(), err.getvalue(), t1 - t0, (before + after) / 2))
    return perf_counter() - start, records


class Tally:
    """Counts attempted and failed calls; keeps the first few failure reasons."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, records) -> None:
        for problem, code, out, err, _, _ in records:
            self.attempted += 1
            reason = self.checker.failure(problem, code, out, err)
            if reason is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(reason)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures}


def measure(main, calls, tally: Tally, seconds: float) -> dict:
    """Untraced passes until `seconds` have gone; end-to-end figures.

    Each call's time is scaled to nominal seconds by the calibration loop
    measured around it.  `problem_s.p50` is the median over all calls; a
    typical pass is the sum over problems of each problem's median call.
    """
    calibration = Calibration()
    passes, raw, scaled = 0, [], {}
    start = perf_counter()
    while True:
        _, records = run_pass(main, calls, calibration=calibration)
        tally.add(records)
        passes += 1
        for problem, _, _, _, seconds_taken, scale in records:
            raw.append(seconds_taken)
            scaled.setdefault(problem.id, []).append(seconds_taken * scale)
        if perf_counter() - start >= seconds:
            break
    per_problem = [statistics.median(ts) for ts in scaled.values()]
    return {
        "passes": passes,
        "calls": len(raw),
        "problems_per_s": len(calls) / sum(per_problem),
        "problem_s.p50": statistics.median(t for ts in scaled.values() for t in ts),
        "raw_call_s.p50": statistics.median(raw),
    }


def measure_traced(main, calls, tally: Tally, seconds: float, modules: dict) -> tuple[dict, spans.Tracer]:
    """Alternate untraced and traced passes until `seconds` have gone."""
    tracer = spans.Tracer()
    untraced_walls, traced = [], []
    start = perf_counter()
    while True:
        wall, records = run_pass(main, calls)
        tally.add(records)
        untraced_walls.append(wall)

        tracer.pass_no = len(traced)
        first = len(tracer.spans)
        with tracer.installed(modules):
            wall, records = run_pass(main, calls, tracer)
        tally.add(records)
        traced.append({
            "wall": wall,
            "self": spans.self_times(tracer.spans[first:]),
            "counters": spans.counters(tracer.take_results()),
        })
        if perf_counter() - start >= seconds:
            break
    unaccounted = max(1 - sum(p["self"].values()) / p["wall"] for p in traced)
    if unaccounted > MAX_UNACCOUNTED:
        raise SystemExit(f"layer self times miss {unaccounted:.2%} of a traced pass")
    return {
        "untraced_passes": len(untraced_walls),
        "traced_passes": len(traced),
        "unaccounted_frac": unaccounted,
        "metrics": spans.layer_metrics(traced, untraced_walls),
    }, tracer


def write_spans(tracer: spans.Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("pass", "id", "parent", "layer", "problem", "start", "end")
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def load_program(root: Path):
    """Import the checkout's package and proof checker, refusing any other copy."""
    src, tests = root / "src", root / "tests"
    sys.path[:0] = [str(src), str(tests)]
    from infoineq import cli, proof
    import proof_check

    for module, home in ((cli, src), (proof_check, tests)):
        if not Path(module.__file__).resolve().is_relative_to(home.resolve()):
            raise SystemExit(f"{module.__name__} imported from {module.__file__}, not {home}")
    return {"cli": cli, "proof": proof}, proof_check.check_proof_document


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    modules, check_proof_document = load_program(Path.cwd())
    problems = workloads.generate(args.workload, args.seed)
    calls = [(p, p.argv()) for p in problems]
    tally = Tally(Checker(check_proof_document))
    main_fn = modules["cli"].main
    if args.trace:
        result, tracer = measure_traced(main_fn, calls, tally, args.seconds, modules)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(tracer, path)
        result["spans_file"] = str(path.relative_to(Path.cwd().resolve()))
    else:
        result = measure(main_fn, calls, tally, args.seconds)
    result.update(tally.as_dict(), problems=len(problems))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
