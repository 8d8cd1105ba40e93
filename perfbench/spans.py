"""Spans around the calls the CLI makes into each layer, for the traced run.

The traced run replaces the names that `infoineq.cli` and `infoineq.proof`
import from the other modules with timing wrappers, so the package itself is
not edited.  Spans stay in memory until the run ends.  A layer's self time is
the duration of its spans minus the time of their child spans, so the self
times of all layers (with `cli` as the root span) add up to the time spent
inside `cli.main`.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, imported name, layer).  Only names looked up in these two modules
# are wrapped, so a layer's internal calls stay in its own self time:
# `_check_identity` re-parsing labels counts as proof.build, not parser.
PATCHES = (
    ("cli", "parse_universe", "parser"),
    ("cli", "parse_constraint", "parser"),
    ("cli", "parse_relation", "parser"),
    ("cli", "canonicalize", "canonical"),
    ("cli", "enumerate_eims", "elemental"),
    ("cli", "build_constraint_matrix", "constraints"),
    ("cli", "solve", "lp"),
    ("cli", "build_elemental_form", "proof.build"),
    ("proof", "verify_certificate", "proof.verify"),
    ("cli", "render_json", "proof.render"),
)
ROOT = "cli"  # the span around each `cli.main` call

# Per-layer metric -> layer whose self time it is.
SELF_TIMES = {
    "cli.self_s": "cli",
    "parser.self_s": "parser",
    "canonical.self_s": "canonical",
    "elemental.self_s": "elemental",
    "constraints.self_s": "constraints",
    "lp.self_s": "lp",
    "proof.build_self_s": "proof.build",
    "proof.verify_s": "proof.verify",
    "proof.render_s": "proof.render",
}
UNITS = {name: "s" for name in SELF_TIMES} | {
    "parser.calls": "count",
    "canonical.calls": "count",
    "elemental.rows": "count",
    "constraints.rows": "count",
    "lp.calls": "count",
    "lp.tableau_rows": "count",
    "lp.tableau_cols": "count",
    "lp.support": "count",
    "lp.support_frac": "ratio",
    "lp.max_bits": "bits",
    "lp.self_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans (pass, id, parent, layer, problem, start, end) in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.results: list[tuple] = []  # (layer, args, result) for the counters
        self.pass_no = 0
        self.problem = ""
        self._stack: list[int] = []

    def call(self, layer: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (self.pass_no, sid, parent, layer, self.problem, start, end)
        self.results.append((layer, args, result))
        return result

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every name in PATCHES for the duration of the block."""
        saved = []
        try:
            for module_key, name, layer in PATCHES:
                module = modules[module_key]
                fn = getattr(module, name)
                saved.append((module, name, fn))
                setattr(module, name, self._wrapper(layer, fn))
            yield
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)

    def _wrapper(self, layer: str, fn):
        def wrapped(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)
        return wrapped

    def take_results(self) -> list[tuple]:
        results, self.results = self.results, []
        return results


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Per-layer self time of the given spans (one pass)."""
    child_time: dict[int, float] = defaultdict(float)
    for _, _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for _, sid, _, layer, _, start, end in spans:
        totals[layer] += (end - start) - child_time[sid]
    return totals


def _outcome_values(outcome) -> list:
    """Certificate multipliers of a proof, or coordinates of a disproof ray."""
    if hasattr(outcome, "certificate"):
        return list(outcome.certificate.lam) + list(outcome.certificate.nu)
    return list(outcome.ray.coeffs)


def counters(results: list[tuple]) -> dict[str, int]:
    """Work counts of one pass, read from the recorded arguments and results."""
    c = dict.fromkeys(("parser.calls", "canonical.calls", "elemental.rows",
                       "constraints.rows", "lp.calls", "lp.tableau_rows",
                       "lp.tableau_cols", "lp.support", "lp.max_bits"), 0)
    for layer, args, result in results:
        if layer == "parser":
            c["parser.calls"] += 1
        elif layer == "canonical":
            c["canonical.calls"] += 1
        elif layer == "elemental":
            c["elemental.rows"] += len(result.rows)
        elif layer == "constraints":
            c["constraints.rows"] += len(result.rows)
        elif layer == "lp":
            cone = args[0]
            qrows = cone.constraints.rows if cone.constraints is not None else ()
            values = _outcome_values(result)
            c["lp.calls"] += 1
            c["lp.tableau_rows"] += len(cone.objective.coeffs)
            c["lp.tableau_cols"] += len(cone.elemental.rows) + 2 * len(qrows)
            c["lp.support"] += sum(1 for v in values if v)
            c["lp.max_bits"] = max(
                c["lp.max_bits"],
                max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values))
    return c


def layer_metrics(passes: list[dict], untraced_walls: list[float]) -> dict[str, float]:
    """Medians over traced passes of every per-layer metric.

    Each entry of `passes` holds one traced pass: its wall time, its
    per-layer self times and its counters.
    """
    med = statistics.median
    out = {name: med([p["self"].get(layer, 0.0) for p in passes])
           for name, layer in SELF_TIMES.items()}
    for name in passes[0]["counters"]:
        out[name] = statistics.median_low([p["counters"][name] for p in passes])
    out["lp.support_frac"] = out["lp.support"] / out["lp.tableau_cols"]
    out["lp.self_frac"] = med([p["self"].get("lp", 0.0) / p["wall"] for p in passes])
    out["trace.overhead_frac"] = med([p["wall"] for p in passes]) / med(untraced_walls) - 1
    return out
