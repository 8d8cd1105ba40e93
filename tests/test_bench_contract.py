"""What the benchmark's tracer needs from the package.

`perfbench/spans.py` times a traced run by replacing names that
`infoineq.cli` and `infoineq.proof` import, and reads its counters from the
arguments and results of those calls.  This test installs that tracer and
drives `cli.main` as a traced benchmark pass does, so a rename or re-shape
that would break the benchmark fails here first.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
from infoineq import cli, proof  # noqa: E402

# (argv, exit code): one proven, one not provable, one equality (two directions).
PROBLEMS = (
    (["--vars", "X,Y,Z", "--assume", "markov: X -> Y -> Z", "--expr", "I(X;Z) <= I(X;Y)"], 0),
    (["--vars", "X,Y,Z", "--expr", "I(X;Y) <= I(X;Z)"], 1),
    (["--vars", "X,Y", "--expr", "H(X,Y) = H(X) + H(Y|X)"], 0),
)


def test_traced_run_records_every_layer():
    modules = {"cli": cli, "proof": proof}
    originals = {(key, name): getattr(modules[key], name) for key, name, _ in spans.PATCHES}
    tracer = spans.Tracer()
    with tracer.installed(modules):
        for argv, expected in PROBLEMS:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = tracer.call(spans.ROOT, cli.main, argv + ["--format", "json"])
            assert code == expected, argv
    for (key, name), fn in originals.items():
        assert getattr(modules[key], name) is fn

    recorded = {span[3] for span in tracer.spans}
    assert {layer for _, _, layer in spans.PATCHES} <= recorded
    assert set(spans.self_times(tracer.spans)) == recorded

    counts = spans.counters(tracer.take_results())
    assert counts["lp.calls"] == 4
    # One objective per direction; printing a ray does not rebuild it.
    assert counts["canonical.calls"] == 4
    assert counts["parser.calls"] == 2 * len(PROBLEMS) + 1  # universe, relation, one assume
    assert counts["constraints.rows"] == 1
    assert counts["lp.support"] > 0 and counts["lp.max_bits"] > 0
