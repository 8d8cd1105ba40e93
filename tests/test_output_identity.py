"""Printed output of every benchmark problem, pinned by digest.

Runs `cli.main` in-process on every problem of the three benchmark
workloads (`perfbench/workloads.py`) at seeds 1 and 2, in each output
format, and hashes the (exit code, stdout, stderr) triples of each
(workload, format) pair in run order.  A change that alters any printed
byte fails here.  A change meant to alter output updates the digest and
says in CHANGES.md which outputs changed.
"""

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from infoineq.cli import main  # noqa: E402

SEEDS = (1, 2)
FORMATS = ("json", "text", "latex")

DIGESTS = {
    ("chain_full_n5", "json"): "036386c83f9edab09b2312ff5d1c30216588bda03e549fb71b12803b55e54268",
    ("chain_full_n5", "text"): "292efa442019ca5488260ec1d8ca3466bca5f711cc5b08c5f0da6ea0ef675efe",
    ("chain_full_n5", "latex"): "842725fd9c6c44c3dac135087566ed70407d0bc395c9f5f18dfe20ed8db98e69",
    ("corpus_n3", "json"): "ddde9be1860c572dc6aee5a2f1deaa48b0cba787691880aea775177fc32a2840",
    ("corpus_n3", "text"): "2705f0e1128a948859fc4c778018cf5cfe7ddb2311289134633c3c911febec71",
    ("corpus_n3", "latex"): "16e259ca9939d5cbbe2aa66c7774c6dc381ee065f5b60c049717c514c7f172ba",
    ("ladder_unused_n5", "json"): "95fbba25c70503396ec3f93b1644413ededf7888be5fb069da849cadf5db0d0d",
    ("ladder_unused_n5", "text"): "3e6b762b1385f84d6de3e2a6554713f6038fc5d563c5582144477c710b691a6c",
    ("ladder_unused_n5", "latex"): "65beca47034d6659dac0a7501f802f52e6bec68943eca909a8a40985f94c0200",
}


def _digest(workload: str, fmt: str) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for problem in workloads.generate(workload, seed):
            argv = problem.argv()
            assert argv[-2:] == ["--format", "json"]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv[:-1] + [fmt])
            h.update(repr((problem.id, code, out.getvalue(), err.getvalue())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("fmt", FORMATS)
def test_output_is_byte_identical(workload, fmt):
    assert _digest(workload, fmt) == DIGESTS[workload, fmt]
