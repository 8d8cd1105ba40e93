"""The integer-preserving phase-1 simplex against the Fraction reference.

Both run Bland's rule, so they must agree exactly on (x, y) for every input,
not only on the verdict.
"""

import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import proof_check
import reference_simplex
from corpus_n3 import CORPUS
from infoineq.canonical import canonicalize
from infoineq.cli import main
from infoineq.constraints import build_constraint_matrix
from infoineq.elemental import enumerate_eims
from infoineq.lp import _lp_columns, _phase1_feasibility
from infoineq.parser import parse_constraint, parse_relation, parse_universe
from infoineq.proof import difference_expr

F = Fraction


def _assert_same_as_reference(columns, rhs):
    got = _phase1_feasibility(columns, rhs)
    assert got == reference_simplex.phase1_feasibility(columns, rhs)
    x, y = got
    if x is not None:
        assert all(v >= 0 for v in x)
        assert [sum(xj * col[i] for xj, col in zip(x, columns)) for i in range(len(rhs))] == list(rhs)
    else:
        assert all(sum(yi * ci for yi, ci in zip(y, col)) <= 0 for col in columns)
        assert sum(yi * bi for yi, bi in zip(y, rhs)) > 0
    return got


def _cone_system(names, relation, constraints):
    u = parse_universe(names)
    decls = [parse_constraint(c, u) for c in constraints]
    q = build_constraint_matrix(decls, u)
    objective = canonicalize(difference_expr(parse_relation(relation, u)), u.n)
    return _lp_columns(enumerate_eims(u.n), q), objective.coeffs


class TestConeProblems:
    def test_every_corpus_entry(self):
        verdicts = set()
        for entry in CORPUS:
            x, _ = _assert_same_as_reference(*_cone_system("X,Y,Z", entry.relation, entry.constraints))
            verdicts.add(x is not None)
        assert verdicts == {True, False}

    def test_four_variable_chain_demo(self):
        for constraint in ("markov: A -> B -> C -> D", "factor: P(A,B) P(C|B) P(D|C)"):
            for relation in ("I(A;D) <= I(B;C)", "I(B;C) <= I(A;D)"):
                _assert_same_as_reference(*_cone_system("A,B,C,D", relation, (constraint,)))


class TestDirected:
    def test_first_pivot_of_two(self):
        # Bland enters column 0 and the min-ratio row is row 0 (1/2 < 2/1),
        # so the first pivot element is 2 and x0 = 1/2, then 3 x1 = 2 - 1/2.
        columns = [(F(2), F(1)), (F(0), F(3))]
        x, y = _assert_same_as_reference(columns, (F(1), F(2)))
        assert x == [F(1, 2), F(1, 2)]
        assert y is None

    def test_rational_columns_and_rhs(self):
        columns = [(F(1, 2), F(-1, 3)), (F(2, 3), F(1, 4)), (F(0), F(-5, 6))]
        x, _ = _assert_same_as_reference(columns, (F(1, 5), F(-1, 7)))
        assert x is not None

    def test_rational_coefficient_problem_proves_and_rechecks(self, capsys):
        argv = ["--vars", "X,Y,Z", "--assume", "1/2 I(X;Y) = 0",
                "--expr", "1/3 H(X,Y) >= 1/5 H(X) + 1/3 H(Y)", "--format", "json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        proof_check.check_proof_document(out)
        lam = json.loads(out)["certificate"]["lambda"]
        assert {entry["den"] for entry in lam} == {"15"}

    def test_rational_coefficient_problem_not_provable(self, capsys):
        # X = Z uniform makes I(X;Z) = H(X), and 1/3 > 1/5.
        argv = ["--vars", "X,Y,Z", "--assume", "1/2 I(X;Y) = 0",
                "--expr", "1/3 I(X;Z) <= 1/5 H(X)", "--format", "json"]
        assert main(argv) == 1
        assert "objective on ray: -" in capsys.readouterr().err


_small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
# Entries from a tiny set make equal ratios, zero rows and degenerate pivots
# common, which exercises the ratio-test tie-break.
_tie_prone = st.sampled_from([F(0), F(0), F(1), F(2), F(-1), F(1, 2)])


@st.composite
def _systems(draw, entries):
    m = draw(st.integers(1, 4))
    nc = draw(st.integers(1, 6))
    columns = [tuple(draw(entries) for _ in range(m)) for _ in range(nc)]
    rhs = tuple(draw(entries) for _ in range(m))
    return columns, rhs


class TestRandomSystems:
    @settings(max_examples=300, deadline=None)
    @given(_systems(_small))
    @example(([(F(1), F(1)), (F(1), F(2))], (F(1), F(1))))  # tied ratios in column 0
    @example(([(F(1), F(0)), (F(0), F(1))], (F(-1), F(1))))  # infeasible, negative rhs
    def test_rational_entries(self, system):
        _assert_same_as_reference(*system)

    @settings(max_examples=300, deadline=None)
    @given(_systems(_tie_prone))
    def test_tie_prone_entries(self, system):
        _assert_same_as_reference(*system)
