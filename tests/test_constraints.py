from fractions import Fraction

import pytest

from infoineq.canonical import canonicalize, cond_entropy, mutual_info
from infoineq.constraints import build_constraint_matrix, dedup_rows
from infoineq.errors import (
    ConstraintError,
    EmptySetError,
    InvalidFactorizationError,
    OutOfUniverseError,
    OverlappingBlocksError,
    OverlappingGroupsError,
    TooFewBlocksError,
)
from infoineq.lp import ConeProblem, ProvenSTI, solve
from infoineq.parser import (
    Entropy,
    Explicit,
    Factorization,
    FuncDep,
    InfoExpr,
    MarkovChain,
    MutualIndep,
    MutualInfo,
    parse_constraint,
    parse_expr,
)

F = Fraction


def _rows(decl, u):
    """The rows one declaration compiles to, through the public entry point."""
    return build_constraint_matrix([decl], u).rows


class TestMarkov:
    def test_four_singleton_blocks(self, u4):
        rows = _rows(MarkovChain((0b0001, 0b0010, 0b0100, 0b1000)), u4)
        assert [r.label for r in rows] == ["I(A;C,D|B)", "I(A,B;D|C)"]
        assert rows[0].row == mutual_info(0b0001, 0b1100, 0b0010, 4)
        assert rows[1].row == mutual_info(0b0011, 0b1000, 0b0100, 4)

    def test_three_blocks_single_cut(self, u3):
        rows = _rows(MarkovChain((0b001, 0b010, 0b100)), u3)
        assert [r.label for r in rows] == ["I(X;Z|Y)"]
        assert rows[0].row == mutual_info(0b001, 0b100, 0b010, 3)

    def test_overlapping_blocks(self, u4):
        with pytest.raises(OverlappingBlocksError):
            build_constraint_matrix([MarkovChain((0b0001, 0b0001, 0b0010))], u4)

    def test_too_few_blocks(self, u4):
        with pytest.raises(TooFewBlocksError):
            build_constraint_matrix([MarkovChain((0b0001, 0b0010))], u4)

    def test_empty_block(self, u4):
        with pytest.raises(EmptySetError):
            build_constraint_matrix([MarkovChain((0b0001, 0, 0b0010))], u4)

    def test_block_chain_five_blocks(self):
        from infoineq.parser import parse_universe

        u5 = parse_universe("A,B,C,D,E")
        rows = _rows(MarkovChain((1, 2, 4, 8, 16)), u5)
        assert [r.label for r in rows] == [
            "I(A;C,D,E|B)", "I(A,B;D,E|C)", "I(A,B,C;E|D)"]


class TestIndep:
    def test_pair_row_matches_negated_mi(self, u2):
        rows = _rows(MutualIndep((0b01, 0b10)), u2)
        assert len(rows) == 1
        assert rows[0].row.coeffs == (F(-1), F(-1), F(1))
        assert rows[0].label == "H(X1,X2) - H(X1) - H(X2)"

    def test_three_groups_single_row(self, u3):
        rows = _rows(MutualIndep((0b001, 0b010, 0b100)), u3)
        expected = canonicalize(
            parse_expr("H(X,Y,Z) - H(X) - H(Y) - H(Z)", u3), 3)
        assert rows[0].row == expected

    def test_pairwise_mode_is_separate_declarations(self, u3):
        # pairwise independence: one declaration per pair, each its own row
        pair_rows = [_rows(MutualIndep(pair), u3)[0]
                     for pair in ((0b001, 0b010), (0b001, 0b100), (0b010, 0b100))]
        assert len({r.row.coeffs for r in pair_rows}) == 3

    def test_overlap_rejected(self, u3):
        with pytest.raises(OverlappingGroupsError):
            build_constraint_matrix([MutualIndep((0b011, 0b010))], u3)


class TestFuncDep:
    def test_target_of_two_sources(self, u3):
        [row] = _rows(FuncDep(0b100, 0b011), u3)
        assert row.label == "H(Z|X,Y)"
        assert row.row == canonicalize(parse_expr("H(X,Y,Z) - H(X,Y)", u3), 3)

    def test_two_variable_row(self, u2):
        [row] = _rows(FuncDep(0b10, 0b01), u2)
        assert row.row.coeffs == (F(-1), F(0), F(1))

    def test_target_inside_source_gives_zero_row(self, u3):
        # H(X|X,Y) canonicalizes to zero, and zero rows are dropped.
        assert canonicalize(parse_expr("H(X|X,Y)", u3), 3).is_zero()
        assert _rows(FuncDep(0b001, 0b011), u3) == ()

    def test_empty_sets_rejected(self, u3):
        with pytest.raises(EmptySetError):
            build_constraint_matrix([FuncDep(0, 0b001)], u3)


class TestFactorization:
    def test_chain_factorization(self, u4):
        rows = _rows(Factorization(((0b0011, 0), (0b0100, 0b0010), (0b1000, 0b0100))), u4)
        assert [r.label for r in rows] == ["I(C;A|B)", "I(D;A,B|C)"]

    def test_plain_chain_rule_emits_nothing(self, u2):
        assert _rows(Factorization(((0b01, 0), (0b10, 0b01))), u2) == ()

    def test_product_of_marginals(self, u2):
        rows = _rows(Factorization(((0b01, 0), (0b10, 0))), u2)
        assert [r.label for r in rows] == ["I(X2;X1)"]


class TestExplicit:
    def test_single_measure(self, u3):
        [row] = _rows(Explicit(parse_expr("I(X;Z|Y)", u3)), u3)
        assert row.row == mutual_info(0b001, 0b100, 0b010, 3)
        assert row.origin_text == "I(X;Z|Y) = 0"

    def test_funcdep_spelled_explicitly(self, u2):
        [explicit] = _rows(Explicit(parse_expr("H(X1|X2)", u2)), u2)
        assert explicit.row == cond_entropy(0b01, 0b10, 2)

    def test_plain_entropy(self, u2):
        [row] = _rows(Explicit(parse_expr("H(X1)", u2)), u2)
        assert row.row.coeffs == (F(1), F(0), F(0))


class TestBuildMatrix:
    def test_markov_chain_gives_two_rows(self, u4):
        decl = parse_constraint("markov: A -> B -> C -> D", u4)
        q = build_constraint_matrix([decl], u4)
        assert len(q) == 2

    def test_empty_declarations(self, u4):
        assert len(build_constraint_matrix([], u4)) == 0

    def test_markov_plus_factorization_dedup(self, u4):
        decls = [
            parse_constraint("markov: A -> B -> C -> D", u4),
            parse_constraint("factor: P(A,B) P(C|B) P(D|C)", u4),
        ]
        q = build_constraint_matrix(decls, u4)
        assert len(q) <= 4
        coeff_sets = [r.row.coeffs for r in q.rows]
        assert len(set(coeff_sets)) == len(coeff_sets)

    def test_duplicate_declarations_collapse(self, u4):
        decl = parse_constraint("markov: A -> B -> C -> D", u4)
        q1 = build_constraint_matrix([decl], u4)
        q2 = build_constraint_matrix([decl, decl], u4)
        assert q1 == q2

    def test_dedup_is_idempotent(self, u4):
        decls = [
            parse_constraint("markov: A -> B -> C -> D", u4),
            parse_constraint("factor: P(A,B) P(C|B) P(D|C)", u4),
        ]
        rows = build_constraint_matrix(decls, u4).rows
        assert dedup_rows(rows) == rows

    @pytest.mark.parametrize("text, decl, error", [
        ("markov: A -> B", MarkovChain((0b0001, 0b0010)), TooFewBlocksError),
        ("markov: A -> A,B -> C", MarkovChain((0b0001, 0b0011, 0b0100)), OverlappingBlocksError),
        ("indep: A", MutualIndep((0b0001,)), TooFewBlocksError),
        ("indep: A,B ; B", MutualIndep((0b0011, 0b0010)), OverlappingGroupsError),
        ("factor: P(A,B) P(B,C) P(D)",
         Factorization(((0b0011, 0), (0b0110, 0), (0b1000, 0))), InvalidFactorizationError),
        ("factor: P(A) P(B|C) P(C,D|A)",
         Factorization(((0b0001, 0), (0b0010, 0b0100), (0b1100, 0b0001))),
         InvalidFactorizationError),
    ])
    def test_code_built_declarations_fail_like_parsed_ones(self, u4, text, decl, error):
        with pytest.raises(error) as parsed:
            parse_constraint(text, u4)
        with pytest.raises(error) as built:
            build_constraint_matrix([decl], u4)
        assert str(built.value) == str(parsed.value)

    def test_labels_reparse_to_rows(self, u4):
        decls = [
            parse_constraint("markov: A -> B -> C -> D", u4),
            parse_constraint("factor: P(A,B) P(C|B) P(D|C)", u4),
            parse_constraint("indep: A ; B,C", u4),
            parse_constraint("func: D = f(A,B,C)", u4),
            parse_constraint("2 I(A;B) - H(C) = 0", u4),
        ]
        q = build_constraint_matrix(decls, u4)
        for row in q.rows:
            assert canonicalize(parse_expr(row.label, u4), 4) == row.row


class TestCodeBuiltSets:
    @pytest.mark.parametrize("decl, positions", [
        (MarkovChain((0b1, 0b10, 0b1000000)), "7"),
        (FuncDep(0b1000, 0b1), "4"),
        (Explicit(InfoExpr(((F(1), Entropy(0b10000)),))), "5"),
        (FuncDep(0b1, 0b11000), "4, 5"),
        (MutualIndep((0b1, 0b1010)), "4"),
        (Factorization(((0b1, 0), (0b10, 0b100001))), "6"),
        (Explicit(InfoExpr(((F(1), MutualInfo(0b1, 0b10, 0b1000)),))), "4"),
    ])
    def test_sets_outside_the_universe(self, u3, decl, positions):
        with pytest.raises(OutOfUniverseError, match=f"position\\(s\\) {positions} outside"):
            build_constraint_matrix([decl], u3)

    def test_negative_mask(self, u3):
        with pytest.raises(OutOfUniverseError, match="negative set mask"):
            build_constraint_matrix([FuncDep(0b1, -2)], u3)

    @pytest.mark.parametrize("decl", [
        MarkovChain((0b001, 0, 0b010)),
        FuncDep(0, 0b001),
        Factorization(((0b001, 0), (0, 0b001))),
    ])
    def test_empty_sets_are_constraint_errors(self, u3, decl):
        try:
            build_constraint_matrix([decl], u3)
        except ConstraintError as exc:
            assert isinstance(exc, EmptySetError)
        else:
            pytest.fail(f"{decl} was accepted")


class TestMarkovFactorizationEquivalence:
    def test_same_solution_space_for_four_chain(self, u4, g4):
        # Each compiled row of one set must vanish on the cone cut by the
        # other: q and -q both as nonnegative combinations modulo the span.
        markov = build_constraint_matrix([parse_constraint("markov: A -> B -> C -> D", u4)], u4)
        factor = build_constraint_matrix(
            [parse_constraint("factor: P(A,B) P(C|B) P(D|C)", u4)], u4)
        for primal, other in ((markov, factor), (factor, markov)):
            for row in primal.rows:
                for target in (row.row, -row.row):
                    result = solve(ConeProblem(target, g4, other))
                    assert isinstance(result, ProvenSTI)
