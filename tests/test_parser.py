import random
from fractions import Fraction

import pytest

from infoineq.errors import (
    DuplicateNameError,
    EmptyArgumentListError,
    InvalidFactorizationError,
    MissingRelationalOperatorError,
    OverlappingBlocksError,
    OverlappingGroupsError,
    ParseError,
    TooFewBlocksError,
    UnknownVariableError,
)
from infoineq.parser import (
    Entropy,
    Explicit,
    Factorization,
    FuncDep,
    InfoExpr,
    MarkovChain,
    MutualIndep,
    MutualInfo,
    RelOp,
    VarUniverse,
    parse_constraint,
    parse_expr,
    parse_relation,
    parse_universe,
    render_constraint,
    render_expr,
    render_relation,
)


class TestParseUniverse:
    def test_declaration_order_fixes_positions(self):
        u = parse_universe("X1, X2")
        assert u.names == ("X1", "X2")
        assert u.position("X1") == 1
        assert u.position("X2") == 2

    def test_four_variables(self):
        u = parse_universe("A,B,C,D")
        assert u.n == 4
        assert u.mask_of(["A", "C"]) == 0b0101

    def test_space_separated(self):
        assert parse_universe("A B C").names == ("A", "B", "C")

    def test_duplicate_name(self):
        with pytest.raises(DuplicateNameError):
            parse_universe("X, X")

    def test_empty_list(self):
        with pytest.raises(ParseError):
            parse_universe("   ")

    def test_invalid_identifier(self):
        with pytest.raises(ParseError) as exc:
            parse_universe("A, 2B")
        assert exc.value.offset is not None

    def test_trailing_comma(self):
        with pytest.raises(ParseError):
            parse_universe("A, B,")

    def test_code_built_universe_is_validated(self):
        with pytest.raises(ParseError, match="must not be empty"):
            VarUniverse(())
        with pytest.raises(DuplicateNameError, match="duplicate variable name"):
            VarUniverse(("X", "X"))


class TestParseExpr:
    def test_two_mutual_informations(self, u4):
        e = parse_expr("I(B;C) - I(A;D)", u4)
        assert e.terms == (
            (Fraction(1), MutualInfo(0b0010, 0b0100)),
            (Fraction(-1), MutualInfo(0b0001, 0b1000)),
        )

    def test_integer_coefficient(self, u2):
        e = parse_expr("2 H(X1) - I(X1;X2)", u2)
        assert e.terms == (
            (Fraction(2), Entropy(0b01)),
            (Fraction(-1), MutualInfo(0b01, 0b10)),
        )

    def test_empty_conditioning_is_syntax_error(self, u2):
        with pytest.raises(ParseError) as exc:
            parse_expr("H(X1|)", u2)
        assert not isinstance(exc.value, EmptyArgumentListError)
        assert exc.value.offset is not None

    def test_rational_coefficient(self, u2):
        e = parse_expr("1/2 H(X1)", u2)
        assert e.terms == ((Fraction(1, 2), Entropy(0b01)),)

    def test_explicit_star(self, u2):
        assert parse_expr("2*H(X1)", u2) == parse_expr("2 H(X1)", u2)

    def test_zero_denominator(self, u2):
        with pytest.raises(ParseError):
            parse_expr("3/0 H(X1)", u2)

    def test_decimal_rejected(self, u2):
        with pytest.raises(ParseError) as exc:
            parse_expr("2.5 H(X1)", u2)
        assert exc.value.offset == 1

    def test_unknown_variable(self, u2):
        with pytest.raises(UnknownVariableError) as exc:
            parse_expr("H(X1,W)", u2)
        assert exc.value.offset is not None

    def test_empty_entropy_arguments(self, u2):
        with pytest.raises(EmptyArgumentListError):
            parse_expr("H()", u2)

    def test_empty_mi_arguments(self, u2):
        with pytest.raises(EmptyArgumentListError):
            parse_expr("I(X1;)", u2)
        with pytest.raises(EmptyArgumentListError):
            parse_expr("I(;X1)", u2)

    def test_bare_zero(self, u2):
        assert parse_expr("0", u2) == InfoExpr(())

    def test_zero_coefficient_term_kept(self, u2):
        e = parse_expr("0 H(X1)", u2)
        assert e.terms == ((Fraction(0), Entropy(0b01)),)

    def test_parenthesized_group_is_distributed(self, u2):
        e = parse_expr("- 2/5 (1/2 I(X1;X2) - H(X1)) + (H(X2))", u2)
        assert e.terms == (
            (Fraction(-1, 5), MutualInfo(0b01, 0b10)),
            (Fraction(2, 5), Entropy(0b01)),
            (Fraction(1), Entropy(0b10)),
        )

    def test_unclosed_group(self, u2):
        with pytest.raises(ParseError):
            parse_expr("2 (H(X1) - H(X2)", u2)

    def test_coefficient_digit_bound(self, u2):
        longest = "9" * 1000
        assert parse_expr(f"{longest}/{'8' * 1000} H(X1)", u2).terms[0][0] == Fraction(
            int(longest), int("8" * 1000))
        with pytest.raises(ParseError) as exc:
            parse_expr(f"H(X2) + {longest}9 H(X1)", u2)
        assert exc.value.offset == 8
        with pytest.raises(ParseError) as exc:
            parse_expr(f"H(X2) + 1/{longest}9 H(X1)", u2)
        assert exc.value.offset == 10

    def test_group_scaled_coefficient_bound(self, u2):
        longest = "9" * 1000
        assert parse_expr(f"1/{longest} ({longest} H(X1))", u2).terms == (
            (Fraction(1), Entropy(0b01)),)
        for text in (f"H(X2) - {longest} ({longest} H(X1))",
                     f"H(X2) - 1/{longest} (1/{longest} H(X1) + H(X2))"):
            with pytest.raises(ParseError) as exc:
                parse_expr(text, u2)
            assert exc.value.offset == 8

    def test_leading_minus(self, u4):
        e = parse_expr("-I(A;D) + I(B;C)", u4)
        assert e.terms[0] == (Fraction(-1), MutualInfo(0b0001, 0b1000))

    def test_conditioned_measures(self, u4):
        e = parse_expr("I(A;C,D|B)", u4)
        assert e.terms == ((Fraction(1), MutualInfo(0b0001, 0b1100, 0b0010)),)

    def test_trailing_garbage(self, u2):
        with pytest.raises(ParseError):
            parse_expr("H(X1) H(X2)", u2)

    def test_duplicate_names_absorb(self, u2):
        assert parse_expr("H(X1,X1)", u2).terms[0][1] == Entropy(0b01)


def _random_expr(rng: random.Random, u) -> InfoExpr:
    coeffs = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2),
              Fraction(-5, 3), Fraction(0)]
    full = u.full_mask
    terms = []
    for _ in range(rng.randint(1, 5)):
        coeff = rng.choice(coeffs)
        gamma = rng.randint(0, full)
        if rng.random() < 0.5:
            alpha = rng.randint(1, full)
            terms.append((coeff, Entropy(alpha, gamma)))
        else:
            alpha = rng.randint(1, full)
            beta = rng.randint(1, full)
            terms.append((coeff, MutualInfo(alpha, beta, gamma)))
    return InfoExpr(tuple(terms))


class TestRenderRoundTrip:
    def test_expr_round_trip_fixed(self, u4):
        for text in [
            "I(B;C) - I(A;D)",
            "2 H(A) - I(A;B) + 1/2 H(C|D)",
            "-H(A) + H(B)",
            "0",
            "H(A,B,C,D)",
            "0 H(A) + I(B;C|A,D)",
        ]:
            e = parse_expr(text, u4)
            assert parse_expr(render_expr(e, u4), u4) == e

    def test_expr_round_trip_random(self, u4):
        rng = random.Random(7)
        for _ in range(300):
            e = _random_expr(rng, u4)
            rendered = render_expr(e, u4)
            assert parse_expr(rendered, u4) == e

    def test_relation_round_trip(self, u4):
        for text in ["I(A;D) <= I(B;C)", "H(A) >= 0", "H(A,B) = H(A) + H(B|A)"]:
            r = parse_relation(text, u4)
            assert parse_relation(render_relation(r, u4), u4) == r


class TestParseRelation:
    def test_leq(self, u4):
        r = parse_relation("I(A;D) <= I(B;C)", u4)
        assert r.op is RelOp.LEQ

    def test_chain_rule_equality(self, u2):
        r = parse_relation("H(X1,X2) = H(X1) + H(X2|X1)", u2)
        assert r.op is RelOp.EQ
        assert len(r.rhs.terms) == 2

    def test_strict_inequality_rejected(self, u4):
        with pytest.raises(ParseError, match="strict"):
            parse_relation("I(A;D) < I(B;C)", u4)

    def test_missing_operator(self, u2):
        with pytest.raises(MissingRelationalOperatorError):
            parse_relation("H(X1) H(X2)", u2)

    def test_zero_right_hand_side(self, u2):
        r = parse_relation("I(X1;X2) >= 0", u2)
        assert r.rhs == InfoExpr(())

    def test_deep_parentheses_raise_parse_error(self, u2):
        # 600 levels would exhaust the interpreter's stack without a bound.
        deep = "(" * 600 + "H(X1)" + ")" * 600
        for fn, text in ((parse_expr, deep), (parse_relation, deep + " >= 0"),
                         (parse_constraint, deep + " = 0")):
            with pytest.raises(ParseError, match="nested deeper") as exc:
                fn(text, u2)
            assert exc.value.offset == 100

    def test_common_denominator_bound(self, u2):
        widest = 10**1000 - 1  # 3322 bits, the most a denominator may have
        r = parse_relation(f"1/{widest} H(X1) >= 1/{widest} H(X2)", u2)
        assert r.lhs.terms[0][0] == Fraction(1, widest)
        coprime = f"1/{10**998 + 1} H(X1) + 1/{10**998 + 3} H(X2)"
        assert parse_expr(coprime, u2).terms[1][0] == Fraction(1, 10**998 + 3)
        for fn, text in ((parse_relation, coprime + " >= 0"),
                         (parse_relation, f"1/{10**998 + 1} H(X1) <= 1/{10**998 + 3} H(X2)"),
                         (parse_constraint, coprime + " = 0")):
            with pytest.raises(ParseError, match="common denominator"):
                fn(text, u2)

    def test_nesting_bound_is_inclusive(self, u2):
        e = parse_expr("2 " + "(" * 100 + "H(X1)" + ")" * 100, u2)
        assert e.terms == ((Fraction(2), Entropy(0b01)),)


class TestErrorDiscipline:
    def test_random_garbage_raises_only_package_errors(self, u3):
        from infoineq.errors import InfoIneqError

        rng = random.Random(41)
        alphabet = "HIXYZ();|,+-*/<=> 0123456789abf:"
        for _ in range(800):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 25)))
            for fn in (parse_expr, parse_relation, parse_constraint):
                try:
                    fn(text, u3)
                except InfoIneqError:
                    pass


class TestParseConstraint:
    def test_markov_singleton_blocks(self, u4):
        decl = parse_constraint("markov: A -> B -> C -> D", u4)
        assert decl == MarkovChain((0b0001, 0b0010, 0b0100, 0b1000))

    def test_markov_parenthesized_blocks(self, u4):
        decl = parse_constraint("markov: (A,B) -> C -> D", u4)
        assert decl == MarkovChain((0b0011, 0b0100, 0b1000))

    def test_markov_too_few_blocks(self, u4):
        with pytest.raises(TooFewBlocksError):
            parse_constraint("markov: A -> B", u4)

    def test_markov_overlap(self, u4):
        with pytest.raises(OverlappingBlocksError):
            parse_constraint("markov: A -> A -> B", u4)

    def test_indep_groups(self, u4):
        decl = parse_constraint("indep: A,B ; C ; D", u4)
        assert decl == MutualIndep((0b0011, 0b0100, 0b1000))

    def test_indep_needs_two_groups(self, u4):
        with pytest.raises(TooFewBlocksError):
            parse_constraint("indep: A", u4)

    def test_indep_overlap(self, u4):
        with pytest.raises(OverlappingGroupsError):
            parse_constraint("indep: A,B ; B", u4)

    def test_funcdep(self, u4):
        decl = parse_constraint("func: C = f(A,B)", u4)
        assert decl == FuncDep(0b0100, 0b0011)

    def test_factorization(self, u4):
        decl = parse_constraint("factor: P(A,B) P(C|B) P(D|C)", u4)
        assert decl == Factorization(((0b0011, 0), (0b0100, 0b0010), (0b1000, 0b0100)))

    def test_factorization_chain_rule_only(self, u2):
        decl = parse_constraint("factor: P(X1) P(X2|X1)", u2)
        assert decl == Factorization(((0b01, 0), (0b10, 0b01)))

    def test_factorization_forward_reference(self, u4):
        with pytest.raises(InvalidFactorizationError):
            parse_constraint("factor: P(A) P(B|C) P(C,D|A)", u4)

    def test_factorization_need_not_cover_universe(self, u4):
        # A factorization describes the joint PMF of the variables it names.
        decl = parse_constraint("factor: P(A) P(B|A)", u4)
        assert decl == Factorization(((0b0001, 0), (0b0010, 0b0001)))

    def test_factorization_duplicate_head(self, u4):
        with pytest.raises(InvalidFactorizationError):
            parse_constraint("factor: P(A,B) P(B,C) P(D)", u4)

    def test_factorization_heads_partition_universe(self, u4):
        decl = parse_constraint("factor: P(A,B) P(C|B) P(D|C)", u4)
        heads = [h for h, _ in decl.factors]
        union = 0
        for h in heads:
            assert h & union == 0
            union |= h
        assert union == u4.full_mask

    def test_explicit(self, u4):
        decl = parse_constraint("I(A;C|B) = 0", u4)
        assert isinstance(decl, Explicit)
        assert decl.expr == parse_expr("I(A;C|B)", u4)

    def test_explicit_moves_rhs_over(self, u4):
        decl = parse_constraint("H(A) = H(B)", u4)
        assert decl.expr == parse_expr("H(A) - H(B)", u4)

    def test_explicit_requires_equality(self, u4):
        with pytest.raises(ParseError, match="equalit"):
            parse_constraint("H(A) <= 0", u4)

    def test_constraint_render_round_trip(self, u4):
        for text in [
            "markov: (A,B) -> C -> D",
            "indep: A ; B,C ; D",
            "func: C = f(A,B)",
            "factor: P(A,B) P(C|B) P(D|C)",
            "I(A;C|B) = 0",
            "H(A) - H(B) = 0",
        ]:
            decl = parse_constraint(text, u4)
            assert parse_constraint(render_constraint(decl, u4), u4) == decl
