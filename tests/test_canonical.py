import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoineq.canonical import (
    CanonicalVector,
    canonicalize,
    cond_entropy,
    joint_entropy,
    measure_vector,
    mutual_info,
)
from infoineq.errors import DimensionMismatchError, EmptySetError
from infoineq.parser import Entropy, InfoExpr, MutualInfo, parse_expr

F = Fraction


def vec(n, *values):
    return CanonicalVector(n, tuple(F(v) for v in values))


class TestJointEntropy:
    def test_single_variable_basis(self):
        assert joint_entropy(0b01, 2) == vec(2, 1, 0, 0)

    def test_pair_basis(self):
        assert joint_entropy(0b11, 2) == vec(2, 0, 0, 1)

    def test_three_variable_index(self):
        v = joint_entropy(0b010, 3)
        assert v.coeff(2) == 1
        assert sum(1 for _ in v.nonzero()) == 1

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError):
            joint_entropy(0, 2)


class TestCondEntropy:
    def test_pair_conditional(self):
        # H(X1|X2) = H(X1,X2) - H(X2)
        assert cond_entropy(0b01, 0b10, 2) == vec(2, 0, -1, 1)

    def test_empty_condition_reduces_to_joint(self):
        assert cond_entropy(0b01, 0, 2) == joint_entropy(0b01, 2)

    def test_self_condition_is_zero(self):
        assert cond_entropy(0b01, 0b01, 2).is_zero()

    def test_empty_alpha_rejected(self):
        with pytest.raises(EmptySetError):
            cond_entropy(0, 0b01, 2)

    def test_absorbs_overlap(self):
        assert cond_entropy(0b11, 0b10, 2) == cond_entropy(0b01, 0b10, 2)


class TestMutualInfo:
    def test_unconditional_pair(self):
        assert mutual_info(0b01, 0b10, 0, 2) == vec(2, 1, 1, -1)

    def test_self_information_is_entropy(self):
        assert mutual_info(0b01, 0b01, 0, 2) == joint_entropy(0b01, 2)

    def test_conditioned_four_variables(self):
        # I(A;C,D|B): +{A,B} +{B,C,D} -{A,B,C,D} -{B}
        v = mutual_info(0b0001, 0b1100, 0b0010, 4)
        assert dict(v.nonzero()) == {
            0b0011: F(1), 0b1110: F(1), 0b1111: F(-1), 0b0010: F(-1)}

    def test_empty_arguments_rejected(self):
        with pytest.raises(EmptySetError):
            mutual_info(0, 0b10, 0, 2)
        with pytest.raises(EmptySetError):
            mutual_info(0b01, 0, 0, 2)


class TestCanonicalize:
    def test_difference_of_mutual_informations(self, u4):
        e = parse_expr("I(B;C) - I(A;D)", u4)
        expected = mutual_info(0b0010, 0b0100, 0, 4) - mutual_info(0b0001, 0b1000, 0, 4)
        assert canonicalize(e, 4) == expected

    def test_zero_expression(self):
        assert canonicalize(InfoExpr(()), 3).is_zero()

    def test_chain_rule_cancels(self, u2):
        # Derived by expanding each term over joint entropies:
        #   H(X1,X2) - H(X1) - H(X2|X1)
        # = e({1,2}) - e({1}) - (e({1,2}) - e({1})) = 0.
        by_expansion = (
            joint_entropy(0b11, 2) - joint_entropy(0b01, 2)
            - (joint_entropy(0b11, 2) - joint_entropy(0b01, 2))
        )
        assert by_expansion.is_zero()
        e = parse_expr("H(X1,X2) - H(X1) - H(X2|X1)", u2)
        assert canonicalize(e, 2).is_zero()

    def test_zero_coefficient_contributes_nothing(self, u2):
        assert canonicalize(parse_expr("0 H(X1)", u2), 2).is_zero()

    @pytest.mark.parametrize("measure, message", [
        (Entropy(0), "conditional entropy needs a nonempty left argument"),
        (MutualInfo(1, 0), "mutual information needs nonempty argument sets"),
    ])
    def test_empty_argument_in_built_expression_rejected(self, measure, message):
        e = InfoExpr(((F(1), Entropy(1)), (F(2), measure)))
        with pytest.raises(EmptySetError, match=message):
            canonicalize(e, 2)


@st.composite
def _sized_expr(draw):
    """An expression over n = 1..5 with rational coefficients; conditioning
    sets may be empty and argument sets may overlap."""
    n = draw(st.integers(1, 5))
    full = (1 << n) - 1
    mask = st.integers(1, full)
    coeff = st.fractions(min_value=-10, max_value=10, max_denominator=12)
    measure = st.one_of(
        st.builds(Entropy, mask, st.integers(0, full)),
        st.builds(MutualInfo, mask, mask, st.integers(0, full)),
    )
    terms = draw(st.lists(st.tuples(coeff, measure), max_size=6))
    return n, InfoExpr(tuple(terms))


@settings(max_examples=200, deadline=None)
@given(_sized_expr())
def test_canonicalize_equals_termwise_sum(case):
    n, e = case
    termwise = CanonicalVector.zero(n)
    for coeff, m in e.terms:
        termwise = termwise + measure_vector(m, n).scale(coeff)
    assert canonicalize(e, n) == termwise


def _random_expr(rng, n):
    coeffs = [F(1), F(-1), F(2), F(-3), F(1, 2), F(-5, 3)]
    full = (1 << n) - 1
    terms = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.5:
            terms.append((rng.choice(coeffs), Entropy(rng.randint(1, full), rng.randint(0, full))))
        else:
            terms.append((rng.choice(coeffs),
                          MutualInfo(rng.randint(1, full), rng.randint(1, full), rng.randint(0, full))))
    return InfoExpr(tuple(terms))


class TestAlgebraicProperties:
    def test_linearity(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 4)
            a = rng.choice([F(2), F(-1), F(1, 3), F(0), F(7, 2)])
            e1 = _random_expr(rng, n)
            e2 = _random_expr(rng, n)
            combined = canonicalize(e1.scaled(a) + e2, n)
            split = canonicalize(e1, n).scale(a) + canonicalize(e2, n)
            assert combined == split

    def test_cond_entropy_equals_joint_difference(self):
        # exhaustively for n=3, randomly for n=6
        for n, cases in [(3, None), (6, 400)]:
            full = (1 << n) - 1
            if cases is None:
                pairs = [(a, g) for a in range(1, full + 1) for g in range(full + 1)]
            else:
                rng = random.Random(13)
                pairs = [(rng.randint(1, full), rng.randint(0, full)) for _ in range(cases)]
            for alpha, gamma in pairs:
                if gamma == 0 or alpha | gamma == gamma:
                    continue
                expected = joint_entropy(alpha | gamma, n) - joint_entropy(gamma, n)
                assert cond_entropy(alpha, gamma, n) == expected

    def test_mutual_info_as_entropy_drop(self):
        # I(a;b|g) = H(a|g) - H(a|b+g), for all set triples
        for n, cases in [(2, None), (3, None), (6, 300)]:
            full = (1 << n) - 1
            if cases is None:
                triples = [(a, b, g)
                           for a in range(1, full + 1)
                           for b in range(1, full + 1)
                           for g in range(full + 1)]
            else:
                rng = random.Random(17)
                triples = [(rng.randint(1, full), rng.randint(1, full), rng.randint(0, full))
                           for _ in range(cases)]
            for alpha, beta, gamma in triples:
                expected = cond_entropy(alpha, gamma, n) - cond_entropy(alpha, beta | gamma, n)
                assert mutual_info(alpha, beta, gamma, n) == expected

    def test_equivalence_is_canonical_equality(self, u2):
        # two spellings of the same quantity agree coordinatewise
        a = canonicalize(parse_expr("I(X1;X2)", u2), 2)
        b = canonicalize(parse_expr("H(X1) + H(X2) - H(X1,X2)", u2), 2)
        assert a == b

    def test_dimension_mixing_rejected(self):
        with pytest.raises(DimensionMismatchError):
            joint_entropy(1, 2) + joint_entropy(1, 3)

    def test_scale_and_dot(self):
        v = vec(2, 1, 2, -1)
        assert v.scale(F(1, 2)) == vec(2, F(1, 2), 1, F(-1, 2))
        assert v.dot(vec(2, 1, 0, 3)) == F(-2)
