import tracemalloc
from fractions import Fraction

import pytest

from infoineq.canonical import CanonicalVector, canonicalize, cond_entropy, measure_vector, mutual_info
from infoineq.elemental import (
    bim_to_eim_decomposition,
    cond_entropy_eims,
    eim_count,
    eim_index,
    enumerate_eims,
)
from infoineq.parser import Entropy, MutualInfo, parse_expr

F = Fraction


class TestEnumerate:
    def test_two_variable_golden(self):
        m = enumerate_eims(2)
        assert m.labels() == ("H(X1|X2)", "H(X2|X1)", "I(X1;X2)")
        assert [t.row.coeffs for t in m.rows] == [
            (F(0), F(-1), F(1)),
            (F(-1), F(0), F(1)),
            (F(1), F(1), F(-1)),
        ]

    def test_three_variables_has_nine_rows(self):
        assert len(enumerate_eims(3)) == 9

    def test_single_variable_degenerates(self):
        m = enumerate_eims(1)
        assert m.labels() == ("H(X1)",)
        assert m.rows[0].row.coeffs == (F(1),)

    def test_rejects_empty_universe(self):
        with pytest.raises(ValueError):
            enumerate_eims(0)
        with pytest.raises(ValueError):
            eim_count(0)

    def test_order_is_deterministic(self):
        assert enumerate_eims(4) == enumerate_eims(4)

    def test_row_order_key_is_ascending(self):
        m = enumerate_eims(4)
        entropy_rows = [t for t in m.rows if t.j is None]
        mi_rows = [t for t in m.rows if t.j is not None]
        assert m.rows[: len(entropy_rows)] == tuple(entropy_rows)
        keys = [(t.i, t.j, t.cond) for t in mi_rows]
        assert keys == sorted(keys)

    def test_labels_with_custom_names(self, u4):
        m = enumerate_eims(4)
        labels = m.labels(u4.names)
        assert labels[0] == "H(A|B,C,D)"
        assert "I(A;B)" in labels

    def test_rows_match_their_labels(self, u3):
        for term in enumerate_eims(3).rows:
            reparsed = canonicalize(parse_expr(term.label(u3.names), u3), 3)
            assert reparsed == term.row


class TestRowLookup:
    def test_rows_equal_the_canonical_measures(self):
        for n in range(1, 7):
            for term in enumerate_eims(n).rows:
                if term.j is None:
                    expected = cond_entropy(1 << (term.i - 1), term.cond, n)
                else:
                    expected = mutual_info(1 << (term.i - 1), 1 << (term.j - 1), term.cond, n)
                assert term.row == expected

    def test_index_matches_enumeration_order(self):
        for n in range(1, 7):
            for k, term in enumerate(enumerate_eims(n).rows):
                assert eim_index(n, term.i, term.j, term.cond) == k

    def test_cond_entropy_rows_sum_to_the_measure(self):
        for n in range(1, 6):
            m = enumerate_eims(n)
            full = (1 << n) - 1
            for x in range(1, n + 1):
                for given in range(full + 1):
                    if given >> (x - 1) & 1:
                        continue
                    rows = cond_entropy_eims(x, given, n)
                    assert len(set(rows)) == len(rows)
                    total = CanonicalVector.zero(n)
                    for row in rows:
                        total = total + m.rows[row].row
                    assert total == cond_entropy(1 << (x - 1), given, n)


class TestSparseRows:
    def test_measure_gives_the_row(self):
        for n in range(1, 6):
            for term in enumerate_eims(n).rows:
                assert measure_vector(term.measure, n) == term.row
                assert len(term.units) == sum(1 for v in term.row.coeffs if v)

    def test_enumeration_keeps_no_dense_rows(self):
        # 4617 rows at n = 9; dense rows of 511 Fractions each retained 20 MB.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            m = enumerate_eims(9)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(m) == 4617
        assert retained < 5_000_000, f"enumerate_eims(9) retained {retained / 1e6:.1f} MB"


class TestCount:
    def test_count_formula_values(self):
        # n + C(n,2) * 2**(n-2), evaluated independently with integer math
        assert [eim_count(n) for n in range(1, 7)] == [1, 3, 9, 28, 85, 246]

    def test_count_matches_enumeration(self):
        for n in range(1, 7):
            assert len(enumerate_eims(n)) == eim_count(n)


def _indicator_point(s_mask: int, n: int) -> CanonicalVector:
    """Entropy vector of: variables in s_mask copy one shared fair bit, rest constant."""
    coeffs = tuple(F(1) if mask & s_mask else F(0) for mask in range(1, 1 << n))
    return CanonicalVector(n, coeffs)


class TestRowsAreRealInequalities:
    def test_each_row_has_tight_and_slack_entropic_points(self):
        # Points built from explicit distributions: independent fair bits and
        # shared-bit copies, so every one lies in the cone.
        for n in range(2, 5):
            m = enumerate_eims(n)
            points = [_indicator_point(s, n) for s in range(1, 1 << n)]
            for term in m.rows:
                if term.j is None:
                    slack = _indicator_point(1 << (term.i - 1), n)
                    other = term.cond & -term.cond  # lowest conditioning bit
                    tight = _indicator_point(other, n)
                else:
                    # shared bit between i and j gives value 1
                    slack = _indicator_point((1 << (term.i - 1)) | (1 << (term.j - 1)), n)
                    tight = _indicator_point(1 << (term.i - 1), n)
                assert term.row.dot(slack) > 0
                assert term.row.dot(tight) == 0
            for p in points:
                assert all(term.row.dot(p) >= 0 for term in m.rows)


class TestDecomposition:
    def test_entropy_splits_into_conditional_plus_mi(self):
        combo = bim_to_eim_decomposition(Entropy(0b01), 2)
        as_labels = {term.label(): coeff for term, coeff in combo}
        assert as_labels == {"H(X1|X2)": F(1), "I(X1;X2)": F(1)}

    def test_elemental_measure_is_itself(self):
        combo = bim_to_eim_decomposition(MutualInfo(0b01, 0b10), 2)
        assert [(t.label(), c) for t, c in combo] == [("I(X1;X2)", F(1))]

    def test_pair_entropy_conditional_three_vars(self):
        b = Entropy(0b011, 0b100)  # H(X1,X2|X3)
        combo = bim_to_eim_decomposition(b, 3)
        total = CanonicalVector.zero(3)
        for term, coeff in combo:
            assert coeff > 0
            total = total + term.row.scale(coeff)
        assert total == measure_vector(b, 3)

    def test_degenerate_measure_gives_empty_combination(self):
        combo = bim_to_eim_decomposition(Entropy(0b01, 0b01), 2)
        assert combo == []

    def test_reuses_prebuilt_matrix(self):
        m = enumerate_eims(3)
        a = bim_to_eim_decomposition(Entropy(0b001), 3, m)
        b = bim_to_eim_decomposition(Entropy(0b001), 3)
        assert [(t.label(), c) for t, c in a] == [(t.label(), c) for t, c in b]
