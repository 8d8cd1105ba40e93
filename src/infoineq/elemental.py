"""Elemental information measures and the matrix of their canonical rows.

For n variables the elemental measures are the n conditional entropies
H(X_i | all others) and the C(n,2) * 2**(n-2) conditional mutual informations
I(X_i ; X_j | X_K) with i < j and K ranging over subsets of the remaining
variables.  Nonnegativity of exactly these measures defines the polymatroid
outer bound of the entropic region, so their canonical rows are the
inequality matrix every proof is built from.

A row touches at most four joint entropies, so a term stores only its signed
subset masks (`units`); the dense `CanonicalVector` over all 2**n - 1
coordinates, `term.row`, is derived from them when a caller asks for it.

Row order is fixed: the conditional entropies by ascending i, then the
conditional mutual informations by ascending (i, j, mask(K)).  Proof output
and golden tests rely on this order being stable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .canonical import CanonicalVector
from .parser import Entropy, Measure, MutualInfo, VarUniverse, render_measure


@dataclass(frozen=True, slots=True)
class ElementalTerm:
    """One elemental measure: H(X_i | rest) when j is None, else I(X_i;X_j|X_K)."""

    n: int
    i: int
    j: int | None
    cond: int  # conditioning mask: the complement of {i} for entropy terms
    units: tuple[tuple[int, int], ...]  # (subset mask, +-1), masks distinct and nonzero

    @property
    def row(self) -> CanonicalVector:
        """The canonical row, built from `units` on each access."""
        return CanonicalVector.from_units(self.n, self.units)

    @property
    def measure(self) -> Measure:
        if self.j is None:
            return Entropy(1 << (self.i - 1), self.cond)
        return MutualInfo(1 << (self.i - 1), 1 << (self.j - 1), self.cond)

    def label(self, names: Sequence[str] | None = None) -> str:
        """The measure in parser syntax; names default to X1..Xn."""
        names = names or [f"X{k}" for k in range(1, self.n + 1)]
        return render_measure(self.measure, VarUniverse(tuple(names)))


@dataclass(frozen=True)
class ElementalMatrix:
    """All elemental measures for one universe size, in canonical row order."""

    n: int
    rows: tuple[ElementalTerm, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def labels(self, names: Sequence[str] | None = None) -> tuple[str, ...]:
        return tuple(term.label(names) for term in self.rows)


def eim_count(n: int) -> int:
    """Number of elemental measures: n + C(n,2) * 2**(n-2); degenerates to 1 at n=1."""
    if n < 1:
        raise ValueError("universe size must be at least 1")
    if n == 1:
        return 1
    return n + comb(n, 2) * (1 << (n - 2))


def _ascending_submasks(mask: int):
    """All submasks of `mask`, in ascending numeric order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def enumerate_eims(n: int) -> ElementalMatrix:
    """Build the elemental matrix for n variables, rows in the documented order.

    Each term holds its signed subset masks; mask 0 (the empty set) has no
    coordinate and is left out.  The masks are written here rather than taken
    from `canonical`'s rewriting rule, which would build a measure per row;
    the tests check every row against `cond_entropy` and `mutual_info`.
    """
    if n < 1:
        raise ValueError("universe size must be at least 1")
    full = (1 << n) - 1
    rows: list[ElementalTerm] = []
    for i in range(1, n + 1):
        rest = full & ~(1 << (i - 1))
        units = ((full, 1), (rest, -1)) if rest else ((full, 1),)
        rows.append(ElementalTerm(n, i, None, rest, units))
    for i in range(1, n + 1):
        bit_i = 1 << (i - 1)
        for j in range(i + 1, n + 1):
            bit_j = 1 << (j - 1)
            for k_mask in _ascending_submasks(full & ~bit_i & ~bit_j):
                units = ((bit_i | k_mask, 1), (bit_j | k_mask, 1), (bit_i | bit_j | k_mask, -1))
                if k_mask:
                    units += ((k_mask, -1),)
                rows.append(ElementalTerm(n, i, j, k_mask, units))
    return ElementalMatrix(n, tuple(rows))


def eim_index(n: int, i: int, j: int | None, cond: int) -> int:
    """Position in `enumerate_eims(n)` of H(X_i | rest) (j None) or I(X_i;X_j|X_cond).

    Mutual information rows need i < j and cond disjoint from both.  The rank
    of cond among the ascending submasks of the other variables is cond with
    the bits of i and j squeezed out.
    """
    if j is None:
        return i - 1
    pairs_before = (i - 1) * n - (i - 1) * i // 2 + (j - i - 1)
    low = cond & ((1 << (i - 1)) - 1)
    mid = (cond >> i) & ((1 << (j - i - 1)) - 1)
    high = cond >> j
    rank = low | mid << (i - 1) | high << (j - 2)
    return n + (pairs_before << (n - 2)) + rank


def cond_entropy_eims(x: int, given: int, n: int) -> list[int]:
    """Rows of `enumerate_eims(n)` that sum to H(X_x | X_given), x not in given.

    H(X_x | B) = H(X_x | rest) + sum_k I(X_x ; X_tk | B + {t1..t(k-1)}), with
    t running over the variables outside B and x in descending index order:
    each step is the chain rule H(x|A) = H(x|A+t) + I(x;t|A).
    """
    rows = [x - 1]
    cond = given
    for t in range(n, 0, -1):
        bit = 1 << (t - 1)
        if t == x or cond & bit:
            continue
        rows.append(eim_index(n, min(x, t), max(x, t), cond))
        cond |= bit
    return rows


def _bits(mask: int) -> list[int]:
    """1-based positions of the set bits of mask, ascending."""
    return [k + 1 for k in range(mask.bit_length()) if mask >> k & 1]


def chain_rule_rows(b: Measure, n: int) -> list[int]:
    """Rows of `enumerate_eims(n)` that sum to a basic measure; a row may repeat.

    Closed form by the chain rule.  With A' = A - G, B' = B - G and
    C = A' & B',

        I(A;B|G) = H(C|G) + sum_ij I(a_i ; b_j | G + C + a_<i + b_<j)
        H(A|G)   = sum_i H(a_i | G + a_<i)

    where a_i runs over A' - C (A' for the entropy) and b_j over B' - C in
    ascending index order, and each H(x|B) is expanded by `cond_entropy_eims`.
    """
    if isinstance(b, Entropy):
        chain, left, right = b.alpha & ~b.gamma, 0, 0
    else:
        left, right = b.alpha & ~b.gamma, b.beta & ~b.gamma
        chain = left & right
        left, right = left & ~chain, right & ~chain
    rows: list[int] = []
    cond = b.gamma
    for x in _bits(chain):
        rows += cond_entropy_eims(x, cond, n)
        cond |= 1 << (x - 1)
    a_cond = cond
    for a in _bits(left):
        b_cond = a_cond
        for bj in _bits(right):
            rows.append(eim_index(n, min(a, bj), max(a, bj), b_cond))
            b_cond |= 1 << (bj - 1)
        a_cond |= 1 << (a - 1)
    return rows


def bim_to_eim_decomposition(
    b: Measure, n: int, matrix: ElementalMatrix | None = None,
) -> list[tuple[ElementalTerm, Fraction]]:
    """Write a basic measure as a nonnegative combination of elemental measures.

    The rows of `chain_rule_rows`, merged and in row order, taken from
    `matrix` (built when not given).
    """
    if matrix is None:
        matrix = enumerate_eims(n)
    counts = Counter(chain_rule_rows(b, n))
    return [(matrix.rows[row], Fraction(counts[row])) for row in sorted(counts)]
