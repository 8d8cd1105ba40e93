"""Compile constraint declarations into equality rows with provenance.

Each declared PMF structure becomes one or more canonical rows asserted to
vanish on every admissible entropy vector:

  * Markov chain B1 -> ... -> Bm: the m-2 cut conditions
    I(B1..Bk ; B(k+2)..Bm | B(k+1)) = 0.
  * mutual independence of groups: H(union) - sum of group entropies = 0.
  * functional dependency: H(target | source) = 0.
  * PMF factorization: for each factor beyond the first,
    I(head ; earlier-heads-minus-given | given) = 0, skipping factors whose
    given set already covers everything introduced.
  * explicit: the canonical vector of the given expression.

Each compiler returns its rows as expressions.  `build_constraint_matrix`
is the entry point and the one place rows are built: it checks each
declaration with `parser.validate_constraint`, so the compilers assume valid
input and check nothing, then canonicalizes every expression and labels it
with its rendering, which reparses to exactly the stored vector, plus the
rendered declaration that produced it; proofs quote both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .canonical import CanonicalVector, canonicalize
from .parser import (
    ConstraintDecl,
    Entropy,
    Explicit,
    Factorization,
    FuncDep,
    InfoExpr,
    MarkovChain,
    Measure,
    MutualIndep,
    MutualInfo,
    VarUniverse,
    render_constraint,
    render_expr,
    validate_constraint,
)


@dataclass(frozen=True)
class ConstraintRow:
    """One equality row: `row` vanishes on every admissible entropy vector."""

    row: CanonicalVector
    label: str  # expression text that canonicalizes to `row`
    origin_text: str  # rendered declaration, for proof provenance


@dataclass(frozen=True)
class ConstraintMatrix:
    """Deduplicated equality rows over one universe."""

    n: int
    rows: tuple[ConstraintRow, ...]

    def __len__(self) -> int:
        return len(self.rows)


def _one(measure: Measure) -> InfoExpr:
    return InfoExpr(((Fraction(1), measure),))


def _union(masks: Iterable[int]) -> int:
    out = 0
    for mask in masks:
        out |= mask
    return out


def _markov_rows(decl: MarkovChain) -> list[InfoExpr]:
    """Cut conditions of a Markov chain: one row per interior block."""
    b = decl.blocks
    return [_one(MutualInfo(_union(b[:k]), _union(b[k + 1:]), b[k])) for k in range(1, len(b) - 1)]


def _indep_rows(decl: MutualIndep) -> list[InfoExpr]:
    """Mutual independence of groups: H(union) = sum of group entropies."""
    terms = [(Fraction(1), Entropy(_union(decl.groups)))]
    terms += [(Fraction(-1), Entropy(g)) for g in decl.groups]
    return [InfoExpr(tuple(terms))]


def _funcdep_rows(decl: FuncDep) -> list[InfoExpr]:
    """Functional dependency: H(target | source) = 0."""
    return [_one(Entropy(decl.target, decl.source))]


def _factorization_rows(decl: Factorization) -> list[InfoExpr]:
    """Conditional independencies read off an ordered PMF factorization."""
    introduced = 0
    rows = []
    for head, given in decl.factors:
        rest = introduced & ~given
        if rest:
            rows.append(_one(MutualInfo(head, rest, given)))
        introduced |= head
    return rows


def _explicit_rows(decl: Explicit) -> list[InfoExpr]:
    """A user-supplied expression asserted to equal zero."""
    return [decl.expr]


_ROWS = {
    MarkovChain: _markov_rows,
    MutualIndep: _indep_rows,
    FuncDep: _funcdep_rows,
    Factorization: _factorization_rows,
    Explicit: _explicit_rows,
}


def dedup_rows(rows: Iterable[ConstraintRow]) -> tuple[ConstraintRow, ...]:
    """Drop identically-zero rows and repeats (by exact canonical equality)."""
    seen: set[tuple[Fraction, ...]] = set()
    kept = []
    for row in rows:
        if row.row.is_zero():
            continue
        key = row.row.coeffs
        if key in seen:
            continue
        seen.add(key)
        kept.append(row)
    return tuple(kept)


def build_constraint_matrix(decls: Iterable[ConstraintDecl], u: VarUniverse) -> ConstraintMatrix:
    """Validate and compile all declarations, drop zero rows, deduplicate, keep provenance."""
    rows: list[ConstraintRow] = []
    for decl in decls:
        compile_rows = _ROWS.get(type(decl))
        if compile_rows is None:
            raise TypeError(f"unknown constraint declaration {decl!r}")
        validate_constraint(decl, u)
        text = render_constraint(decl, u)
        rows += [ConstraintRow(canonicalize(e, u.n), render_expr(e, u), text)
                 for e in compile_rows(decl)]
    return ConstraintMatrix(u.n, dedup_rows(rows))
