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

Every row keeps a label that reparses to exactly the stored vector, plus the
declaration that produced it; proofs quote both.  `build_constraint_matrix`
is the entry point: it checks each declaration with
`parser.validate_constraint` before compiling it, so the compilers here
assume valid input and check nothing.
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
    MutualIndep,
    MutualInfo,
    VarUniverse,
    render_constraint,
    render_expr,
    render_measure,
    validate_constraint,
)


@dataclass(frozen=True)
class ConstraintRow:
    """One equality row: `row` vanishes on every admissible entropy vector."""

    row: CanonicalVector
    label: str  # expression text that canonicalizes to `row`
    origin: ConstraintDecl
    origin_text: str  # rendered declaration, for proof provenance


@dataclass(frozen=True)
class ConstraintMatrix:
    """Deduplicated equality rows over one universe."""

    n: int
    rows: tuple[ConstraintRow, ...]

    def __len__(self) -> int:
        return len(self.rows)


def _mi_row(alpha: int, beta: int, gamma: int, u: VarUniverse,
            origin: ConstraintDecl, origin_text: str) -> ConstraintRow:
    measure = MutualInfo(alpha, beta, gamma)
    expr = InfoExpr(((Fraction(1), measure),))
    return ConstraintRow(canonicalize(expr, u.n), render_measure(measure, u), origin, origin_text)


def _markov_rows(decl: MarkovChain, u: VarUniverse) -> list[ConstraintRow]:
    """Cut conditions of a Markov chain: one row per interior block."""
    blocks = decl.blocks
    text = render_constraint(decl, u)
    rows = []
    for k in range(1, len(blocks) - 1):
        past = 0
        for b in blocks[:k]:
            past |= b
        future = 0
        for b in blocks[k + 1:]:
            future |= b
        rows.append(_mi_row(past, future, blocks[k], u, decl, text))
    return rows


def _indep_rows(decl: MutualIndep, u: VarUniverse) -> list[ConstraintRow]:
    """Mutual independence of groups: H(union) = sum of group entropies."""
    union = 0
    for g in decl.groups:
        union |= g
    terms = [(Fraction(1), Entropy(union))]
    terms += [(Fraction(-1), Entropy(g)) for g in decl.groups]
    expr = InfoExpr(tuple(terms))
    return [ConstraintRow(canonicalize(expr, u.n), render_expr(expr, u), decl,
                          render_constraint(decl, u))]


def _funcdep_rows(decl: FuncDep, u: VarUniverse) -> list[ConstraintRow]:
    """Functional dependency: H(target | source) = 0."""
    measure = Entropy(decl.target, decl.source)
    expr = InfoExpr(((Fraction(1), measure),))
    return [ConstraintRow(canonicalize(expr, u.n), render_measure(measure, u),
                          decl, render_constraint(decl, u))]


def _factorization_rows(decl: Factorization, u: VarUniverse) -> list[ConstraintRow]:
    """Conditional independencies read off an ordered PMF factorization."""
    text = render_constraint(decl, u)
    introduced = 0
    rows = []
    for k, (head, given) in enumerate(decl.factors):
        if k >= 1:
            rest = introduced & ~given
            if rest:
                rows.append(_mi_row(head, rest, given, u, decl, text))
        introduced |= head
    return rows


def _explicit_rows(decl: Explicit, u: VarUniverse) -> list[ConstraintRow]:
    """A user-supplied expression asserted to equal zero."""
    return [ConstraintRow(canonicalize(decl.expr, u.n), render_expr(decl.expr, u), decl,
                          render_constraint(decl, u))]


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
        rows.extend(compile_rows(decl, u))
    return ConstraintMatrix(u.n, dedup_rows(rows))
