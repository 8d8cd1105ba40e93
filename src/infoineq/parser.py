"""Textual language for information expressions, relations and constraints.

Grammar (whitespace between tokens is insignificant):

    expr       := ['+'|'-'] term (('+'|'-') term)*
    term       := '0' | [rat '*'?] (measure | '(' expr ')')
    rat        := int ['/' int]
    measure    := 'H' '(' vlist ['|' vlist] ')'
                | 'I' '(' vlist ';' vlist ['|' vlist] ')'
    vlist      := ident (',' ident)*
    relation   := expr ('<=' | '>=' | '=') expr
    constraint := 'markov:' block ('->' block)+
                | 'indep:' block (';' block)+
                | 'func:' block '=' 'f' '(' vlist ')'
                | 'factor:' pmf_factor+
                | relation              (must use '='; asserted equal to zero)
    block      := vlist | '(' vlist ')'
    pmf_factor := 'P' '(' vlist ['|' vlist] ')'
    ident      := [A-Za-z][A-Za-z0-9_]*

Coefficients are exact rationals written `3`, `-2` or `1/2`; decimal floats
are rejected so the whole pipeline stays exact.  An integer has at most 1000
digits; a coefficient scaled by its groups, and the common denominator of
all coefficients in one relation, stay within the same size.
A bare `0` denotes the zero expression, which is how `... = 0` constraints
are written.  Groups `( expr )` nest at most 100 deep; deeper input is a
ParseError.  Strict inequalities (`<`, `>`) are rejected: the decision
procedure handles non-strict inequalities only.

Variable sets are bitmasks over the declared universe: bit i-1 set means the
i-th declared variable is present.  `H(A,B|C)` is the entropy of the pair
(A,B) conditioned on C.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import (
    DuplicateNameError,
    EmptyArgumentListError,
    EmptyDeclarationSetError,
    InvalidFactorizationError,
    MissingRelationalOperatorError,
    OutOfUniverseError,
    OverlappingBlocksError,
    OverlappingGroupsError,
    ParseError,
    TooFewBlocksError,
    UnknownVariableError,
)

# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarUniverse:
    """Ordered universe of distinct variable names; order fixes bit positions."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ParseError("variable universe must not be empty")
        if len(set(self.names)) != len(self.names):
            raise DuplicateNameError("duplicate variable name in universe")

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.names)) - 1

    def position(self, name: str) -> int:
        """1-based position of a declared variable."""
        try:
            return self.names.index(name) + 1
        except ValueError:
            raise UnknownVariableError(f"unknown variable {name!r}") from None

    def mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << (self.position(name) - 1)
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(name for i, name in enumerate(self.names) if mask >> i & 1)

    def set_label(self, mask: int) -> str:
        """Comma-joined names of a subset, in declaration order."""
        return ",".join(self.names_of(mask))


@dataclass(frozen=True)
class Entropy:
    """H(X_alpha | X_gamma); gamma == 0 is the unconditional case."""

    alpha: int
    gamma: int = 0


@dataclass(frozen=True)
class MutualInfo:
    """I(X_alpha ; X_beta | X_gamma); gamma == 0 is the unconditional case."""

    alpha: int
    beta: int
    gamma: int = 0


Measure = Entropy | MutualInfo


@dataclass(frozen=True)
class InfoExpr:
    """Linear combination of measures with exact rational coefficients.

    The empty combination is the zero expression.
    """

    terms: tuple[tuple[Fraction, Measure], ...] = ()

    def __add__(self, other: "InfoExpr") -> "InfoExpr":
        return InfoExpr(self.terms + other.terms)

    def __sub__(self, other: "InfoExpr") -> "InfoExpr":
        return self + (-other)

    def __neg__(self) -> "InfoExpr":
        return InfoExpr(tuple((-c, m) for c, m in self.terms))

    def scaled(self, k: Fraction) -> "InfoExpr":
        return InfoExpr(tuple((k * c, m) for c, m in self.terms))


class RelOp(Enum):
    LEQ = "<="
    GEQ = ">="
    EQ = "="


@dataclass(frozen=True)
class Relation:
    lhs: InfoExpr
    rhs: InfoExpr
    op: RelOp


@dataclass(frozen=True)
class MarkovChain:
    """Blocks of a Markov chain, left to right; pairwise disjoint masks."""

    blocks: tuple[int, ...]


@dataclass(frozen=True)
class MutualIndep:
    """Mutually independent groups; pairwise disjoint masks."""

    groups: tuple[int, ...]


@dataclass(frozen=True)
class FuncDep:
    """target is a deterministic function of source."""

    target: int
    source: int


@dataclass(frozen=True)
class Explicit:
    """An expression asserted to equal zero."""

    expr: InfoExpr


@dataclass(frozen=True)
class Factorization:
    """Joint PMF written as ordered factors P(head | given)."""

    factors: tuple[tuple[int, int], ...]


ConstraintDecl = MarkovChain | MutualIndep | FuncDep | Explicit | Factorization


def validate_constraint(decl: ConstraintDecl, u: VarUniverse) -> None:
    """Check a declaration against the rules of its kind; the one place they live.

    `parse_constraint` and `build_constraint_matrix` both call it, so a
    declaration built in code meets the same rules, errors and messages as a
    parsed one.  A factorization describes the joint PMF of the variables it
    names; declared variables it leaves out are unconstrained.  Every set must
    lie inside the universe, which only a declaration built in code can miss.
    """
    outside = 0
    for mask in _declared_sets(decl):
        outside |= mask
    outside &= ~u.full_mask
    if outside < 0:
        raise OutOfUniverseError("declaration holds a negative set mask")
    if outside:
        positions = ", ".join(str(k + 1) for k in range(outside.bit_length()) if outside >> k & 1)
        raise OutOfUniverseError(
            f"declaration names variable position(s) {positions} outside the "
            f"{u.n} declared variables")
    if isinstance(decl, MarkovChain):
        _check_sets(decl.blocks, 3, "Markov blocks", OverlappingBlocksError, u)
    elif isinstance(decl, MutualIndep):
        _check_sets(decl.groups, 2, "independence groups", OverlappingGroupsError, u)
    elif isinstance(decl, FuncDep):
        if not decl.target or not decl.source:
            raise EmptyDeclarationSetError("functional dependency needs nonempty sets")
    elif isinstance(decl, Factorization):
        introduced = 0
        for head, given in decl.factors:
            if not head:
                raise EmptyDeclarationSetError("factor heads must be nonempty")
            if head & introduced:
                dup = u.set_label(head & introduced)
                raise InvalidFactorizationError(
                    f"variable(s) {dup} appear in more than one factor head")
            if given & ~introduced:
                missing = u.set_label(given & ~introduced)
                raise InvalidFactorizationError(
                    f"factor conditions on {missing} before any factor introduces it")
            introduced |= head


def _declared_sets(decl: ConstraintDecl) -> list[int]:
    """Every variable set a declaration names."""
    if isinstance(decl, MarkovChain):
        return list(decl.blocks)
    if isinstance(decl, MutualIndep):
        return list(decl.groups)
    if isinstance(decl, FuncDep):
        return [decl.target, decl.source]
    if isinstance(decl, Factorization):
        return [mask for factor in decl.factors for mask in factor]
    masks = []
    for _, m in decl.expr.terms:
        masks += [m.alpha, m.gamma] if isinstance(m, Entropy) else [m.alpha, m.beta, m.gamma]
    return masks


def _check_sets(masks: Sequence[int], least: int, what: str, overlap_error: type,
                u: VarUniverse) -> None:
    """At least `least` nonempty, pairwise disjoint sets."""
    if len(masks) < least:
        raise TooFewBlocksError(f"need at least {least} {what}, got {len(masks)}")
    seen = 0
    for mask in masks:
        if not mask:
            raise EmptyDeclarationSetError(f"{what} must be nonempty")
        if mask & seen:
            raise overlap_error(f"{what} must be pairwise disjoint; {u.set_label(mask & seen)} repeats")
        seen |= mask


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# Longest accepted integer, in decimal digits.  The tokenizer checks a digit
# token before anything converts it, and a coefficient scaled by its groups
# must keep its numerator and denominator within the bit length of
# 10**_MAX_DIGITS.  So must the lcm of the denominators in any relation the
# parser returns (`parse_relation`, and through it explicit constraints),
# because canonical coefficients, multipliers and ray values share it.
# Proofs print these numbers, so the bound keeps them well under the 4300
# digits that Python's int-to-string conversion refuses by default.
_MAX_DIGITS = 1000
_MAX_BITS = (10 ** _MAX_DIGITS).bit_length()

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<punct><=|>=|->|[-+*/();,:|=<>])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "int" | "punct" | "eof"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", offset=pos)
        if m.lastgroup == "int" and m.end() - pos > _MAX_DIGITS:
            raise ParseError(f"integer longer than {_MAX_DIGITS} digits", offset=pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


# Deepest accepted nesting of parenthesized groups.  Each level costs two
# interpreter frames, so this keeps well inside the default recursion limit.
_MAX_NESTING = 100


class _TokenStream:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # open parenthesized groups

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.peek().kind == "punct" and self.peek().text == text:
            self.next()
            return True
        return False

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == text:
            return self.next()
        raise ParseError(f"expected '{text}', found {self._describe(tok)}", offset=tok.pos)

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", offset=tok.pos)

    @staticmethod
    def _describe(tok: _Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(tok.text)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_universe(text: str) -> VarUniverse:
    """Parse a comma/space-separated list of variable names.

    Declaration order fixes the bitmask positions used everywhere else.
    """
    names: list[str] = []
    stream = _TokenStream(text)
    pending_comma = False
    while stream.peek().kind != "eof":
        tok = stream.peek()
        if tok.kind == "ident":
            if tok.text in names:
                raise DuplicateNameError(f"duplicate variable name {tok.text!r}", offset=tok.pos)
            names.append(tok.text)
            stream.next()
            pending_comma = False
        elif tok.kind == "punct" and tok.text == ",":
            if not names or pending_comma:
                raise ParseError("expected variable name before ','", offset=tok.pos)
            stream.next()
            pending_comma = True
        else:
            raise ParseError(f"invalid variable name starting at {tok.text!r}", offset=tok.pos)
    if pending_comma:
        raise ParseError("trailing ',' in variable list", offset=len(text))
    if not names:
        raise ParseError("empty variable list")
    return VarUniverse(tuple(names))


def _parse_vlist(stream: _TokenStream, u: VarUniverse) -> int:
    mask = 0
    while True:
        tok = stream.peek()
        if tok.kind != "ident":
            raise ParseError("expected variable name", offset=tok.pos)
        try:
            mask |= 1 << (u.position(tok.text) - 1)
        except UnknownVariableError:
            raise UnknownVariableError(f"unknown variable {tok.text!r}", offset=tok.pos) from None
        stream.next()
        if not stream.accept(","):
            return mask


def _parse_measure(stream: _TokenStream, u: VarUniverse) -> Measure:
    tok = stream.peek()
    if tok.kind != "ident" or tok.text not in ("H", "I"):
        raise ParseError(f"expected a measure H(...) or I(...), found {_TokenStream._describe(tok)}",
                         offset=tok.pos)
    head = stream.next().text
    stream.expect("(")
    if head == "H":
        if stream.peek().text == ")":
            raise EmptyArgumentListError("H() has no arguments", offset=stream.peek().pos)
        alpha = _parse_vlist(stream, u)
        gamma = 0
        if stream.accept("|"):
            gamma = _parse_vlist(stream, u)
        stream.expect(")")
        return Entropy(alpha, gamma)
    if stream.peek().text in (")", ";"):
        raise EmptyArgumentListError("I(...) needs two argument lists", offset=stream.peek().pos)
    alpha = _parse_vlist(stream, u)
    stream.expect(";")
    if stream.peek().text in (")", "|"):
        raise EmptyArgumentListError("I(...) needs two argument lists", offset=stream.peek().pos)
    beta = _parse_vlist(stream, u)
    gamma = 0
    if stream.accept("|"):
        gamma = _parse_vlist(stream, u)
    stream.expect(")")
    return MutualInfo(alpha, beta, gamma)


def _parse_rational(stream: _TokenStream) -> Fraction:
    tok = stream.next()  # caller guarantees kind == "int"
    num = int(tok.text)
    if stream.accept("/"):
        den_tok = stream.peek()
        if den_tok.kind != "int":
            raise ParseError("expected integer denominator", offset=den_tok.pos)
        stream.next()
        den = int(den_tok.text)
        if den == 0:
            raise ParseError("zero denominator", offset=den_tok.pos)
        return Fraction(num, den)
    return Fraction(num)


def _parse_term(stream: _TokenStream, u: VarUniverse, sign: int) -> list[tuple[Fraction, Measure]]:
    """One term, as its signed measures: none for a bare `0`, several for a group."""
    start = stream.peek()
    coeff = Fraction(1)
    if start.kind == "int":
        after = stream.tokens[stream.i + 1]
        bare_zero = start.text == "0" and not (
            after.kind == "ident" or (after.kind == "punct" and after.text in ("*", "/", "("))
        )
        if bare_zero:
            stream.next()
            return []
        coeff = _parse_rational(stream)
        stream.accept("*")
    tok = stream.peek()
    if stream.accept("("):
        if stream.depth == _MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {_MAX_NESTING} levels", offset=tok.pos)
        stream.depth += 1
        group = _parse_expr(stream, u)
        stream.expect(")")
        stream.depth -= 1
        terms = group.scaled(sign * coeff).terms
        if any(max(c.numerator.bit_length(), c.denominator.bit_length()) > _MAX_BITS for c, _ in terms):
            raise ParseError(f"scaled coefficient longer than {_MAX_BITS} bits", offset=start.pos)
        return list(terms)
    return [(sign * coeff, _parse_measure(stream, u))]


def parse_expr(text: str, u: VarUniverse) -> InfoExpr:
    """Parse a linear combination of entropy / mutual information terms."""
    stream = _TokenStream(text)
    expr = _parse_expr(stream, u)
    stream.expect_end()
    return expr


def _parse_expr(stream: _TokenStream, u: VarUniverse) -> InfoExpr:
    terms: list[tuple[Fraction, Measure]] = []
    sign = 1
    if stream.accept("-"):
        sign = -1
    else:
        stream.accept("+")
    terms += _parse_term(stream, u, sign)
    while True:
        tok = stream.peek()
        if tok.kind == "punct" and tok.text in ("+", "-"):
            stream.next()
            terms += _parse_term(stream, u, 1 if tok.text == "+" else -1)
        else:
            break
    return InfoExpr(tuple(terms))


def parse_relation(text: str, u: VarUniverse) -> Relation:
    """Parse `expr (<=|>=|=) expr`."""
    stream = _TokenStream(text)
    lhs = _parse_expr(stream, u)
    tok = stream.peek()
    if tok.kind == "punct" and tok.text in ("<", ">"):
        raise ParseError("strict inequalities are not supported; use <=, >= or =", offset=tok.pos)
    if tok.kind != "punct" or tok.text not in ("<=", ">=", "="):
        raise MissingRelationalOperatorError(
            f"expected <=, >= or =, found {_TokenStream._describe(tok)}", offset=tok.pos)
    stream.next()
    op = RelOp(tok.text)
    rhs = _parse_expr(stream, u)
    stream.expect_end()
    if lcm(*(c.denominator for c, _ in lhs.terms + rhs.terms)).bit_length() > _MAX_BITS:
        raise ParseError(f"common denominator of the coefficients longer than {_MAX_BITS} bits")
    return Relation(lhs, rhs, op)


def _parse_block(stream: _TokenStream, u: VarUniverse) -> int:
    if stream.accept("("):
        mask = _parse_vlist(stream, u)
        stream.expect(")")
        return mask
    return _parse_vlist(stream, u)


def _keyword(stream: _TokenStream) -> str | None:
    tok = stream.peek()
    if (tok.kind == "ident" and tok.text in ("markov", "indep", "func", "factor")
            and stream.tokens[stream.i + 1].text == ":"):
        stream.next()
        stream.next()
        return tok.text
    return None


def parse_constraint(text: str, u: VarUniverse) -> ConstraintDecl:
    """Parse one constraint declaration.

    Forms: `markov: A -> B -> C`, `indep: A ; B`, `func: C = f(A,B)`,
    `factor: P(A,B) P(C|B)`, or a relation with `=` (asserted equal to zero).
    """
    stream = _TokenStream(text)
    keyword = _keyword(stream)
    if keyword == "markov":
        decl = MarkovChain(_parse_blocks(stream, u, "->"))
    elif keyword == "indep":
        decl = MutualIndep(_parse_blocks(stream, u, ";"))
    elif keyword == "func":
        decl = _parse_func(stream, u)
    elif keyword == "factor":
        decl = _parse_factor(stream, u)
    else:
        return _parse_explicit(text, u)
    validate_constraint(decl, u)
    stream.expect_end()
    return decl


def _parse_blocks(stream: _TokenStream, u: VarUniverse, separator: str) -> tuple[int, ...]:
    blocks = [_parse_block(stream, u)]
    while stream.accept(separator):
        blocks.append(_parse_block(stream, u))
    return tuple(blocks)


def _parse_func(stream: _TokenStream, u: VarUniverse) -> FuncDep:
    target = _parse_block(stream, u)
    stream.expect("=")
    tok = stream.peek()
    if tok.kind != "ident" or tok.text != "f":
        raise ParseError("expected f(...) on the right of a functional dependency", offset=tok.pos)
    stream.next()
    stream.expect("(")
    source = _parse_vlist(stream, u)
    stream.expect(")")
    return FuncDep(target, source)


def _parse_factor(stream: _TokenStream, u: VarUniverse) -> Factorization:
    factors: list[tuple[int, int]] = []
    while True:
        tok = stream.peek()
        if tok.kind != "ident" or tok.text != "P":
            break
        stream.next()
        stream.expect("(")
        head = _parse_vlist(stream, u)
        given = 0
        if stream.accept("|"):
            given = _parse_vlist(stream, u)
        stream.expect(")")
        factors.append((head, given))
    if not factors:
        raise ParseError("expected at least one factor P(...)", offset=stream.peek().pos)
    return Factorization(tuple(factors))


def _parse_explicit(text: str, u: VarUniverse) -> Explicit:
    rel = parse_relation(text, u)
    if rel.op is not RelOp.EQ:
        raise ParseError("explicit constraints must be equalities (use '= 0')")
    return Explicit(rel.lhs - rel.rhs)


# ---------------------------------------------------------------------------
# Rendering (inverse of parsing; output reparses to a structurally equal AST)
# ---------------------------------------------------------------------------

def render_measure(m: Measure, u: VarUniverse) -> str:
    if isinstance(m, Entropy):
        if m.gamma:
            return f"H({u.set_label(m.alpha)}|{u.set_label(m.gamma)})"
        return f"H({u.set_label(m.alpha)})"
    if m.gamma:
        return f"I({u.set_label(m.alpha)};{u.set_label(m.beta)}|{u.set_label(m.gamma)})"
    return f"I({u.set_label(m.alpha)};{u.set_label(m.beta)})"


def render_terms(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Join signed labels as `A - 2 B + 1/2 C`; the empty sum is `0`."""
    parts: list[str] = []
    for coeff, label in terms:
        body = label if abs(coeff) == 1 else f"{abs(coeff)} {label}"
        if parts:
            parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
        else:
            parts.append(f"-{body}" if coeff < 0 else body)
    return " ".join(parts) if parts else "0"


def render_expr(e: InfoExpr, u: VarUniverse) -> str:
    return render_terms((coeff, render_measure(m, u)) for coeff, m in e.terms)


def render_relation(r: Relation, u: VarUniverse) -> str:
    return f"{render_expr(r.lhs, u)} {r.op.value} {render_expr(r.rhs, u)}"


def render_constraint(decl: ConstraintDecl, u: VarUniverse) -> str:
    """Canonical one-line rendering, used as proof provenance."""
    if isinstance(decl, MarkovChain):
        return "markov: " + " -> ".join(_render_block(b, u) for b in decl.blocks)
    if isinstance(decl, MutualIndep):
        return "indep: " + " ; ".join(_render_block(g, u) for g in decl.groups)
    if isinstance(decl, FuncDep):
        return f"func: {_render_block(decl.target, u)} = f({u.set_label(decl.source)})"
    if isinstance(decl, Factorization):
        parts = []
        for head, given in decl.factors:
            if given:
                parts.append(f"P({u.set_label(head)}|{u.set_label(given)})")
            else:
                parts.append(f"P({u.set_label(head)})")
        return "factor: " + " ".join(parts)
    return f"{render_expr(decl.expr, u)} = 0"


def _render_block(mask: int, u: VarUniverse) -> str:
    label = u.set_label(mask)
    return f"({label})" if "," in label else label
