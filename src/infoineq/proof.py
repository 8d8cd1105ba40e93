"""Turn a verified certificate into a rendered analytic proof.

The certificate multipliers rewrite the canonical difference of the two sides
as a nonnegative combination of elemental measures plus multiples of the
declared constraint rows (the "elemental form").  Each elemental term is
nonnegative by definition and each constraint term vanishes by assumption,
so the identity is the whole proof; verifying it is an exact check that
the canonical vector of difference minus right-hand side is zero.

The renderers lay out a whole proven answer from its forms (one, or an
equality's two directions) and are deterministic: text, LaTeX (an align*
environment plus an itemized justification list; compile with article +
amsmath, T1 fontenc), and a versioned JSON document whose numbers allow
independent re-checking.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from .canonical import canonicalize
from .errors import UnverifiedCertificateError
from .lp import Certificate, ConeProblem, verify_certificate
from .parser import (
    InfoExpr,
    RelOp,
    Relation,
    VarUniverse,
    parse_expr,
    render_expr,
    render_measure,
    render_relation,
    render_terms,
)


def difference_expr(relation: Relation) -> InfoExpr:
    """The side difference whose nonnegativity is equivalent to the relation.

    LEQ gives RHS - LHS, GEQ gives LHS - RHS.  Equalities are proven one
    direction at a time and are rejected here.
    """
    if relation.op is RelOp.LEQ:
        return relation.rhs - relation.lhs
    if relation.op is RelOp.GEQ:
        return relation.lhs - relation.rhs
    raise ValueError("equalities are proven per direction; split before building a proof")


@dataclass(frozen=True)
class ElementalForm:
    """The proved identity: difference = sum of elemental terms - constraint terms.

    `eim_terms` hold strictly positive multipliers; `constraint_terms` hold
    the nonzero equality multipliers as extracted (each enters the rendered
    identity with its sign flipped).  `constraint_groups` lists, in
    declaration order and for the provenance sections, each declaration that
    kept a compiled row, with the labels of the rows it kept: a declaration
    whose rows are all zero or all repeat earlier rows is left out.
    """

    universe: VarUniverse
    relation: Relation
    eim_terms: tuple[tuple[Fraction, str], ...]
    constraint_terms: tuple[tuple[Fraction, str, str], ...]
    constraint_groups: tuple[tuple[str, tuple[str, ...]], ...]


def build_elemental_form(
    p: ConeProblem, c: Certificate, relation: Relation, universe: VarUniverse,
) -> ElementalForm:
    """Attach labels to the nonzero multipliers and re-verify the identity."""
    if not verify_certificate(p, c):
        raise UnverifiedCertificateError("certificate does not verify; refusing to build a proof")
    eim_terms = tuple(
        (coeff, render_measure(term.measure, universe))
        for coeff, term in zip(c.lam, p.elemental.rows) if coeff
    )
    qrows = p.constraints.rows
    constraint_terms = tuple(
        (coeff, row.label, row.origin_text)
        for coeff, row in zip(c.nu, qrows) if coeff
    )
    groups = tuple((decl, tuple(row.label for row in rows))
                   for decl, rows in groupby(qrows, key=lambda row: row.origin_text))
    form = ElementalForm(
        universe=universe,
        relation=relation,
        eim_terms=eim_terms,
        constraint_terms=constraint_terms,
        constraint_groups=groups,
    )
    _check_identity(form)
    return form


def _check_identity(form: ElementalForm) -> None:
    """Recompute the identity from the labels alone: one canonical vector, zero."""
    u = form.universe
    identity = -difference_expr(form.relation)
    for coeff, label in form.eim_terms:
        identity += parse_expr(label, u).scaled(coeff)
    for coeff, label, _ in form.constraint_terms:
        identity -= parse_expr(label, u).scaled(coeff)
    if not canonicalize(identity, u.n).is_zero():
        raise UnverifiedCertificateError("elemental form identity failed to re-verify")


_MEASURE_RE = re.compile(r"[HI]\([^()]*\)")


def _needs_parens(coeff: Fraction, label: str, first: bool) -> bool:
    """Whether a label must be grouped to be read with this multiplier.

    Elemental labels are single measures and never need it.  A constraint
    label may have several terms or its own coefficient: `2 (A - B)` and
    `- (A - B)` need the group, `- 1/2 A` and `+ A - B` do not.
    """
    if _MEASURE_RE.fullmatch(label):
        return False
    negated = label.startswith("-")
    if abs(coeff) != 1:
        return True
    if coeff < 0:
        return negated or " + " in label or " - " in label
    return negated and not first


def _identity(form: ElementalForm) -> tuple[str, str]:
    """Both sides of `difference = elemental terms - constraint terms`."""
    terms = list(form.eim_terms) + [(-coeff, label) for coeff, label, _ in form.constraint_terms]
    rhs = render_terms(
        (coeff, f"({label})" if _needs_parens(coeff, label, k == 0) else label)
        for k, (coeff, label) in enumerate(terms)
    )
    return render_expr(difference_expr(form.relation), form.universe), rhs


def direction_tag(relation: Relation) -> str:
    """Names one direction of an equality: `LHS <= RHS` or `LHS >= RHS`."""
    return "LHS <= RHS" if relation.op is RelOp.LEQ else "LHS >= RHS"


def _directions(forms: tuple[ElementalForm, ...], render, comment: str = "") -> str:
    """One form's proof, or each direction's under its own header."""
    if len(forms) == 1:
        return render(forms[0])
    return "\n".join(f"{comment}direction {direction_tag(f.relation)}:\n\n{render(f)}"
                     for f in forms)


def render_text(*forms: ElementalForm) -> str:
    """Plain-text proof of an answer; five lines for one unconstrained form."""
    return _directions(forms, _text)


def _text(f: ElementalForm) -> str:
    lhs, rhs = _identity(f)
    lines = [f"Prove: {render_relation(f.relation, f.universe)}"]
    if f.constraint_groups:
        lines.append("Assume:")
        lines.extend(f"  {decl}" for decl, _ in f.constraint_groups)
    lines.append("Difference in elemental form:")
    lines.append(f"  {lhs} = {rhs}")
    lines.extend(f"  {label} ≥ 0, elemental" for _, label in f.eim_terms)
    lines.extend(f"  {label} = 0, from {origin}" for _, label, origin in f.constraint_terms)
    arrow = "≤" if f.relation.op is RelOp.LEQ else "≥"
    lines.append(f"Canonical forms verified; hence LHS {arrow} RHS. ∎")
    return "\n".join(lines) + "\n"


_NAME_DIGITS_RE = re.compile(r"\b([A-Za-z]+)(\d+)\b")


def _latexify(s: str) -> str:
    """Math-mode friendly copy of a label: X1 -> X_{1}, | -> \\mid."""
    out = _NAME_DIGITS_RE.sub(r"\1_{\2}", s)
    out = out.replace("_", r"\_").replace(r"\_{", "_{")  # keep generated subscripts
    return out.replace("|", r" \mid ")


def render_latex(*forms: ElementalForm) -> str:
    """LaTeX proof of an answer; an equality's direction headers are comments."""
    return _directions(forms, _latex, comment="% ")


def _latex(f: ElementalForm) -> str:
    lhs, rhs = _identity(f)
    lines = [f"% Prove: {render_relation(f.relation, f.universe)}"]
    lines.extend(f"% Assume: {decl}" for decl, _ in f.constraint_groups)
    lines.append(r"\begin{align*}")
    lines.append(_latexify(lhs))
    lines.append(f"  &= {_latexify(rhs)} \\\\")
    lines.append(r"  &\geq 0.")
    lines.append(r"\end{align*}")
    lines.append(r"\begin{itemize}")
    lines.extend(rf"\item ${_latexify(label)} \geq 0$ (elemental)" for _, label in f.eim_terms)
    for _, label, origin in f.constraint_terms:
        origin = origin.replace("_", r"\_")  # outside math mode a bare _ does not compile
        lines.append(rf"\item ${_latexify(label)} = 0$ (\texttt{{{origin}}})")
    lines.append(r"\end{itemize}")
    op_word = "\\leq" if f.relation.op is RelOp.LEQ else "\\geq"
    lines.append(rf"% hence LHS ${op_word}$ RHS")
    return "\n".join(lines) + "\n"


def _fraction_entry(label: str, value: Fraction) -> dict:
    return {"row_label": label, "num": str(value.numerator), "den": str(value.denominator)}


def render_json(*forms: ElementalForm) -> str:
    """Versioned machine-readable proof; zero multipliers are omitted.

    An equality's document wraps one per-direction document for each form.
    """
    if len(forms) == 1:
        doc = _json_doc(forms[0])
    else:
        first = forms[0]
        equality = Relation(first.relation.lhs, first.relation.rhs, RelOp.EQ)
        doc = {
            "schema_version": 1,
            "statement": {"relation": render_relation(equality, first.universe), "op": "="},
            "directions": [_json_doc(f) for f in forms],
        }
    return json.dumps(doc, indent=2) + "\n"


def _json_doc(f: ElementalForm) -> dict:
    return {
        "schema_version": 1,
        "statement": {
            "lhs": render_expr(f.relation.lhs, f.universe),
            "rhs": render_expr(f.relation.rhs, f.universe),
            "op": f.relation.op.value,
        },
        "universe": list(f.universe.names),
        "constraints": [
            {"decl": decl, "rows": list(labels)} for decl, labels in f.constraint_groups
        ],
        "certificate": {
            "lambda": [_fraction_entry(label, coeff) for coeff, label in f.eim_terms],
            "nu": [_fraction_entry(label, coeff) for coeff, label, _ in f.constraint_terms],
        },
        "verified": True,
    }
