import json
from dataclasses import replace
from fractions import Fraction

import pytest

import proof_check
from infoineq.canonical import canonicalize
from infoineq.constraints import build_constraint_matrix
from infoineq.errors import UnverifiedCertificateError
from infoineq.lp import Certificate, ConeProblem, ProvenSTI, solve
from infoineq.parser import parse_constraint, parse_expr, parse_relation
from infoineq.proof import (
    _check_identity,
    build_elemental_form,
    difference_expr,
    render_json,
    render_latex,
    render_text,
)

F = Fraction


def _prove(relation_text, u, g, constraints=()):
    relation = parse_relation(relation_text, u)
    decls = [parse_constraint(c, u) for c in constraints]
    q = build_constraint_matrix(decls, u)
    problem = ConeProblem(canonicalize(difference_expr(relation), u.n), g, q)
    outcome = solve(problem)
    assert isinstance(outcome, ProvenSTI)
    form = build_elemental_form(problem, outcome.certificate, relation, u)
    return problem, outcome.certificate, form


class TestBuildElementalForm:
    def test_trivial_identity(self, u2, g2):
        _, _, form = _prove("I(X1;X2) >= 0", u2, g2)
        assert form.eim_terms == ((F(1), "I(X1;X2)"),)
        assert form.constraint_terms == ()

    def test_entropy_decomposition(self, u2, g2):
        _, _, form = _prove("H(X1) >= 0", u2, g2)
        assert form.eim_terms == ((F(1), "H(X1|X2)"), (F(1), "I(X1;X2)"))

    def test_constrained_form_has_constraint_terms(self, u4, g4):
        _, _, form = _prove("I(A;D) <= I(B;C)", u4, g4, ("markov: A -> B -> C -> D",))
        assert form.eim_terms
        assert form.constraint_terms
        assert all(coeff != 0 for coeff, _, _ in form.constraint_terms)
        assert form.constraint_groups == (
            ("markov: A -> B -> C -> D", ("I(A;C,D|B)", "I(A,B;D|C)")),
        )

    def test_rejects_unverified_certificate(self, u2, g2):
        problem, cert, _ = _prove("I(X1;X2) >= 0", u2, g2)
        bad = Certificate((cert.lam[0] + 1,) + cert.lam[1:], cert.nu)
        with pytest.raises(UnverifiedCertificateError):
            build_elemental_form(problem, bad, parse_relation("I(X1;X2) >= 0", u2), u2)

    def test_identity_check_rejects_swapped_label(self, u2, g2):
        _, _, form = _prove("H(X1) >= 0", u2, g2)
        swapped = replace(form, eim_terms=(form.eim_terms[0], (F(1), "H(X2|X1)")))
        _check_identity(form)
        with pytest.raises(UnverifiedCertificateError):
            _check_identity(swapped)

    def test_zero_multipliers_dropped(self, u2, g2):
        _, cert, form = _prove("H(X1) >= 0", u2, g2)
        assert len(cert.lam) == 3
        assert len(form.eim_terms) == 2


class TestRenderText:
    def test_trivial_proof_is_five_lines(self, u2, g2):
        _, _, form = _prove("I(X1;X2) >= 0", u2, g2)
        text = render_text(form)
        assert text == (
            "Prove: I(X1;X2) >= 0\n"
            "Difference in elemental form:\n"
            "  I(X1;X2) = I(X1;X2)\n"
            "  I(X1;X2) ≥ 0, elemental\n"
            "Canonical forms verified; hence LHS ≥ RHS. ∎\n"
        )
        assert len(text.rstrip("\n").split("\n")) == 5

    def test_entropy_proof_identity_line(self, u2, g2):
        _, _, form = _prove("H(X1) >= 0", u2, g2)
        assert "  H(X1) = H(X1|X2) + I(X1;X2)\n" in render_text(form)

    def test_constrained_proof_quotes_origins(self, u4, g4):
        _, _, form = _prove("I(A;D) <= I(B;C)", u4, g4, ("markov: A -> B -> C -> D",))
        text = render_text(form)
        assert "Assume:\n  markov: A -> B -> C -> D\n" in text
        assert "= 0, from markov: A -> B -> C -> D" in text
        assert text.endswith("hence LHS ≤ RHS. ∎\n")

    def test_unconstrained_proof_omits_assume_section(self, u2, g2):
        _, _, form = _prove("H(X1) >= 0", u2, g2)
        assert "Assume:" not in render_text(form)


def _identity_sides(text, u):
    lines = text.split("\n")
    lhs, rhs = lines[lines.index("Difference in elemental form:") + 1].strip().split(" = ", 1)
    return canonicalize(parse_expr(lhs, u), u.n), canonicalize(parse_expr(rhs, u), u.n)


class TestIdentityLineReparses:
    """The printed identity is true as printed: its right side re-parses to its left."""

    @pytest.mark.parametrize("relation, constraint, nu", [
        # multi-term constraint label under a multiplier
        ("2 I(X;Y) >= 2 H(Z|X)", "I(X;Y) - H(Z|X) = 0", F(-2)),
        # label with its own coefficient under a multiplier
        ("1/3 H(X,Y) >= 1/5 H(X) + 1/3 H(Y)", "1/2 I(X;Y) = 0", F(2, 5)),
        # multi-term constraint label, nu = +1: printed with a minus sign
        ("H(X,Y) >= H(X) + H(Y)", "H(X) + H(Y) - H(X,Y) = 0", F(1)),
        # multi-term constraint label, nu = -1: printed as it is
        ("H(X,Y) >= H(X) + H(Y)", "H(X,Y) - H(X) - H(Y) = 0", F(-1)),
    ])
    def test_rhs_canonicalizes_to_lhs(self, u3, g3, relation, constraint, nu):
        _, cert, form = _prove(relation, u3, g3, (constraint,))
        assert cert.nu == (nu,)
        lhs, rhs = _identity_sides(render_text(form), u3)
        assert lhs == rhs

    def test_grouped_labels_in_text_and_latex(self, u3, g3):
        _, _, form = _prove("2 I(X;Y) >= 2 H(Z|X)", u3, g3, ("I(X;Y) - H(Z|X) = 0",))
        assert "= 2 (I(X;Y) - H(Z|X))\n" in render_text(form)
        assert "&= 2 (I(X;Y) - H(Z \\mid X))" in render_latex(form)


class TestRenderLatex:
    def test_align_environment(self, u4, g4):
        _, _, form = _prove("I(A;D) <= I(B;C)", u4, g4, ("markov: A -> B -> C -> D",))
        tex = render_latex(form)
        assert tex.startswith("% Prove: I(A;D) <= I(B;C)\n")
        assert "\\begin{align*}" in tex and "\\end{align*}" in tex
        assert "\\begin{itemize}" in tex and "\\end{itemize}" in tex
        assert "\\mid" in tex

    def test_subscripted_names(self, u2, g2):
        _, _, form = _prove("H(X1) >= 0", u2, g2)
        tex = render_latex(form)
        assert "X_{1}" in tex and "X1" not in tex.split("% Prove:")[1].split("\n")[1]


class TestRenderJson:
    def test_schema_shape(self, u4, g4):
        _, cert, form = _prove("I(A;D) <= I(B;C)", u4, g4, ("markov: A -> B -> C -> D",))
        doc = json.loads(render_json(form))
        assert doc["schema_version"] == 1
        assert doc["statement"] == {"lhs": "I(A;D)", "rhs": "I(B;C)", "op": "<="}
        assert doc["universe"] == ["A", "B", "C", "D"]
        assert doc["constraints"] == [
            {"decl": "markov: A -> B -> C -> D", "rows": ["I(A;C,D|B)", "I(A,B;D|C)"]}]
        assert doc["verified"] is True
        for entry in doc["certificate"]["lambda"] + doc["certificate"]["nu"]:
            assert set(entry) == {"row_label", "num", "den"}
            assert int(entry["den"]) > 0

    def test_fractional_multiplier_as_num_den_strings(self, u2, g2):
        _, cert, form = _prove("1/2 H(X1) >= 0", u2, g2)
        doc = json.loads(render_json(form))
        halves = [e for e in doc["certificate"]["lambda"] if e["den"] == "2"]
        assert halves and all(e["num"] == "1" for e in halves)

    def test_independent_checker_accepts(self, u4, g4):
        _, cert, form = _prove("I(A;D) <= I(B;C)", u4, g4, ("markov: A -> B -> C -> D",))
        proof_check.check_proof_document(render_json(form))

    def test_checker_rejects_tampered_document(self, u4, g4):
        _, cert, form = _prove("I(A;D) <= I(B;C)", u4, g4, ("markov: A -> B -> C -> D",))
        doc = json.loads(render_json(form))
        doc["certificate"]["lambda"][0]["num"] = str(
            int(doc["certificate"]["lambda"][0]["num"]) + 1)
        with pytest.raises(AssertionError):
            proof_check.check_proof_document(json.dumps(doc))


class TestDeterminism:
    def test_renders_are_stable(self, u4, g4):
        first = _prove("I(A;D) <= I(B;C)", u4, g4, ("markov: A -> B -> C -> D",))
        second = _prove("I(A;D) <= I(B;C)", u4, g4, ("markov: A -> B -> C -> D",))
        assert render_text(first[2]) == render_text(second[2])
        assert render_latex(first[2]) == render_latex(second[2])
        assert render_json(first[2]) == render_json(second[2])
