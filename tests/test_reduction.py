"""Support reduction: solving over the variables a problem uses, then lifting.

`solve` builds its system over S, the variables the objective and the
constraint rows mention, and lifts the certificate or ray back to the
declared universe N.  These tests hold it to the unreduced system over N.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import proof_check
from corpus_n3 import CORPUS, PROVEN
from infoineq.canonical import CanonicalVector, canonicalize, measure_vector
from infoineq.cli import main
from infoineq.constraints import build_constraint_matrix
from infoineq.elemental import enumerate_eims
from infoineq.lp import (
    ConeProblem,
    NotProvable,
    ProvenSTI,
    _lp_columns,
    _phase1_feasibility,
    is_disproof_ray,
    solve,
    verify_certificate,
)
from infoineq.parser import (
    Entropy,
    Explicit,
    FuncDep,
    InfoExpr,
    MarkovChain,
    MutualInfo,
    parse_constraint,
    parse_relation,
    parse_universe,
)
from infoineq.proof import difference_expr

F = Fraction
_MATRICES = {n: enumerate_eims(n) for n in range(1, 6)}


def _universe(n):
    return parse_universe(",".join(f"X{i}" for i in range(1, n + 1)))


def _check_against_unreduced(p: ConeProblem):
    """solve(p) agrees with the phase-1 system over all of N and passes its checks."""
    x, _ = _phase1_feasibility(_lp_columns(p.elemental, p.constraints), p.objective.coeffs)
    out = solve(p)
    assert isinstance(out, ProvenSTI) == (x is not None)
    if isinstance(out, ProvenSTI):
        assert verify_certificate(p, out.certificate)
    else:
        assert is_disproof_ray(p, out.ray)
    return out


def _submask(within, empty=False):
    return st.sampled_from([m for m in range(0 if empty else 1, within + 1) if not m & ~within])


@st.composite
def _measure(draw, within):
    gamma = draw(_submask(within, empty=True))
    alpha = draw(_submask(within))
    if draw(st.booleans()):
        return Entropy(alpha, gamma)
    return MutualInfo(alpha, draw(_submask(within)), gamma)


@st.composite
def _reducible_problems(draw):
    """An objective and constraints over a random proper subset S of N, n <= 5."""
    n = draw(st.integers(2, 5))
    full = (1 << n) - 1
    s = draw(st.integers(1, full - 1))
    s_bits = [1 << k for k in range(n) if s >> k & 1]
    objective = CanonicalVector.zero(n)
    for _ in range(draw(st.integers(1, 4))):
        coeff = F(draw(st.sampled_from([-2, -1, 1, 2])))
        objective = objective + measure_vector(draw(_measure(s)), n).scale(coeff)
    decls = []
    for kind in draw(st.lists(st.sampled_from(["markov", "func", "explicit"]), max_size=2)):
        if kind == "markov" and len(s_bits) >= 3:
            decls.append(MarkovChain(tuple(draw(st.permutations(s_bits))[:3])))
        elif kind == "func":
            decls.append(FuncDep(draw(st.sampled_from(s_bits)), draw(_submask(s))))
        elif kind == "explicit":
            decls.append(Explicit(InfoExpr(((F(1), draw(_measure(s))),))))
    q = build_constraint_matrix(decls, _universe(n))
    return ConeProblem(objective, _MATRICES[n], q)


class TestReducedAgainstUnreduced:
    @settings(max_examples=150, deadline=None)
    @given(_reducible_problems())
    def test_verdict_and_checks(self, p):
        _check_against_unreduced(p)


def _cone(names, relation, constraints=()):
    u = parse_universe(names)
    decls = [parse_constraint(c, u) for c in constraints]
    objective = canonicalize(difference_expr(parse_relation(relation, u)), u.n)
    return u, ConeProblem(objective, _MATRICES[u.n], build_constraint_matrix(decls, u))


class TestDirected:
    def test_zero_objective_without_constraints(self):
        _, p = _cone("A,B,C,D", "I(A;A) >= H(A)")
        out = _check_against_unreduced(p)
        assert isinstance(out, ProvenSTI)
        assert len(out.certificate.lam) == len(p.elemental.rows)
        assert not any(out.certificate.lam)

    def test_zero_objective_with_a_constraint(self):
        _, p = _cone("A,B,C,D", "H(A) >= H(A)", ("markov: A -> B -> C",))
        out = _check_against_unreduced(p)
        assert isinstance(out, ProvenSTI)
        assert not any(out.certificate.lam) and not any(out.certificate.nu)

    def test_single_variable_support_proof_is_the_chain_rule(self):
        u, p = _cone("A,B,C,D", "H(C) >= 0")
        out = _check_against_unreduced(p)
        terms = {term.label(u.names): coeff
                 for term, coeff in zip(p.elemental.rows, out.certificate.lam) if coeff}
        # H(C) = H(C|A,B,D) + I(C;D) + I(B;C|D) + I(A;C|B,D): the unused
        # variables are added in descending order.
        assert terms == {"H(C|A,B,D)": 1, "I(C;D)": 1, "I(B;C|D)": 1, "I(A;C|B,D)": 1}

    def test_single_variable_support_ray_ignores_unused_variables(self):
        _, p = _cone("A,B,C,D", "H(C) <= 0")
        out = _check_against_unreduced(p)
        assert isinstance(out, NotProvable)
        c = 0b0100
        for mask in range(1, 16):
            expected = out.ray.coeff(c) if mask & c else 0
            assert out.ray.coeff(mask) == expected

    def test_variable_mentioned_only_by_a_constraint(self):
        # C appears only in the constraints: H(B) <= H(C) <= H(A).
        constraints = ("func: B = f(C)", "func: C = f(A)")
        _, p = _cone("A,B,C,D", "H(A) >= H(B)", constraints)
        assert isinstance(_check_against_unreduced(p), ProvenSTI)
        _, p = _cone("A,B,C,D", "H(A) >= H(B)", constraints[:1])
        assert isinstance(_check_against_unreduced(p), NotProvable)

    def test_one_variable_universe(self):
        for relation, proven in (("H(X) >= 0", True), ("H(X) <= 0", False), ("0 >= 0", True)):
            _, p = _cone("X", relation)
            assert isinstance(_check_against_unreduced(p), ProvenSTI) == proven


class TestUnusedVariables:
    """Declaring extra variables never changes the verdict."""

    def test_corpus_with_interleaved_unused_variables(self, capsys):
        checked = 0
        for entry in CORPUS:
            argv = ["--expr", entry.relation, "--vars", "U,X,V,Y,Z", "--format", "json"]
            for constraint in entry.constraints:
                argv += ["--assume", constraint]
            code = main(argv)
            out = capsys.readouterr().out
            assert code == (0 if entry.verdict == PROVEN else 1), entry.name
            if code == 0:
                doc = json.loads(out)
                for sub in doc.get("directions", [doc]):
                    proof_check.check_proof_document(json.dumps(sub))
            checked += 1
        assert checked >= 60

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 5), st.data())
    def test_random_objective_verdict_invariant(self, n, data):
        objective3 = CanonicalVector.zero(3)
        for _ in range(data.draw(st.integers(1, 3))):
            coeff = F(data.draw(st.sampled_from([-1, 1, 2])))
            objective3 = objective3 + measure_vector(data.draw(_measure(0b111)), 3).scale(coeff)
        small = solve(ConeProblem(objective3, _MATRICES[3]))
        # The same objective with the three variables placed among n.
        positions = sorted(data.draw(st.permutations(range(n)))[:3])
        big = [F(0)] * ((1 << n) - 1)
        for mask, coeff in objective3.nonzero():
            wide = sum(1 << positions[k] for k in range(3) if mask >> k & 1)
            big[wide - 1] = coeff
        p = ConeProblem(CanonicalVector(n, tuple(big)), _MATRICES[n])
        out = _check_against_unreduced(p)
        assert isinstance(out, ProvenSTI) == isinstance(small, ProvenSTI)

