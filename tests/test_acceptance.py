"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact arithmetic; the only tolerances are the stated runtime
budgets.  Criterion 5's expected verdicts are frozen in corpus_n3.py and were
produced by the ray-enumeration oracle, which is also re-run here.
"""

import json
import time
from fractions import Fraction
from math import comb

import dd_oracle
import proof_check
from corpus_n3 import CORPUS, PROVEN
from infoineq.canonical import CanonicalVector, canonicalize, measure_vector
from infoineq.cli import Problem, prove
from infoineq.constraints import build_constraint_matrix
from infoineq.elemental import bim_to_eim_decomposition, eim_count, enumerate_eims
from infoineq.lp import ConeProblem, NotProvable, ProvenSTI, solve, verify_certificate
from infoineq.parser import (
    Entropy,
    MutualInfo,
    parse_constraint,
    parse_relation,
    parse_universe,
)
from infoineq.proof import difference_expr, render_json, render_latex, render_text

F = Fraction


def _report(number: int, label: str, elapsed: float) -> None:
    print(f"[acceptance] criterion {number} ({label}): PASS ({elapsed:.3f}s)")


def test_criterion_1_two_variable_elemental_matrix_golden():
    best = min(
        _timed(lambda: enumerate_eims(2))[1] for _ in range(3)
    )
    matrix = enumerate_eims(2)
    assert matrix.labels() == ("H(X1|X2)", "H(X2|X1)", "I(X1;X2)")
    assert [t.row.coeffs for t in matrix.rows] == [
        (F(0), F(-1), F(1)),
        (F(-1), F(0), F(1)),
        (F(1), F(1), F(-1)),
    ]
    assert best < 0.001, f"enumerate_eims(2) took {best * 1e3:.3f} ms"
    _report(1, "two-variable elemental matrix golden", best)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_2_elemental_count_formula_matches_enumeration():
    start = time.perf_counter()
    for n in range(2, 9):
        expected = n + comb(n, 2) * 2 ** (n - 2)  # independent evaluation
        assert eim_count(n) == expected
        assert len(enumerate_eims(n).rows) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, "elemental count formula, n=2..8", elapsed)


def test_criterion_3_four_variable_chain_example():
    start = time.perf_counter()
    u = parse_universe("A,B,C,D")
    relation = parse_relation("I(A;D) <= I(B;C)", u)
    elemental = enumerate_eims(4)
    eim_labels = set(elemental.labels(u.names))
    for constraint in ("markov: A -> B -> C -> D", "factor: P(A,B) P(C|B) P(D|C)"):
        decls = (parse_constraint(constraint, u),)
        result = prove(Problem(u, decls, relation))
        assert result.proven
        direction = result.directions[0]
        problem = ConeProblem(
            canonicalize(difference_expr(direction.relation), 4),
            elemental,
            build_constraint_matrix(decls, u),
        )
        assert verify_certificate(problem, direction.outcome.certificate)
        form = direction.form
        assert form.eim_terms, "expected a nonempty elemental combination"
        for coeff, label in form.eim_terms:
            assert coeff > 0
            assert label in eim_labels
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, "four-variable chain example, both constraint styles", elapsed)


def _all_bims_deduped(n):
    full = (1 << n) - 1
    seen = set()
    for gamma in range(full + 1):
        for alpha in range(1, full + 1):
            key = ("H", alpha | gamma, gamma)
            if key not in seen:
                seen.add(key)
                yield Entropy(alpha, gamma)
    for gamma in range(full + 1):
        for alpha in range(1, full + 1):
            for beta in range(1, full + 1):
                a, b = alpha | gamma, beta | gamma
                key = ("I", min(a, b), max(a, b), gamma)
                if key not in seen:
                    seen.add(key)
                    yield MutualInfo(alpha, beta, gamma)


def test_criterion_4_every_basic_measure_decomposes_nonnegatively():
    start = time.perf_counter()
    cases = 0
    for n in range(1, 5):
        matrix = enumerate_eims(n)
        for measure in _all_bims_deduped(n):
            combo = bim_to_eim_decomposition(measure, n, matrix)
            total = CanonicalVector.zero(n)
            for term, coeff in combo:
                assert coeff > 0
                total = total + term.row.scale(coeff)
            assert total == measure_vector(measure, n)
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases >= 300, f"expected several hundred cases, got {cases}"
    assert elapsed < 60.0
    _report(4, f"nonnegative decomposition of all {cases} basic measures, n<=4", elapsed)


def _corpus_problem(entry):
    u = parse_universe("X,Y,Z")
    relation = parse_relation(entry.relation, u)
    decls = tuple(parse_constraint(c, u) for c in entry.constraints)
    constraints = build_constraint_matrix(decls, u)
    objective = canonicalize(difference_expr(relation), 3)
    return u, relation, decls, constraints, objective


def test_criterion_5_solver_matches_ray_enumeration_oracle():
    start = time.perf_counter()
    assert len(CORPUS) >= 50
    elemental = enumerate_eims(3)
    ineqs = [t.row.coeffs for t in elemental.rows]
    ray_cache = {}
    for entry in CORPUS:
        _, _, _, constraints, objective = _corpus_problem(entry)
        eqs = tuple(r.row.coeffs for r in constraints.rows)
        if eqs not in ray_cache:
            ray_cache[eqs] = dd_oracle.extreme_rays(ineqs, list(eqs), 7)
        rays, lineality = ray_cache[eqs]
        oracle_proven = (
            all(dd_oracle.dot(objective.coeffs, r) >= 0 for r in rays)
            and all(dd_oracle.dot(objective.coeffs, l) == 0 for l in lineality)
        )
        oracle_verdict = PROVEN if oracle_proven else "not_provable"
        assert oracle_verdict == entry.verdict, f"oracle drifted on {entry.name}"
        outcome = solve(ConeProblem(objective, elemental, constraints))
        solver_verdict = PROVEN if isinstance(outcome, ProvenSTI) else "not_provable"
        assert solver_verdict == entry.verdict, f"solver disagrees on {entry.name}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(5, f"solver matches ray oracle on {len(CORPUS)} corpus entries", elapsed)


def test_criterion_6_every_ray_witness_checks_exactly():
    start = time.perf_counter()
    elemental = enumerate_eims(3)
    checked = 0
    for entry in CORPUS:
        if entry.verdict == PROVEN:
            continue
        _, _, _, constraints, objective = _corpus_problem(entry)
        outcome = solve(ConeProblem(objective, elemental, constraints))
        assert isinstance(outcome, NotProvable)
        ray = outcome.ray
        assert all(t.row.dot(ray) >= 0 for t in elemental.rows)
        assert all(r.row.dot(ray) == 0 for r in constraints.rows)
        assert objective.dot(ray) < 0
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked > 0
    _report(6, f"{checked} disproof rays satisfy their exact conditions", elapsed)


def _proven_documents():
    """(name, text, latex, json) for every provable corpus entry plus the chain demo."""
    docs = []
    u3 = parse_universe("X,Y,Z")
    for entry in CORPUS:
        if entry.verdict != PROVEN:
            continue
        relation = parse_relation(entry.relation, u3)
        decls = tuple(parse_constraint(c, u3) for c in entry.constraints)
        result = prove(Problem(u3, decls, relation))
        assert result.proven
        d = result.directions[0]
        docs.append((
            entry.name,
            render_text(d.form),
            render_latex(d.form),
            render_json(d.form),
        ))
    u4 = parse_universe("A,B,C,D")
    result = prove(Problem(
        u4,
        (parse_constraint("markov: A -> B -> C -> D", u4),),
        parse_relation("I(A;D) <= I(B;C)", u4),
    ))
    d = result.directions[0]
    docs.append(("chain_demo", render_text(d.form), render_latex(d.form),
                 render_json(d.form)))
    return docs


def test_criterion_7_json_proofs_pass_independent_rechecking():
    start = time.perf_counter()
    docs = _proven_documents()
    for name, _, _, json_doc in docs:
        proof_check.check_proof_document(json_doc)
        parsed = json.loads(json_doc)
        assert parsed["schema_version"] == 1
    elapsed = time.perf_counter() - start
    _report(7, f"{len(docs)} JSON proofs re-verified from labels alone", elapsed)


def test_criterion_8_full_corpus_runs_are_byte_identical():
    start = time.perf_counter()
    first = _proven_documents()
    second = _proven_documents()
    assert first == second
    blob1 = "\x00".join("\x00".join(doc) for doc in first).encode()
    blob2 = "\x00".join("\x00".join(doc) for doc in second).encode()
    assert blob1 == blob2
    elapsed = time.perf_counter() - start
    _report(8, "two corpus runs render byte-identically in all formats", elapsed)
