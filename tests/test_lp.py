import functools
import random
from fractions import Fraction

import pytest

import dd_oracle
from infoineq.canonical import CanonicalVector, canonicalize, measure_vector
from infoineq.constraints import ConstraintMatrix, build_constraint_matrix
from infoineq.elemental import enumerate_eims
from infoineq.errors import DimensionMismatchError
from infoineq.lp import (
    Certificate,
    ConeProblem,
    NotProvable,
    ProvenSTI,
    _lp_columns,
    is_disproof_ray,
    solve,
    verify_certificate,
)
from infoineq.cli import Problem, prove
from infoineq.parser import (
    Entropy,
    MutualInfo,
    parse_constraint,
    parse_expr,
    parse_relation,
    parse_universe,
)

F = Fraction


def _problem(text, u, g, constraints=()):
    decls = [parse_constraint(c, u) for c in constraints]
    q = build_constraint_matrix(decls, u)
    return ConeProblem(canonicalize(parse_expr(text, u), u.n), g, q)


class TestSolve:
    def test_objective_equal_to_a_row(self, u2, g2):
        p = _problem("I(X1;X2)", u2, g2)
        out = solve(p)
        assert isinstance(out, ProvenSTI)
        assert out.certificate.lam == (F(0), F(0), F(1))
        assert out.certificate.nu == ()

    def test_four_variable_chain_dpi(self, u4, g4):
        p = _problem("I(B;C) - I(A;D)", u4, g4, ("markov: A -> B -> C -> D",))
        out = solve(p)
        assert isinstance(out, ProvenSTI)
        assert verify_certificate(p, out.certificate)

    def test_not_provable_with_checked_ray(self, u2, g2):
        p = _problem("I(X1;X2) - H(X1)", u2, g2)
        out = solve(p)
        assert isinstance(out, NotProvable)
        assert is_disproof_ray(p, out.ray)
        # an independent uniform pair is also a witness: h = (1, 1, 2)
        manual = CanonicalVector(2, (F(1), F(1), F(2)))
        assert is_disproof_ray(p, manual)

    def test_zero_objective_gives_empty_certificate(self, u2, g2):
        p = _problem("0", u2, g2)
        out = solve(p)
        assert isinstance(out, ProvenSTI)
        assert all(v == 0 for v in out.certificate.lam)


class TestExtractDual:
    """The dual certificate is read off `solve(...).certificate`."""

    def test_trivial_eim_certificate(self, u2, g2):
        cert = solve(_problem("I(X1;X2)", u2, g2)).certificate
        assert cert.lam == (F(0), F(0), F(1))

    def test_scaling(self, u2, g2):
        cert = solve(_problem("2 I(X1;X2)", u2, g2)).certificate
        assert cert.lam == (F(0), F(0), F(2))

    def test_entropy_decomposition_certificate(self, u2, g2):
        cert = solve(_problem("H(X1)", u2, g2)).certificate
        assert cert.lam == (F(1), F(0), F(1))

    def test_unprovable_has_no_certificate(self, u2, g2):
        out = solve(_problem("-H(X1)", u2, g2))
        assert isinstance(out, NotProvable)


class TestVerifyCertificate:
    def test_extracted_certificates_verify(self, u4, g4):
        p = _problem("I(B;C) - I(A;D)", u4, g4, ("markov: A -> B -> C -> D",))
        cert = solve(p).certificate
        assert verify_certificate(p, cert) is True

    def test_perturbed_lambda_fails(self, u2, g2):
        p = _problem("I(X1;X2)", u2, g2)
        cert = solve(p).certificate
        bad = Certificate((cert.lam[0] + 1,) + cert.lam[1:], cert.nu)
        assert verify_certificate(p, bad) is False

    def test_negated_lambda_fails_even_if_equality_held(self, u2, g2):
        # -H(X1|X2) + ... : build multipliers satisfying the equality with a
        # negative entry by flipping signs on a zero-sum pair
        p = _problem("H(X1) - H(X1)", u2, g2)
        ok = Certificate((F(0), F(0), F(0)), ())
        assert verify_certificate(p, ok) is True
        # lam = row3 - row3 pattern cannot be expressed; use direct negative
        bad = Certificate((F(-1), F(0), F(0)), ())
        assert verify_certificate(p, bad) is False

    def test_dimension_mismatch(self, u2, g2):
        p = _problem("I(X1;X2)", u2, g2)
        with pytest.raises(DimensionMismatchError):
            verify_certificate(p, Certificate((F(1),), ()))


class TestNonnegCombination:
    def test_entropy_over_unconstrained_cone(self, u2, g2):
        target = canonicalize(parse_expr("H(X1)", u2), 2)
        result = solve(ConeProblem(target, g2))
        assert isinstance(result, ProvenSTI)
        assert result.certificate.lam == (F(1), F(0), F(1))

    def test_negative_entropy_is_infeasible_with_witness(self, u2, g2):
        target = canonicalize(parse_expr("-H(X1)", u2), 2)
        result = solve(ConeProblem(target, g2))
        assert isinstance(result, NotProvable)
        w = result.ray
        assert target.dot(w) < 0
        assert all(t.row.dot(w) >= 0 for t in g2.rows)

    def test_zero_target(self, u2, g2):
        result = solve(ConeProblem(CanonicalVector.zero(2), g2))
        assert isinstance(result, ProvenSTI)
        assert result.certificate.lam == (F(0), F(0), F(0))
        assert result.certificate.nu == ()

    def test_constraint_multipliers_can_be_negative(self, u3, g3):
        q = build_constraint_matrix([parse_constraint("markov: X -> Y -> Z", u3)], u3)
        # I(X;Z|Y) <= 0: the difference is -I(X;Z|Y) = 0*G - 1*q
        target = canonicalize(parse_expr("-I(X;Z|Y)", u3), 3)
        result = solve(ConeProblem(target, g3, q))
        assert isinstance(result, ProvenSTI)
        assert result.certificate.nu == (F(1),)


class TestNoConstraints:
    def test_none_is_stored_as_the_empty_matrix(self, u2, g2):
        p = ConeProblem(canonicalize(parse_expr("I(X1;X2)", u2), 2), g2)
        assert p.constraints == ConstraintMatrix(2, ())
        assert verify_certificate(p, Certificate((F(0), F(0), F(1)), ()))


class TestColumns:
    def test_elemental_columns_equal_the_dense_rows(self):
        for n in range(1, 6):
            u = parse_universe(",".join(f"X{k}" for k in range(1, n + 1)))
            g = enumerate_eims(n)
            explicit = parse_constraint(f"H({','.join(u.names)}) - 1/2 H(X1) = 0", u)
            for q in (None, build_constraint_matrix([explicit], u)):
                columns = _lp_columns(g, q)
                ne = len(g.rows)
                assert [tuple(col) for col in columns[:ne]] == [t.row.coeffs for t in g.rows]
                qrows = q.rows if q is not None else ()
                assert columns[ne:] == ([tuple(-c for c in r.row.coeffs) for r in qrows]
                                        + [r.row.coeffs for r in qrows])


class TestChecksReadTheMasks:
    """The in-solve checks agree with the same checks over the dense rows."""

    def test_ray_check(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            g = enumerate_eims(n)
            target = -CanonicalVector(n, (F(1),) * ((1 << n) - 1))
            outcomes = set()
            for _ in range(200):
                # A sum of "one shared bit" entropy vectors is a polymatroid;
                # nudging one coordinate may break any of its elemental rows.
                h = [0] * ((1 << n) - 1)
                for _ in range(3):
                    shared = rng.randrange(1, 1 << n)
                    for mask in range(1, 1 << n):
                        h[mask - 1] += bool(mask & shared)
                h[rng.randrange(len(h))] += rng.randint(-1, 1)
                ray = CanonicalVector(n, tuple(map(F, h)))
                dense = target.dot(ray) < 0 and all(t.row.dot(ray) >= 0 for t in g.rows)
                assert is_disproof_ray(ConeProblem(target, g), ray) == dense
                outcomes.add(dense)
            assert outcomes == {True, False}

    def test_certificate_check(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            g = enumerate_eims(n)
            for _ in range(50):
                lam = tuple(F(rng.choice((0, 0, 1, 2))) for _ in g.rows)
                total = CanonicalVector.zero(n)
                for coeff, t in zip(lam, g.rows):
                    total = total + t.row.scale(coeff)
                assert verify_certificate(ConeProblem(total, g), Certificate(lam, ()))
                k = rng.randrange(len(g.rows))
                bumped = lam[:k] + (lam[k] + 1,) + lam[k + 1:]
                assert not verify_certificate(ConeProblem(total, g), Certificate(bumped, ()))


class TestDeterminism:
    def test_identical_problems_identical_outcomes(self, u4, g4):
        p = _problem("I(B;C) - I(A;D)", u4, g4, ("markov: A -> B -> C -> D",))
        first = solve(p)
        second = solve(p)
        assert first == second

    def test_identical_rays(self, u3, g3):
        p = _problem("I(X;Z) - I(X;Y)", u3, g3)
        a, b = solve(p), solve(p)
        assert isinstance(a, NotProvable)
        assert a.ray == b.ray


def _all_bims(n):
    full = (1 << n) - 1
    seen = set()
    for gamma in range(full + 1):
        for alpha in range(1, full + 1):
            if alpha | gamma == gamma:
                continue
            key = (alpha | gamma, gamma)
            if key not in seen:
                seen.add(key)
                yield Entropy(alpha, gamma)
    seen.clear()
    for gamma in range(full + 1):
        for alpha in range(1, full + 1):
            for beta in range(1, full + 1):
                a, b = alpha | gamma, beta | gamma
                if a == gamma or b == gamma:
                    continue
                key = (min(a, b), max(a, b), gamma)
                if key not in seen:
                    seen.add(key)
                    yield MutualInfo(alpha, beta, gamma)


@functools.lru_cache(maxsize=None)
def _cone_rays(names, constraints):
    """dd_oracle's (extreme rays, lineality) of the elemental cone cut by the constraints."""
    u = parse_universe(names)
    q = build_constraint_matrix([parse_constraint(c, u) for c in constraints], u)
    ineqs = [t.row.coeffs for t in enumerate_eims(u.n).rows]
    return dd_oracle.extreme_rays(ineqs, [row.row.coeffs for row in q.rows], (1 << u.n) - 1)


class TestSoundnessFuzz:
    def test_every_outcome_passes_its_own_check(self):
        rng = random.Random(99)
        pool = {
            3: ("X,Y,Z", ["markov: X -> Y -> Z", "indep: X ; Y",
                          "func: Z = f(X,Y)", "I(X;Y|Z) = 0"]),
            4: ("A,B,C,D", ["markov: A -> B -> C -> D",
                            "factor: P(A,B) P(C|B) P(D|C)",
                            "indep: A ; B ; C", "func: D = f(A)"]),
        }
        matrices = {n: enumerate_eims(n) for n in pool}
        for _ in range(120):
            n = rng.choice([3, 4])
            names, constraints = pool[n]
            u = parse_universe(names)
            chosen = rng.sample(constraints, rng.randint(0, 2))
            decls = [parse_constraint(c, u) for c in chosen]
            q = build_constraint_matrix(decls, u)
            objective = CanonicalVector.zero(n)
            full = (1 << n) - 1
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    m = Entropy(rng.randint(1, full), rng.randint(0, full))
                else:
                    m = MutualInfo(rng.randint(1, full), rng.randint(1, full),
                                   rng.randint(0, full))
                objective = objective + measure_vector(m, n).scale(F(rng.choice([-2, -1, 1, 2])))
            p = ConeProblem(objective, matrices[n], q)
            out = solve(p)
            if isinstance(out, ProvenSTI):
                assert verify_certificate(p, out.certificate)
            else:
                assert is_disproof_ray(p, out.ray)
            rays, lineality = _cone_rays(names, tuple(sorted(chosen)))
            expected = dd_oracle.holds_on_rays(objective.coeffs, rays, lineality)
            assert isinstance(out, ProvenSTI) == expected


class TestOracleEquivalence:
    def test_signed_bims_two_variables(self, g2):
        ineqs = [t.row.coeffs for t in g2.rows]
        for b in _all_bims(2):
            for sign in (1, -1):
                objective = measure_vector(b, 2).scale(F(sign))
                expected = dd_oracle.holds_on_cone(objective.coeffs, ineqs, [], 3)
                out = solve(ConeProblem(objective, g2))
                assert isinstance(out, ProvenSTI) == expected

    def test_random_eim_combinations_three_variables(self, g3):
        rng = random.Random(23)
        ineqs = [t.row.coeffs for t in g3.rows]
        rows = list(g3.rows)
        for _ in range(60):
            objective = CanonicalVector.zero(3)
            for _ in range(rng.randint(1, 3)):
                coeff = F(rng.choice([-3, -2, -1, 1, 2, 3]))
                objective = objective + rng.choice(rows).row.scale(coeff)
            expected = dd_oracle.holds_on_cone(objective.coeffs, ineqs, [], 7)
            out = solve(ConeProblem(objective, g3))
            assert isinstance(out, ProvenSTI) == expected
            if isinstance(out, ProvenSTI):
                assert verify_certificate(ConeProblem(objective, g3), out.certificate)
            else:
                assert is_disproof_ray(ConeProblem(objective, g3), out.ray)

    def test_random_objectives_four_variables(self, g4):
        rays, lineality = _cone_rays("A,B,C,D", ())
        assert len(rays) == 41 and not lineality
        rng = random.Random(47)
        rows = list(g4.rows)
        verdicts = set()
        for _ in range(80):
            objective = CanonicalVector.zero(4)
            for _ in range(rng.randint(1, 4)):
                coeff = F(rng.choice([-2, -1, 1, 2, 3]))
                if rng.random() < 0.5:
                    objective = objective + rng.choice(rows).row.scale(coeff)
                else:
                    m = Entropy(rng.randint(1, 15), rng.randint(0, 15))
                    objective = objective + measure_vector(m, 4).scale(coeff)
            expected = dd_oracle.holds_on_rays(objective.coeffs, rays, lineality)
            out = solve(ConeProblem(objective, g4))
            assert isinstance(out, ProvenSTI) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}


def _measure_text(rng, names):
    def subset():
        return ",".join(name for name in names if rng.random() < 0.5) or rng.choice(names)
    if rng.random() < 0.5:
        return f"H({subset()}|{subset()})" if rng.random() < 0.5 else f"H({subset()})"
    return f"I({subset()};{subset()}|{subset()})" if rng.random() < 0.5 else \
        f"I({subset()};{subset()})"


def _side(rng, names):
    return " + ".join(f"{rng.randint(1, 3)} {_measure_text(rng, names)}"
                      for _ in range(rng.randint(1, 2)))


def _proven(names, relation, constraints):
    u = parse_universe(names)
    decls = tuple(parse_constraint(c, u) for c in constraints)
    return prove(Problem(u, decls, parse_relation(relation, u))).proven


class TestMetamorphicVerdicts:
    def test_relabelling_keeps_the_verdict(self):
        """Permuted variables, an added unused one, a positive scale and swapped sides."""
        rng = random.Random(53)
        names = ["X", "Y", "Z"]
        pool = ["markov: X -> Y -> Z", "indep: X ; Y", "func: Z = f(X,Y)", "I(X;Y|Z) = 0"]
        verdicts = set()
        for _ in range(60):
            lhs, rhs = _side(rng, names), _side(rng, names)
            constraints = rng.sample(pool, rng.randint(0, 1))
            verdict = _proven("X,Y,Z", f"{lhs} >= {rhs}", constraints)
            permuted = ",".join(rng.sample(names, 3))
            widened = names[:]
            widened.insert(rng.randint(0, 3), "W")
            k = F(rng.randint(1, 9), rng.randint(1, 9))
            assert _proven(permuted, f"{lhs} >= {rhs}", constraints) == verdict
            assert _proven(",".join(widened), f"{lhs} >= {rhs}", constraints) == verdict
            assert _proven("X,Y,Z", f"{k} ({lhs}) >= {k} ({rhs})", constraints) == verdict
            assert _proven("X,Y,Z", f"{rhs} <= {lhs}", constraints) == verdict
            verdicts.add(verdict)
        assert verdicts == {True, False}
