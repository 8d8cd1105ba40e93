"""Fixed problem lists with frozen verdicts, and their seeded relabelling.

Every verdict below was fixed by hand or by an oracle independent of the
solver, never by running the code under test:

  * corpus_n3 copies the verdicts of tests/corpus_n3.py, which came from the
    extreme-ray oracle (tests/dd_oracle.py), plus the README chain demo.
  * ladder_unused_n5 takes the two queries and verdicts of the ROADMAP
    Baseline (its n=5 row) and adds subadditivity.
  * chain_full_n5 gives a hand proof sketch for each proven problem and a
    small counterexample distribution for each problem that is false (a
    false inequality cannot be Shannon-type).

A seed permutes the problem order and renames the variables.  Renaming
keeps the declaration order, so the solver sees the same linear program up
to names and timings compare across seeds; verdicts are invariant under both.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace

PROVEN = "proven"
NOT_PROVABLE = "not_provable"

# Exit codes of `infoineq` for the two verdicts.
EXIT_CODE = {PROVEN: 0, NOT_PROVABLE: 1}


@dataclass(frozen=True)
class Problem:
    id: str
    names: tuple[str, ...]  # declared universe, in declaration order
    relation: str
    constraints: tuple[str, ...]
    verdict: str  # PROVEN or NOT_PROVABLE
    reason: str  # one line: where the verdict comes from

    def argv(self) -> list[str]:
        """The inline `infoineq` command line, JSON proof format."""
        argv = ["--vars", ",".join(self.names), "--expr", self.relation]
        for text in self.constraints:
            argv += ["--assume", text]
        return argv + ["--format", "json"]


def _problems(names: str, rows) -> tuple[Problem, ...]:
    universe = tuple(name.strip() for name in names.split(","))
    return tuple(Problem(pid, universe, rel, tuple(cs), verdict, reason)
                 for pid, rel, cs, verdict, reason in rows)


P, N = PROVEN, NOT_PROVABLE
MARKOV3 = ("markov: X -> Y -> Z",)

CORPUS_N3 = _problems("X, Y, Z", [
    # unconstrained, provable
    ("mi_nonneg", "I(X;Y) >= 0", (), P, "oracle: mutual information is nonnegative"),
    ("cond_mi_nonneg", "I(X;Y|Z) >= 0", (), P, "oracle: elemental measure"),
    ("cond_entropy_nonneg", "H(X|Y,Z) >= 0", (), P, "oracle: elemental measure"),
    ("entropy_nonneg", "H(X) >= 0", (), P, "oracle: entropy is nonnegative"),
    ("scaled_mi_nonneg", "3 I(X;Y) >= 0", (), P, "oracle: positive multiple of I(X;Y)"),
    ("half_leq_whole", "1/2 H(X) <= H(X)", (), P, "oracle: H(X)/2 >= 0"),
    ("monotone_pair", "H(X) <= H(X,Y)", (), P, "oracle: H(Y|X) >= 0"),
    ("monotone_triple", "H(X,Z) <= H(X,Y,Z)", (), P, "oracle: H(Y|X,Z) >= 0"),
    ("subadditive_pair", "H(X,Y) <= H(X) + H(Y)", (), P, "oracle: I(X;Y) >= 0"),
    ("subadditive_triple", "H(X,Y,Z) <= H(X,Y) + H(Z)", (), P, "oracle: I(X,Y;Z) >= 0"),
    ("indep_bound_three", "H(X,Y,Z) <= H(X) + H(Y) + H(Z)", (), P,
     "oracle: subadditivity twice"),
    ("conditioning_reduces", "H(X|Y) <= H(X)", (), P, "oracle: I(X;Y) >= 0"),
    ("conditioning_reduces2", "H(X|Y,Z) <= H(X|Y)", (), P, "oracle: I(X;Z|Y) >= 0"),
    ("mi_leq_left_entropy", "I(X;Y) <= H(X)", (), P, "oracle: H(X|Y) >= 0"),
    ("mi_leq_right_entropy", "I(X;Y) <= H(Y)", (), P, "oracle: H(Y|X) >= 0"),
    ("mi_joint_leq_entropy", "I(X;Y,Z) <= H(X)", (), P, "oracle: H(X|Y,Z) >= 0"),
    ("mi_chain_monotone", "I(X;Y) <= I(X;Y,Z)", (), P, "oracle: chain rule, I(X;Z|Y) >= 0"),
    ("mi_chain_monotone2", "I(X;Z) <= I(X;Y,Z)", (), P, "oracle: chain rule, I(X;Y|Z) >= 0"),
    ("submodularity", "H(X,Y,Z) + H(Y) <= H(X,Y) + H(Y,Z)", (), P, "oracle: I(X;Z|Y) >= 0"),
    ("submodularity2", "H(X,Y,Z) + H(X) <= H(X,Y) + H(X,Z)", (), P, "oracle: I(Y;Z|X) >= 0"),
    ("han_triangle", "2 H(X,Y,Z) <= H(X,Y) + H(Y,Z) + H(X,Z)", (), P,
     "oracle: Han's inequality for three variables"),
    ("cond_subadditive", "H(X,Y|Z) <= H(X|Z) + H(Y|Z)", (), P, "oracle: I(X;Y|Z) >= 0"),
    ("cond_mi_leq_cond_ent", "I(X;Y|Z) <= H(X|Z)", (), P, "oracle: H(X|Y,Z) >= 0"),
    ("mi_split_bound", "I(X;Z) <= I(X;Y) + I(X;Z|Y)", (), P, "oracle: I(X;Y|Z) >= 0"),
    ("chain_rule_leq", "H(X,Y) <= H(X) + H(Y|X)", (), P, "oracle: identity, both sides equal"),
    ("chain_rule_geq", "H(X,Y) >= H(X) + H(Y|X)", (), P, "oracle: identity, both sides equal"),
    ("mi_identity_leq", "I(X;Y) <= H(X) + H(Y) - H(X,Y)", (), P, "oracle: identity"),
    ("mi_identity_geq", "I(X;Y) >= H(X) + H(Y) - H(X,Y)", (), P, "oracle: identity"),
    ("self_information", "I(X;X) >= H(X)", (), P, "oracle: I(X;X) = H(X)"),
    # constrained, provable
    ("dpi_markov", "I(X;Z) <= I(X;Y)", MARKOV3, P, "oracle: data processing inequality"),
    ("dpi_markov_right", "I(X;Z) <= I(Y;Z)", MARKOV3, P, "oracle: data processing, other end"),
    ("markov_cut_zero", "I(X;Z|Y) <= 0", MARKOV3, P, "oracle: the chain's cut condition"),
    ("markov_cut_zero_geq", "I(X;Z|Y) >= 0", MARKOV3, P, "oracle: elemental measure"),
    ("markov_cond_mi_drop", "I(X;Y|Z) <= I(X;Y)", MARKOV3, P,
     "oracle: I(X;Y) - I(X;Y|Z) = I(X;Z) >= 0 under the chain"),
    ("markov_entropy_dpi", "H(X|Y) <= H(X|Z)", MARKOV3, P, "oracle: data processing"),
    ("factor_dpi", "I(X;Z) <= I(X;Y)", ("factor: P(X) P(Y|X) P(Z|Y)",), P,
     "oracle: data processing from the factorization"),
    ("indep_pair_geq", "H(X,Y) >= H(X) + H(Y)", ("indep: X ; Y",), P, "oracle: I(X;Y) = 0"),
    ("indep_pair_leq", "H(X,Y) <= H(X) + H(Y)", ("indep: X ; Y",), P, "oracle: subadditivity"),
    ("indep_three_geq", "H(X,Y,Z) >= H(X) + H(Y) + H(Z)", ("indep: X ; Y ; Z",), P,
     "oracle: the independence row itself"),
    ("indep_three_pair", "H(X,Y) >= H(X) + H(Y)", ("indep: X ; Y ; Z",), P,
     "oracle: pairwise independence follows"),
    ("explicit_pair_indep", "H(X,Y) >= H(X) + H(Y)", ("I(X;Y) = 0",), P,
     "oracle: the explicit row itself"),
    ("func_entropy_drop", "H(Y) <= H(X)", ("func: Y = f(X)",), P,
     "oracle: H(Y) <= H(X,Y) = H(X)"),
    ("func_mi_full", "I(X;Y) >= H(Y)", ("func: Y = f(X)",), P, "oracle: H(Y|X) = 0"),
    ("func_joint_bound", "H(Z) <= H(X,Y)", ("func: Z = f(X,Y)",), P,
     "oracle: H(Z) <= H(X,Y,Z) = H(X,Y)"),
    ("func_zero_resid", "H(Z|X,Y) <= 0", ("func: Z = f(X,Y)",), P, "oracle: the dependency row"),
    # not provable
    ("entropy_leq_mi", "H(X) <= I(X;Y)", (), N, "oracle: X a bit, Y constant"),
    ("entropy_leq_cond", "H(X) <= H(X|Y)", (), N, "oracle: X = Y a bit"),
    ("superadditive_pair", "H(X) + H(Y) <= H(X,Y)", (), N, "oracle: X = Y a bit"),
    ("joint_leq_part", "H(X,Y) <= H(X)", (), N, "oracle: Y a bit, X constant"),
    ("entropy_compare", "H(X) <= H(Y)", (), N, "oracle: X a bit, Y constant"),
    ("superadditive_triple", "H(X) + H(Y) + H(Z) <= H(X,Y,Z)", (), N, "oracle: X = Y = Z a bit"),
    ("double_mi", "2 I(X;Y) <= I(X;Y)", (), N, "oracle: X = Y a bit"),
    ("dpi_without_markov", "I(X;Z) <= I(X;Y)", (), N, "oracle: X = Z a bit, Y constant"),
    ("dpi_without_markov2", "I(Y;Z) <= I(X;Y)", (), N, "oracle: Y = Z a bit, X constant"),
    ("cond_increases_mi", "I(X;Y|Z) <= I(X;Y)", (), N, "oracle: X, Y fair bits, Z = X xor Y"),
    ("cond_decreases_mi", "I(X;Y) <= I(X;Y|Z)", (), N, "oracle: X = Y = Z a bit"),
    ("markov_wrong_dpi", "I(X;Y) <= I(X;Z)", MARKOV3, N, "oracle: X = Y a bit, Z constant"),
    ("markov_entropy_cmp", "H(X) <= H(Z)", MARKOV3, N, "oracle: X = Y a bit, Z constant"),
    ("markov_cond_mi_gain", "I(X;Y) <= I(X;Y|Z)", MARKOV3, N, "oracle: X = Y = Z a bit"),
    ("indep_unrelated", "I(X;Z) <= 0", ("indep: X ; Y",), N, "oracle: X = Z a bit, Y constant"),
    ("func_reverse", "H(X,Y) <= H(Z)", ("func: Z = f(X,Y)",), N, "oracle: X a bit, Y, Z constant"),
    ("uncond_markov_cut", "I(X;Z|Y) <= 0", (), N, "oracle: X = Z a bit, Y constant"),
]) + _problems("A, B, C, D", [
    ("chain_demo", "I(A;D) <= I(B;C)", ("markov: A -> B -> C -> D",), P,
     "README demo: I(A;D) <= I(A;C) <= I(B;C) by data processing twice"),
])

LADDER_UNUSED_N5 = _problems("X1, X2, X3, X4, X5", [
    ("ladder_dpi", "I(X1;X3) <= I(X1;X2)", ("markov: X1 -> X2 -> X3",), P,
     "ROADMAP Baseline: proven, data processing"),
    ("ladder_wrong_dpi", "I(X1;X2) <= I(X1;X3)", (), N,
     "ROADMAP Baseline: not provable; X1 = X2 a bit, the rest constant"),
    ("ladder_subadditive", "H(X1,X2,X3) <= H(X1) + H(X2) + H(X3)", (), P,
     "subadditivity: I(X1;X2) + I(X1,X2;X3) >= 0"),
])

MARKOV5 = ("markov: X1 -> X2 -> X3 -> X4 -> X5",)

CHAIN_FULL_N5 = _problems("X1, X2, X3, X4, X5", [
    ("chain_markov_dpi", "I(X1;X5) <= I(X2;X4)", MARKOV5, P,
     "I(X1;X5) <= I(X1;X4) <= I(X2;X4), data processing on X1-X4-X5 then X1-X2-X4"),
    ("chain_factor_dpi", "I(X1;X5) <= I(X3;X4)",
     ("factor: P(X1) P(X2|X1) P(X3|X2) P(X4|X3) P(X5|X4)",), P,
     "the factorization is the chain; I(X1;X5) <= I(X3;X5) <= I(X3;X4)"),
    ("chain_reversed_dpi", "I(X2;X4) <= I(X1;X5)", MARKOV5, N,
     "false: X2 = X3 = X4 a fair bit, X1 and X5 constant; chain holds, 1 > 0"),
    ("chain_false_uncond", "I(X1;X2) <= I(X3;X4|X5)", (), N,
     "false: X1 = X2 a fair bit, X3, X4, X5 constant; 1 > 0"),
    ("chain_subadditive", "H(X1,X2,X3,X4,X5) <= H(X1) + H(X2) + H(X3) + H(X4) + H(X5)", (), P,
     "subadditivity: sum of I(X1..Xk;Xk+1) >= 0 for k = 1..4"),
    ("chain_cut_zero", "I(X1;X5|X2) = 0", MARKOV5, P,
     "<= : I(X1;X5|X2) <= I(X1;X3,X4,X5|X2) = 0 by the first cut; >= : elemental"),
    ("chain_func_indep", "H(X1,X2) + H(X5) <= H(X1,X2,X5)",
     ("func: X5 = f(X3,X4)", "indep: X1,X2 ; X3,X4"), P,
     "I(X1,X2;X5) <= I(X1,X2;X3,X4,X5) = I(X1,X2;X3,X4) = 0"),
])

WORKLOADS = {
    "corpus_n3": CORPUS_N3,
    "ladder_unused_n5": LADDER_UNUSED_N5,
    "chain_full_n5": CHAIN_FULL_N5,
}

_IDENT_RE = re.compile(r"\b[A-Za-z][A-Za-z0-9_]*\b")
# Generated names never start with H, I or P (measure and factor keywords) or
# with F or O (read like f and 0); all have the same length.
_NAME_POOL = tuple(f"{letter}{k:02d}" for letter in "ABCDEGJKLMNQRSTUVWXYZ" for k in range(100))


def _rename(problem: Problem, mapping: dict[str, str]) -> Problem:
    def sub(text: str) -> str:
        return _IDENT_RE.sub(lambda m: mapping.get(m.group(0), m.group(0)), text)

    return replace(
        problem,
        names=tuple(mapping[name] for name in problem.names),
        relation=sub(problem.relation),
        constraints=tuple(sub(text) for text in problem.constraints),
    )


def generate(workload: str, seed: int) -> list[Problem]:
    """The workload's problems, renamed and reordered by `seed`."""
    rng = random.Random(seed)
    problems = []
    for problem in WORKLOADS[workload]:
        fresh = rng.sample(_NAME_POOL, len(problem.names))
        problems.append(_rename(problem, dict(zip(problem.names, fresh))))
    rng.shuffle(problems)
    return problems
