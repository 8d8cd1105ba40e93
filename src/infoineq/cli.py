"""Command-line front end tying the pipeline together.

Problem files are plain UTF-8 text with `#` comments:

    vars: A, B, C, D
    assume: markov: A -> B -> C -> D
    prove: I(A;D) <= I(B;C)

Exactly one `vars:` line and one `prove:` line; `assume:` lines are optional
and may repeat.  The same problem can be given inline:

    infoineq --vars "A,B,C,D" --assume "markov: A -> B -> C -> D" \
             --expr "I(A;D) <= I(B;C)"

Exit codes: 0 = proven (proof on stdout), 1 = not provable as a Shannon-type
inequality (ray summary on stderr), 2 = input error (including a problem
over more than `MAX_VARS` declared variables).

Equalities are proven as two one-sided problems; both directions must hold.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .canonical import CanonicalVector, canonicalize
from .constraints import build_constraint_matrix
from .elemental import enumerate_eims
from .errors import InfoIneqError, ProblemTooLargeError
from .lp import ConeProblem, NotProvable, ProvenSTI, SolveOutcome, solve
from .parser import (
    ConstraintDecl,
    Relation,
    RelOp,
    VarUniverse,
    parse_constraint,
    parse_relation,
    parse_universe,
)
from .proof import (
    ElementalForm,
    build_elemental_form,
    difference_expr,
    direction_tag,
    render_json,
    render_latex,
    render_text,
)

PROVEN_VERDICT = "PROVEN (Shannon-type)"
NOT_PROVABLE_VERDICT = "NOT PROVABLE as Shannon-type (may still hold)"


class ProblemFileError(InfoIneqError):
    """Malformed problem file; message carries file/line/offset context."""


@dataclass(frozen=True)
class Problem:
    universe: VarUniverse
    decls: tuple[ConstraintDecl, ...]
    relation: Relation


@dataclass(frozen=True)
class DirectionResult:
    """Outcome for one direction of the statement."""

    relation: Relation  # directed: op is LEQ or GEQ
    objective: CanonicalVector  # difference whose nonnegativity is the relation
    outcome: SolveOutcome
    form: ElementalForm | None  # present iff proven


@dataclass(frozen=True)
class ProveResult:
    problem: Problem
    directions: tuple[DirectionResult, ...]

    @property
    def proven(self) -> bool:
        return all(isinstance(d.outcome, ProvenSTI) for d in self.directions)


def parse_problem_file(path: str) -> Problem:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFileError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ProblemFileError(f"{path}: not UTF-8 text") from None
    vars_line: tuple[int, str] | None = None
    prove_line: tuple[int, str] | None = None
    assume_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars:"):
            if vars_line is not None:
                raise ProblemFileError(f"{path}:{lineno}: duplicate vars: line")
            vars_line = (lineno, line[len("vars:"):])
        elif line.startswith("assume:"):
            assume_lines.append((lineno, line[len("assume:"):]))
        elif line.startswith("prove:"):
            if prove_line is not None:
                raise ProblemFileError(f"{path}:{lineno}: duplicate prove: line")
            prove_line = (lineno, line[len("prove:"):])
        else:
            raise ProblemFileError(
                f"{path}:{lineno}: expected a vars:/assume:/prove: line, got {line!r}")
    if vars_line is None:
        raise ProblemFileError(f"{path}: missing vars: line")
    if prove_line is None:
        raise ProblemFileError(f"{path}: missing prove: line")
    return _build_problem(vars_line, assume_lines, prove_line, path)


_Line = tuple[int | None, str]  # (line number in the problem file, text)


def _build_problem(vars_line: _Line, assume_lines: list[_Line], prove_line: _Line,
                   path: str | None = None) -> Problem:
    """Parse the three parts of a problem; a `path` puts `path:line:` on every error."""

    def parsed(parse, line, *context):
        lineno, text = line
        try:
            return parse(text, *context)
        except InfoIneqError as exc:
            if path is None:
                raise
            raise ProblemFileError(f"{path}:{lineno}: {exc}") from None

    universe = parsed(parse_universe, vars_line)
    decls = tuple(parsed(parse_constraint, line, universe) for line in assume_lines)
    return Problem(universe, decls, parsed(parse_relation, prove_line, universe))


def _directed_relations(relation: Relation) -> tuple[Relation, ...]:
    if relation.op is RelOp.EQ:
        return (
            Relation(relation.lhs, relation.rhs, RelOp.LEQ),
            Relation(relation.lhs, relation.rhs, RelOp.GEQ),
        )
    return (relation,)


# Most declared variables `prove` accepts.  The elemental rows over the
# declared universe are built first; in a fresh interpreter they take 101 MB
# at n = 13 and 216 MB at 14, roughly doubling with each variable.
MAX_VARS = 13


def prove(problem: Problem) -> ProveResult:
    """Run the full pipeline: constraints, elemental matrix, solve, proof.

    A universe of more than `MAX_VARS` variables raises `ProblemTooLargeError`
    before anything of its size is built.
    """
    u = problem.universe
    if u.n > MAX_VARS:
        raise ProblemTooLargeError(f"{u.n} variables declared; at most {MAX_VARS} are supported")
    elemental = enumerate_eims(u.n)
    constraints = build_constraint_matrix(problem.decls, u)
    results = []
    for directed in _directed_relations(problem.relation):
        objective = canonicalize(difference_expr(directed), u.n)
        cone = ConeProblem(objective, elemental, constraints)
        outcome = solve(cone)
        form = None
        if isinstance(outcome, ProvenSTI):
            form = build_elemental_form(cone, outcome.certificate, directed, u)
        results.append(DirectionResult(directed, objective, outcome, form))
    return ProveResult(problem, tuple(results))


def _ray_summary(ray: CanonicalVector, objective: CanonicalVector, u: VarUniverse) -> str:
    lines = ["ray witness (objective decreases along this direction of the cone):"]
    for mask, coeff in ray.nonzero():
        lines.append(f"  H({u.set_label(mask)}) = {coeff}")
    lines.append(f"objective on ray: {objective.dot(ray)}")
    return "\n".join(lines) + "\n"


def run(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="infoineq",
        description="Decide whether a linear information inequality is a "
                    "(constrained) Shannon-type inequality and print an analytic proof.",
    )
    ap.add_argument("command", nargs="*", metavar="prove FILE",
                    help="problem file mode: 'prove' followed by a file path")
    ap.add_argument("--expr", help="relation to prove, e.g. 'I(X;Y) >= 0'")
    ap.add_argument("--vars", help="comma-separated variable names, e.g. 'X,Y'")
    ap.add_argument("--assume", action="append", default=[],
                    help="constraint declaration; may repeat")
    ap.add_argument("--format", choices=("text", "latex", "json"), default="text")
    ap.add_argument("--quiet", action="store_true", help="print the verdict only")
    args = ap.parse_args(argv)

    try:
        problem = _problem_from_args(ap, args)
    except ProblemFileError as exc:
        print(exc, file=sys.stderr)
        return 2
    except InfoIneqError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

    try:
        result = prove(problem)
    except ProblemTooLargeError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return _emit(result, args.format, args.quiet)


def _problem_from_args(ap: argparse.ArgumentParser, args: argparse.Namespace) -> Problem:
    if args.command:
        if len(args.command) != 2 or args.command[0] != "prove":
            ap.error("positional usage is: prove FILE")
        if args.expr or args.vars:
            ap.error("give either a problem file or --expr/--vars, not both")
        return parse_problem_file(args.command[1])
    if not args.expr or not args.vars:
        ap.error("--expr and --vars are required unless a problem file is given")
    return _build_problem((None, args.vars), [(None, text) for text in args.assume],
                          (None, args.expr))


def _emit(result: ProveResult, fmt: str, quiet: bool) -> int:
    u = result.problem.universe
    if result.proven:
        if quiet:
            print(PROVEN_VERDICT)
            return 0
        forms = [d.form for d in result.directions]
        if fmt == "text":
            print(PROVEN_VERDICT + "\n")
            print(render_text(*forms), end="")
        elif fmt == "latex":
            print(render_latex(*forms), end="")
        else:
            print(render_json(*forms), end="")
        return 0
    print(NOT_PROVABLE_VERDICT)
    if not quiet:
        for d in result.directions:
            if isinstance(d.outcome, NotProvable):
                if len(result.directions) > 1:
                    print(f"direction {direction_tag(d.relation)} failed:", file=sys.stderr)
                print(_ray_summary(d.outcome.ray, d.objective, u), end="", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except SystemExit as exc:  # argparse error paths exit with code 2
        code = exc.code
        return code if isinstance(code, int) else 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
