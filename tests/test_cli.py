import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import proof_check
from corpus_n3 import CORPUS, PROVEN
from infoineq.cli import (
    MAX_VARS,
    NOT_PROVABLE_VERDICT,
    PROVEN_VERDICT,
    Problem,
    ProblemFileError,
    main,
    parse_problem_file,
    prove,
)
from infoineq.errors import ProblemTooLargeError
from infoineq.parser import parse_constraint, parse_relation, parse_universe

# Six coprime 999-digit denominators: their lcm has about 5988 digits, more
# than Python prints from an int by default.
LONG_SUM = " + ".join(f"1/{10**998 + k} H(X)" for k in (1, 3, 7, 9, 11, 13))


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.iiq"
    path.write_text(
        "# data processing over a four-variable chain\n"
        "vars: A, B, C, D\n"
        "assume: markov: A -> B -> C -> D\n"
        "prove: I(A;D) <= I(B;C)\n",
        encoding="utf-8",
    )
    return str(path)


class TestProblemFile:
    def test_parses_sections(self, chain_file):
        problem = parse_problem_file(chain_file)
        assert problem.universe.names == ("A", "B", "C", "D")
        assert len(problem.decls) == 1

    def test_missing_vars(self, tmp_path):
        p = tmp_path / "bad.iiq"
        p.write_text("prove: H(X) >= 0\n", encoding="utf-8")
        with pytest.raises(ProblemFileError, match="missing vars"):
            parse_problem_file(str(p))

    def test_duplicate_prove(self, tmp_path):
        p = tmp_path / "bad.iiq"
        p.write_text("vars: X\nprove: H(X) >= 0\nprove: H(X) >= 0\n", encoding="utf-8")
        with pytest.raises(ProblemFileError, match="duplicate prove"):
            parse_problem_file(str(p))

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.iiq"
        p.write_text("vars: X, Y\nprove: H(X) <\n", encoding="utf-8")
        with pytest.raises(ProblemFileError, match=r"bad\.iiq:2"):
            parse_problem_file(str(p))

    def test_duplicate_vars(self, tmp_path, capsys):
        p = tmp_path / "bad.iiq"
        p.write_text("vars: X\nvars: Y\nprove: H(X) >= 0\n", encoding="utf-8")
        assert main(["prove", str(p)]) == 2
        assert capsys.readouterr().err == f"{p}:2: duplicate vars: line\n"

    def test_missing_prove(self, tmp_path, capsys):
        p = tmp_path / "bad.iiq"
        p.write_text("vars: X\n", encoding="utf-8")
        assert main(["prove", str(p)]) == 2
        assert capsys.readouterr().err == f"{p}: missing prove: line\n"

    def test_unrecognized_line(self, tmp_path):
        p = tmp_path / "bad.iiq"
        p.write_text("vars: X\nshow: H(X)\nprove: H(X) >= 0\n", encoding="utf-8")
        with pytest.raises(ProblemFileError, match="bad.iiq:2"):
            parse_problem_file(str(p))


class TestExitCodes:
    def test_proven_file(self, chain_file, capsys):
        code = main(["prove", chain_file])
        out = capsys.readouterr()
        assert code == 0
        assert out.out.startswith(PROVEN_VERDICT)
        assert "hence LHS ≤ RHS" in out.out

    def test_trivial_expr_mode(self, capsys):
        code = main(["--expr", "I(X;Y) >= 0", "--vars", "X,Y"])
        assert code == 0
        assert PROVEN_VERDICT in capsys.readouterr().out

    def test_not_provable(self, capsys):
        code = main(["--expr", "H(X) <= I(X;Y)", "--vars", "X,Y"])
        out = capsys.readouterr()
        assert code == 1
        assert NOT_PROVABLE_VERDICT in out.out
        assert "ray witness" in out.err
        assert "objective on ray:" in out.err

    def test_input_error_bad_expression(self, capsys):
        code = main(["--expr", "H(X) < I(X;Y)", "--vars", "X,Y"])
        out = capsys.readouterr()
        assert code == 2
        assert "input error" in out.err

    def test_input_error_unknown_variable(self, capsys):
        code = main(["--expr", "H(W) >= 0", "--vars", "X,Y"])
        assert code == 2
        assert "unknown variable" in capsys.readouterr().err

    def test_input_error_missing_file(self, capsys, tmp_path):
        code = main(["prove", str(tmp_path / "nope.iiq")])
        assert code == 2

    def test_input_error_not_utf8(self, capsys, tmp_path):
        p = tmp_path / "bad.iiq"
        p.write_bytes(b"vars: X\n# \xff\nprove: H(X) >= 0\n")
        code = main(["prove", str(p)])
        assert code == 2
        assert capsys.readouterr().err == f"{p}: not UTF-8 text\n"

    def test_input_error_deep_parentheses(self, capsys):
        code = main(["--expr", "(" * 600 + "H(X)" + ")" * 600 + " >= 0", "--vars", "X"])
        assert code == 2
        assert "nested deeper" in capsys.readouterr().err

    def test_input_error_deep_parentheses_file(self, capsys, tmp_path):
        p = tmp_path / "deep.iiq"
        p.write_text("vars: X\nprove: " + "(" * 600 + "H(X)" + ")" * 600 + " >= 0\n",
                     encoding="utf-8")
        code = main(["prove", str(p)])
        assert code == 2
        err = capsys.readouterr().err
        assert "deep.iiq:2" in err and "nested deeper" in err

    def test_input_error_long_coefficient(self, capsys):
        code = main(["--vars", "X", "--expr", "1" + "0" * 5000 + " H(X) >= 0"])
        assert code == 2
        assert "longer than 1000 digits" in capsys.readouterr().err

    def test_input_error_long_coefficient_file(self, capsys, tmp_path):
        a = "7" * 1000
        p = tmp_path / "long.iiq"
        p.write_text(f"vars: X\nprove: {a} ({a} ({a} ({a} ({a} H(X))))) >= 0\n", encoding="utf-8")
        code = main(["prove", str(p)])
        assert code == 2
        err = capsys.readouterr().err
        assert "long.iiq:2" in err and "scaled coefficient" in err

    @pytest.mark.parametrize("op", [">=", "<="])
    def test_input_error_long_common_denominator(self, capsys, op):
        code = main(["--vars", "X", "--expr", f"{LONG_SUM} {op} 0"])
        assert code == 2
        assert capsys.readouterr().err == (
            "input error: common denominator of the coefficients longer than 3322 bits\n")

    def test_input_error_long_common_denominator_file(self, capsys, tmp_path):
        p = tmp_path / "long.iiq"
        p.write_text(f"vars: X\nprove: {LONG_SUM} >= 0\n", encoding="utf-8")
        code = main(["prove", str(p)])
        assert code == 2
        err = capsys.readouterr().err
        assert "long.iiq:2" in err and "common denominator" in err

    def test_input_error_long_common_denominator_constraint(self, capsys):
        code = main(["--vars", "X,Y", "--assume", f"{LONG_SUM} = 0", "--expr", "H(X) <= 0"])
        assert code == 2
        assert "common denominator" in capsys.readouterr().err

    def test_input_error_too_many_variables(self, capsys):
        names = ",".join(f"X{i}" for i in range(1, MAX_VARS + 2))
        code = main(["--vars", names, "--expr", "H(X1) >= 0"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"input error: {MAX_VARS + 1} variables declared; at most {MAX_VARS} are supported\n")

    def test_prove_refuses_too_many_variables(self):
        u = parse_universe(",".join(f"X{i}" for i in range(1, MAX_VARS + 2)))
        with pytest.raises(ProblemTooLargeError):
            prove(Problem(u, (), parse_relation("H(X1) >= 0", u)))

    @pytest.mark.parametrize("argv, message", [
        (["--vars", ",X", "--expr", "H(X) >= 0"],
         "expected variable name before ',' (at offset 0)"),
        (["--vars", "X,Y", "--assume", "func: Y = g(X)", "--expr", "H(X) >= 0"],
         "expected f(...) on the right of a functional dependency (at offset 10)"),
        (["--vars", "X,Y", "--assume", "factor:", "--expr", "H(X) >= 0"],
         "expected at least one factor P(...) (at offset 7)"),
    ])
    def test_input_error_messages(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_positional_usage(self, capsys):
        assert main(["prove", "a", "b"]) == 2
        assert "positional usage is: prove FILE" in capsys.readouterr().err

    def test_module_entry_point(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "infoineq.cli", "--vars", "A,B,C,D",
             "--assume", "markov: A -> B -> C -> D", "--expr", "I(A;D) <= I(B;C)"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.startswith(PROVEN_VERDICT)
        assert proc.stderr == ""

    def test_input_error_missing_flags(self, capsys):
        assert main([]) == 2

    def test_conflicting_modes(self, chain_file, capsys):
        assert main(["prove", chain_file, "--expr", "H(X) >= 0", "--vars", "X"]) == 2


class TestFormats:
    def test_quiet_prints_verdict_only(self, chain_file, capsys):
        code = main(["prove", chain_file, "--quiet"])
        out = capsys.readouterr()
        assert code == 0
        assert out.out == PROVEN_VERDICT + "\n"

    def test_json_output_passes_independent_checker(self, chain_file, capsys):
        code = main(["prove", chain_file, "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        proof_check.check_proof_document(out)

    def test_latex_output(self, chain_file, capsys):
        code = main(["prove", chain_file, "--format", "latex"])
        out = capsys.readouterr().out
        assert code == 0
        assert "\\begin{align*}" in out

    def test_latex_escapes_underscore_outside_math(self, capsys):
        code = main([
            "--expr", "I(X_1;Z) <= I(X_1;Y)",
            "--vars", "X_1,Y,Z",
            "--assume", "markov: X_1 -> Y -> Z",
            "--format", "latex",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "(\\texttt{markov: X\\_1 -> Y -> Z})" in out
        for line in out.splitlines():
            if not line.startswith("%"):
                text_mode = line.split("$")[::2]
                assert all("_" not in part.replace("\\_", "") for part in text_mode), line

    def test_assume_flags(self, capsys):
        code = main([
            "--expr", "I(X;Z) <= I(X;Y)",
            "--vars", "X,Y,Z",
            "--assume", "markov: X -> Y -> Z",
        ])
        assert code == 0

    def test_factorization_may_omit_declared_variables(self, capsys):
        # U is declared but not named by the factorization, which then
        # describes the joint PMF of X, Y, Z alone.
        code = main([
            "--vars", "U,X,Y,Z",
            "--assume", "factor: P(X) P(Y|X) P(Z|Y)",
            "--expr", "I(X;Z) <= I(X;Y)",
            "--format", "json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        proof_check.check_proof_document(out)
        assert json.loads(out)["constraints"] == [
            {"decl": "factor: P(X) P(Y|X) P(Z|Y)", "rows": ["I(Z;X|Y)"]}]


class TestEqualities:
    def test_chain_rule_identity(self, capsys):
        code = main(["--expr", "H(X,Y) = H(X) + H(Y|X)", "--vars", "X,Y"])
        out = capsys.readouterr()
        assert code == 0
        assert out.out.count("Prove:") == 2
        assert "direction LHS <= RHS" in out.out
        assert "direction LHS >= RHS" in out.out

    def test_constrained_identity(self, capsys):
        code = main([
            "--expr", "I(X;Z|Y) = 0",
            "--vars", "X,Y,Z",
            "--assume", "markov: X -> Y -> Z",
        ])
        assert code == 0

    def test_failed_direction_reported(self, capsys):
        code = main(["--expr", "H(X) = H(Y)", "--vars", "X,Y"])
        out = capsys.readouterr()
        assert code == 1
        assert "direction LHS <= RHS failed" in out.err or \
            "direction LHS >= RHS failed" in out.err

    def test_equality_json_wraps_directions(self, capsys):
        code = main(["--expr", "H(X,Y) = H(X) + H(Y|X)", "--vars", "X,Y",
                     "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["statement"]["op"] == "="
        assert len(doc["directions"]) == 2
        for sub in doc["directions"]:
            proof_check.check_proof_document(json.dumps(sub))

    def test_prove_equality_function(self, u3):
        u = parse_universe("X,Y,Z")
        decls = (parse_constraint("markov: X -> Y -> Z", u),)
        relation = parse_relation("I(X;Z|Y) = 0", u)
        result = prove(Problem(u, decls, relation))
        assert result.proven
        assert len(result.directions) == 2

    def test_quiet_suppresses_direction_diagnostics(self, capsys):
        code = main(["--expr", "H(X) = H(Y)", "--vars", "X,Y", "--quiet"])
        out = capsys.readouterr()
        assert code == 1
        assert out.out == NOT_PROVABLE_VERDICT + "\n"
        assert out.err == ""


class TestCorpusExitCodes:
    def test_exit_codes_match_frozen_verdicts(self, capsys):
        for entry in CORPUS:
            argv = ["--expr", entry.relation, "--vars", "X,Y,Z", "--quiet"]
            for constraint in entry.constraints:
                argv += ["--assume", constraint]
            code = main(argv)
            capsys.readouterr()
            expected = 0 if entry.verdict == PROVEN else 1
            assert code == expected, entry.name

    def test_json_output_reverifies_for_all_proven_entries(self, capsys):
        for entry in CORPUS:
            if entry.verdict != PROVEN:
                continue
            argv = ["--expr", entry.relation, "--vars", "X,Y,Z", "--format", "json"]
            for constraint in entry.constraints:
                argv += ["--assume", constraint]
            assert main(argv) == 0, entry.name
            proof_check.check_proof_document(capsys.readouterr().out)


class TestFileSectionOrder:
    def test_vars_may_come_last(self, tmp_path):
        p = tmp_path / "reordered.iiq"
        p.write_text(
            "prove: I(X;Z) <= I(X;Y)\n"
            "assume: markov: X -> Y -> Z\n"
            "vars: X, Y, Z\n",
            encoding="utf-8",
        )
        problem = parse_problem_file(str(p))
        assert problem.universe.names == ("X", "Y", "Z")
        assert len(problem.decls) == 1
