"""The package imports only the standard library and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "infoineq"


def _foreign_imports(path: Path) -> list[str]:
    foreign = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    return foreign


def test_every_import_is_relative_or_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert {path.name: _foreign_imports(path) for path in files} == {path.name: [] for path in files}
