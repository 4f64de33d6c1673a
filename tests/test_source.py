import ast
from pathlib import Path

import rmms


def test_library_has_no_assert():
    # Invariant checks must raise: ``python -O`` strips assert statements.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(rmms.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
