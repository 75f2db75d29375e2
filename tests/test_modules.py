"""Module boundaries of the package."""
import ast
from pathlib import Path

import privsample

# perfbench's traced run looks ``finite._Space`` up by this name
ALLOWED = {("validation", "finite", "_Space")}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_imports_another_modules_private_name():
    found = set()
    for path in sorted(Path(privsample.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("privsample")
            ):
                source = (node.module or "").rpartition(".")[2]
                found |= {(path.stem, source, a.name) for a in node.names if _is_private(a.name)}
    assert found <= ALLOWED, sorted(found - ALLOWED)
