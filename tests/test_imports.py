"""Every name a module imports is used somewhere in that module, and the
package itself imports nothing but the standard library and numpy."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The package __init__ imports in order to re-export; acceptance tests are
# frozen as the behavioural contract.
PACKAGE = sorted((ROOT / "src" / "vprkit").glob("*.py"))
SOURCES = sorted(p for p in (ROOT / "src" / "vprkit").glob("*.py") if p.name != "__init__.py") + sorted(
    p for p in (ROOT / "tests").glob("test_*.py") if p.name != "test_acceptance.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node in the module reads.

    `import a.b` binds `a`; `from __future__` imports bind nothing to read.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_unused_and_used_names():
    source = "import os\nimport numpy as np\nfrom typing import Optional, Sequence\nx: Optional[int] = np.pi\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Sequence"]


def foreign_imports(source: str) -> list[str]:
    """Absolute imports whose top-level module is neither the standard library nor numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_stdlib_and_numpy_only(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_foreign_imports():
    source = (
        "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom . import tensor\n"
        "import pytest\nfrom hypothesis import given\nfrom tests import oracles\nimport oracles\n"
    )
    assert foreign_imports(source) == ["line 5: pytest", "line 6: hypothesis", "line 7: tests", "line 8: oracles"]
