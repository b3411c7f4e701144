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


def absolute_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) for each module an absolute import statement names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return sorted(found)


def foreign_imports(source: str) -> list[str]:
    """Absolute imports whose top-level module is neither the standard library nor numpy."""
    allowed = sys.stdlib_module_names | {"numpy"}
    return [f"line {line}: {name}" for line, name in absolute_imports(source) if name.split(".")[0] not in allowed]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_stdlib_and_numpy_only(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_foreign_imports():
    source = (
        "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom . import tensor\n"
        "import pytest\nfrom hypothesis import given\nfrom tests import oracles\nimport oracles\n"
    )
    assert foreign_imports(source) == ["line 5: pytest", "line 6: hypothesis", "line 7: tests", "line 8: oracles"]


# Modules that start threads or processes; tensor.split_halves is the package's one use of them.
CONCURRENCY = {"threading", "concurrent", "multiprocessing"}


def concurrency_imports(source: str) -> list[str]:
    return [f"line {line}: {name}" for line, name in absolute_imports(source) if name.split(".")[0] in CONCURRENCY]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "tensor.py"], ids=lambda p: p.name)
def test_only_tensor_starts_threads(path):
    assert concurrency_imports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_concurrency_imports():
    source = (
        "import os, threading\nfrom concurrent.futures import ThreadPoolExecutor\nimport multiprocessing.pool\n"
        "from .tensor import split_halves\nimport concurrency\n"
    )
    want = ["line 1: threading", "line 2: concurrent.futures", "line 3: multiprocessing.pool"]
    assert concurrency_imports(source) == want
