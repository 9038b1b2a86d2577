"""Every module-level import in src/hesslab is referenced by its module.

A deletion that leaves its import behind (a dataclass decorator, a class
no longer named) fails here.  __init__.py is left out: its imports are the
package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hesslab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of source that nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_finds_unread_imports():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "import xml.dom\nfrom x import y, z as w\n"
              "def f():\n    import sys\n    return np.zeros(y) + xml.dom\n")
    assert unused_imports(source) == ["os", "w"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
