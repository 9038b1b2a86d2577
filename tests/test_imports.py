"""Import hygiene of src/hesslab.

Every module-level import is referenced by its module, and every import
inside a function by that function: a deletion that leaves its import
behind (a dataclass decorator, a class no longer named, a module a command
no longer runs) fails here.  So does a module-level private name (a
helper, class or constant starting with one "_") that no module of the
package reads, as a deletion can leave one behind.  And modules load on
first use: in a fresh interpreter, importing the package or the CLI loads
only what it names, and the miner builds its slot-map tables only when a
search first asks for them.  The CLI has one writer: only cli._emit prints
to standard output, and only cli.run to standard error.  And numpy guesses
no dtype: every np.array and np.asarray call names its dtype, since a
guessed one reads ints past int64 as uint64 or float64.  And only linalg
calls rank_mod_p, so the rule that makes a rank mod p a proof lives in
linalg.rank alone.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hesslab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _bound(nodes) -> list[str]:
    """Names bound by the imports among nodes."""
    bound = []
    for node in nodes:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return bound


def _own_nodes(func) -> list:
    """The nodes of func's body, not those of a function nested in it."""
    nodes, todo = [], list(func.body)
    while todo:
        node = todo.pop(0)
        nodes.append(node)
        if not isinstance(node, FUNCTIONS):
            todo += ast.iter_child_nodes(node)
    return nodes


def unused_imports(source: str) -> list[str]:
    """Names bound by an import of source that its scope never reads.

    A module-level import must be read somewhere in the module, and an
    import inside a function somewhere in the innermost function holding it.
    """
    tree = ast.parse(source)
    scopes = [(tree, tree.body)] + [(node, _own_nodes(node)) for node in ast.walk(tree)
                                     if isinstance(node, FUNCTIONS)]
    unread = []
    for scope, nodes in scopes:
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        unread += [name for name in _bound(nodes) if name not in read]
    return unread


def test_the_check_finds_unread_imports():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "import xml.dom\nfrom x import y, z as w\n"
              "def f():\n    import sys\n    return np.zeros(y) + xml.dom\n"
              "def g(a):\n    from . import json, re as r\n    if a:\n"
              "        from x import v\n"
              "        def h():\n            import glob\n            return glob\n"
              "        return h, json, sys\n")
    # sys is read in g, not in f, which imports it
    assert unused_imports(source) == ["os", "w", "sys", "r", "v"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def _defined(tree) -> list[str]:
    """Names that tree's module-level defs, classes and assignments bind."""
    names = []
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return names


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """module.name for each module-level _name of sources that no source reads.

    A name is read where it is loaded, taken as an attribute or imported
    from a module; dunder names are the interpreter's and are not checked.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{module}.{name}" for module, tree in trees.items() for name in _defined(tree)
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_the_check_finds_unread_private_names():
    sources = {
        "a": ("_USED, _LEFT = 1, 2\n_T: int = 3\n__all__ = []\n"
              "def _helper():\n    return _USED\n"
              "def _orphan():\n    return _helper()\n"
              "class _Gone:\n    pass\n"
              "def public():\n    pass\n"),
        "b": "from .a import _T\nfrom . import c\n_K = c._shared\n",
        "c": "def _shared():\n    pass\n",
    }
    assert unread_private_names(sources) == ["a._LEFT", "a._orphan", "a._Gone", "b._K"]


def test_no_unread_private_names():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def stream_writes(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module.function, call) for each print and sys.stdout or sys.stderr
    write in sources, sorted; print names the file it writes to."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, FUNCTIONS)]
        for scope in scopes:
            where = f"{module}.{getattr(scope, 'name', '<module>')}"
            for node in _own_nodes(scope):
                if not isinstance(node, ast.Call):
                    continue
                call = ast.unparse(node.func)
                if call == "print":
                    file = [ast.unparse(k.value) for k in node.keywords if k.arg == "file"]
                    found.append((where, f"print to {(file or ['sys.stdout'])[0]}"))
                elif (call.startswith(("sys.stdout.", "sys.stderr."))
                      and call.endswith((".write", ".writelines"))):
                    found.append((where, call))
    return sorted(found)


def test_the_check_finds_stream_writes():
    sources = {"a": ("import sys\nprint('top')\n"
                     "def f(out):\n    print(1, file=out)\n    sys.stdout.flush()\n"
                     "class C:\n    def g(self):\n        def h():\n"
                     "            sys.stdout.buffer.write(b'')\n"
                     "        sys.stderr.writelines([])\n        return h\n")}
    assert stream_writes(sources) == [
        ("a.<module>", "print to sys.stdout"), ("a.f", "print to out"),
        ("a.g", "sys.stderr.writelines"), ("a.h", "sys.stdout.buffer.write")]


def test_the_cli_has_one_writer():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert stream_writes(sources) == [
        ("cli._emit", "print to sys.stdout"), ("cli._emit", "print to sys.stdout"),
        ("cli.run", "print to sys.stderr")]


def guessed_dtypes(sources: dict[str, str]) -> list[tuple[str, int]]:
    """(module, line) of each np.array or np.asarray call in sources
    without a dtype= keyword, sorted."""
    return sorted((module, node.lineno) for module, source in sources.items()
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func) in ("np.array", "np.asarray")
                  and not any(k.arg == "dtype" for k in node.keywords))


def test_the_check_finds_guessed_dtypes():
    sources = {"a": ("import numpy as np\nx = np.array([2**63])\n"
                     "y = np.asarray(x, dtype=object)\n"
                     "def f(v):\n    return np.zeros(3), np.asarray(v), np.array(v, object)\n"),
               "b": "z = [np.array([1.5], dtype=float), np.empty(2)]\n"}
    # a positional dtype is flagged too: the check asks for the keyword
    assert guessed_dtypes(sources) == [("a", 2), ("a", 5), ("a", 5)]


def test_numpy_guesses_no_dtype():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert guessed_dtypes(sources) == []


def rank_mod_p_calls(sources: dict[str, str]) -> list[tuple[str, int]]:
    """(module, line) of each call to rank_mod_p in sources, by its name or as
    an attribute, and of each import of the name, which an alias could call;
    sorted."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                names = [ast.unparse(node.func).rsplit(".", 1)[-1]]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "rank_mod_p" in names:
                found.append((module, node.lineno))
    return sorted(found)


def test_the_check_finds_rank_mod_p_calls():
    sources = {"a": ("from . import linalg\nr = linalg.rank_mod_p\n"
                     "def f(m):\n    return linalg.rank_mod_p(m) + linalg.rank(m)\n"),
               "b": "from .linalg import rank_mod_p as mod\nx = mod([[1]])\n",
               "c": ("def rank_mod_p(m):\n    return 0\n"
                     "def rank(m):\n    return rank_mod_p(m) or g()(m)\n")}
    # a reference that is not called is not a call; an aliased import is
    assert rank_mod_p_calls(sources) == [("a", 4), ("b", 1), ("c", 4)]


def test_only_linalg_calls_rank_mod_p():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert {module for module, _ in rank_mod_p_calls(sources)} == {"linalg"}


def fresh(code: str) -> str:
    """stdout of code run in a new interpreter that imports hesslab from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return proc.stdout


LOADED = ("import sys; print(json.dumps(sorted(m for m in sys.modules "
          "if m == 'numpy' or m.startswith('hesslab.'))))")


def loaded_after(code: str) -> list[str]:
    """numpy and the hesslab submodules loaded after code runs in a new interpreter."""
    return json.loads(fresh(f"import json\n{code}\n{LOADED}").splitlines()[-1])


def test_import_hesslab_loads_no_submodule_and_no_numpy():
    assert loaded_after("import hesslab") == []


def test_import_cli_loads_only_the_cli():
    assert loaded_after("import hesslab.cli") == ["hesslab.cli"]


def test_jets_command_runs_without_numpy():
    code = ("import contextlib, io\nfrom hesslab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.run(['jets', '--dim', '3', '--cap', '5']) == 0")
    assert loaded_after(code) == ["hesslab.cli", "hesslab.jets"]


def test_names_and_submodules_resolve_on_first_use():
    doc = json.loads(fresh(f"""
import json
import hesslab
listed = dir(hesslab)
star = {{}}
exec("from hesslab import *", star)
try:
    hesslab.nope
    nope = None
except AttributeError as exc:
    nope = str(exc)
print(json.dumps({{
    "all": hesslab.__all__,
    "dir": listed,
    "star": [name for name in hesslab.__all__ if name in star],
    "modules": [getattr(hesslab, m).__name__ for m in {[m[:-3] for m in MODULES]}],
    "nope": nope,
}}))
"""))
    assert len(doc["all"]) == len(set(doc["all"])) == 37
    assert doc["star"] == doc["all"]
    assert set(doc["all"]) <= set(doc["dir"])
    assert doc["modules"] == [f"hesslab.{m[:-3]}" for m in MODULES]
    assert doc["nope"] == "module 'hesslab' has no attribute 'nope'"


def test_miner_builds_no_table_at_import():
    doc = json.loads(fresh("""
import json
from hesslab import miner
caches = {name: getattr(miner, name).cache_info().currsize
          for name in ("_orbit_maps", "_placements", "enumerate_patterns")}
tables = [[str(a.dtype), a.flags.writeable] for p in (1, 2, 3, 4) for a in miner._orbit_maps(p)]
steps = [o.flags.writeable for p in (1, 2, 3, 4) for o, _ in miner._placements(p)]
print(json.dumps({"caches": caches, "tables": tables, "steps": steps}))
"""))
    assert doc["caches"] == {"_orbit_maps": 0, "_placements": 0, "enumerate_patterns": 0}
    assert doc["tables"] == [["int8", False]] * 8
    assert doc["steps"] == [False] * len(doc["steps"])
