"""README.md names only live code and shows only commands that parse.

Every backticked `module.name` whose module is a hesslab submodule, and
every `hesslab.name`, must resolve: a function that is deleted or renamed
while the README still names it fails here.  Every `hesslab ...` line of a
sh block must parse with the CLI's own parser, so an example that goes
stale when an option changes fails here too.
"""

import importlib
import re
import shlex
from pathlib import Path

import pytest

import hesslab
from hesslab import cli

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = {p.stem for p in (ROOT / "src" / "hesslab").glob("*.py")} - {"__init__"}
# a dotted name at the start of an inline code span, as in `rng.sample_seed(s, i)`
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def readme_names() -> list[str]:
    """The dotted hesslab names of README.md's inline code spans, in order."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    names = []
    for span in re.findall(r"`([^`]+)`", text):
        match = DOTTED.match(span)
        if match and match[0].split(".")[0] in SUBMODULES | {"hesslab"}:
            names.append(match[0])
    return list(dict.fromkeys(names))


def test_readme_names_hesslab_code():
    names = readme_names()
    assert "tensor.alternating_rows" in names and "hesslab.rho" in names


@pytest.mark.parametrize("name", readme_names())
def test_readme_name_resolves(name):
    head, *path = name.split(".")
    obj = hesslab if head == "hesslab" else importlib.import_module(f"hesslab.{head}")
    for attr in path:
        assert hasattr(obj, attr), f"README.md names {name}, which does not resolve"
        obj = getattr(obj, attr)


def readme_commands() -> list[str]:
    """The `hesslab ...` lines of README.md's sh blocks, in order."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("hesslab ")]


def test_readme_shows_mining_at_degree_4():
    commands = [shlex.split(line, comments=True) for line in readme_commands()]
    assert ["hesslab", "mine", "--dim", "8", "--degree", "4", "--seed", "1"] in commands


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line):
    _, extra = cli.build_parser().parse_known_args(shlex.split(line, comments=True)[1:])
    assert extra == []
