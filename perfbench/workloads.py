"""The benchmark's workloads: operation lists made from a seed, and their checks.

An operation is a seeded CLI command, run in-process through
``hesslab.cli.run(argv + ["--no-meta"])``, or a library call where no
subcommand reaches a layer.  Each one yields (stdout, exit code).  At the
default seed the stdout bytes and exit code must equal those recorded in
``golden.json``; at every seed the output must satisfy the mathematical
invariants checked here.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1


def import_hesslab():
    """Import hesslab from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hesslab
    from hesslab import cli, curvature, identities  # noqa: F401  (loads every layer)
    if Path(hesslab.__file__).resolve().parent != SRC / "hesslab":
        raise ImportError(f"hesslab imported from {hesslab.__file__}, not {SRC}")
    return hesslab


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], tuple[str, int]]     # -> (stdout, exit code)
    expect_exit: int
    check: Callable[[str], str | None]     # stdout -> failure reason, or None


def cli_op(argv, expect_exit, check) -> Op:
    argv = tuple(str(a) for a in argv)

    def run():
        import contextlib
        import io
        from hesslab import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv) + ["--no-meta"])
        return out.getvalue(), code

    return Op(" ".join(argv), run, expect_exit, check)


# --- checks -------------------------------------------------------------

def _doc(stdout: str) -> dict:
    return json.loads(stdout)


def census_check(n: int, samples: int, rank: int):
    def check(stdout):
        doc = _doc(stdout)
        if doc.get("n") != n or len(doc.get("ranks", [])) != samples:
            return f"expected {samples} ranks at n={n}"
        if doc.get("max_rank") != rank:
            return f"max_rank {doc.get('max_rank')} != {rank}"
        return None
    return check


def verify_check(vanishes: bool):
    def check(stdout):
        doc = _doc(stdout)
        if vanishes and (doc.get("all_zero") is not True or doc.get("failures")):
            return "identity did not vanish on every point"
        if not vanishes and (doc.get("all_zero") is not False or not doc.get("failures")):
            return "identity vanished on every point"
        return None
    return check


def _rank(rows) -> int:
    """Exact rank by Gaussian elimination, independent of hesslab.linalg."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _in_span(basis, v) -> bool:
    return _rank(basis + [v]) == _rank(basis)


def _vectors(strings) -> list[list[Fraction]]:
    return [[Fraction(x) for x in v] for v in strings]


_CUBIC: dict = {}


def cubic_combination() -> tuple[list, list[Fraction]]:
    """The cubic identity's coefficients in the degree-3 pattern basis."""
    if not _CUBIC:
        doc = json.loads(GOLDEN.read_text())["cubic_combination"]
        _CUBIC.update(patterns=doc["patterns"],
                      vector=[Fraction(x) for x in doc["vector"]])
    return _CUBIC["patterns"], _CUBIC["vector"]


def mine_check(n: int, degree: int):
    count = {2: 5, 3: 35}[degree]

    def check(stdout):
        doc = _doc(stdout)
        if doc.get("pattern_count") != count:
            return f"pattern_count {doc.get('pattern_count')} != {count}"
        if degree != 3:
            return None
        patterns, cubic = cubic_combination()
        if doc["patterns"] != patterns:
            return "degree-3 pattern basis differs from the recorded one"
        image = _vectors(doc["image_identities"])
        universal = _vectors(doc["universal_identities"])
        if n == 4 and not _in_span(image, cubic):
            return "cubic combination is not an image identity at n=4"
        if n == 4 and _in_span(universal, cubic):
            return "cubic combination is a universal identity at n=4"
        if n >= 5 and _in_span(image, cubic):
            return f"cubic combination is an image identity at n={n}"
        return None
    return check


def pontryagin_nonzero_op(n: int, seed: int) -> Op:
    """pontryagin_form(random_curvature(n, seed), 2): nonzero on generic R."""
    def run():
        from hesslab import curvature, identities
        form = identities.pontryagin_form(curvature.random_curvature(n, seed), 2)
        flat = [str(x) for x in form.data.flat]
        doc = {"call": f"pontryagin_form(random_curvature({n}, {seed}), 2)",
               "nonzero_entries": sum(x != "0" for x in flat),
               "digest": hashlib.sha256(",".join(flat).encode()).hexdigest()}
        return json.dumps(doc) + "\n", 0

    def check(stdout):
        return None if _doc(stdout)["nonzero_entries"] else "generic form vanished"

    return Op(f"pontryagin_form(random_curvature({n}), 2)", run, 0, check)


# --- workloads ----------------------------------------------------------

CENSUS_RANKS = {4: 18, 5: 35, 6: 56}


def census(seed: int) -> list[Op]:
    return [cli_op(["rank-census", "--dim", n, "--samples", k, "--seed", seed], 0,
                   census_check(n, k, CENSUS_RANKS[n]))
            for n, k in ((4, 2), (5, 2), (6, 1))]


def verify(seed: int) -> list[Op]:
    def op(identity, n, seeds, vanishes, degree=()):
        argv = ["verify", "--identity", identity, *degree, "--dim", n,
                "--seeds", seeds, "--seed", seed]
        return cli_op(argv, 0 if vanishes else 1, verify_check(vanishes))
    return [
        op("quad", 4, 3, True),
        op("cubic", 4, 3, True),
        op("cubic", 5, 2, False),
        op("pontryagin", 5, 2, True, ("--degree", "2")),
        op("pontryagin", 6, 1, True, ("--degree", "2")),
        op("bianchi", 6, 3, True),
    ] + [pontryagin_nonzero_op(n, seed) for n in (4, 5, 6)]


def mine(seed: int) -> list[Op]:
    return [cli_op(["mine", "--dim", n, "--degree", p, "--seed", seed], 0, mine_check(n, p))
            for n, p in ((4, 3), (5, 3), (5, 2))]


def smoke(seed: int) -> list[Op]:
    """A few seconds of every kind of operation, for the benchmark's own tests."""
    return [
        cli_op(["rank-census", "--dim", 4, "--samples", 1, "--seed", seed], 0,
               census_check(4, 1, 18)),
        cli_op(["verify", "--identity", "quad", "--dim", 4, "--seeds", 1, "--seed", seed], 0,
               verify_check(True)),
        cli_op(["mine", "--dim", 4, "--degree", 2, "--seed", seed], 0, mine_check(4, 2)),
        pontryagin_nonzero_op(4, seed),
    ]


WORKLOADS = {"census": census, "verify": verify, "mine": mine, "smoke": smoke}
BENCHMARKED = ("census", "verify", "mine")     # the workloads BENCHMARK.json lists


def operations(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](seed)


def describe(workload: str, seed: int) -> list[str]:
    return [op.label for op in operations(workload, seed)]
