"""Property tests: JSON round-trips and the CLI's contracts.

Every strategy is small (dimension at most 5, sample, seed and cap counts at
most 2), so no generated case is slow or allocates much, and the runs are
derandomized so the suite is reproducible.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hesslab import cli, serialize
from hesslab.tensor import Sym3Tensor, Tensor, sym3_dim, sym3_triples
from tensor_helpers import LONG_DIGITS_DOCUMENT

SETTINGS = settings(derandomize=True, deadline=None, database=None)

rationals = st.fractions(max_denominator=10 ** 6)


@st.composite
def dense_tensors(draw):
    n, order = draw(st.integers(2, 4)), draw(st.integers(0, 4))
    entries = draw(st.lists(rationals, min_size=n ** order, max_size=n ** order))
    return Tensor(n, np.array(entries, dtype=object).reshape((n,) * order))


@st.composite
def sym3_tensors(draw):
    n = draw(st.integers(2, 5))
    return Sym3Tensor(n, tuple(draw(st.lists(rationals, min_size=sym3_dim(n),
                                             max_size=sym3_dim(n)))))


@SETTINGS
@given(st.one_of(dense_tensors(), sym3_tensors()))
def test_json_round_trip(t):
    doc = json.loads(json.dumps(serialize.tensor_to_json(t)))
    assert serialize.tensor_from_json(doc) == t


# input files the generated commands may name, written once per test session
FILES = {
    "A.json": serialize.tensor_to_json(Sym3Tensor.random(3, seed=1, bound=4)),
    "T.json": serialize.tensor_to_json(Tensor(2, np.eye(2, dtype=object))),
    "rational.json": {"rows": [["1/2", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]},
    "irrational.json": {"rows": [[1, 1, 0], [1, 2, 0], [0, 0, 3]]},
    # exact eigenvectors, and sym3 entries, past float range
    "overflow.json": {"rows": [[1, 10 ** 200, 0], [10 ** 200, 10 ** 400, 0], [0, 0, 0]]},
    "digits.json": serialize.tensor_to_json(Sym3Tensor(2, (10 ** 399, -3 * 10 ** 399, 0, 7))),
    # a curvature with entries past the int-string digit limit
    "long.json": LONG_DIGITS_DOCUMENT,
    "huge.json": {"n": 10 ** 6, "order": 3, "packing": "sym3", "entries": []},
    "list.json": [1, 2, 3],
    "bad.json": "{not json",
}

# options each subcommand requires (REQUIRED) and the others it accepts
# (OPTIONAL) besides --output and --no-meta; --dim may be drawn for any
# subcommand, and solve3d, cartan2d and validate refuse it as a usage error;
# a value "@name" stands for the input file of that name
REQUIRED = {"rho": ["--in"], "rank-census": ["--dim"], "verify": ["--identity", "--dim"],
            "mine": ["--degree", "--dim"], "solve3d": ["--ricci"], "jets": ["--dim"],
            "cartan2d": [], "validate": ["--in"]}
OPTIONAL = {"rho": ["--out"], "rank-census": ["--seed", "--bound"],
            "verify": ["--seed", "--degree"], "mine": ["--seed"],
            "solve3d": ["--mode", "--tol"], "jets": [],
            "cartan2d": ["--seed", "--alpha", "--beta", "--gamma"], "validate": []}
# the option that sets each subcommand's sample, seed or cap count
COUNT_OPTION = {"rank-census": "--samples", "verify": "--seeds",
                "mine": "--max-samples", "jets": "--cap", "cartan2d": "--sweep"}
VALUES = {
    "--dim": st.sampled_from(["4", "3", "2", "5", "1", "-1"]),
    "--seed": st.sampled_from(["1", "2", "0", "-1"]),
    "--bound": st.sampled_from(["3", "1", "0", "-1"]),
    "--degree": st.sampled_from(["2", "3", "1", "0", "4"]),
    "--identity": st.sampled_from(["quad", "cubic", "pontryagin", "bianchi", "nope"]),
    "--output": st.sampled_from(["json", "text", "xml"]),
    "--mode": st.sampled_from(["exact", "float", "fuzzy"]),
    "--tol": st.sampled_from(["1e-9", "0.5", "-1", "nan", "x"]),
    "--alpha": st.sampled_from(["1/2", "-2/3", "0/1", "1.5", "x", "1/0"]),
    "--in": st.sampled_from(["@" + name for name in FILES] + ["@missing.json"]),
    "--out": st.just("@out.json"),
}
VALUES["--beta"] = VALUES["--gamma"] = VALUES["--alpha"]
VALUES["--ricci"] = VALUES["--in"]


@st.composite
def command_lines(draw):
    sub = draw(st.sampled_from(sorted(REQUIRED)))
    names = REQUIRED[sub] + draw(st.lists(
        st.sampled_from([x for x in ["--dim", "--output", "--no-meta"] + OPTIONAL[sub]
                         if x not in REQUIRED[sub]]),
        unique=True, max_size=4))
    # now and then drop a required option or add a stray token; the count
    # option always stays, as its defaults are large
    if names and draw(st.integers(0, 7)) == 0:
        names.remove(draw(st.sampled_from(names)))
    if sub in COUNT_OPTION:
        names.append(COUNT_OPTION[sub])
    argv = [sub]
    for name in names:
        if name in COUNT_OPTION.values():
            argv += [name, draw(st.sampled_from(["2", "1", "0", "-1"]))]
        else:
            argv += [name] if name == "--no-meta" else [name, draw(VALUES[name])]
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--bogus", "7", "bogus", "--dim"])))
    return argv


@settings(SETTINGS, max_examples=200)
@given(command_lines())
# the inputs past float range and the digit limit, which the 200
# generated lines may not name
@example(argv=["solve3d", "--ricci", "@overflow.json"])
@example(argv=["rho", "--in", "@digits.json"])
@example(argv=["validate", "--in", "@digits.json", "--output", "text"])
@example(argv=["rho", "--in", "@long.json", "--out", "@out.json"])
def test_cli_exit_code_is_0_1_or_2(tmp_path_factory, argv):
    folder = tmp_path_factory.getbasetemp() / "cli-inputs"
    if not folder.exists():
        folder.mkdir()
        for name, doc in FILES.items():
            (folder / name).write_text(doc if name == "bad.json" else json.dumps(doc))
    argv = [str(folder / x[1:]) if x.startswith("@") else x for x in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        return
    # standard error is only for usage errors
    assert err.getvalue() == ""
    if "text" not in argv:
        # one JSON document, naming the subcommand that wrote it
        doc = json.loads(out.getvalue())
        assert (doc["schema"], doc["command"]) == ("hol/1", argv[0])


@st.composite
def sym3_documents(draw):
    """sym3 documents, now and then with one entry that validate refuses."""
    n = draw(st.integers(2, 5))
    keys = st.sampled_from([" ".join(map(str, idx)) for idx in sym3_triples(n)])
    values = st.one_of(rationals.map(serialize.format_rational), st.just("7" * 2500))
    entries = [list(e) for e in draw(st.dictionaries(keys, values, max_size=6)).items()]
    flaw = draw(st.sampled_from([None, None, None, [f"0 0 {n}", "1"], ["1 0 0", "1"],
                                 ["0 0 0 0", "1"], ["0 1 1", "1/0"], ["0 1 1", "0.5"]]))
    return {"n": n, "order": 3, "packing": "sym3", "entries": entries + [flaw] * bool(flaw)}


def run_quietly(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run([*argv, "--no-meta"])
    return code, out.getvalue()


@settings(SETTINGS, max_examples=60)
@given(sym3_documents())
@example(doc=LONG_DIGITS_DOCUMENT)
def test_rho_accepts_what_validate_accepts(tmp_path_factory, doc):
    folder = tmp_path_factory.getbasetemp() / "rho-inputs"
    folder.mkdir(exist_ok=True)
    path, out_path = folder / "A.json", folder / "R.json"
    path.write_text(json.dumps(doc))
    if not json.loads(run_quietly("validate", "--in", str(path))[1])["valid"]:
        return
    assert run_quietly("rho", "--in", str(path), "--out", str(out_path))[0] == 0
    code, out = run_quietly("validate", "--in", str(out_path))
    assert code == 0
    assert json.loads(out)["curvature_symmetries"] is True
