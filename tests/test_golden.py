"""Byte-identical outputs of seeded commands and exact identity values.

Each digest is the SHA-256 of a command's ``--no-meta`` standard output, or
of the comma-joined ``str()`` of every entry of a library result.  They were
recorded before the contraction, the elimination, the curvature-space and the
census code were rewritten, so any change to an output byte or to an exact
value shows here.
"""

import contextlib
import hashlib
import io
import itertools
import json

from fractions import Fraction

import numpy as np
import pytest

from hesslab import cli, identities, miner
from hesslab.curvature import coordinates, curvature_basis, random_curvature
from hesslab.hessmap import rho_jacobian
from hesslab.tensor import Sym3Tensor, Tensor
from tensor_helpers import evaluate_pattern

COMMANDS = {
    "verify quad n=4": (
        ["verify", "--identity", "quad", "--dim", "4", "--seeds", "3", "--seed", "1"],
        0,
        "cd05c136659a3ed8effee52874887a774f781246679bebaaf8a2677e671b3eab"),
    "verify cubic n=4": (
        ["verify", "--identity", "cubic", "--dim", "4", "--seeds", "3", "--seed", "1"],
        0,
        "bec6f8a8acdd375ce562d9e9ee605a44dc5869a65520c7a830da1d1315adeff3"),
    "verify cubic n=5": (
        ["verify", "--identity", "cubic", "--dim", "5", "--seeds", "2", "--seed", "1"],
        1,
        "b3d3dba67ee995fc883f2a695876c1678588edd302428673c1a2210387d4a25d"),
    "verify pontryagin p=2 n=5": (
        ["verify", "--identity", "pontryagin", "--degree", "2", "--dim", "5",
         "--seeds", "2", "--seed", "1"],
        0,
        "b430e095bce9e7caac057aa4bc9bd16a40a19e086bf614ab63dc3425443b8d84"),
    "verify pontryagin p=2 n=6": (
        ["verify", "--identity", "pontryagin", "--degree", "2", "--dim", "6",
         "--seeds", "1", "--seed", "1"],
        0,
        "829f7584c49fbdbf1571a0abd2b93e2fc7f5d4058b4068fb7a049fce97531c49"),
    "verify bianchi n=4": (
        ["verify", "--identity", "bianchi", "--dim", "4", "--seeds", "3", "--seed", "1"],
        0,
        "e9d5ad8cb90ddc9dc42df9f1006fcd2dab4a5ebc714d977d9e6f22c1e0e204fc"),
    "verify bianchi n=6": (
        ["verify", "--identity", "bianchi", "--dim", "6", "--seeds", "3", "--seed", "1"],
        0,
        "23c716b4a2ebe4922e9ea5d12634cd8d1e9f203bb243131693f995997d5fa576"),
    "mine n=4 p=2": (["mine", "--dim", "4", "--degree", "2", "--seed", "1"], 0,
        "1efa3c044386684d26c7949c80b55d73d795cc1a4452825421bc78f053137f3a"),
    "mine n=4 p=3": (["mine", "--dim", "4", "--degree", "3", "--seed", "1"], 0,
        "b56245f70eece2c00319dc4a4234d316ef1334f75756ff63659a1c5f8fa4b117"),
    "mine n=5 p=2": (["mine", "--dim", "5", "--degree", "2", "--seed", "1"], 0,
        "0b22d53bfd2681423a6bd3768d5a91ee94ab8223093d8d89af08dcf048e1ef4f"),
    "mine n=4 p=4": (["mine", "--dim", "4", "--degree", "4", "--seed", "1"], 0,
        "0bb1f940fc4e8204b987a2bdf93123861369705e02311d6f4e1d501da3775d9b"),
    "rank-census n=4": (["rank-census", "--dim", "4", "--samples", "1", "--seed", "1"],
                        0,
        "c63844550f3aa0cf4f42f96e50b092d04b3abfcd9601609e5941c17fa9abebcb"),
    "rank-census n=2": (["rank-census", "--dim", "2", "--samples", "3", "--seed", "1"],
                        0,
        "a8d3382dfec53f393755a64a6c06f7305dd14ec8fee9cf91d0ed3de1d8b71aec"),
    "rank-census n=3": (["rank-census", "--dim", "3", "--samples", "2", "--seed", "1"],
                        0,
        "b97f97f774f8ec21c4ef3639e5d99d6d8a4f26c8c415b4cdc68d7ac725784ab2"),
    "rank-census n=5": (["rank-census", "--dim", "5", "--samples", "2", "--seed", "1"],
                        0,
        "5dbc84bf18f1492fe2c7e6a04fb39dfb0d99c285710e67b9bca7db14bb63c676"),
    "rank-census n=6": (["rank-census", "--dim", "6", "--samples", "1", "--seed", "1"],
                        0,
        "7a41d0b7528b6db2f515b8b8a5582cfd9c155a03ad6e15c8443c1759c8e1753d"),
    # entries this large take the census's Python-int path
    "rank-census n=4 bound=100000": (
        ["rank-census", "--dim", "4", "--samples", "1", "--seed", "1", "--bound", "100000"],
        0,
        "ca26505054ed9372f5554163c12ea32caf5b96154d2ede62fcb0b943b28396f0"),
    "mine n=5 p=3": (["mine", "--dim", "5", "--degree", "3", "--seed", "1"], 0,
        "5ff310427e8f6c91b333473e78ecf600bc2024bfd294cdefc88a544c6fc7ea36"),
    "mine n=6 p=3": (["mine", "--dim", "6", "--degree", "3", "--seed", "2"], 0,
        "6c939b70e6e0691aca1258924d939dd52ba1bbace34a812772a70bfa6fb09c53"),
    "jets n=7 cap=200": (["jets", "--dim", "7", "--cap", "200"], 0,
        "cd27ef1c7a257eea81321f55cd0e467b98a0399d11e12deaacfe7748f7c5246a"),
    "jets n=3": (["jets", "--dim", "3"], 0,
        "b66480e7cb2e472570ffbadde7e57203408522d54d71b8b4a709ddea2487ce3f"),
    "cartan2d": (["cartan2d"], 0,
        "3491987aeed558900076eb4e96329f9ed833240de2cd764af88f01f573756b75"),
    "cartan2d sweep=5 seed=2": (["cartan2d", "--sweep", "5", "--seed", "2"], 0,
        "9a5c2909304175192c0cf75a2cd5cc60423d14197aaec5ae65983b281a7f6b1a"),
    "rank-census n=3 text": (["rank-census", "--dim", "3", "--samples", "2", "--seed", "1",
                              "--output", "text"], 0,
        "691c0b9659fc8156372aa508c14896c1751ea3ae25af510cbbfc84fe88766643"),
    # a list of lists in text output: the basis rows
    "mine n=4 p=2 text": (["mine", "--dim", "4", "--degree", "2", "--seed", "1",
                           "--output", "text"], 0,
        "c0f7fdc8c22d8057bfae73fd63a080d88ca0d368406d8d1db4ef505a95f8d626"),
    # recorded when jets --output text began to write the hol/1 document
    "jets n=3 cap=15 text": (["jets", "--dim", "3", "--cap", "15", "--output", "text"], 0,
        "7a93cf47a2a61b988e1650bb13dc6fa01a6feb12beaa0d11d3fcd80341c1dfa7"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv) -> tuple[int, str]:
    """Exit code and digest of the --no-meta standard output of a command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv + ["--no-meta"])
    return code, _digest(buf.getvalue())


def _entries_digest(tensor) -> str:
    return _digest(",".join(str(x) for x in tensor.data.flat))


def _values(n: int) -> dict:
    R = random_curvature(n, 1)
    out = {
        "pontryagin_quadratic": identities.pontryagin_quadratic(R),
        "cubic_identity": identities.cubic_identity(R),
        "pontryagin_form p=2": identities.pontryagin_form(R, 2),
    }
    for i, pat in enumerate(miner.enumerate_patterns(2)):
        out[f"evaluate_pattern {i}"] = evaluate_pattern(pat, R)
    return {name: _entries_digest(t) for name, t in out.items()}


VALUES = {
    4: {
        "pontryagin_quadratic":
            "4f1a758ae3d5853ccf739e74e2b44126359b1d9014e6f87e8121e160b46e6980",
        "cubic_identity":
            "256c883710424d5b4d157db1d06540b8a6244d028dada3e192c568e76a50217e",
        "pontryagin_form p=2":
            "fce89c134f880ec71c69b08cc0472aae04fb3db9012eba11cee91f575dde372a",
        "evaluate_pattern 0":
            "e184b8d9630ac120bd31201c2c9bdfa40e21cc5a9233f1736a23c0f3b70b883a",
        "evaluate_pattern 1":
            "e184b8d9630ac120bd31201c2c9bdfa40e21cc5a9233f1736a23c0f3b70b883a",
        "evaluate_pattern 2":
            "fef0cafb8236d5c65f7b314bd31ac476df0275b283861c19553083491a0db102",
        "evaluate_pattern 3":
            "447a192db45b8fc062422bda8f17b55649af8afc06293337e1887b3a22af9b7b",
        "evaluate_pattern 4":
            "30edd303a22c42b31e41a73e8ff8b4686d2e4c6e1e2f8c37e03ea36b6d042522",
    },
    5: {
        "pontryagin_quadratic":
            "616a58472af6abadbb04875db9d505f14b0977ed66ba8ba619a3c327c5425f4e",
        "cubic_identity":
            "1a1ea9d706f30745e13479f14b552091e22e4cb72ca9e3d0f87cf5a18e22ecef",
        "pontryagin_form p=2":
            "3a247b2fb6ad0c3faa0e22f62a17c5952e108dccb868275e994f08505295addc",
        "evaluate_pattern 0":
            "576b12f8d99289784ac737174b6f98b2704361f30e27ab8945920673fe3cdaca",
        "evaluate_pattern 1":
            "576b12f8d99289784ac737174b6f98b2704361f30e27ab8945920673fe3cdaca",
        "evaluate_pattern 2":
            "cf76a80be161603e74ff32f1323c27a409257880c7d274b38857682abfdfe528",
        "evaluate_pattern 3":
            "1269684b1a74be5595e25bef9c13d3d6ea298bc46343b405a44d3d2a1c232d2d",
        "evaluate_pattern 4":
            "bb22dedf967eb433de871cf93bd5c3946633ebaa9b0b13d5a4ff451c0a3b5105",
    },
    6: {
        "pontryagin_quadratic":
            "17b80f410182a816223d04f58cd20962a3e3bbc335b82dcd2546ce9365ec3c8d",
        "cubic_identity":
            "fb1b77dc887825a5f06971b628de48c75a6727c427b185bc894a99cabfc8305d",
        "pontryagin_form p=2":
            "5ad7868f3dd77e71f8d06f6696497b5ed848dbdde8dfb2114d1b02d84cc91d28",
        "evaluate_pattern 0":
            "0f354979812d7f9d988c14c47ca5a030055ee9867ca7cba586af2b39adcb9e9f",
        "evaluate_pattern 1":
            "0f354979812d7f9d988c14c47ca5a030055ee9867ca7cba586af2b39adcb9e9f",
        "evaluate_pattern 2":
            "39768b09cdb5b705c5db5980c24850c5764e86c445bbae92ae29ad4d6b390b0b",
        "evaluate_pattern 3":
            "177f7ed1901571d43d81f4bad6dfa3559b2a67b561b753a7eeefae0fd9388edf",
        "evaluate_pattern 4":
            "8079618173db866078b55d4ecf087eb7c746f364bb9cec0d41075199869e389d",
    },
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_output_is_unchanged(name):
    argv, code, digest = COMMANDS[name]
    assert _run(argv) == (code, digest)


# a sym3 document with rational, integer and negative entries, some zero
SYM3_DOCUMENT = {"n": 3, "order": 3, "packing": "sym3", "entries": [
    ["0 0 0", "1/2"], ["0 0 2", "-3/7"], ["0 1 2", "5/3"], ["1 1 1", "4"],
    ["1 2 2", "-2"], ["2 2 2", "7/6"]]}
DOCUMENT_COMMANDS = {
    "rho": "77740f63e71a3c21d1f8f2353fbb5d7c0ba79992f6ca1bbf63b6e7f69d8a0c92",
    "validate": "ae127d9dee186cc86ec46f1594eaa17444ca719dac0f88740f8e08eb14346f6b",
}


@pytest.mark.parametrize("command", list(DOCUMENT_COMMANDS))
def test_document_command_output_is_unchanged(command, tmp_path):
    path = tmp_path / "sym3.json"
    path.write_text(json.dumps(SYM3_DOCUMENT))
    assert _run([command, "--in", str(path)]) == (0, DOCUMENT_COMMANDS[command])


# solve3d inputs: a diagonal matrix, a plane rotation of one, all 4s, whose
# spectrum 0, 0, 12 takes the repeated-eigenvalue branch, and the identity and
# zero matrices, whose single-point spectra take the isotropic branch; the
# identity also in text output, which prints the rotation as a list of lists
RICCI_DOCUMENTS = {
    "diagonal": ({"rows": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]},
                 "c093c429a4c1220ebbf733387e04a98a7493c84306ca2b680c4c75610b53eef9"),
    "quarter turn": ({"rows": [["2", "1", "0"], ["1", "2", "0"], ["0", "0", "5"]]},
                     "d62c3f3d03273f9728fbac5bf9d5a1b5fef338ad57614cd43fcd69de4628de71"),
    "repeated eigenvalue": ({"rows": [["4", "4", "4"]] * 3},
                            "926351bc7f778ea34db8ad792650735790c3b6cabb29e95b7b590dcde79cd562"),
    "identity": ({"rows": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
                 "d4588948314c46cfb03d0e7a3f69b48937e5644b171464ad668cc820f55837ad"),
    "identity text": ({"rows": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
                      "9d45e468fd7bde99b3b6ac7ce39bdab92d33e1100d5c00306b0e43e403ece40f"),
    "zero": ({"rows": [["0"] * 3] * 3},
             "5755e1274780a078a64cad407f07e3abb626d96ce85dbba7b3b7e0608db5a813"),
}


@pytest.mark.parametrize("name", list(RICCI_DOCUMENTS))
def test_solve3d_output_is_unchanged(name, tmp_path):
    doc, digest = RICCI_DOCUMENTS[name]
    path = tmp_path / "ricci.json"
    path.write_text(json.dumps(doc))
    text = ["--output", "text"] if name.endswith(" text") else []
    assert _run(["solve3d", "--ricci", str(path)] + text) == (0, digest)


@pytest.mark.parametrize("dim, message", [
    ("1", "error: dimension must be >= 2, got 1\n"),
    ("9", "error: dimension must be in [2, 8], got 9\n"),
])
def test_rank_census_dimension_errors_are_unchanged(dim, message):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["rank-census", "--dim", dim, "--no-meta"])
    assert (code, out.getvalue(), err.getvalue()) == (2, "", message)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_identity_values_are_unchanged(n):
    assert _values(n) == VALUES[n]


def test_pontryagin_six_form_is_unchanged():
    form = identities.pontryagin_form(random_curvature(6, 1), 3)
    assert _entries_digest(form) == (
        "8ae56ee4e180d4c85ba962b426aec36c69063d788c52ca07bfad15185be175ac")


# digest of the rho_jacobian entries, row by row, at the first census
# sample of seed 1, and of every curvature_basis(n) tensor in basis order
JACOBIANS = {
    4: "f66889132a60939270b63a26b8b859c2f44ebbdca02ce983f377eb97ebb366cc",
    5: "b4195acdfd9de7bc2515b2d0b9ffd818e30aa3636034dcd58042a7ef600005c4",
    6: "6ab3a7869ebc9b218107048ffeefd7be4d78b9a3cca4bf0a925ea54ad88e62d1",
}
BASES = {
    4: "73ebcbbf969929fb1fb03d131d1fa28038cad0d7c2c8c09fd9107b87e31c2402",
    5: "6abfa7a5f0fad778bafff7f3b0f0ae573d06b717eca40b6294843198e70a149a",
    6: "3a37edd9eb48a243041a46b46067bc59f941cd81ebba22609d7df79b0937e48a",
}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_jacobian_entries_are_unchanged(n):
    J = rho_jacobian(Sym3Tensor.random(n, seed=1_000_003))
    assert _digest(",".join(str(x) for row in J for x in row)) == JACOBIANS[n]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_curvature_basis_is_unchanged(n):
    entries = ";".join(",".join(str(x) for x in b.data.flat)
                       for b in curvature_basis(n))
    assert _digest(entries) == BASES[n]


# digest of the generic curvature sample the miner draws with seed 1 and
# bound 5 (the second generic-phase sample of mine(n, 2, seed=0))
GENERIC_SAMPLES = {
    4: "362b3794c4c7a40e2cce585e6345fc4a8282867de97d18a09bd2d4c1c4953b63",
    5: "eadd319f85fa55f66e3d7b6c15d7f553e2d9fff2d216d81808cb4f6c89ea9805",
}


def _mine_samples(n, monkeypatch):
    """Every sample tensor mine(n, 2, seed=0) evaluates, and how many are rho samples.

    The miner hands alternating_rows integer-backed tensors; their entries
    are read here only to pin them.
    """
    seen = []
    evaluate = miner.alternating_rows
    monkeypatch.setattr(miner, "alternating_rows", lambda batch, specs: seen.extend(
        batch) or evaluate(batch, specs))
    result = miner.mine(n, 2, seed=0)
    return seen, result.rho_samples_used


@pytest.mark.parametrize("n", [4, 5])
def test_miner_generic_sample_is_unchanged(n, monkeypatch):
    samples, rho_used = _mine_samples(n, monkeypatch)
    entries = ",".join(str(x) for x in samples[rho_used + 1].data.flat)
    assert _digest(entries) == GENERIC_SAMPLES[n]


@pytest.mark.parametrize("n", [4, 5])
def test_number_types_stay_exact(n, monkeypatch):
    # the miner contracts Python ints (einsum on Fraction would be slow):
    # every sample's integer form X / D has D == 1; the basis reads back as
    # Fractions, and coordinates divides by _coordinate_data's values, not
    # by basis entries, into Fractions too
    samples, _ = _mine_samples(n, monkeypatch)
    assert {s._int[1] for s in samples} == {1}
    assert {type(x) for b in curvature_basis(n) for x in b.data.flat} == {Fraction}
    assert {type(x) for x in coordinates(Tensor(n, samples[-1].data))} == {Fraction}


def _raw_patterns(p):
    """Every raw degree-p slot tuple in the miner's sweep order: free slots
    labelled in slot order, traced and vanishing patterns included."""
    nslots = 4 * p
    for free in itertools.combinations(range(nslots), 4):
        rest = [s for s in range(nslots) if s not in free]
        for matching in miner._matchings(rest):
            slots = [None] * nslots
            for lab, s in enumerate(free):
                slots[s] = -(lab + 1)
            for a, b in matching:
                slots[a], slots[b] = b, a
            yield tuple(slots)


# digest of canonicalize on every raw pattern at p = 2 and on every 31st raw
# of the p = 3 sweep: the canonical tuple, is_zero, and the sign wherever
# the pattern does not vanish
CANONICAL_FORMS = {
    2: "113e097b9c0d07cd5ba8c154fbc8d477c55f5e8b455cd3136f385f5ed7b29a36",
    3: "7696c0299f1028cf51d3fcf7d5e026603b9185d4ede3f20a0bfe422be9701f16",
}


@pytest.mark.parametrize("p, stride", [(2, 1), (3, 31)])
def test_canonical_forms_are_unchanged(p, stride):
    rows = []
    for raw in itertools.islice(_raw_patterns(p), 0, None, stride):
        canon, sign, zero = miner.canonicalize(raw)
        rows.append(f"{canon}|{zero}|{'' if zero else sign}")
    assert _digest(";".join(rows)) == CANONICAL_FORMS[p]


# SHA-256 of maps.tobytes() and signs.tobytes() of the slot-map group
ORBIT_MAPS = {
    2: ("5406b00629bc3371e9beff1c1dc9c76946feb4c4eb28965720415471bb84f1c1",
        "c2db70b845e609a4828afae64852137670d1faefe53d6615c8fa95dc9eb72403"),
    3: ("384f7b734ae7ff4c0fb854d94a73b03819a6ebc2dcb2fc48fa70e84d1db9590e",
        "fb75c84fce69f1063e337c6a6869d965bc8dd26b991fa8a6f592a7cde04830ab"),
}


@pytest.mark.parametrize("p", [2, 3])
def test_orbit_maps_are_unchanged(p):
    maps, signs = miner._orbit_maps.__wrapped__(p)  # build afresh, not the cached pair
    assert maps.shape == ({2: 128, 3: 3072}[p], 4 * p) and signs.shape == maps.shape[:1]
    assert maps.dtype == signs.dtype == np.int8
    assert not maps.flags.writeable and not signs.flags.writeable
    assert (hashlib.sha256(maps.tobytes()).hexdigest(),
            hashlib.sha256(signs.tobytes()).hexdigest()) == ORBIT_MAPS[p]
