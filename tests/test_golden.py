"""Byte-identical outputs of seeded commands and exact identity values.

Each digest is the SHA-256 of a command's ``--no-meta`` standard output, or
of the comma-joined ``str()`` of every entry of a library result.  They were
recorded before the contraction and the elimination code were rewritten, so
any change to an output byte or to an exact value shows here.
"""

import contextlib
import hashlib
import io

import pytest

from hesslab import cli, identities, miner
from hesslab.curvature import curvature_basis, random_curvature
from hesslab.hessmap import rho_jacobian
from hesslab.tensor import Sym3Tensor

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
    "verify bianchi n=4": (
        ["verify", "--identity", "bianchi", "--dim", "4", "--seeds", "3", "--seed", "1"],
        0,
        "e9d5ad8cb90ddc9dc42df9f1006fcd2dab4a5ebc714d977d9e6f22c1e0e204fc"),
    "mine n=4 p=2": (["mine", "--dim", "4", "--degree", "2", "--seed", "1"], 0,
        "1efa3c044386684d26c7949c80b55d73d795cc1a4452825421bc78f053137f3a"),
    "mine n=4 p=3": (["mine", "--dim", "4", "--degree", "3", "--seed", "1"], 0,
        "b56245f70eece2c00319dc4a4234d316ef1334f75756ff63659a1c5f8fa4b117"),
    "mine n=5 p=2": (["mine", "--dim", "5", "--degree", "2", "--seed", "1"], 0,
        "0b22d53bfd2681423a6bd3768d5a91ee94ab8223093d8d89af08dcf048e1ef4f"),
    "rank-census n=4": (["rank-census", "--dim", "4", "--samples", "1", "--seed", "1"],
                        0,
        "c63844550f3aa0cf4f42f96e50b092d04b3abfcd9601609e5941c17fa9abebcb"),
    "jets n=3": (["jets", "--dim", "3"], 0,
        "b66480e7cb2e472570ffbadde7e57203408522d54d71b8b4a709ddea2487ce3f"),
    "cartan2d": (["cartan2d"], 0,
        "3491987aeed558900076eb4e96329f9ed833240de2cd764af88f01f573756b75"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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
        out[f"evaluate_pattern {i}"] = miner.evaluate_pattern(pat, R)
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
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_output_is_unchanged(name):
    argv, code, digest = COMMANDS[name]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = cli.run(argv + ["--no-meta"])
    assert (got, _digest(buf.getvalue())) == (code, digest)


@pytest.mark.parametrize("n", [4, 5])
def test_identity_values_are_unchanged(n):
    assert _values(n) == VALUES[n]


# digest of the rho_jacobian entries, row by row, at the first census
# sample of seed 1, and of every curvature_basis(n) tensor in basis order
JACOBIANS = {
    4: "f66889132a60939270b63a26b8b859c2f44ebbdca02ce983f377eb97ebb366cc",
    5: "b4195acdfd9de7bc2515b2d0b9ffd818e30aa3636034dcd58042a7ef600005c4",
}
BASES = {
    4: "73ebcbbf969929fb1fb03d131d1fa28038cad0d7c2c8c09fd9107b87e31c2402",
    5: "6abfa7a5f0fad778bafff7f3b0f0ae573d06b717eca40b6294843198e70a149a",
}


@pytest.mark.parametrize("n", [4, 5])
def test_jacobian_entries_are_unchanged(n):
    J = rho_jacobian(Sym3Tensor.random(n, seed=1_000_003))
    assert _digest(",".join(str(x) for row in J for x in row)) == JACOBIANS[n]


@pytest.mark.parametrize("n", [4, 5])
def test_curvature_basis_is_unchanged(n):
    entries = ";".join(",".join(str(x) for x in b.data.flat)
                       for b in curvature_basis(n))
    assert _digest(entries) == BASES[n]
