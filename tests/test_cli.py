import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hesslab import cli, rng, serialize
from hesslab.tensor import Sym3Tensor
from tensor_helpers import LONG_DIGITS_DOCUMENT, MALFORMED_INDEX_KEYS


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--no-meta")
    return code, json.loads(out), err


class TestGlobalBehavior:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(capsys, "bogus")[0] == 2

    def test_schema_field_present(self, capsys):
        code, doc, _ = run_json(capsys, "jets", "--dim", "3", "--cap", "5")
        assert code == 0
        assert doc["schema"] == "hol/1"

    def test_meta_block_toggle(self, capsys):
        code, out, _ = run(capsys, "jets", "--dim", "3", "--cap", "5")
        assert "meta" in json.loads(out)
        code, out, _ = run(capsys, "jets", "--dim", "3", "--cap", "5",
                           "--no-meta")
        assert "meta" not in json.loads(out)

    def test_seeded_commands_bit_reproducible(self, capsys):
        args = ("rank-census", "--dim", "2", "--samples", "3", "--seed", "4",
                "--no-meta")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("command", ("rho", "rank-census", "verify", "mine",
                                         "solve3d", "jets", "cartan2d", "validate"))
    def test_subcommand_help_shows_its_own_usage(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert out.startswith(f"usage: hesslab {command} ")

    def test_module_entry_point_runs_the_command(self):
        # python -m hesslab.cli must run the command, not import cli and exit 0
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "hesslab.cli", "verify", "--identity",
                               "cubic", "--dim", "5", "--seeds", "1", "--no-meta"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["all_zero"] is False

    @pytest.mark.parametrize("argv", (
        ("jets", "--dim", "3", "--cap", "5", "--no-meta"),
        ("rank-census", "--dim", "4", "--samples", "1", "--output", "text"),
    ))
    def test_closed_stdout_exits_2_without_a_traceback(self, argv):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "hesslab.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # the reader is gone before the command writes
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert b"Traceback" not in err


class TestSharedParser:
    def test_repeated_runs_match_runs_alone(self, capsys, monkeypatch):
        calls = [("bogus",), ("mine", "--degree", "5"), ("--version",),
                 ("verify", "--identity", "cubic", "--dim", "4", "--seeds", "2", "--no-meta"),
                 ("verify", "--identity", "cubic", "--dim", "4", "--seeds", "2", "--no-meta"),
                 ("mine", "--dim", "4", "--degree", "2", "--no-meta")]
        alone = []
        for argv in calls:
            cli.build_parser.cache_clear()  # a fresh parser, as in a new process
            alone.append(run(capsys, *argv)[:2])
        assert [code for code, _ in alone] == [2, 2, 0, 0, 0, 0]

        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        shared = [run(capsys, *argv)[:2] for argv in calls]
        census = ("rank-census", "--dim", "2", "--samples", "1", "--no-meta")
        code, doc, _ = run_json(capsys, *census, "--bound", "3")
        assert code == 0 and doc["bound"] == 3
        code, doc, _ = run_json(capsys, *census)
        assert code == 0 and doc["bound"] == 10  # the default, not the last value
        assert shared == alone
        assert 0 < len(built) <= 9  # one parser and its 8 subparsers, once


class TestSubcommands:
    def test_rank_census(self, capsys):
        code, doc, _ = run_json(capsys, "rank-census", "--dim", "3",
                                "--samples", "3", "--seed", "1")
        assert code == 0
        assert doc["max_rank"] == 6

    def test_rank_census_at_the_largest_dimension(self, capsys):
        code, doc, _ = run_json(capsys, "rank-census", "--dim", "8",
                                "--samples", "1", "--seed", "1")
        assert code == 0
        assert doc["max_rank"] == 120 == doc["dim_s3"]

    def test_verify_quad_ok(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--identity", "quad",
                                "--dim", "4", "--seeds", "3")
        assert code == 0
        assert doc["all_zero"] and doc["failures"] == []

    def test_verify_unknown_identity(self, capsys):
        code, _, err = run(capsys, "verify", "--identity", "nope", "--dim", "4")
        assert code == 2 and "identity" in err

    def test_rho_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "rho", "--in", "/nonexistent/file.json")
        assert code == 2 and "cannot read" in err
        # an --out that cannot be written raised FileNotFoundError or
        # IsADirectoryError with a traceback and exit 1
        path = tmp_path / "A.json"
        path.write_text(json.dumps(serialize.tensor_to_json(Sym3Tensor.random(3, seed=2))))
        for out in ("/nonexistent/dir/R.json", str(tmp_path)):
            code, stdout, err = run(capsys, "rho", "--in", str(path), "--out", out)
            assert code == 2 and stdout == ""
            assert err.startswith("error: cannot write") and "Traceback" not in err

    def test_rho_round_trip(self, capsys, tmp_path):
        A = Sym3Tensor.random(3, seed=2, bound=5)
        path = tmp_path / "A.json"
        path.write_text(json.dumps(serialize.tensor_to_json(A)))
        out_path = tmp_path / "R.json"
        code, doc, _ = run_json(capsys, "rho", "--in", str(path),
                                "--out", str(out_path))
        assert code == 0
        from hesslab.hessmap import rho
        stored = serialize.tensor_from_json(json.loads(out_path.read_text()))
        assert stored == rho(A)

    def test_rho_rejects_dense_input(self, capsys, tmp_path):
        from tensor_helpers import random_rational
        path = tmp_path / "T.json"
        path.write_text(json.dumps(
            serialize.tensor_to_json(random_rational(2, 2, seed=1))))
        code, _, err = run(capsys, "rho", "--in", str(path))
        assert code == 2

    def test_solve3d_exact(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(
            {"rows": [["1/1", "0/1", "0/1"],
                      ["0/1", "2/1", "0/1"],
                      ["0/1", "0/1", "3/1"]]}))
        code, doc, _ = run_json(capsys, "solve3d", "--ricci", str(path))
        assert code == 0
        assert doc["verified"] and doc["residual"] == "0"

    @pytest.mark.parametrize("rows", [
        [["1/12157665459056928801", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]],
        # the same matrix conjugated by the rotation [[3, -4], [4, 3]] / 5
        # of the first two axes
        [["43227254965535746849/33771292941824802225",
          "-97261323672455430404/101313878825474406675", "0"],
         ["-97261323672455430404/101313878825474406675",
          "218837978263024718434/303941636476423220025", "0"],
         ["0", "0", "3"]],
    ])
    def test_solve3d_exact_tiny_rational_eigenvalue(self, capsys, tmp_path, rows):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"rows": rows}))
        code, doc, _ = run_json(capsys, "solve3d", "--ricci", str(path))
        assert code == 0
        assert doc["verified"] and doc["residual"] == "0"

    def test_solve3d_reports_a_failed_verification(self, capsys, tmp_path, monkeypatch):
        from hesslab import ricci3d

        def planted(*args, **kwargs):
            raise ricci3d.VerificationError("planted")

        monkeypatch.setattr(ricci3d, "solve_from_ricci", planted)
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"rows": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}))
        assert run_json(capsys, "solve3d", "--ricci", str(path)) == (1, {
            "schema": "hol/1", "command": "solve3d", "verified": False, "error": "planted"}, "")

    def test_solve3d_float_reports_measured_residual(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"rows": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}))
        code, doc, _ = run_json(capsys, "solve3d", "--ricci", str(path),
                                "--mode", "float", "--tol", "0.5")
        assert code == 0 and doc["verified"]
        assert doc["residual"] < 1e-12

    @pytest.mark.parametrize("identity", ("quad", "cubic", "bianchi"))
    def test_verify_degree_misuse(self, capsys, identity):
        # --degree was ignored outside pontryagin, and the run exited 0
        code, out, err = run(capsys, "verify", "--identity", identity, "--dim", "4",
                             "--seeds", "1", "--degree", "7", "--no-meta")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--degree" in err

    def test_verify_pontryagin_degree_defaults_to_2(self, capsys):
        argv = ("verify", "--identity", "pontryagin", "--dim", "5", "--seeds", "2")
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0 and doc["all_zero"]
        assert run_json(capsys, *argv, "--degree", "2") == (code, doc, "")
        # a degree-3 form needs n >= 6: an explicit degree reaches the check
        code, _, err = run(capsys, *argv, "--degree", "3")
        assert code == 2 and "degree" in err

    def test_solve3d_tol_misuse(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"rows": [["1/1"] * 3] * 3}))
        code, _, err = run(capsys, "solve3d", "--ricci", str(path),
                           "--mode", "exact", "--tol", "1e-6")
        assert code == 2 and "tol" in err
        # a NaN tolerance made "resid > tol" false, so every residual passed
        for tol in ("nan", "inf", "-inf", "-1e-9"):
            code, out, err = run(capsys, "solve3d", "--ricci", str(path),
                                 "--mode", "float", f"--tol={tol}")
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "tol" in err

    def test_jets_text_output(self, capsys):
        code, out, _ = run(capsys, "jets", "--dim", "3", "--cap", "15",
                           "--output", "text")
        assert code == 0
        # the one writer's document: each row a line of its values
        assert out.startswith("schema: hol/1\ncommand: jets\nmeta:\n")
        assert "\n  12, 2730, 2720, 10\n  13, 3360, 3264, 96\n" in out
        assert "\ncrossover: 12\n" in out

    def test_text_output_prints_list_items_as_values(self, capsys):
        # an item of a list of lists or of dicts is its values, not a repr
        assert cli._as_text({"rows": [["0 0 0", "5/3"], [1.0, 0.0]],
                             "failures": [{"seed": 7, "index": "0 1"}]}) == (
            "rows:\n  0 0 0, 5/3\n  1.0, 0.0\nfailures:\n  seed: 7, index: 0 1")
        code, out, _ = run(capsys, "verify", "--identity", "cubic", "--dim", "5",
                           "--seeds", "2", "--seed", "1", "--output", "text", "--no-meta")
        assert code == 1
        assert out.endswith("failures:\n  seed: 1000003\n  seed: 1000004\n")

    def test_cartan_single(self, capsys):
        code, doc, _ = run_json(capsys, "cartan2d", "--alpha", "1/2",
                                "--beta=-2/3", "--gamma", "7/1")
        assert code == 0
        assert doc["involutive"]

    def test_cartan_negative_rational_after_an_equals_sign(self, capsys):
        # a space-separated -5/7 reads as an option; the help names this form
        code, doc, _ = run_json(capsys, "cartan2d", "--alpha", "2/3",
                                "--beta=-5/7", "--gamma", "1/2")
        assert code == 0 and doc["involutive"]
        code, out, _ = run(capsys, "cartan2d", "--help")
        assert code == 0
        assert all(f"{x}=-5/7" in out for x in ("--alpha", "--beta", "--gamma"))

    def test_cartan_sweep(self, capsys):
        code, doc, _ = run_json(capsys, "cartan2d", "--sweep", "10",
                                "--seed", "3")
        assert code == 0
        assert doc["all_identical"]

    @pytest.mark.parametrize("argv, option", [
        (("--sweep", "2", "--alpha", "1/2"), "--alpha"),
        (("--sweep", "2", "--gamma", "0/1"), "--gamma"),
        (("--seed", "5"), "--seed"),
        (("--seed", "0", "--beta", "1/2"), "--seed"),
    ])
    def test_cartan_refuses_options_its_mode_ignores(self, capsys, argv, option):
        # the sweep dropped the symbol, and the single test the seed, with exit 0
        code, out, err = run(capsys, "cartan2d", *argv, "--no-meta")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and option in err and "--sweep" in err

    def test_cartan_unset_options_are_the_zero_symbol_and_seed_0(self, capsys):
        zero = ("--alpha", "0/1", "--beta", "0/1", "--gamma", "0/1")
        assert run_json(capsys, "cartan2d") == run_json(capsys, "cartan2d", *zero)
        code, doc, _ = run_json(capsys, "cartan2d", "--sweep", "2")
        assert code == 0 and doc["seed"] == 0
        assert (code, doc) == run_json(capsys, "cartan2d", "--sweep", "2", "--seed", "0")[:2]

    def test_validate_good_and_bad(self, capsys, tmp_path):
        good = tmp_path / "g.json"
        good.write_text(json.dumps(
            serialize.tensor_to_json(Sym3Tensor.random(2, seed=1))))
        code, doc, _ = run_json(capsys, "validate", "--in", str(good))
        assert code == 0 and doc["valid"]
        bad = tmp_path / "b.json"
        bad.write_text(json.dumps({"n": 2, "order": 2, "packing": "weird",
                                   "entries": []}))
        code, out, _ = run(capsys, "validate", "--in", str(bad))
        assert code == 1
        doc = json.loads(out)
        assert not doc["valid"] and "meta" in doc
        code, out, _ = run(capsys, "validate", "--in", str(bad), "--output", "text")
        assert code == 1
        assert "valid: False" in out.splitlines() and "meta:" in out.splitlines()

    @pytest.mark.parametrize("entries", [
        [[0, "1/1"]], [[None, "1/1"]], [["0 0 0", "1/1"], ["0 0 0", "2/1"]],
        *([[key, "1/1"]] for key in MALFORMED_INDEX_KEYS.values()),
    ], ids=["int-key", "null-key", "repeated-index", *MALFORMED_INDEX_KEYS])
    @pytest.mark.parametrize("command, exit_code", [("validate", 1), ("rho", 2)])
    def test_malformed_entries_refused(self, capsys, tmp_path, entries, command, exit_code):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"n": 3, "order": 3, "packing": "sym3",
                                    "entries": entries}))
        code, out, err = run(capsys, command, "--in", str(path), "--no-meta")
        assert code == exit_code
        assert "malformed tensor document" in out + err
        if command == "validate":
            assert json.loads(out)["valid"] is False

    # two-item strings and dicts that unpack like an [index, value] pair
    @pytest.mark.parametrize("entries", [["01", "13"], {"01": "x"}, [{"0": "a", "1/2": "b"}]],
                             ids=["strings", "dict", "dict-entry"])
    @pytest.mark.parametrize("command, exit_code", [("validate", 1), ("rho", 2)])
    def test_entries_must_be_a_list_of_pairs(self, capsys, tmp_path, entries, command,
                                             exit_code):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"n": 2, "order": 1, "packing": "dense",
                                    "entries": entries}))
        code, out, err = run(capsys, command, "--in", str(path), "--no-meta")
        assert code == exit_code
        assert "malformed tensor document" in out + err
        if command == "validate":
            assert json.loads(out)["valid"] is False

    def test_validate_refuses_sym3_of_another_order(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"n": 3, "order": 2, "packing": "sym3", "entries": []}))
        assert run_json(capsys, "validate", "--in", str(path)) == (1, {
            "schema": "hol/1", "command": "validate", "valid": False,
            "error": "sym3 packing requires order 3"}, "")

    def test_validate_reports_symmetry_failures(self, capsys, tmp_path):
        doc = {"n": 2, "order": 4, "packing": "dense",
               "entries": [["0 1 0 1", "1/1"]]}  # missing antisymmetric partners
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_json(capsys, "validate", "--in", str(path))
        assert code == 0
        parsed = out
        assert parsed["curvature_symmetries"] is False
        assert parsed["symmetry_failures"]

    def test_mine_cli(self, capsys):
        code, doc, _ = run_json(capsys, "mine", "--dim", "4", "--degree", "2",
                                "--seed", "3")
        assert code == 0
        assert doc["quotient_dim"] == 1
        assert doc["pattern_count"] == 5

    def test_mine_that_does_not_stabilize_exits_1(self, capsys, monkeypatch):
        from hesslab import miner

        def unstable(*args, **kwargs):
            raise miner.StabilizationError("rank still increasing after 7 samples (rank 3)")

        monkeypatch.setattr(miner, "mine", unstable)
        # the failure is a document, as solve3d's and validate's are
        assert run_json(capsys, "mine", "--dim", "4", "--degree", "2",
                        "--max-samples", "7") == (1, {
            "schema": "hol/1", "command": "mine", "stabilized": False,
            "error": "rank still increasing after 7 samples (rank 3)"}, "")


class TestSingleSources:
    def test_identity_table_names_identities_and_choices(self, capsys):
        from hesslab import identities
        assert all(callable(getattr(identities, f)) for f in cli.IDENTITIES.values())
        code, out, _ = run(capsys, "verify", "--help")
        assert code == 0
        assert "--identity {" + ",".join(cli.IDENTITIES) + "}" in out

    def test_census_report_fields_are_its_json(self, capsys):
        from dataclasses import fields

        from hesslab.hessmap import ImageRankReport
        code, doc, _ = run_json(capsys, "rank-census", "--dim", "3", "--samples", "2")
        assert code == 0
        assert list(doc)[:2] == ["schema", "command"]
        assert [f.name for f in fields(ImageRankReport)] == list(doc)[2:]


class TestUsageErrors:
    # argv the parser refuses: what stderr names, before the subcommand's usage
    PARSE_ERRORS = {
        # these subcommands never read --dim, so they do not accept it
        ("solve3d", "--ricci", "r.json", "--dim", "3"): "unrecognized arguments: --dim 3",
        ("validate", "--in", "t.json", "--dim", "3"): "unrecognized arguments: --dim 3",
        ("cartan2d", "--dim", "2"): "unrecognized arguments: --dim 2",
        # these cannot run without it
        ("rank-census",): "required: --dim",
        ("verify", "--identity", "cubic"): "required: --dim",
        ("mine", "--degree", "2"): "required: --dim",
        ("jets",): "required: --dim",
        ("rank-census", "--dim", "2", "--samples", "x"): "argument --samples",
    }

    @pytest.mark.parametrize("argv", (
        ("cartan2d", "--alpha", "1.5"),
        ("rank-census", "--dim", "9"),
        ("jets", "--dim", "3", "--cap", "0"),
        ("mine", "--dim", "3", "--degree", "2"),
        ("verify", "--identity", "cubic", "--dim", "3", "--seeds", "1"),
        *PARSE_ERRORS,
    ))
    def test_library_value_error_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--no-meta")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        if argv in self.PARSE_ERRORS:
            assert self.PARSE_ERRORS[argv] in err.splitlines()[0]
            assert err.splitlines()[1].startswith(f"usage: hesslab {argv[0]} ")

    @pytest.mark.parametrize("argv, doc, message", [
        (("rho", "--dim", "4", "--in"),
         {"n": 3, "order": 3, "packing": "sym3", "entries": [["0 0 0", "1/2"]]},
         "--dim 4 does not match tensor dimension 3"),
        (("solve3d", "--ricci"), {"rows": [["1/0", 0, 0], [0, 2, 0], [0, 0, 3]]},
         "bad matrix entry: zero denominator in '1/0'"),
        (("solve3d", "--ricci"), {"rows": [[1, 0, 0], [0, 2, 0]]},
         'expected {"rows": [[...], [...], [...]]} with 3x3 entries'),
    ], ids=["rho-dim", "solve3d-zero-denominator", "solve3d-two-rows"])
    def test_refused_input_file_exits_2(self, capsys, tmp_path, argv, doc, message):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, *argv, str(path), "--no-meta") == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("text", ("{not json", "[" * 200_000), ids=["syntax", "deep"])
    @pytest.mark.parametrize("command", ("validate", "rho"))
    def test_malformed_json_exits_2(self, capsys, tmp_path, command, text):
        # 200,000 nested lists raised RecursionError inside json.load
        path = tmp_path / "f.json"
        path.write_text(text)
        code, out, err = run(capsys, command, "--in", str(path), "--no-meta")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "not valid JSON" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("samples", ("0", "-1"))
    def test_rank_census_rejects_nonpositive_samples(self, capsys, samples):
        code, out, err = run(capsys, "rank-census", "--dim", "2",
                             "--samples", samples, "--no-meta")
        assert code == 2
        assert "--samples" in err

    @pytest.mark.parametrize("seeds", ("0", "-1"))
    def test_verify_rejects_nonpositive_seeds(self, capsys, seeds):
        # 0 printed "all_zero": true and exited 0 without checking anything
        code, out, err = run(capsys, "verify", "--identity", "cubic", "--dim", "5",
                             "--seeds", seeds, "--no-meta")
        assert code == 2
        assert out == "" and "--seeds" in err

    @pytest.mark.parametrize("entry", ("Infinity", "-Infinity", "NaN", "1e400"))
    def test_solve3d_rejects_non_finite_entries(self, capsys, tmp_path, entry):
        # json reads these as float inf or nan; Fraction(inf) raises OverflowError
        path = tmp_path / "r.json"
        path.write_text('{"rows": [[%s, 0, 0], [0, 2, 0], [0, 0, 3]]}' % entry)
        code, out, err = run(capsys, "solve3d", "--ricci", str(path), "--no-meta")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("entry", ("true", "false", "0.1", "2.0"))
    def test_solve3d_rejects_booleans_and_floats(self, capsys, tmp_path, entry):
        # json reads true as 1 and 0.1 as its binary value 3602879701896397/2**55
        path = tmp_path / "r.json"
        path.write_text('{"rows": [[%s, 0, 0], [0, 2, 0], [0, 0, 3]]}' % entry)
        code, out, err = run(capsys, "solve3d", "--ricci", str(path), "--no-meta")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and entry in err

    def test_rank_census_rejects_zero_bound(self, capsys):
        code, out, err = run(capsys, "rank-census", "--dim", "4", "--samples", "1",
                             "--bound", "0", "--no-meta")
        assert code == 2
        assert out == "" and "bound" in err

    @pytest.mark.parametrize("sweep", ("0", "-1"))
    def test_cartan_rejects_nonpositive_sweep(self, capsys, sweep):
        # -1 raised IndexError on the empty sweep; 0 ran the single test
        code, out, err = run(capsys, "cartan2d", "--sweep", sweep, "--no-meta")
        assert code == 2
        assert "--sweep" in err

    def test_pontryagin_order_above_max_exits_2_before_contracting(self, capsys, monkeypatch):
        # 2p = 8 passes the 2p <= n check at n = 8 but exceeds MAX_ORDER; the
        # order-4 einsum of rho stays allowed, any larger contraction is refused
        einsum = np.einsum

        def small_einsum(spec, *operands, **kwargs):
            if len(spec.split("->")[1]) > 4:
                raise AssertionError("contracted before validating the degree")
            return einsum(spec, *operands, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("contracted before validating the degree")

        monkeypatch.setattr(np, "einsum", small_einsum)
        monkeypatch.setattr(np, "tensordot", refuse)
        code, out, err = run(capsys, "verify", "--identity", "pontryagin", "--degree", "4",
                             "--dim", "8", "--seeds", "1", "--no-meta")
        assert code == 2
        assert out == ""
        assert "maximum order" in err

    @pytest.mark.parametrize("degree", ("1", "5"))
    def test_mine_unsupported_degree_exits_2_through_the_miner(self, capsys, monkeypatch,
                                                               degree):
        # the parser leaves the degree range to the miner, whose PatternError
        # refuses it before a sample is drawn
        def refuse(*args):
            raise AssertionError("drew a random value before validating the degree")

        monkeypatch.setattr(rng, "integer_at", refuse)
        code, out, err = run(capsys, "mine", "--dim", "4", "--degree", degree, "--no-meta")
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: degree {degree} not supported (use 2, 3 or 4)"]

    @pytest.mark.parametrize("packing, order", (("dense", 4), ("sym3", 3)))
    def test_huge_dimension_rejected_before_allocating(self, capsys, monkeypatch,
                                                       tmp_path, packing, order):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 10 ** 6, "order": order,
                                    "packing": packing, "entries": []}))

        def refuse(*args, **kwargs):
            raise AssertionError("allocated before validating n")

        monkeypatch.setattr(np, "full", refuse)
        monkeypatch.setattr(serialize, "sym3_triples", refuse)
        code, out, _ = run(capsys, "validate", "--in", str(path), "--no-meta")
        assert code == 1 and json.loads(out)["valid"] is False
        code, out, err = run(capsys, "rho", "--in", str(path), "--no-meta")
        assert code == 2 and out == "" and "dimension" in err

    @pytest.mark.parametrize("argv", (
        ("rank-census", "--dim", "100000", "--samples", "1"),
        ("verify", "--identity", "quad", "--dim", "100000", "--seeds", "1"),
        ("mine", "--dim", "100000", "--degree", "2"),
    ))
    def test_huge_dimension_rejected_before_drawing(self, capsys, monkeypatch, argv):
        # each drew sym3_dim(n) random values before the dimension check ran
        def refuse(*args):
            raise AssertionError("drew a random value before validating n")

        monkeypatch.setattr(rng, "rational_at", refuse)
        monkeypatch.setattr(rng, "integer_at", refuse)
        code, out, err = run(capsys, *argv, "--no-meta")
        assert code == 2 and out == ""
        assert err.startswith("error: dimension must be in [2, 8]")

    def test_solve3d_float_refuses_entries_past_float_range(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"rows": [["1%s", 0, 0], [0, 2, 0], [0, 0, 3]]}' % ("0" * 400))
        code, out, err = run(capsys, "solve3d", "--ricci", str(path), "--mode", "float",
                             "--no-meta")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "float range" in err
        code, doc, _ = run_json(capsys, "solve3d", "--ricci", str(path))
        assert code == 0 and doc["verified"] is True

    def test_solve3d_exact_eigenvectors_past_float_range(self, capsys, tmp_path):
        # float(norm) of the unscaled eigenvector (1, 10**200, 0) overflowed
        # into a traceback, though the exact solution exists and is verified
        path = tmp_path / "r.json"
        path.write_text(json.dumps(
            {"rows": [[1, 10 ** 200, 0], [10 ** 200, 10 ** 400, 0], [0, 0, 0]]}))
        code, doc, err = run_json(capsys, "solve3d", "--ricci", str(path))
        assert (code, err) == (0, "")
        assert doc["verified"] is True and doc["residual"] == "0"
        rotation = np.array(doc["rotation"])
        assert np.allclose(rotation.T @ rotation, np.eye(3), rtol=0, atol=1e-12)

    def test_jets_growth_exponents_past_float_range(self, capsys):
        code, doc, _ = run_json(capsys, "jets", "--dim", "100000000", "--cap", "200")
        assert code == 0
        assert doc["growth_exponent_metric"] > doc["growth_exponent_hessian"] > 0

    def test_jets_cap_one(self, capsys):
        code, doc, _ = run_json(capsys, "jets", "--dim", "3", "--cap", "1")
        assert code == 0
        assert [row[0] for row in doc["rows"]] == [0, 1]
        assert doc["growth_exponent_metric"] is None
        assert doc["growth_exponent_hessian"] is None


class TestLongValues:
    """Exact values longer than the interpreter's int-string digit limit."""

    @pytest.mark.parametrize("argv", (
        ("rho", "--in", "A.json"),
        ("solve3d", "--ricci", "r.json"),
        ("jets", "--dim", "10000000", "--cap", "1000"),
    ), ids=["rho", "solve3d", "jets"])
    def test_long_values_exit_0(self, capsys, tmp_path, argv):
        (tmp_path / "A.json").write_text(json.dumps(LONG_DIGITS_DOCUMENT))
        (tmp_path / "r.json").write_text(json.dumps(
            {"rows": [["7" * 2500, "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]}))
        argv = [str(tmp_path / x) if x.endswith(".json") else x for x in argv]
        code, out, err = run(capsys, *argv, "--no-meta")
        assert (code, err) == (0, "")
        # jets writes integers too long for json.loads to convert by default
        doc = json.loads(out, parse_int=str)
        assert (doc["schema"], doc["command"]) == ("hol/1", argv[0])

    def test_run_restores_the_digit_limit(self, capsys):
        before = sys.get_int_max_str_digits()
        for argv in (("jets", "--dim", "3", "--cap", "1"), ("jets", "--dim", "1")):
            run(capsys, *argv)
            assert sys.get_int_max_str_digits() == before

    def test_rho_output_file_is_valid(self, capsys, tmp_path):
        path, out_path = tmp_path / "A.json", tmp_path / "R.json"
        path.write_text(json.dumps(LONG_DIGITS_DOCUMENT))
        assert run_json(capsys, "rho", "--in", str(path), "--out", str(out_path))[0] == 0
        code, doc, _ = run_json(capsys, "validate", "--in", str(out_path))
        assert code == 0
        assert doc["valid"] is True and doc["curvature_symmetries"] is True
