"""Command-line frontend: one subcommand per laboratory module.

Every run that exits 0 or 1 writes one JSON document (or aligned text
with --output text) to standard output, through _emit.  Exit code 0 means
success, 1 a verification failure (something expected to vanish did not,
or mine did not stabilize), and 2 a usage error or a standard output
closed before it was written; standard error is written only with exit 2.
Seeded subcommands are bit-reproducible; --no-meta drops the timestamped
metadata block for byte-for-byte checks.

The parser reports a missing --dim, a count below 1 and an unknown option
with the subcommand's usage.  An unreadable or non-JSON input file is a usage
error on every subcommand, validate included, and so is an option the chosen
mode ignores; validate's "valid": false (exit 1) is only for JSON that is not
a valid tensor document.

The argument parser is built on the first run() call and shared by every
later call in the process; each call parses into a fresh Namespace, so
callers must not mutate the parser that build_parser() returns.

This module imports only the standard library; each _cmd_* function imports
the hesslab modules it runs, so a command loads only those.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import sys
from fractions import Fraction

from . import __version__

SCHEMA = "hol/1"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _emit(args, payload: dict, failed: bool = False) -> int:
    doc = {"schema": SCHEMA, "command": args.command}
    if not args.no_meta:
        doc["meta"] = {
            "version": __version__,
            "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
    doc.update(payload)
    if args.output == "text":
        print(_as_text(doc))
    else:
        print(json.dumps(doc, indent=2))
    return EXIT_VERIFY if failed else EXIT_OK


def _as_text(doc: dict, indent: str = "") -> str:
    lines = []
    for key, val in doc.items():
        if isinstance(val, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_as_text(val, indent + "  "))
        elif isinstance(val, list) and val and isinstance(val[0], (list, dict)):
            lines.append(f"{indent}{key}:")
            for item in val:
                if isinstance(item, dict):
                    item = [f"{k}: {v}" for k, v in item.items()]
                lines.append(f"{indent}  " + ", ".join(map(str, item)))
        else:
            lines.append(f"{indent}{key}: {val}")
    return "\n".join(lines)


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise UsageError(f"{path} is not valid JSON: nested too deeply") from exc


def _cmd_rho(args) -> int:
    from . import hessmap, serialize
    from .tensor import Sym3Tensor
    doc = _read_json(args.infile)
    try:
        t = serialize.tensor_from_json(doc)
    except ValueError as exc:
        raise UsageError(f"{args.infile}: {exc}") from exc
    if not isinstance(t, Sym3Tensor):
        raise UsageError("rho expects a packed symmetric 3-tensor "
                         '(packing "sym3")')
    if args.dim is not None and t.n != args.dim:
        raise UsageError(f"--dim {args.dim} does not match tensor dimension {t.n}")
    R = hessmap.rho(t)
    out = serialize.tensor_to_json(R)
    if args.outfile:
        try:
            with open(args.outfile, "w") as fh:
                json.dump(out, fh, indent=2)
        except OSError as exc:
            raise UsageError(f"cannot write {args.outfile}: {exc}") from exc
    return _emit(args, {"n": t.n, "curvature": out})


def _cmd_rank_census(args) -> int:
    from . import hessmap
    report = hessmap.image_rank_census(args.dim, args.samples, args.seed,
                                       bound=args.bound)
    return _emit(args, report.to_json())


# each verify --identity name and the hesslab.identities function it checks
IDENTITIES = {"quad": "pontryagin_quadratic", "cubic": "cubic_identity",
              "pontryagin": "pontryagin_form", "bianchi": "bianchi_residual"}


def _cmd_verify(args) -> int:
    from . import hessmap, identities, rng
    from .tensor import Sym3Tensor
    if args.identity != "pontryagin" and args.degree is not None:
        raise UsageError("--degree only applies to --identity pontryagin")
    form = getattr(identities, IDENTITIES[args.identity])
    degree = 2 if args.degree is None else args.degree
    extra = (degree,) if args.identity == "pontryagin" else ()
    failures = []
    for i in range(args.seeds):
        seed = rng.sample_seed(args.seed, i)
        if not form(hessmap.rho(Sym3Tensor.random(args.dim, seed=seed, bound=6)),
                    *extra).is_zero():
            failures.append({"seed": seed})
    payload = {"identity": args.identity, "n": args.dim, "seeds": args.seeds,
               "all_zero": not failures, "failures": failures}
    return _emit(args, payload, failed=bool(failures))


def _cmd_mine(args) -> int:
    from . import miner
    try:
        basis = miner.mine(args.dim, args.degree, max_samples=args.max_samples,
                           seed=args.seed)
    except miner.StabilizationError as exc:
        return _emit(args, {"stabilized": False, "error": str(exc)}, failed=True)
    return _emit(args, basis.to_json())


def _parse_matrix(doc) -> list:
    from . import serialize
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if (not isinstance(rows, list) or len(rows) != 3
            or any(not isinstance(r, list) or len(r) != 3 for r in rows)):
        raise UsageError('expected {"rows": [[...], [...], [...]]} with 3x3 entries')
    for x in (x for row in rows for x in row):
        # JSON true would read as 1 and 0.1 as its binary value: neither is exact input
        if not isinstance(x, (str, int)) or isinstance(x, bool):
            raise UsageError(f"bad matrix entry {json.dumps(x)}: expected a rational "
                             "string or an integer")
    try:
        return [[serialize.parse_rational(x) if isinstance(x, str) else Fraction(x)
                 for x in row] for row in rows]
    except ValueError as exc:
        raise UsageError(f"bad matrix entry: {exc}") from exc


def _cmd_solve3d(args) -> int:
    from . import ricci3d, serialize
    if args.mode == "exact" and args.tol is not None:
        raise UsageError("--tol only applies to --mode float")
    doc = _read_json(args.ricci)
    rows = _parse_matrix(doc)
    tol = 1e-9 if args.tol is None else args.tol
    try:
        rotation, A, residual = ricci3d.solve_from_ricci(rows, mode=args.mode, tol=tol)
    except ricci3d.VerificationError as exc:
        payload = {"verified": False, "error": str(exc)}
        return _emit(args, payload, failed=True)
    payload = {
        "rotation": [[float(x) for x in row] for row in rotation],
        "A": serialize.tensor_to_json(A),
        "verified": True,
        "residual": "0" if args.mode == "exact" else residual,
        "mode": args.mode,
    }
    return _emit(args, payload)


def _cmd_jets(args) -> int:
    from . import jets
    return _emit(args, jets.crossover(args.dim, args.cap).to_json())


def _cmd_cartan2d(args) -> int:
    from . import cartan, serialize
    symbol = (args.alpha, args.beta, args.gamma)
    if args.sweep:
        if symbol != (None, None, None):
            raise UsageError("--alpha, --beta and --gamma only apply without --sweep")
        seed = 0 if args.seed is None else args.seed
        reports = cartan.parameter_sweep(args.sweep, seed)
        identical = len(set(reports)) == 1
        payload = {
            "sweep": args.sweep,
            "seed": seed,
            "all_identical": identical,
            "report": reports[0].to_json(),
        }
        return _emit(args, payload, failed=not (reports[0].involutive and identical))
    if args.seed is not None:
        raise UsageError("--seed only applies to --sweep")
    report = cartan.cartan_test(cartan.SymbolParameters(
        *(serialize.parse_rational("0/1" if x is None else x) for x in symbol)))
    return _emit(args, report.to_json(), failed=not report.involutive)


def _cmd_validate(args) -> int:
    from . import serialize
    from .tensor import Sym3Tensor
    doc = _read_json(args.infile)
    try:
        t = serialize.tensor_from_json(doc)
    except ValueError as exc:
        return _emit(args, {"valid": False, "error": str(exc)}, failed=True)
    info = {"valid": True, "n": t.n,
            "packing": "sym3" if isinstance(t, Sym3Tensor) else "dense",
            "order": t.order}
    if t.order == 4:
        from .curvature import symmetry_failures
        bad = symmetry_failures(t, limit=4)
        info["curvature_symmetries"] = not bad
        info["symmetry_failures"] = [{"invariant": n, "index": list(i)}
                                     for n, i in bad]
    return _emit(args, info)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Report a parse error first as "error: ...", as run() does every
        other usage error, then the usage; exit 2."""
        self.exit(EXIT_USAGE, f"error: {message}\n{self.format_usage()}")


def count(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The hesslab argument parser, built on first use and then shared.

    Every call returns the same object, so callers must not mutate it: add
    no arguments and set no defaults on it or on its subparsers.
    """
    parser = _Parser(
        prog="hesslab",
        description="exact tensor laboratory for obstructions to Hessian metrics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, seed=True, dim=True):
        p = sub.add_parser(name, help=help)
        # run() reports unrecognized arguments through the subparser itself
        p.set_defaults(func=func, parser=p)
        p.add_argument("--output", choices=("json", "text"), default="json")
        p.add_argument("--no-meta", action="store_true")
        if dim:
            p.add_argument("--dim", type=int, required=True)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        return p

    p = command("rho", _cmd_rho, "curvature tensor of a symmetric 3-tensor",
                seed=False, dim=False)
    p.add_argument("--dim", type=int)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile")

    p = command("rank-census", _cmd_rank_census, "generic rank of the map's Jacobian")
    p.add_argument("--samples", type=count, default=20)
    p.add_argument("--bound", type=int, default=10)

    p = command("verify", _cmd_verify, "check an identity on random image points")
    p.add_argument("--identity", required=True, choices=tuple(IDENTITIES))
    p.add_argument("--seeds", type=count, default=100)
    p.add_argument("--degree", type=int,
                   help="form degree parameter for --identity pontryagin (default 2)")

    p = command("mine", _cmd_mine, "search for identities on the image")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-samples", type=int)

    p = command("solve3d", _cmd_solve3d, "prescribe the Ricci image in dimension 3",
                seed=False, dim=False)
    p.add_argument("--ricci", required=True, help="JSON file with 3x3 rows")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--tol", type=float)

    p = command("jets", _cmd_jets, "jet-dimension census and crossover order", seed=False)
    p.add_argument("--cap", type=int, default=50)

    # no defaults, so that _cmd_cartan2d can refuse what its mode ignores
    p = command("cartan2d", _cmd_cartan2d, "planar symbol ranks and Cartan's test",
                seed=False, dim=False)
    p.add_argument("--seed", type=int)
    for name in ("--alpha", "--beta", "--gamma"):
        p.add_argument(name, help=f"a rational; write a negative one as {name}=-5/7")
    p.add_argument("--sweep", type=count)

    p = command("validate", _cmd_validate, "validate a tensor JSON file",
                seed=False, dim=False)
    p.add_argument("--in", dest="infile", required=True)

    return parser


def run(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    # exact values have any length: lift int-str conversion's digit limit
    # (Python 3.10.7 and later) while the command runs, then restore it
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        set_limit(0)
        return args.func(args)
    except ValueError as exc:
        # a usage error, or a library call that rejected its arguments
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        set_limit(limit)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe raises here, inside the try
    except BrokenPipeError:
        # an unwritable stdout is a usage error, as an unwritable rho --out is;
        # point it at devnull so the interpreter's flush at exit does not raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()
