"""Command-line driver: seeded verification campaigns with diffable reports.

Subcommands
-----------
verify    encode seeded random inputs and check the masking marginals
braid     same, with a braid-op sequence applied before verification
mols      search for a mutually orthogonal Latin pair of a given order
teleport  run the teleportation pipeline on a given input

Identical configuration and seed produce byte-identical structured
reports.  The default seed can be overridden with the ANYONMASK_SEED
environment variable, read on every call; an explicit --seed always wins.

``main`` parses with one parser per process, built by ``build_parser`` on
the first call and shared by every later call in the same process, so a
caller that runs many commands in process does not rebuild the argparse
tree each time.  Nothing is built at import: a cold ``anyonmask`` process
builds it once.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .anyons import AnyonModel, abelian_c0, ising_like
from .braid import parse_ops, verify_invariance
from .latin import find_mols_pair, parse_triple, square_to_text
from .masker import (
    BUILTIN_TRIPLES,
    DEFAULT_SEED,
    DEFAULT_TOL,
    DEFAULT_TRIALS,
    MaskingScheme,
    default_triple_name,
    run_masking_campaign,
)
from .qstate import UNIT_NORM_TOL, check_seed, check_tol
from .teleport import run_teleport

SEED_ENV_VAR = "ANYONMASK_SEED"

# a decimal number with an optional exponent, as Python prints a float, in ASCII digits
_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    r"^\s*(?:"
    rf"(?P<real>[+-]?{_NUMBER})(?:(?P<imag>[+-](?:{_NUMBER})?)i)?"
    rf"|(?P<imag_only>[+-]?(?:{_NUMBER})?)i"
    r")\s*$",
    re.ASCII,
)


def _ascii(convert):
    """``convert`` (int or float) of ASCII text with no ``_``: both also read other scripts' digits and ``1_0``."""
    def parse(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(f"{text!r} is not a number in ASCII digits")
        return convert(text)
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def parse_complex(text: str) -> complex:
    """Parse a complex literal of the form ``a``, ``bi``, or ``a+bi``.

    Each part is a decimal number with an optional exponent (``1e-05``).
    A part too large for a float would parse to inf, so it is refused.
    """
    if _COMPLEX_RE.match(text) is None:
        raise ValueError(f"cannot parse complex literal {text!r}")
    value = complex(text.replace("i", "j"))
    if not cmath.isfinite(value):
        raise ValueError(f"complex literal {text!r} is too large for a float")
    return value


def parse_model(selector: str) -> AnyonModel:
    if selector == "abelian":
        return abelian_c0()
    if selector == "ising":
        return ising_like(1)
    if selector.startswith("ising:"):
        try:
            c = _ascii(int)(selector.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad Chern number in model selector {selector!r}") from None
        return ising_like(c)
    raise ValueError(f"unknown model selector {selector!r} (use abelian or ising[:c])")


def resolve_scheme(model: AnyonModel, selector: str) -> MaskingScheme:
    if selector in BUILTIN_TRIPLES:
        return MaskingScheme(model=model, triple=BUILTIN_TRIPLES[selector]())
    path = Path(selector)
    if not path.is_file():
        raise ValueError(
            f"scheme {selector!r} is neither a built-in ({', '.join(BUILTIN_TRIPLES)}) nor a file"
        )
    try:
        # utf-8-sig: a byte-order mark, as some editors write, is no part of the first label
        triple = parse_triple(path.read_text(encoding="utf-8-sig"), model.alphabet)
        return MaskingScheme(model=model, triple=triple)
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"scheme file {selector}: not UTF-8, byte {exc.object[exc.start]:#04x} at offset {exc.start}"
        ) from None
    except ValueError as exc:
        raise ValueError(f"scheme file {selector}: {exc}") from None


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        seed = _ascii(int)(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    return check_seed(seed, SEED_ENV_VAR)


def render_text(payload: dict) -> str:
    """Line-oriented mirror of the structured report."""
    lines: list[str] = []

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                emit(f"{prefix}{key}.", value[key])
        elif isinstance(value, list):
            for i, item in enumerate(value):
                emit(f"{prefix}{i}.", item)
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    emit("", payload)
    return "\n".join(lines) + "\n"


def _report_result(args: argparse.Namespace, command: str, config: dict, result) -> int:
    """Write the report of ``result`` to ``--out``, if given; the exit code, 0 if it passed, else 1."""
    payload = {
        "command": command,
        "config": config,
        "results": result.record(),
        "verdict": "pass" if result.verdict else "fail",
        "version": __version__,
    }
    if args.out is not None:
        if args.fmt == "structured":
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        else:
            text = render_text(payload)
        Path(args.out).write_text(text, encoding="utf-8")
    return 0 if result.verdict else 1


def _campaign_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="abelian", help="abelian or ising[:c] (odd c)")
    parser.add_argument("--scheme", default=None, help="standard-d4, cyclic-d3, or a triple file")
    parser.add_argument("--trials", type=_ascii(int), default=DEFAULT_TRIALS)
    parser.add_argument("--seed", type=_ascii(int), default=None)
    _report_args(parser)


def _report_args(parser: argparse.ArgumentParser) -> None:
    """The options of every command that writes a report: its bound, its path and its format."""
    parser.add_argument("--tol", type=_ascii(float), default=DEFAULT_TOL)
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument(
        "--format", choices=("structured", "text"), default="structured", dest="fmt"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anyonmask",
        description="Verify Latin-square information masking in anyon sector algebras.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="masking campaign over seeded random inputs")
    _campaign_args(p_verify)

    p_braid = sub.add_parser("braid", help="braid-invariance campaign")
    _campaign_args(p_braid)
    p_braid.add_argument(
        "--ops",
        required=True,
        help='op string, e.g. "xBC;cBA;t3" (x=exchange, c=circle X around Y, t3=tripartite; '
        'xAB:1 or xAB:eps resolves an exchange into one channel)',
    )

    p_mols = sub.add_parser("mols", help="search for a mutually orthogonal Latin pair")
    p_mols.add_argument("--dim", type=_ascii(int), required=True)

    p_teleport = sub.add_parser("teleport", help="run the teleportation pipeline")
    p_teleport.add_argument(
        "--input",
        required=True,
        help='three comma-separated complex coefficients, e.g. "0.6,0.8i,0"',
    )
    _report_args(p_teleport)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call in this process uses, built on the first."""
    return build_parser()


def _validate_campaign(args: argparse.Namespace) -> tuple[MaskingScheme, dict]:
    """The scheme, and the config a campaign's report records."""
    check_seed(args.trials, "--trials", positive=True)
    check_tol(args.tol, "--tol")
    model = parse_model(args.model)
    name = default_triple_name(model) if args.scheme is None else args.scheme  # "" is refused as no file
    scheme = resolve_scheme(model, name)
    if args.seed is None:
        seed = _default_seed()
    else:
        seed = check_seed(args.seed, "--seed")
    config = {
        "model": model.name,
        "scheme": name,
        "trials": args.trials,
        "seed": seed,
        "tol": args.tol,
    }
    return scheme, config


def cmd_verify(args: argparse.Namespace) -> int:
    scheme, config = _validate_campaign(args)
    result = run_masking_campaign(scheme, trials=args.trials, seed=config["seed"], tol=args.tol)
    code = _report_result(args, "verify", config, result)
    print(
        f"verify {scheme.model.name}: {args.trials} trials, "
        f"worst deviation {result.worst_deviation:.3e} (tol {args.tol:g}) -> "
        + ("pass" if result.verdict else "fail")
    )
    return code


def cmd_braid(args: argparse.Namespace) -> int:
    scheme, config = _validate_campaign(args)
    ops = parse_ops(args.ops)
    report = verify_invariance(scheme, ops, trials=args.trials, tol=args.tol, seed=config["seed"])
    code = _report_result(args, "braid", {**config, "ops": args.ops}, report)
    print(
        f"braid {scheme.model.name} [{report.record()['ops']}]: {args.trials} trials, "
        f"worst deviation {report.worst_deviation:.3e}, "
        f"unitarity defect {report.unitarity_defect:.3e} -> "
        + ("pass" if report.verdict else "fail")
    )
    return code


def cmd_mols(args: argparse.Namespace) -> int:
    pair = find_mols_pair(args.dim)
    if pair is None:
        print("none")
        return 0
    alphabet = tuple(str(x) for x in range(args.dim))
    first, second = pair
    print(square_to_text(first, alphabet), end="")
    print()
    print(square_to_text(second, alphabet), end="")
    return 0


def cmd_teleport(args: argparse.Namespace) -> int:
    check_tol(args.tol, "--tol")
    parts = args.input.split(",")
    if len(parts) != 3:
        raise ValueError(f"teleport input needs exactly 3 coefficients, got {len(parts)}")
    coeffs = np.array([parse_complex(token) for token in parts], dtype=complex)
    with np.errstate(over="ignore"):
        total = float(np.sum(np.abs(coeffs) ** 2))
    if abs(total - 1.0) > UNIT_NORM_TOL:
        if not np.any(coeffs):
            raise ValueError("teleport input must be a nonzero vector")
        if not sys.float_info.min <= total <= sys.float_info.max:
            raise ValueError(
                f"teleport input norm^2 {'overflows' if total > 1 else 'underflows'} a float; "
                "scale the coefficients"
            )
        print(f"warning: input norm^2 = {total:g}; normalizing", file=sys.stderr)
        coeffs = coeffs / np.sqrt(total)
    run = run_teleport(coeffs, tol=args.tol)
    code = _report_result(args, "teleport", {"input": args.input, "tol": args.tol}, run)
    for outcome in run.outcomes:
        print(
            f"outcome {outcome.outcome}: probability {outcome.probability:.12f}, "
            f"fidelity after correction {outcome.fidelity:.12f}"
        )
    print(
        f"alice marginal deviations {run.alice_marginal_deviations[0]:.3e}, "
        f"{run.alice_marginal_deviations[1]:.3e} -> "
        + ("pass" if run.verdict else "fail")
    )
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "braid": cmd_braid,
        "mols": cmd_mols,
        "teleport": cmd_teleport,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
