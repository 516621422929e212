"""Command-line front end.

Every subcommand renders the same computed object either as a plain text
table or as JSON; the table is a rendering of the JSON dictionary, never a
recomputation.  Exit codes: 0 success, 1 usage or validation error, 2 a
verification command found a failing check, 3 internal error: an
unexpected exception, which means a bug, not bad input.

Most requests need only a few exact integer products, so the fixed cost
of a request matters: the parser is built once per process, a command
line is parsed once by its command's subparser, and JSON is written
directly rather than by the pure-Python encoder json.dumps uses with an
indent.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import catalog
from .catalog import _array, _quote
from .classify import classify
from .enumeration import enumerate_bounded, enumerate_rank2_exact
from .errors import RankTooHigh, UlrichSurfError, UnreadableFile
from .invariants import ChernData, derived_invariants, embedding_sanity
from .lattice import DivisorClass
from .ulrich import (
    line_numeric_check,
    rank_numeric_check,
    special_rank2_chern,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_INTERNAL = 3


def _parse_coeffs(text: str) -> DivisorClass:
    try:
        return DivisorClass(tuple(int(part) for part in text.split(",")))
    except ValueError:
        raise UlrichSurfError(f"bad coefficient list {text!r}; expected e.g. 1,5")


def _load_surface(args):
    if args.builtin and args.surface:
        raise UlrichSurfError("give exactly one of --builtin and --surface")
    if args.builtin:
        return catalog.builtin_surface(args.builtin)
    if args.surface:
        try:
            text = Path(args.surface).read_text(encoding="utf-8")
        except OSError as exc:
            raise UnreadableFile(
                f"cannot read surface file {args.surface!r}: {exc.strerror or exc}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise UnreadableFile(
                f"surface file {args.surface!r} is not UTF-8 text: {exc.reason}"
            ) from exc
        return catalog.parse_surface(text)
    raise UlrichSurfError("a surface is required: use --builtin NAME or --surface FILE")


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and not any(
        isinstance(entry, (dict, list)) for entry in value
    )


def _render_table(data, indent: str = "") -> str:
    lines = []
    if isinstance(data, dict):
        for key, value in data.items():
            if _is_scalar_list(value):
                lines.append(f"{indent}{key}: {value}")
            elif isinstance(value, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.append(_render_table(value, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {value}")
    elif isinstance(data, list):
        for value in data:
            if _is_scalar_list(value):
                lines.append(f"{indent}- {value}")
            elif isinstance(value, (dict, list)):
                lines.append(_render_table(value, indent + "  "))
            else:
                lines.append(f"{indent}- {value}")
    else:
        lines.append(f"{indent}{data}")
    return "\n".join(line for line in lines if line)


def _json(value, depth: int = 0) -> str:
    """value as json.dumps(value, indent=2) writes it, nested depth levels
    deep.  With an indent, json.dumps runs its pure-Python encoder; this
    writes the same text from the types the commands emit: dicts with str
    keys, lists, tuples, str, int, bool and None.  Anything else is a
    TypeError, as it is for json.dumps."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        return _array([_json(item, depth + 1) for item in value], depth)
    if isinstance(value, dict):
        items = [
            f"{_quote(key)}: {_json(item, depth + 1)}" for key, item in value.items()
        ]
        return _array(items, depth, "{}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(args, data: dict) -> None:
    if args.format == "json":
        print(_json(data))
    else:
        print(_render_table(data))


def _divisor_list(divisors) -> list[list[int]]:
    return [list(D.coeffs) for D in divisors]


def cmd_info(args) -> int:
    S = _load_surface(args)
    inv = derived_invariants(S)
    data = {"surface": S.name or "(unnamed)", **inv.to_dict()}
    if inv.N is not None:
        data["embedding_sanity"] = embedding_sanity(S).to_dict()
    else:
        data["embedding_sanity"] = "unavailable (needs pg = q = 0, non_special = true)"
    _emit(args, data)
    return EXIT_OK


def cmd_check_line(args) -> int:
    S = _load_surface(args)
    D = _parse_coeffs(args.divisor)
    report = line_numeric_check(S, D)
    _emit(args, {"surface": S.name, "divisor": list(D.coeffs), **report.to_dict()})
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_check_rank(args) -> int:
    S = _load_surface(args)
    F = ChernData(args.rank, _parse_coeffs(args.c1), args.c2)
    report = rank_numeric_check(S, F)
    _emit(
        args,
        {
            "surface": S.name,
            "rank": F.rank,
            "c1": list(F.c1.coeffs),
            "c2": F.c2,
            **report.to_dict(),
        },
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_enumerate(args) -> int:
    S = _load_surface(args)
    if args.bound is not None:
        solutions = enumerate_bounded(S, args.bound)
        method = f"bounded search, box [-{args.bound}, {args.bound}]"
    else:
        try:
            solutions = enumerate_rank2_exact(S)
        except RankTooHigh:
            raise UlrichSurfError(
                "lattice rank exceeds 2; rerun with --bound B for a bounded search"
            )
        method = "exact rank-2 solver"
    _emit(
        args,
        {
            "surface": S.name,
            "method": method,
            "count": len(solutions),
            "solutions": _divisor_list(solutions),
            "note": "numerical candidates only",
        },
    )
    return EXIT_OK


def cmd_special_chern(args) -> int:
    S = _load_surface(args)
    F = special_rank2_chern(S)
    _emit(
        args,
        {
            "surface": S.name,
            "rank": F.rank,
            "c1": list(F.c1.coeffs),
            "c2": F.c2,
        },
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    S = _load_surface(args)
    _emit(args, {"surface": S.name, **classify(S).to_dict()})
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.action == "list":
        _emit(
            args,
            {
                "builtins": [
                    {"pattern": pattern, "description": description}
                    for pattern, description in catalog.builtin_names()
                ]
            },
        )
        return EXIT_OK
    report = catalog.verify_table1()
    _emit(args, report.to_dict())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_clifford(args) -> int:
    _emit(args, catalog.clifford_report(args.a, args.m).to_dict())
    return EXIT_OK


def cmd_convert(args) -> int:
    S = _load_surface(args)
    sys.stdout.write(catalog.serialize_surface(S))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting EXIT_USAGE: argparse's own code 2
    is EXIT_CHECK_FAILED here.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ulrichsurf",
        description="Numerical Ulrich-bundle conditions on polarized surfaces",
    )
    surface_parent = argparse.ArgumentParser(add_help=False)
    surface_parent.add_argument("--builtin", help="builtin surface name")
    surface_parent.add_argument("--surface", help="surface document file")
    format_parent = argparse.ArgumentParser(add_help=False)
    format_parent.add_argument(
        "--format", choices=("table", "json"), default="table"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "info", parents=[surface_parent, format_parent],
        help="derived invariants and embedding sanity checks",
    ).set_defaults(func=cmd_info)

    p = sub.add_parser(
        "check-line", parents=[surface_parent, format_parent],
        help="numerical Ulrich conditions for a line bundle",
    )
    p.add_argument("--divisor", required=True, help="comma-separated coefficients")
    p.set_defaults(func=cmd_check_line)

    p = sub.add_parser(
        "check-rank", parents=[surface_parent, format_parent],
        help="numerical Ulrich conditions for arbitrary Chern data",
    )
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--c1", required=True, help="comma-separated coefficients")
    p.add_argument("--c2", type=int, required=True)
    p.set_defaults(func=cmd_check_rank)

    p = sub.add_parser(
        "enumerate", parents=[surface_parent, format_parent],
        help="enumerate line-bundle candidates",
    )
    p.add_argument("--bound", type=int, help="use the bounded search in [-B, B]")
    p.set_defaults(func=cmd_enumerate)

    sub.add_parser(
        "special-chern", parents=[surface_parent, format_parent],
        help="Chern data of the special rank-2 bundle",
    ).set_defaults(func=cmd_special_chern)

    sub.add_parser(
        "classify", parents=[surface_parent, format_parent],
        help="existence / stability / wildness / moduli verdicts",
    ).set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "catalog", parents=[format_parent], help="list builtins or verify the P4 table"
    )
    p.add_argument("action", choices=("list", "verify"))
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser(
        "clifford", parents=[format_parent],
        help="Clifford-index report for the cubic-points family",
    )
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_clifford)

    sub.add_parser(
        "convert", parents=[surface_parent, format_parent],
        help="canonicalize a surface document",
    ).set_defaults(func=cmd_convert)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of this process: built on first use, then reused.
    Parsing leaves no state in it, so each run sees a fresh parse."""
    return build_parser()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The shared parser's parse_args(argv), in one pass where it can be.

    argparse reads a command line twice: the top-level parser scans all of
    it, then hands the words after the command to that command's subparser.
    When the first word names a command, this calls the subparser at once.
    Every other line, and one the subparser leaves words over from, takes
    the full route, so its errors and usage lines are argparse's own.
    """
    parser = _shared_parser()
    if argv:
        commands = next(
            action.choices for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        subparser = commands.get(argv[0])
        if subparser is not None:
            args, extras = subparser.parse_known_args(argv[1:])
            if not extras:
                args.command = argv[0]
                return args
    return parser.parse_args(argv)


def run(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except UlrichSurfError as exc:
        _report_error(args, exc, "validation")
        return EXIT_USAGE
    except Exception as exc:
        # a bug, not bad input: reported like any error, never as a traceback
        _report_error(args, exc, "internal")
        return EXIT_INTERNAL


def _report_error(args, exc: Exception, category: str) -> None:
    if getattr(args, "format", "table") == "json":
        payload = {
            "error": {
                "category": category,
                "type": type(exc).__name__,
                "message": str(exc),
            }
        }
        print(_json(payload), file=sys.stderr)
    else:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
