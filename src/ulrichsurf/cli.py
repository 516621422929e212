"""Command-line front end.

Each subcommand is a cmd_* handler that returns its output and its exit
code and prints nothing: the output is a report dict, or the document text
for convert.  run alone prints it, a dict either as a plain text table or
as JSON (the table is a rendering of the JSON dictionary, never a
recomputation) and a str as it is.  Exit codes: 0 success, 1 usage or
validation error, 2 a verification command found a failing check, 3
internal error: an unexpected exception, which means a bug, not bad input.
Every integer read from the command line has at most catalog.MAX_DIGITS
digits.  A reader that closes stdout early changes no exit code, and
prints nothing on stderr, even for --help.

Most requests need only a few exact integer products, so the fixed cost
of a request matters.  The argparse parser is built once per process and
stays the only declaration of the options; a table read off its actions
(_option_table) parses a well-formed command line in one pass, and any
other line, help and usage errors included, goes to argparse itself, so
every error, usage line and help text is argparse's own.  A builtin name
resolves once per process (catalog.builtin_surface), and JSON is written
directly (catalog._json, beside the surface-document writer) rather than
by the pure-Python encoder json.dumps uses with an indent.  A --surface document
costs O(rank^2) only where it must: its gram entries are type-checked
once (catalog.parse_surface), h.K is read off the lattice's cached
gram . K in O(rank) (IntersectionLattice.pair), and convert writes each
integer row by one repr and one str.replace.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from argparse import SUPPRESS
from pathlib import Path

from . import catalog
from .catalog import _capped, _json, _too_many_digits
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


def _parse_coeffs(text: str, option: str) -> DivisorClass:
    parts = text.split(",")
    if any(sum(map(str.isdigit, part)) > catalog.MAX_DIGITS for part in parts):
        raise _too_many_digits(option)
    try:
        return DivisorClass(tuple(int(part) for part in parts))
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


def _render_table(data, indent: str = "") -> str:
    """A report dict as a table: one "key: value" line per key and one
    "- value" line per scalar list item, a list of scalars inline, and
    any other container two spaces deeper, under its key.  A list item is
    a pair whose key is None: it has no header line."""
    lines = []
    pairs = data.items() if isinstance(data, dict) else ((None, item) for item in data)
    for key, value in pairs:
        if isinstance(value, dict) or isinstance(value, list) and any(
            isinstance(entry, (dict, list)) for entry in value
        ):
            if key is not None:
                lines.append(f"{indent}{key}:")
            lines.append(_render_table(value, indent + "  "))
        else:
            lines.append(f"{indent}- {value}" if key is None else f"{indent}{key}: {value}")
    return "\n".join(line for line in lines if line)


def _divisor_list(divisors) -> list[list[int]]:
    return [list(D.coeffs) for D in divisors]


def cmd_info(args) -> tuple[dict, int]:
    S = _load_surface(args)
    inv = derived_invariants(S)
    data = {"surface": S.name or "(unnamed)", **inv.to_dict()}
    if inv.N is not None:
        data["embedding_sanity"] = embedding_sanity(S).to_dict()
    else:
        data["embedding_sanity"] = "unavailable (needs pg = q = 0, non_special = true)"
    return data, EXIT_OK


def cmd_check_line(args) -> tuple[dict, int]:
    S = _load_surface(args)
    D = _parse_coeffs(args.divisor, "--divisor")
    report = line_numeric_check(S, D)
    data = {"surface": S.name, "divisor": list(D.coeffs), **report.to_dict()}
    return data, EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _chern_report(S, F: ChernData) -> dict:
    return {"surface": S.name, "rank": F.rank, "c1": list(F.c1.coeffs), "c2": F.c2}


def cmd_check_rank(args) -> tuple[dict, int]:
    S = _load_surface(args)
    F = ChernData(
        _capped(args.rank, "--rank"),
        _parse_coeffs(args.c1, "--c1"),
        _capped(args.c2, "--c2"),
    )
    report = rank_numeric_check(S, F)
    data = {**_chern_report(S, F), **report.to_dict()}
    return data, EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_enumerate(args) -> tuple[dict, int]:
    S = _load_surface(args)
    if args.bound is not None:
        solutions = enumerate_bounded(S, _capped(args.bound, "--bound"))
        method = f"bounded search, box [-{args.bound}, {args.bound}]"
    else:
        try:
            solutions = enumerate_rank2_exact(S)
        except RankTooHigh:
            raise UlrichSurfError(
                "lattice rank exceeds 2; rerun with --bound B for a bounded search"
            )
        method = "exact rank-2 solver"
    data = {
        "surface": S.name,
        "method": method,
        "count": len(solutions),
        "solutions": _divisor_list(solutions),
        "note": "numerical candidates only",
    }
    return data, EXIT_OK


def cmd_special_chern(args) -> tuple[dict, int]:
    S = _load_surface(args)
    F = special_rank2_chern(S)
    return _chern_report(S, F), EXIT_OK


def cmd_classify(args) -> tuple[dict, int]:
    S = _load_surface(args)
    return {"surface": S.name, **classify(S).to_dict()}, EXIT_OK


def cmd_catalog(args) -> tuple[dict, int]:
    if args.action == "list":
        data = {
            "builtins": [
                {"pattern": pattern, "description": description}
                for pattern, description in catalog.builtin_names()
            ]
        }
        return data, EXIT_OK
    report = catalog.verify_table1()
    return report.to_dict(), EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_clifford(args) -> tuple[dict, int]:
    a, m = _capped(args.a, "--a"), _capped(args.m, "--m")
    return catalog.clifford_report(a, m).to_dict(), EXIT_OK


def cmd_convert(args) -> tuple[str, int]:
    S = _load_surface(args)
    return catalog.serialize_surface(S), EXIT_OK


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
    surface_parents = [surface_parent, format_parent]
    coeffs = "comma-separated coefficients"
    # (name, parents, help, handler, options); built per call, so that the
    # parser binds whatever cmd_* functions the module holds at that moment
    commands = (
        ("info", surface_parents,
         "derived invariants and embedding sanity checks", cmd_info, ()),
        ("check-line", surface_parents,
         "numerical Ulrich conditions for a line bundle", cmd_check_line,
         (("--divisor", {"required": True, "help": coeffs}),)),
        ("check-rank", surface_parents,
         "numerical Ulrich conditions for arbitrary Chern data", cmd_check_rank,
         (("--rank", {"type": int, "required": True}),
          ("--c1", {"required": True, "help": coeffs}),
          ("--c2", {"type": int, "required": True}))),
        ("enumerate", surface_parents,
         "enumerate line-bundle candidates", cmd_enumerate,
         (("--bound", {"type": int, "help": "use the bounded search in [-B, B]"}),)),
        ("special-chern", surface_parents,
         "Chern data of the special rank-2 bundle", cmd_special_chern, ()),
        ("classify", surface_parents,
         "existence / stability / wildness / moduli verdicts", cmd_classify, ()),
        ("catalog", [format_parent],
         "list builtins or verify the P4 table", cmd_catalog,
         (("action", {"choices": ("list", "verify")}),)),
        ("clifford", [format_parent],
         "Clifford-index report for the cubic-points family", cmd_clifford,
         (("--a", {"type": int, "required": True}),
          ("--m", {"type": int, "required": True}))),
        ("convert", surface_parents,
         "canonicalize a surface document", cmd_convert, ()),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, parents, help_text, handler, options in commands:
        p = sub.add_parser(name, parents=parents, help=help_text)
        for flag, settings in options:
            p.add_argument(flag, **settings)
        p.set_defaults(func=handler)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of this process: built on first use, then reused.
    Parsing leaves no state in it, so each run sees a fresh parse."""
    return build_parser()


def _single_store(action: argparse.Action) -> bool:
    """Whether action stores one word, converted by its type alone: argparse
    converts a str default through the type at the end of a parse."""
    return (
        type(action) is argparse._StoreAction and action.nargs is None
        and not (isinstance(action.default, str) and action.type is not None)
    )


def _defaults(parser: argparse.ArgumentParser) -> dict:
    """The namespace parser starts a parse with: its actions' defaults,
    then its set_defaults values for the other names."""
    defaults = {}
    for action in parser._actions:
        if action.dest is not SUPPRESS and action.default is not SUPPRESS:
            defaults.setdefault(action.dest, action.default)
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    return defaults


@functools.lru_cache(maxsize=1)
def _option_table(parser: argparse.ArgumentParser) -> dict[str, tuple]:
    """Per command of parser: (namespace defaults, {option string: action},
    positional actions, required actions), read off the parser's own
    actions.  A command enters only when each of its actions stores a
    single value or is its help.  Cached per parser, so a parser rebuilt
    after _shared_parser.cache_clear() gets a table of its own."""
    commands = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    table = {}
    for name, subparser in commands.choices.items():
        actions = subparser._actions
        if subparser._mutually_exclusive_groups or not all(
            _single_store(a) or type(a) is argparse._HelpAction for a in actions
        ):
            continue
        table[name] = (
            {**_defaults(parser), commands.dest: name, **_defaults(subparser)},
            {option: a for a in actions if _single_store(a) for option in a.option_strings},
            [a for a in actions if not a.option_strings],
            frozenset(a for a in actions if a.required),
        )
    return table


def _table_parse(argv: list[str]) -> argparse.Namespace | None:
    """argv read from the option table, or None when argparse must read it.

    Reads only "--opt value", "--opt=value" with an exact option string,
    and positional words; the last repeat of an option wins, and a value
    goes through the action's type, then its choices, as argparse does.
    Any other word starting with "-", a separate value that is empty or
    starts with "-", a failed type or choices check, or a missing or
    surplus word declines the whole line.
    """
    entry = _option_table(_shared_parser()).get(argv[0]) if argv else None
    if entry is None:
        return None
    defaults, options, positionals, required = entry
    values = dict(defaults)
    seen = set()
    i, end, filled = 1, len(argv), 0
    while i < end:
        word = argv[i]
        i += 1
        if word[:1] != "-":
            if filled == len(positionals):
                return None
            action, value = positionals[filled], word
            filled += 1
        elif word in options:
            if i == end or argv[i][:1] in ("", "-"):
                return None
            action, value = options[word], argv[i]
            i += 1
        else:
            # argparse turns an explicit "--" into an empty list of values
            option, equals, value = word.partition("=")
            action = options.get(option)
            if action is None or not equals or value == "--":
                return None
        if action.type is not None:
            try:
                value = action.type(value)
            except Exception:  # argparse reports it in its own words
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        seen.add(action)
    if not required <= seen:
        return None
    return argparse.Namespace(**values)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The shared parser's parse_args(argv): read from the option table
    when the line is well formed, by argparse otherwise, so that every
    error, usage line and help text is argparse's own."""
    args = _table_parse(argv)
    return _shared_parser().parse_args(argv) if args is None else args


def run(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.  The one place that
    writes a command's output: a str as it is, a report dict as JSON under
    --format json and as a table otherwise."""
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        output, code = args.func(args)
        if not isinstance(output, str):
            text = _json(output) if args.format == "json" else _render_table(output)
            output = text + "\n"
        try:
            print(output, end="", flush=True)
        except BrokenPipeError:
            pass  # the reader is gone: nothing to report, and the verdict stands
        return code
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
    try:
        code = run()
    except SystemExit as exc:  # argparse's help, or a usage error
        code = exc.code
    if sys.stdout is not None:  # None when the process started without one
        # argparse leaves its help in stdout's buffer: deliver it, unless
        # the reader is gone.  After a closed pipe the buffer still holds
        # the output, and the interpreter's last flush would report the
        # pipe again at exit, so stdout then points at the null device.
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            pass
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
