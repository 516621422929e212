"""Per-layer timings of the fixed cost of a CLI request.

Times ``cli.run`` end to end on each of the README's example command lines,
with stdout sent to a ``StringIO``; its argument parse on the same lines,
"direct" (``cli._parse_args``, which reads a well-formed line from the
option table) against "top-level" (the shared parser's own
``parse_args``); and the indent-2 JSON writer, against
``json.dumps(indent=2)``, and the table renderer on what ``classify``,
``info`` and ``enumerate`` print.  ``convert --surface mine.json`` reads a
temporary document written by ``convert --builtin kim-4-9``.  Builtin
names resolve once per process (``catalog.builtin_surface``), so every
round but the first times a request on a surface already built.  Outside
the test suite; run from the repository root with

    python -m pytest benchmarks/test_cli_layers.py --benchmark-json BENCH_cli.json

``conftest.py`` imports the package from ``src/`` of this checkout.
"""

import contextlib
import io
import json

import pytest

from ulrichsurf import cli

# The examples of the README's CLI section.
README_ARGVS = [
    ["info", "--builtin", "del-pezzo-3"],
    ["check-line", "--builtin", "p1xp1-2-3", "--divisor", "1,5"],
    ["check-rank", "--builtin", "del-pezzo-3", "--rank", "2",
     "--c1", "6,-2,-2,-2,-2,-2,-2", "--c2", "5"],
    ["enumerate", "--builtin", "p1xp1-2-3"],
    ["enumerate", "--builtin", "del-pezzo-3", "--bound", "8"],
    ["special-chern", "--builtin", "enriques-10"],
    ["classify", "--builtin", "bordiga"],
    ["catalog", "list"],
    ["catalog", "verify"],
    ["clifford", "--a", "4", "--m", "9"],
    ["convert", "--surface", "mine.json"],
]

def _quiet_run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


@pytest.fixture(scope="module")
def document(tmp_path_factory) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["convert", "--builtin", "kim-4-9"]) == 0
    path = tmp_path_factory.mktemp("documents") / "mine.json"
    path.write_text(out.getvalue(), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", README_ARGVS, ids=" ".join)
def test_run(benchmark, document, argv):
    argv = [document if word == "mine.json" else word for word in argv]
    assert benchmark(_quiet_run, argv) == 0


PARSERS = {
    "direct": cli._parse_args,
    "top-level": lambda argv: cli._shared_parser().parse_args(argv),
}

WRITERS = {
    "ulrichsurf": cli._json,
    "json.dumps": lambda value: json.dumps(value, indent=2),
}


@pytest.mark.parametrize("parser", PARSERS)
def test_dispatch(benchmark, parser):
    parse = PARSERS[parser]
    parsed = benchmark(lambda: [parse(argv) for argv in README_ARGVS])
    assert [args.command for args in parsed] == [argv[0] for argv in README_ARGVS]


def _printed(*argv, fmt="json"):
    """What run prints for argv: a JSON report as a dict, a table as text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run([*argv, "--format", fmt]) == 0
    return json.loads(out.getvalue()) if fmt == "json" else out.getvalue()


OUTPUTS = {
    "classify": ("classify", "--builtin", "bordiga"),
    "info": ("info", "--builtin", "del-pezzo-3"),
    "enumerate": ("enumerate", "--builtin", "del-pezzo-3", "--bound", "3"),
}


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("output", OUTPUTS)
def test_json_writer(benchmark, output, writer):
    data = _printed(*OUTPUTS[output])
    text = benchmark(WRITERS[writer], data)
    assert text == json.dumps(data, indent=2)


@pytest.mark.parametrize("output", OUTPUTS)
def test_table_writer(benchmark, output):
    data = _printed(*OUTPUTS[output])
    text = benchmark(cli._render_table, data)
    assert text + "\n" == _printed(*OUTPUTS[output], fmt="table")
