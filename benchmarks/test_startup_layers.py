"""Per-layer timings of the start-up of a CLI call, in a fresh interpreter.

Times two commands, each in a new ``sys.executable`` process with
``PYTHONPATH`` set to ``src/`` of this checkout: ``import ulrichsurf.cli``
alone, and a whole ``python -m ulrichsurf.cli classify --builtin p2-1``.
The in-process benchmark never sees this one-shot cost; the gap between the
two is the first request, argparse's parser built included.  Both include
the interpreter's own start-up.  Outside the test suite; run from the
repository root with

    python -m pytest benchmarks/test_startup_layers.py --benchmark-json BENCH_startup.json
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = {
    "import": ["-c", "import ulrichsurf.cli"],
    "classify": ["-m", "ulrichsurf.cli", "classify", "--builtin", "p2-1"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_startup(benchmark, command):
    argv = [sys.executable, *COMMANDS[command]]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = benchmark.pedantic(
        subprocess.run, args=(argv,), kwargs={"env": env, "capture_output": True},
        rounds=20, warmup_rounds=1,
    )
    assert (result.returncode, result.stderr) == (0, b"")
