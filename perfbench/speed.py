"""The machine's speed, measured beside the program, and reference seconds.

The shared machines this benchmark runs on change speed from minute to
minute: the same pass of the same seed runs a third faster or slower a few
minutes later, and the process's CPU time moves with its wall time, so no
choice of clock or statistic inside a run removes it.  Each run therefore
interleaves a fixed piece of reference work, ``kernel``, with the program's
requests: one kernel call for every 50 ms of the program's time, so the
kernel samples the machine's speed in step with the program's work.  Times
are then reported in *reference seconds*::

    reference seconds = measured seconds * REFERENCE_S / mean kernel time

that is, as on a machine that runs the kernel in ``REFERENCE_S``, with
the mean kernel time over the whole run for a rate and over the passes
around its own for a single latency.  The kernel uses the standard library
only (argparse, small-integer loops, fractions, json: the kinds of work
the program does), so no change to the program changes it.  The garbage
collector is off while it runs, so it never pays for the program's
garbage.
"""

from __future__ import annotations

import argparse
import gc
import json
from array import array
from fractions import Fraction
from time import perf_counter

# Kernel time that one reference second assumes: about the median on
# 2 vCPUs of an Intel Xeon under Python 3.11.
REFERENCE_S = 0.003
# Program time per kernel call: the kernel takes about 6 % of a run.
KERNEL_EVERY_S = 0.05
# Passes on each side of a pass that give its local scale: about 3 to 9 s.
LOCAL_REACH = 3


def kernel() -> object:
    """A fixed piece of pure-Python work, about 3 ms."""
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command")
    for n in range(8):
        p = sub.add_parser(f"command{n}")
        p.add_argument("--a", type=int, default=1)
        p.add_argument("--format", choices=("table", "json"), default="table")
    parser.parse_args(["command3", "--a", "5"])
    gram = [[(i * 7 + j * 3) % 5 - 2 for j in range(12)] for i in range(12)]
    total = 0
    for x in range(-3, 4):
        for y in range(-3, 4):
            v = [x, y] + [1] * 10
            total += sum(v[i] * gram[i][j] * v[j] for i in range(12) for j in range(12))
    f = sum(Fraction(k, k + 1) for k in range(1, 60))
    return json.loads(json.dumps({"gram": gram, "total": total, "f": str(f)}, indent=2))


class Speedometer:
    """Kernel calls and their seconds, pass by pass.

    ``account`` is told the program's time after every request and makes
    one kernel call per KERNEL_EVERY_S of it, so the kernel samples the
    machine in step with the program's work, spread through each pass.
    """

    def __init__(self):
        self.calls = array("i")
        self.seconds = array("d")
        self.due = 0.0

    def start_pass(self) -> None:
        self.calls.append(0)
        self.seconds.append(0.0)

    def account(self, program_seconds: float) -> float:
        """Sample for ``program_seconds`` of program time; return the
        seconds the kernel took."""
        self.due += program_seconds
        spent = 0.0
        while self.due >= KERNEL_EVERY_S:
            self.due -= KERNEL_EVERY_S
            gc.disable()
            try:
                started = perf_counter()
                kernel()
                spent += perf_counter() - started
            finally:
                gc.enable()
            self.calls[-1] += 1
        self.seconds[-1] += spent
        return spent

    @staticmethod
    def _scale(calls, seconds) -> float:
        return REFERENCE_S * sum(calls) / sum(seconds)

    @property
    def scale(self) -> float:
        """Reference seconds per measured second over the whole run."""
        return self._scale(self.calls, self.seconds)

    def local_scale(self, i: int) -> float:
        """The same over the passes within LOCAL_REACH of pass i, for the
        times taken in it: the speed moves within a run too."""
        window = slice(max(0, i - LOCAL_REACH), i + LOCAL_REACH + 1)
        return self._scale(self.calls[window], self.seconds[window])
