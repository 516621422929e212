"""ulrichsurf benchmark: one closed-loop client driving the public CLI.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 30 --trace 0

Builds the workload from the seed, imports the program from ``src/`` of the
checkout, and repeats the workload's pass through ``cli.run(argv)``
in-process, one request at a time, in whole passes until ``--seconds`` have
passed.  Every response is checked against the oracle in ``oracle.py``.

Latency percentiles are taken over every response of the timed loop and
requests per second over its whole length.  Set-up is repeated in fresh
interpreters spread over the timed loop, and the median of a fixed number
of set-ups is reported.  Every time is reported in reference seconds
(``speed.py``): measured seconds scaled by the machine's speed on a fixed
reference kernel run between the requests.
With ``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics; with ``--trace 1`` the run is split into an untraced
half and a traced half and the result carries the per-layer metrics.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench-tmp"

DEFAULT_SEED = 1
# Seed reserved for confirming a claimed gain; never used while tuning.
HELD_OUT_SEED = 7919
# Set-ups per run: the run's own and the rest in fresh interpreters.
SETUP_REPEATS = 9
# The traced half stops early once this many spans are kept (about 28 MB).
MAX_SPANS = 1_000_000

E2E_UNITS = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import ulrichsurf.cli from this checkout's src/, and nowhere else."""
    started = perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        from ulrichsurf import cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ulrichsurf from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: ulrichsurf was imported from {cli.__file__}, not {SRC}")
    return cli, perf_counter() - started


def call(cli, argv) -> tuple[tuple[object, str, str], float]:
    """Run one request; return (exit code, stdout, stderr) and seconds."""
    out, err = io.StringIO(), io.StringIO()
    started = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a wrong answer, not the end of the run
            code = f"raised {type(exc).__name__}: {exc}"
    return (code, out.getvalue(), err.getvalue()), perf_counter() - started


class Loop:
    """The closed loop over whole passes.

    Keeps the first response at each position of the pass and any later
    response that differs from it, so memory does not grow with the number
    of passes and the oracle runs after the timed region.
    """

    def __init__(self, cli, requests, tracer=None):
        self.cli, self.requests, self.tracer = cli, requests, tracer
        self.speed = speed.Speedometer()
        self.first: list = [None] * len(requests)
        self.changed: list[tuple[int, tuple]] = []
        self.latencies = array("d")
        self.passes = 0
        self.wall = 0.0

    def run_pass(self) -> None:
        started = perf_counter()
        kernel_s = 0.0
        self.speed.start_pass()
        for i, req in enumerate(self.requests):
            if self.tracer is not None:
                self.tracer.request_id = self.passes * len(self.requests) + i
            response, seconds = call(self.cli, req.argv)
            self.latencies.append(seconds)
            if self.first[i] is None:
                self.first[i] = response
            elif response != self.first[i]:
                self.changed.append((i, response))
            kernel_s += self.speed.account(seconds)
        self.passes += 1
        self.wall += perf_counter() - started - kernel_s

    def run_for(self, seconds: float) -> None:
        """Run whole passes until the passes so far add up to ``seconds``."""
        while True:
            self.run_pass()
            if self.wall >= seconds:
                return

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def failures(self) -> list[str]:
        """One entry per wrong response, from the oracle."""
        cache: dict = {}
        verdicts = [oracle.check(req, *response, cache)
                    for req, response in zip(self.requests, self.first)]
        times = [self.passes] * len(self.requests)
        out = []
        for i, response in self.changed:
            times[i] -= 1
            verdict = oracle.check(self.requests[i], *response, cache)
            if verdict is not None:
                out.append(f"{' '.join(self.requests[i].argv)}: {verdict}")
        for req, verdict, n in zip(self.requests, verdicts, times):
            if verdict is not None:
                out += [f"{' '.join(req.argv)}: {verdict}"] * n
        return out

    def requests_per_s(self, failed: int) -> float:
        """Correct responses per reference second of the timed loop."""
        return (self.attempted - failed) / (self.wall * self.speed.scale)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup(args):
    """Everything before the first timed request: import, inputs, warm-up."""
    cli, import_s = import_program()
    workdir = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, workdir)
    for req in workload.warmup:
        call(cli, req.argv)
    return cli, workload, workdir, import_s


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        SCRATCH.rmdir()


def child_setup(args) -> tuple[float, float]:
    """Set up once more in a fresh interpreter; return its (setup seconds,
    import seconds)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def run_with_setups(args, loop: Loop, seconds: float) -> list[tuple[float, float]]:
    """Run ``loop`` for ``seconds`` with SETUP_REPEATS - 1 fresh set-ups spread
    evenly over it, outside the timed passes, so that a slow spell of the
    machine reaches few of them."""
    samples = []
    for k in range(1, SETUP_REPEATS):
        samples.append(child_setup(args))
        loop.run_for(seconds * k / (SETUP_REPEATS - 1))
    return samples


def untraced(args, cli, workload, setup_s: float):
    loop = Loop(cli, workload.requests)
    setups = [setup_s] + [s for s, _ in run_with_setups(args, loop, args.seconds)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = loop.failures()
    scale = loop.speed.scale
    # each latency is scaled by the speed around its own pass
    size = len(loop.requests)
    scales = [loop.speed.local_scale(p) for p in range(loop.passes)]
    latencies = [s * 1e3 * scales[k // size] for k, s in enumerate(loop.latencies)]
    values = {
        "requests_per_s": loop.requests_per_s(len(failures)),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": peak_rss_mb,
    }
    n = len(latencies)
    lines = [
        f"workload {args.workload} seed {args.seed}: {loop.passes} passes of "
        f"{len(loop.requests)} requests in {loop.wall:.2f} s",
        f"  reference kernel: {sum(loop.speed.calls)} calls; times below are "
        f"reference seconds = measured seconds x {scale:.4f} "
        f"(x {min(scales):.4f} to {max(scales):.4f} around single passes)",
        f"  measured: {(loop.attempted - len(failures)) / loop.wall:.6g} correct "
        f"responses/s, p50 {percentile([s * 1e3 for s in loop.latencies], 50):.6g} ms",
        f"  failed_ratio = {len(failures)}/{loop.attempted} = "
        f"{len(failures) / loop.attempted:.6f}",
        f"  latency over {n} responses: p50 has {n // 2} above, p90 {n // 10}, "
        f"p99 {n // 100} (p99 = {percentile(latencies, 99):.4f} ms)",
        "  setup samples: " + ", ".join(f"{s:.4f}" for s in setups) + " s",
    ]
    lines += [f"  {k} = {v:.6g} {E2E_UNITS[k]}" for k, v in values.items()]
    return loop.attempted, failures, values, E2E_UNITS, lines


def traced(args, cli, workload, import_s: float):
    half = args.seconds / 2
    plain = Loop(cli, workload.requests)
    imports = [import_s] + [i for _, i in run_with_setups(args, plain, half)]
    tracer = tracing.Tracer()
    loop = Loop(cli, workload.requests, tracer)
    tracer.install()
    try:
        loop.run_pass()
        first_pass_end = len(tracer.start)
        counters_pass = dict(tracer.counters)
        while loop.wall < half and len(tracer.start) < MAX_SPANS:
            loop.run_pass()
    finally:
        tracer.uninstall()
    failures = plain.failures() + loop.failures()
    values = tracing.layer_metrics(
        tracer.summary(), tracer.summary(0, first_pass_end), tracer.counters,
        counters_pass, statistics.median(imports) * 1e3 * plain.speed.scale,
        plain.requests_per_s(0), loop.requests_per_s(0), loop.speed.scale,
    )
    lines = [
        f"workload {args.workload} seed {args.seed}: untraced {plain.passes} passes, "
        f"traced {loop.passes} passes, {len(tracer.start)} spans",
    ]
    lines += [f"  {k} = {v:.6g} {tracing.LAYER_UNITS[k]}" for k, v in values.items()]
    return plain.attempted + loop.attempted, failures, values, tracing.LAYER_UNITS, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print [setup seconds, import seconds] and exit")
    args = parser.parse_args(argv)

    cli, workload, workdir, import_s = setup(args)
    setup_s = perf_counter() - T0
    try:
        if args.setup_only:
            print(json.dumps([setup_s, import_s]))
            return 0
        if args.trace:
            attempted, failures, values, units, lines = traced(args, cli, workload, import_s)
        else:
            attempted, failures, values, units, lines = untraced(args, cli, workload, setup_s)
    finally:
        remove_workdir(workdir)
    for line in lines:
        print(line)
    for failure in failures[:20]:
        print("WRONG:", failure)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
