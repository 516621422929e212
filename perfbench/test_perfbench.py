"""Self-tests of the benchmark: generator, oracle and tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import functools
import gc
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.import_program()[0]


@pytest.fixture
def tmp_path(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = run.SCRATCH / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    run.remove_workdir(path)


def _pass(name, seed, workdir):
    workdir.mkdir()
    w = workloads.build(name, seed, workdir)
    docs = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    argvs = [tuple(a.replace(str(workdir), "DIR") for a in r.argv) for r in w.requests]
    return argvs, docs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, name):
    a = _pass(name, 3, tmp_path / "a")
    b = _pass(name, 3, tmp_path / "b")
    c = _pass(name, 4, tmp_path / "c")
    assert a == b
    assert a != c


def _answer(cli, req):
    (code, out, err), _ = run.call(cli, req.argv)
    assert oracle.check(req, code, out, err) is None
    return code, out, err


def test_oracle_rejects_a_wrong_c2(cli):
    req = workloads._simple(random.Random(1), "special-chern", "del-pezzo-3")
    req = oracle.Request(req.argv[:3] + ("--format", "json"), req.kind, req.surface)
    code, out, err = _answer(cli, req)
    doc = json.loads(out)
    doc["c2"] += 1
    assert oracle.check(req, code, json.dumps(doc, indent=2), err) is not None


def test_oracle_rejects_a_dropped_solution(cli):
    req = workloads._enumerate(random.Random(1), "del-pezzo-6", 4)
    req = oracle.Request(req.argv[:5] + ("--format", "json"), req.kind, req.surface,
                         req.data)
    code, out, err = _answer(cli, req)
    doc = json.loads(out)
    assert doc["count"] == oracle.DEL_PEZZO_COUNT[6]
    # dropping a solution and fixing the count still breaks dual closure
    doc["solutions"].pop()
    doc["count"] -= 1
    assert oracle.check(req, code, json.dumps(doc, indent=2), err) is not None
    # dropping a solution together with its dual still breaks the full count
    doc = json.loads(out)
    D = tuple(doc["solutions"][0])
    dual = [3 * h + k - d for h, k, d in zip(req.surface.h, req.surface.K, D)]
    doc["solutions"] = [s for s in doc["solutions"] if s not in (list(D), dual)]
    doc["count"] = len(doc["solutions"])
    assert oracle.check(req, code, json.dumps(doc, indent=2), err) is not None


def test_oracle_rejects_a_wrong_exit_code(cli):
    rng = random.Random(2)
    for req in (workloads._check_line(rng, True), workloads._check_rank(rng, False),
                workloads._rejected(rng)):
        code, out, err = _answer(cli, req)
        assert oracle.check(req, code + 1, out, err) is not None


def test_oracle_rejects_a_wrong_verdict(cli):
    req = workloads._simple(random.Random(1), "classify", "table1-row-1")
    req = oracle.Request(req.argv[:3] + ("--format", "table"), req.kind, req.surface)
    code, out, err = _answer(cli, req)
    # the cubic scroll is not Ulrich-wild: pi = 0 and h^2 = 3
    assert "ulrich_wild: false" in out
    bad = out.replace("ulrich_wild: false", "ulrich_wild: true")
    assert oracle.check(req, code, bad, err) is not None


def test_table1_printed_invariants_follow_from_plane_model():
    for n, (degree, mults) in oracle.TABLE1_PLANE.items():
        h2, hK, K2, N = oracle.TABLE1_PRINTED[n]
        assert (h2, hK, K2) == (degree * degree - sum(m * m for m in mults),
                                -3 * degree + sum(mults), 9 - len(mults))
        assert N == (h2 - hK) // 2


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_oracle_solver_finds_the_full_del_pezzo_sets(d):
    S = oracle.builtin(f"del-pezzo-{d}")
    bound = oracle.DEL_PEZZO_MAX_COEFF[d]
    solutions = oracle.line_solutions(S, bound)
    assert len(solutions) == oracle.DEL_PEZZO_COUNT[d]
    assert max(max(abs(x) for x in D) for D in solutions) == bound
    assert oracle.line_solutions(S, bound + 1) == solutions


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_program_finds_the_full_del_pezzo_sets(cli, d):
    # del-pezzo-4 needs B = 4, about 1 s: too long for the enumerate-box pass
    req = workloads._enumerate(random.Random(d), f"del-pezzo-{d}",
                               oracle.DEL_PEZZO_MAX_COEFF[d])
    code, out, err = _answer(cli, req)
    count, solutions = oracle._solutions_in_output(req, out)
    assert count == len(solutions) == oracle.DEL_PEZZO_COUNT[d]


def test_skewed_documents_keep_their_invariants():
    rng = random.Random(5)
    for rank in (2, 5, 20):
        S = workloads.random_document(rng, rank, "t")
        assert S.pair(S.h, S.h) == S.h2
        assert S.pair(S.h, S.K) == S.hK
        assert S.pair(S.K, S.K) == S.K2
        assert any(S.gram[i][j] for i in range(rank) for j in range(rank) if i != j)


def test_malformed_documents_are_rejected(cli, tmp_path):
    rng = random.Random(6)
    for flaw in ("asymmetric", "parity", "flag"):
        S = workloads.random_document(rng, 12, f"bad-{flaw}")
        text = workloads.malform(rng, oracle.canonical_document(S), flaw)
        path = workloads._write(tmp_path, S.name, text)
        for req in workloads.rejected_document_requests(rng, path):
            _answer(cli, req)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result(_run("--workload", "query-mix", "--seed", "1",
                          "--seconds", "0.5", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_repeats_counts():
    args = ("--workload", "query-mix", "--seed", "2", "--seconds", "0.5", "--trace", "1")
    first, second = _result(_run(*args)), _result(_run(*args))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert want == tracer.LAYER_UNITS
    for result in (first, second):
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        if unit == "count":
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
            assert first["metrics"][name]["value"] > 0, name


def test_spans_nest_inside_their_request(cli):
    rng = random.Random(3)
    requests = [workloads._simple(rng, "classify"), workloads._enumerate(rng, "del-pezzo-7", 2)]
    build_parser = cli.build_parser
    t = tracer.Tracer()
    t.install()
    try:
        for i, req in enumerate(requests):
            t.request_id = i
            _answer(cli, req)
    finally:
        t.uninstall()
    assert cli.build_parser is build_parser
    names = [t.names[k] for k in t.name]
    assert {"cli.run", "lattice.pair", "invariants.h2", "classify.classify",
            "enumeration.enumerate_bounded"} <= set(names)
    assert t.counters["box_points"] == 5 ** 2
    for index, name in enumerate(names):
        assert t.start[index] <= t.end[index]
        parent = t.parent[index]
        if parent >= 0:
            assert parent < index and t.request[parent] == t.request[index]
            assert t.start[parent] <= t.start[index] and t.end[index] <= t.end[parent]
        else:
            assert name == "cli.run"


def test_wrapped_attributes_count_computations():
    class Probe:
        @property
        def plain(self):
            return 1

        @functools.cached_property
        def cached(self):
            return 2

    t = tracer.Tracer()
    t.wrap_attribute(Probe, "plain", "plain")
    t.wrap_attribute(Probe, "cached", "cached")
    probe = Probe()
    assert [probe.plain, probe.plain, probe.cached, probe.cached] == [1, 1, 2, 2]
    t.uninstall()
    summary = t.summary()
    assert (summary["plain"]["calls"], summary["cached"]["calls"]) == (2, 1)
    assert isinstance(vars(Probe)["plain"], property)


def test_reference_kernel_is_fixed_work_outside_the_program():
    assert speed.kernel() == speed.kernel()
    meter = speed.Speedometer()
    for _ in range(3):
        meter.start_pass()
        assert meter.account(2.4 * speed.KERNEL_EVERY_S) > 0
    # one call per KERNEL_EVERY_S of program time, the remainder carried over
    assert list(meter.calls) == [2, 2, 3]
    assert gc.isenabled() and meter.local_scale(0) > 0 and meter.scale > 0
    # the kernel must not touch the program, or a change to it would move
    # the yardstick along with the measurement
    probe = ("import sys, speed; speed.kernel(); "
             "sys.exit(any(m.startswith('ulrichsurf') for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=HERE, timeout=60)
    assert proc.returncode == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "query-mix", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
