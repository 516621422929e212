"""Seeded request streams for the three workloads.

A workload is one *pass*: a fixed composition of requests whose order and
parameters come from the seed.  The timed loop repeats the pass, so every
run of a seed sees the same mix, and two seeds differ in parameters and
order but not in how much of each kind of work they ask for.

Every pass of ``enumerate-box`` and ``document-ingest`` also carries one
coverage request per layer entry point (``coverage_requests``), so the
traced run reports every per-layer metric on every workload.  They are a
small share of the pass's time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle
from oracle import Request, Surface

WORKLOADS = ("query-mix", "enumerate-box", "document-ingest")
FORMATS = ("table", "json")


@dataclass
class Workload:
    name: str
    requests: list[Request]   # one pass
    warmup: list[Request]


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's pass and write its documents under workdir."""
    rng = random.Random(f"{name}:{seed}")
    if name == "query-mix":
        requests = _query_mix(rng, workdir)
    elif name == "enumerate-box":
        requests = _enumerate_box() + coverage_requests(rng, workdir, "cover")
    elif name == "document-ingest":
        requests = _document_ingest(rng, workdir) + coverage_requests(rng, workdir, "cover")
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng.shuffle(requests)
    warmup = coverage_requests(random.Random(f"warmup:{name}:{seed}"), workdir, "warmup")
    return Workload(name, requests, warmup)


# ---------------------------------------------------------------------------
# Surface documents


def skew(rng: random.Random, S: Surface, ops: int, name: str, kind: str,
         flags: dict) -> Surface:
    """S in a new basis b_i <- b_i + c b_j, after ``ops`` seeded row operations.

    The gram matrix becomes E G E^T and coordinates become x E^-1, so every
    pairing, and with it h^2, hK and K^2, is unchanged.
    """
    n = S.rank
    G = [list(row) for row in S.gram]
    K, h = list(S.K), list(S.h)
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        for k in range(n):
            G[i][k] += c * G[j][k]
        for k in range(n):
            G[k][i] += c * G[k][j]
        for v in (K, h):
            v[j] -= c * v[i]
    return Surface(
        name=name, labels=tuple(f"v{i}" for i in range(n)),
        gram=tuple(tuple(row) for row in G), K=tuple(K), h=tuple(h),
        h2=S.h2, hK=S.hK, K2=S.K2,
        family="abstract" if kind == "abstract" else "blowup",
        flags=flags, provenance="seeded plane blow-up in a skewed basis",
    )


def random_blowup(rng: random.Random, rank: int) -> Surface:
    """Plane blown up at rank - 1 points of random multiplicity 1..3, with
    the degree chosen so that h^2 > 0."""
    mults = tuple(rng.choice((1, 1, 2, 3)) for _ in range(rank - 1))
    floor = max(1, int(sum(m * m for m in mults) ** 0.5) + 1)
    degree = floor + rng.randrange(0, 4)
    return oracle.blowup("", degree, mults)


def random_document(rng: random.Random, rank: int, name: str) -> Surface:
    tri = (True, False, None)
    flags = {"very_ample": True, "non_special": True,
             "h0_2K_minus_h_zero": rng.choice(tri),
             "h0_h_minus_K_zero": rng.choice(tri)}
    kind = rng.choice(("abstract", "blowup_p2"))
    return skew(rng, random_blowup(rng, rank), 2 * rank, name, kind, flags)


def malform(rng: random.Random, text: str, flaw: str) -> str:
    """Break a canonical document: asymmetric gram, odd parity or bad flag."""
    doc = json.loads(text)
    gram = doc["gram"]
    n = len(gram)
    if flaw == "asymmetric":
        i, j = rng.sample(range(n), 2)
        gram[i][j] += 1
    elif flaw == "parity":
        # b.b + b.K moves by 1 + K_i, so only an even K_i flips the parity;
        # the last such vector makes the parity loop do nearly all its work
        i = max(i for i, k in enumerate(doc["K"]) if k % 2 == 0)
        gram[i][i] += 1
    else:
        doc["flags"]["very_ample"] = "maybe"
    return json.dumps(doc, indent=2) + "\n"


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / f"{name}.json"
    path.write_text(text)
    return str(path)


def document_requests(rng: random.Random, S: Surface, path: str, text: str,
                      commands=("convert", "info", "classify")) -> list[Request]:
    out = []
    for command in commands:
        argv = (command, "--surface", path, "--format", rng.choice(FORMATS))
        data = (text,) if command == "convert" else ()
        out.append(Request(argv, command, S, data))
    return out


def rejected_document_requests(rng: random.Random, path: str) -> list[Request]:
    return [Request((command, "--surface", path, "--format", rng.choice(FORMATS)),
                    "reject")
            for command in ("convert", "info", "classify")]


# ---------------------------------------------------------------------------
# Built-in names


def random_builtin(rng: random.Random) -> str:
    family = rng.choice(("p2", "p1xp1", "hirzebruch", "table1", "bordiga",
                         "del-pezzo", "enriques", "kim"))
    if family == "p2":
        return f"p2-{rng.randint(1, 6)}"
    if family == "p1xp1":
        return f"p1xp1-{rng.randint(1, 5)}-{rng.randint(1, 5)}"
    if family == "hirzebruch":
        e, a = rng.randint(1, 3), rng.randint(1, 3)
        return f"hirzebruch-e{e}-a{a}-b{a * e + rng.randint(1, 4)}"
    if family == "table1":
        return f"table1-row-{rng.randint(1, 7)}"
    if family == "bordiga":
        return "bordiga"
    if family == "del-pezzo":
        return f"del-pezzo-{rng.randint(3, 9)}"
    if family == "enriques":
        return f"enriques-{2 * rng.randint(4, 10)}"
    return f"kim-{rng.randint(4, 7)}-{rng.randint(2, 9)}"


def _rank2_builtin(rng: random.Random) -> str:
    return rng.choice((
        f"p2-{rng.randint(1, 6)}",
        f"p1xp1-{rng.randint(1, 5)}-{rng.randint(1, 5)}",
        f"hirzebruch-e{rng.randint(1, 3)}-a1-b{rng.randint(4, 7)}",
        f"enriques-{2 * rng.randint(4, 10)}",
        "table1-row-1", "del-pezzo-8", "del-pezzo-9",
    ))


def _coeffs(values) -> str:
    return ",".join(str(v) for v in values)


def _fmt(rng) -> tuple[str, str]:
    return ("--format", rng.choice(FORMATS))


def _simple(rng, command: str, name: str | None = None) -> Request:
    name = name or random_builtin(rng)
    return Request((command, "--builtin", name) + _fmt(rng), command,
                   oracle.builtin(name))


def _check_line(rng, solution: bool) -> Request:
    if solution:
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        name = f"p1xp1-{a}-{b}"
        D = rng.choice(oracle.p1xp1_solutions(a, b))
    else:
        name = random_builtin(rng)
        D = tuple(rng.randint(-4, 4) for _ in oracle.builtin(name).h)
    # the = form keeps a leading minus sign from reading as an option
    return Request(("check-line", "--builtin", name, f"--divisor={_coeffs(D)}") + _fmt(rng),
                   "check-line", oracle.builtin(name), (D,))


def _check_rank(rng, passing: bool) -> Request:
    name = random_builtin(rng)
    S = oracle.builtin(name)
    c1 = oracle.special_c1(S)
    c2 = oracle.special_c2(S) + (0 if passing else rng.choice((-2, -1, 1, 3)))
    argv = ("check-rank", "--builtin", name, "--rank", "2", f"--c1={_coeffs(c1)}",
            f"--c2={c2}") + _fmt(rng)
    return Request(argv, "check-rank", S, (2, c1, c2))


def _enumerate(rng, name: str, bound: int | None) -> Request:
    argv = ("enumerate", "--builtin", name)
    if bound is not None:
        argv += ("--bound", str(bound))
    return Request(argv + _fmt(rng), "enumerate", oracle.builtin(name), (bound,))


def _small_bounded(rng) -> Request:
    name, bound = rng.choice((("del-pezzo-7", 3), ("del-pezzo-7", 2), ("del-pezzo-6", 2),
                              (f"kim-{rng.randint(4, 7)}-2", 4),
                              (f"p1xp1-{rng.randint(1, 4)}-{rng.randint(1, 4)}", 8),
                              ("table1-row-1", 20)))
    return _enumerate(rng, name, bound)


def _rejected(rng) -> Request:
    argv = rng.choice((
        ("info", "--builtin", "del-pezzo-2"),
        ("classify", "--builtin", f"p1xp1-0-{rng.randint(1, 5)}"),
        ("special-chern", "--builtin", f"enriques-{2 * rng.randint(2, 3) + 1}"),
        ("info", "--builtin", f"kim-3-{rng.randint(2, 9)}"),
        ("classify", "--builtin", "table1-row-8"),
        ("check-line", "--builtin", "p1xp1-2-3", "--divisor", "1,2,3"),
        ("check-rank", "--builtin", f"p2-{rng.randint(1, 6)}", "--rank", "2",
         "--c1=1,2", "--c2=3"),
        ("info", "--builtin", "no-such-surface"),
        ("convert",),
    ))
    return Request(argv + _fmt(rng), "reject")


def _small_documents(rng, workdir: Path, count: int,
                     tag: str) -> list[tuple[Surface, str, str]]:
    docs = []
    for k in range(count):
        S = random_document(rng, rng.randint(2, 8), f"{tag}-{k}")
        text = oracle.canonical_document(S)
        docs.append((S, _write(workdir, S.name, text), text))
    return docs


def coverage_requests(rng: random.Random, workdir: Path, tag: str) -> list[Request]:
    """One short request per layer entry point the big workloads skip."""
    (S, path, text), = _small_documents(rng, workdir, 1, tag)
    return [
        document_requests(rng, S, path, text, commands=("info",))[0],
        _simple(rng, "convert"),
        Request(("catalog", "verify") + _fmt(rng), "catalog-verify"),
        _check_rank(rng, True),
        _simple(rng, "special-chern"),
        _simple(rng, "classify"),
        _check_line(rng, True),
        _enumerate(rng, f"p1xp1-{rng.randint(1, 5)}-{rng.randint(1, 5)}", None),
        _enumerate(rng, "del-pezzo-7", 3),
    ]


# ---------------------------------------------------------------------------
# The three workloads


def _query_mix(rng: random.Random, workdir: Path) -> list[Request]:
    """Short README-style requests over every family and subcommand."""
    docs = _small_documents(rng, workdir, 6, "small")
    reqs: list[Request] = []
    reqs += [_simple(rng, "info") for _ in range(24)]
    reqs += [_check_line(rng, True) for _ in range(12)]
    reqs += [_check_line(rng, False) for _ in range(6)]
    reqs += [_check_rank(rng, True) for _ in range(10)]
    reqs += [_check_rank(rng, False) for _ in range(4)]
    reqs += [_simple(rng, "special-chern") for _ in range(16)]
    reqs += [_simple(rng, "classify") for _ in range(24)]
    reqs += [_simple(rng, "convert") for _ in range(12)]
    reqs += [_enumerate(rng, _rank2_builtin(rng), None) for _ in range(16)]
    reqs += [_small_bounded(rng) for _ in range(6)]
    reqs += [Request(("catalog", "list") + _fmt(rng), "catalog-list") for _ in range(6)]
    reqs += [Request(("catalog", "verify") + _fmt(rng), "catalog-verify") for _ in range(6)]
    for _ in range(10):
        a, m = rng.randint(4, 12), rng.randint(2, 9)
        reqs.append(Request(("clifford", "--a", str(a), "--m", str(m)) + _fmt(rng),
                            "clifford", None, (a, m)))
    for S, path, text in docs:
        reqs += document_requests(rng, S, path, text)
    reqs += [_rejected(rng) for _ in range(10)]
    return reqs


# (built-in surface, bound) on lattices of rank 2 to 9: from about 8 ms to
# about 80 ms each, cost growing with (2B+1)^(rank-1).  Longer searches
# (del-pezzo-4 at B = 4 takes about 1 s) are left out: on a machine whose
# speed changes from one moment to the next, a long request seldom runs
# entirely at full speed, so its timings wander from run to run.  The
# list is fixed so that every seed asks for the same search work; the seed
# orders it among the coverage requests.
BOX_REQUESTS = (
    ("del-pezzo-7", 10), ("kim-5-5", 2), ("kim-4-5", 2), ("kim-5-2", 15),
    ("del-pezzo-3", 1), ("kim-4-4", 3), ("table1-row-1", 400), ("kim-4-3", 6),
    ("kim-5-4", 4), ("kim-4-2", 20), ("kim-5-3", 6), ("del-pezzo-6", 5),
    ("kim-5-2", 25), ("del-pezzo-7", 20), ("kim-6-6", 2), ("kim-5-6", 2),
    ("del-pezzo-5", 3), ("del-pezzo-6", 6), ("table1-row-1", 1000), ("del-pezzo-4", 2),
    ("table1-row-2", 2), ("kim-5-3", 8), ("del-pezzo-7", 30), ("del-pezzo-5", 4),
    ("table1-row-3", 1),
)


def _enumerate_box() -> list[Request]:
    """Bounded searches on rank 2 to 9 lattices, JSON output."""
    return [Request(("enumerate", "--builtin", name, "--bound", str(bound),
                     "--format", "json"), "enumerate", oracle.builtin(name), (bound,))
            for name, bound in BOX_REQUESTS]


DOCUMENT_RANKS = tuple(range(20, 61, 2))
MALFORMED = (("asymmetric", 30), ("parity", 50), ("flag", 40))


def _document_ingest(rng: random.Random, workdir: Path) -> list[Request]:
    """Large skewed plane blow-ups read with convert, info and classify."""
    reqs = []
    for k, rank in enumerate(DOCUMENT_RANKS):
        S = random_document(rng, rank, f"doc-{k}-rank-{rank}")
        text = oracle.canonical_document(S)
        reqs += document_requests(rng, S, _write(workdir, S.name, text), text)
    for flaw, rank in MALFORMED:
        S = random_document(rng, rank, f"bad-{flaw}-rank-{rank}")
        text = malform(rng, oracle.canonical_document(S), flaw)
        reqs += rejected_document_requests(rng, _write(workdir, S.name, text))
    return reqs
