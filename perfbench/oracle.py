"""Independent oracle for every response the benchmark checks.

Nothing here imports the program.  Surfaces are rebuilt from the closed
forms of their families (plane model degree and multiplicities, Hirzebruch
parameters, the Enriques carrier), the Table 1 invariants are the printed
ones, and line-bundle solutions come from a solver of our own that cuts the
box search down by one dimension and solves a univariate quadratic exactly.

A checker takes a request, its exit code and its captured output and
returns ``None`` when the response is right, or a one-line reason.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import isqrt

CHI = 1  # every surface the benchmark builds has pg = q = 0

# Table 1: degree of the plane model and its point multiplicities, then the
# printed (h^2, hK, K^2, N).
TABLE1_PLANE = {
    1: (2, (1,)),
    2: (3, (1,) * 5),
    3: (4, (2,) + (1,) * 7),
    4: (4, (1,) * 10),
    5: (6, (2,) * 6 + (1,) * 5),
    6: (7, (2,) * 10 + (1,)),
    7: (13, (4,) * 10),
}
TABLE1_PRINTED = {
    1: (3, -5, 8, 4),
    2: (4, -4, 4, 4),
    3: (5, -3, 1, 4),
    4: (6, -2, -1, 4),
    5: (7, -1, -2, 4),
    6: (8, 0, -2, 4),
    7: (9, 1, -1, 4),
}

# Number of line-bundle solutions on the anticanonical del Pezzo surface of
# degree d (classes with D.(-K) = d, D^2 = d - 2), and the largest absolute
# coefficient among them: a box [-B, B] with B at least that holds the set.
DEL_PEZZO_COUNT = {3: 72, 4: 40, 5: 20, 6: 8, 7: 2}
DEL_PEZZO_MAX_COEFF = {3: 5, 4: 4, 5: 4, 6: 4, 7: 3}

FLAG_KEYS = ("very_ample", "non_special", "h0_2K_minus_h_zero", "h0_h_minus_K_zero")
DOC_KEYS = ("name", "basis", "gram", "K", "h", "pg", "q", "kind", "flags", "provenance")
FAMILY_PATTERNS = (
    "p2-L", "p1xp1-A-B", "hirzebruch-eE-aA-bB", "table1-row-N", "bordiga",
    "del-pezzo-D", "enriques-H", "kim-A-M",
)


@dataclass(frozen=True)
class Surface:
    """A polarized surface as the oracle knows it.

    ``family`` is one of p2, hirzebruch, blowup, enriques, abstract.
    ``h2``, ``hK`` and ``K2`` come from the family's closed form, not from
    the gram matrix, so a document in a skewed basis is still judged
    against the invariants of its diagonal original.
    """

    name: str
    labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    K: tuple[int, ...]
    h: tuple[int, ...]
    h2: int
    hK: int
    K2: int
    family: str
    params: tuple[int, ...] = ()
    anticanonical: bool = False
    flags: dict = field(default_factory=dict)
    provenance: str = ""

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def pi(self) -> int:
        return (self.h2 + self.hK) // 2 + 1

    @property
    def N(self) -> int | None:
        if self.flags.get("non_special") is True:
            return (self.h2 - self.hK) // 2
        return None

    def pair(self, x, y) -> int:
        return sum(
            xi * gij * yj
            for xi, row in zip(x, self.gram)
            if xi
            for gij, yj in zip(row, y)
        )

    @property
    def kind_text(self) -> str:
        if self.family == "blowup":
            return "blowup_p2:anticanonical" if self.anticanonical else "blowup_p2"
        if self.family == "abstract":
            return "abstract"
        if self.family == "enriques":
            return "enriques"
        return self.family + ":" + ",".join(str(p) for p in self.params)


# ---------------------------------------------------------------------------
# Family closed forms

_KNOWN_FLAGS = {
    "very_ample": True,
    "non_special": True,
    "h0_2K_minus_h_zero": True,
    "h0_h_minus_K_zero": False,
}


def blowup(name, degree, mults, labels=None, anticanonical=False, flags=None,
           provenance="") -> Surface:
    """Plane blown up at len(mults) points, h = degree*l - sum m_i e_i."""
    n = len(mults) + 1
    gram = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n))
        for i in range(n)
    )
    return Surface(
        name=name,
        labels=tuple(labels or ["l"] + [f"e{i}" for i in range(1, n)]),
        gram=gram,
        K=(-3,) + (1,) * (n - 1),
        h=(degree,) + tuple(-m for m in mults),
        h2=degree * degree - sum(m * m for m in mults),
        hK=-3 * degree + sum(mults),
        K2=9 - len(mults),
        family="blowup",
        anticanonical=anticanonical,
        flags=dict(flags if flags is not None else _KNOWN_FLAGS),
        provenance=provenance,
    )


def _table1_labels(mults) -> list[str]:
    labels, e, f = ["l"], 0, 0
    for m in mults:
        if m == 1:
            e += 1
            labels.append(f"e{e}")
        else:
            f += 1
            labels.append(f"f{f}")
    return labels


def builtin(name: str) -> Surface:
    """The oracle's own model of a built-in surface name."""
    if name == "bordiga":
        return _table1(4, "table1-row-4")
    m = re.fullmatch(r"p2-(\d+)", name)
    if m:
        lam = int(m[1])
        return Surface(name, ("l",), ((1,),), (-3,), (lam,), lam * lam, -3 * lam, 9,
                       "p2", (lam,), True, dict(_KNOWN_FLAGS))
    m = re.fullmatch(r"p1xp1-(\d+)-(\d+)", name)
    if m:
        return _hirzebruch(0, int(m[1]), int(m[2]), name)
    m = re.fullmatch(r"hirzebruch-e(\d+)-a(\d+)-b(\d+)", name)
    if m:
        return _hirzebruch(int(m[1]), int(m[2]), int(m[3]), name)
    m = re.fullmatch(r"table1-row-(\d+)", name)
    if m:
        return _table1(int(m[1]), name)
    m = re.fullmatch(r"del-pezzo-(\d+)", name)
    if m:
        d = int(m[1])
        return blowup(name, 3, (1,) * (9 - d), anticanonical=True)
    m = re.fullmatch(r"enriques-(\d+)", name)
    if m:
        H = int(m[1])
        return Surface(name, ("u", "v"), ((0, 1), (1, 0)), (0, 0), (1, H // 2),
                       H, 0, 0, "enriques", (), False, dict(_KNOWN_FLAGS))
    m = re.fullmatch(r"kim-(\d+)-(\d+)", name)
    if m:
        a, k = int(m[1]), int(m[2])
        return blowup(name, a, (1,) * k, anticanonical=True)
    raise KeyError(name)


def _hirzebruch(e, a, b, name) -> Surface:
    return Surface(
        name, ("xi", "f"), ((-e, 1), (1, 0)), (-2, -(e + 2)), (a, b),
        h2=2 * a * b - e * a * a, hK=a * e - 2 * a - 2 * b, K2=8,
        family="hirzebruch", params=(e, a, b), anticanonical=True,
        flags=dict(_KNOWN_FLAGS),
    )


def _table1(n, name) -> Surface:
    degree, mults = TABLE1_PLANE[n]
    return blowup(name, degree, mults, labels=_table1_labels(mults),
                  anticanonical=n <= 3,
                  flags={"very_ample": True, "non_special": True,
                         "h0_2K_minus_h_zero": None, "h0_h_minus_K_zero": None})


def p1xp1_solutions(a: int, b: int) -> list[tuple[int, int]]:
    """L = (a-1) xi + (2b-1) f and M = (2a-1) xi + (b-1) f."""
    return sorted({(a - 1, 2 * b - 1), (2 * a - 1, b - 1)})


def special_c2(S: Surface) -> int:
    return (5 * S.h2 + 3 * S.hK) // 2 + 2 * CHI


def special_c1(S: Surface) -> tuple[int, ...]:
    return tuple(3 * h + k for h, k in zip(S.h, S.K))


# ---------------------------------------------------------------------------
# Line-bundle solutions by an independent method


def satisfies_line_equations(S: Surface, D) -> bool:
    """D.h = (3h^2 + hK)/2 and D^2 - D.K = 2(h^2 - chi), in integers."""
    return (2 * S.pair(D, S.h) == 3 * S.h2 + S.hK
            and S.pair(D, D) - S.pair(D, S.K) == 2 * (S.h2 - CHI))


def _int_roots(A: int, B: int, C: int) -> list[int]:
    if A == 0:
        if B == 0:
            if C == 0:
                raise ValueError("quadratic vanishes identically")
            return []
        return [-C // B] if C % B == 0 else []
    disc = B * B - 4 * A * C
    if disc < 0:
        return []
    s = isqrt(disc)
    if s * s != disc:
        return []
    return sorted({(-B + sign * s) // (2 * A)
                   for sign in (1, -1) if (-B + sign * s) % (2 * A) == 0})


def line_solutions(S: Surface, bound: int | None = None) -> list[tuple[int, ...]]:
    """Every integer solution with coefficients in [-bound, bound], sorted.

    All coordinates but two are enumerated; the linear equation restricts
    the last two to a line P + tV and the quadratic one becomes an integer
    quadratic in t.  With ``bound=None`` the lattice must have rank <= 2.
    """
    n = S.rank
    w = [S.pair(e, S.h) for e in _unit_vectors(n)]
    twice_r = 3 * S.h2 + S.hK
    if twice_r % 2:
        return []
    r = twice_r // 2
    c = 2 * (S.h2 - CHI)
    if bound is None and n > 2:
        raise ValueError("an unbounded search needs rank <= 2")
    order = sorted(range(n), key=lambda i: -abs(w[i]))
    if n == 1:
        if r % w[0]:
            return []
        cand = [(r // w[0],)]
        return [D for D in cand if satisfies_line_equations(S, D)
                and (bound is None or abs(D[0]) <= bound)]
    p, q = order[0], order[1]
    free = order[2:]
    # extended gcd: w_p old_x + w_q old_y = g
    g, rr, old_x, x, old_y, y = w[p], w[q], 1, 0, 0, 1
    while rr:
        k = g // rr
        g, rr = rr, g - k * rr
        old_x, x = x, old_x - k * x
        old_y, y = y, old_y - k * y
    if g < 0:
        g, old_x, old_y = -g, -old_x, -old_y
    V = [0] * n
    V[p], V[q] = w[q] // g, -w[p] // g
    VGV = S.pair(V, V)
    kV = S.pair(V, S.K)
    rng = range(-bound, bound + 1) if bound is not None else None
    solutions = []
    for ys in product(rng, repeat=len(free)) if free else [()]:
        s = r - sum(w[i] * v for i, v in zip(free, ys))
        if s % g:
            continue
        P = [0] * n
        for i, v in zip(free, ys):
            P[i] = v
        P[p], P[q] = old_x * (s // g), old_y * (s // g)
        A = VGV
        Bq = 2 * S.pair(P, V) - kV
        Cq = S.pair(P, P) - S.pair(P, S.K) - c
        for t in _int_roots(A, Bq, Cq):
            D = tuple(Pi + t * Vi for Pi, Vi in zip(P, V))
            if bound is None or all(abs(d) <= bound for d in D):
                solutions.append(D)
    return sorted(solutions)


def _unit_vectors(n):
    return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]


# ---------------------------------------------------------------------------
# Output readers


def read_table(text: str) -> dict[str, str]:
    """Top-level ``key: value`` lines of a table rendering."""
    out = {}
    for line in text.splitlines():
        if line and not line[0].isspace() and ": " in line:
            key, value = line.split(": ", 1)
            out[key] = value
    return out


def _fraction_repr(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)


# ---------------------------------------------------------------------------
# Expected answers


def info_fields(S: Surface) -> dict:
    N = S.N
    return {
        "surface": S.name or "(unnamed)",
        "h2": S.h2, "hK": S.hK, "K2": S.K2, "chi": CHI, "pi": S.pi,
        "N": N,
        "h0_h": None if N is None else N + 1,
        "degZ": None if N is None else N + 2,
        "h0_h_plus_K": S.pi if S.pi >= 1 else None,
    }


def embedding_passed(S: Surface) -> bool:
    h2, hK, N = S.h2, S.hK, S.N
    ok = h2 == hK + 2 * N and h2 >= hK + 4
    if h2 >= 2:
        ok = ok and N >= 3 and h2 >= hK + 6
    if h2 >= 4:
        ok = ok and N >= 4 and h2 >= hK + 8
    return ok


def classify_fields(S: Surface) -> tuple[dict, int]:
    """Verdict sheet and the number of notes, from the published rules.

    Wildness: pi >= 1 or h^2 >= 5.  Stability fails only for the scrolls
    (Hirzebruch with a = 1) and the plane with lambda = 1, and is unknown
    for untagged sectional-genus-0 data.
    """
    flags = S.flags
    auto = S.family == "enriques" or S.anticanonical
    non_special = flags.get("non_special")
    if non_special is None and auto:
        non_special = True
    special = flags.get("very_ample") is True and non_special is True
    if not special:
        stable = "unknown"
    elif S.family == "hirzebruch":
        stable = "false" if S.params[1] == 1 else "true"
    elif S.family == "p2":
        stable = "false" if S.params[0] == 1 else "true"
    elif S.family == "abstract" and S.pi == 0:
        stable = "unknown"
    else:
        stable = "true"
    if non_special is not True:
        wild = "unknown"
    else:
        wild = "true" if S.pi >= 1 or S.h2 >= 5 else "false"
    lower_chern = S.h2 - S.K2 + 5
    injective = smooth = None
    if stable == "true":
        if flags.get("h0_h_minus_K_zero") is True and S.N is not None:
            injective = 2 * (S.N + 2)
        vanishing = flags.get("h0_2K_minus_h_zero")
        if vanishing is None and auto:
            vanishing = True
        if vanishing is True:
            smooth = lower_chern
    notes = sum((S.anticanonical and S.family == "blowup" and S.pi >= 1,
                 S.anticanonical, S.K2 > 9))
    fields = {
        "surface": S.name,
        "special_rank2_exists": "true" if special else "unknown",
        "stable_special_exists": stable,
        "ulrich_wild": wild,
        "wild_via_lemma": S.pi >= 1 and S.h2 + 1 >= S.K2,
        "minimal_degree": S.pi == 0,
        "moduli_dim_lower_chern": lower_chern,
        "moduli_dim_lower_injective": injective,
        "moduli_dim_smooth": smooth,
    }
    return fields, notes


def line_check_fields(S: Surface, D) -> dict:
    required_linear = Fraction(3 * S.h2 + S.hK, 2)
    actual_linear = S.pair(D, S.h)
    required_c2 = 2 * (S.h2 - CHI) + S.pair(D, S.K)
    actual_c2 = S.pair(D, D)
    linear_ok = actual_linear == required_linear
    quadratic_ok = actual_c2 == required_c2
    return {
        "surface": S.name, "divisor": list(D),
        "passed": linear_ok and quadratic_ok,
        "linear_ok": linear_ok, "quadratic_ok": quadratic_ok,
        "required_linear": _fraction_repr(required_linear),
        "actual_linear": actual_linear,
        "required_c2": required_c2, "actual_c2": actual_c2,
    }


def rank_check_fields(S: Surface, rank: int, c1, c2: int) -> dict:
    required_linear = Fraction(rank * (3 * S.h2 + S.hK), 2)
    actual_linear = S.pair(c1, S.h)
    required_c2 = Fraction(S.pair(c1, c1) - S.pair(c1, S.K), 2) - rank * (S.h2 - CHI)
    linear_ok = actual_linear == required_linear
    quadratic_ok = c2 == required_c2
    return {
        "surface": S.name, "rank": rank, "c1": list(c1), "c2": c2,
        "passed": linear_ok and quadratic_ok,
        "linear_ok": linear_ok, "quadratic_ok": quadratic_ok,
        "required_linear": _fraction_repr(required_linear),
        "actual_linear": actual_linear,
        "required_c2": _fraction_repr(required_c2), "actual_c2": c2,
    }


def clifford_fields(a: int, m: int) -> dict:
    cliff = (2 * a - 3) * (a - 3)
    bound = 3 * a - 7
    return {
        "a": a, "m": m,
        "pi": (a - 1) * (a - 2) // 2,
        "g": (3 * a - 4) * (3 * a - 5) // 2 - m,
        "deg_L": 3 * (a - 1) * (a - 3),
        "h0_L": (a - 1) * (a - 2) // 2,
        "cliff_L": cliff,
        "pencil_bound": bound,
        "kim_hypothesis_plausible": cliff <= bound,
    }


def canonical_document(S: Surface) -> str:
    """The canonical JSON text of a surface document, as the README fixes it."""
    doc = {
        "name": S.name,
        "basis": list(S.labels),
        "gram": [list(row) for row in S.gram],
        "K": list(S.K),
        "h": list(S.h),
        "pg": 0,
        "q": 0,
        "kind": S.kind_text,
        "flags": {k: {True: "true", False: "false", None: "unknown"}[S.flags.get(k)]
                  for k in FLAG_KEYS},
        "provenance": S.provenance,
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Requests and their checks


@dataclass(frozen=True)
class Request:
    """One CLI request and what the oracle needs to judge its answer.

    ``kind`` names the check; ``surface`` is the oracle's model of the
    surface named in argv (built-in or document); ``data`` carries the
    request's own parameters (divisor, Chern data, bound, document text).
    """

    argv: tuple[str, ...]
    kind: str
    surface: Surface | None = None
    data: tuple = ()

    @property
    def json(self) -> bool:
        return "json" in self.argv


def _compare(req: Request, out: str, fields: dict):
    """Compare top-level fields in either output format."""
    if req.json:
        try:
            got = json.loads(out)
        except json.JSONDecodeError:
            return "output is not JSON"
        for key, value in fields.items():
            if got.get(key, "<missing>") != value:
                return f"{key}: got {got.get(key, '<missing>')!r}, want {value!r}"
        return None
    got = read_table(out)
    for key, value in fields.items():
        # the table prints scalars and lists of scalars with str()
        if got.get(key, "<missing>") != str(value):
            return f"{key}: got {got.get(key, '<missing>')!r}, want {value!r}"
    return None


def _solutions_in_output(req: Request, out: str):
    if req.json:
        doc = json.loads(out)
        return doc.get("count"), [tuple(D) for D in doc.get("solutions", [])]
    lines = out.splitlines()
    count = read_table(out).get("count")
    sols = [tuple(json.loads(line.strip()[2:])) for line in lines
            if line.startswith("  - [")]
    return (int(count) if count is not None else None), sols


def check(req: Request, code: int, out: str, err: str, cache: dict | None = None):
    """None if the response to ``req`` is right, else a one-line reason."""
    try:
        return _check(req, code, out, err, cache if cache is not None else {})
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _expect_code(code: int, want: int):
    return None if code == want else f"exit code {code}, want {want}"


def _check(req, code, out, err, cache):
    S = req.surface
    kind = req.kind
    if kind == "reject":
        bad = _expect_code(code, 1)
        if bad:
            return bad
        if out:
            return "rejected request wrote to stdout"
        if req.json:
            error = json.loads(err).get("error", {})
            if error.get("category") != "validation":
                return f"error category {error.get('category')!r}"
        elif not err.startswith("error ("):
            return "no error line on stderr"
        return None
    if kind == "info":
        bad = _expect_code(code, 0) or _compare(req, out, info_fields(S))
        if bad or S.N is None:
            return bad
        want = embedding_passed(S)
        if req.json:
            got = json.loads(out)["embedding_sanity"]["passed"]
        else:
            lines = out.splitlines()
            got = (True if "  passed: True" in lines
                   else False if "  passed: False" in lines else None)
        return None if got == want else f"embedding_sanity.passed {got}, want {want}"
    if kind == "classify":
        fields, notes = classify_fields(S)
        bad = _expect_code(code, 0) or _compare(req, out, fields)
        if bad is None and req.json and len(json.loads(out)["notes"]) != notes:
            return f"{len(json.loads(out)['notes'])} notes, want {notes}"
        return bad
    if kind == "special-chern":
        fields = {"surface": S.name, "rank": 2, "c1": list(special_c1(S)),
                  "c2": special_c2(S)}
        return _expect_code(code, 0) or _compare(req, out, fields)
    if kind == "check-line":
        (D,) = req.data
        fields = line_check_fields(S, D)
        return (_expect_code(code, 0 if fields["passed"] else 2)
                or _compare(req, out, fields))
    if kind == "check-rank":
        rank, c1, c2 = req.data
        fields = rank_check_fields(S, rank, c1, c2)
        return (_expect_code(code, 0 if fields["passed"] else 2)
                or _compare(req, out, fields))
    if kind == "clifford":
        a, m = req.data
        return _expect_code(code, 0) or _compare(req, out, clifford_fields(a, m))
    if kind == "catalog-list":
        bad = _expect_code(code, 0)
        if bad:
            return bad
        if req.json:
            patterns = [b["pattern"] for b in json.loads(out)["builtins"]]
        else:
            patterns = [line.split(": ", 1)[1] for line in out.splitlines()
                        if line.startswith("    pattern: ")]
        missing = [p for p in FAMILY_PATTERNS if p not in patterns]
        return f"catalog list lacks {missing}" if missing else None
    if kind == "catalog-verify":
        return _expect_code(code, 0) or _check_table1(req, out)
    if kind == "convert":
        return _expect_code(code, 0) or _check_convert(req, out)
    if kind == "enumerate":
        return _expect_code(code, 0) or _check_enumerate(req, out, cache)
    raise ValueError(f"no check for request kind {kind!r}")


def _check_table1(req, out):
    if req.json:
        doc = json.loads(out)
        passed = doc["passed"]
        rows = [(r["row"], r["h2"], r["hK"], r["K2"], r["N"]) for r in doc["rows"]]
    else:
        passed = read_table(out).get("passed") == "True"
        rows, current = [], {}
        for line in out.splitlines():
            if line.startswith("    ") and ": " in line:
                key, value = line.strip().split(": ", 1)
                if key == "row" and current:
                    rows.append(current)
                    current = {}
                current[key] = value
        rows.append(current)
        rows = [(int(r["row"]), int(r["h2"]), int(r["hK"]), int(r["K2"]), int(r["N"]))
                for r in rows]
    want = [(n,) + TABLE1_PRINTED[n] for n in range(1, 8)]
    if rows != want:
        return f"table 1 rows {rows}, want {want}"
    return None if passed is True else "table 1 verification did not pass"


def _check_convert(req, out):
    """A document must come back byte for byte; a built-in must come back as
    the canonical document of the oracle's model (provenance text aside)."""
    expected_text = req.data[0] if req.data else None
    if expected_text is not None:
        return None if out == expected_text else "convert output differs from the document"
    got = json.loads(out)
    if list(got) != list(DOC_KEYS) or out != json.dumps(got, indent=2) + "\n":
        return "convert output is not in canonical form"
    want = json.loads(canonical_document(req.surface))
    for key in DOC_KEYS[:-1]:
        if got[key] != want[key]:
            return f"{key}: got {got[key]!r}, want {want[key]!r}"
    return None


def _check_enumerate(req, out, cache):
    S = req.surface
    (bound,) = req.data
    count, got = _solutions_in_output(req, out)
    if count != len(got):
        return f"count {count} but {len(got)} solutions listed"
    for D in got:
        if len(D) != S.rank or not satisfies_line_equations(S, D):
            return f"{list(D)} does not satisfy the line equations"
        if bound is not None and any(abs(d) > bound for d in D):
            return f"{list(D)} lies outside the box"
        dual = tuple(3 * h + k - d for h, k, d in zip(S.h, S.K, D))
        if (bound is None or all(abs(d) <= bound for d in dual)) and dual not in got:
            return f"line_dual of {list(D)} is missing"
    if got != sorted(got) or len(set(got)) != len(got):
        return "solutions are not sorted and distinct"
    key = (S.name, bound)
    if key not in cache:
        if S.family == "hirzebruch" and S.params[0] == 0 and bound is None:
            cache[key] = p1xp1_solutions(S.params[1], S.params[2])
        else:
            cache[key] = line_solutions(S, bound)
    want = cache[key]
    if got != want:
        return f"{len(got)} solutions, oracle finds {len(want)}"
    m = re.fullmatch(r"del-pezzo-(\d+)", S.name)
    if m and bound is not None and bound >= DEL_PEZZO_MAX_COEFF.get(int(m[1]), bound + 1):
        if len(got) != DEL_PEZZO_COUNT[int(m[1])]:
            return f"{len(got)} solutions, the full set has {DEL_PEZZO_COUNT[int(m[1])]}"
    return None
