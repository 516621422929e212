"""Built-in verified surfaces and the surface-document JSON format.

Families: the projective plane, Hirzebruch surfaces, the seven linearly
normal non-special rational surfaces in P^4, del Pezzo surfaces in their
anticanonical embedding, numeric carriers for Enriques surfaces, and the
blow-ups of the plane at points on a cubic.  Also the Clifford-index
report for the latter family, and lossless (de)serialization of surfaces.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from .errors import (
    DimensionMismatch,
    InvalidDegree,
    InvalidPolarization,
    OutOfRange,
    ParseError,
    UlrichSurfError,
    UnknownBuiltin,
    ValidationError,
)
from .invariants import (
    HypothesisFlags,
    PolarizedSurface,
    SurfaceKind,
    derived_invariants,
)
from .lattice import (
    DivisorClass,
    _validated_lattice,
    blowup_p2_lattice,
    dot,
    hirzebruch_lattice,
    make_lattice,
)

__all__ = [
    "p2_surface",
    "hirzebruch_surface",
    "p1xp1_surface",
    "table1",
    "table1_row",
    "table1_row2_printed",
    "verify_table1",
    "Table1RowCheck",
    "Table1Report",
    "del_pezzo",
    "enriques_numeric",
    "kim_cubic",
    "CliffordReport",
    "clifford_report",
    "parse_surface",
    "serialize_surface",
    "builtin_surface",
    "builtin_names",
]


# ---------------------------------------------------------------------------
# Plane models and Hirzebruch surfaces

# What the paper-backed families (plane, Hirzebruch, del Pezzo, Enriques,
# points on a cubic) assert: h very ample and non-special, h^0(2K - h) = 0
# and h^0(h - K) != 0.
_FAMILY_FLAGS = HypothesisFlags(
    very_ample=True,
    non_special=True,
    h0_2K_minus_h_zero=True,
    h0_h_minus_K_zero=False,
)
# What the list of surfaces in P^4 asserts: h very ample and non-special.
_P4_FLAGS = HypothesisFlags(very_ample=True, non_special=True)


def _plane_model(deg: int, groups, kind: SurfaceKind, flags: HypothesisFlags,
                 name: str, provenance: str) -> PolarizedSurface:
    """The plane blown up at points given as (multiplicity, count) groups,
    with h = deg l - sum mult p.  Points of multiplicity >= 2 get f labels,
    simple points get e labels."""
    labels = ["l"]
    coeffs = [deg]
    for mult, count in groups:
        prefix = "e" if mult == 1 else "f"
        labels.extend(f"{prefix}{i}" for i in range(1, count + 1))
        coeffs.extend([-mult] * count)
    return PolarizedSurface(
        lattice=blowup_p2_lattice(len(coeffs) - 1, labels=labels),
        h=DivisorClass(tuple(coeffs)),
        kind=kind,
        flags=flags,
        name=name,
        provenance=provenance,
    )


def p2_surface(lam: int) -> PolarizedSurface:
    """The plane polarized by O(lambda)."""
    if lam < 1:
        raise InvalidPolarization(f"lambda must be >= 1, got {lam}")
    return _plane_model(lam, (), SurfaceKind.p2(lam), _FAMILY_FLAGS,
                        f"p2-{lam}", f"plane with h = {lam}l")


def hirzebruch_surface(e: int, a: int, b: int) -> PolarizedSurface:
    """Hirzebruch surface with h = a xi + b f.

    Very-ampleness window: a >= 1 and b >= a e + 1 (which reads b >= 1
    when e = 0).
    """
    if e < 0:
        raise InvalidPolarization(f"e must be >= 0, got {e}")
    if a < 1 or b < a * e + 1:
        raise InvalidPolarization(
            f"(a, b) = ({a}, {b}) outside the very-ample window for e = {e}"
        )
    name = f"p1xp1-{a}-{b}" if e == 0 else f"hirzebruch-e{e}-a{a}-b{b}"
    return PolarizedSurface(
        lattice=hirzebruch_lattice(e),
        h=DivisorClass((a, b)),
        kind=SurfaceKind.hirzebruch(e, a, b),
        flags=_FAMILY_FLAGS,
        name=name,
        provenance=f"Hirzebruch e={e} with h = {a}xi + {b}f",
    )


def p1xp1_surface(a: int, b: int) -> PolarizedSurface:
    return hirzebruch_surface(0, a, b)


# ---------------------------------------------------------------------------
# The seven linearly normal non-special rational surfaces in P^4
#
# Each row: degree of the plane model, its (multiplicity, point count)
# groups, and the recorded (h^2, h.K, K^2, N).  Row 2 is shipped with five
# simple points: linear normality in P^4 (N = 4) and the recorded K^2 = 4
# both force the fifth point.

_TABLE1 = {
    1: (2, ((1, 1),), (3, -5, 8, 4)),
    2: (3, ((1, 5),), (4, -4, 4, 4)),
    3: (4, ((2, 1), (1, 7)), (5, -3, 1, 4)),
    4: (4, ((1, 10),), (6, -2, -1, 4)),
    5: (6, ((2, 6), (1, 5)), (7, -1, -2, 4)),
    6: (7, ((2, 10), (1, 1)), (8, 0, -2, 4)),
    7: (13, ((4, 10),), (9, 1, -1, 4)),
}


def table1_row(n: int) -> PolarizedSurface:
    """Row n of the list of linearly normal non-special rational surfaces
    in P^4 (degrees 3 through 9)."""
    if n not in _TABLE1:
        raise OutOfRange(f"row must be 1..7, got {n}")
    deg, groups, _ = _TABLE1[n]
    # Degree up to 5 in P^4 makes the surface anticanonical.
    return _plane_model(
        deg, groups, SurfaceKind.blowup_p2(anticanonical=n <= 3), _P4_FLAGS,
        f"table1-row-{n}", f"linearly normal rational surface in P4, degree {n + 2}",
    )


def table1() -> list[PolarizedSurface]:
    return [table1_row(n) for n in _TABLE1]


def table1_row2_printed() -> PolarizedSurface:
    """Row 2 with only four of the five points subtracted from h, kept as
    a regression fixture: it fails linear normality with N = 5."""
    lattice = blowup_p2_lattice(5)
    return PolarizedSurface(
        lattice=lattice,
        h=DivisorClass((3, -1, -1, -1, -1, 0)),
        kind=SurfaceKind.blowup_p2(anticanonical=True),
        flags=_P4_FLAGS,
        name="table1-row-2-printed",
        provenance="row 2 variant with four subtracted points; inconsistent",
    )


@dataclass(frozen=True)
class Table1RowCheck:
    row: int
    h2: int
    hK: int
    K2: int
    N: int
    expected: tuple[int, int, int, int]
    ok: bool

    def to_dict(self) -> dict:
        return {
            "row": self.row,
            "h2": self.h2,
            "hK": self.hK,
            "K2": self.K2,
            "N": self.N,
            "expected_h2_hK_K2_N": list(self.expected),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class Table1Report:
    rows: tuple[Table1RowCheck, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "rows": [r.to_dict() for r in self.rows]}


def verify_table1() -> Table1Report:
    """Recompute h^2, h.K, K^2 and N for each row and compare with the
    recorded values (degrees 3..9, N = 4 throughout).

    The rows are read through builtin_surface, so a process builds each
    row and computes its invariants once, however often it verifies.
    """
    checks = []
    for n, (_, _, expected) in _TABLE1.items():
        inv = derived_invariants(builtin_surface(f"table1-row-{n}"))
        got = (inv.h2, inv.hK, inv.K2, inv.N)
        checks.append(Table1RowCheck(n, *got, expected=expected, ok=got == expected))
    return Table1Report(tuple(checks))


# ---------------------------------------------------------------------------
# del Pezzo, Enriques, cubic-points families


def del_pezzo(d: int) -> PolarizedSurface:
    """Anticanonically embedded del Pezzo surface of degree d (3 <= d <= 9):
    the plane blown up at 9 - d points with h = -K."""
    if not 3 <= d <= 9:
        raise InvalidDegree(f"degree must be 3..9, got {d}")
    return _plane_model(
        3, ((1, 9 - d),), SurfaceKind.blowup_p2(anticanonical=True), _FAMILY_FLAGS,
        f"del-pezzo-{d}", f"del Pezzo surface of degree {d}, anticanonical embedding",
    )


def enriques_numeric(h2: int) -> PolarizedSurface:
    """Numeric carrier for an Enriques surface with a polarization of
    degree h2: a rank-2 hyperbolic lattice encoding h^2 = h2, h.K = 0,
    K^2 = 0.  Needs h2 >= 8 and even (h.K = 0 forces both)."""
    if h2 % 2 != 0 or h2 < 8:
        raise InvalidDegree(f"Enriques polarization degree must be even >= 8, got {h2}")
    lattice = make_lattice([[0, 1], [1, 0]], [0, 0], ["u", "v"])
    return PolarizedSurface(
        lattice=lattice,
        h=DivisorClass((1, h2 // 2)),
        kind=SurfaceKind.enriques(),
        flags=_FAMILY_FLAGS,
        name=f"enriques-{h2}",
        provenance=f"Enriques surface numeric carrier, h^2 = {h2}",
    )


def _check_kim_window(a: int, m: int) -> None:
    if a < 4 or not 2 <= m <= 9:
        raise OutOfRange(f"need a >= 4 and 2 <= m <= 9, got ({a}, {m})")


def kim_cubic(a: int, m: int) -> PolarizedSurface:
    """Blow-up of the plane at m general points on a cubic curve, with
    h = a l - sum e_i.  Very ample for a >= 4 and 2 <= m <= 9."""
    _check_kim_window(a, m)
    return _plane_model(
        a, ((1, m),), SurfaceKind.blowup_p2(anticanonical=True), _FAMILY_FLAGS,
        f"kim-{a}-{m}",
        f"blow-up of the plane at {m} points on a cubic, h = {a}l - sum e_i",
    )


@dataclass(frozen=True)
class CliffordReport:
    """Clifford-index data for the curve C in |3h + K| on kim_cubic(a, m).

    deg_L and h0_L refer to the restriction of O(h + K) = O((a-3)l) to C;
    the pencil bound comes from the degree-(3a-5) pencil cut out by lines
    through a blown-up point.
    """

    a: int
    m: int
    pi: int
    g: int
    deg_L: int
    h0_L: int
    cliff_L: int
    pencil_bound: int
    kim_hypothesis_plausible: bool

    def to_dict(self) -> dict:
        return dict(vars(self))


def clifford_report(a: int, m: int) -> CliffordReport:
    _check_kim_window(a, m)
    pi = (a - 1) * (a - 2) // 2
    g = (3 * a - 4) * (3 * a - 5) // 2 - m
    deg_L = 3 * (a - 1) * (a - 3)
    h0_L = (a - 1) * (a - 2) // 2
    cliff_L = (2 * a - 3) * (a - 3)
    pencil_bound = 3 * a - 7
    assert cliff_L == deg_L - 2 * h0_L + 2
    return CliffordReport(
        a=a,
        m=m,
        pi=pi,
        g=g,
        deg_L=deg_L,
        h0_L=h0_L,
        cliff_L=cliff_L,
        pencil_bound=pencil_bound,
        kim_hypothesis_plausible=cliff_L <= pencil_bound,
    )


# ---------------------------------------------------------------------------
# Surface documents (canonical JSON)

_DOC_KEYS = ("name", "basis", "gram", "K", "h", "pg", "q", "kind", "flags", "provenance")
_FLAG_KEYS = ("very_ample", "non_special", "h0_2K_minus_h_zero", "h0_h_minus_K_zero")
_TRISTATE = {"true": True, "false": False, "unknown": None}


def _flag_to_text(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return "unknown"


def _array(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A JSON array of encoded items, laid out as json.dumps(indent=2)
    lays out an array nested depth levels deep; with brackets "{}" and
    items '"key": value', the same for an object."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return (
        brackets[0] + inner + ("," + inner).join(items)
        + "\n" + "  " * depth + brackets[1]
    )


def _int_array(values, depth: int) -> str:
    """_array of the ints in values, written by one repr of the list and
    one str.replace: the per-entry work runs in C.  values is not empty,
    since a surface has h^2 > 0 and so rank at least 1."""
    inner = "\n" + "  " * (depth + 1)
    return (
        "[" + inner + repr(list(values))[1:-1].replace(", ", "," + inner)
        + "\n" + "  " * depth + "]"
    )


def _json(value, depth: int = 0) -> str:
    """value as json.dumps(value, indent=2) writes it, nested depth levels
    deep.  With an indent, json.dumps runs its pure-Python encoder; this
    writes the same text from the types the reports and documents hold:
    dicts with str keys, lists, tuples, str, int, bool and None.  Anything
    else is a TypeError, as it is for json.dumps."""
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


def serialize_surface(S: PolarizedSurface) -> str:
    """Canonical JSON document for a surface; fixed key order, flags as
    "true"/"false"/"unknown", trailing newline.

    The text is byte-identical to ``json.dumps(doc, indent=2) + "\n"`` for
    the dict of these fields, but written directly from the lattice's int
    tuples, since with an indent json.dumps runs its pure-Python encoder:
    each gram row, K and h by one repr and one str.replace (_int_array).
    """
    lattice = S.lattice
    gram = [_int_array(row, 2) for row in lattice.gram]
    flags = [
        f'"{key}": "{_flag_to_text(getattr(S.flags, key))}"' for key in _FLAG_KEYS
    ]
    fields = (
        ("name", _quote(S.name)),
        ("basis", _array(list(map(_quote, lattice.basis_labels)), 1)),
        ("gram", _array(gram, 1)),
        ("K", _int_array(lattice.canonical.coeffs, 1)),
        ("h", _int_array(S.h.coeffs, 1)),
        # a surface built in Python may carry a bool pg or q, an int subclass
        ("pg", _json(S.pg)),
        ("q", _json(S.q)),
        ("kind", _quote(S.kind.to_string())),
        ("flags", _array(flags, 1, "{}")),
        ("provenance", _quote(S.provenance)),
    )
    return _array([f'"{key}": {text}' for key, text in fields], 0, "{}") + "\n"


# The types json.loads makes, by their JSON names; the one left out is the
# non-integral number.
_JSON_TYPES = {
    dict: "an object", list: "a list", str: "a string", int: "an integer",
    bool: "a boolean", type(None): "null",
}


def _expect(doc: dict, key: str, type_, default=None, required=False):
    if key not in doc:
        if required:
            raise ValidationError(key, "missing required field")
        return default
    value = doc[key]
    # exact type: bool is an int subclass, but a JSON true is not a count
    if type(value) is not type_:
        raise ValidationError(
            key, f"expected {_JSON_TYPES[type_]}, "
            f"got {_JSON_TYPES.get(type(value), 'a number')}"
        )
    return value


def _int_vector(doc: dict, key: str) -> list[int]:
    value = _expect(doc, key, list, required=True)
    # as for the gram, builtin passes accept a well-formed vector, here with
    # every entry under the digit cap, and the loop only runs to name the
    # first bad entry
    if not (
        {*map(type, value)} <= {int}
        and -_INT_CAP < min(value, default=0)
        and max(value, default=0) < _INT_CAP
    ):
        for i, entry in enumerate(value):
            if type(entry) is not int:
                raise ValidationError(f"{key}[{i}]", "expected an integer")
            _capped(entry, f"{key}[{i}]")
    return value


def _check_hodge_index(S: PolarizedSurface) -> None:
    """Reject a lattice that breaks the Hodge index theorem.

    Since h^2 > 0, the pairing is negative definite on the orthogonal
    complement of h, so (D.h)^2 >= h^2 D^2 for every class D.  Checked for
    D = K and for each basis vector, in O(rank) from gram . h, gram . K and
    the diagonal.  A positive-definite gram of rank 2 or more fails it on
    a basis vector (Cauchy-Schwarz is strict off the line through h).
    """
    h2, gram_h, lattice = S.h2, S.gram_h, S.lattice
    diagonal = (row[i] for i, row in enumerate(lattice.gram))
    tests = chain(
        [("K", dot(S.K.coeffs, gram_h), S.K2)],
        zip(lattice.basis_labels, gram_h, diagonal),
    )
    for label, Dh, D2 in tests:
        if Dh * Dh < h2 * D2:
            raise ValidationError(
                "gram",
                f"Hodge index theorem fails for {label}: "
                f"(D.h)^2 = {Dh * Dh} < h^2 D^2 = {h2 * D2}",
            )


def parse_surface(text: str) -> PolarizedSurface:
    """Parse and validate a surface document; inverse of serialize_surface."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc
    except ValueError as exc:
        # an integer literal over the interpreter's digit limit
        raise ParseError(f"invalid JSON number: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    for key in doc:
        if key not in _DOC_KEYS:
            raise ValidationError(key, "unknown field")
    name = _expect(doc, "name", str, default="")
    provenance = _expect(doc, "provenance", str, default="")
    gram_raw = _expect(doc, "gram", list, required=True)
    if len(gram_raw) > MAX_RANK:
        raise ValidationError("gram", f"more than {MAX_RANK} rows")
    # json.loads makes exact lists and ints, and bool fails the exact type
    # test, so two builtin passes accept a well-formed gram; the loop only
    # runs to name the first bad entry.  Every entry is then an exact int,
    # so the lattice skips make_lattice's operator.index pass.
    if not (
        {*map(type, gram_raw)} <= {list}
        and {*map(type, chain.from_iterable(gram_raw))} <= {int}
    ):
        for i, row in enumerate(gram_raw):
            if not isinstance(row, list):
                raise ValidationError(f"gram[{i}]", "expected a list of integers")
            for j, entry in enumerate(row):
                if not isinstance(entry, int) or isinstance(entry, bool):
                    raise ValidationError(f"gram[{i}][{j}]", "expected an integer")
    K = _int_vector(doc, "K")
    h = _int_vector(doc, "h")
    basis = _expect(doc, "basis", list, default=None)
    if basis is None:
        basis = [f"b{i}" for i in range(len(gram_raw))]
    else:
        for i, label in enumerate(basis):
            if not isinstance(label, str):
                raise ValidationError(f"basis[{i}]", "expected a string")
    pg = _capped(_expect(doc, "pg", int, default=0), "pg")
    q = _capped(_expect(doc, "q", int, default=0), "q")
    kind_text = _expect(doc, "kind", str, default="abstract")
    kind_params = re.split("[:,]", kind_text)
    if any(sum(map(str.isdigit, param)) > MAX_DIGITS for param in kind_params):
        raise _too_many_digits("kind")
    flags_raw = _expect(doc, "flags", dict, default={})
    flag_values = {}
    for key, value in flags_raw.items():
        if key not in _FLAG_KEYS:
            raise ValidationError(f"flags.{key}", "unknown flag")
        if type(value) is not str or value not in _TRISTATE:
            raise ValidationError(
                f"flags.{key}", 'expected "true", "false" or "unknown"'
            )
        flag_values[key] = _TRISTATE[value]
    try:
        lattice = _validated_lattice(tuple(map(tuple, gram_raw)), K, basis)
    except UlrichSurfError as exc:
        # the lattice is checked square before the lengths of K and of the
        # labels: name the field that is wrong
        rank = len(gram_raw)
        field = "gram"
        if isinstance(exc, DimensionMismatch) and all(len(r) == rank for r in gram_raw):
            field = "K" if len(K) != rank else "basis"
        raise ValidationError(field, str(exc)) from exc
    try:
        surface = PolarizedSurface(
            lattice=lattice,
            h=DivisorClass(tuple(h)),
            pg=pg,
            q=q,
            kind=SurfaceKind.from_string(kind_text),
            flags=HypothesisFlags(**flag_values),
            name=name,
            provenance=provenance,
        )
    except ValidationError:
        raise
    except UlrichSurfError as exc:
        raise ValidationError("h", str(exc)) from exc
    _check_hodge_index(surface)
    expected = surface.kind.lattice_invariants()
    if expected is not None:
        found = (lattice.rank, surface.h2, surface.hK, surface.K2)
        if found != expected:
            raise ValidationError(
                "kind",
                f"{kind_text!r} needs (rank, h^2, h.K, K^2) = {expected}, "
                f"the document has {found}",
            )
    return surface


# ---------------------------------------------------------------------------
# Builtin registry

# One row per family: the pattern and description that `catalog list`
# prints, and the builder a name calls.  Each capital letter of a pattern
# is one integer parameter, a run of digits; a name must match the whole
# pattern, and the builder gets its parameters as ints.
_BUILTINS = (
    ("p2-L", "plane with h = L * line, L >= 1", p2_surface),
    ("p1xp1-A-B", "quadric surface with h = A xi + B f, A, B >= 1", p1xp1_surface),
    ("hirzebruch-eE-aA-bB", "Hirzebruch surface, A >= 1, B >= A*E + 1",
     hirzebruch_surface),
    ("table1-row-N", "rational surface in P4, rows 1..7", table1_row),
    ("bordiga", "alias for table1-row-4", lambda: table1_row(4)),
    ("table1-row-2-printed", "inconsistent row-2 variant (regression fixture)",
     table1_row2_printed),
    ("del-pezzo-D", "del Pezzo surface, 3 <= D <= 9, h = -K", del_pezzo),
    ("enriques-H", "Enriques numeric carrier, h^2 = H even >= 8", enriques_numeric),
    ("kim-A-M", "plane blown up at M points on a cubic, h = A l - sum e_i",
     kim_cubic),
)
# (the replacement's backslash is doubled: re.sub rejects an unknown escape)
_NAME_REGEXES = tuple(
    re.compile(re.sub("[A-Z]", r"(\\d+)", pattern)) for pattern, _, _ in _BUILTINS
)


def builtin_names() -> list[tuple[str, str]]:
    """(pattern, description) pairs for every builtin family."""
    return [(pattern, description) for pattern, description, _ in _BUILTINS]


# Every integer a request reads from its command line, builtin-name
# parameters included, and a document's pg, q, kind parameters and entries
# of K and h have at most this many decimal digits.  Every value a command
# prints is a product of at most four of them, so it stays under the
# interpreter's 4300-digit limit on int <-> str conversion.  A document's
# gram entries are not capped yet.
MAX_DIGITS = 1000
_INT_CAP = 10 ** MAX_DIGITS

# A document's gram matrix has at most this many rows, checked before any
# other work on it, so that the O(rank^3) work a request may start stays
# bounded: PolarizedSurface.line_intervals, which enumerate --bound reads
# before it can refuse a box, takes about 0.4 s at this rank.
MAX_RANK = 100


def _too_many_digits(field: str) -> ValidationError:
    return ValidationError(field, f"more than {MAX_DIGITS} digits")


def _capped(value: int, field: str) -> int:
    """value, refused when it has more than MAX_DIGITS digits."""
    if not -_INT_CAP < value < _INT_CAP:
        raise _too_many_digits(field)
    return value


@lru_cache(maxsize=128)
def builtin_surface(name: str) -> PolarizedSurface:
    """Resolve a builtin surface name like del-pezzo-3 or p1xp1-2-3.

    Each name resolves once per process, to one surface that every later
    call returns: a surface is immutable, and its cached invariants are
    computed once.  The cache keeps the 128 names used last; the family
    constructors (del_pezzo, table1_row, ...) still build a fresh surface
    on every call.  An unknown name, or one whose parameters fall outside
    their family or have more than MAX_DIGITS digits, raises on every
    call and is never stored.
    """
    for (pattern, _, build), regex in zip(_BUILTINS, _NAME_REGEXES):
        match = regex.fullmatch(name)
        if match:
            params = match.groups()
            if any(len(param) > MAX_DIGITS for param in params):
                raise OutOfRange(
                    f"{pattern}: a parameter has more than {MAX_DIGITS} digits"
                )
            return build(*map(int, params))
    raise UnknownBuiltin(f"no builtin surface named {name!r}")
