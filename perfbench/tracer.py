"""Span tracing of the program from outside, and the per-layer metrics.

The tracer replaces each public function at the name its caller binds
(``cli.enumerate_bounded``, ``enumeration.line_numeric_check``,
``IntersectionLattice.pair``, the ``PolarizedSurface.h2``/``hK``
properties, ...) with a wrapper that records a span: name, start, end,
parent span and request id.  Spans are kept in flat arrays in memory.
Nothing in the program changes; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

# Span name -> (module, attribute) pairs at which callers bind the function.
FUNCTIONS = {
    "cli.run": [("cli", "run")],
    "cli.build_parser": [("cli", "build_parser")],
    "catalog.builtin_surface": [("catalog", "builtin_surface")],
    "catalog.parse_surface": [("catalog", "parse_surface")],
    "catalog.serialize_surface": [("catalog", "serialize_surface")],
    "catalog.verify_table1": [("catalog", "verify_table1")],
    "lattice.make_lattice": [("lattice", "make_lattice"), ("catalog", "make_lattice")],
    "invariants.derived_invariants": [
        ("cli", "derived_invariants"), ("invariants", "derived_invariants"),
        ("catalog", "derived_invariants"), ("classify", "derived_invariants"),
        ("ulrich", "derived_invariants"),
    ],
    "invariants.embedding_sanity": [("cli", "embedding_sanity")],
    "ulrich.line_numeric_check": [("cli", "line_numeric_check"),
                                  ("enumeration", "line_numeric_check")],
    "ulrich.rank_numeric_check": [("cli", "rank_numeric_check")],
    "ulrich.special_rank2_chern": [("cli", "special_rank2_chern")],
    "enumeration.enumerate_bounded": [("cli", "enumerate_bounded")],
    "enumeration.enumerate_rank2_exact": [("cli", "enumerate_rank2_exact")],
    "classify.classify": [("cli", "classify")],
}
METHODS = {"lattice.pair": ("lattice", "IntersectionLattice", "pair")}
PROPERTIES = {
    "invariants.h2": ("invariants", "PolarizedSurface", "h2"),
    "invariants.hK": ("invariants", "PolarizedSurface", "hK"),
}


def module(short: str):
    # ulrichsurf.classify, the package attribute, is the function; the
    # module has to come from the import system.
    return importlib.import_module(f"ulrichsurf.{short}")


class Tracer:
    """Nested spans of one thread, plus a few counters taken at the same
    boundaries (bytes parsed, box points visited, solutions returned)."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.stack: list[int] = []
        self.request_id = -1
        self.counters: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- installing wrappers ------------------------------------------------

    def _span(self, name: str, fn, after=None):
        name_id = self.intern(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            index = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        afters = {
            "catalog.parse_surface":
                lambda args, _: self.count("parse_bytes", len(args[0])),
            "enumeration.enumerate_bounded":
                lambda _, result: self.count("box_solutions", len(result)),
        }
        for name, sites in FUNCTIONS.items():
            original = getattr(module(sites[0][0]), sites[0][1])
            wrapper = self._span(name, original, afters.get(name))
            for mod, attribute in sites:
                self._replace(module(mod), attribute, wrapper)
        for name, (mod, cls, attribute) in METHODS.items():
            owner = getattr(module(mod), cls)
            self._replace(owner, attribute, self._span(name, owner.__dict__[attribute]))
        for name, (mod, cls, attribute) in PROPERTIES.items():
            self.wrap_attribute(getattr(module(mod), cls), attribute, name)
        enumeration = module("enumeration")
        # a search that draws no box from itertools.product visits no box points
        if "product" in vars(enumeration):
            self._replace(enumeration, "product", self._counting_product(enumeration.product))

    def wrap_attribute(self, owner, attribute: str, name: str) -> None:
        """Trace a computed attribute (a property, a functools.cached_property
        or any other descriptor) by timing the original's ``__get__``.

        The wrapper defines ``__get__`` only, so a value that a cached
        property stores in the instance shadows it: spans count the
        computations, not the reads.
        """
        get = self._span(name, owner.__dict__[attribute].__get__)
        self._replace(owner, attribute, _TracedAttribute(get))

    def _counting_product(self, product):
        """itertools.product as enumerate_bounded sees it, counting the box
        points the search actually visits."""
        count = self.count

        def counted(*iterables, repeat=1):
            visited = 0
            try:
                for visited, item in enumerate(product(*iterables, repeat=repeat), 1):
                    yield item
            finally:
                count("box_points", visited)

        return counted

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)

    # -- turning spans into metrics -----------------------------------------

    def summary(self, first: int = 0, last: int | None = None) -> dict:
        """Per span name over spans[first:last]: calls, total seconds, self
        seconds (duration minus the part covered by child spans) and the
        number of calls made inside an enumerate_bounded span."""
        last = len(self.start) if last is None else last
        size = last - first
        start, end = self.start, self.end
        covered = array("d", bytes(8 * size))
        inside = array("b", bytes(size))
        enum_id = self.intern("enumeration.enumerate_bounded")
        for k in range(size):
            p = self.parent[first + k] - first
            if p >= 0:
                covered[p] += end[first + k] - start[first + k]
                inside[k] = inside[p] or self.name[first + p] == enum_id
        stats = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "in_enumerate_bounded": 0}
                 for n in self.names}
        for k in range(size):
            duration = end[first + k] - start[first + k]
            s = stats[self.names[self.name[first + k]]]
            s["calls"] += 1
            s["total_s"] += duration
            s["self_s"] += duration - covered[k]
            s["in_enumerate_bounded"] += inside[k]
        return stats


class _TracedAttribute:
    def __init__(self, get):
        self.get = get

    def __get__(self, obj, cls=None):
        return self.get(obj, cls)


def _mean(total: float, calls: int, scale: float) -> float:
    return total / calls * scale if calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> unit, in the order the benchmark reports them
LAYER_UNITS = {
    "cli.run.self_ms": "ms",
    "cli.build_parser.ms": "ms",
    "cli.build_parser.share": "ratio",
    "catalog.builtin_surface.us": "us",
    "catalog.parse_surface.ms": "ms",
    "catalog.parse_surface.kb_per_s": "kB/s",
    "catalog.serialize_surface.ms": "ms",
    "catalog.verify_table1.ms": "ms",
    "lattice.make_lattice.ms": "ms",
    "lattice.make_lattice.self_ms": "ms",
    "lattice.pair.calls": "count",
    "lattice.pair.us": "us",
    "lattice.pair.calls_per_candidate": "ratio",
    "invariants.h2.calls": "count",
    "invariants.hK.calls": "count",
    "invariants.derived_invariants.us": "us",
    "invariants.embedding_sanity.us": "us",
    "ulrich.line_numeric_check.calls": "count",
    "ulrich.line_numeric_check.us": "us",
    "ulrich.rank_numeric_check.us": "us",
    "ulrich.special_rank2_chern.us": "us",
    "enumeration.enumerate_bounded.ms": "ms",
    "enumeration.box_points": "count",
    "enumeration.box_points_per_s": "1/s",
    "enumeration.candidates_checked": "count",
    "enumeration.candidate_ratio": "ratio",
    "enumeration.hit_ratio": "ratio",
    "enumeration.enumerate_rank2_exact.us": "us",
    "classify.classify.calls": "count",
    "classify.classify.us": "us",
    "setup.import_ms": "ms",
    "trace.overhead_rps": "1/s",
    "trace.overhead_share": "ratio",
}


def layer_metrics(times: dict, counts: dict, counters_all: dict, counters_pass: dict,
                  import_ms: float, rps_untraced: float, rps_traced: float,
                  reference: float) -> dict:
    """Per-layer metrics.

    ``times`` (a summary) and ``counters_all`` cover every traced pass and
    give the per-call means and rates; ``counts`` and ``counters_pass``
    cover the first traced pass only and give the counts, which therefore
    repeat exactly for a seed.  ``reference`` turns the spans' measured
    seconds into reference seconds (see ``speed.py``).
    """
    def mean(name, scale, key="total_s"):
        s = times[name]
        return _mean(s[key], s["calls"], scale * reference)

    def calls(name):
        return counts[name]["calls"]

    run = times["cli.run"]
    enum = times["enumeration.enumerate_bounded"]
    candidates = counts["ulrich.line_numeric_check"]["in_enumerate_bounded"]
    box_points = counters_pass.get("box_points", 0)
    return {
        "cli.run.self_ms": mean("cli.run", 1e3, "self_s"),
        "cli.build_parser.ms": mean("cli.build_parser", 1e3),
        "cli.build_parser.share": _ratio(times["cli.build_parser"]["total_s"], run["total_s"]),
        "catalog.builtin_surface.us": mean("catalog.builtin_surface", 1e6),
        "catalog.parse_surface.ms": mean("catalog.parse_surface", 1e3),
        "catalog.parse_surface.kb_per_s": _ratio(
            counters_all.get("parse_bytes", 0) / 1e3,
            times["catalog.parse_surface"]["total_s"] * reference),
        "catalog.serialize_surface.ms": mean("catalog.serialize_surface", 1e3),
        "catalog.verify_table1.ms": mean("catalog.verify_table1", 1e3),
        "lattice.make_lattice.ms": mean("lattice.make_lattice", 1e3),
        "lattice.make_lattice.self_ms": mean("lattice.make_lattice", 1e3, "self_s"),
        "lattice.pair.calls": calls("lattice.pair"),
        "lattice.pair.us": mean("lattice.pair", 1e6),
        "lattice.pair.calls_per_candidate": _ratio(
            counts["lattice.pair"]["in_enumerate_bounded"], candidates),
        "invariants.h2.calls": calls("invariants.h2"),
        "invariants.hK.calls": calls("invariants.hK"),
        "invariants.derived_invariants.us": mean("invariants.derived_invariants", 1e6),
        "invariants.embedding_sanity.us": mean("invariants.embedding_sanity", 1e6),
        "ulrich.line_numeric_check.calls": calls("ulrich.line_numeric_check"),
        "ulrich.line_numeric_check.us": mean("ulrich.line_numeric_check", 1e6),
        "ulrich.rank_numeric_check.us": mean("ulrich.rank_numeric_check", 1e6),
        "ulrich.special_rank2_chern.us": mean("ulrich.special_rank2_chern", 1e6),
        "enumeration.enumerate_bounded.ms": mean("enumeration.enumerate_bounded", 1e3),
        "enumeration.box_points": box_points,
        "enumeration.box_points_per_s": _ratio(
            counters_all.get("box_points", 0), enum["total_s"] * reference),
        "enumeration.candidates_checked": candidates,
        "enumeration.candidate_ratio": _ratio(candidates, box_points),
        "enumeration.hit_ratio": _ratio(counters_pass.get("box_solutions", 0), candidates),
        "enumeration.enumerate_rank2_exact.us": mean("enumeration.enumerate_rank2_exact", 1e6),
        "classify.classify.calls": calls("classify.classify"),
        "classify.classify.us": mean("classify.classify", 1e6),
        "setup.import_ms": import_ms,
        "trace.overhead_rps": rps_untraced - rps_traced,
        "trace.overhead_share": _ratio(rps_untraced - rps_traced, rps_untraced),
    }
