"""Span tracer installed from outside tilelab, for the traced run.

`from .x import y` copies the name into the importing module, so each
wrapper is installed at every binding site: the defining module, every
tilelab module whose namespace holds the same object, and the class for
methods.  Generators are timed per next(), not per call, so a span covers
the work of producing one item.  Spans live in flat arrays (name, parent,
query, start, end, wall clock) and are aggregated and written out after
the run; a span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (module, attribute or Class.method, span name, kind); kind "gen" times
# each next() of a generator.  cell_at and lcm_all are left out: they run
# once per cell or block and a wrapper would cost more than they do.
TARGETS = (
    ("tilelab.cli", "main", "cli.main", "call"),
    ("tilelab.cli", "parse_tileset", "cli.parse", "call"),
    ("tilelab.cli", "parse_presentation", "cli.parse", "call"),
    ("tilelab.core", "Pattern.__init__", "core.Pattern", "call"),
    ("tilelab.core", "TileSet.from_allowed", "core.TileSet.from_allowed", "call"),
    ("tilelab.core", "TileSet.transpose", "core.TileSet.transpose", "call"),
    ("tilelab.core", "check_torus", "core.check_torus", "call"),
    ("tilelab.lang", "iter_admissible_squares", "lang.iter_admissible_squares", "gen"),
    ("tilelab.lang", "admissible_squares", "lang.admissible_squares", "call"),
    ("tilelab.lang", "extensible_squares", "lang.extensible_squares", "call"),
    ("tilelab.lang", "build_transfer_graph", "lang.build_transfer_graph", "call"),
    ("tilelab.lang", "count_torus", "lang.count_torus", "call"),
    ("tilelab.solver", "refute", "solver.refute", "call"),
    ("tilelab.solver", "classify", "solver.classify", "call"),
    ("tilelab.solver", "enumerate_torus", "solver.enumerate_torus", "call"),
    ("tilelab.solver", "weak_periodic_witness", "solver.weak_periodic_witness", "call"),
    ("networkx", "simple_cycles", "networkx.simple_cycles", "gen"),
    ("networkx", "descendants", "networkx.descendants", "call"),
    ("networkx", "shortest_path", "networkx.shortest_path", "call"),
    ("networkx", "transitive_reduction", "networkx.transitive_reduction", "call"),
    ("tilelab.presentation", "rect_window_keys", "presentation.rect_window_keys", "call"),
    ("tilelab.presentation", "is_valid", "presentation.is_valid", "call"),
    ("tilelab.presentation", "period_lattice", "presentation.period_lattice", "call"),
    ("tilelab.presentation", "equal", "presentation.equal", "call"),
    ("tilelab.presentation", "shift", "presentation.shift", "call"),
    ("tilelab.presentation", "transpose", "presentation.transpose", "call"),
    ("tilelab.presentation", "type_of", "presentation.type_of", "call"),
    ("tilelab.presentation", "occurrences", "presentation.occurrences", "call"),
    ("tilelab.presentation", "pattern_set", "presentation.pattern_set", "call"),
    ("tilelab.order", "preceq", "order.preceq", "call"),
    ("tilelab.order", "TilingFamily.le", "order.le", "call"),
    ("tilelab.order", "equivalence_classes", "order.equivalence_classes", "call"),
    ("tilelab.order", "hasse", "order.hasse", "call"),
    ("tilelab.order", "minimal_classes", "order.minimal_classes", "call"),
    ("tilelab.order", "maximal_classes", "order.maximal_classes", "call"),
    ("tilelab.order", "level_of", "order.level_of", "call"),
    ("tilelab.cb", "ranks", "cb.ranks", "call"),
    ("tilelab.cb", "isolated_classes", "cb.isolated_classes", "call"),
    ("tilelab.cb", "isolating_pattern", "cb.isolating_pattern", "call"),
    ("tilelab.cb", "derivative", "cb.derivative", "call"),
)

MODULES = ("cli", "core", "lang", "solver", "networkx", "presentation", "order", "cb")


def _result_counts(name: str, res, counts: dict) -> None:
    """Per-call counters read off return values."""
    if name == "presentation.rect_window_keys":
        counts["presentation.rect_window_keys.keys_returned"] += len(res)
    elif name == "lang.build_transfer_graph":
        counts["lang.transfer_graph.vertices"] += len(res.vertices)
        counts["lang.transfer_graph.edges"] += len(res.edges)
    elif name == "solver.enumerate_torus":
        counts["solver.enumerate_torus.returned"] += len(res)
    elif name == "solver.weak_periodic_witness":
        counts["solver.weak_periodic_witness.found"] += res is not None
    elif name == "cb.isolating_pattern":
        counts["cb.isolating_pattern.found"] += res is not None


_YIELD_COUNTERS = {
    "lang.iter_admissible_squares": "lang.iter_admissible_squares.yielded",
    "networkx.simple_cycles": "solver.cycles_examined",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.current_query = -1
        self.counts: dict[str, int] = {k: 0 for k in (
            "presentation.rect_window_keys.keys_returned", "lang.transfer_graph.vertices",
            "lang.transfer_graph.edges", "solver.enumerate_torus.returned",
            "solver.weak_periodic_witness.found", "cb.isolating_pattern.found",
            *_YIELD_COUNTERS.values())}
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.t0)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.current_query)
        self.t1.append(0.0)
        self.stack.append(i)
        self.t0.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.t1[i] = perf_counter()
        self.stack.pop()

    def _wrap_call(self, fn, name: str):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(i)
            _result_counts(name, res, self.counts)
            return res

        return wrapper

    def _wrap_gen(self, fn, name: str):
        nid = self._id(name)
        counter = _YIELD_COUNTERS.get(name)
        tracer = self

        def steps(it):
            while True:
                i = tracer._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(i)
                if counter:
                    tracer.counts[counter] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        return wrapper

    def install(self) -> None:
        """Replace every binding of each target with its wrapper."""
        sites = [m for n, m in sys.modules.items() if n == "tilelab" or n.startswith("tilelab.")]
        wrapped: dict[int, object] = {}
        for modname, attr, name, kind in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                if isinstance(orig, classmethod):
                    new = classmethod(self._wrap_call(orig.__func__, name))
                else:
                    new = self._wrap_call(orig, name)
                self._undo.append((owner, meth, orig))
                setattr(owner, meth, new)
                continue
            orig = getattr(mod, attr)
            new = wrapped.setdefault(id(orig), (self._wrap_gen if kind == "gen" else self._wrap_call)(orig, name))
            for site in (mod, *sites):
                for key, value in list(vars(site).items()):
                    if value is orig:
                        self._undo.append((site, key, orig))
                        setattr(site, key, new)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def summary(self, passes: int) -> dict[str, float]:
        """Per-pass calls and self seconds per span name and per module,
        plus the counters and ratios named in BENCHMARK.json."""
        n = len(self.t0)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.t1[i] - self.t0[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += self.t1[i] - self.t0[i] - child[i]
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k] / passes
            out[f"{name}.self_s"] = self_s[k] / passes
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(
                s for name, s in zip(self.names, self_s) if name.split(".")[0] == mod) / passes
        for key, value in self.counts.items():
            out[key] = value / passes
        # a TilingFamily.le span with no preceq child was answered from the cache
        le, pq = self._ids.get("order.le"), self._ids.get("order.preceq")
        le_spans = [i for i in range(n) if self.name[i] == le]
        missed = {self.parent[i] for i in range(n) if self.name[i] == pq}
        out["order.le.hit_ratio"] = (
            sum(i not in missed for i in le_spans) / len(le_spans) if le_spans else 0.0)
        found = self.counts["cb.isolating_pattern.found"]
        ip = out.get("cb.isolating_pattern.calls", 0.0) * passes
        out["cb.isolating_pattern.found_ratio"] = found / ip if ip else 0.0
        out["cb.rounds"] = out.get("cb.isolated_classes.calls", 0.0)
        return out

    def write(self, path, first: int = 0) -> None:
        """Spans from index first on as TSV: index, parent, query, name,
        start, end (perf_counter seconds)."""
        with open(path, "w") as f:
            f.write("span\tparent\tquery\tname\tstart\tend\n")
            for i in range(first, len(self.t0)):
                f.write(f"{i}\t{self.parent[i]}\t{self.query[i]}\t{self.names[self.name[i]]}"
                        f"\t{self.t0[i]:.9f}\t{self.t1[i]:.9f}\n")
