"""Span tracer for the benchmark's traced runs.

The program is not modified.  `Tracer.install` replaces each traced public
function of `magmaexp` in every module namespace that holds it (the module
that defines it and each module that imported it), and wraps the
`TreeSeries` methods on the class.  A call therefore opens a span whether it
comes from the benchmark or from another layer inside an unmodified
`run_verification` or `cli.main`.  A direct recursive call (a function that
calls itself through its module global) opens no new span.

Spans live in flat arrays while the run lasts and are written out at the
end.  Each span has a name, a start, an end, a parent span (-1 at the top of
an op) and the id of the op it belongs to.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from array import array
from time import perf_counter

# module -> public functions that get spans; TreeSeries methods are below
TRACED = {
    "trees": ("enumerate_trees", "graft", "canonical_rank", "parse", "render"),
    "exponential": (
        "exp_series", "a_coefficient", "a_hat", "a_hat_product",
        "a_hat_recursion_check", "coefficient_rows",
    ),
    "verify": ("run_verification",),
    "omega": ("omega", "omega_factorization", "omega_valuation", "convolution_term"),
    "mersenne": ("mersenne_factorial", "mersenne_binomial", "gaussian_binomial_at_2"),
    "orders": (
        "factor_mersenne", "pi_m", "wieferich_search", "mersenne_valuation",
        "order_record",
    ),
    "primes": ("is_prime", "factorize", "primes_up_to"),
    "cli": ("main",),
}
# span name -> TreeSeries attribute
SERIES_METHODS = {
    "mul": "__mul__", "derivative": "derivative", "dilate": "dilate", "eq": "__eq__",
    "sub": "__sub__", "truncate": "truncate", "terms": "terms",
    "to_text": "to_text", "from_text": "from_text",
}
# lru caches whose cache_info() gives the hit and miss counts
CACHES = ("exponential.a_coefficient", "exponential.a_hat", "orders.order_record")
MODULES = tuple(TRACED) + ("series",)


def cache_counts() -> dict[str, int]:
    """Current hits and misses of every cache in CACHES, by metric name."""
    out = {}
    for name in CACHES:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"magmaexp.{module}"), attr)
        while not hasattr(fn, "cache_info"):  # a traced wrapper
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[f"{name}.hits"] = info.hits
        out[f"{name}.misses"] = info.misses
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts: dict[str, int] = {}
        self.active = False
        self.op_id = -1
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append((i, name))
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def add_span(self, name: str, start: float, end: float, parent: int) -> int:
        """Append a finished span (used to merge spans from a child process)."""
        i = self._open(name)
        self._stack.pop()
        self.start[i] = start
        self.end[i] = end
        self.parent[i] = parent
        return i

    def wrap(self, name: str, fn, after=None):
        """`fn` with a span named `name`; `after(result)` runs inside the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or (tracer._stack and tracer._stack[-1][1] == name):
                return fn(*args, **kwargs)
            i = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(result)
                return result
            finally:
                tracer._close(i)

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"magmaexp.{m}") for m in MODULES}
        after = {"verify.run_verification": self._count_failed_checks}
        replacement = {}
        for module, names in TRACED.items():
            for attr in names:
                name = f"{module}.{attr}"
                fn = getattr(mods[module], attr)
                replacement[id(fn)] = self.wrap(name, fn, after=after.get(name))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replacement:
                    self._patch(mod, attr, replacement[id(value)])
        self._wrap_series(mods["series"].TreeSeries)

    def _wrap_series(self, cls) -> None:
        original_terms = cls.terms
        tracer = self

        def mul(fn):
            inner = self.wrap("series.mul", fn)

            @functools.wraps(fn)
            def traced_mul(a, b):
                if tracer.active and isinstance(b, cls):
                    # computed, not observed: the all-pairs product visits
                    # |a|*|b| pairs, of which those with degree sum <= N are
                    # useful; counting runs outside every span
                    tracer.active = False
                    da = _degree_histogram(original_terms(a))
                    db = _degree_histogram(original_terms(b))
                    tracer.active = True
                    tracer.count("series.mul.pairs_visited", sum(da.values()) * sum(db.values()))
                    tracer.count("series.mul.pairs_useful", sum(
                        ca * cb for x, ca in da.items() for y, cb in db.items()
                        if x + y <= a.truncation))
                return inner(a, b)

            return traced_mul

        for span, attr in SERIES_METHODS.items():
            raw = vars(cls)[attr]
            name = f"series.{span}"
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            elif span == "terms":
                # terms() is a generator: the span covers producing every term
                new = _eager(self.wrap(name, lambda s, _f=raw: list(_f(s))))
            elif span == "to_text":
                new = self.wrap(name, raw, after=self._count_text_bytes)
            elif span == "mul":
                new = mul(raw)
            else:
                new = self.wrap(name, raw)
            self._patch(cls, attr, new)

    def _count_failed_checks(self, results):
        self.count("verify.checks_failed", sum(not r.passed for r in results))
        return results

    def _count_text_bytes(self, text: str) -> str:
        self.count("series.to_text.bytes", len(text.encode()))
        return text

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = self._child_time()
        out: dict[str, dict[str, float]] = {}
        for i, nid in enumerate(self.name_id):
            agg = out.setdefault(self.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = self.end[i] - self.start[i]
            agg["calls"] += 1
            agg["s"] += duration
            agg["self_s"] += duration - child[i]
        return out

    def self_time_by_op(self) -> dict[int, float]:
        """Sum of the self times of every span, per op."""
        child = self._child_time()
        out: dict[int, float] = {}
        for i, op in enumerate(self.op):
            out[op] = out.get(op, 0.0) + self.end[i] - self.start[i] - child[i]
        return out

    def _child_time(self) -> list[float]:
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return child

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON, one list per field, index = span."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump({"names": self.names, "name_id": self.name_id.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist(),
                       "parent": self.parent.tolist(), "op": self.op.tolist()}, f)


def _degree_histogram(terms) -> dict[int, int]:
    hist: dict[int, int] = {}
    for t, _ in terms:
        hist[t.degree] = hist.get(t.degree, 0) + 1
    return hist


def _eager(list_terms):
    def terms(self):
        yield from list_terms(self)
    return functools.wraps(list_terms)(terms)
