"""Spans around the calls into dgcat, recorded from outside the package.

``Tracer.install`` wraps every public function of the dgcat modules at
every module binding that holds the same function object (``from .x
import f`` copies the binding), plus the hot methods listed in
``METHODS`` on their class.  Each call records a span (name, start, end,
parent) in flat arrays; a generator function gets one span per step, so
the rows it yields are timed apart from the solve that consumes them.
Self time is a span's duration minus the time its child spans cover.

Field arithmetic is not traced: its calls are too many and too short,
so a wrapper there would swamp every other layer's self time.  It is
counted in a separate pass by ``count_field_ops``.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import inspect
import json
import time

MODULES = (
    "bimodule",
    "category",
    "cli",
    "comma",
    "complexes",
    "fixtures",
    "functors",
    "graded",
    "io_json",
    "lambda_cat",
    "linalg",
    "report",
    "shipped",
)

# Methods worth a span of their own, by module, class and name.
METHODS = (
    ("bimodule", "GModule", "encode"),
    ("bimodule", "GModule", "decode"),
    ("category", "DgCategoryPresentation", "compose_basis"),
    ("comma", "CommaObject", "dot"),
    ("complexes", "HomComplex", "encode"),
    ("complexes", "HomComplex", "decode"),
    ("functors", "DgFunctor", "map_of"),
    ("functors", "DgFunctor", "map_of_basis"),
    ("graded", "GradedMap", "__init__"),
    ("graded", "GradedMap", "compose"),
    ("report", "Report", "render"),
)

# Small value helpers called once per matrix block; a span each would
# cost more than the work, so their time counts in the caller's span.
SKIP = frozenset(
    f"linalg.{name}"
    for name in (
        "freeze",
        "zeros",
        "identity",
        "shape",
        "is_zero_matrix",
        "is_zero_vector",
        "mat_add",
        "mat_scale",
        "mat_neg",
        "mat_vec",
        "vec_add",
        "vec_sub",
        "vec_scale",
    )
)

FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = []
        self.solves = []
        self.bytes = {"parse": 0, "emit": 0}
        self._restore = []

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, nid):
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _steps(self, gen, nid):
        while True:
            idx = self._open(nid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx)
            yield item

    def wrap(self, fn, name):
        nid = self._name_id(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._steps(fn(*args, **kwargs), nid)

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = self._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)

        return traced

    # -- wrappers that also record sizes ------------------------------------

    def _wrap_solve_linear(self, fn):
        rows_nid = self._name_id("linalg.solve_linear.rows")

        def counted(constraints, record):
            for row in self._steps(iter(constraints), rows_nid):
                record["rows_in"] += 1
                record["nonzeros"] += sum(1 for v in row.values() if v != 0)
                yield row

        def solve_linear(field, unknowns, constraints):
            unknowns = list(unknowns)
            record = {"unknowns": len(unknowns), "rows_in": 0, "nonzeros": 0,
                      "rows_kept": 0}
            self.solves.append(record)
            solutions = fn(field, unknowns, counted(constraints, record))
            record["nullity"] = len(solutions)
            return solutions

        return self.wrap(solve_linear, "linalg.solve_linear")

    def _wrap_nullspace(self, fn):
        solve_nid = self.names.index("linalg.solve_linear")

        def nullspace(field, mat, ncols=None):
            if len(self.stack) > 1 and self.name_of[self.stack[-2]] == solve_nid:
                self.solves[-1]["rows_kept"] = len(mat)
            return fn(field, mat, ncols)

        return self.wrap(nullspace, "linalg.nullspace")

    def _wrap_bytes(self, fn, name, key, measure):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.bytes[key] += len(measure(args, result))
            return result

        return self.wrap(counted, name)

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap dgcat in place; ``uninstall`` puts every binding back."""
        modules = {m: importlib.import_module(f"dgcat.{m}") for m in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                if name in SKIP or name == "linalg.nullspace":
                    continue
                if name == "linalg.solve_linear":
                    wrappers[obj] = self._wrap_solve_linear(obj)
                elif name == "io_json.parse_text":
                    wrappers[obj] = self._wrap_bytes(
                        obj, name, "parse", lambda args, _: args[0]
                    )
                elif name == "io_json.render_document":
                    wrappers[obj] = self._wrap_bytes(
                        obj, name, "emit", lambda _, result: result
                    )
                else:
                    wrappers[obj] = self.wrap(obj, name)
        nullspace = modules["linalg"].nullspace
        wrappers[nullspace] = self._wrap_nullspace(nullspace)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        for short, cls_name, attr in METHODS:
            cls = getattr(modules[short], cls_name)
            self._patch(
                cls, attr, self.wrap(getattr(cls, attr), f"{short}.{cls_name}.{attr}")
            )

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def span_count(self):
        return len(self.start)

    def totals(self, first, stop):
        """name -> [calls, self seconds] over the spans first..stop-1."""
        covered = [0.0] * (stop - first)
        start, end, parent = self.start, self.end, self.parent
        for i in range(first, stop):
            p = parent[i]
            if p >= first:
                covered[p - first] += end[i] - start[i]
        out = {}
        for i in range(first, stop):
            entry = out.setdefault(self.names[self.name_of[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += end[i] - start[i] - covered[i - first]
        return out

    def write(self, path):
        """All spans as gzipped JSON lines: the names, then one
        [name, parent, start, end] row per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump({"names": self.names}, handle)
            handle.write("\n")
            for i in range(len(self.start)):
                handle.write(
                    f"[{self.name_of[i]},{self.parent[i]},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f}]\n"
                )


def count_field_ops(run):
    """Call ``run()`` with every field operation counted; returns the counts."""
    from dgcat.fields import PrimeField, Rationals

    counts = dict.fromkeys(FIELD_OPS, 0)
    saved = []
    for cls in (Rationals, PrimeField):
        for op in FIELD_OPS:
            original = getattr(cls, op)
            saved.append((cls, op, original))

            def counted(*args, _f=original, _op=op):
                counts[_op] += 1
                return _f(*args)

            setattr(cls, op, counted)
    try:
        run()
    finally:
        for cls, op, original in saved:
            setattr(cls, op, original)
    return counts
