"""Per-layer tracing from outside the program.

`Tracer.install()` rebinds the public functions and methods listed in
`TARGETS` to timing wrappers.  A function is rebound in every `finrep`
module namespace that holds it, under whatever name it was imported, so
`naturality.compose`, `hor.under` and `kleene.intern` are all wrapped
along with `rel.compose` itself; methods are rebound on their classes.
`uninstall()` puts every original back.

Each timed wrapper records one span: its duration, and the part of it
covered by nested spans, so self time = duration - covered part.
Constructors and small helpers (`Rel.__init__`, `FiniteSet.__init__`,
`intern`, `graph`, `cograph`) are only counted, so their time stays in
the self time of the span that called them.  Spans
are folded into per-name totals as they close (calls, total time, self
time, plus a few counts taken at the same boundary), which keeps memory
flat however many tiny relations a workload builds.

`per_layer(stats)` turns the totals into the named per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time
from collections import OrderedDict

# (module, attribute path) of every traced callable; "Class.method" paths
# are rebound on the class
TARGETS = [
    ("finrep.cli", "main"),
    ("finrep.report", "render"),
    ("finrep.document", "parse_document"),
    ("finrep.rel", "compose"),
    ("finrep.rel", "under"),
    ("finrep.rel", "star"),
    ("finrep.rel", "is_included"),
    ("finrep.rel", "graph"),
    ("finrep.rel", "cograph"),
    ("finrep.rel", "Rel.__init__"),
    ("finrep.fset", "intern"),
    ("finrep.fset", "FiniteSet.__init__"),
    ("finrep.functors", "enumerate_terms"),
    ("finrep.functors", "TermFunctor.lift"),
    ("finrep.functors", "ListFunctor.lift"),
    ("finrep.functors", "PowersetFunctor.lift"),
    ("finrep.functors", "TermFunctor.fmap"),
    ("finrep.functors", "ListFunctor.fmap"),
    ("finrep.functors", "PowersetFunctor.fmap"),
    ("finrep.laws", "relation_law_suite"),
    ("finrep.naturality", "ProbeUniverse.functions"),
    ("finrep.naturality", "ProbeUniverse.relations_between"),
    ("finrep.naturality", "IndexedRelation.rel_at"),
    ("finrep.naturality", "IndexedFunction.func_at"),
    ("finrep.naturality", "classify_linearity"),
    ("finrep.naturality", "check_functor_laws"),
    ("finrep.naturality", "is_natural_relation"),
    ("finrep.represent", "validate_representation"),
    ("finrep.represent", "is_exact"),
    ("finrep.morphism", "validate_morphism"),
    ("finrep.reduction", "validate_reduction"),
    ("finrep.hor", "instantiate"),
    ("finrep.hor", "tilde_lift"),
    ("finrep.hor", "hat_lift"),
    ("finrep.kleene", "language_table"),
    ("finrep.kleene", "ka_semantic_exactness"),
    ("finrep.kleene", "ka_completeness_report"),
    ("finrep.kleene", "RegexFunctor.carrier"),
]

# generator methods: counted per yielded item, not timed
_GENERATORS = {"ProbeUniverse.functions", "ProbeUniverse.relations_between"}
# constructors and helpers that are counted but open no span, so their
# time stays in the caller's self time (a carrier build is the carrier's)
_UNTIMED = {"Rel.__init__", "FiniteSet.__init__", "intern", "graph", "cograph"}

_GRAPH_MEMORY = 4096


def span_name(module: str, path: str) -> str:
    return module.removeprefix("finrep.") + "." + path


class Stat:
    __slots__ = ("calls", "total", "self", "count")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.count = 0.0     # a per-name tally: cells, misses, items, bytes ...

    def as_list(self):
        return [self.calls, self.total, self.self, self.count]


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._covered: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self._graphs: OrderedDict[int, object] = OrderedDict()
        self.graph_operand_calls = 0
        self.lang_hits = 0
        self.intern_misses = 0
        self.intern_build_s = 0.0
        self.elements_built = 0

    # ------------------------------------------------------------ spans

    def _stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _timed(self, name: str, fn, before=None, after=None):
        st = self._stat(name)
        covered = self._covered

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            note = None
            if before is not None:
                args, kwargs, note = before(args, kwargs)
            covered.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = covered.pop()
                if covered:
                    covered[-1] += dt
                st.calls += 1
                st.total += dt
                st.self += dt - inner
            if after is not None:
                after(st, args, out, note, dt)
            return out

        wrapper.__perfbench_traced__ = True
        return wrapper

    def _untimed(self, name: str, fn, before=None, after=None):
        st = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            note = None
            if before is not None:
                args, kwargs, note = before(args, kwargs)
            st.calls += 1
            out = fn(*args, **kwargs)
            if after is not None:
                after(st, args, out, note, 0.0)
            return out

        wrapper.__perfbench_traced__ = True
        return wrapper

    def _counted(self, name: str, fn):
        st = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            for item in fn(*args, **kwargs):
                st.count += 1
                yield item

        wrapper.__perfbench_traced__ = True
        return wrapper

    # ------------------------------------------------ per-target counts

    def _hooks(self, name: str):
        """(before, after) callbacks that take counts at the boundary."""
        if name in ("rel.graph", "rel.cograph"):
            def after(st, args, out, note, dt):
                self._graphs[id(out)] = out
                if len(self._graphs) > _GRAPH_MEMORY:
                    self._graphs.popitem(last=False)
            return None, after
        if name == "rel.compose":
            def after(st, args, out, note, dt):
                x, y = args[0], args[1]
                st.count += len(x.src) * len(x.tgt) * len(y.tgt)
                if self._graphs.get(id(x)) is x or self._graphs.get(id(y)) is y:
                    self.graph_operand_calls += 1
            return None, after
        if name == "rel.under":
            def after(st, args, out, note, dt):
                x, z = args[0], args[1]
                st.count += len(x.tgt) * len(z.tgt) * len(x.src)
            return None, after
        if name == "fset.intern":
            # a miss is a call that runs its build callback
            def before(args, kwargs):
                inner = kwargs["build"] if "build" in kwargs else args[1]

                def build():
                    self.intern_misses += 1
                    t0 = time.perf_counter()
                    try:
                        return inner()
                    finally:
                        self.intern_build_s += time.perf_counter() - t0

                if "build" in kwargs:
                    return args, dict(kwargs, build=build), None
                return (args[0], build) + args[2:], kwargs, None
            return before, None
        if name == "fset.FiniteSet.__init__":
            def after(st, args, out, note, dt):
                self.elements_built += len(args[0].elements)
            return None, after
        if name.startswith("functors.") and name.endswith(".lift"):
            def after(st, args, out, note, dt):
                st.count += out.m.size
            return None, after
        if name == "document.parse_document":
            def after(st, args, out, note, dt):
                st.count += len(args[0].encode("utf-8"))
            return None, after
        if name == "laws.relation_law_suite":
            def after(st, args, out, note, dt):
                for v in out.verdicts:
                    m = re.match(r"(\d+) (instances|samples)", v.note)
                    if m:
                        st.count += int(m.group(1))
            return None, after
        if name == "kleene.language_table":
            # a hit is a call that never asks for the expression carrier
            carrier = self._stat("kleene.RegexFunctor.carrier")

            def before(args, kwargs):
                return args, kwargs, carrier.calls

            def after(st, args, out, note, dt):
                if carrier.calls == note:
                    self.lang_hits += 1
            return before, after
        if name == "kleene.ka_semantic_exactness":
            def after(st, args, out, note, dt):
                m = re.match(r"(\d+) expressions, (\d+) words", out.note)
                if m:
                    n, w = int(m.group(1)), int(m.group(2))
                    st.count += n * n * w
            return None, after
        return None, None

    # -------------------------------------------------- install / undo

    def install(self):
        for module, path in TARGETS:
            mod = importlib.import_module(module)
            name = span_name(module, path)
            owner, attr = mod, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
            orig = owner.__dict__[attr]
            if path in _GENERATORS:
                wrapped = self._counted(name, orig)
            elif path in _UNTIMED:
                wrapped = self._untimed(name, orig, *self._hooks(name))
            else:
                wrapped = self._timed(name, orig, *self._hooks(name))
            if owner is mod:
                for m in finrep_modules():
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, key, orig))
                            setattr(m, key, wrapped)
            else:
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ---------------------------------------------------------- export

    def snapshot(self) -> dict:
        return {
            "stats": {k: v.as_list() for k, v in self.stats.items()},
            "graph_operand_calls": self.graph_operand_calls,
            "lang_hits": self.lang_hits,
            "intern_misses": self.intern_misses,
            "intern_build_s": self.intern_build_s,
            "elements_built": self.elements_built,
        }


def finrep_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "finrep" or k.startswith("finrep."))]


def unwrapped_bindings() -> list[str]:
    """Module attributes that still hold an original traced function.

    Meant to be called with a tracer installed: anything listed escaped
    the rebinding, for example a stale `from .rel import compose` kept
    under another name in a container.
    """
    originals = {}
    for module, path in TARGETS:
        if "." in path:
            continue
        fn = getattr(importlib.import_module(module), path)
        orig = getattr(fn, "__wrapped__", fn)
        originals[id(orig)] = span_name(module, path)
    left = []
    for m in finrep_modules():
        for key, val in vars(m).items():
            if id(val) in originals and not getattr(val, "__perfbench_traced__", False):
                left.append(f"{m.__name__}.{key} ({originals[id(val)]})")
    return left


# ------------------------------------------------------------- merging

def merge(snapshots: list[dict]) -> dict:
    out = {"stats": {}, "graph_operand_calls": 0, "lang_hits": 0,
           "intern_misses": 0, "intern_build_s": 0.0, "elements_built": 0}
    for snap in snapshots:
        for k, v in snap["stats"].items():
            acc = out["stats"].setdefault(k, [0, 0.0, 0.0, 0.0])
            for i in range(4):
                acc[i] += v[i]
        for k in ("graph_operand_calls", "lang_hits", "intern_misses",
                  "intern_build_s", "elements_built"):
            out[k] += snap[k]
    return out


def self_time_total(snap: dict) -> float:
    return sum(v[2] for v in snap["stats"].values())


def per_layer(snap: dict, import_s: float, wall_traced: float, wall_untraced: float) -> dict:
    """Named per-layer metrics from merged span totals."""
    s = snap["stats"]

    def get(name, i):
        v = s.get(name)
        return v[i] if v else 0

    calls = lambda n: get(n, 0)          # noqa: E731
    total = lambda n: get(n, 1)          # noqa: E731
    self_s = lambda n: get(n, 2)         # noqa: E731
    count = lambda n: get(n, 3)          # noqa: E731

    def ratio(a, b):
        return a / b if b else 0.0

    lift_names = [f"functors.{c}.lift" for c in ("TermFunctor", "ListFunctor", "PowersetFunctor")]
    fmap_names = [f"functors.{c}.fmap" for c in ("TermFunctor", "ListFunctor", "PowersetFunctor")]
    m = {
        "cli.import_s": (import_s, "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "report.render.self_s": (self_s("report.render"), "s"),
        "document.parse_document.self_s": (self_s("document.parse_document"), "s"),
        "document.parse_document.mb_per_s": (
            ratio(count("document.parse_document") / 1e6, total("document.parse_document")), "MB/s"),
    }
    for op in ("compose", "under"):
        m[f"rel.{op}.calls"] = (calls(f"rel.{op}"), "count")
        m[f"rel.{op}.self_s"] = (self_s(f"rel.{op}"), "s")
        m[f"rel.{op}.cells"] = (count(f"rel.{op}"), "count")
    m["rel.compose.graph_operand_calls"] = (snap["graph_operand_calls"], "count")
    for op in ("star", "is_included"):
        m[f"rel.{op}.calls"] = (calls(f"rel.{op}"), "count")
        m[f"rel.{op}.self_s"] = (self_s(f"rel.{op}"), "s")
    m["rel.Rel.init.calls"] = (calls("rel.Rel.__init__"), "count")
    intern_calls = calls("fset.intern")
    m["fset.intern.calls"] = (intern_calls, "count")
    m["fset.intern.misses"] = (snap["intern_misses"], "count")
    m["fset.intern.hit_ratio"] = (ratio(intern_calls - snap["intern_misses"], intern_calls), "ratio")
    m["fset.intern.build_s"] = (snap["intern_build_s"], "s")
    m["fset.elements_built"] = (snap["elements_built"], "count")
    for n in lift_names:
        m[f"{n}.calls"] = (calls(n), "count")
        m[f"{n}.self_s"] = (self_s(n), "s")
    m["functors.lift.cells"] = (sum(count(n) for n in lift_names), "count")
    m["functors.fmap.self_s"] = (sum(self_s(n) for n in fmap_names), "s")
    m["functors.enumerate_terms.self_s"] = (self_s("functors.enumerate_terms"), "s")
    m["laws.relation_law_suite.self_s"] = (self_s("laws.relation_law_suite"), "s")
    m["laws.instances_per_s"] = (
        ratio(count("laws.relation_law_suite"), total("laws.relation_law_suite")), "1/s")
    m["naturality.probe_relations"] = (count("naturality.ProbeUniverse.relations_between"), "count")
    m["naturality.probe_functions"] = (count("naturality.ProbeUniverse.functions"), "count")
    fam = ("naturality.IndexedRelation.rel_at", "naturality.IndexedFunction.func_at")
    m["naturality.family_at.calls"] = (sum(calls(n) for n in fam), "count")
    m["naturality.family_at.self_s"] = (sum(self_s(n) for n in fam), "s")
    for n in ("classify_linearity", "check_functor_laws", "is_natural_relation"):
        m[f"naturality.{n}.self_s"] = (self_s(f"naturality.{n}"), "s")
    for n in ("represent.validate_representation", "represent.is_exact",
              "morphism.validate_morphism", "reduction.validate_reduction",
              "hor.instantiate", "hor.tilde_lift", "hor.hat_lift"):
        m[f"{n}.self_s"] = (self_s(n), "s")
    lt = calls("kleene.language_table")
    m["kleene.language_table.self_s"] = (self_s("kleene.language_table"), "s")
    m["kleene.language_table.hit_ratio"] = (ratio(snap["lang_hits"], lt), "ratio")
    m["kleene.ka_semantic_exactness.self_s"] = (self_s("kleene.ka_semantic_exactness"), "s")
    m["kleene.ka_semantic_exactness.cells"] = (count("kleene.ka_semantic_exactness"), "count")
    m["kleene.ka_completeness_report.self_s"] = (self_s("kleene.ka_completeness_report"), "s")
    m["kleene.RegexFunctor.carrier.self_s"] = (self_s("kleene.RegexFunctor.carrier"), "s")
    m["trace.overhead_frac"] = (ratio(wall_traced - wall_untraced, wall_untraced), "ratio")
    return m
