"""Outside-in tracer for the ``totconn`` modules.

Nothing in the library is instrumented; the tracer patches it from the
outside.  The modules bind names with ``from .x import y``, so a wrapped
function is replaced at every attribute of every loaded module that
holds it (the library's and the benchmark's own), and methods are
replaced on their classes.  Each call records a span (name
id, parent span, start, end) in flat in-memory arrays, which ``dump``
writes out once the traced section is over.  Self time is computed
afterwards: a span's duration minus the durations of its direct
children, which lie inside it and do not overlap in this single-threaded
program.

What is wrapped:

* every public module-level function of every ``totconn`` module, under
  the span name ``<module>.<function>``, except generator functions (a
  span would close before the work is done) and the leaves in
  ``UNWRAPPED``, which are so small and so frequent that the wrapper
  would cost more than the body (their time counts as their caller's
  self time);
* the methods in ``METHODS``, which carry the per-layer metrics;
* ``PolyForm.__init__`` with a counter only, since constructions are
  too frequent for a span each.

Some spans get the shorter metric names of ``ALIASES``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = ("scalars", "signs", "linalg", "graded", "forms", "dupont",
           "structures", "transfer", "totalcomplex", "freelie",
           "convolution", "minimal", "connection", "pipeline")

# Leaf helpers called hundreds of thousands of times per workload.
UNWRAPPED = {"scalars.rat", "scalars.rat_str"}

METHODS = {
    "forms": {"PolyForm": ("wedge", "substitute")},
    "transfer": {"TransferredAlgebra": ("lam", "m")},
    "totalcomplex": {"TotalComplexAlgebra": ("m",),
                     "GroupCochain": ("wedge", "coface")},
    "freelie": {"EnvelopingQuotient": ("reduce",),
                "FiberLieAlgebra": ("normal_form",)},
    "linalg": {"Echelon": ("reduce", "insert")},
}

ALIASES = {
    "dupont.dupont_E": "dupont.E",
    "dupont.dupont_Int": "dupont.Int",
    "dupont.dupont_s": "dupont.s",
    "dupont.h_operator": "dupont.h",
    "forms.PolyForm.wedge": "forms.wedge",
    "forms.PolyForm.substitute": "forms.substitute",
    "transfer.TransferredAlgebra.lam": "transfer.lam",
    "transfer.TransferredAlgebra.m": "transfer.m",
    "totalcomplex.TotalComplexAlgebra.m": "totalcomplex.m",
    "totalcomplex.GroupCochain.wedge": "totalcomplex.wedge",
    "totalcomplex.GroupCochain.coface": "totalcomplex.coface",
    "totalcomplex.sigma_pushforward": "totalcomplex.pushforward",
    "totalcomplex.tot_product_degree1": "totalcomplex.closed_form",
    "freelie.EnvelopingQuotient.reduce": "freelie.env_reduce",
    "freelie.FiberLieAlgebra.normal_form": "freelie.normal_form",
    "linalg.Echelon.reduce": "linalg.reduce",
    "linalg.Echelon.insert": "linalg.insert",
}

CACHES = {"dupont.h": ("dupont", "h_operator")}


def _elem_key(e):
    return tuple(sorted(e.items()))


class Tracer:
    """Spans and counters for one traced section of one process."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = {}
        self._stack = [-1]
        self._distinct_m = set()
        self._cache_start = {}
        self._installed = []

    # -- installation ---------------------------------------------------
    def install(self):
        """Patch the library.  Call once, before the traced section."""
        modules = {name: importlib.import_module("totconn." + name)
                   for name in MODULES}
        replace = {}
        for mod_name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (mod_name, attr)
                if name in UNWRAPPED or inspect.isgeneratorfunction(obj):
                    continue
                replace[id(obj)] = (obj, self._span_wrapper(name, obj))
        for mod in list(sys.modules.values()):
            for attr, obj in list(getattr(mod, "__dict__", {}).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, obj, hit[1])
        for mod_name, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[mod_name], cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    name = "%s.%s.%s" % (mod_name, cls_name, meth)
                    self._patch(cls, meth, fn, self._span_wrapper(name, fn))
        self._add_observers(modules)
        for metric, (mod_name, attr) in CACHES.items():
            info = getattr(modules[mod_name], attr).cache_info
            self._cache_start[metric] = (info(), info)

    def _patch(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._installed.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._installed):
            setattr(owner, attr, old)
        self._installed.clear()

    def _name_id(self, name):
        name = ALIASES.get(name, name)
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span_wrapper(self, name, fn):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _count(self, key):
        self.counters[key] = self.counters.get(key, 0) + 1

    def _add_observers(self, modules):
        """Counters that need arguments or results, wrapped around the spans."""
        forms = modules["forms"]
        init = forms.PolyForm.__init__
        count = self._count

        def polyform_init(self_, *args, **kwargs):
            count("forms.PolyForm.calls")
            init(self_, *args, **kwargs)

        self._patch(forms.PolyForm, "__init__", init, polyform_init)

        echelon = modules["linalg"].Echelon
        insert = echelon.__dict__["insert"]  # already the span wrapper

        def echelon_insert(self_, vec):
            grew = insert(self_, vec)
            if grew:
                count("linalg.insert.useful")
            return grew

        self._patch(echelon, "insert", insert, echelon_insert)

        talg = modules["transfer"].TransferredAlgebra
        tm = talg.__dict__["m"]
        seen = self._distinct_m

        def transfer_m(self_, k, elems):
            seen.add((id(self_), k, tuple(_elem_key(e) for e in elems)))
            return tm(self_, k, elems)

        self._patch(talg, "m", tm, transfer_m)

    # -- results --------------------------------------------------------
    def layer_metrics(self, modules=MODULES):
        """{metric: value}: calls and self time per span name and per
        module, the counters, and the derived ratios."""
        _, selft = span_times(self.span_parent, self.span_start, self.span_end)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_s[nid] += selft[i]
        out = {}
        per_module = {m: 0.0 for m in modules}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = calls[nid]
            out[name + ".self_s"] = self_s[nid]
            per_module[name.split(".", 1)[0]] += self_s[nid]
        for m, s in per_module.items():
            out[m + ".self_s"] = s
        out["forms.PolyForm.calls"] = self.counters.get("forms.PolyForm.calls", 0)
        inserts = out.get("linalg.insert.calls", 0)
        out["linalg.insert.useful_ratio"] = (
            self.counters.get("linalg.insert.useful", 0) / inserts if inserts else 0.0)
        tcalls = out.get("transfer.m.calls", 0)
        out["transfer.m.distinct_ratio"] = (
            len(self._distinct_m) / tcalls if tcalls else 0.0)
        for metric, (start, info_fn) in self._cache_start.items():
            end = info_fn()
            hits = end.hits - start.hits
            lookups = hits + end.misses - start.misses
            out[metric + ".hit_ratio"] = hits / lookups if lookups else 0.0
        return out

    def dump(self, path):
        """Write every span as gzip-compressed JSON."""
        data = {"names": self.names, "fields": ["name", "parent", "start", "end"],
                "name": self.span_name.tolist(), "parent": self.span_parent.tolist(),
                "start": self.span_start.tolist(), "end": self.span_end.tolist()}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh)


def span_times(parents, starts, ends):
    """Per-span (inclusive, self) durations, in span order."""
    n = len(parents)
    incl = [ends[i] - starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += incl[i]
    return incl, [incl[i] - child[i] for i in range(n)]


def load_spans(path):
    """Read a span file written by ``Tracer.dump``."""
    with gzip.open(path, "rt") as fh:
        return json.load(fh)
