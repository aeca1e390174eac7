"""End-to-end runs: algebra window -> model -> fiber -> connection -> holonomy.

The worked geometries are the translation actions of Z on R and Z^2 on
R^2 (invariant-form windows) and the three-dimensional nilpotent algebra
window with its non-vanishing triple products.  Each run produces the
minimal model, the fiber quotient dimensions, the formality verdict and,
when the preset declares an ambient dimension m, the flat connection with
its certificate and a holonomy table for the declared loops.  The
connection comes from the model series pushed through the strict
inclusion of the window into level 0 of Tot_N for Z^m acting on R^m
(``tot_inclusion``): it is the level-0 one-form part of that series.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .connection import (AutomorphyFactor, ConnectionForm, GaugeElement,
                         conjugation_compatibility, flatness_check, fv_map,
                         gauge_between, holonomy, parse_loop,
                         restrict_connection)
from .convolution import TensorSeries, degree_zero_restrict
from .forms import PolyForm, _merge_dts
from .freelie import EnvelopingQuotient, bracket_label, word_labels
from .graded import GradedVectorSpace
from .linalg import accumulate
from .minimal import (check_comparison, compare_models, formality_check,
                      massey_json, model_fiber_data, model_mc,
                      one_minimal_model, positive_part)
from .structures import FiniteAlgebra, InfinityMorphism
from .totalcomplex import (GroupCochain, GroupCochainBackend,
                           TotalComplexAlgebra, TotElement)


# ---------------------------------------------------------------------
# preset algebra windows
# ---------------------------------------------------------------------

def exterior_cdga(gen_names, rel_diff=None, arity_cap=4) -> FiniteAlgebra:
    """Exterior algebra on degree-1 generators with an optional d-table.

    ``rel_diff`` maps a generator name to a sorted-index word naming its
    differential (e.g. {"e3": "e1e2"}).
    """
    gens = list(gen_names)
    idx = {g: i for i, g in enumerate(gens)}
    words = []
    for r in range(len(gens) + 1):
        for combo in itertools.combinations(range(len(gens)), r):
            words.append(combo)

    def name_of(combo):
        if not combo:
            return "1"
        return "".join(gens[i] for i in combo)

    degrees = {}
    for combo in words:
        degrees.setdefault(len(combo), []).append(name_of(combo))
    space = GradedVectorSpace(degrees)
    unit = (0, "1")

    def key_of(combo):
        return (len(combo), name_of(combo))

    prod = {}
    for ca in words:
        for cb in words:
            merged, sign = _merge_dts(ca, cb)
            if sign:
                prod[(key_of(ca), key_of(cb))] = {key_of(merged): Fraction(sign)}
    diff = {}
    if rel_diff:
        base = {}
        for g, target in rel_diff.items():
            combo = tuple(sorted(idx[t] for t in _split_word(target, gens)))
            base[idx[g]] = combo
        # extend by the graded Leibniz rule
        def leibniz(combo):
            for pos, i in enumerate(combo):
                if i in base:
                    merged, sign = _merge_dts(base[i], combo[:pos] + combo[pos + 1:])
                    if sign:
                        yield key_of(merged), Fraction(-sign if pos % 2 else sign)

        for combo in words:
            acc = accumulate({}, leibniz(combo))
            if acc:
                diff[key_of(combo)] = acc
    return FiniteAlgebra.from_dga(space, diff, prod, kind="Cinf",
                                  arity_cap=arity_cap, unit_key=unit)


def _split_word(word, gens):
    out = []
    rest = word
    while rest:
        for g in sorted(gens, key=len, reverse=True):
            if rest.startswith(g):
                out.append(g)
                rest = rest[len(g):]
                break
        else:
            raise ValueError("cannot parse generator word %r" % (word,))
    return out


def circle_window(arity_cap=4):
    return exterior_cdga(["dx"], arity_cap=arity_cap)


def torus_window(arity_cap=4):
    return exterior_cdga(["dx", "dy"], arity_cap=arity_cap)


def heisenberg_window(arity_cap=4):
    return exterior_cdga(["e1", "e2", "e3"], rel_diff={"e3": "e1e2"},
                         arity_cap=arity_cap)


PRESETS = {
    "circle": {
        "window": circle_window,
        "ambient_dim": 1,
        "loops": ["a", "a a", "a a a"],
    },
    "torus": {
        "window": torus_window,
        "ambient_dim": 2,
        "loops": ["a", "b", "a b", "a b a- b-"],
    },
    "heisenberg": {
        "window": heisenberg_window,
        "ambient_dim": None,
        "loops": [],
    },
}


def tot_inclusion(B: FiniteAlgebra, m, arity_cap) -> InfinityMorphism:
    """The strict inclusion of an exterior window into level 0 of Tot_N
    for Z^m acting on R^m: generator j goes to dx_j, a product key to the
    wedge of its generators.  The window's differential must be zero."""
    tot = TotalComplexAlgebra(GroupCochainBackend(m), arity_cap=arity_cap)
    gens = B.space.degrees[1]
    table = {}
    for d, name in B.space.keys():
        form = PolyForm.one(m, varname="z", ndiff=m)
        for g in _split_word(name, gens) if d else ():
            form = form.wedge(PolyForm.dvar(m, gens.index(g), varname="z", ndiff=m))
        table[((d, name),)] = TotElement(tot.backend, {(0, d): GroupCochain(m, 0, form)})
    return InfinityMorphism(B, tot, tables={1: table})


class PipelineResult:
    """One run's model, fiber and formality verdict; ``run_pipeline``
    sets ``connection``, ``certificate``, ``theta`` (the holonomy table)
    and ``env`` when the input has a geometric realization."""

    def __init__(self, name, model, fib, verdict, meta):
        self.name = name
        self.model = model
        self.fib = fib
        self.verdict = verdict
        self.meta = meta
        self.connection = None
        self.certificate = None
        self.theta = None
        self.env = None
        self.dims_per_k = fib.dims_per_k()

    def to_json(self):
        names = self.fib.free.gen_names
        out = {
            "name": self.name,
            "model": self.model.algebra.to_json(),
            "massey": massey_json(self.model),
            "fiber": {
                "graded_dims": {str(k): v for k, v in
                                sorted(self.fib.graded_dims().items())},
                "dims_per_k": {str(k): v for k, v in sorted(self.dims_per_k.items())},
                "basis": [bracket_label(w, names) for w in self.fib.basis],
            },
            "formality": {"verdict": self.verdict,
                          "generator_lengths": self.meta["generator_lengths"],
                          "sufficient_condition": self.meta["sufficient_condition"]},
        }
        if self.connection is not None:
            out["connection"] = {
                "coefficients": {bracket_label(w, names): f.to_json()
                                 for w, f in sorted(self.connection.coeffs.items())},
                "flat": bool(self.certificate and self.certificate.flat),
            }
        if self.theta is not None:
            out["holonomy"] = {loop: word_labels(val, names)
                               for loop, val in sorted(self.theta.items())}
        return out


def run_pipeline(name, trunc=4, arity_cap=4, pivot="lex", k=None) -> PipelineResult:
    """Full run for a preset name or a FiniteAlgebra window.

    A custom window, or a preset without an ``ambient_dim``, gets no
    connection.  ``k`` (default ``trunc``) is the order of the fiber
    quotient and of the enveloping quotient; it may not exceed ``trunc``,
    the truncation of the free Lie algebra that both are built over.
    """
    if isinstance(name, str):
        if name not in PRESETS:
            raise ValueError("unknown preset %r" % (name,))
        preset = PRESETS[name]
        B = preset["window"](arity_cap)
        label = name
    else:
        preset = {"ambient_dim": None, "loops": []}
        B = name
        label = "custom"
    k = trunc if k is None else k
    if k > trunc:
        raise ValueError("run_pipeline: k = %d exceeds trunc = %d" % (k, trunc))
    model = one_minimal_model(B, arity_cap=arity_cap, pivot=pivot)
    fib = model_fiber_data(model, trunc=trunc, k=k)
    verdict, meta = formality_check(model, fib.ideal)
    result = PipelineResult(label, model, fib, verdict, meta)
    m = preset["ambient_dim"]
    if m is not None:
        pi_alpha = degree_zero_restrict(model_mc(model, trunc=trunc))
        include = tot_inclusion(B, m, trunc)
        tot_alpha = TensorSeries(pi_alpha.gens, include.target, trunc, 1,
                                 {w: include.apply(1, [v])
                                  for w, v in pi_alpha.data.items()})
        env = EnvelopingQuotient(fib.free, fib.ideal, k)
        conn = restrict_connection(tot_alpha, positive_part(model.algebra),
                                   fib, env)
        cert = flatness_check(conn)
        F = AutomorphyFactor(GaugeElement(m, fib, {}), env)
        theta = {}
        for loop_text in preset["loops"]:
            loop = parse_loop(loop_text, m)
            value = holonomy(conn, F, loop, (0,) * m, env)
            if not env.is_grouplike(value):
                raise RuntimeError("holonomy value is not grouplike: %r"
                                   % (loop_text,))
            theta[loop_text] = value
        result.connection = conn
        result.certificate = cert
        result.theta = theta
        result.env = env
    return result


def compare_pipeline_models(name, trunc=4, k=4, pivots=("lex", "revlex"),
                            arity_cap=4):
    """Two independently built models of one input, with the comparison,
    the connecting gauge and the holonomy conjugation identity."""
    r1 = run_pipeline(name, trunc=trunc, arity_cap=arity_cap, pivot=pivots[0], k=k)
    r2 = run_pipeline(name, trunc=trunc, arity_cap=arity_cap, pivot=pivots[1], k=k)
    comp = compare_models(r1.model, r2.model, arity_cap=min(arity_cap, 4))
    comp_failures = check_comparison(comp, r1.fib, r2.fib)
    report = {
        "dims_match": r1.fib.dim() == r2.fib.dim(),
        "dims_per_k_match": r1.dims_per_k == r2.dims_per_k,
        "comparison_failures": comp_failures,
    }
    if r1.connection is not None and r2.connection is not None:
        # transport the first connection through the dual comparison and
        # find the connecting gauge on the second fiber
        mapped = _map_connection(r1.connection, comp.dual_series, r2.fib)
        h = gauge_between(mapped, r2.connection)
        p = (0,) * r1.connection.m
        h_at_p = h.at_point(p)
        mapped_theta = {loop: r2.env.reduce(comp.dual_series(val))
                        for loop, val in r1.theta.items()}
        fails = conjugation_compatibility(mapped_theta, r2.theta, h_at_p, r2.env)
        report["holonomy_conjugation_failures"] = fails
        report["gauge_nonzero"] = not h.is_zero()
    return r1, r2, comp, report


def _map_connection(conn: ConnectionForm, dual_map, fib2) -> ConnectionForm:
    """``conn`` pushed through ``dual_map`` on tensor words into ``fib2``."""
    free = conn.fib.free

    def to_fib2(vec):
        return fib2.normal_form(dual_map(free.from_lyndon(vec)))
    return ConnectionForm(conn.m, fib2, fv_map(conn.coeffs, to_fib2, conn.m))
