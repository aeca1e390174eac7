"""The four benchmark workloads: seeded inputs, the work, and its checks.

Every workload draws its inputs from ``--seed`` with its own generator
(nothing here imports the test suite).  Where a workload has seeded
inputs, the seed picks items from a fixed pool that is itself generated
from ``POOL_SEED``; the committed reference file holds one digest per
pool item, so every operation of every seed is checked against the
output of the library as it was when the benchmark was defined, and the
seed only changes which items run and in what order.  Per-seed work
stays nearly constant because every pool item of a stratum has the same
shape (term count, exponent pattern, path length, denominator set).

``prepare(name, size_name, seed)`` returns ``(prepared, execute)``:
``prepared`` is built during set-up, and ``execute(prepared)`` is the
timed section.  It returns one ``(op_id, digest, problem)`` triple per
operation, where ``problem`` is ``None`` when the exact checks passed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import traceback
from fractions import Fraction

from totconn.connection import (AutomorphyFactor, ConnectionForm,
                                GaugeElement, PLPath, flatness_check,
                                form_dvar, form_var, holonomy, parse_loop,
                                transport)
from totconn.forms import PolyForm
from totconn.freelie import (EnvelopingQuotient, FiberLieAlgebra, FreeLie,
                             LieIdealPresentation, commutator)
from totconn.pipeline import compare_pipeline_models, run_pipeline
from totconn.totalcomplex import (GroupCochain, GroupCochainBackend,
                                  TotalComplexAlgebra, TotElement,
                                  tot_product_degree1)
from totconn.transfer import nc_space, nc_structure

POOL_SEED = 20171213
POOL_PER_STRATUM = 12

# Input sizes per workload: "full" is what the benchmark times, "smoke" is
# the small size the benchmark's own self-test runs.
SIZES = {
    "nc-simplex": {"full": ((2, 4), (3, 3)), "smoke": ((1, 4), (2, 3), (3, 2))},
    "tot-degree1": {"full": {"ranks": (1, 2), "arities": (2, 3, 4, 5), "per": 3},
                    "smoke": {"ranks": (1, 2), "arities": (2, 3), "per": 1}},
    "pipeline": {"full": {"torus_trunc": 6, "compare_trunc": 4},
                 "smoke": {"torus_trunc": 4, "compare_trunc": 3}},
    "holonomy": {"full": {"order": 5, "loops": 24, "paths": 24},
                 "smoke": {"order": 3, "loops": 2, "paths": 2}},
}

HOLONOMY_STEPS = 12
HOLONOMY_POOL = 96
PATH_DENOMINATORS = (2, 3)
PATH_NUMERATOR_RANGE = 6


def digest(obj) -> str:
    """SHA-256 of a canonical JSON rendering (Fractions as strings)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _guarded(op_ids, compute):
    """``compute()``'s triples; if it raises, every op in ``op_ids`` fails."""
    try:
        return compute()
    except Exception as exc:  # an operation that raises counts as failed
        problem = "raised " + traceback.format_exception_only(exc)[-1].strip()
        return [(op_id, None, problem) for op_id in op_ids]


def _sorted_items(vec):
    return sorted(([list(k) if isinstance(k, tuple) else k, str(c)]
                   for k, c in vec.items()), key=repr)


# ---------------------------------------------------------------------
# nc-simplex: eager materialization of the transferred simplex structures
# ---------------------------------------------------------------------

def _nc_prepare(size, seed):
    """The seed fixes the order in which the structure tables are filled.

    Every table entry is computed exactly once whatever the order, so the
    output and the amount of work do not depend on the seed.
    """
    rng = random.Random(seed)
    plan = []
    for n, arity in size:
        space_keys = nc_space(n).keys()
        words = [(k, w) for k in range(2, arity + 1)
                 for w in itertools.product(space_keys, repeat=k)]
        rng.shuffle(words)
        plan.append((n, arity, words))
    return plan


def _nc_structure_tables(n, arity, words):
    alg = nc_structure(n, arity).algebra
    for k, w in words:
        alg.m(k, [{key: Fraction(1)} for key in w])
    alg.materialize(arity)
    data = alg.to_json()
    problem = None
    if n == 2:
        sixth = {(2, "L012"): Fraction(1, 6)}
        if alg.m(2, [{(1, "L01"): Fraction(1)}, {(1, "L02"): Fraction(1)}]) != sixth:
            problem = "triangle product is not 1/6"
    results = []
    for k in range(1, arity + 1):
        table = data["maps"].get(str(k), [])
        if k == 1:
            table = {"space": data["space"], "kind": data["kind"],
                     "unit": data.get("unit"), "m1": table}
        results.append(("n%d.m%d" % (n, k), digest(table), problem))
    return results


def _nc_execute(plan):
    results = []
    for n, arity, words in plan:
        op_ids = ["n%d.m%d" % (n, k) for k in range(1, arity + 1)]
        results += _guarded(op_ids, lambda: _nc_structure_tables(n, arity, words))
    return results


# ---------------------------------------------------------------------
# tot-degree1: products of degree-one elements of the total complex
# ---------------------------------------------------------------------

def _pf(nvars, terms, m):
    return PolyForm(nvars, terms, varname="z", ndiff=m)


def _nonzero_coeff(rng):
    return Fraction(rng.choice((-2, -1, 1, 2)))


def degree_one_element(be, rng):
    """b + c with b in bidegree (1,0) and c in (0,1).

    The shape is fixed per rank (b: g x, plus g^2 on rank 1 where a
    single term makes most products vanish; c: dx and x dx), so every
    element of a rank costs about the same and the seed changes only
    which variables appear and the nonzero coefficients.  Every b term
    carries a group variable, which keeps the element normalized.
    """
    m = be.m
    exps = [0] * (2 * m)
    exps[m + rng.randrange(m)] = 1
    exps[rng.randrange(m)] = 1
    b_terms = {(tuple(exps), ()): _nonzero_coeff(rng)}
    if m == 1:
        b_terms[((0, 2), ())] = _nonzero_coeff(rng)
    b = GroupCochain(m, 1, _pf(2 * m, b_terms, m))
    c1 = ((0,) * m, (rng.randrange(m),))
    e2 = [0] * m
    e2[rng.randrange(m)] = 1
    c2 = (tuple(e2), (rng.randrange(m),))
    c = GroupCochain(m, 0, _pf(m, {c1: _nonzero_coeff(rng),
                                   c2: _nonzero_coeff(rng)}, m))
    return TotElement(be, {(1, 0): b, (0, 1): c})


def tot_pool(ranks, arities):
    """{(rank, arity): [tuple of elements] * POOL_PER_STRATUM}."""
    rng = random.Random(POOL_SEED)
    pool = {}
    for m in (1, 2):
        be = GroupCochainBackend(m)
        for l in (2, 3, 4, 5):
            items = [[degree_one_element(be, rng) for _ in range(l)]
                     for _ in range(POOL_PER_STRATUM)]
            if m in ranks and l in arities:
                pool[(m, l)] = items
    return pool


def _tot_digest(v: TotElement):
    return digest([[p, q, _sorted_items(val.form.terms)]
                   for (p, q), val in sorted(v.components.items())])


def _tot_prepare(size, seed):
    rng = random.Random(seed)
    pool = tot_pool(size["ranks"], size["arities"])
    picks = []
    for (m, l), items in sorted(pool.items()):
        for idx in sorted(rng.sample(range(len(items)), size["per"])):
            picks.append(("r%d.l%d.p%02d" % (m, l, idx), m, l, items[idx]))
    rng.shuffle(picks)
    algebras = {m: TotalComplexAlgebra(GroupCochainBackend(m), level_cap=2,
                                       arity_cap=5) for m in size["ranks"]}
    return algebras, picks


def _tot_execute(prepared):
    algebras, picks = prepared
    results = []
    for op_id, m, l, elems in picks:
        def one():
            alg = algebras[m]
            got = alg.m(l, elems)
            problem = None
            if tot_product_degree1(alg, elems) != got:
                problem = "general product differs from the closed form"
            elif l > 2 and not alg.backend.is_zero(got.component(0, 2)):
                problem = "(0,2) component does not vanish"
            return [(op_id, _tot_digest(got), problem)]
        results += _guarded([op_id], one)
    return results


# ---------------------------------------------------------------------
# pipeline: window -> minimal model -> connection -> holonomy
# ---------------------------------------------------------------------

def _pipeline_prepare(size, seed):
    """The pipeline runs on fixed presets: the seed changes nothing."""
    return size


def _report_json(report):
    return {k: repr(v) if not isinstance(v, (bool, int, str)) else v
            for k, v in report.items()}


def _torus(trunc):
    r = run_pipeline("torus", trunc=trunc, k=trunc)
    problem = None
    if r.certificate is None or not r.certificate.flat:
        problem = "torus connection is not flat"
    elif not all(r.env.is_grouplike(v) for v in r.theta.values()):
        problem = "torus holonomy is not grouplike"
    return [("torus.t%d" % trunc, digest(r.to_json()), problem)]


def _heisenberg_comparison(trunc):
    r1, r2, _, report = compare_pipeline_models(
        "heisenberg", trunc=trunc, k=trunc, pivots=("lex", "shear"))
    problem = None
    if not (report["dims_match"] and report["dims_per_k_match"]
            and not report["comparison_failures"]
            and not report.get("holonomy_conjugation_failures")):
        problem = "model comparison report is not clean"
    data = {"first": r1.to_json(), "second": r2.to_json(),
            "comparison": _report_json(report)}
    return [("heisenberg.t%d" % trunc, digest(data), problem)]


def _pipeline_execute(size):
    t, c = size["torus_trunc"], size["compare_trunc"]
    return (_guarded(["torus.t%d" % t], lambda: _torus(t))
            + _guarded(["heisenberg.t%d" % c], lambda: _heisenberg_comparison(c)))


# ---------------------------------------------------------------------
# holonomy: transport of the flat nilpotent connection
# ---------------------------------------------------------------------

def nilpotent_connection(order):
    """The flat connection dx X + dy Y - 1/2 (x dy - y dx) [X, Y] on the
    rank-2 quotient by [X,[X,Y]] and [Y,[Y,X]]."""
    free = FreeLie(["X", "Y"], order)
    g1 = commutator(free.gen(0), commutator(free.gen(0), free.gen(1), order), order)
    g2 = commutator(free.gen(1), commutator(free.gen(1), free.gen(0), order), order)
    ideal = LieIdealPresentation(free, [g1, g2])
    fib = FiberLieAlgebra(free, ideal, order)
    env = EnvelopingQuotient(free, ideal, order)
    x, y = form_var(2, 0), form_var(2, 1)
    dx, dy = form_dvar(2, 0), form_dvar(2, 1)
    half = (x.wedge(dy) - y.wedge(dx)).scale(Fraction(-1, 2))
    alpha = ConnectionForm(2, fib, {(0,): dx, (1,): dy, (0, 1): half})
    return alpha, fib, env


def _rational(rng):
    return Fraction(rng.randint(-PATH_NUMERATOR_RANGE, PATH_NUMERATOR_RANGE),
                    rng.choice(PATH_DENOMINATORS))


def holonomy_pool():
    """Loops (deck words of fixed length with a rational basepoint) and
    PL paths (fixed vertex count), all coordinates from one small set of
    denominators."""
    rng = random.Random(POOL_SEED)
    loops = [(" ".join(rng.choice(("a", "b", "a-", "b-"))
                       for _ in range(HOLONOMY_STEPS)),
              (_rational(rng), _rational(rng))) for _ in range(HOLONOMY_POOL)]
    paths = [[(_rational(rng), _rational(rng)) for _ in range(HOLONOMY_STEPS)]
             for _ in range(HOLONOMY_POOL)]
    return loops, paths


def _series_digest(t):
    return digest(_sorted_items(t))


def _holonomy_prepare(size, seed):
    rng = random.Random(seed)
    alpha, fib, env = nilpotent_connection(size["order"])
    loops, paths = holonomy_pool()
    prefix = "o%d." % size["order"]
    ops = [(prefix + "loop.p%02d" % i, "loop", loops[i])
           for i in sorted(rng.sample(range(len(loops)), size["loops"]))]
    ops += [(prefix + "path.p%02d" % i, "path", PLPath(paths[i]))
            for i in sorted(rng.sample(range(len(paths)), size["paths"]))]
    rng.shuffle(ops)
    F = AutomorphyFactor(GaugeElement(2, fib, {}), env)
    return alpha, env, F, ops


def _holonomy_execute(prepared):
    alpha, env, F, ops = prepared
    if not flatness_check(alpha).flat:
        return [(op_id, None, "connection is not flat") for op_id, _, _ in ops]
    results = []
    for op_id, kind, item in ops:
        def one():
            if kind == "loop":
                text, basepoint = item
                value = holonomy(alpha, F, parse_loop(text, 2), basepoint, env)
            else:
                value = transport(alpha, item, env)
            problem = None if env.is_grouplike(value) else "result is not grouplike"
            return [(op_id, _series_digest(value), problem)]
        results += _guarded([op_id], one)
    return results


_TABLE = {
    "nc-simplex": (_nc_prepare, _nc_execute),
    "tot-degree1": (_tot_prepare, _tot_execute),
    "pipeline": (_pipeline_prepare, _pipeline_execute),
    "holonomy": (_holonomy_prepare, _holonomy_execute),
}


def prepare(name, size_name, seed):
    prep, execute = _TABLE[name]
    return prep(SIZES[name][size_name], seed), execute


def all_reference_ops(name, size_name):
    """Set-up that runs every pool item once, for writing reference digests."""
    size = SIZES[name][size_name]
    if name == "tot-degree1":
        size = dict(size, per=POOL_PER_STRATUM)
    elif name == "holonomy":
        size = dict(size, loops=HOLONOMY_POOL, paths=HOLONOMY_POOL)
    prep, execute = _TABLE[name]
    return prep(size, 0), execute
