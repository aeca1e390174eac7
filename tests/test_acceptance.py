"""Acceptance suite: the eight exit criteria, all at exact tolerance.

Each test prints one pass/fail line; run with `pytest -s
tests/test_acceptance.py` to see the report.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb, factorial

from totconn.connection import (AutomorphyFactor, ConnectionForm, GaugeElement,
                                automorphy_from_gauge,
                                conjugation_compatibility, equivariance_defect,
                                flatness_check, form_dvar, form_var, gauge,
                                gauge_compose_check, holonomy, parse_loop)
from totconn.convolution import (ConvolutionAlgebra, Generators, mc_check,
                                 mc_to_morphism, morphism_to_mc)
from totconn.dupont import elementary_form, verify_naturality, verify_stokes
from totconn.forms import integrate_over_simplex, simplex_monomials
from totconn.freelie import (EMPTY, EnvelopingQuotient, FiberLieAlgebra,
                             FreeLie, LieIdealPresentation, commutator)
from totconn.minimal import (check_comparison, compare_models,
                             model_fiber_data, one_minimal_model)
from totconn.pipeline import (compare_pipeline_models, heisenberg_window,
                              run_pipeline, torus_window)
from totconn.scalars import bernoulli
from totconn.structures import check_linfty, check_stasheff, delta_apply
from totconn.totalcomplex import (GroupCochain, GroupCochainBackend,
                                  TotalComplexAlgebra, TotElement,
                                  tot_product_degree1,
                                  tot_product_degree1_with_scalar,
                                  tot_window_cohomology)
from totconn.transfer import dupont_contraction, nc_structure
from totconn.signs import shuffle_product, word
from tests.test_convolution import torus_inclusion

SEED = 20260810


def report(name, ok, extra=""):
    print("[%s] criterion %s%s" % ("PASS" if ok else "FAIL", name,
                                   " -- " + extra if extra else ""))
    assert ok, name


def test_criterion_1_dupont_contraction():
    t0 = time.time()
    ok = True
    for n in (0, 1, 2, 3):
        ok = ok and dupont_contraction(n).verify_side_conditions(
            simplex_monomials(n, 4)) == []
    ok = ok and verify_stokes(3, max_poly_deg=4) == []
    for n in (1, 2, 3):
        ok = ok and verify_naturality(n, max_poly_deg=4) == []
    elapsed = time.time() - t0
    report("1 (contraction identities, n <= 3, degree <= 4)",
           ok and elapsed < 30, "%.1fs" % elapsed)


def test_criterion_2_interval_products():
    res = nc_structure(1, 6)
    alg = res.algebra
    t = {(0, "v1"): Fraction(1)}
    dt = alg.m(1, [t])
    dtk = (1, "L01")
    ok = alg.m(2, [t, t]) == t
    # Bernoulli values pinned by the independent recurrence oracle
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    for n in range(1, 6):
        got = alg.m(n + 1, [t] + [dt] * n)
        want = bernoulli(n) / factorial(n)
        ok = ok and got.get(dtk, Fraction(0)) == want and set(got) <= {dtk}
    # binomial symmetry (calibrated, sign-free form)
    for n in range(1, 5):
        base = alg.m(n + 1, [t] + [dt] * n)
        for i in range(n + 1):
            got = alg.m(n + 1, [dt] * i + [t] + [dt] * (n - i))
            ok = ok and got == {kk: comb(n, i) * c for kk, c in base.items()}
    # all other products vanish, exhaustively to arity 6
    alg.materialize(6)
    one = (0, "1")
    for k in range(2, 7):
        for wrd, val in alg.maps.get(k, {}).items():
            if one in wrd:
                ok = ok and k == 2
                continue
            n_t = wrd.count((0, "v1"))
            if k == 2 and n_t == 2:
                continue
            ok = ok and n_t == 1 and set(val) == {dtk}
    report("2 (interval products: Bernoulli family, symmetry, vanishing)", ok)


def test_criterion_3_triangle_products():
    res = nc_structure(2, 4)
    alg = res.algebra
    L01 = {(1, "L01"): Fraction(1)}
    L02 = {(1, "L02"): Fraction(1)}
    L12 = {(1, "L12"): Fraction(1)}
    lam = {(2, "L012"): Fraction(1, 6)}
    ok = (alg.m(2, [L01, L02]) == lam and alg.m(2, [L01, L12]) == lam
          and alg.m(2, [L02, L12]) == lam)
    # the independent integral route
    integral = integrate_over_simplex(
        elementary_form((0, 1), 2).wedge(elementary_form((0, 2), 2)), 2)
    ok = ok and integral == Fraction(1, 6)
    report("3 (triangle products 1/6, independent integral)", ok)


def _random_degree1(be, rng):
    m = be.m
    nv1 = 2 * m
    terms = {}
    for _ in range(2):
        exps = [0] * nv1
        exps[m + rng.randrange(m)] = rng.randint(1, 2)
        if rng.random() < 0.5:
            exps[rng.randrange(m)] = rng.randint(0, 1)
        terms[(tuple(exps), ())] = Fraction(rng.randint(-2, 2))
    b = GroupCochain(m, 1, _pf(nv1, terms, m))
    cterms = {}
    for _ in range(2):
        exps = [0] * m
        exps[rng.randrange(m)] = rng.randint(0, 1)
        cterms[(tuple(exps), (rng.randrange(m),))] = Fraction(rng.randint(-2, 2))
    c = GroupCochain(m, 0, _pf(m, cterms, m))
    comps = {}
    if not b.is_zero():
        comps[(1, 0)] = b
    if not c.is_zero():
        comps[(0, 1)] = c
    return TotElement(be, comps)


def _pf(nv, terms, m):
    from totconn.forms import PolyForm
    return PolyForm(nv, terms, varname="z", ndiff=m)


def test_criterion_4_closed_form_oracle():
    rng = random.Random(SEED)
    count = 0
    ok = True
    for m in (1, 2):
        be = GroupCochainBackend(m)
        alg = TotalComplexAlgebra(be, level_cap=2, arity_cap=5)
        for l in (2, 3, 4, 5):
            trials = 25 if l < 5 else 13
            for _ in range(trials):
                elems = [_random_degree1(be, rng) for _ in range(l)]
                got = alg.m(l, elems)
                closed = tot_product_degree1(alg, elems)
                ok = ok and closed == got
                # the (0,2) component vanishes for l > 2
                if l > 2:
                    ok = ok and be.is_zero(got.component(0, 2))
                count += 1
        # degree-0 cases of the binary closed form
        x = TotElement(be, {(0, 0): GroupCochain.from_form(
            m, _pf(m, {((1,) + (0,) * (m - 1), ()): Fraction(1)}, m))})
        for _ in range(13):
            a = _random_degree1(be, rng)
            got = alg.m(2, [a, x])
            want = tot_product_degree1_with_scalar(
                alg, [a], x.component(0, 0), 1)
            ok = ok and got == want
            count += 1
    report("4 (closed forms agree with the general product)", ok,
           "%d probe tuples" % count)


def _shuffle_defect(alg, elems, p):
    entries = tuple((i, alg.degree(e) - 1) for i, e in enumerate(elems))
    total = alg.zero()
    for sh_word, coeff in shuffle_product(word(*entries[:p]),
                                          word(*entries[p:])).items():
        perm_elems = [elems[lab] for lab, _ in sh_word]
        degs = [alg.degree(e) for e in perm_elems]
        total = alg.add(total, delta_apply(alg, len(elems), perm_elems, degs),
                        coeff)
    return total


def test_criterion_5_structure_coherence():
    rng = random.Random(SEED + 1)
    be = GroupCochainBackend(1)
    alg = TotalComplexAlgebra(be, level_cap=3, arity_cap=4)
    x1 = TotElement(be, {(0, 0): GroupCochain.from_form(
        1, _pf(1, {((1,), ()): Fraction(1)}, 1))})
    c1 = TotElement(be, {(0, 1): GroupCochain.from_form(
        1, _pf(1, {((0,), (0,)): Fraction(1)}, 1))})
    b1 = TotElement(be, {(1, 0): GroupCochain(1, 1, _pf(
        2, {((0, 1), ()): Fraction(1)}, 1))})
    probes = []
    for n in (2, 3, 4):
        probes.extend(itertools.product([x1, c1, b1], repeat=n))
    ok = check_stasheff(alg, probes) == []
    for n in (2, 3):
        for elems in itertools.product([x1, c1, b1], repeat=n):
            for p in range(1, n):
                defect = _shuffle_defect(alg, list(elems), p)
                ok = ok and alg.is_zero(defect)
    # convolution skew relations on >= 100 seeded probes, word length <= 4
    W, B, incl = torus_inclusion()
    gens = Generators(W.space)
    conv = ConvolutionAlgebra(gens, B, W, trunc=4)
    samples = []
    bkeys = B.space.keys()
    for deg in (0, 1, 1, 2, 0, 1, 1, 0, 2):
        data = {}
        for w in gens.words(3):
            tgt = deg + gens.word_degree(w)
            options = [k for k in bkeys if k[0] == tgt]
            if options and rng.random() < 0.55:
                data[tuple(w)] = {rng.choice(options): Fraction(rng.randint(-2, 2))}
        s = conv.series(deg, data)
        if not s.is_zero():
            samples.append(s)
    probes2 = []
    for n in (2, 3):
        probes2.extend(itertools.combinations_with_replacement(samples, n))
    probes2 = probes2[:120]
    ok = ok and len(probes2) >= 100
    ok = ok and check_linfty(conv, [list(p) for p in probes2]) == []
    # the dictionary roundtrips
    alpha = morphism_to_mc(incl, gens, trunc=4)
    ok = ok and mc_check(alpha, W) == []
    back = mc_to_morphism(alpha, W)
    again = morphism_to_mc(back, gens, trunc=4)
    ok = ok and again.eq(alpha)
    # window cohomology of the circle backend
    betti = tot_window_cohomology(GroupCochainBackend(1), max_degree=1,
                                  level_cap=2, poly_cap=2)
    ok = ok and betti == {0: 1, 1: 1}
    report("5 (total-complex and convolution coherence)", ok,
           "%d skew probes" % len(probes2))


def test_criterion_6_worked_geometries():
    ok = True
    # circle
    r = run_pipeline("circle", trunc=4, arity_cap=4)
    ok = ok and r.dims_per_k == {2: 1, 3: 1, 4: 1}
    ok = ok and r.certificate.flat
    for n, loop in ((1, "a"), (3, "a a a")):
        th = r.theta[loop]
        for w, c in th.items():
            ok = ok and c == Fraction(n ** len(w)) / factorial(len(w))
    # torus
    r = run_pipeline("torus", trunc=4, arity_cap=4)
    ok = ok and r.dims_per_k == {2: 2, 3: 2, 4: 2}
    gens_ideal = r.fib.ideal.generators
    ok = ok and len(gens_ideal) == 1
    want = commutator(r.fib.free.gen(0), r.fib.free.gen(1), 4)
    g = gens_ideal[0]
    ok = ok and (g == want or g == {k: -v for k, v in want.items()})
    ok = ok and r.env.eq(r.theta["a b a- b-"], {EMPTY: Fraction(1)})
    ok = ok and r.certificate.flat
    # the nilpotent window
    r = run_pipeline("heisenberg", trunc=4, arity_cap=4)
    ok = ok and r.fib.graded_dims() == {1: 2, 2: 1}
    ok = ok and r.dims_per_k[3] == 3 and r.dims_per_k[4] == 3
    ok = ok and r.verdict == "homogeneous generators"
    report("6 (worked geometries)", ok)


def test_criterion_7_gauge_and_automorphy():
    rng = random.Random(SEED + 2)
    ok = True
    # gauge group-action law at truncation 4 on the nilpotent quotient
    free = FreeLie(["X", "Y"], 4)
    g1 = commutator(free.gen(0), commutator(free.gen(0), free.gen(1), 4), 4)
    g2 = commutator(free.gen(1), commutator(free.gen(1), free.gen(0), 4), 4)
    ideal = LieIdealPresentation(free, [g1, g2])
    fib = FiberLieAlgebra(free, ideal, 4)
    env = EnvelopingQuotient(free, ideal, 4)
    x, y = form_var(2, 0), form_var(2, 1)
    dx, dy = form_dvar(2, 0), form_dvar(2, 1)
    half = (x.wedge(dy) - y.wedge(dx)).scale(Fraction(-1, 2))
    alpha = ConnectionForm(2, fib, {(0,): dx, (1,): dy, (0, 1): half})

    def rnd_poly():
        from totconn.forms import PolyForm
        out = PolyForm.zero(2, varname="x", ndiff=2)
        for _ in range(2):
            e1, e2 = rng.randint(0, 1), rng.randint(0, 1)
            out = out + PolyForm(2, {((e1, e2), ()): Fraction(rng.randint(-2, 2))},
                                 varname="x", ndiff=2)
        return out

    for _ in range(3):
        h1 = GaugeElement(2, fib, {(0,): rnd_poly(), (1,): rnd_poly()})
        h2 = GaugeElement(2, fib, {(0,): rnd_poly(), (0, 1): rnd_poly()})
        ok = ok and gauge_compose_check(alpha, h1, h2).is_zero()
        ok = ok and flatness_check(gauge(alpha, h1)).flat
    # cocycle identity on >= 50 sampled pairs (rank-1 synthetic gauge)
    free1 = FreeLie(["X"], 4)
    ideal1 = LieIdealPresentation(free1, [])
    fib1 = FiberLieAlgebra(free1, ideal1, 4)
    env1 = EnvelopingQuotient(free1, ideal1, 4)
    h = GaugeElement(1, fib1, {(0,): form_var(1, 0)})
    pairs = [((rng.randint(-3, 3),), (rng.randint(-3, 3),)) for _ in range(50)]
    F = automorphy_from_gauge(h, env1, samples=pairs)
    # equivariance of the gauged connection
    alpha1 = ConnectionForm(1, fib1, {(0,): form_dvar(1, 0)})
    alpha2 = gauge(alpha1, h)
    for g in [(1,), (2,), (-1,)]:
        ok = ok and equivariance_defect(alpha2, F, g) == {}
    # holonomy conjugation for two independently built models of one input
    _, _, _, rep = compare_pipeline_models("torus", trunc=4, k=4,
                                           pivots=("lex", "revlex"))
    ok = ok and rep["comparison_failures"] == []
    ok = ok and rep["holonomy_conjugation_failures"] == []
    # and with a synthetic nonzero gauge on the rank-1 example
    F1 = AutomorphyFactor(GaugeElement(1, fib1, {}), env1)
    F2 = automorphy_from_gauge(h, env1, samples=pairs[:5])
    p = (Fraction(1, 2),)
    loops = {"a": parse_loop("a", 1), "a a": parse_loop("a a", 1)}
    th1 = {k: holonomy(alpha1, F1, lp, p, env1) for k, lp in loops.items()}
    th2 = {k: holonomy(alpha2, F2, lp, p, env1) for k, lp in loops.items()}
    h_at_p = h.at_point(p)
    fails = conjugation_compatibility(th1, th2, h_at_p, env1)
    ok = ok and fails == []
    report("7 (gauge action, cocycles, conjugated holonomy)", ok)


def test_criterion_8_model_independence():
    ok = True
    # torus: permuted-pivot models
    B = torus_window()
    m1 = one_minimal_model(B, arity_cap=4, pivot="lex")
    m2 = one_minimal_model(B, arity_cap=4, pivot="revlex")
    comp = compare_models(m1, m2, arity_cap=3)
    ok = ok and check_comparison(comp, model_fiber_data(m1, trunc=4, k=4),
                                 model_fiber_data(m2, trunc=4, k=4)) == []
    for k in (2, 3, 4):
        d1 = model_fiber_data(m1, trunc=4, k=k).dim()
        d2 = model_fiber_data(m2, trunc=4, k=k).dim()
        ok = ok and d1 == d2
    # nilpotent window: genuinely different Hodge data
    B = heisenberg_window()
    m1 = one_minimal_model(B, arity_cap=4, pivot="lex")
    m2 = one_minimal_model(B, arity_cap=4, pivot="shear")
    ok = ok and m1.transfer.contraction.tag != ""
    comp = compare_models(m1, m2, arity_cap=4)
    ok = ok and check_comparison(comp, model_fiber_data(m1, trunc=4, k=4),
                                 model_fiber_data(m2, trunc=4, k=4)) == []
    for k in (2, 3, 4):
        d1 = model_fiber_data(m1, trunc=4, k=k).dim()
        d2 = model_fiber_data(m2, trunc=4, k=k).dim()
        ok = ok and d1 == d2
    report("8 (model independence and comparison)", ok)
