import functools
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totconn.forms import PolyForm
from totconn.linalg import Echelon
from totconn.signs import perm_sign, sorted_image
from totconn import totalcomplex
from totconn.structures import check_stasheff
from totconn.totalcomplex import (GroupCochain, GroupCochainBackend,
                                  LevelCapError, TotalComplexAlgebra,
                                  TotElement, _nc_top_coefficient,
                                  partial_tilde, sigma_pushforward,
                                  tot_differential, tot_product_degree1,
                                  tot_product_degree1_with_scalar,
                                  tot_window_cohomology, window_basis)
from totconn.transfer import transfer_structure
from tests.test_transfer import plain_dupont

GOLDEN = Path(__file__).parent / "golden"


def circle_backend():
    return GroupCochainBackend(1)


def x_form(be, m=1, j=0):
    """The coordinate function x_j as a (0,0) cochain."""
    return GroupCochain.from_form(m, PolyForm.var(m, j, varname="z", ndiff=m))


def dx_form(be, m=1, j=0):
    return GroupCochain.from_form(m, PolyForm.dvar(m, j, varname="z", ndiff=m))


def g_cochain(m=1, j=0):
    """The (1,0) cochain f(g) = g_j."""
    zero = GroupCochain.zero(m, 1)
    return GroupCochain(m, 1, zero.g_var(1, j))


def test_coface_formulas_on_functions():
    be = circle_backend()
    x = x_form(be)
    # partial-tilde of x: (d0 - d1)(x)(g) = (x + g) - x = g
    pt = partial_tilde(be, x, 0)
    assert pt == g_cochain()
    # the invariant form dx is killed by partial-tilde
    assert be.is_zero(partial_tilde(be, dx_form(be), 0))


def test_group_cocycle_identity():
    # f(g) = g has vanishing alternating coface sum at level 1
    be = circle_backend()
    f = g_cochain()
    assert be.is_zero(partial_tilde(be, f, 1))


def test_codegeneracy_normalization():
    f = g_cochain()
    assert f.is_normalized()
    # a non-normalized cochain: constant function of g
    const = GroupCochain(1, 1, PolyForm.one(2, varname="z", ndiff=1))
    assert not const.is_normalized()


def test_tot_differential_on_coordinate():
    be = circle_backend()
    x = TotElement(be, {(0, 0): x_form(be)})
    dx_tot = tot_differential(x)
    want = TotElement(be, {(0, 1): dx_form(be), (1, 0): g_cochain()})
    assert dx_tot == want
    assert tot_differential(dx_tot).is_zero()


def test_d_squared_on_random_probes():
    rng = random.Random(11)
    be = GroupCochainBackend(2)
    for _ in range(12):
        comps = {}
        for (p, q) in ((0, 0), (0, 1), (1, 0), (1, 1)):
            nv = 2 * (p + 1)
            terms = {}
            for _ in range(2):
                exps = [0] * nv
                exps[rng.randrange(nv)] = rng.randint(0, 2)
                # keep it normalized: each g slot must appear
                for s in range(1, p + 1):
                    exps[2 * s + rng.randrange(2)] += 1
                dts = (rng.randrange(2),) if q else ()
                terms[(tuple(exps), dts)] = Fraction(rng.randint(-2, 2))
            val = GroupCochain(2, p, PolyForm(nv, terms, varname="z", ndiff=2))
            comps[(p, q)] = val
        v = TotElement(be, comps)
        assert v.is_normalized()
        assert tot_differential(tot_differential(v)).is_zero()


def test_unit_closed():
    be = circle_backend()
    alg = TotalComplexAlgebra(be, level_cap=2, arity_cap=4)
    assert tot_differential(alg.one()).is_zero()


def test_sigma_pushforward_skips():
    # sigma_I applies d^j for each vertex j missing from I, in increasing
    # order: the edges of [2] and the vertices of [1]
    b, c = g_cochain(), dx_form(circle_backend())
    for val, I, p, level, want in [
            (b, (1, 2), 1, 2, b.coface(0)),
            (b, (0, 2), 1, 2, b.coface(1)),
            (b, (0, 1), 1, 2, b.coface(2)),
            (c, (0,), 0, 1, c.coface(1)),
            (c, (1,), 0, 1, c.coface(0)),
            (b, (0, 1), 1, 1, b)]:
        assert sigma_pushforward(val, I, p, level) == want, I


def ref_sigma_pushforward(val, I, p, target_level):
    """sigma_I as its chain of cofaces: d^j for each vertex j missing
    from I, in increasing order."""
    for j in sorted(set(range(target_level + 1)).difference(I)):
        val = val.coface(j)
    return val


@st.composite
def pushforward_case(draw):
    """(p, a cochain of level p at rank 1 or 2), normalized or not: 1-3
    terms, exponents 0..3 in every block, any dts."""
    m = draw(st.sampled_from([1, 2]))
    p = draw(st.integers(0, 3))
    nv = m * (p + 1)
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exps = tuple(draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv)))
        dts = tuple(sorted(draw(st.sets(st.integers(0, m - 1)))))
        terms[(exps, dts)] = Fraction(draw(st.sampled_from([-3, -1, 1, 2])),
                                      draw(st.sampled_from([1, 2, 3])))
    return p, GroupCochain(m, p, PolyForm(nv, terms, varname="z", ndiff=m))


@given(pushforward_case())
@settings(deadline=None, max_examples=60)
def test_sigma_pushforward_is_its_coface_chain(case):
    # the composed exponent map against one coface at a time, on every
    # increasing index string at every level up to 3
    p, val = case
    for level in range(p, 4):
        for I in itertools.combinations(range(level + 1), p + 1):
            got = sigma_pushforward(val, I, p, level)
            assert got == ref_sigma_pushforward(val, I, p, level), (I, level)
            # the product's fold reads it over the input's denominator
            assert got.form.den == val.form.den


def test_strictness_on_base_forms():
    # products of (0,q) elements are levelwise wedges
    be = GroupCochainBackend(2)
    alg = TotalComplexAlgebra(be, level_cap=2, arity_cap=4)
    dx = TotElement(be, {(0, 1): GroupCochain.from_form(2, PolyForm.dvar(2, 0, "z", 2))})
    dy = TotElement(be, {(0, 1): GroupCochain.from_form(2, PolyForm.dvar(2, 1, "z", 2))})
    prod = alg.m(2, [dx, dy])
    want = GroupCochain.from_form(
        2, PolyForm.dvar(2, 0, "z", 2).wedge(PolyForm.dvar(2, 1, "z", 2)))
    assert prod == TotElement(be, {(0, 2): want})
    # and arity > 2 products of (0,q) elements vanish (negative level)
    assert alg.m(3, [dx, dy, dx]).is_zero()


def test_m2_of_two_group_cochains_reproduces_one_sixth_formula():
    be = circle_backend()
    alg = TotalComplexAlgebra(be, level_cap=2, arity_cap=4)
    b1 = TotElement(be, {(1, 0): g_cochain()})
    sq = GroupCochain(1, 1, g_cochain().form.wedge(g_cochain().form))
    b2 = TotElement(be, {(1, 0): sq})
    got = alg.m(2, [b1, b2])
    want = tot_product_degree1(alg, [b1, b2])
    assert got == want


def test_unit_absorption_higher_arity():
    be = circle_backend()
    alg = TotalComplexAlgebra(be, level_cap=2, arity_cap=4)
    one = alg.one()
    a = TotElement(be, {(1, 0): g_cochain()})
    assert alg.m(3, [one, a, a]).is_zero()
    assert alg.m(2, [one, a]) == a


def test_level_cap_error():
    be = circle_backend()
    alg = TotalComplexAlgebra(be, level_cap=1, arity_cap=4)
    b = TotElement(be, {(1, 0): g_cochain()})
    with pytest.raises(LevelCapError):
        alg.m(2, [b, b])


def random_degree1_element(be, rng, max_gdeg=2, max_xdeg=1):
    m = be.m
    # b part: polynomial in g (and x) times nothing, normalized
    nv1 = 2 * m
    terms = {}
    for _ in range(2):
        exps = [0] * nv1
        exps[m + rng.randrange(m)] = rng.randint(1, max_gdeg)
        if rng.random() < 0.5:
            exps[rng.randrange(m)] = rng.randint(0, max_xdeg)
        terms[(tuple(exps), ())] = Fraction(rng.randint(-2, 2))
    b = GroupCochain(m, 1, PolyForm(nv1, terms, varname="z", ndiff=m))
    # c part: polynomial x-form of degree 1
    cterms = {}
    for _ in range(2):
        exps = [0] * m
        exps[rng.randrange(m)] = rng.randint(0, max_xdeg)
        cterms[(tuple(exps), (rng.randrange(m),))] = Fraction(rng.randint(-2, 2))
    c = GroupCochain(m, 0, PolyForm(m, cterms, varname="z", ndiff=m))
    comps = {}
    if not b.is_zero():
        comps[(1, 0)] = b
    if not c.is_zero():
        comps[(0, 1)] = c
    return TotElement(be, comps)


def test_closed_form_oracle_small():
    # tot_product_degree1 against the general transferred-product formula
    rng = random.Random(5)
    for m in (1, 2):
        be = GroupCochainBackend(m)
        alg = TotalComplexAlgebra(be, level_cap=2, arity_cap=5)
        for trial in range(6):
            a1 = random_degree1_element(be, rng)
            a2 = random_degree1_element(be, rng)
            assert tot_product_degree1(alg, [a1, a2]) == alg.m(2, [a1, a2])
        for l in (3, 4):
            elems = [random_degree1_element(be, rng) for _ in range(l)]
            assert tot_product_degree1(alg, elems) == alg.m(l, elems)


def test_degree0_cases_of_binary_product():
    be = circle_backend()
    alg = TotalComplexAlgebra(be, level_cap=2, arity_cap=4)
    x = TotElement(be, {(0, 0): x_form(be)})
    c = TotElement(be, {(0, 1): dx_form(be)})
    b = TotElement(be, {(1, 0): g_cochain()})
    # m2(c, x) = c x
    got = alg.m(2, [c, x])
    want = TotElement(be, {(0, 1): dx_form(be).wedge(x_form(be))})
    assert got == want
    # m2(x, x) = x^2
    got = alg.m(2, [x, x])
    want = TotElement(be, {(0, 0): x_form(be).wedge(x_form(be))})
    assert got == want
    # m2(b, x) = -1/2 b ptilde(x) + b d^0 x
    got = alg.m(2, [b, x])
    want = tot_product_degree1_with_scalar(alg, [b], x_form(be), 1)
    assert got == want


def test_scalar_insertion_closed_form_at_higher_arity():
    # m_l with one (0,0) input x at each slot among degree-1 inputs, for
    # l = 3, 4, 5, against the general product; B_3 = 0 makes l = 4 zero
    rng = random.Random(11)
    nonzero = 0
    for m in (1, 2):
        be = GroupCochainBackend(m)
        alg = TotalComplexAlgebra(be, level_cap=2, arity_cap=5)
        x = x_form(be, m)
        for l in (3, 4, 5):
            for slot in range(1, l + 1):
                for _ in range(3):
                    elems = [random_degree1_element(be, rng) for _ in range(l - 1)]
                    args = elems[:slot - 1] + [TotElement(be, {(0, 0): x})] + elems[slot - 1:]
                    got = alg.m(l, args)
                    assert tot_product_degree1_with_scalar(alg, elems, x, slot) == got
                    nonzero += not alg.is_zero(got)
    assert nonzero


def test_degree1_products_have_no_base_two_form_part():
    # for arity > 2 and degree-1 inputs the (0,2) output component is zero
    rng = random.Random(9)
    be = circle_backend()
    alg = TotalComplexAlgebra(be, level_cap=2, arity_cap=5)
    for l in (3, 4):
        elems = [random_degree1_element(be, rng) for _ in range(l)]
        out = alg.m(l, elems)
        assert be.is_zero(out.component(0, 2))


def test_stasheff_and_shuffle_small_window():
    # the total-complex structure passes the relations on small probes
    be = circle_backend()
    alg = TotalComplexAlgebra(be, level_cap=3, arity_cap=4)
    x = TotElement(be, {(0, 0): x_form(be)})
    c = TotElement(be, {(0, 1): dx_form(be)})
    b = TotElement(be, {(1, 0): g_cochain()})
    probes = []
    for n in (2, 3):
        probes.extend(itertools.product([x, c, b], repeat=n))
    assert check_stasheff(alg, probes) == []


def test_products_stay_normalized():
    rng = random.Random(13)
    be = circle_backend()
    alg = TotalComplexAlgebra(be, level_cap=2, arity_cap=4)
    for _ in range(4):
        a1 = random_degree1_element(be, rng)
        a2 = random_degree1_element(be, rng)
        assert alg.m(2, [a1, a2]).is_normalized()


# -------------------------------------------------------------------
# the base: level zero
# -------------------------------------------------------------------

def test_projection_intertwines_differentials():
    # r(D v) = d(r v) for r the projection to level 0: the base
    # projection is a chain map
    rng = random.Random(21)
    be = circle_backend()
    for _ in range(6):
        v = random_degree1_element(be, rng)
        lhs = TotElement(be, {(p, q): val for (p, q), val
                              in tot_differential(v).components.items() if p == 0})
        want = TotElement(be, {(0, q + 1): val.d()
                               for (p, q), val in v.components.items() if p == 0})
        assert lhs == want


@pytest.mark.parametrize("name", ["circle", "torus"])
def test_base_inclusion_is_strict_morphism(name):
    # the level-zero forms include strictly: the inclusion passes the
    # morphism relations against the total-complex products
    from totconn.pipeline import PRESETS, tot_inclusion
    from totconn.structures import check_morphism
    B = PRESETS[name]["window"]()
    incl = tot_inclusion(B, PRESETS[name]["ambient_dim"], arity_cap=4)
    probes = []
    keys = [{k: Fraction(1)} for k in B.space.keys()]
    for n in (1, 2, 3):
        probes.extend(itertools.product(keys, repeat=n))
    assert check_morphism(incl, [list(p) for p in probes]) == []


@pytest.mark.parametrize("name, trunc", [(name, trunc) for name in ("circle", "torus")
                                         for trunc in (3, 4, 5, 6)])
def test_pipeline_model_series_into_total_complex(name, trunc):
    # the pipeline model's whole series, included into the total complex,
    # is Maurer-Cartan there
    from totconn.convolution import TensorSeries, mc_check
    from totconn.minimal import model_mc, one_minimal_model, positive_part
    from totconn.pipeline import PRESETS, tot_inclusion
    B = PRESETS[name]["window"]()
    model = one_minimal_model(B)
    alpha = model_mc(model, trunc=trunc)
    incl = tot_inclusion(B, PRESETS[name]["ambient_dim"], arity_cap=trunc)
    tot_alpha = TensorSeries(alpha.gens, incl.target, trunc, 1,
                             {w: incl.apply(1, [v]) for w, v in alpha.data.items()})
    assert mc_check(tot_alpha, positive_part(model.algebra)) == []


# -------------------------------------------------------------------
# the general product against the per-string-tuple loop
# -------------------------------------------------------------------

def ref_pure_product(alg, n, bidegs, vals):
    """Every tuple of index strings, each with its own pushforwards and
    left-fold wedge, in ``itertools.product`` order."""
    be = alg.backend
    if n > alg.arity_cap:
        raise LevelCapError("product arity %d exceeds cap %d" % (n, alg.arity_cap))
    ps = [p for p, _ in bidegs]
    qs = [q for _, q in bidegs]
    l = sum(ps) + 2 - n
    if l < 0:
        return alg.zero()
    if l > alg.level_cap:
        raise LevelCapError("product level %d exceeds cap %d" % (l, alg.level_cap))
    sign_exp = 0
    for i in range(n):
        for j in range(i + 1, n):
            sign_exp += qs[i] * ps[j]
    total = None
    for strings in itertools.product(
            *[list(itertools.combinations(range(l + 1), p + 1)) for p in ps]):
        c = _nc_top_coefficient(l, n, strings, alg.arity_cap)
        if not c:
            continue
        wedge = None
        for I, p, val in zip(strings, ps, vals):
            img = sigma_pushforward(val, I, p, l)
            wedge = img if wedge is None else wedge.wedge(img)
            if be.is_zero(wedge):
                break
        else:
            piece = be.scale(wedge, c)
            total = piece if total is None else be.add(total, piece)
    if total is None or be.is_zero(total):
        return alg.zero()
    total = be.scale(total, Fraction((-1) ** sign_exp))
    return TotElement(be, {(l, sum(qs)): total})


def ref_m(alg, k, elems):
    out = alg.zero()
    for combo in itertools.product(*[list(e.components.items()) for e in elems]):
        out = out + ref_pure_product(alg, k, [key for key, _ in combo],
                                     [val for _, val in combo])
    return out


def assert_m_matches_reference(alg, elems):
    k = len(elems)
    try:
        want = ref_m(alg, k, elems)
    except LevelCapError:
        with pytest.raises(LevelCapError):
            alg.m(k, elems)
        return
    assert alg.m(k, elems) == want


PRODUCT_BIDEGREES = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
# one algebra per backend for the whole run; the top-coefficient tables
# that earlier examples fill are shared by every algebra of the process
COCHAIN_ALGEBRAS = {m: TotalComplexAlgebra(GroupCochainBackend(m), level_cap=2,
                                           arity_cap=5) for m in (1, 2)}


@st.composite
def cochain(draw, m, p, q):
    """A normalized GroupCochain of bidegree (p, q): 1-2 terms, each
    carrying every group slot, with small exponents."""
    nv = m * (p + 1)
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        exps = [0] * nv
        exps[draw(st.integers(0, m - 1))] = draw(st.integers(0, 1))
        for s in range(1, p + 1):
            exps[m * s + draw(st.integers(0, m - 1))] += draw(st.integers(1, 2))
        dts = tuple(sorted(draw(st.sets(st.integers(0, m - 1), min_size=q,
                                        max_size=q))))
        terms[(tuple(exps), dts)] = Fraction(draw(st.sampled_from([-2, -1, 1, 3])),
                                             draw(st.sampled_from([1, 2])))
    return GroupCochain(m, p, PolyForm(nv, terms, varname="z", ndiff=m))


@st.composite
def top_levels(draw):
    """The highest input level of each slot.  Three cases in four keep
    every output level within the cap of 2; the rest pass it."""
    n = draw(st.integers(2, 5))
    levels = draw(st.lists(st.sampled_from([1, 1, 1, 0, 2]), min_size=n, max_size=n))
    if draw(st.integers(0, 3)):
        while sum(levels) > n:
            levels[levels.index(max(levels))] -= 1
    else:
        while sum(levels) <= n:
            levels[levels.index(min(levels))] += 1
    return levels


@st.composite
def bidegrees_up_to(draw, top, q_max=2):
    """1-3 bidegrees of PRODUCT_BIDEGREES with p <= top, one with p = top."""
    allowed = [pq for pq in PRODUCT_BIDEGREES if pq[0] <= top and pq[1] <= q_max]
    first = draw(st.sampled_from([pq for pq in allowed if pq[0] == top]))
    rest = draw(st.lists(st.sampled_from(allowed), max_size=2))
    return list(dict.fromkeys([first] + rest))


@st.composite
def cochain_product_case(draw):
    m = draw(st.sampled_from([1, 2]))
    be = COCHAIN_ALGEBRAS[m].backend
    elems = []
    for top in draw(top_levels()):
        elems.append(TotElement(be, {(p, q): draw(cochain(m, p, q))
                                     for p, q in draw(bidegrees_up_to(top, m))}))
    return m, elems


@functools.lru_cache(maxsize=None)
def plain_nc_structure(l, arity_cap):
    """``nc_structure`` without the vertex symmetry: every top coefficient
    comes from its own word's evaluation, not from an orbit fill."""
    return transfer_structure(plain_dupont(l), arity_cap)


def workload_b(be, rng):
    """A (1,0) cochain shaped like the b part of the tot-degree1 benchmark
    inputs: c g x, plus c' g^2 on rank 1."""
    m = be.m
    exps = [0] * (2 * m)
    exps[m + rng.randrange(m)] = 1
    exps[rng.randrange(m)] = 1
    terms = {(tuple(exps), ()): Fraction(rng.choice((-2, -1, 1, 2)))}
    if m == 1:
        terms[((0, 2), ())] = Fraction(rng.choice((-2, -1, 1, 2)))
    return GroupCochain(m, 1, PolyForm(2 * m, terms, varname="z", ndiff=m))


def test_pure_degree1_part_matches_independent_top_coefficients(monkeypatch):
    # tot_product_degree1 takes its pure (1,0) part from alg.m, so it
    # cannot check it; here the per-tuple loop reads top coefficients
    # evaluated word by word, while alg.m reads the orbit-filled tables
    rng = random.Random(11)
    for m in (1, 2):
        be = GroupCochainBackend(m)
        alg = TotalComplexAlgebra(be, level_cap=2, arity_cap=5)
        for n in (3, 4, 5):
            for _ in range(2):
                vals = [workload_b(be, rng) for _ in range(n)]
                elems = [TotElement(be, {(1, 0): b}) for b in vals]
                got = alg.m(n, elems)
                with monkeypatch.context() as patch:
                    patch.setattr(totalcomplex, "nc_structure", plain_nc_structure)
                    want = ref_pure_product(alg, n, [(1, 0)] * n, vals)
                assert not want.is_zero()
                assert got == want, (m, n)


@given(cochain_product_case())
@settings(deadline=None, max_examples=100)
def test_m_matches_the_per_tuple_loop(case):
    m, elems = case
    assert_m_matches_reference(COCHAIN_ALGEBRAS[m], elems)


# -------------------------------------------------------------------
# the right fold: work bound, fixed cases
# -------------------------------------------------------------------

def test_fold_wedges_once_per_internal_edge(monkeypatch):
    rng = random.Random(5)
    be = GroupCochainBackend(2)
    alg = TotalComplexAlgebra(be, level_cap=2, arity_cap=5)
    vals = [workload_b(be, rng) for _ in range(5)]
    ps = (1,) * 5
    edges, pairs = 0, set()
    _, trie = totalcomplex._top_table(2, ps, alg.arity_cap)
    level = [trie]
    for slot in range(5):
        pairs.update((slot, I) for node in level for I, _ in node)
        if slot < 4:
            edges += sum(len(node) for node in level)
            level = [child for node in level for _, child in node]
    calls = {"wedge": 0, "push": 0, "trusted": 0, "trusted_in_push": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    push = counted("push", sigma_pushforward)

    def counted_push(*args):
        before = calls["trusted"]
        out = push(*args)
        calls["trusted_in_push"] += calls["trusted"] - before
        return out

    trusted = counted("trusted", PolyForm._trusted)
    monkeypatch.setattr(totalcomplex, "_wedge_into",
                        counted("wedge", totalcomplex._wedge_into))
    monkeypatch.setattr(totalcomplex, "sigma_pushforward", counted_push)
    monkeypatch.setattr(PolyForm, "_trusted",
                        classmethod(lambda cls, *args: trusted(*args)))
    got = alg._pure_product(5, [(1, 0)] * 5, vals)
    monkeypatch.undo()
    assert 0 < calls["wedge"] <= edges
    assert 0 < calls["push"] <= len(pairs)
    # one gcd for the whole product, beyond those of its pushforwards
    assert calls["trusted"] - calls["trusted_in_push"] == 1
    want = ref_pure_product(alg, 5, [(1, 0)] * 5, vals)
    assert not want.is_zero()
    assert got == want


def test_top_tables_are_filled_once_per_process(monkeypatch):
    rng = random.Random(3)
    be = GroupCochainBackend(1)
    elems = [TotElement(be, {(1, 0): workload_b(be, rng)}) for _ in range(4)]
    want = TotalComplexAlgebra(be, level_cap=2, arity_cap=4).m(4, elems)
    calls = []
    monkeypatch.setattr(totalcomplex, "_nc_top_coefficient",
                        lambda *args: calls.append(args))
    again = TotalComplexAlgebra(be, level_cap=2, arity_cap=4)
    assert again.m(4, elems) == want and not want.is_zero()
    assert calls == []


def test_top_table_orbit_fill_refuses_an_inconsistent_orbit(monkeypatch):
    # (0 1) sends ((0,1), (0,1)) to itself with sign -1, so its top
    # coefficient must be 0; a constant 1 contradicts the symmetry
    monkeypatch.delitem(totalcomplex._TOP_TABLES, (2, (1, 1), 5), raising=False)
    monkeypatch.setattr(totalcomplex, "_nc_top_coefficient", lambda *args: 1)
    with pytest.raises(ArithmeticError, match=r"\(\(0, 1\), \(0, 1\)\)"):
        totalcomplex._top_table(2, (1, 1), 5)
    assert (2, (1, 1), 5) not in totalcomplex._TOP_TABLES


def degree1_top_table_shapes():
    """Every (l, ps) whose table tot-degree1 fills at level cap 2: n <= 5
    and p_i in {0, 1}, and n <= 3 with some p_i = 2."""
    shapes = []
    for n, top in [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2)]:
        for ps in itertools.product(range(top + 1), repeat=n):
            l = sum(ps) + 2 - n
            if 0 <= l <= 2 and (top == 1 or 2 in ps):
                shapes.append((l, ps))
    return shapes


def test_top_tables_match_a_per_tuple_fill(monkeypatch):
    # the orbit fill against one top coefficient per tuple, each from its
    # own word's evaluation on a structure without symmetry
    shapes = degree1_top_table_shapes()
    assert len(shapes) == 38 + 11
    got = {}
    for l, ps in shapes:
        monkeypatch.delitem(totalcomplex._TOP_TABLES, (l, ps, 5), raising=False)
        got[(l, ps)] = totalcomplex._top_table(l, ps, 5)
    monkeypatch.setattr(totalcomplex, "nc_structure", plain_nc_structure)
    for l, ps in shapes:
        trie = {}
        den = 1
        for strings in itertools.product(
                *[itertools.combinations(range(l + 1), p + 1) for p in ps]):
            c = totalcomplex._nc_top_coefficient(l, len(ps), strings, 5)
            if c:
                node = trie
                for I in strings[:-1]:
                    node = node.setdefault(I, {})
                node[strings[-1]] = c
                den = math.lcm(den, c.denominator)
        assert got[(l, ps)] == (den, totalcomplex._freeze(trie, den)), (l, ps)


def test_top_representative_is_one_per_orbit():
    # every tuple of index strings of the tables tot-degree1 fills,
    # against its orbit under all of S_{l+1}, listed by brute force
    for l, ps in degree1_top_table_shapes():
        perms = list(itertools.permutations(range(l + 1)))
        for strings in itertools.product(
                *[itertools.combinations(range(l + 1), p + 1) for p in ps]):
            rep, perm, sign = totalcomplex._top_representative(strings, l)
            image = [sorted_image(perm, I) for I in rep]
            assert tuple(I for I, _ in image) == strings
            assert sign == perm_sign(perm) * math.prod(s for _, s in image)
            orbit = {tuple(sorted_image(p, I)[0] for I in strings) for p in perms}
            # the first tuple of its orbit in product order
            assert rep == min(orbit)
            assert {totalcomplex._top_representative(t, l)[0] for t in orbit} == {rep}


def test_integer_top_tables_hold_the_top_coefficients_over_their_denominator():
    # mixed input levels: every tuple of index strings, in the trie or
    # not, reads entry / C = its top coefficient, and the table is nested
    # tuples down to int leaves
    shapes = [(l, ps) for n in (2, 3, 4) for ps in itertools.product(range(3), repeat=n)
              for l in [sum(ps) + 2 - n] if 0 <= l <= 2]
    assert len(shapes) == 6 + 16 + 45
    for l, ps in shapes:
        den, trie = totalcomplex._top_table(l, ps, 5)
        assert type(den) is int and den > 0
        entries = {}
        stack = [((), trie)]
        while stack:
            prefix, node = stack.pop()
            assert type(node) is tuple
            for pair in node:
                assert type(pair) is tuple and len(pair) == 2
                I, child = pair
                assert type(I) is tuple and all(type(v) is int for v in I)
                if len(prefix) + 1 < len(ps):
                    stack.append((prefix + (I,), child))
                else:
                    assert type(child) is int and child
                    entries[prefix + (I,)] = child
        coeffs = {}
        for strings in itertools.product(
                *[itertools.combinations(range(l + 1), p + 1) for p in ps]):
            c = totalcomplex._nc_top_coefficient(l, len(ps), strings, 5)
            assert Fraction(entries.get(strings, 0), den) == c, (l, ps, strings)
            coeffs[strings] = c
        assert den == math.lcm(*[c.denominator for c in coeffs.values()])


def mixed_element(rng, m, bidegrees):
    """One normalized component per bidegree, each 1-2 monomials carrying
    every group slot, with small coefficients."""
    comps = {}
    for p, q in bidegrees:
        nv = m * (p + 1)
        terms = {}
        for _ in range(rng.randint(1, 2)):
            exps = [0] * nv
            exps[rng.randrange(m)] = rng.randint(0, 1)
            for s in range(1, p + 1):
                exps[m * s + rng.randrange(m)] += rng.randint(1, 2)
            dts = tuple(sorted(rng.sample(range(m), q)))
            terms[(tuple(exps), dts)] = Fraction(rng.choice((-2, -1, 1, 3)))
        comps[(p, q)] = GroupCochain(m, p, PolyForm(nv, terms, varname="z", ndiff=m))
    return TotElement(COCHAIN_ALGEBRAS[m].backend, comps)


@pytest.mark.parametrize("shapes", [
    [[(2, 0), (0, 1)], [(1, 0), (1, 1)], [(1, 0), (0, 0)], [(0, 1), (0, 2)]],
    [[(1, 0), (0, 1)], [(1, 1)], [(1, 0), (0, 2)], [(1, 0)], [(1, 0), (0, 1)]],
])
def test_m_matches_the_per_tuple_loop_on_fixed_mixed_cases(shapes):
    # mixed bidegrees at output level 2 on rank 2, where the 2-forms live
    rng = random.Random(len(shapes))
    alg = COCHAIN_ALGEBRAS[2]
    elems = [mixed_element(rng, 2, bidegs) for bidegs in shapes]
    want = ref_m(alg, len(elems), elems)
    assert not want.is_zero()
    assert alg.m(len(elems), elems) == want


@pytest.mark.parametrize("name", sorted(
    path.name for path in GOLDEN.glob("tot_*_inputs.json")))
def test_total_complex_outputs_are_exact(name):
    from totconn.cli import _tot_element_from_json
    with open(GOLDEN / name) as fh:
        data = json.load(fh)
    be = GroupCochainBackend(int(data["group_rank"]))
    # level 3 for the rank-2 mixed inputs, whose top levels sum to 4
    alg = TotalComplexAlgebra(be, level_cap=3, arity_cap=5)
    elems = [_tot_element_from_json(be, e) for e in data["elements"]]
    outputs = [alg.m(len(elems), elems)]
    if "degree1" in name:
        outputs.append(tot_product_degree1(alg, elems))
    for out in outputs:
        assert not out.is_zero()
        for val in out.components.values():
            assert all(type(c) is Fraction for c in val.form.terms.values())


def test_window_cohomology_refuses_a_level_cap_below_the_top_degree():
    # with level_cap 1 the degree-1 boundaries reaching level 2 were
    # subtracted from level-1 cycles: b2 read -3 on the circle
    be = GroupCochainBackend(1)
    with pytest.raises(ValueError, match="level_cap 1 is below max_degree 2"):
        tot_window_cohomology(be, max_degree=2, level_cap=1, poly_cap=2)
    betti = tot_window_cohomology(be, max_degree=2, level_cap=2, poly_cap=2)
    assert betti == {0: 1, 1: 1, 2: 0}


def ref_tot_window_cohomology(be, max_degree, level_cap, poly_cap):
    """Betti numbers with D also ranked on degree max_degree + 1, which
    no Betti number reads."""
    basis = window_basis(be, level_cap + 1, poly_cap, max_degree + 1)
    index = {}
    for (pq, el) in basis:
        for key in el.form.terms:
            index[(pq, key)] = len(index)

    def coords(v):
        out = {}
        for (p, q), val in v.components.items():
            for key, c in val.form.terms.items():
                idx = index.get(((p, q), key))
                if idx is None:
                    raise LevelCapError("window too small for the image")
                out[idx] = c
        return out

    dims, ranks = {}, {}
    for deg in range(max_degree + 2):
        degree_basis = [(pq, el) for (pq, el) in basis
                        if pq[0] + pq[1] == deg and pq[0] <= level_cap]
        dims[deg] = len(degree_basis)
        ech = Echelon()
        for pq, el in degree_basis:
            ech.insert(coords(tot_differential(TotElement(be, {pq: el}))))
        ranks[deg] = ech.rank
    return {deg: dims[deg] - ranks[deg] - ranks.get(deg - 1, 0)
            for deg in range(max_degree + 1)}


def test_window_cohomology_ranks_only_the_degrees_it_reads():
    # ranking D on degree max_degree + 1 as well changes no Betti number,
    # but on rank 2 with max_degree 0 one of its dx^dy images leaves the
    # window, and H^0 = 1 was refused as a LevelCapError
    refused = []
    for rank, max_degree, poly_cap in itertools.product((1, 2), range(4), range(4)):
        be = GroupCochainBackend(rank)
        for level_cap in (max_degree, max_degree + 1):
            case = (be, max_degree, level_cap, poly_cap)
            betti = tot_window_cohomology(*case)
            try:
                assert betti == ref_tot_window_cohomology(*case)
            except LevelCapError:
                refused.append((rank, max_degree, level_cap, poly_cap))
                assert betti == {0: 1}
    assert refused == [(2, 0, level_cap, poly_cap)
                       for poly_cap in (1, 2, 3) for level_cap in (0, 1)]


# -------------------------------------------------------------------
# group-cochain face maps: exponent maps against substitution
# -------------------------------------------------------------------

def ref_coface(a, i):
    """d^i by substitution: x -> x + g_1 (i = 0) or g_i -> g_i + g_{i+1}
    (1 <= i <= p), the later group blocks shifted up by one."""
    p, m = a.p, a.m
    n = m * (p + 2)
    var = [PolyForm.var(n, j, varname="z", ndiff=m) for j in range(n)]
    blocks = [var[m * s:m * (s + 1)] for s in range(p + 2)]
    images = []
    for s in range(p + 1):
        if s < i:
            images += blocks[s]
        elif s == i:
            images += [u + v for u, v in zip(blocks[s], blocks[s + 1])]
        else:
            images += blocks[s + 1]
    return GroupCochain(m, p + 1, a.form.substitute(images))


def ref_codegeneracy(a, i):
    """s^i by substitution: g_{i+1} -> 0, the later group blocks shifted
    down by one."""
    p, m = a.p, a.m
    n = m * p
    var = [PolyForm.var(n, j, varname="z", ndiff=m) for j in range(n)]
    zero = PolyForm.zero(n, varname="z", ndiff=m)
    images = var[:m * (i + 1)] + [zero] * m + var[m * (i + 1):]
    return GroupCochain(m, p - 1, a.form.substitute(images))


@st.composite
def any_cochain(draw):
    """A GroupCochain with m in {1, 2}, level 0..3, exponents <= 3 and
    some dts, not necessarily normalized."""
    m = draw(st.sampled_from([1, 2]))
    p = draw(st.integers(0, 3))
    nv = m * (p + 1)
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exps = tuple(draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv)))
        dts = tuple(sorted(draw(st.sets(st.integers(0, m - 1)))))
        terms[(exps, dts)] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
    return GroupCochain(m, p, PolyForm(nv, terms, varname="z", ndiff=m))


@given(any_cochain())
@settings(deadline=None, max_examples=60)
def test_face_maps_match_substitution(a):
    for i in range(a.p + 2):
        assert a.coface(i) == ref_coface(a, i), i
    for i in range(a.p):
        assert a.codegeneracy(i) == ref_codegeneracy(a, i), i


@given(any_cochain())
@settings(deadline=None, max_examples=40)
def test_cosimplicial_identities_on_group_cochains(a):
    p = a.p
    for j in range(p + 2):
        for i in range(j):
            assert a.coface(i).coface(j) == a.coface(j - 1).coface(i), (i, j)
    # s^j d^i on level p, with s^j: p+1 -> p
    for j in range(p + 1):
        for i in range(p + 2):
            got = a.coface(i).codegeneracy(j)
            if i < j:
                want = a.codegeneracy(j - 1).coface(i)
            elif i in (j, j + 1):
                want = a
            else:
                want = a.codegeneracy(j).coface(i - 1)
            assert got == want, (i, j)
    # s^j s^i = s^i s^{j+1} for i <= j
    for j in range(p - 1):
        for i in range(j + 1):
            got = a.codegeneracy(i).codegeneracy(j)
            assert got == a.codegeneracy(j + 1).codegeneracy(i), (i, j)


def test_group_cochain_face_indices_are_range_checked():
    b = g_cochain()
    for i in (-1, 3):
        with pytest.raises(ValueError, match="coface index"):
            b.coface(i)
    for i in (-1, 1):
        with pytest.raises(ValueError, match="codegeneracy index"):
            b.codegeneracy(i)


@pytest.mark.parametrize("I", [(0, 5), (0, 1, 2), (2, 0), (1, 1), (-1, 0)])
def test_sigma_pushforward_refuses_a_bad_index_string(I):
    with pytest.raises(ValueError, match="index string"):
        sigma_pushforward(g_cochain(), I, 1, 2)
