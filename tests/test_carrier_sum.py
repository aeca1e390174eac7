"""``sum`` on every carrier kind against the two-term adds it replaced,
the caches an in-place sum must not touch, and a lint against
copy-per-term running sums in the library."""

import copy
import itertools
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totconn import connection, totalcomplex
from totconn.convolution import ConvolutionAlgebra, Generators, TensorSeries
from totconn.dupont import dupont_s, elementary_form, h_operator, index_strings
from totconn.forms import PolyForm, simplex_monomials
from totconn.linalg import vec_add
from totconn.pipeline import run_pipeline
from totconn.structures import FormsAlgebra, FormSpace, IntervalAlgebra
from totconn.totalcomplex import (GroupCochain, GroupCochainBackend,
                                  TotalComplexAlgebra, TotElement,
                                  tot_product_degree1)
from totconn.transfer import nc_structure
from tests.test_convolution import torus_model
from tests.test_structures import torus_cdga

COEFFS = [Fraction(c) for c in (-2, -1, 1, 3)] + [Fraction(1, 2)]


# -------------------------------------------------------------------
# the two-term adds that ``sum`` replaced, as they were written
# -------------------------------------------------------------------

def ref_add(carrier, a, b, coeff=Fraction(1)):
    """a + coeff * b through the carrier's own add before ``sum`` existed."""
    if isinstance(carrier, (GroupCochainBackend, FormSpace)):
        return a + b.scale(coeff)
    if isinstance(carrier, TotalComplexAlgebra):
        be = carrier.backend
        out = dict(a.components)
        for key, val in b.scale(coeff).components.items():
            cur = out.get(key)
            s = ref_add(be, cur, val) if cur is not None else val
            if be.is_zero(s):
                out.pop(key, None)
            else:
                out[key] = s
        return TotElement(be, out)
    if isinstance(carrier, ConvolutionAlgebra):
        target = carrier.target
        out = dict(a.data)
        for w, val in b.data.items():
            cur = out.get(w)
            s = ref_add(target, cur, val, coeff) if cur is not None \
                else target.scale(val, coeff)
            if target.is_zero(s):
                out.pop(w, None)
            else:
                out[w] = s
        return TensorSeries(a.gens, target, a.trunc, a.degree, out)
    if isinstance(carrier, IntervalAlgebra):
        base = carrier.base
        out = dict(a)
        for k, v in b.items():
            s = ref_add(base, out.get(k, base.zero()), v, coeff)
            if base.is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
        return out
    if carrier == "series":
        # connection.fv_add with its _put
        out = dict(a)
        for w, f in b.items():
            f = f if coeff == 1 else f.scale(coeff)
            cur = out.get(w)
            s = f if cur is None else cur + f
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return out
    return vec_add(a, b, coeff)     # dict vectors


def shape(x):
    """x with every key order and every value type made explicit."""
    if isinstance(x, dict):
        return [(k, shape(v)) for k, v in x.items()]
    if isinstance(x, PolyForm):
        return ("form", x.nvars, x.varname, x.ndiff, shape(x.terms))
    if isinstance(x, GroupCochain):
        return ("cochain", x.m, x.p, shape(x.form))
    if isinstance(x, TotElement):
        return ("tot", shape(x.components))
    if isinstance(x, TensorSeries):
        return ("series", x.trunc, x.degree, shape(x.data))
    return (type(x).__name__, x)


def assert_sum_is_the_fold(carrier, zero, terms, p=None):
    """sum(terms) equals the left fold of ref_add from ``zero``, key order
    and value types included, and leaves every term as it was."""
    before = [shape(x) for x, _ in terms]
    want = zero
    for x, c in terms:
        want = ref_add(carrier, want, x, c)
    if carrier == "series":
        got = connection._series(2).sum(terms)
    else:
        got = carrier.sum(iter(terms), p)
    assert shape(got) == shape(want)
    assert [shape(x) for x, _ in terms] == before


def cancel_and_return(x, y):
    """x's keys cancel to zero and come back after y's keys."""
    one = Fraction(1)
    return [(x, one), (y, one), (x, -one), (x, one)]


# -------------------------------------------------------------------
# one carrier kind per case: (carrier, zero for a first term, elements)
# -------------------------------------------------------------------

TORUS = torus_cdga()
COCHAINS = GroupCochainBackend(1)
TOT = TotalComplexAlgebra(COCHAINS, level_cap=2, arity_cap=3)
TORUS_GENS = Generators(torus_model().space)
CONV = ConvolutionAlgebra(TORUS_GENS, TORUS, torus_model(), trunc=2)
INTERVAL = IntervalAlgebra(FormsAlgebra(1))


@st.composite
def coeff_dict(draw, keys, max_size=3):
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=max_size,
                           unique=True))
    return {k: draw(st.sampled_from(COEFFS)) for k in chosen}


def form_keys(nvars, ndiff):
    return [(exps, dts) for exps in itertools.product(range(2), repeat=nvars)
            for r in range(2) for dts in itertools.combinations(range(ndiff), r)]


@st.composite
def dict_vector(draw):
    return draw(coeff_dict(TORUS.space.keys()))


@st.composite
def simplex_form(draw, n=2):
    return PolyForm(n, draw(coeff_dict(form_keys(n, n))))


@st.composite
def cochain(draw, p=1):
    m = COCHAINS.m
    nv = m * (p + 1)
    return GroupCochain(m, p, PolyForm(nv, draw(coeff_dict(form_keys(nv, m))),
                                       varname="z", ndiff=m))


@st.composite
def tot_element(draw):
    comps = {}
    for p, q in draw(st.lists(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]),
                              min_size=1, max_size=3, unique=True)):
        comps[(p, q)] = draw(cochain(p))
    return TotElement(COCHAINS, comps)


@st.composite
def series(draw):
    words = list(TORUS_GENS.words(2))
    return TensorSeries(TORUS_GENS, TORUS, 2, 1,
                        {w: draw(dict_vector()) for w in draw(
                            st.lists(st.sampled_from(words), min_size=1, max_size=3,
                                     unique=True))})


@st.composite
def interval_element(draw):
    keys = [(e, dt) for e in range(3) for dt in (False, True)]
    return {k: draw(simplex_form(1)) for k in draw(
        st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))}


@st.composite
def form_series(draw):
    words = [(), (0,), (1,), (0, 1)]
    return {w: PolyForm(2, draw(coeff_dict(form_keys(2, 2))), varname="x", ndiff=2)
            for w in draw(st.lists(st.sampled_from(words), min_size=1, max_size=3,
                                   unique=True))}


CASES = {
    "dict vectors": (TORUS, {}, dict_vector(), None),
    "forms": (FormsAlgebra(2), PolyForm.zero(2), simplex_form(), None),
    "group cochains": (COCHAINS, GroupCochain.zero(1, 1), cochain(), 1),
    "total complex": (TOT, TotElement.zero(COCHAINS), tot_element(), None),
    "convolution": (CONV, TensorSeries(TORUS_GENS, TORUS, 2, 1), series(), None),
    "interval": (INTERVAL, {}, interval_element(), None),
    "form series": ("series", {}, form_series(), None),
}


@pytest.mark.parametrize("kind", list(CASES))
@given(data=st.data())
@settings(deadline=None, max_examples=40)
def test_sum_is_the_fold_of_two_term_adds(kind, data):
    carrier, zero, elements, p = CASES[kind]
    pool = data.draw(st.lists(elements, min_size=1, max_size=3))
    terms = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(COEFFS)),
                               max_size=6))
    if terms or p is not None:
        assert_sum_is_the_fold(carrier, zero, terms, p)
    x, y = pool[0], data.draw(elements)
    assert_sum_is_the_fold(carrier, zero, cancel_and_return(x, y), p)


def test_a_cancelled_key_comes_back_at_the_end():
    x, y = {(1, "dx"): Fraction(1)}, {(1, "dy"): Fraction(2)}
    assert list(TORUS.sum(cancel_and_return(x, y))) == [(1, "dy"), (1, "dx")]
    assert TORUS.sum(cancel_and_return(x, y)) == vec_add(y, x)


def test_derived_zero_and_add_keep_their_meaning():
    assert COCHAINS.zero(2) == GroupCochain.zero(1, 2)
    assert TOT.zero() == TotElement.zero(COCHAINS)
    g = GroupCochain.zero(1, 1).g_var(1, 0)
    cochain_g = GroupCochain(1, 1, g)
    assert COCHAINS.add(cochain_g, cochain_g, Fraction(-1)) == GroupCochain.zero(1, 1)
    assert CONV.zero().degree == 0
    s = TensorSeries(TORUS_GENS, TORUS, 2, 1, {(0,): {(1, "dx"): Fraction(1)}})
    assert s.add(s).degree == 1
    assert CONV.add(s, s, Fraction(-1)).is_zero()


# -------------------------------------------------------------------
# an in-place sum never writes into a cached value
# -------------------------------------------------------------------

def test_sums_leave_the_caches_untouched():
    # warm-up: Dupont operators, transferred tables and their lam
    # values, and one total-complex top-coefficient table
    elementary = {(I, n): elementary_form(I, n) for n in (1, 2)
                  for size in range(1, n + 2) for I in index_strings(n, size)}
    h_images = {}
    for w in simplex_monomials(2, 2):
        dupont_s(w, 2)
        for i in range(3):
            h_images[(w, i)] = h_operator(w, i)
    nc = nc_structure(2, 4)
    nc.algebra.m(3, [{k: Fraction(1)} for k in nc.algebra.space.keys(1)[:3]])
    be = GroupCochainBackend(1)
    tot = TotalComplexAlgebra(be, level_cap=2, arity_cap=4)
    b = GroupCochain(1, 1, PolyForm(2, {((0, 1), ()): Fraction(1)}, varname="z", ndiff=1))
    c = GroupCochain(1, 0, PolyForm(1, {((1,), (0,)): Fraction(1)}, varname="z", ndiff=1))
    a = TotElement(be, {(1, 0): b, (0, 1): c})
    tot_product_degree1(tot, [a, a, a])

    def structure_tables():
        # the table values are read-only views, copied so they can be deep-copied
        return {(k, w): dict(v) for k, table in nc.algebra.maps.items()
                for w, v in table.items()}

    caches = [lambda: elementary, lambda: h_images, structure_tables,
              lambda: nc.algebra._lam, lambda: totalcomplex._TOP_TABLES]
    saved = [shape(copy.deepcopy(cache())) for cache in caches]

    nc.algebra.materialize(4)
    tot_product_degree1(tot, [a, a, a, a])
    run_pipeline("torus")

    for key, form in elementary.items():
        assert elementary_form(*key) is form
    for (w, i), form in h_images.items():
        assert h_operator(w, i) is form
    for cache, entries in zip(caches, saved):
        live = cache()
        assert len(live) >= len(entries)
        assert shape({k: live[k] for k, _ in entries}) == entries


# -------------------------------------------------------------------
# lint: no copy-per-term running sums in the library
# -------------------------------------------------------------------

RUNNING_SUM = re.compile(r"(\w+) = (?:\w+\.)*add\(\1\b|(\w+) = \2 \+ |(\w+) = \3\.add\("
                         r"|reduce\(.*\.add")


def test_no_copy_per_term_running_sums():
    src = Path(__file__).resolve().parent.parent / "src" / "totconn"
    hits = ["%s:%d: %s" % (path.name, n, line.strip())
            for path in sorted(src.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if RUNNING_SUM.search(line)]
    assert hits == [], "sum the terms with the carrier's sum:\n" + "\n".join(hits)
