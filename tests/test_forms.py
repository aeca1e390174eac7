from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from totconn.forms import (PolyForm, SimplicialOperator, integrate_over_simplex,
                           simplex_dt, simplex_monomials, simplex_t)


def test_d_of_coordinate():
    n = 2
    t1 = simplex_t(n, 1)
    assert t1.d() == simplex_dt(n, 1)
    assert simplex_dt(n, 1).d().is_zero()
    # d^2 = 0 on a spanning set
    for w in simplex_monomials(2, 3):
        assert w.d().d().is_zero()


def test_wedge_antisymmetry():
    n = 2
    dt1, dt2 = simplex_dt(n, 1), simplex_dt(n, 2)
    assert dt1.wedge(dt1).is_zero()
    assert dt1.wedge(dt2) == dt2.wedge(dt1).scale(-1)


def test_wedge_graded_commutative():
    n = 3
    for a in simplex_monomials(n, 2):
        for b in simplex_monomials(n, 2)[:20]:
            da = a.homogeneous_degree()
            db = b.homogeneous_degree()
            sign = -1 if (da * db) % 2 else 1
            assert a.wedge(b) == b.wedge(a).scale(sign)


def test_leibniz():
    n = 2
    for a in simplex_monomials(n, 2):
        for b in simplex_monomials(n, 2)[:15]:
            da = a.homogeneous_degree()
            lhs = a.wedge(b).d()
            rhs = a.d().wedge(b) + a.wedge(b.d()).scale((-1) ** da)
            assert lhs == rhs


def test_barycentric_relations_eliminated():
    n = 2
    total = simplex_t(n, 0) + simplex_t(n, 1) + simplex_t(n, 2)
    assert total == PolyForm.one(n)
    dtotal = simplex_dt(n, 0) + simplex_dt(n, 1) + simplex_dt(n, 2)
    assert dtotal.is_zero()


def test_codegeneracy_pullback_collapse():
    # s^0: (t0, t1, t2) -> (t0 + t1, t2); substituting per that formula
    # sends the elementary edge form to the sum of the two collapsed edges
    s0 = SimplicialOperator.codegeneracy(1, 0)
    w = simplex_t(1, 0).wedge(simplex_dt(1, 1)) - simplex_t(1, 1).wedge(simplex_dt(1, 0))
    want = (simplex_t(2, 0).wedge(simplex_dt(2, 2)) - simplex_t(2, 2).wedge(simplex_dt(2, 0))
            + simplex_t(2, 1).wedge(simplex_dt(2, 2)) - simplex_t(2, 2).wedge(simplex_dt(2, 1)))
    assert s0.pullback(w) == want
    # collapsing the interval to either vertex region kills the edge form
    for i in (0, 1):
        assert SimplicialOperator.coface(0, i).pullback(w).is_zero()


def test_coface_pullback_formula():
    # d^1: [0] -> [1] sends (t0, t1) to the vertex with t1 = 0
    d1 = SimplicialOperator.coface(0, 1)
    assert d1.pullback(simplex_t(1, 1)).is_zero()
    assert d1.pullback(simplex_t(1, 0)) == PolyForm.one(0)


def test_pullback_is_algebra_map():
    theta = SimplicialOperator.codegeneracy(1, 0)
    for a in simplex_monomials(1, 2):
        for b in simplex_monomials(1, 2):
            assert theta.pullback(a.wedge(b)) == theta.pullback(a).wedge(theta.pullback(b))
            assert theta.pullback(a.d()) == theta.pullback(a).d()


def test_simplicial_identities_on_forms():
    # d^j d^i = d^i d^{j-1} for i < j, checked through pullbacks
    for i in range(2):
        for j in range(i + 1, 3):
            left = SimplicialOperator.coface(1, j).compose(SimplicialOperator.coface(0, i))
            right = SimplicialOperator.coface(1, i).compose(SimplicialOperator.coface(0, j - 1))
            assert left.images == right.images


def test_integrate_interval():
    w = simplex_dt(1, 1)
    assert integrate_over_simplex(w, 1) == 1


def test_integrate_factorial_formula():
    # t1 t2 dt1 dt2 over the 2-simplex = 1!1!/(1+1+2)! = 1/24
    n = 2
    w = simplex_t(n, 1).wedge(simplex_t(n, 2)).wedge(
        simplex_dt(n, 1)).wedge(simplex_dt(n, 2))
    assert integrate_over_simplex(w, 2) == Fraction(1, 24)


def test_integrate_non_top_degree_is_zero():
    assert integrate_over_simplex(simplex_t(2, 1), 2) == 0


def test_substitute_dimension_errors():
    w = simplex_t(2, 1)
    with pytest.raises(ValueError):
        SimplicialOperator.coface(0, 1).pullback(w)


def test_json_roundtrip():
    w = simplex_t(2, 0).wedge(simplex_dt(2, 2)).scale(Fraction(3, 7))
    again = PolyForm.from_json(2, w.to_json())
    assert again == w


# ---------------------------------------------------------------------
# property tests on random forms
# ---------------------------------------------------------------------

COEFFS = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))


def random_form(draw, n, ndiff):
    """A non-zero PolyForm on n variables, dt's among the first ndiff,
    built through the validating constructor from one to six monomials.
    Each dt is drawn variable by variable, so that most monomials carry
    one or more of them."""
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(n))
        dts = tuple(j for j in range(ndiff) if draw(st.booleans()))
        terms[(exps, dts)] = terms.get((exps, dts), 0) + draw(COEFFS.filter(bool))
    form = PolyForm(n, terms, "t", ndiff)
    assume(not form.is_zero())
    return form


@st.composite
def form_pairs(draw):
    """Two forms on n variables, dt's among the first ndiff = n or n - 1,
    so that many pairs have two dt's or more and their wedges re-sort
    dt's with a sign."""
    n = draw(st.sampled_from([3, 2, 1, 0]))
    ndiff = draw(st.sampled_from([n, max(n - 1, 0)]))
    return random_form(draw, n, ndiff), random_form(draw, n, ndiff)


def degrees(w):
    return sorted({len(dts) for _, dts in w.terms})


@given(form_pairs())
@settings(deadline=None, max_examples=100)
def test_d_squared_is_zero(pair):
    a, _ = pair
    assert a.d().d().is_zero()


@given(form_pairs())
@settings(deadline=None, max_examples=100)
def test_leibniz_rule(pair):
    a, b = pair
    rhs = a.d().wedge(b)
    for p in degrees(a):
        rhs = rhs + a.component(p).wedge(b.d()).scale((-1) ** p)
    assert a.wedge(b).d() == rhs


@given(form_pairs())
@settings(deadline=None, max_examples=100)
def test_wedge_graded_commutative_random(pair):
    a, b = pair
    swapped = PolyForm.zero(a.nvars, a.varname, a.ndiff)
    for p in degrees(a):
        for q in degrees(b):
            swapped = swapped + b.component(q).wedge(a.component(p)).scale((-1) ** (p * q))
    assert a.wedge(b) == swapped


@given(form_pairs(), COEFFS, st.integers(0, 3))
@settings(deadline=None, max_examples=100)
def test_operation_results_are_clean(pair, c, degree):
    # wedge, +, scale, d and component build their results without
    # re-validation; each must equal its re-validated copy and hold only
    # tuple keys and non-zero Fraction values
    a, b = pair
    for r in (a.wedge(b), a + b, a.scale(c), a.d(), a.component(degree)):
        assert PolyForm(r.nvars, r.terms, r.varname, r.ndiff) == r
        for key, v in r.terms.items():
            assert isinstance(key, tuple) and len(key) == 2
            assert isinstance(key[0], tuple) and isinstance(key[1], tuple)
            assert type(v) is Fraction and v != 0


# ---------------------------------------------------------------------
# the integer store against plain Fraction dicts
# ---------------------------------------------------------------------

def ref_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def ref_scale(a, c):
    return {k: c * v for k, v in a.items()} if c else {}


def ref_wedge(a, b):
    out = {}
    for (e1, d1), c1 in a.items():
        for (e2, d2), c2 in b.items():
            dts = d1 + d2
            if len(set(dts)) < len(dts):
                continue
            # the sign of sorting the dt's: one factor -1 per inversion
            inversions = sum(1 for i in range(len(dts)) for j in range(i + 1, len(dts))
                             if dts[i] > dts[j])
            key = (tuple(x + y for x, y in zip(e1, e2)), tuple(sorted(dts)))
            out = ref_add(out, {key: (-1) ** inversions * c1 * c2})
    return out


def ref_partial(a, j):
    out = {}
    for (exps, dts), c in a.items():
        if exps[j]:
            e = list(exps)
            e[j] -= 1
            out = ref_add(out, {(tuple(e), dts): exps[j] * c})
    return out


def ref_d(a, nvars, ndiff):
    """d = sum_j dt_j ^ partial_j over the differentiable variables."""
    out = {}
    for j in range(ndiff):
        dt = {((0,) * nvars, (j,)): Fraction(1)}
        out = ref_add(out, ref_wedge(dt, ref_partial(a, j)))
    return out


def ref_substitute(a, images, nvars, ndiff):
    """sum of c * prod images[j]^e_j ^ prod d(images[j]) over the terms."""
    out = {}
    for (exps, dts), c in a.items():
        term = {((0,) * nvars, ()): c}
        for j, e in enumerate(exps):
            for _ in range(e):
                term = ref_wedge(term, images[j])
        for j in dts:
            term = ref_wedge(term, ref_d(images[j], nvars, ndiff))
        out = ref_add(out, term)
    return out


def ref_relabel(a, images, sign):
    """Variable j renamed images[j], each dt tuple sorted with the sign of
    its sort, all times ``sign``."""
    out = {}
    for (exps, dts), c in a.items():
        new_exps = [0] * len(exps)
        for j, e in enumerate(exps):
            new_exps[images[j]] = e
        moved = [images[j] for j in dts]
        inversions = sum(1 for i in range(len(moved)) for k in range(i + 1, len(moved))
                         if moved[i] > moved[k])
        key = (tuple(new_exps), tuple(sorted(moved)))
        out = ref_add(out, {key: (-1) ** inversions * sign * c})
    return out


def assert_clean(r):
    """r's store is in lowest terms over a positive denominator, and its
    ``terms`` view holds only non-zero Fractions."""
    assert type(r.den) is int and r.den > 0
    assert all(type(n) is int and n for n in r.num.values())
    assert gcd(r.den, *r.num.values()) == 1
    assert all(type(v) is Fraction and v for v in r.terms.values())
    assert set(r.terms) == set(r.num)


def dense_form(draw, n, ndiff, form_degree=None):
    """A form on n variables with one to five monomials, each dt drawn
    variable by variable, so that wedges which re-sort dt's (with a sign)
    or repeat one (giving zero) are common."""
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(n))
        dts = () if form_degree == 0 else tuple(j for j in range(ndiff) if draw(st.booleans()))
        terms[(exps, dts)] = terms.get((exps, dts), 0) + draw(COEFFS)
    return PolyForm(n, terms, "t", ndiff)


@st.composite
def dense_pairs(draw):
    n = draw(st.integers(1, 3))
    ndiff = draw(st.integers(0, n))
    return dense_form(draw, n, ndiff), dense_form(draw, n, ndiff)


@st.composite
def substitution_cases(draw):
    """(form, images): a form on n variables and one degree-0 image per
    variable, all on a target ambient of its own."""
    n = draw(st.integers(0, 3))
    a = dense_form(draw, n, draw(st.integers(0, n)))
    tgt = draw(st.integers(1, 3))
    tgt_ndiff = draw(st.integers(0, tgt))
    images = [dense_form(draw, tgt, tgt_ndiff, form_degree=0) for _ in range(n)]
    return a, images


@given(dense_pairs(), COEFFS, st.data())
@settings(deadline=None, max_examples=100)
def test_operations_match_the_fraction_reference(pair, c, data):
    a, b = pair
    n, ndiff = a.nvars, a.ndiff
    ta, tb = dict(a.terms), dict(b.terms)
    cases = [(a.wedge(b), ref_wedge(ta, tb)),
             (a + b, ref_add(ta, tb)),
             (a.scale(c), ref_scale(ta, c)),
             (a.d(), ref_d(ta, n, ndiff))]
    if n:
        j = data.draw(st.integers(0, n - 1))
        cases.append((a.partial(j), ref_partial(ta, j)))
        images = (data.draw(st.permutations(range(ndiff)))
                  + data.draw(st.permutations(range(ndiff, n))))
        sign = data.draw(st.sampled_from([1, -1]))
        cases.append((a.relabel(images, sign), ref_relabel(ta, images, sign)))
    for got, want in cases:
        assert_clean(got)
        assert dict(got.terms) == want


@given(substitution_cases())
@settings(deadline=None, max_examples=100)
def test_substitute_matches_the_fraction_reference(case):
    a, images = case
    got = a.substitute(images)
    if images:
        im = images[0]
        assert (got.nvars, got.varname, got.ndiff) == (im.nvars, im.varname, im.ndiff)
        want = ref_substitute(dict(a.terms), [dict(i.terms) for i in images],
                              im.nvars, im.ndiff)
    else:
        want = dict(a.terms)
    assert_clean(got)
    assert dict(got.terms) == want


def test_terms_is_a_read_only_view_of_the_store():
    w = simplex_t(2, 0).scale(Fraction(3, 4))
    assert (w.den, w.num) == (4, {((0, 0), ()): 3, ((1, 0), ()): -3, ((0, 1), ()): -3})
    with pytest.raises(TypeError):
        w.terms[((0, 0), ())] = Fraction(1)
    assert w.terms[((0, 0), ())] == Fraction(3, 4)
    assert w.terms is not w.terms
