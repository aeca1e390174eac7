from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totconn import dupont, transfer
from totconn.dupont import (_h_monomial, dupont_E, dupont_Int, dupont_s,
                            elementary_form, h_operator, index_strings,
                            nc_basis, nc_simplicial_action, verify_naturality,
                            verify_stokes)
from totconn.forms import (SimplicialOperator, integrate_over_simplex,
                           simplex_dt, simplex_monomials, simplex_t)
from totconn.linalg import ONE, accumulate, lowest_terms, vec_add, vec_scale
from totconn.transfer import (dupont_contraction, nc_key_to_lambda, nc_space,
                              nc_structure, nc_vector_from_element)


def test_elementary_forms_dimension_one():
    assert elementary_form((0,), 1) == simplex_t(1, 0)
    assert elementary_form((1,), 1) == simplex_t(1, 1)
    want = simplex_t(1, 0).wedge(simplex_dt(1, 1)) - simplex_t(1, 1).wedge(simplex_dt(1, 0))
    assert elementary_form((0, 1), 1) == want


def test_elementary_form_dimension_two_top():
    n = 2
    want = (simplex_t(n, 0).wedge(simplex_dt(n, 1)).wedge(simplex_dt(n, 2))
            - simplex_t(n, 1).wedge(simplex_dt(n, 0)).wedge(simplex_dt(n, 2))
            + simplex_t(n, 2).wedge(simplex_dt(n, 0)).wedge(simplex_dt(n, 1))).scale(2)
    assert elementary_form((0, 1, 2), 2) == want


def test_elementary_form_errors():
    with pytest.raises(ValueError):
        elementary_form((), 2)
    with pytest.raises(ValueError):
        elementary_form((1, 0), 2)
    with pytest.raises(ValueError):
        elementary_form((0, 3), 2)


def test_integral_of_two_elementary_forms():
    # the 2-simplex pairing behind the 1/6 product coefficients
    w = elementary_form((0, 1), 2).wedge(elementary_form((0, 2), 2))
    assert integrate_over_simplex(w, 2) == Fraction(1, 6)


def test_int_of_vertex_coordinate():
    lam = dupont_Int(simplex_t(1, 0), 1)
    assert lam == {(0,): 1}


def test_int_records_vertex_values_and_edge_integral():
    # degree-0 component of Int(t0) is the vertex values, and the edge
    # integral of the degree-1 part of d-related forms stays exact
    lam = dupont_Int(simplex_t(1, 0), 1)
    assert lam.get((0,), 0) == 1
    assert lam.get((1,), 0) == 0
    onedim = dupont_Int(simplex_t(1, 0).wedge(simplex_dt(1, 1)), 1)
    assert onedim == {(0, 1): Fraction(1, 2)}


def _int_by_pullback(form, n):
    """Int by its definition: pull back along every inclusion of a face
    sigma_I and integrate the component of top degree over it."""
    coeffs = {}
    for size in range(1, n + 2):
        p = size - 1
        for I in index_strings(n, size):
            pulled = SimplicialOperator.inclusion(I, n).pullback(form.component(p))
            val = integrate_over_simplex(pulled, p)
            if val:
                coeffs[I] = val
    return coeffs


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_int_closed_form_matches_integral_on_monomials(n):
    for w in simplex_monomials(n, 4):
        assert dupont_Int(w, n) == _int_by_pullback(w, n), w


def test_int_closed_form_matches_integral_on_mixed_forms():
    t, dt = simplex_t, simplex_dt
    forms = [
        # mixed degrees on the interval and the triangle
        (t(1, 1).wedge(t(1, 1)).scale(3) + t(1, 0).wedge(dt(1, 1)).scale(Fraction(-2, 3)), 1),
        (t(2, 1).wedge(t(2, 2)) + t(2, 0).wedge(dt(2, 1)).scale(Fraction(-2, 3))
         + dt(2, 1).wedge(dt(2, 2)).scale(3), 2),
        # every edge integral of d(t0 t1 t2) cancels between its monomials
        (t(2, 0).wedge(t(2, 1)).wedge(t(2, 2)).d(), 2),
        # elementary forms with cancelling coefficients plus a vertex function
        (dupont_E({(0, 1): 1, (1, 2): -2, (0, 1, 2): Fraction(1, 2)}, 2)
         - t(2, 2).scale(2), 2),
        (t(3, 0).wedge(t(3, 3)).wedge(t(3, 3)).d().scale(Fraction(1, 3))
         + dt(3, 1).wedge(dt(3, 2)).wedge(dt(3, 3)).scale(5) + t(3, 0)
         - t(3, 2).wedge(dt(3, 0)).wedge(dt(3, 3)), 3),
    ]
    for w, n in forms:
        assert dupont_Int(w, n) == _int_by_pullback(w, n), w


def test_int_E_identity_small():
    for n in (0, 1, 2, 3):
        for lam in nc_basis(n):
            assert dupont_Int(dupont_E(lam, n), n) == lam


def test_homotopy_identity_on_t1_squared():
    n = 1
    w = simplex_t(n, 1).wedge(simplex_t(n, 1))
    lhs = dupont_s(w, n).d() + dupont_s(w.d(), n)
    rhs = dupont_E(dupont_Int(w, n), n) - w
    assert lhs == rhs


def test_side_conditions_n_small():
    for n in (0, 1, 2):
        assert dupont_contraction(n).verify_side_conditions(simplex_monomials(n, 3)) == []


def test_corruption_detected(monkeypatch):
    Int = transfer.dupont_Int
    monkeypatch.setattr(transfer, "dupont_Int",
                        lambda form, n: vec_add({(0,): ONE}, Int(form, n)))
    assert dupont_contraction(1).verify_side_conditions(simplex_monomials(1, 2))


def _bent_part(form):
    """The function part of ``form`` on the interval minus its linear
    interpolation E Int.  It is zero on the image of E and on 1-forms, but
    not on s(t1 dt1), a non-zero function vanishing at both vertices."""
    f = form.component(0)
    return f - dupont_E(dupont_Int(f, 1), 1)


ONE_FORMS = simplex_monomials(1, 2, form_degree=1)
# label -> (corrupted (project, homotopy) from the true ones, witnesses);
# p i and h i are checked on the small basis, so they need no witnesses
CORRUPTIONS = {
    "p i != Id": (lambda p, h: (lambda w: vec_scale(p(w), 2), h), ()),
    "h i != 0": (lambda p, h: (p, lambda w: h(w) + w), ()),
    "h h != 0": (lambda p, h: (p, lambda w: h(w) + _bent_part(w)), ONE_FORMS),
    "p h != 0": (lambda p, h: (lambda w: vec_add(p(w), {} if _bent_part(w).is_zero()
                                                 else {(0, "1"): ONE}), h), ONE_FORMS),
    "d h + h d != i p - Id": (lambda p, h: (p, lambda w: h(w).scale(2)),
                              simplex_monomials(1, 2)),
}


@pytest.mark.parametrize("label", sorted(CORRUPTIONS))
def test_each_side_condition_can_fail(label):
    # one corrupted map per identity, each breaking that identity alone
    corrupt, witnesses = CORRUPTIONS[label]
    con = dupont_contraction(1)
    assert con.verify_side_conditions(witnesses) == []
    con.project, con.homotopy = corrupt(con.project, con.homotopy)
    assert {f[0] for f in con.verify_side_conditions(witnesses)} == {label}


def test_stokes_small():
    for n in (1, 2):
        assert verify_stokes(n, max_poly_deg=3) == []


def test_naturality_small():
    for n in (1, 2):
        assert verify_naturality(n, max_poly_deg=2) == []


@pytest.mark.parametrize("name", ["dupont_E", "dupont_s"])
def test_naturality_failures_are_reported(monkeypatch, name):
    # E or s scaled by n + 1 on the n-simplex is linear but not natural:
    # a coface or codegeneracy changes n
    true = getattr(dupont, name)
    monkeypatch.setattr(dupont, name, lambda x, n: true(x, n).scale(n + 1))
    report = verify_naturality(2, max_poly_deg=1)
    assert {f[0] for f in report} == {name[-1] + " naturality"}


def test_nc_differential_matches_form_differential():
    # the transferred m1 on the interval: d(lambda_1) = lambda_01, and the
    # unit lambda_0 + lambda_1 is closed
    m = nc_structure(1, 2).algebra.m
    assert m(1, [{(0, "v1"): Fraction(1)}]) == {(1, "L01"): Fraction(1)}
    assert m(1, [{(0, "1"): Fraction(1)}]) == {}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transferred_m1_is_int_d_e(n):
    # m1 = p d i = Int d E on every basis key of the n-simplex
    m = nc_structure(n, 2).algebra.m
    for key in nc_space(n).keys():
        lam = nc_key_to_lambda(key, n)
        want = nc_vector_from_element(dupont_Int(dupont_E(lam, n).d(), n), n)
        assert m(1, [{key: Fraction(1)}]) == want, key


def test_nc_action_collapses_and_includes():
    # codegeneracy s^0: [1] -> [0] sends both vertices onto vertex 0
    s0 = SimplicialOperator.codegeneracy(0, 0)
    assert nc_simplicial_action(s0, {(0,): 1}) == {(0,): 1, (1,): 1}
    # s^0: [2] -> [1] sends vertices 0 and 1 to 0, so the edge L01 comes
    # from L02 + L12, and the collapsed edge (0, 1) does not appear
    s0 = SimplicialOperator.codegeneracy(1, 0)
    assert nc_simplicial_action(s0, {(0, 1): 1}) == {(0, 2): 1, (1, 2): 1}


@pytest.mark.parametrize("lam", [{(0, 3): ONE}, {(1, 1): ONE}, {(1, 0): ONE},
                                 {(-1,): ONE}])
def test_nc_action_rejects_index_strings_outside_the_target(lam):
    # d^0: [1] -> [2]; an index string must be increasing in 0..2
    with pytest.raises(ValueError):
        nc_simplicial_action(SimplicialOperator.coface(1, 0), lam)


def test_int_is_a_sparse_vector_in_face_order():
    # faces by size, then lexicographically; t2 dt1 vanishes on the edges
    # 01 and 02, and no zero is stored for them
    w = (simplex_t(2, 0) + simplex_t(2, 2).wedge(simplex_dt(2, 1))
         + simplex_dt(2, 1).wedge(simplex_dt(2, 2)))
    got = dupont_Int(w, 2)
    assert list(got) == [(0,), (1, 2), (0, 1, 2)]
    assert got == {(0,): 1, (1, 2): Fraction(-1, 2), (0, 1, 2): Fraction(1, 2)}


def test_h_operator_lowers_degree():
    n = 2
    for w in simplex_monomials(n, 2, form_degree=1):
        hw = h_operator(w, 0)
        assert hw.is_zero() or hw.homogeneous_degree() == 0


def test_cached_forms_cannot_be_changed_through_terms():
    # elementary_form and h_operator are memoized: their results are shared
    # by every later caller, so writing into one must fail
    w = elementary_form((0, 1), 2)
    hw = h_operator(simplex_t(2, 1).wedge(simplex_dt(2, 2)), 1)
    assert not hw.is_zero()
    saved = [dict(w.terms), dict(hw.terms), dict(dupont_E({(0, 1): ONE}, 2).terms)]
    for form in (w, hw):
        key = next(iter(form.terms))
        with pytest.raises(TypeError):
            form.terms[key] *= 7
        with pytest.raises(TypeError):
            form.terms[key] = Fraction(7)
    assert dict(elementary_form((0, 1), 2).terms) == saved[0]
    assert dict(h_operator(simplex_t(2, 1).wedge(simplex_dt(2, 2)), 1).terms) == saved[1]
    assert dict(dupont_E({(0, 1): ONE}, 2).terms) == saved[2]


def ref_h_monomial(exps, dts, n, i):
    """h^i of t^exps dt_dts by expanding the pullback term by term: the
    oracle of the closed form ``_h_monomial``.

    phi_i^* works in the eliminated coordinates t_1..t_n, which transform
    as t_k -> u t_k + (1-u) delta_ik and stay inside the eliminated chart;
    dt_k -> u dt_k + (t_k - delta_ik) du.  Only the du-component survives
    the fiber integral, where u^e du integrates to -1/(e+1) (see
    ``h_operator`` for the sign).
    """
    # polynomial factor: (exps, uexp, coeff)
    poly_parts = [((0,) * n, 0, 1)]
    for j in range(n):
        e = exps[j]
        if e == 0:
            continue
        new_parts = []
        if i == j + 1:
            # (u t + 1 - u)^e -- expand binomially in (u t) and (1-u)
            for a in range(e + 1):
                coeff = comb(e, a)
                # (u t)^a (1-u)^{e-a}; expand (1-u)^{e-a}
                for b in range(e - a + 1):
                    cb = comb(e - a, b) * ((-1) ** b)
                    for pexps, pu, pc in poly_parts:
                        ne = list(pexps)
                        ne[j] += a
                        new_parts.append((tuple(ne), pu + a + b, pc * coeff * cb))
        else:
            for pexps, pu, pc in poly_parts:
                ne = list(pexps)
                ne[j] += e
                new_parts.append((tuple(ne), pu + e, pc))
        poly_parts = new_parts
    # dt factor: product over j in dts of (u dt_j + (t_j - delta) du)
    dt_parts = [((), False, (0,) * n, 0, 1)]
    # entries: (dts_so_far, has_du, extra_exps, extra_uexp, coeff)
    for j in dts:
        new_parts = []
        for (pd, pdu, pe, pu, pc) in dt_parts:
            # option A: u dt_{j+1}; the new dt only passes the larger
            # dt indices already collected (du stays leftmost)
            if j not in pd:
                sign = 1
                for b in pd:
                    if b > j:
                        sign = -sign
                new_parts.append((tuple(sorted(pd + (j,))), pdu, pe, pu + 1,
                                  pc * sign))
            # option B: (t_j - delta_{i,j+1}) du
            if not pdu:
                sign = -1 if len(pd) % 2 else 1  # du passes over every existing dt
                ne = list(pe)
                ne[j] += 1
                new_parts.append((pd, True, tuple(ne), pu, pc * sign))
                if i == j + 1:
                    new_parts.append((pd, True, pe, pu, -pc * sign))
        dt_parts = new_parts
    # u^e du integrates to 1/(e + 1): over the lcm of those denominators
    parts = [((tuple(a + b for a, b in zip(pexps, qe)), qd), -pc * qc, pu + qu + 1)
             for pexps, pu, pc in poly_parts
             for qd, qdu, qe, qu, qc in dt_parts if qdu]
    den = lcm(*[e for _, _, e in parts])
    den, num = lowest_terms(den, accumulate({}, ((key, c * (den // e))
                                                 for key, c, e in parts)))
    return den, tuple(num.items())


def _same_h(exps, dts, n, i):
    got, want = _h_monomial(exps, dts, n, i), ref_h_monomial(exps, dts, n, i)
    return (got[0], dict(got[1])) == (want[0], dict(want[1]))


def test_h_closed_form_matches_the_expanded_pullback():
    # every monomial of polynomial degree <= 5 on the n-simplex, n <= 4,
    # at every vertex: 12149 cases
    cases = [(exps, dts, n, i) for n in range(5)
             for w in simplex_monomials(n, 5) for (exps, dts) in w.num
             for i in range(n + 1)]
    assert len(cases) == 12149
    assert [c for c in cases if not _same_h(*c)] == []


@given(exps=st.tuples(*[st.integers(0, 4)] * 5),
       dts=st.sets(st.integers(0, 4)), i=st.integers(0, 5))
@settings(deadline=None, max_examples=60)
def test_h_closed_form_matches_the_expanded_pullback_on_the_5_simplex(exps, dts, i):
    assert _same_h(exps, tuple(sorted(dts)), 5, i)
