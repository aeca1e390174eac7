"""Property tests for the exact linear algebra in ``totconn.linalg``.

Vectors are random sparse dicts over the keys 0..5 with small integer
coefficients, so dependent families and inconsistent systems both occur
often.
"""

import copy
import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totconn.freelie import (FiberLieAlgebra, FreeLie, LieIdealPresentation,
                             commutator)
from totconn.graded import GradedVectorSpace
from totconn.linalg import (Coordinates, Echelon, accumulate, intersect_spans,
                            multilinear_terms, solve, vec_add)
from totconn.structures import FiniteAlgebra, InfinityMorphism
from totconn.transfer import nc_structure

COEFF = st.integers(-3, 3).filter(bool).map(Fraction)
VEC = st.dictionaries(st.integers(0, 5), COEFF, max_size=6)
VECS = st.lists(VEC, max_size=6)
# (key, value) pairs whose values may be zero, as a sum may present them
ITEMS = st.lists(st.tuples(st.integers(0, 5), st.integers(-3, 3).map(Fraction)),
                 max_size=12)


def combine(vectors, coeffs):
    """sum coeffs[i] * vectors[i], for a list or an {i: c} dict."""
    items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
    out = {}
    for i, c in items:
        out = vec_add(out, vectors[i], c)
    return out


def echelon(vectors):
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech


def dense(vec):
    return [vec.get(k, Fraction(0)) for k in range(6)]


def dense_rank(vectors):
    """Rank by plain Gaussian elimination on dense rows over keys 0..5."""
    rows = [dense(v) for v in vectors]
    rank = 0
    for col in range(6):
        pivot = next((r for r in rows[rank:] if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1:]:
            f = r[col] / pivot[col]
            r[:] = [a - f * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


@given(VEC, ITEMS)
@settings(deadline=None, max_examples=100)
def test_accumulate_is_the_dense_sum_without_zeros(start, items):
    acc = dict(start)
    assert accumulate(acc, items) is acc
    want = dense(start)
    for k, v in items:
        want[k] += v
    assert dense(acc) == want
    assert all(v for v in acc.values())


@given(VEC, VEC, st.integers(-2, 2).map(Fraction))
@settings(deadline=None, max_examples=100)
def test_vec_add_is_the_dense_sum_and_copies(a, b, c):
    a0, b0 = dict(a), dict(b)
    out = vec_add(a, b, c)
    assert (a, b) == (a0, b0)
    assert out is not a
    assert dense(out) == [x + c * y for x, y in zip(dense(a), dense(b))]
    assert all(v for v in out.values())


@given(VECS, VEC, st.lists(st.integers(-3, 3), min_size=6, max_size=6))
@settings(deadline=None, max_examples=100)
def test_reduce_leaves_no_pivot_and_removes_an_element_of_the_span(vectors, vec, xs):
    ech = echelon(vectors)
    vec0 = dict(vec)
    res = ech.reduce(vec)
    assert vec == vec0
    assert not set(res) & set(ech.pivots())
    assert all(v for v in res.values())
    removed = vec_add(vec, res, Fraction(-1))
    assert dense_rank(vectors + [removed]) == dense_rank(vectors) == ech.rank
    # canonical: adding an element of the span does not change the residual
    assert ech.reduce(vec_add(vec, combine(vectors, xs[:len(vectors)]))) == res


@given(VECS, VECS)
@settings(deadline=None, max_examples=100)
def test_basis_rows_are_not_changed_by_later_inserts(first, later):
    ech = echelon(first)
    rows = ech.basis()
    snapshot = copy.deepcopy(rows)
    for v in later:
        ech.insert(v)
    assert rows == snapshot


@st.composite
def algebra_and_elements(draw):
    """A FiniteAlgebra with a random m_k on degree-0 keys, k <= 3, and k
    random degree-0 elements."""
    k = draw(st.integers(1, 3))
    space = GradedVectorSpace({-1: ["u", "w"], 0: ["a", "b", "c"], 1: ["x", "y"]})
    ins, outs = space.keys(0), space.keys(2 - k)
    table = {wrd: draw(st.dictionaries(st.sampled_from(outs), COEFF, max_size=2))
             for wrd in itertools.product(ins, repeat=k)}
    elem = st.dictionaries(st.sampled_from(ins), COEFF, min_size=1)
    return FiniteAlgebra(space, maps={k: table}), k, [draw(elem) for _ in range(k)]


@given(algebra_and_elements())
@settings(deadline=None, max_examples=100)
def test_finite_algebra_m_is_multilinear_and_leaves_maps_unchanged(case):
    alg, k, elems = case
    maps = copy.deepcopy(alg.maps)
    got = alg.m(k, elems)
    assert alg.maps == maps
    want = {}
    for combo in itertools.product(*[e.items() for e in elems]):
        coeff = Fraction(1)
        for _, c in combo:
            coeff *= c
        for key, v in maps.get(k, {}).get(tuple(key for key, _ in combo), {}).items():
            want[key] = want.get(key, 0) + coeff * v
    assert got == {key: v for key, v in want.items() if v}
    assert alg.m(k, elems) == got and alg.maps == maps


def ref_multilinear_terms(vectors):
    """One Fraction product per word, over every word, in
    ``itertools.product`` order."""
    for combo in itertools.product(*[list(v.items()) for v in vectors]):
        coeff = Fraction(1)
        for _, c in combo:
            coeff *= c
        yield tuple(key for key, _ in combo), coeff


@st.composite
def vectors_and_support(draw):
    """1-3 vectors over keys 0..3 with Fraction or int values, and a
    support mapping holding a random subset of their words."""
    coeff = st.one_of(COEFF, st.integers(-3, 3).filter(bool),
                      st.sampled_from([Fraction(1, 2), Fraction(-2, 3), 1]))
    vectors = draw(st.lists(st.dictionaries(st.integers(0, 3), coeff, max_size=3),
                            min_size=1, max_size=3))
    words = list(itertools.product(*vectors))
    support = {w: None for w in words if draw(st.booleans())}
    if draw(st.booleans()):
        support[(9,) * len(vectors)] = None  # a word no choice of terms makes
    return vectors, support


@given(vectors_and_support())
@settings(deadline=None, max_examples=100)
def test_multilinear_terms_on_a_support_filter_the_full_enumeration(case):
    vectors, support = case
    full = list(multilinear_terms(vectors))
    assert full == list(ref_multilinear_terms(vectors))
    assert list(multilinear_terms(vectors, support)) == \
        [(w, c) for w, c in full if w in support]
    assert all(type(c) is Fraction for _, c in full)


def unit_probes(alg, k):
    """Every word of k unit basis vectors of the algebra's degree-0 keys."""
    return [[{key: Fraction(1)} for key in wrd]
            for wrd in itertools.product(alg.space.keys(0), repeat=k)]


@given(algebra_and_elements())
@settings(deadline=None, max_examples=100)
def test_table_products_give_fractions_on_all_unit_probes_too(case):
    alg, k, elems = case
    target = FiniteAlgebra(alg.space)
    mor = InfinityMorphism(alg, target, tables=alg.maps)
    for probe in [elems] + unit_probes(alg, k):
        assert all(type(c) is Fraction for _, c in multilinear_terms(probe, alg.maps.get(k, {})))
        for out in (alg.m(k, probe), mor.apply(k, probe)):
            assert all(type(v) is Fraction for v in out.values())
    assert mor.apply(k, elems) == alg.m(k, elems)


def nc_product_on_a_float():
    """m_2 of the transferred interval structure on (0.5 v1, L01)."""
    return nc_structure(1, 3).algebra.m(2, [{(0, "v1"): 0.5}, {(1, "L01"): Fraction(1)}])


def table_morphism_on_a_float():
    space = GradedVectorSpace({0: ["a", "b"]})
    table = {((0, "a"), (0, "b")): {(0, "a"): Fraction(1)}}
    mor = InfinityMorphism(FiniteAlgebra(space), FiniteAlgebra(space), tables={2: table})
    return mor.apply(2, [{(0, "a"): Fraction(1)}, {(0, "b"): 0.5}])


@given(VECS, st.lists(st.integers(-3, 3), min_size=6, max_size=6))
@settings(deadline=None, max_examples=100)
def test_solve_finds_a_solution_when_one_exists(rows, xs):
    rhs = combine(rows, xs[:len(rows)])
    y = solve(rows, rhs)
    assert y is not None and len(y) == len(rows)
    assert combine(rows, y) == rhs


@given(VECS, VEC)
@settings(deadline=None, max_examples=100)
def test_solve_is_none_exactly_outside_the_span(rows, rhs):
    y = solve(rows, rhs)
    assert (y is None) == (not echelon(rows).contains(rhs))
    if y is not None:
        assert combine(rows, y) == rhs


@given(VECS, VEC)
@settings(deadline=None, max_examples=100)
def test_coordinates_split_off_the_canonical_residual(vectors, vec):
    coords, leftover = Coordinates(vectors)(vec)
    assert vec_add(combine(vectors, coords), leftover) == vec
    assert leftover == echelon(vectors).reduce(vec)
    assert all(c for c in coords.values())


@given(VECS)
@settings(deadline=None, max_examples=100)
def test_relations_are_a_basis_of_the_dependencies(vectors):
    rels = Coordinates(vectors).relations()
    for rel in rels:
        assert rel and combine(vectors, rel) == {}
    assert len(rels) == len(vectors) - echelon(vectors).rank
    assert echelon(rels).rank == len(rels)


@given(VECS, VECS)
@settings(deadline=None, max_examples=100)
def test_intersection_dimension(a, b):
    # intersect_spans wants each family linearly independent
    a, b = echelon(a).basis(), echelon(b).basis()
    inter = intersect_spans(a, b)
    assert len(inter) == len(a) + len(b) - echelon(a + b).rank
    ech_a, ech_b = echelon(a), echelon(b)
    for v in inter:
        assert v and ech_a.contains(v) and ech_b.contains(v)


def test_tuple_keys_never_collide_with_the_tags():
    # tuples shaped like the tag keys of an elimination are ordinary keys
    key = ("_coeff_", 0)
    assert solve([{key: Fraction(1)}], {key: Fraction(2)}) == [Fraction(2)]
    assert solve([{0: Fraction(1)}], {key: Fraction(1)}) is None
    assert Coordinates([{("s", 0): Fraction(1)}, {("s", 0): Fraction(2)}]).relations() \
        == [{0: Fraction(1), 1: Fraction(-1, 2)}]


@pytest.mark.parametrize("call", [
    lambda: Echelon().insert({"a": 0.5}),
    lambda: Echelon().reduce({"a": 0.5}),
    lambda: Coordinates([{"a": 0.5}]),
    lambda: solve([{"a": Fraction(1)}], {"a": 0.5}),
    lambda: list(multilinear_terms([{"a": Fraction(1)}, {"b": 0.5}])),
    lambda: list(multilinear_terms([{"a": 0.5}], support={})),
    nc_product_on_a_float,
    table_morphism_on_a_float,
], ids=["insert", "reduce", "coordinates", "solve", "multilinear_terms",
        "multilinear_terms_off_support", "finite_algebra_m", "morphism_apply"])
def test_inexact_scalars_are_refused(call):
    with pytest.raises(TypeError, match="0.5"):
        call()


def test_rows_read_from_an_echelon_cannot_change_it():
    # rows x0 - 6 x2 and x1 + 3 x2
    ech = echelon([{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1, 3), 2: Fraction(1)}])
    probes = [{0: Fraction(1), 1: Fraction(1), 2: Fraction(1)},
              {0: Fraction(1), 2: Fraction(-6)}]

    def state():
        return ([ech.reduce(v) for v in probes], [ech.contains(v) for v in probes],
                ech.rank, ech.rows)

    before = state()
    assert before[1] == [False, True]
    ech.basis()[0][2] = Fraction(5)
    ech.rows[1].clear()
    assert state() == before


@functools.lru_cache(maxsize=None)
def fibers():
    out = []
    free = FreeLie(["X", "Y"], 4)
    g1 = commutator(free.gen(0), commutator(free.gen(0), free.gen(1), 4), 4)
    g2 = commutator(free.gen(1), commutator(free.gen(1), free.gen(0), 4), 4)
    out.append(FiberLieAlgebra(free, LieIdealPresentation(free, [g1, g2]), 4))
    free = FreeLie(["X", "Y", "Z"], 3)
    out.append(FiberLieAlgebra(free, LieIdealPresentation(free, []), 4))
    ideal = LieIdealPresentation(free, [commutator(free.gen(0), free.gen(1), 3)])
    out.append(FiberLieAlgebra(free, ideal, 4))
    return tuple(out)


@st.composite
def fiber_coordinates(draw):
    fib = fibers()[draw(st.integers(0, 2))]
    words = draw(st.lists(st.sampled_from(fib.basis), unique=True))
    return fib, {w: draw(COEFF) for w in words}


@given(fiber_coordinates())
@settings(deadline=None, max_examples=100)
def test_normal_form_inverts_from_lyndon(case):
    fib, coords = case
    assert fib.normal_form(fib.free.from_lyndon(coords)) == coords
    assert fib.free.to_lyndon(fib.free.from_lyndon(coords)) == coords


INT_VECS = st.lists(st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool),
                                    max_size=6), max_size=6)


def exact(value):
    return type(value) in (int, Fraction)


@given(INT_VECS, st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                          min_size=1, max_size=3))
@settings(deadline=None, max_examples=100)
def test_int_inputs_give_exact_rows(vectors, lie_coeffs):
    # rows are normalized by an exact reciprocal, never 1 / int
    ech = echelon(vectors)
    assert all(exact(c) for row in ech.rows.values() for c in row.values())
    assert all(exact(c) for row in ech.basis() for c in ech.reduce(row).values())
    free = FreeLie(["x", "y"], 4)
    xy = commutator(free.gen(0), free.gen(1), 4)
    xxy = commutator(free.gen(0), xy, 4)
    generators = []
    for a, b in lie_coeffs:
        g = accumulate({}, [(w, a * int(c)) for w, c in xy.items()]
                       + [(w, b * int(c)) for w, c in xxy.items()])
        if g:
            generators.append(g)
    ideal = LieIdealPresentation(free, generators)
    assert all(exact(c) for row in ideal.span.rows.values() for c in row.values())
