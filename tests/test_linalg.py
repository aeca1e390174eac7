"""Property tests for the exact linear algebra in ``totconn.linalg``.

Vectors are random sparse dicts over the keys 0..5 with small integer
coefficients, so dependent families and inconsistent systems both occur
often.
"""

import functools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from totconn.freelie import (FiberLieAlgebra, FreeLie, LieIdealPresentation,
                             commutator)
from totconn.linalg import (Coordinates, Echelon, intersect_spans, solve,
                            vec_add)

COEFF = st.integers(-3, 3).filter(bool).map(Fraction)
VEC = st.dictionaries(st.integers(0, 5), COEFF, max_size=6)
VECS = st.lists(VEC, max_size=6)


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
