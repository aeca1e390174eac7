import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totconn.freelie import (EMPTY, EnvelopingQuotient, FiberLieAlgebra,
                             FreeLie, LieIdealPresentation, TruncationError,
                             _length_first, commutator, is_grouplike,
                             lyndon_bracket, lyndon_words)
from totconn.linalg import Coordinates, Echelon, accumulate, vec_add
from totconn.scalars import rat


def test_free_lie_table_holds_every_truncation_of_a_bracket():
    # a Lyndon bracket is homogeneous of its word's length, so truncating
    # it at any order from that length up changes nothing
    free = FreeLie(["x", "y", "z"], 5)
    for w in free.lyndon:
        for order in range(len(w), free.order + 1):
            assert free.from_lyndon({w: 1}) == lyndon_bracket(w, order)


@pytest.mark.parametrize("letters", [2, 3])
def test_bracket_table_matches_the_recursive_bracket(letters):
    free = FreeLie(["x", "y", "z"][:letters], 7)
    for w in free.lyndon:
        assert free._bracket_elems[w] == lyndon_bracket(w, free.order)


def test_bracket_table_takes_one_commutator_per_bracket(monkeypatch):
    from totconn import freelie
    calls = []

    def counted(a, b, order):
        calls.append(order)
        return commutator(a, b, order)

    monkeypatch.setattr(freelie, "commutator", counted)
    free = FreeLie(["x", "y"], 5)
    assert len(calls) == sum(len(w) > 1 for w in free.lyndon) == 12


def test_lyndon_word_counts():
    # Witt numbers for 2 letters: 2, 1, 2, 3, 6
    words = lyndon_words(2, 5)
    by_len = {}
    for w in words:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    assert by_len == {1: 2, 2: 1, 3: 2, 4: 3, 5: 6}


def test_lyndon_bracket_expansion():
    # [x,[x,y]] for the Lyndon word (0,0,1)
    b = lyndon_bracket((0, 0, 1))
    assert b == {(0, 0, 1): Fraction(1), (0, 1, 0): Fraction(-2), (1, 0, 0): Fraction(1)}


def test_grouplike_exp():
    order = 4
    free = FreeLie(["x", "y"], order)
    tensor = EnvelopingQuotient(free, LieIdealPresentation(free, []), order)
    x = {(0,): Fraction(1), (0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}
    assert is_grouplike(tensor.exp(x), order)
    bad = tensor.exp(x)
    bad[(0, 1)] = bad.get((0, 1), Fraction(0)) + 1
    assert not is_grouplike(bad, order)


def test_free_lie_on_one_generator_is_abelian():
    free = FreeLie(["x"], 5)
    assert free.graded_dims() == {1: 1}


def test_ideal_and_quotients_torus():
    free = FreeLie(["x", "y"], 5)
    gen = commutator(free.gen(0), free.gen(1), 5)
    ideal = LieIdealPresentation(free, [gen])
    for k in (2, 3, 4, 5):
        fib = FiberLieAlgebra(free, ideal, k)
        assert fib.dim() == 2, k
        assert fib.check_jacobi() == []
    fib = FiberLieAlgebra(free, ideal, 4)
    assert fib.bracket({(0,): Fraction(1)}, {(1,): Fraction(1)}) == {}


def test_ideal_zero_gives_free_quotients():
    free = FreeLie(["x", "y"], 4)
    ideal = LieIdealPresentation(free, [])
    fib = FiberLieAlgebra(free, ideal, 4)
    # dims 2 + 1 + 2 below length 4
    assert fib.graded_dims() == {1: 2, 2: 1, 3: 2}
    assert fib.check_jacobi() == []


def test_heisenberg_quotient_dims():
    free = FreeLie(["a", "b"], 4)
    g1 = commutator(free.gen(0), commutator(free.gen(0), free.gen(1), 4), 4)
    g2 = commutator(free.gen(1), commutator(free.gen(1), free.gen(0), 4), 4)
    ideal = LieIdealPresentation(free, [g1, g2])
    fib = FiberLieAlgebra(free, ideal, 4)
    assert fib.graded_dims() == {1: 2, 2: 1}
    assert fib.dim() == 3
    # the central element kills further brackets
    z = fib.bracket({(0,): Fraction(1)}, {(1,): Fraction(1)})
    assert z
    assert fib.bracket({(0,): Fraction(1)}, z) == {}


def test_nonhomogeneous_generator_triangular():
    # generator with a tail: [x,y] + [x,[x,y]] acts like [x,y] by triangularity
    free = FreeLie(["x", "y"], 4)
    gen = vec_add(commutator(free.gen(0), free.gen(1), 4),
                  commutator(free.gen(0), commutator(free.gen(0), free.gen(1), 4), 4))
    ideal = LieIdealPresentation(free, [gen])
    fib = FiberLieAlgebra(free, ideal, 4)
    assert fib.dim() == 2
    assert fib.bracket({(0,): Fraction(1)}, {(1,): Fraction(1)}) == {}


def test_enveloping_quotient_torus():
    free = FreeLie(["x", "y"], 4)
    gen = commutator(free.gen(0), free.gen(1), 4)
    ideal = LieIdealPresentation(free, [gen])
    env = EnvelopingQuotient(free, ideal, 4)
    x = {(0,): Fraction(1)}
    y = {(1,): Fraction(1)}
    ex = env.exp(x)
    ey = env.exp(y)
    commut = env.mul(env.mul(ex, ey), env.mul(env.inverse(ex), env.inverse(ey)))
    assert env.eq(commut, {EMPTY: Fraction(1)})
    assert env.is_grouplike(ex)


def test_enveloping_quotient_free_not_abelian():
    free = FreeLie(["x", "y"], 3)
    ideal = LieIdealPresentation(free, [])
    env = EnvelopingQuotient(free, ideal, 3)
    ex = env.exp({(0,): Fraction(1)})
    ey = env.exp({(1,): Fraction(1)})
    commut = env.mul(env.mul(ex, ey), env.mul(env.inverse(ex), env.inverse(ey)))
    assert not env.eq(commut, {EMPTY: Fraction(1)})
    assert env.is_grouplike(commut)


def test_enveloping_order_above_the_free_truncation_is_refused():
    # the ideal's generators and the Lyndon brackets stop at the free
    # order: a longer quotient called exp(X) exp(Y) not grouplike
    free = FreeLie(["X", "Y"], 3)
    with pytest.raises(TruncationError):
        EnvelopingQuotient(free, LieIdealPresentation(free, []), 5)
    env = EnvelopingQuotient(free, LieIdealPresentation(free, []), 3)
    assert env.is_grouplike(env.mul(env.exp(free.gen(0)), env.exp(free.gen(1))))


@pytest.mark.parametrize("abelian", [False, True])
def test_enveloping_is_grouplike_repeats_on_one_quotient(abelian):
    # the quotient's QuotientLie, whose echelon of the Lyndon brackets'
    # table normal forms is_grouplike reduces against, is built on the
    # first call and reused
    free = FreeLie(["x", "y"], 4)
    gens = [commutator(free.gen(0), free.gen(1), 4)] if abelian else []
    env = EnvelopingQuotient(free, LieIdealPresentation(free, gens), 4)
    lie = vec_add(free.gen(0), commutator(free.gen(0), free.gen(1), 4), Fraction(-3))
    grouplike = env.exp(lie)
    not_grouplike = {EMPTY: Fraction(1), (0,): Fraction(2)}  # 1 + 2x
    for _ in range(2):
        assert env.is_grouplike(grouplike)
        assert not env.is_grouplike(not_grouplike)


def test_float_coefficients_are_refused():
    # coefficients are coerced with ``rat``, so a float never reaches the
    # exact core (it used to be stored, and normalized to 1.0, -1.0)
    free = FreeLie(["x", "y"], 4)
    half = {(0, 1): 0.5, (1, 0): -0.5}
    with pytest.raises(TypeError):
        free.to_lyndon(half)
    with pytest.raises(TypeError):
        LieIdealPresentation(free, [half])


def test_int_and_fraction_coefficients_stay_exact():
    free = FreeLie(["x", "y"], 4)
    ideal = LieIdealPresentation(free, [{(0, 1): 2, (1, 0): -2}])
    assert ideal.generators == [{(0, 1): Fraction(2), (1, 0): Fraction(-2)}]
    assert all(type(c) is Fraction for g in ideal.generators for c in g.values())
    assert free.to_lyndon({(0, 1): 1, (1, 0): -1}) == {(0, 1): Fraction(1)}
    assert free.to_lyndon({(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}) \
        == {(0, 1): Fraction(1, 2)}


# ---------------------------------------------------------------------
# the eliminations that Lyndon coordinates are read off without, kept
# here as references: a tagged elimination over every bracket, the ideal
# closed in tensor words, and the fiber chosen by three echelons
# ---------------------------------------------------------------------

def ref_to_lyndon(free, x):
    """Lyndon coordinates by one tagged elimination over every bracket."""
    brackets = [free.from_lyndon({w: 1}) for w in free.lyndon]
    coords, leftover = Coordinates(brackets, _length_first)(
        {w: rat(c) for w, c in x.items()})
    return None if leftover else {free.lyndon[i]: c for i, c in coords.items()}


def ref_ideal_span(free, generators):
    """The ideal's span in tensor words: the generators, then commutators
    with every letter until the rank stops growing."""
    span = Echelon(_length_first)
    for g in generators:
        span.insert(g)
    grew = True
    while grew:
        grew = False
        for row in span.basis():
            for i in range(len(free.gen_names)):
                grew |= span.insert(commutator(free.gen(i), row, free.order))
    return span


def ref_fiber(free, span, k):
    """(basis, normal form) of u/I^k: the ideal cut below k, the brackets
    kept greedily when independent of it and of the brackets before them,
    and coordinates on their reduced forms."""
    mod = Echelon(_length_first)
    for row in span.basis():
        mod.insert({w: c for w, c in row.items() if len(w) < k})
    basis, reduced = [], []
    indep = Echelon(_length_first)
    for w in free.lyndon:
        if len(w) < k:
            red = mod.reduce(free.from_lyndon({w: 1}))
            if indep.insert(red):
                basis.append(w)
                reduced.append(red)
    coordinates = Coordinates(reduced, _length_first)

    def normal_form(x):
        coords, leftover = coordinates(mod.reduce({w: c for w, c in x.items() if len(w) < k}))
        assert not leftover
        return {basis[i]: c for i, c in coords.items()}
    return basis, normal_form


@functools.lru_cache(maxsize=None)
def free_lie(letters, order):
    return FreeLie("xyz"[:letters], order)


SMALL = st.integers(-3, 3).map(Fraction)


@st.composite
def lie_elements(draw, free):
    """A random Lie element: a combination of Lyndon brackets, several
    lengths at once, so that it has tails."""
    words = draw(st.lists(st.sampled_from(free.lyndon), max_size=8, unique=True))
    return free.from_lyndon({w: draw(SMALL) for w in words})


@st.composite
def lyndon_inputs(draw):
    letters = draw(st.integers(2, 3))
    free = free_lie(letters, draw(st.integers(2, 10 - 2 * letters)))
    x = draw(lie_elements(free))
    kind = draw(st.sampled_from(["lie", "lie", "word", "long", "empty"]))
    letters = st.integers(0, len(free.gen_names) - 1)
    if kind == "word":
        # a tensor word that is not a Lie element unless it is a letter
        w = tuple(draw(st.lists(letters, min_size=1, max_size=free.order)))
        accumulate(x, [(w, draw(SMALL))])
    elif kind == "long":
        w = tuple(draw(st.lists(letters, min_size=free.order + 1,
                                max_size=free.order + 1)))
        accumulate(x, [(w, Fraction(1))])
    elif kind == "empty":
        accumulate(x, [(EMPTY, draw(SMALL))])
    return free, x


@given(lyndon_inputs())
@settings(deadline=None, max_examples=150)
def test_to_lyndon_matches_the_tagged_elimination(case):
    free, x = case
    got = free.to_lyndon(x)
    assert got == ref_to_lyndon(free, x)
    if got is not None:
        assert free.from_lyndon(got) == x


@pytest.mark.parametrize("letters, order", [(2, 6), (3, 4)])
def test_every_bracket_reads_as_its_own_word(letters, order):
    # brackets of distinct Lyndon words share tensor words when the words
    # have the same letters, such as [x,[y,z]] and [[x,z],y]
    free = free_lie(letters, order)
    for w in free.lyndon:
        assert free.to_lyndon(free.from_lyndon({w: 1})) == {w: Fraction(1)}


@pytest.mark.parametrize("letters", [2, 3])
def test_to_lyndon_refuses_floats_as_the_elimination_did(letters):
    free = free_lie(letters, 3)
    half = {(0, 1): 0.5, (1, 0): -0.5}
    with pytest.raises(TypeError):
        free.to_lyndon(half)
    with pytest.raises(TypeError):
        ref_to_lyndon(free, half)


@st.composite
def ideals(draw):
    """A free Lie algebra and up to three Lie generators.  Each starts at
    length 1 or 2 with one or two brackets, so that which of them a basis
    keeps is a choice, and most carry a tail of longer brackets."""
    free = free_lie(draw(st.integers(2, 3)), draw(st.integers(3, 4)))
    generators = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(1, 2))
        head = draw(st.lists(st.sampled_from([w for w in free.lyndon if len(w) == n]),
                             min_size=1, max_size=2, unique=True))
        tail = draw(st.lists(st.sampled_from([w for w in free.lyndon if len(w) > n]),
                             max_size=3, unique=True))
        coords = {w: draw(SMALL) for w in tail}
        coords.update((w, Fraction(draw(st.integers(1, 2)))) for w in head)
        generators.append(free.from_lyndon(coords))
    return free, generators


@given(ideals(), st.data())
@settings(deadline=None, max_examples=60)
def test_ideal_contains_matches_the_tensor_word_closure(case, data):
    free, generators = case
    ideal = LieIdealPresentation(free, generators)
    ref = ref_ideal_span(free, generators)
    assert ideal.span.pivots() == ref.pivots()
    rows = ref.basis()
    for _ in range(4):
        x = {}
        for row in data.draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []:
            accumulate(x, ((w, data.draw(SMALL) * c) for w, c in row.items()))
        if data.draw(st.booleans()):
            accumulate(x, data.draw(lie_elements(free)).items())
        if data.draw(st.booleans()):
            accumulate(x, [((0, 1, 1), Fraction(1))])  # no Lie element
        assert ideal.contains(x) == ref.contains(x)


@given(ideals(), st.data())
@settings(deadline=None, max_examples=60)
def test_fiber_matches_the_three_echelon_construction(case, data):
    free, generators = case
    ideal = LieIdealPresentation(free, generators)
    ref = ref_ideal_span(free, generators)
    for k in range(2, free.order + 2):
        fib = FiberLieAlgebra(free, ideal, k)
        basis, normal_form = ref_fiber(free, ref, k)
        assert fib.basis == basis
        assert fib.dims_per_k() == {kk: len(ref_fiber(free, ref, kk)[0])
                                    for kk in range(2, k + 1)}
        for _ in range(3):
            x = data.draw(lie_elements(free))
            assert fib.normal_form(x) == normal_form(x)
