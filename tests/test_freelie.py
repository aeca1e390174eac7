from fractions import Fraction

import pytest

from totconn.freelie import (EMPTY, EnvelopingQuotient, FiberLieAlgebra,
                             FreeLie, LieIdealPresentation, TruncationError,
                             bch, commutator, is_grouplike, is_primitive,
                             lyndon_bracket, lyndon_words, tensor_exp,
                             tensor_log, tensor_mul)
from totconn.linalg import vec_add, vec_scale


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


def test_exp_log_roundtrip():
    x = {(0,): Fraction(1), (1,): Fraction(1, 2), (0, 1): Fraction(-1, 3)}
    order = 4
    t = tensor_exp(x, order)
    assert tensor_log(t, order) == x


def test_bch_low_orders():
    order = 3
    x = {(0,): Fraction(1)}
    y = {(1,): Fraction(1)}
    z = bch(x, y, order)
    # z = x + y + [x,y]/2 + [x,[x,y]]/12 + [y,[y,x]]/12
    want = vec_add(x, y)
    want = vec_add(want, commutator(x, y, order), Fraction(1, 2))
    want = vec_add(want, commutator(x, commutator(x, y, order), order), Fraction(1, 12))
    want = vec_add(want, commutator(y, commutator(y, x, order), order), Fraction(1, 12))
    assert z == want


def test_bch_inverse():
    order = 4
    x = {(0,): Fraction(2), (1,): Fraction(-1)}
    z = bch(x, vec_scale(x, Fraction(-1)), order)
    assert z == {}


def test_bch_is_lie_element():
    free = FreeLie(["x", "y"], 4)
    z = bch(free.gen(0), free.gen(1), 4)
    assert free.is_lie_element(z)


def test_primitivity():
    free = FreeLie(["x", "y"], 3)
    assert is_primitive(commutator(free.gen(0), free.gen(1), 3), 3)
    assert not is_primitive({(0, 1): Fraction(1)}, 3)


def test_grouplike_exp():
    order = 4
    x = {(0,): Fraction(1), (0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}
    assert is_grouplike(tensor_exp(x, order), order)
    bad = tensor_exp(x, order)
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
    # the echelon of the Lyndon brackets' table normal forms, which
    # is_grouplike reduces against, is built on the first call and reused
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
