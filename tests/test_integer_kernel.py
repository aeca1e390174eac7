"""The integer kernels, checked against Fractions.

``linalg.Echelon`` eliminates fraction-free on integer rows; ``freelie``
computes the enveloping quotient's reduction, product, exp and log on
integer numerators over one common denominator per series; and
``connection`` computes transport as exp(Omega), with Omega carried
along the path by a flow in the quotient's Lie coordinates.  The
``ref_*`` functions and ``ref_Echelon`` below are the plain ``Fraction``
implementations, kept as the oracle: ``ref_segment_transport`` sums the
iterated integrals of one segment as a series, and ``ref_transport``
multiplies the segments.  Every property here asks for values equal as
rationals.

The quotients cover the three shapes of echelon rows: the Heisenberg
quotient (integer rows), an ideal whose rows carry non-unit denominators
(its generator has coefficients 2 and 1/3), and the free quotient (no
rows).  Their Lie algebras have top weight 2, 5 and 4; the abelian
quotient adds top weight 1, and the free quotient of order 6 weight 6.
The connections cover coefficients that pull back to constants on
straight segments (the flat nilpotent connection) and ones that pull
back to polynomials of positive degree in s (a non-flat connection).
"""

import functools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totconn.connection import (ConnectionForm, PLPath, _transport, form_dvar,
                                form_var, transport)
from totconn.forms import PolyForm
from totconn.freelie import (EMPTY, EnvelopingQuotient, FiberLieAlgebra,
                             FreeLie, LieIdealPresentation, _length_first,
                             _table_nf, commutator, is_grouplike, lyndon_bracket)
from totconn.linalg import (Echelon, accumulate, from_scaled, lowest_terms,
                            vec_add, vec_scale)
from totconn.scalars import rat


# ---------------------------------------------------------------------
# the Fraction reference implementations
# ---------------------------------------------------------------------

class ref_Echelon:
    """The ``Fraction`` echelon: rows stored with pivot coefficient 1."""

    def __init__(self, key_order=None):
        self.key_order = key_order if key_order is not None else (lambda k: k)
        self.rows = {}  # pivot key -> row dict (pivot coefficient 1)

    def reduce(self, vec: dict) -> dict:
        vec = dict(vec)
        rows = self.rows
        for k in sorted([k for k in vec if k in rows], key=self.key_order):
            c = -vec[k]
            accumulate(vec, ((key, c * v) for key, v in rows[k].items()))
        return vec

    def insert(self, vec: dict) -> bool:
        res = self.reduce(vec)
        if not res:
            return False
        pivot = min(res, key=self.key_order)
        res = vec_scale(res, Fraction(1) / res[pivot])
        for p, row in list(self.rows.items()):
            if pivot in row:
                self.rows[p] = vec_add(row, res, -row[pivot])
        self.rows[pivot] = res
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows, key=self.key_order)

    def basis(self):
        return [self.rows[p] for p in self.pivots()]


def ref_tensor_mul(a, b, order):
    return accumulate({}, ((wa + wb, ca * cb) for wa, ca in a.items()
                           for wb, cb in b.items() if len(wa) + len(wb) <= order))


def ref_tensor_exp(x, order):
    if EMPTY in x:
        raise ValueError("exp needs a series without constant term")
    out = {EMPTY: Fraction(1)}
    power = {EMPTY: Fraction(1)}
    fact = 1
    for k in range(1, order + 1):
        power = ref_tensor_mul(power, x, order)
        if not power:
            break
        fact *= k
        coeff = Fraction(1, fact)
        accumulate(out, ((w, coeff * c) for w, c in power.items()))
    return out


def ref_tensor_log(t, order):
    if t.get(EMPTY) != 1:
        raise ValueError("log needs constant term 1")
    u = {w: c for w, c in t.items() if w != EMPTY}
    out = {}
    power = {EMPTY: Fraction(1)}
    for k in range(1, order + 1):
        power = ref_tensor_mul(power, u, order)
        if not power:
            break
        coeff = Fraction((-1) ** (k + 1), k)
        accumulate(out, ((w, coeff * c) for w, c in power.items()))
    return out


class RefQuotient:
    """The two-sided ideal's echelon, built and used with Fractions."""

    def __init__(self, free, ideal, order):
        self.order = order
        self.mod = ref_Echelon(_length_first)
        num = len(free.gen_names)
        for g in ideal.generators:
            self._insert_two_sided({w: c for w, c in g.items() if len(w) <= order}, num)

    def _insert_two_sided(self, g, num_gens):
        frontier = [g]
        self.mod.insert(g)
        while frontier:
            nxt = []
            for v in frontier:
                vmin = min((len(w) for w in v), default=self.order + 1)
                if vmin >= self.order:
                    continue
                for i in range(num_gens):
                    left = ref_tensor_mul({(i,): Fraction(1)}, v, self.order)
                    right = ref_tensor_mul(v, {(i,): Fraction(1)}, self.order)
                    for h in (left, right):
                        if h and self.mod.insert(h):
                            nxt.append(h)
            frontier = nxt


def ref_reduce(q, x):
    return q.mod.reduce({w: c for w, c in x.items() if len(w) <= q.order})


def ref_mul(q, a, b):
    return ref_reduce(q, ref_tensor_mul(ref_reduce(q, a), ref_reduce(q, b), q.order))


def ref_exp(q, x):
    return ref_reduce(q, ref_tensor_exp(ref_reduce(q, x), q.order))


def ref_log(q, t):
    return ref_reduce(q, ref_tensor_log(ref_reduce(q, t), q.order))


def ref_segment_transport(alpha, a, b, q):
    m = alpha.m
    order = q.order
    coeff_polys = {}
    svar = PolyForm.var(1, 0, varname="s", ndiff=1)
    images = []
    for j in range(m):
        img = PolyForm.const(1, a[j], varname="s", ndiff=1) + \
            svar.scale(rat(b[j]) - rat(a[j]))
        images.append(img)
    for w, form in alpha.coeffs.items():
        pulled = form.substitute(images)
        poly = {exps[0]: c for (exps, dts), c in pulled.terms.items() if dts == (0,)}
        if poly:
            for ww, c2 in lyndon_bracket(tuple(w), order).items():
                if len(ww) > order:
                    continue
                accumulate(coeff_polys.setdefault(ww, {}),
                           ((e, c * c2) for e, c in poly.items()))
    total = {EMPTY: Fraction(1)}
    current = {(): {0: Fraction(1)}}
    for r in range(1, order + 1):
        nxt = {}
        for w1, poly1 in current.items():
            for w2, poly2 in coeff_polys.items():
                if len(w1) + len(w2) > order:
                    continue
                prod = accumulate({}, ((e1 + e2, c1 * c2) for e1, c1 in poly1.items()
                                       for e2, c2 in poly2.items()))
                accumulate(nxt.setdefault(w1 + w2, {}),
                           ((e + 1, c / (e + 1)) for e, c in prod.items()))
        current = {w: p for w, p in nxt.items() if p}
        if not current:
            break
        accumulate(total, ((w, sum(poly.values(), Fraction(0)))
                           for w, poly in current.items()))
    return ref_reduce(q, total)


def ref_transport(alpha, path, q):
    total = {EMPTY: Fraction(1)}
    for a, b in zip(path.vertices, path.vertices[1:]):
        total = ref_mul(q, total, ref_segment_transport(alpha, a, b, q))
    return total


# ---------------------------------------------------------------------
# quotients and connections
# ---------------------------------------------------------------------

def heisenberg(order=5):
    """The workload's quotient: [X,[X,Y]] and [Y,[Y,X]] killed."""
    free = FreeLie(["X", "Y"], order)
    x, y = free.gen(0), free.gen(1)
    gens = [commutator(x, commutator(x, y, order), order),
            commutator(y, commutator(y, x, order), order)]
    return free, LieIdealPresentation(free, gens)


def fractional(order=5):
    """One inhomogeneous generator 2 [X,[X,Y]] + 1/3 [Y,[Y,[Y,X]]]: some
    of its echelon rows, pivot coefficient 1, carry the denominator 6."""
    free = FreeLie(["X", "Y"], order)
    x, y = free.gen(0), free.gen(1)
    xxy = commutator(x, commutator(x, y, order), order)
    yyyx = commutator(y, commutator(y, commutator(y, x, order), order), order)
    gen = vec_add(vec_add({}, xxy, Fraction(2)), yyyx, Fraction(1, 3))
    return free, LieIdealPresentation(free, [gen])


def free_quotient(order=4):
    free = FreeLie(["X", "Y"], order)
    return free, LieIdealPresentation(free, [])


def abelian(order=5):
    """[X,Y] killed: the Lie algebra has weight 1 only, so the last of the
    flow's top (J + 1) = J + 1 steps is the one that brings in A_J."""
    free = FreeLie(["X", "Y"], order)
    return free, LieIdealPresentation(free, [commutator(free.gen(0), free.gen(1), order)])


QUOTIENTS = {"heisenberg": heisenberg, "fractional": fractional,
             "free": free_quotient, "abelian": abelian}


@functools.cache
def quotient(name):
    """(env, reference) for a named quotient, built once per test run."""
    free, ideal = QUOTIENTS[name]()
    return (EnvelopingQuotient(free, ideal, free.order),
            RefQuotient(free, ideal, free.order))


def nilpotent_connection():
    """dx X + dy Y - 1/2 (x dy - y dx) [X,Y]: constant on straight segments."""
    x, y = form_var(2, 0), form_var(2, 1)
    dx, dy = form_dvar(2, 0), form_dvar(2, 1)
    half = (x.wedge(dy) - y.wedge(dx)).scale(Fraction(-1, 2))
    return ConnectionForm(2, None, {(0,): dx, (1,): dy, (0, 1): half})


def polynomial_connection():
    """x1^2 dx2 X + x1 x2 dx1 [X,Y] + dx1 Y: not flat, and its
    coefficients pull back to polynomials of degree 2 in s."""
    x, y = form_var(2, 0), form_var(2, 1)
    dx, dy = form_dvar(2, 0), form_dvar(2, 1)
    return ConnectionForm(2, None, {(0,): x.wedge(x).wedge(dy), (1,): dx,
                                    (0, 1): x.wedge(y).wedge(dx)})


CONNECTIONS = {"nilpotent": nilpotent_connection,
               "polynomial": polynomial_connection}


# ---------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------

DENOMINATORS = (1, 2, 3, 7)
quotient_names = st.sampled_from(sorted(QUOTIENTS))


def rationals(denominators=DENOMINATORS):
    return st.builds(Fraction, st.integers(-9, 9), st.sampled_from(denominators))


@st.composite
def series(draw, order, constant=None, max_terms=6):
    """A {word: Fraction} series on two letters up to ``order``, with
    ``constant`` as the empty word's coefficient (none if None)."""
    words = st.lists(st.integers(0, 1), min_size=1, max_size=order).map(tuple)
    out = draw(st.dictionaries(words, rationals(), max_size=max_terms))
    if constant is not None:
        out[EMPTY] = Fraction(constant)
    return {w: c for w, c in out.items() if c}


@st.composite
def lie_series(draw, free):
    """A combination of up to four Lyndon brackets of ``free``."""
    coords = draw(st.dictionaries(st.sampled_from(free.lyndon), rationals(), max_size=4))
    return free.from_lyndon(coords)


@st.composite
def paths(draw):
    """PL paths of 2 to 4 vertices with coordinates over 2, 3 and 7."""
    point = st.tuples(rationals((2, 3, 7)), rationals((2, 3, 7)))
    return PLPath(draw(st.lists(point, min_size=2, max_size=4)))


# ---------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------

def nonzero(vec):
    return {k: c for k, c in vec.items() if c}


SPARSE = st.dictionaries(st.integers(0, 7), rationals(), max_size=5).map(nonzero)
KEY_ORDERS = {"natural": None, "reversed": lambda k: -k}


def assert_same_echelon(vectors, probe, key_order=None):
    ech, ref = Echelon(key_order), ref_Echelon(key_order)
    for v in vectors:
        assert ech.insert(v) == ref.insert(v)
    assert ech.rank == ref.rank
    assert ech.pivots() == ref.pivots()
    assert ech.basis() == ref.basis()
    assert ech.rows == ref.rows
    assert ech.reduce(probe) == ref.reduce(probe)
    assert ech.contains(probe) == ref.contains(probe)
    assert all(type(c) is Fraction for row in ech.basis() for c in row.values())
    assert all(type(c) is Fraction for c in ech.reduce(probe).values())
    return ech


@settings(deadline=None, max_examples=100)
@given(st.lists(SPARSE, max_size=7), SPARSE, st.sampled_from(sorted(KEY_ORDERS)))
def test_echelon_matches_the_fraction_echelon(vectors, probe, order):
    assert_same_echelon(vectors, probe, KEY_ORDERS[order])


def test_echelon_keeps_primitive_integer_rows():
    # 1/2 x0 + 1/3 x1 is stored as 3 x0 + 2 x1; inserting 1/4 x1 + 1/6 x2
    # (stored as 3 x1 + 2 x2) clears x1 from it, leaving 9 x0 - 4 x2
    F = Fraction
    vectors = [{0: F(1, 2), 1: F(1, 3)}, {1: F(1, 4), 2: F(1, 6)}]
    ech = assert_same_echelon(vectors, {0: F(1), 1: F(2, 7), 2: F(-1, 3)})
    assert ech._rows == {0: (9, {2: -4}), 1: (3, {2: 2})}
    assert ech.rows == {0: {0: F(1), 2: F(-4, 9)}, 1: {1: F(1), 2: F(2, 3)}}
    assert ech.reduce({0: F(1)}) == {2: F(4, 9)}
    vectors.append({0: F(2, 3), 2: F(5, 7), 3: F(-3, 2)})
    ech = assert_same_echelon(vectors, {3: F(1, 5), 2: F(1)})
    assert all(p > 0 and math.gcd(p, *tail.values()) == 1
               for p, tail in ech._rows.values())
    assert any(p != 1 for p, _ in ech._rows.values())


def test_fractional_quotient_has_non_unit_row_denominators():
    env, _ = quotient("fractional")
    assert any(p != 1 for p, _ in env._mod._rows.values())
    env, _ = quotient("heisenberg")
    assert env._mod._rows and all(p == 1 for p, _ in env._mod._rows.values())
    env, _ = quotient("free")
    assert not env._mod._rows


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_reduce_and_eq_match_fractions(data):
    name = data.draw(quotient_names)
    env, ref = quotient(name)
    x = data.draw(series(env.order + 1))
    y = data.draw(series(env.order))
    assert env.reduce(x) == ref_reduce(ref, x)
    assert all(type(c) is Fraction for c in env.reduce(x).values())
    assert env.eq(x, y) == (ref_reduce(ref, vec_add(x, y, Fraction(-1))) == {})
    in_ideal = vec_add(x, ref_reduce(ref, x), Fraction(-1))
    assert env.eq(y, vec_add(y, in_ideal))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_mul_matches_fractions(data):
    name = data.draw(quotient_names)
    env, ref = quotient(name)
    a = data.draw(series(env.order))
    b = data.draw(series(env.order))
    assert env.mul(a, b) == ref_mul(ref, a, b)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_exp_log_inverse_match_fractions(data):
    name = data.draw(quotient_names)
    env, ref = quotient(name)
    x = data.draw(series(env.order))
    t = data.draw(series(env.order, constant=1))
    assert env.exp(x) == ref_exp(ref, x)
    assert env.log(t) == ref_log(ref, t)
    inv = ref_exp(ref, {w: -c for w, c in ref_log(ref, t).items()})
    assert env.inverse(t) == inv
    assert env.eq(env.mul(t, env.inverse(t)), {EMPTY: Fraction(1)})


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_transport_matches_fractions(data):
    name = data.draw(quotient_names)
    env, ref = quotient(name)
    alpha = CONNECTIONS[data.draw(st.sampled_from(sorted(CONNECTIONS)))]()
    path = data.draw(paths())
    a, b = path.vertices[:2]
    assert transport(alpha, PLPath([a, b]), env) == ref_segment_transport(alpha, a, b, ref)
    T = transport(alpha, path, env)
    assert T == ref_transport(alpha, path, ref)
    assert env.is_grouplike(T)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_free_quotient_matches_the_coproduct_and_the_tensor_series(data):
    # with no ideal, the unshuffle coproduct decides grouplikeness on its
    # own, and exp and log are those of the tensor algebra
    env, _ = quotient("free")
    t = {EMPTY: Fraction(1)}
    for x in data.draw(st.lists(lie_series(env.free), min_size=1, max_size=3)):
        t = env.mul(t, env.exp(x))
    word = data.draw(st.lists(st.integers(0, 1), max_size=env.order).map(tuple))
    perturbed = vec_add(t, {word: data.draw(rationals().filter(bool))})
    for probe in (t, perturbed):
        assert env.is_grouplike(probe) == is_grouplike(probe, env.order)
    assert env.is_grouplike(t)
    x = data.draw(series(env.order))
    s = data.draw(series(env.order, constant=1))
    assert env.exp(x) == ref_tensor_exp(x, env.order)
    assert env.log(s) == ref_tensor_log(s, env.order)


@pytest.mark.parametrize("name", sorted(QUOTIENTS))
def test_one_plus_a_letter_is_not_grouplike(name):
    env, _ = quotient(name)
    assert env.is_grouplike({EMPTY: Fraction(1), (0,): Fraction(1)}) is False


def test_pivot_images_scale_by_the_lcm_of_the_pivot_coefficients():
    env, _ = quotient("fractional")
    P, images = env._pivot_images
    assert P == 6 and set(images) == set(env._mod._rows)
    for w, (p, tail) in env._mod._rows.items():
        assert images[w] == {u: -(P // p) * n for u, n in tail.items()}
    env, _ = quotient("heisenberg")
    P, images = env._pivot_images
    assert P == 1 and images and all(
        images[w] == {u: -n for u, n in tail.items()}
        for w, (_, tail) in env._mod._rows.items())
    env, _ = quotient("free")
    assert env._pivot_images == (1, {})


def test_mul_onto_a_pivot_with_coefficient_six():
    # X XY = XXY is the pivot of a row with p = 6 on the fractional
    # quotient; both factors are normal forms already
    env, ref = quotient("fractional")
    F = Fraction
    a = {(0,): F(1), (0, 0): F(1, 2)}
    b = {(0, 1): F(1), (1,): F(-1, 3)}
    assert env.reduce(a) == a and env.reduce(b) == b
    assert env._mod._rows[(0, 0, 1)][0] == 6
    product = env.mul(a, b)
    assert product == ref_mul(ref, a, b)
    assert (0, 0, 1) not in product and any(c.denominator % 6 == 0
                                            for c in product.values())


# the second segment keeps x fixed (D[0] == 0), the third keeps y fixed
FIXED_PATH = PLPath([(Fraction(1, 2), Fraction(-1, 3)), (Fraction(2, 7), Fraction(5, 3)),
                     (Fraction(2, 7), Fraction(-1)), (Fraction(-3, 2), Fraction(-1))])


@pytest.mark.parametrize("alpha_name", sorted(CONNECTIONS))
@pytest.mark.parametrize("name", sorted(QUOTIENTS))
def test_transport_matches_fractions_on_a_fixed_path(name, alpha_name):
    env, ref = quotient(name)
    alpha = CONNECTIONS[alpha_name]()
    vertices = FIXED_PATH.vertices
    for a, b in zip(vertices, vertices[1:]):
        segment = _transport(alpha, PLPath([a, b]), env)
        assert lowest_terms(*segment) == segment
        assert from_scaled(segment) == ref_segment_transport(alpha, a, b, ref)
    assert _transport(alpha, PLPath(vertices[:1] * 2), env) == (1, {EMPTY: 1})
    assert transport(alpha, FIXED_PATH, env) == ref_transport(alpha, FIXED_PATH, ref)
    assert transport(alpha, PLPath(vertices[:1]), env) == {EMPTY: Fraction(1)}


@pytest.mark.parametrize("alpha_name", sorted(CONNECTIONS))
@pytest.mark.parametrize("name", sorted(QUOTIENTS))
@settings(deadline=None, max_examples=10)
@given(first=paths(), second=paths())
def test_transport_of_a_concatenation_is_the_product(name, alpha_name, first, second):
    # pins the Omega that each segment's flow hands on to the next
    env, _ = quotient(name)
    alpha = CONNECTIONS[alpha_name]()
    second = PLPath([first.end] + second.vertices[1:])
    assert transport(alpha, first.concat(second), env) == env.mul(
        transport(alpha, first, env), transport(alpha, second, env))


def test_transport_matches_fractions_on_the_free_quotient_of_order_six():
    # class 6: the flow brackets five deep, and beta_2 = 1/12 and
    # beta_4 = -1/720 both enter
    free, ideal = free_quotient(order=6)
    env, ref = EnvelopingQuotient(free, ideal, 6), RefQuotient(free, ideal, 6)
    alpha = polynomial_connection()
    assert env._lie.top == 6
    assert transport(alpha, FIXED_PATH, env) == ref_transport(alpha, FIXED_PATH, ref)


@pytest.mark.parametrize("name", sorted(QUOTIENTS))
def test_lie_structure_constants_are_quotient_commutators_of_fitting_weights(name):
    free, ideal = QUOTIENTS[name]()
    env = EnvelopingQuotient(free, ideal, free.order)
    lie = env._lie
    for alpha in CONNECTIONS.values():
        transport(alpha(), FIXED_PATH, env)
    # computed on first use only, and only for pairs of weight <= top
    assert bool(lie._constants) == (lie.top > 1)
    assert all(lie.weights[i] + lie.weights[j] <= lie.top for i, j in lie._constants)
    rows = [{w: Fraction(n) for w, n in row.items()} for row in lie._rows]
    for (i, j), coords in lie._constants.items():
        bracket = vec_add(env.mul(rows[i], rows[j]), env.mul(rows[j], rows[i]), Fraction(-1))
        from_coords = {}
        for k, n in coords.items():
            accumulate(from_coords, ((w, Fraction(n, lie.den) * c) for w, c in rows[k].items()))
        assert env.eq(bracket, from_coords)


def tail_quotients():
    """(free, ideal) of the delta-star fiber of the tail model at trunc
    2..6, whose ideal generator [a,b] + [a,[a,b]] is inhomogeneous."""
    from totconn.convolution import delta_star
    from totconn.structures import FiniteAlgebra
    path = Path(__file__).parent / "golden" / "tail_model.json"
    model = FiniteAlgebra.from_json(json.loads(path.read_text()))
    return [delta_star(model, trunc=trunc)[:2] for trunc in range(2, 7)]


def test_quotient_lie_has_the_dimension_of_the_fiber():
    # the span of the Lyndon brackets in U/I up to order n has the
    # dimension of u/I^(n+1) at every order.  Its weights are the lengths
    # of the Lyndon words that are no pivot of the ideal's span (the test
    # below), not those of the fiber's basis, which is pivoted on each
    # row's last Lyndon word: on ``fractional`` at order 4 they are
    # 1, 1, 2, 3, 4 against the fiber's 1, 1, 2, 3, 3
    cases = [QUOTIENTS[name]() for name in sorted(QUOTIENTS)] + tail_quotients()
    for free, ideal in cases:
        for order in range(1, free.order + 1):
            lie = EnvelopingQuotient(free, ideal, order)._lie
            fiber = FiberLieAlgebra(free, ideal, order + 1)
            assert len(lie.weights) == fiber.dim(), (free.order, order)


def assert_lie_basis_is_the_unpivoted_lyndon_words(free, ideal):
    """At every order n, the weights of the quotient's Lie algebra are the
    lengths of the Lyndon words b of length <= n that are no pivot of the
    ideal's span; each such b is a normal word of the quotient, and the
    table normal form of its bracket is P b plus greater words only."""
    for order in range(1, free.order + 1):
        env = EnvelopingQuotient(free, ideal, order)
        words = [w for w in free.lyndon
                 if len(w) <= order and w not in ideal.span._rows]
        assert sorted(env._lie.weights) == sorted(map(len, words)), order
        P, images = env._pivot_images
        for b in words:
            assert b not in images
            nf = _table_nf(env._pivot_images, free._bracket_elems[b])
            assert nf[b] == P
            assert all(_length_first(u) > _length_first(b) for u in nf if u != b)


def test_quotient_lie_basis_is_the_unpivoted_lyndon_words():
    for free, ideal in [QUOTIENTS[name]() for name in sorted(QUOTIENTS)] + tail_quotients():
        assert_lie_basis_is_the_unpivoted_lyndon_words(free, ideal)


@st.composite
def ideals_with_tails(draw):
    """One or two generators, each a combination of Lyndon brackets of
    mixed lengths, on two or three letters."""
    letters = draw(st.sampled_from([2, 3]))
    free = FreeLie(["X", "Y", "Z"][:letters], 5 if letters == 2 else 4)
    return free, LieIdealPresentation(
        free, draw(st.lists(lie_series(free), min_size=1, max_size=2)))


@given(ideals_with_tails())
@settings(deadline=None, max_examples=50)
def test_quotient_lie_basis_is_the_unpivoted_lyndon_words_on_random_ideals(case):
    assert_lie_basis_is_the_unpivoted_lyndon_words(*case)


def test_polynomial_connection_pulls_back_to_positive_degree():
    # the property above exercises the (e+1) rescale beyond e = 0 only if
    # some coefficient is a non-constant polynomial in s
    alpha = polynomial_connection()
    s = PolyForm.var(1, 0, varname="s", ndiff=1)
    one = PolyForm.const(1, Fraction(1), varname="s", ndiff=1)
    pulled = alpha.coeffs[(0,)].substitute([one + s.scale(Fraction(1, 2)), s])
    assert max(exps[0] for exps, _ in pulled.terms) == 2


def test_grouplike_needs_reduced_constant_term_one():
    env, _ = quotient("heisenberg")
    for t in ({EMPTY: Fraction(2)}, {}, {(0,): Fraction(1)}):
        assert env.is_grouplike(t) is False
        assert is_grouplike(t, env.order) is False
    assert env.is_grouplike({EMPTY: Fraction(1)}) is True
