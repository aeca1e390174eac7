"""Sparse exact linear algebra over the rationals.

Vectors are dicts {key: value} over arbitrary hashable keys, with
``Fraction`` (or int) values, and one rule: a zero entry is never
stored.  ``accumulate`` is the one place that adds scalars into such a
vector, in place; ``vec_add`` is its copying form.  A function mutates
only an accumulator it created itself, never an argument, an
``lru_cache`` result, a ``FiniteAlgebra.maps`` value or an ``Echelon``
row, since all of those may be shared.  Both rules cover the sums of
carrier elements too: ``structures.Carrier.sum`` builds its result in
an accumulator of its own, through ``accumulate`` for scalars,
``accumulate_scaled`` for the numerators of forms and
``structures.KeyedCarrier`` for elements keyed by word or bidegree,
which never stores a zero element either.

Elimination pivots are chosen deterministically from a fixed key order,
so all constructions downstream (Hodge decompositions, quotient bases)
are reproducible.

``multilinear_terms`` enumerates the words of a multilinear product,
such as one of a finite structure table, and multiplies out their
coefficients.  Given the table as its ``support``, it skips a word the
table does not hold before any arithmetic; the coefficient of a word it
yields is built once from the integer numerators and denominators of
its factors, and is the shared ``ONE`` when it is 1.  Like ``to_scaled``
it refuses a value without an exact numerator and denominator, such as
a float, with a TypeError, so no inexact value enters a table product.

``Echelon`` is the one elimination kernel, and it is fraction-free: it
computes on *scaled vectors* ``(den, {key: int})``, integer numerators
over one common positive denominator with no zero numerator stored.
``to_scaled`` is the way in and refuses inexact values; ``Fraction``s
are built only where a value leaves.  ``freelie`` keeps its series in
this format and reads their normal forms off an ``Echelon``'s fully
reduced rows, and ``forms.PolyForm`` stores its coefficients in it.

A *scaled accumulator* is the in-place sum of scaled vectors with
different denominators (``accumulate_scaled``): a dict of integer
numerators that also holds their running denominator under the key
``None`` while it holds any numerator, so an empty accumulator is a zero
sum, and no key of a summed vector may be ``None``.  ``scaled_sum``
gives its ``(den, num)`` back.

``Coordinates`` is the one tagged elimination: it appends a private tag
key to each input vector, and tags sort after every ordinary key, in the
order the vectors were given.  So the ordinary keys are eliminated first
under the caller's key order, and among the tags the earlier vector wins
a pivot; with the same inputs in the same order, every pivot, residual
and coordinate dict comes out the same.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


def accumulate(acc: dict, items) -> dict:
    """acc += items in place, over (key, value) pairs; returns ``acc``.

    A sum that reaches zero is deleted and a zero value is never stored
    under a new key, so a sparse ``acc`` stays sparse.
    """
    for key, v in items:
        s = acc.get(key)
        if s is None:
            if v:
                acc[key] = v
        else:
            s += v
            if s:
                acc[key] = s
            else:
                del acc[key]
    return acc


def accumulate_scaled(acc, den, items, c=1):
    """acc += c * (items / den) in place, on integers.

    ``acc`` is a scaled accumulator (see the module docstring), ``items``
    the (key, int) pairs of numerators over ``den`` and ``c`` an int or
    a ``Fraction``.  The running denominator becomes the lcm of its old
    value and the term's, and the stored numerators are rescaled only
    when it grows.  Keys come and go as in ``accumulate``: a new
    key goes to the end, and a key whose sum reaches zero is deleted.
    """
    if not c:
        return
    cn, cd = c.numerator, c.denominator
    den *= cd
    run = acc.get(None)
    if run is None:
        acc[None] = den
        if cn == 1:
            acc.update(items)
        else:
            acc.update((k, cn * v) for k, v in items)
        if len(acc) == 1:
            del acc[None]
        return
    if run != den:
        new = lcm(run, den)
        if new != run:
            f = new // run
            for k in acc:  # the running denominator too: run * f == new
                acc[k] *= f
        cn *= new // den
    get = acc.get
    for k, v in items:
        v *= cn
        s = get(k)
        if s is None:
            acc[k] = v
        else:
            s += v
            if s:
                acc[k] = s
            else:
                del acc[k]
    if len(acc) == 1:
        del acc[None]


def scaled_sum(acc):
    """The ``(den, num)`` summed in the scaled accumulator ``acc``, which
    the caller gives up; not in lowest terms."""
    return acc.pop(None, 1), acc


def vec_add(a: dict, b: dict, coeff=Fraction(1)) -> dict:
    """a + coeff*b as a new dict."""
    return accumulate(dict(a), ((k, coeff * v) for k, v in b.items()))


def vec_scale(a: dict, coeff) -> dict:
    if not coeff:
        return {}
    return {k: coeff * v for k, v in a.items()}


def multilinear_terms(vectors, support=None):
    """Yield (word, product of coefficients), one pair for each choice of
    one term from every vector, in ``itertools.product`` order.

    When ``support`` is given, only the words in it are yielded, and a
    word outside it costs no arithmetic.  The product is taken on the
    integer numerators and denominators of the coefficients and becomes
    one ``Fraction`` per word, the shared ``ONE`` when it is 1, so a
    caller may test ``coeff is ONE`` to skip a multiplication.  Every
    value is checked up front: one without an exact ``numerator`` and
    ``denominator``, such as a float, is a TypeError.
    """
    try:
        factors = [[(k, c.numerator, c.denominator) for k, c in v.items()]
                   for v in vectors]
    except AttributeError:
        raise _inexact([c for v in vectors for c in v.values()]) from None
    for combo in itertools.product(*factors):
        wrd = tuple([k for k, _, _ in combo])
        if support is not None and wrd not in support:
            continue
        n = d = 1
        for _, a, b in combo:
            n *= a
            d *= b
        yield wrd, (ONE if n == d else Fraction(n, d))


def _inexact(values):
    """The TypeError for the first of ``values`` that is not exact."""
    bad = [c for c in values
           if not (hasattr(c, "numerator") and hasattr(c, "denominator"))]
    return TypeError("exact elimination takes int or Fraction values, "
                     "not %r" % (bad[0],))


def to_scaled(vec: dict):
    """The scaled form of a {key: Fraction or int} dict, over the lcm of
    its denominators, so in lowest terms.  A value without an exact
    ``numerator`` and ``denominator``, such as a float, is a TypeError."""
    try:
        den = lcm(*[c.denominator for c in vec.values()])
        return den, {k: c.numerator * (den // c.denominator)
                     for k, c in vec.items() if c}
    except AttributeError:
        raise _inexact(vec.values()) from None


def from_scaled(s) -> dict:
    den, num = s
    if den == 1:
        return {k: Fraction(n) for k, n in num.items()}
    return {k: Fraction(n, den) for k, n in num.items()}


def lowest_terms(den, num):
    """Divide out the gcd of ``den`` and all numerators."""
    g = gcd(den, *num.values())
    if g == 1:
        return den, num
    return den // g, {k: n // g for k, n in num.items()}


def _reduce_scaled(rows, den, num):
    """num/den modulo the rows {pivot: (p, tail)} of an ``Echelon``, not
    brought to lowest terms.

    A row holds no pivot but its own, so subtracting it never changes the
    entry at another pivot: the pivots of ``num`` are eliminated once
    each, in any order.  Eliminating pivot k with entry c against a row
    with pivot coefficient p multiplies the vector by p/gcd(c, p), then
    subtracts c/gcd(c, p) times the row.
    """
    pivots = [k for k in num if k in rows]
    if not pivots:
        return den, num
    num = dict(num)
    for k in pivots:
        c = num.pop(k)
        p, tail = rows[k]
        g = gcd(c, p)
        if g != p:
            f = p // g
            den *= f
            num = {w: f * n for w, n in num.items()}
        q = c // g
        for w, r in tail.items():
            n = num.get(w, 0) - q * r
            if n:
                num[w] = n
            else:
                num.pop(w, None)
    return den, num


def _primitive(pivot, num):
    """The integer vector ``num`` as an echelon row ``(p, tail)``: divided
    by the gcd of its entries, signed so that p > 0; pops the pivot."""
    g = gcd(*num.values())
    if num[pivot] < 0:
        g = -g
    p = num.pop(pivot) // g
    return p, (num if g == 1 else {w: n // g for w, n in num.items()})


class Echelon:
    """Incrementally reduced spanning set with deterministic pivots.

    ``key_order`` maps a key to a sortable token; the pivot of a vector is
    its minimal key under that order.  Rows are fully reduced against each
    other (RREF-style), so reduction gives canonical normal forms.

    Each row is stored as ``(p, tail)``: a primitive integer row with
    coefficient p > 0 at its pivot, ``tail`` its other entries.
    """

    def __init__(self, key_order=None):
        self.key_order = key_order if key_order is not None else (lambda k: k)
        self._rows = {}  # pivot key -> (p, tail)

    def reduce_scaled(self, den, num):
        """The scaled vector num/den modulo the span, not in lowest terms."""
        return _reduce_scaled(self._rows, den, num)

    def reduce(self, vec: dict) -> dict:
        """Canonical residual of ``vec`` modulo the current span."""
        return from_scaled(lowest_terms(*self.reduce_scaled(*to_scaled(vec))))

    def insert(self, vec: dict) -> bool:
        """Add ``vec`` to the span; returns True if the rank grew."""
        _, num = self.reduce_scaled(*to_scaled(vec))
        if not num:
            return False
        pivot = min(num, key=self.key_order)
        row = _primitive(pivot, num)
        rows = self._rows
        for k, (p, tail) in list(rows.items()):
            if pivot in tail:
                rows[k] = _primitive(k, _reduce_scaled({pivot: row}, 1, {k: p, **tail})[1])
        rows[pivot] = row
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce_scaled(*to_scaled(vec))[1]

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self):
        return sorted(self._rows, key=self.key_order)

    def _row(self, pivot):
        p, tail = self._rows[pivot]
        return {pivot: Fraction(1), **{k: Fraction(n, p) for k, n in tail.items()}}

    @property
    def rows(self):
        """{pivot: row} as fresh ``Fraction`` dicts, pivot coefficient 1."""
        return {p: self._row(p) for p in self._rows}

    def basis(self):
        """The rows in pivot order, as fresh ``Fraction`` dicts."""
        return [self._row(p) for p in self.pivots()]


class _Tag:
    """The marker key of the i-th vector of a ``Coordinates``.

    A class of its own, so that no ordinary key (a tuple, say) can equal
    a tag.
    """

    __slots__ = ("i",)

    def __init__(self, i):
        self.i = i


class Coordinates:
    """Coordinates with respect to a fixed list of vectors.

    Each vector gets a tag key of its own and goes into one ``Echelon``;
    reducing a vector then leaves minus its coefficients on the tags.
    Tags sort after every ordinary key, in the order of ``vectors``.
    """

    def __init__(self, vectors, key_order=None):
        order = key_order if key_order is not None else (lambda k: k)
        self._ech = Echelon(lambda k: (1, k.i) if type(k) is _Tag else (0, order(k)))
        for i, v in enumerate(vectors):
            self._ech.insert({**v, _Tag(i): 1})

    def __call__(self, vec: dict):
        """``({i: c}, leftover)`` with vec = sum c * vectors[i] + leftover;
        the leftover is the canonical residual modulo span(vectors)."""
        coords = {}
        leftover = {}
        for k, c in self._ech.reduce(vec).items():
            if type(k) is _Tag:
                coords[k.i] = -c
            else:
                leftover[k] = c
        return coords, leftover

    def relations(self):
        """Basis {i: c} of the relations sum c * vectors[i] = 0."""
        return [{k.i: c for k, c in row.items()}
                for row in self._ech.rows.values()
                if all(type(k) is _Tag for k in row)]


def solve(rows, rhs):
    """Solve sum_i x_i * rows[i] = rhs exactly; None if inconsistent.

    ``rows`` is a list of vectors; returns a list of Fractions (one
    coefficient per row) or None.
    """
    coords, leftover = Coordinates(rows)(rhs)
    if leftover:
        return None
    return [coords.get(i, Fraction(0)) for i in range(len(rows))]


def intersect_spans(vectors_a, vectors_b, key_order=None):
    """Basis of span(A) ∩ span(B) for linearly independent A and B.

    Each relation sum a_i A_i + sum b_j B_j = 0 gives the element
    sum a_i A_i of the intersection.
    """
    vectors_a = list(vectors_a)
    out = []
    for rel in Coordinates(vectors_a + list(vectors_b), key_order).relations():
        v = {}
        for i, c in rel.items():
            if i < len(vectors_a):
                accumulate(v, ((k, c * x) for k, x in vectors_a[i].items()))
        out.append(v)
    return out
