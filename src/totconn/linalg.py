"""Sparse exact linear algebra over the rationals.

Vectors are dicts {key: value} over arbitrary hashable keys, with
``Fraction`` (or int) values, and one rule: a zero entry is never
stored.  ``accumulate`` is the one place that adds scalars into such a
vector, in place; ``vec_add`` is its copying form.  A function mutates
only an accumulator it created itself, never an argument, an
``lru_cache`` result, a ``FiniteAlgebra.maps`` value or an ``Echelon``
row, since all of those may be shared.  Both rules cover the sums of
carrier elements too: ``structures.Carrier.sum`` builds its result in
an accumulator of its own, through ``accumulate`` for scalars and
``structures.KeyedCarrier`` for elements keyed by word or bidegree,
which never stores a zero element either.

Elimination pivots are chosen deterministically from a fixed key order,
so all constructions downstream (Hodge decompositions, quotient bases)
are reproducible.

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


def vec_add(a: dict, b: dict, coeff=Fraction(1)) -> dict:
    """a + coeff*b as a new dict."""
    return accumulate(dict(a), ((k, coeff * v) for k, v in b.items()))


def vec_scale(a: dict, coeff) -> dict:
    if not coeff:
        return {}
    return {k: coeff * v for k, v in a.items()}


def multilinear_terms(vectors):
    """Yield (word, product of coefficients), one pair for each choice of
    one term from every vector, in ``itertools.product`` order."""
    for combo in itertools.product(*[list(v.items()) for v in vectors]):
        coeff = Fraction(1)
        for _, c in combo:
            coeff *= c
        yield tuple(key for key, _ in combo), coeff


class Echelon:
    """Incrementally reduced spanning set with deterministic pivots.

    ``key_order`` maps a key to a sortable token; the pivot of a vector is
    its minimal key under that order.  Rows are fully reduced against each
    other (RREF-style), so reduction gives canonical normal forms.
    """

    def __init__(self, key_order=None):
        self.key_order = key_order if key_order is not None else (lambda k: k)
        self.rows = {}  # pivot key -> row dict (pivot coefficient 1)

    def reduce(self, vec: dict) -> dict:
        """Canonical residual of ``vec`` modulo the current span.

        Rows hold no pivot but their own, so subtracting one never brings
        in another pivot: one pass over the pivots of ``vec``, in key
        order, leaves the residual.
        """
        vec = dict(vec)
        rows = self.rows
        for k in sorted([k for k in vec if k in rows], key=self.key_order):
            c = -vec[k]
            accumulate(vec, ((key, c * v) for key, v in rows[k].items()))
        return vec

    def insert(self, vec: dict) -> bool:
        """Add ``vec`` to the span; returns True if the rank grew."""
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
            row = dict(v)
            row[_Tag(i)] = Fraction(1)
            self._ech.insert(row)

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


def solve(rows, rhs, key_order=None):
    """Solve sum_i x_i * rows[i] = rhs exactly; None if inconsistent.

    ``rows`` is a list of vectors; returns a list of Fractions (one
    coefficient per row) or None.
    """
    coords, leftover = Coordinates(rows, key_order)(rhs)
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
