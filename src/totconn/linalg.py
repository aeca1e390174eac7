"""Sparse exact linear algebra over the rationals.

Vectors are dicts {key: Fraction} over arbitrary hashable keys; zero
entries are never stored.  Elimination pivots are chosen deterministically
from a fixed key order, so all constructions downstream (Hodge
decompositions, quotient bases) are reproducible.
"""

from __future__ import annotations

from fractions import Fraction


def vec_add(a: dict, b: dict, coeff=Fraction(1)) -> dict:
    """a + coeff*b, pruning zeros."""
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + coeff * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def vec_scale(a: dict, coeff) -> dict:
    if not coeff:
        return {}
    return {k: coeff * v for k, v in a.items()}


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
        """Canonical residual of ``vec`` modulo the current span."""
        vec = dict(vec)
        changed = True
        while changed:
            changed = False
            for k in sorted(vec, key=self.key_order):
                row = self.rows.get(k)
                if row is not None:
                    vec = vec_add(vec, row, -vec[k])
                    changed = True
                    break
        return vec

    def insert(self, vec: dict) -> bool:
        """Add ``vec`` to the span; returns True if the rank grew."""
        res = self.reduce(vec)
        if not res:
            return False
        pivot = min(res, key=self.key_order)
        res = vec_scale(res, 1 / res[pivot])
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


def rank(vectors, key_order=None) -> int:
    ech = Echelon(key_order)
    for v in vectors:
        ech.insert(v)
    return ech.rank


def complement_basis(sub_vectors, ambient_keys, key_order=None):
    """Keys of ``ambient_keys`` completing span(sub_vectors) to the ambient.

    Returns coordinate vectors {k: 1} chosen greedily in key order; the
    deterministic choice is what makes Hodge decompositions reproducible.
    """
    ech = Echelon(key_order)
    for v in sub_vectors:
        ech.insert(v)
    chosen = []
    keys = sorted(ambient_keys, key=key_order if key_order else (lambda k: k))
    for k in keys:
        if ech.insert({k: Fraction(1)}):
            chosen.append({k: Fraction(1)})
    return chosen


def solve(rows, rhs, key_order=None):
    """Solve sum_i x_i * rows[i] = rhs exactly; None if inconsistent.

    ``rows`` is a list of vectors; returns a list of Fractions (one
    coefficient per row) or None.
    """
    ech = Echelon(key_order)
    tagged = []
    for i, row in enumerate(rows):
        v = dict(row)
        v[("_coeff_", i)] = Fraction(1)
        tagged.append(v)

    def order(k):
        if isinstance(k, tuple) and len(k) == 2 and k[0] == "_coeff_":
            return (1, k[1])
        return (0, key_order(k) if key_order else k)

    ech2 = Echelon(order)
    for v in tagged:
        ech2.insert(v)
    res = ech2.reduce(dict(rhs))
    coeffs = [Fraction(0)] * len(rows)
    leftover = {}
    for k, v in res.items():
        if isinstance(k, tuple) and len(k) == 2 and k[0] == "_coeff_":
            coeffs[k[1]] = -v
        else:
            leftover[k] = v
    if leftover:
        return None
    return coeffs


def intersect_spans(vectors_a, vectors_b, key_order=None):
    """Basis of span(A) ∩ span(B) by the tagged-sum (Zassenhaus) trick."""
    tagged = []
    for v in vectors_a:
        w = {("L", k): c for k, c in v.items()}
        w.update({("R", k): c for k, c in v.items()})
        tagged.append(w)
    for v in vectors_b:
        tagged.append({("L", k): c for k, c in v.items()})

    def order(k):
        side, kk = k
        return (0 if side == "L" else 1, key_order(kk) if key_order else kk)

    ech = Echelon(order)
    for v in tagged:
        ech.insert(v)
    out = []
    for pivot, row in ech.rows.items():
        if pivot[0] == "R" and all(k[0] == "R" for k in row):
            out.append({k[1]: c for k, c in row.items()})
    return out
