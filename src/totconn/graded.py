"""Finite-type graded vector spaces and sparse vectors.

Basis elements are keyed by (degree, name); vectors are dicts
{key: Fraction}.
"""

from __future__ import annotations


class GradedVectorSpace:
    """Ordered named basis per integer degree; finite type by construction."""

    def __init__(self, degrees):
        self.degrees = {}
        for d, names in degrees.items():
            d = int(d)
            names = list(names)
            if len(set(names)) != len(names):
                raise ValueError("duplicate basis names in degree %d" % d)
            if names:
                self.degrees[d] = names

    def keys(self, d=None):
        if d is not None:
            return [(d, name) for name in self.degrees.get(d, [])]
        out = []
        for d in sorted(self.degrees):
            out.extend((d, name) for name in self.degrees[d])
        return out

    def key_order(self, key):
        d, name = key
        return (d, self.degrees[d].index(name))

    def to_json(self):
        return {"degrees": {str(d): list(names) for d, names in sorted(self.degrees.items())}}

    @classmethod
    def from_json(cls, data):
        return cls({int(d): names for d, names in data["degrees"].items()})


def vector_degree(vec):
    """Degree of a homogeneous vector; None for zero or mixed."""
    degs = {k[0] for k in vec}
    if len(degs) == 1:
        return degs.pop()
    return None
