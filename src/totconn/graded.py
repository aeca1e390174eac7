"""Finite-type graded vector spaces, sparse vectors and graded maps.

Basis elements are keyed by (degree, name); vectors are dicts
{key: Fraction}; graded maps of degree r are stored as sparse blocks
{source key: {target key: Fraction}}.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import accumulate, vec_scale
from .scalars import rat, rat_str


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

    def dim(self, d):
        return len(self.degrees.get(d, []))

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

    def shift(self, n):
        """Relabel degrees d -> d - n (elements of V[n])."""
        return GradedVectorSpace({d - n: names for d, names in self.degrees.items()})

    def max_degree(self):
        return max(self.degrees) if self.degrees else 0

    def to_json(self):
        return {"degrees": {str(d): list(names) for d, names in sorted(self.degrees.items())}}

    @classmethod
    def from_json(cls, data):
        return cls({int(d): names for d, names in data["degrees"].items()})


def basis_vector(key):
    return {key: Fraction(1)}


def vector_degree(vec):
    """Degree of a homogeneous vector; None for zero or mixed."""
    degs = {k[0] for k in vec}
    if len(degs) == 1:
        return degs.pop()
    return None


class GradedMap:
    """Sparse degree-r linear map between graded spaces."""

    def __init__(self, source: GradedVectorSpace, target: GradedVectorSpace,
                 degree: int, blocks=None):
        self.source = source
        self.target = target
        self.degree = degree
        self.blocks = {}
        if blocks:
            for src, col in blocks.items():
                col = {t: rat(c) for t, c in col.items() if rat(c)}
                bad = [t for t in col if t[0] != src[0] + degree]
                if bad:
                    raise ValueError("GradedMap: block %r -> %r breaks degree %d"
                                     % (src, bad[0], degree))
                if col:
                    self.blocks[src] = col

    @classmethod
    def identity(cls, space: GradedVectorSpace):
        return cls(space, space, 0, {k: {k: Fraction(1)} for k in space.keys()})

    @classmethod
    def zero(cls, source, target, degree):
        return cls(source, target, degree, {})

    def __call__(self, vec: dict) -> dict:
        return accumulate({}, ((t, c * v) for k, c in vec.items()
                               for t, v in self.blocks.get(k, {}).items()))

    def compose(self, inner: "GradedMap") -> "GradedMap":
        """self o inner; degrees add."""
        blocks = {}
        for src, col in inner.blocks.items():
            acc = self(col)
            if acc:
                blocks[src] = acc
        return GradedMap(inner.source, self.target, self.degree + inner.degree, blocks)

    def add(self, other: "GradedMap") -> "GradedMap":
        if other.degree != self.degree:
            raise ValueError("GradedMap.add: degree mismatch")
        blocks = {k: dict(v) for k, v in self.blocks.items()}
        for src, col in other.blocks.items():
            if not accumulate(blocks.setdefault(src, {}), col.items()):
                del blocks[src]
        return GradedMap(self.source, self.target, self.degree, blocks)

    def scale(self, c) -> "GradedMap":
        c = rat(c)
        return GradedMap(self.source, self.target, self.degree,
                         {k: vec_scale(v, c) for k, v in self.blocks.items()} if c else {})

    def is_zero(self):
        return not self.blocks

    def to_json(self):
        out = []
        for (d, name), col in sorted(self.blocks.items()):
            for (dt, nt), c in sorted(col.items()):
                out.append({"src_degree": d, "src": name, "tgt": nt, "coeff": rat_str(c)})
        return out

    @classmethod
    def from_json(cls, source, target, degree, data):
        blocks = {}
        for item in data:
            src = (int(item["src_degree"]), item["src"])
            tgt = (int(item["src_degree"]) + degree, item["tgt"])
            blocks.setdefault(src, {})[tgt] = rat(item["coeff"])
        return cls(source, target, degree, blocks)


def tensor_space(V: GradedVectorSpace, W: GradedVectorSpace) -> GradedVectorSpace:
    """Tensor product space with basis names "v(x)w"."""
    degrees = {}
    for dv, names_v in V.degrees.items():
        for dw, names_w in W.degrees.items():
            degrees.setdefault(dv + dw, []).extend(
                "%s(x)%s" % (nv, nw) for nv in names_v for nw in names_w)
    return GradedVectorSpace(degrees)


def tensor_map(f: GradedMap, g: GradedMap) -> GradedMap:
    """(f (x) g)(v (x) w) = (-1)^{|g||v|} f(v) (x) g(w)."""
    source = tensor_space(f.source, g.source)
    target = tensor_space(f.target, g.target)
    degree = f.degree + g.degree
    blocks = {}
    for dv, names_v in f.source.degrees.items():
        for nv in names_v:
            col_f = f.blocks.get((dv, nv), {})
            for dw, names_w in g.source.degrees.items():
                for nw in names_w:
                    col_g = g.blocks.get((dw, nw), {})
                    if not col_f or not col_g:
                        continue
                    sign = -1 if (g.degree % 2 and dv % 2) else 1
                    col = {}
                    for (dtv, ntv), cf in col_f.items():
                        for (dtw, ntw), cg in col_g.items():
                            key = (dtv + dtw, "%s(x)%s" % (ntv, ntw))
                            col[key] = sign * cf * cg
                    blocks[(dv + dw, "%s(x)%s" % (nv, nw))] = col
    return GradedMap(source, target, degree, blocks)
