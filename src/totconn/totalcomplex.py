"""Cosimplicial commutative dg-algebras and their normalized total complex.

Two backends share one element model (bidegree-indexed components):

* a polynomial group-cochain backend for the translation action of Z^m
  on R^m, where a level-p component is a polynomial map from p group
  arguments to polynomial forms on R^m and equality is polynomial
  identity; its face maps are exponent maps on the integer store, a
  coface splitting one variable block by the binomial theorem (or
  appending a zero block) and a codegeneracy dropping one;
* a finite presentation (explicit bases, differentials, products, coface
  and codegeneracy matrices per level).

Both backends implement one protocol: ``d(a, p)`` and ``wedge(a, b, p)``
act within level p, ``coface(a, i, p)`` maps level p to p+1 and
``codegeneracy(a, i, p)`` maps level p to p-1, where the level ``p`` of the
input is always required; ``sum(terms, p)`` (the carrier sum of
``structures``, in place, with the derived ``zero(p)`` and ``add``),
``one()``, ``scale``, ``is_zero`` and ``form_degree`` complete it.

The product of total-complex elements is computed levelwise from the
transferred simplex structures: for inputs of bidegrees (p_i, q_i) the
output lives at level l = sum p_i + 2 - n and equals

  sum over index strings I_1..I_n of
    +/- (top coefficient of m_n^{[l]}(lam_{I_1}, ..., lam_{I_n}))
        (x) sigma_{I_1 *} a_1 ^ ... ^ sigma_{I_n *} a_n,

with the sign (-1)^{sum_{i<j} q_i p_j}.  The closed-form products on
degree-1 elements are implemented independently and tested against this
general formula.

The formula is evaluated on its support as a right fold:

* each non-zero top coefficient is read from a table built once per
  process and per (l, input levels, arity cap), which is all it depends
  on, so every algebra shares it; one coefficient is evaluated per orbit
  of tuples of index strings under the permutations of the vertices
  0..l, at the orbit's representative (the tuple with its vertices
  relabelled in the order of their columns, ``signs.column_order``),
  the other tuples take it with their sign, and the table is arranged
  as a trie over the slots so that a prefix of index strings with no
  non-zero coefficient below it never appears;
* each pushforward sigma_{I *} a_i is computed at most once per call;
* each trie node stands for the sum of its subtree: at the last slot
  sum_I c sigma_{I *} a_n, above it the sum over (I, child) of
  sigma_{I *} a_i ^ (the child's sum), so every edge above the last
  slot costs one wedge and no prefix is ever wedged.

By bilinearity of the wedge this is the same sum as the per-string
formula above, regrouped as a_1 ^ (a_2 ^ (...)); the regrouping needs
associative level products, which polynomial forms have and
``FinitePresentation.check_identities`` checks.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, factorial, prod

from .dupont import NCElement
from .forms import PolyForm
from .graded import GradedVectorSpace
from .linalg import ONE, Echelon, accumulate, accumulate_scaled, scaled_sum
from .scalars import bernoulli, rat, rat_str
from .signs import column_order, perm_sign, sorted_image
from .structures import Carrier, FiniteAlgebra, KeyedCarrier
from .transfer import nc_structure, nc_vector_from_element


class LevelCapError(RuntimeError):
    pass


# ---------------------------------------------------------------------
# backend (b): polynomial group cochains for Z^m acting on R^m
# ---------------------------------------------------------------------

class GroupCochain:
    """Polynomial map (g_1..g_p) -> polynomial q-form on R^m.

    Stored as a PolyForm in m*(p+1) variables: the first m are the point
    coordinates (smooth, with differentials), the following m-blocks are
    the group arguments (formal constants).
    """

    __slots__ = ("m", "p", "form")

    def __init__(self, m, p, form: PolyForm):
        self.m = m
        self.p = p
        if form.nvars != m * (p + 1) or form.ndiff != m:
            raise ValueError("GroupCochain: wrong ambient")
        self.form = form

    @classmethod
    def zero(cls, m, p):
        return cls(m, p, PolyForm.zero(m * (p + 1), varname="z", ndiff=m))

    @classmethod
    def from_form(cls, m, form_on_rm: PolyForm):
        """A bidegree-(0, q) cochain from a form on R^m."""
        return cls(m, 0, PolyForm(m, form_on_rm.terms, varname="z", ndiff=m))

    def g_var(self, slot, j):
        return PolyForm.var(self.m * (self.p + 1), self.m * slot + j,
                            varname="z", ndiff=self.m)

    def is_zero(self):
        return self.form.is_zero()

    def __add__(self, other):
        if (self.m, self.p) != (other.m, other.p):
            raise ValueError("GroupCochain: mixed bidegrees")
        return GroupCochain(self.m, self.p, self.form + other.form)

    def scale(self, c):
        return GroupCochain(self.m, self.p, self.form.scale(c))

    def __eq__(self, other):
        return (isinstance(other, GroupCochain)
                and (self.m, self.p) == (other.m, other.p)
                and self.form == other.form)

    def __hash__(self):
        return hash((self.m, self.p, self.form))

    def __repr__(self):
        return "GC[p=%d](%r)" % (self.p, self.form)

    def form_degree(self):
        return self.form.homogeneous_degree()

    def wedge(self, other):
        if self.p != other.p:
            raise ValueError("pointwise product needs equal levels")
        return GroupCochain(self.m, self.p, self.form.wedge(other.form))

    def d(self):
        return GroupCochain(self.m, self.p, self.form.d())

    def coface(self, i):
        """d^i: level p -> p+1 for the translation action groupoid.

        An exponent map on the variable blocks (x, g_1, .., g_p): d^{p+1}
        appends a zero block, and for i <= p, d^i pulls back along
        x -> x + g_1 (i = 0) or g_i -> g_i + g_{i+1}, so it splits block
        i into blocks i and i+1 by the binomial theorem and shifts the
        later blocks up.  Group variables carry no differentials, so the
        dts stay, and distinct (monomial, split) pairs give distinct
        monomials.
        """
        p, m, f = self.p, self.m, self.form
        if not 0 <= i <= p + 1:
            raise ValueError("coface index %r out of range 0..%d" % (i, p + 1))
        if i == p + 1:
            pad = (0,) * m
            num = {(exps + pad, dts): c for (exps, dts), c in f.num.items()}
        else:
            lo, hi = m * i, m * (i + 1)
            num = {}
            for (exps, dts), c in f.num.items():
                head, tail = exps[:lo], exps[hi:]
                for split, b in _binomial_splits(exps[lo:hi]):
                    num[(head + split + tail, dts)] = b * c
        return GroupCochain(m, p + 1, PolyForm._trusted(m * (p + 2), f.den, num, "z", m))

    def codegeneracy(self, i):
        """s^i pullback: level p -> p-1, inserting the identity after slot
        i: the monomials without block i+1, with that block removed."""
        p, m, f = self.p, self.m, self.form
        if not 0 <= i <= p - 1:
            raise ValueError("codegeneracy index %r out of range 0..%d" % (i, p - 1))
        lo, hi = m * (i + 1), m * (i + 2)
        num = {(exps[:lo] + exps[hi:], dts): c for (exps, dts), c in f.num.items()
               if not any(exps[lo:hi])}
        return GroupCochain(m, p - 1, PolyForm._trusted(m * p, f.den, num, "z", m))

    def is_normalized(self):
        return all(self.codegeneracy(i).is_zero() for i in range(self.p))


@functools.lru_cache(maxsize=1024)
def _binomial_splits(block):
    """The expansion of prod_j (u_j + v_j)^block[j]: the pairs
    (exponents of u then of v, prod_j binom(block[j], k_j))."""
    return tuple((ks + tuple(e - k for e, k in zip(block, ks)),
                  prod(comb(e, k) for e, k in zip(block, ks)))
                 for ks in itertools.product(*[range(e + 1) for e in block]))


class GroupCochainBackend(Carrier):
    """The translation action of Z^m on R^m, handled symbolically.

    The level arguments ``p`` are ignored: a GroupCochain knows its level.
    A sum's level is that of its first term, or ``p`` when it has none.
    """

    def __init__(self, m):
        self.m = m

    def scale(self, a, c):
        return a.scale(c)

    def is_zero(self, a):
        return a.is_zero()

    def one(self):
        return GroupCochain(self.m, 0, PolyForm.one(self.m, varname="z", ndiff=self.m))

    def d(self, a, p):
        return a.d()

    def wedge(self, a, b, p):
        return a.wedge(b)

    def coface(self, a, i, p):
        return a.coface(i)

    def codegeneracy(self, a, i, p):
        return a.codegeneracy(i)

    def form_degree(self, a):
        return a.form_degree()

    def _grade(self, x):
        return x.p

    def _into(self, acc, x, c):
        accumulate_scaled(acc, x.form.den, x.form.num.items(), c)

    def _wrap(self, acc, p):
        m = self.m
        return GroupCochain(m, p, PolyForm._trusted(m * (p + 1), *scaled_sum(acc), "z", m))


# ---------------------------------------------------------------------
# backend (a): finite presentations
# ---------------------------------------------------------------------

class FinitePresentation(Carrier):
    """Explicit cosimplicial cdga on levels 0..level_cap.

    ``levels[p]`` is a FiniteAlgebra (a dga); ``cofaces[p]`` is a list of
    p+2 linear maps level p -> p+1 given as {src key: vector}; similarly
    ``codegeneracies[p]`` is a list of p+1 maps level p+1 -> p, indexed
    0..p.

    Elements are sparse vectors that do not know their level, so the
    protocol's ``p`` (always the source level) selects the level algebra
    or the coface/codegeneracy table.

    Every level product must be associative: the total-complex product
    regroups the wedge of n pushforwards as a_1 ^ (a_2 ^ ...), and
    ``check_identities`` checks it on basis triples.
    """

    def __init__(self, levels, cofaces, codegeneracies):
        self.levels = list(levels)
        self.cofaces = [list(m) for m in cofaces]
        self.codegeneracies = [list(m) for m in codegeneracies]

    @property
    def level_cap(self):
        return len(self.levels) - 1

    def one(self):
        return {self.levels[0].unit_key: Fraction(1)}

    def d(self, a, p):
        return self.levels[p].m(1, [a])

    def wedge(self, a, b, p):
        return self.levels[p].m(2, [a, b])

    def form_degree(self, a):
        degs = {k[0] for k in a}
        if len(degs) == 1:
            return degs.pop()
        return None

    def apply_map(self, table, vec):
        return accumulate({}, ((k, c * v) for key, c in vec.items()
                               for k, v in table.get(key, {}).items()))

    def coface(self, a, i, p):
        """d^i applied to a level-p element."""
        if not 0 <= i <= p + 1:
            raise ValueError("coface index %r out of range 0..%d" % (i, p + 1))
        if p + 1 > self.level_cap:
            raise LevelCapError("coface beyond level cap")
        return self.apply_map(self.cofaces[p][i], a)

    def codegeneracy(self, a, i, p):
        """s^i applied to a level-p element."""
        if not 0 <= i <= p - 1:
            raise ValueError("codegeneracy index %r out of range 0..%d" % (i, p - 1))
        return self.apply_map(self.codegeneracies[p - 1][i], a)

    def check_identities(self):
        """Cosimplicial identities, dga-map property and associativity on
        basis probes: every coface and codegeneracy commutes with m_1 and
        m_2 of its levels, and every level's m_2 is associative."""
        failures = []
        for p in range(self.level_cap + 1):
            failures += self._assoc_failures(p)
        for p in range(self.level_cap):
            for i in range(p + 2):
                for j in range(i + 1, p + 3):
                    if p + 2 > self.level_cap:
                        continue
                    for key in self.levels[p].space.keys():
                        v = {key: Fraction(1)}
                        lhs = self.coface(self.coface(v, i, p), j, p + 1)
                        rhs = self.coface(self.coface(v, j - 1, p), i, p + 1)
                        if lhs != rhs:
                            failures.append(("d^j d^i", p, i, j, key))
        for p in range(self.level_cap):
            # s^i d^i = id = s^i d^{i+1}
            for i in range(p + 1):
                for key in self.levels[p].space.keys():
                    v = {key: Fraction(1)}
                    for j in (i, i + 1):
                        got = self.codegeneracy(self.coface(v, j, p), i, p + 1)
                        if got != v:
                            failures.append(("s^i d^j != id", p, i, j, key))
        for p in range(self.level_cap):
            for i in range(p + 2):
                failures += self._dga_map_failures(
                    ("d^i", p, i), p, p + 1, lambda v: self.coface(v, i, p))
            for i in range(p + 1):
                failures += self._dga_map_failures(
                    ("s^i", p + 1, i), p + 1, p, lambda v: self.codegeneracy(v, i, p + 1))
        return failures

    def _assoc_failures(self, p):
        """The basis triples (a, b, c) with (ab)c != a(bc) at level p."""
        lvl = self.levels[p]
        probes = [(key, {key: Fraction(1)}) for key in lvl.space.keys()]
        prod = {(ka, kb): lvl.m(2, [a, b]) for ka, a in probes for kb, b in probes}
        return [("assoc", p, ka, kb, kc)
                for (ka, a), (kb, _), (kc, c) in itertools.product(probes, repeat=3)
                if lvl.m(2, [prod[ka, kb], c]) != lvl.m(2, [a, prod[kb, kc]])]

    def _dga_map_failures(self, label, src, tgt, f):
        """The basis probes on which f: level src -> level tgt does not
        commute with m_1 or m_2."""
        a, b = self.levels[src], self.levels[tgt]
        probes = [(key, {key: Fraction(1)}) for key in a.space.keys()]
        images = [f(v) for _, v in probes]
        failures = []
        for (key, v), fv in zip(probes, images):
            if f(a.m(1, [v])) != b.m(1, [fv]):
                failures.append(label + ("m_1", key))
            for (key2, v2), fv2 in zip(probes, images):
                if f(a.m(2, [v, v2])) != b.m(2, [fv, fv2]):
                    failures.append(label + ("m_2", key, key2))
        return failures


def _linear_map_to_json(table):
    out = {}
    for (d, name), col in sorted(table.items()):
        out["%d:%s" % (d, name)] = {"%d:%s" % (dt, nt): rat_str(c)
                                    for (dt, nt), c in sorted(col.items())}
    return out


def _linear_map_from_json(data):
    def parse(label):
        d, name = label.split(":", 1)
        return (int(d), name)
    return {parse(src): {parse(tgt): rat(c) for tgt, c in col.items()}
            for src, col in data.items()}


def presentation_to_json(pres: FinitePresentation):
    return {
        "levels": [lvl.to_json() for lvl in pres.levels],
        "cofaces": [[_linear_map_to_json(t) for t in maps]
                    for maps in pres.cofaces],
        "codegeneracies": [[_linear_map_to_json(t) for t in maps]
                           for maps in pres.codegeneracies],
    }


def presentation_from_json(data) -> FinitePresentation:
    levels = [FiniteAlgebra.from_json(lvl) for lvl in data["levels"]]
    cofaces = [[_linear_map_from_json(t) for t in maps]
               for maps in data["cofaces"]]
    codegens = [[_linear_map_from_json(t) for t in maps]
                for maps in data["codegeneracies"]]
    pres = FinitePresentation(levels, cofaces, codegens)
    failures = pres.check_identities()
    if failures:
        raise ValueError("cosimplicial identities, dga-map property or "
                         "associativity fail: %r"
                         % (failures[:3],))
    return pres


def constant_presentation(alg: FiniteAlgebra, level_cap=2) -> FinitePresentation:
    """The constant cosimplicial dga on a finite cdga."""
    ident = {k: {k: Fraction(1)} for k in alg.space.keys()}
    levels = [alg] * (level_cap + 1)
    cofaces = [[ident for _ in range(p + 2)] for p in range(level_cap)]
    codegens = [[ident for _ in range(p + 1)] for p in range(level_cap)]
    return FinitePresentation(levels, cofaces, codegens)


def group_action_presentation(alg: FiniteAlgebra, elements, mult, action,
                              level_cap=2) -> FinitePresentation:
    """Action groupoid of a finite group on a finite cdga.

    ``elements`` lists group elements (hashables, identity first);
    ``mult`` is the group multiplication; ``action(g)`` gives the algebra
    pullback automorphism as {src key: vector}.  Level p holds maps
    G^p -> A with basis keyed by ((g_1..g_p), a-key).
    """
    ident = elements[0]

    levels = []
    spaces = []
    for p in range(level_cap + 1):
        degrees = {}
        for tup in itertools.product(elements, repeat=p):
            for key in alg.space.keys():
                d, name = key
                degrees.setdefault(d, []).append(str((tup, name)))
        space = GradedVectorSpace(degrees)
        lvl = FiniteAlgebra(space, kind="Cinf", arity_cap=alg.arity_cap,
                            unit_key=None)
        # differential and product act pointwise in the group arguments
        for tup in itertools.product(elements, repeat=p):
            for key in alg.space.keys():
                src = (key[0], str((tup, key[1])))
                dval = alg.m(1, [{key: Fraction(1)}])
                if dval:
                    lvl.set_value(1, (src,), {(k[0], str((tup, k[1]))): c
                                              for k, c in dval.items()})
            for key_a in alg.space.keys():
                for key_b in alg.space.keys():
                    val = alg.m(2, [{key_a: Fraction(1)}, {key_b: Fraction(1)}])
                    if val:
                        lvl.set_value(2, ((key_a[0], str((tup, key_a[1]))),
                                          (key_b[0], str((tup, key_b[1])))),
                                      {(k[0], str((tup, k[1]))): c
                                       for k, c in val.items()})
        if p == 0:
            lvl.unit_key = (0, str(((), alg.unit_key[1])))
        levels.append(lvl)
        spaces.append(space)

    def coface_table(p, i):
        table = {}
        for tup in itertools.product(elements, repeat=p + 1):
            for key in alg.space.keys():
                if i == 0:
                    inner_tup = tup[1:]
                    twisted = action(tup[0])  # pullback along x -> g.x
                    col = [((k[0], str((tup, k[1]))), c)
                           for k, c in twisted.get(key, {}).items()]
                else:
                    if i <= p:
                        inner_tup = tup[:i - 1] + (mult(tup[i - 1], tup[i]),) + tup[i + 1:]
                    else:
                        inner_tup = tup[:p]
                    col = [((key[0], str((tup, key[1]))), Fraction(1))]
                accumulate(table.setdefault((key[0], str((inner_tup, key[1]))), {}), col)
        return table

    def codegen_table(p, i):
        # s^i: level p+1 -> level p; the basis indicator at tup survives
        # exactly when the inserted slot holds the identity
        table = {}
        for tup in itertools.product(elements, repeat=p + 1):
            for key in alg.space.keys():
                if tup[i] == ident:
                    reduced = tup[:i] + tup[i + 1:]
                    src = (key[0], str((tup, key[1])))
                    table[src] = {(key[0], str((reduced, key[1]))): Fraction(1)}
        return table

    cofaces = [[coface_table(p, i) for i in range(p + 2)] for p in range(level_cap)]
    codegens = [[codegen_table(p, i) for i in range(p + 1)] for p in range(level_cap)]
    return FinitePresentation(levels, cofaces, codegens)


# ---------------------------------------------------------------------
# total-complex elements
# ---------------------------------------------------------------------

class TotElement:
    """Bidegree-decomposed element of the normalized total complex."""

    __slots__ = ("backend", "components")

    def __init__(self, backend, components=None):
        self.backend = backend
        self.components = {}
        if components:
            for (p, q), val in components.items():
                if not backend.is_zero(val):
                    self.components[(p, q)] = val

    @classmethod
    def zero(cls, backend):
        return cls(backend, {})

    def is_zero(self):
        return not self.components

    def total_degree(self):
        degs = {p + q for p, q in self.components}
        if len(degs) == 1:
            return degs.pop()
        return None

    def component(self, p, q):
        return self.components.get((p, q), self.backend.zero(p))

    def __add__(self, other):
        return TotalComplexAlgebra(self.backend).add(self, other)

    def scale(self, c):
        c = rat(c)
        if not c:
            return TotElement.zero(self.backend)
        return TotElement(self.backend,
                          {k: self.backend.scale(v, c) for k, v in self.components.items()})

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, TotElement) or self.backend is not other.backend:
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        if not self.components:
            return "Tot(0)"
        return "Tot{%s}" % ", ".join("(%d,%d): %r" % (p, q, v)
                                     for (p, q), v in sorted(self.components.items()))

    def is_normalized(self):
        for (p, q), val in self.components.items():
            if p == 0:
                continue
            for i in range(p):
                if not self.backend.is_zero(self.backend.codegeneracy(val, i, p)):
                    return False
        return True


def partial_tilde(backend, val, p):
    """The cosimplicial differential: alternating sum of cofaces."""
    return backend.sum(((backend.coface(val, i, p), Fraction((-1) ** i))
                        for i in range(p + 2)), p + 1)


def tot_differential(v: TotElement) -> TotElement:
    """D(a) = partial-tilde(a) + (-1)^p d(a) on bidegree (p, q)."""
    be = v.backend

    def terms():
        for (p, q), val in v.components.items():
            yield TotElement(be, {(p, q + 1): be.d(val, p)}), Fraction((-1) ** p)
            yield TotElement(be, {(p + 1, q): partial_tilde(be, val, p)}), Fraction(1)

    return TotalComplexAlgebra(be).sum(terms())


# ---------------------------------------------------------------------
# psi: reconstruction of coend components from the normalized picture
# ---------------------------------------------------------------------

def sigma_pushforward(backend, val, I, p, target_level):
    """A(sigma_I) for the inclusion with image I in {0..target_level}: I
    is a strictly increasing string of p+1 vertices."""
    if (len(I) != p + 1 or any(a >= b for a, b in zip(I, I[1:]))
            or not 0 <= I[0] <= I[-1] <= target_level):
        raise ValueError("index string %r is not an increasing string of %d "
                         "vertices in 0..%d" % (I, p + 1, target_level))
    cur = val
    cur_level = p
    for j in sorted(set(range(target_level + 1)).difference(I)):
        cur = backend.coface(cur, j, cur_level)
        cur_level += 1
    return cur


def psi_components(v: TotElement, level: int):
    """Level-n component of the coend element: {(I, q): value} with
    value = A(sigma_I) applied to the bidegree-(|I|-1, q) part.

    Raises on non-normalized input: the reconstruction is only the
    inverse of the normalized picture.
    """
    if not v.is_normalized():
        raise ValueError("psi needs a normalized element")
    be = v.backend
    out = {}
    for (p, q), val in v.components.items():
        if p > level:
            continue
        for I in itertools.combinations(range(level + 1), p + 1):
            img = sigma_pushforward(be, val, I, p, level)
            if not be.is_zero(img):
                out[(I, q)] = img
    return out


def psi_inverse(backend, level_components, level):
    """Extract the normalized element from a level's coend data."""
    out = {}
    for (I, q), val in level_components.items():
        if I == tuple(range(level + 1)):
            out[(level, q)] = val
    return TotElement(backend, out)


def psi_roundtrip_ok(v: TotElement, level: int) -> bool:
    comp = psi_components(v, level)
    back = psi_inverse(v.backend, comp, level)
    want = TotElement(v.backend, {k: val for k, val in v.components.items()
                                  if k[0] == level})
    return back == want


# ---------------------------------------------------------------------
# the products
# ---------------------------------------------------------------------

def _nc_top_coefficient(l, n, strings, arity_cap):
    """Top coefficient of m_n^{[l]}(lam_{I_1}, .., lam_{I_n})."""
    alg = nc_structure(l, arity_cap).algebra
    elems = [nc_vector_from_element(NCElement.basis(l, I)) for I in strings]
    [top] = nc_vector_from_element(NCElement.basis(l, range(l + 1)))
    return alg.m(n, elems).get(top, Fraction(0))


def _freeze(trie):
    """Nested dicts as nested tuples of (index string, child) pairs."""
    return tuple((I, _freeze(child) if isinstance(child, dict) else child)
                 for I, child in trie.items())


# (l, ps, arity_cap) -> the frozen trie of ``_top_table``
_TOP_TABLES = {}


def _top_representative(strings, l):
    """(rep, perm, sign) for a tuple of index strings on the vertices
    0..l: rep the representative of its S_{l+1} orbit, which is the
    orbit's first tuple in ``itertools.product`` order, and strings =
    perm . rep with c(strings) = sign * c(rep) for the top coefficients c.
    m_n^{[l]} is natural in the vertex permutations and sigma . lam_top =
    sgn(sigma) lam_top, so sign is sgn(perm) times the signs of sorting
    the strings of perm . rep.
    """
    order, _ = column_order(strings, range(l + 1))
    inverse = sorted(range(l + 1), key=order.__getitem__)
    images = [sorted_image(inverse, I) for I in strings]
    return (tuple(I for I, _ in images), tuple(order),
            perm_sign(order) * prod(s for _, s in images))


def _top_table(l, ps, arity_cap):
    """The non-zero top coefficients of m_n^{[l]} for input levels ps.

    A trie over the n = len(ps) slots: level i holds (I_i, child) pairs
    and the last level (I_n, coefficient) pairs, in the order of
    ``itertools.product`` over the slots.  A prefix appears only when
    some coefficient below it is non-zero.  ``_nc_top_coefficient`` runs
    once per representative (``_top_representative``), and every other
    tuple of the orbit takes its signed value; a representative fixed by
    an odd permutation with a non-zero coefficient raises
    ``ArithmeticError``.  The table depends on nothing but its arguments,
    so it is built once per process and kept as nested tuples, so no
    caller can change it.
    """
    key = (l, ps, arity_cap)
    table = _TOP_TABLES.get(key)
    if table is None:
        coeffs = {}
        trie = {}
        for strings in itertools.product(
                *[itertools.combinations(range(l + 1), p + 1) for p in ps]):
            rep, _, sign = _top_representative(strings, l)
            c = coeffs.get(rep)
            if c is None:
                c = coeffs[rep] = _nc_top_coefficient(l, len(ps), rep, arity_cap)
                _, columns = column_order(rep, range(l + 1))
                # the stabilizer of rep is generated by the (v v+1) with equal
                # columns, each acting by -(-1)^(the strings holding v)
                for v in range(l):
                    if c and columns[v] == columns[v + 1] and not columns[v].bit_count() % 2:
                        raise ArithmeticError(
                            "top coefficients of m_%d^[%d] are not S_%d-equivariant: "
                            "%r is fixed by the odd (%d %d) but has coefficient %s"
                            % (len(ps), l, l + 1, rep, v, v + 1, c))
            if c:
                node = trie
                for I in strings[:-1]:
                    node = node.setdefault(I, {})
                node[strings[-1]] = c if sign == 1 else -c
        table = _TOP_TABLES[key] = _freeze(trie)
    return table


class TotalComplexAlgebra(KeyedCarrier):
    """The normalized total complex as an infinity-structure carrier,
    keyed by bidegree over its backend."""

    def __init__(self, backend, level_cap=3, arity_cap=6):
        super().__init__(backend)
        self.backend = backend
        self.level_cap = level_cap
        self.arity_cap = arity_cap
        self.kind = "Cinf"

    def one(self):
        return TotElement(self.backend, {(0, 0): self.backend.one()})

    def scale(self, a, c):
        return a.scale(c)

    def is_zero(self, a):
        return a.is_zero()

    def degree(self, a):
        return a.total_degree()

    def _items(self, x):
        return x.components.items()

    def _level(self, key):
        return key[0]

    def _wrap(self, acc, p):
        return TotElement(self.backend, super()._wrap(acc, p))

    def m(self, k, elems):
        if k == 1:
            return tot_differential(elems[0])
        return self.sum(
            (self._pure_product(k, [key for key, _ in combo], [val for _, val in combo]),
             ONE)
            for combo in itertools.product(*[list(e.components.items()) for e in elems]))

    def _pure_product(self, n, bidegs, vals):
        """The level-l part of m_n on one component per slot.

        Returns a TotElement in bidegree (l, sum q): the right fold of
        the module docstring over the trie of non-zero top coefficients,
        one wedge per edge above the last slot, each sigma_{I *} a_i
        computed at most once, times (-1)^{sum_{i<j} q_i p_j}.  Needs
        associative level products.
        """
        be = self.backend
        if n > self.arity_cap:
            raise LevelCapError("product arity %d exceeds cap %d" % (n, self.arity_cap))
        ps = tuple(p for p, _ in bidegs)
        qs = [q for _, q in bidegs]
        l = sum(ps) + 2 - n
        if l < 0:
            return self.zero()
        if l > self.level_cap:
            raise LevelCapError("product level %d exceeds cap %d" % (l, self.level_cap))
        sign_exp = 0
        for i in range(n):
            for j in range(i + 1, n):
                sign_exp += qs[i] * ps[j]
        pushed = {}

        def push(slot, I):
            img = pushed.get((slot, I))
            if img is None:
                img = pushed[(slot, I)] = sigma_pushforward(be, vals[slot], I, ps[slot], l)
            return img

        def fold(node, slot):
            """The sum below node: sigma_{I *} a_slot ^ fold(child) over its
            (I, child) pairs, and sum_I c sigma_{I *} a_n at the last slot."""
            if slot == n - 1:
                return be.sum(((push(slot, I), c) for I, c in node), l)
            return be.sum(((be.wedge(push(slot, I), fold(child, slot + 1), l), ONE)
                           for I, child in node), l)

        total = fold(_top_table(l, ps, self.arity_cap), 0)
        return TotElement(be, {(l, sum(qs)): be.scale(total, Fraction((-1) ** sign_exp))})


def project_to_base(v: TotElement) -> TotElement:
    """r: keep bidegree (0, q), kill positive levels."""
    return TotElement(v.backend, {k: val for k, val in v.components.items()
                                  if k[0] == 0})


def window_basis(be: GroupCochainBackend, level_cap, poly_cap, q_cap):
    """Normalized monomial cochains of level <= ``level_cap`` and form
    degree <= ``q_cap``, with bounded total polynomial degree.

    A monomial is normalized exactly when every group slot appears with
    positive degree; the window is closed under the total differential up
    to one extra level, which suffices for cohomology in low degrees.
    """
    m = be.m
    basis = []
    for p in range(level_cap + 1):
        nv = m * (p + 1)
        for q in range(q_cap + 1):
            for dts in itertools.combinations(range(m), q):
                for exps in _bounded_exponents(nv, poly_cap):
                    if not all(any(exps[m * s:m * s + m]) for s in range(1, p + 1)):
                        continue
                    form = PolyForm(nv, {(tuple(exps), dts): Fraction(1)},
                                    varname="z", ndiff=m)
                    basis.append(((p, q), GroupCochain(m, p, form)))
    return basis


def _bounded_exponents(nvars, cap):
    if nvars == 0:
        yield ()
        return
    for head in range(cap + 1):
        for tail in _bounded_exponents(nvars - 1, cap - head):
            yield (head,) + tail


def tot_window_cohomology(be: GroupCochainBackend, max_degree=2, level_cap=2,
                          poly_cap=3):
    """Betti numbers of (window, D) by exact rank computation.

    Cycles are counted among the cochains of level <= ``level_cap``, and
    the boundaries subtracted in degree d, images of cochains of degree
    d - 1, reach level d.  So the window must hold level ``max_degree``:
    a smaller ``level_cap`` is a ValueError.  D is ranked on the degrees
    0 .. ``max_degree`` only, the ones the Betti numbers read; an image
    that leaves the window is a ``LevelCapError``.
    """
    if level_cap < max_degree:
        raise ValueError("level_cap %d is below max_degree %d: boundaries would "
                         "land outside the window" % (level_cap, max_degree))
    basis = window_basis(be, level_cap + 1, poly_cap, max_degree + 1)
    index = {}
    for (pq, el) in basis:
        for key in el.form.terms:
            index[(pq, key)] = len(index)

    def coords(v: TotElement):
        out = {}
        for (p, q), val in v.components.items():
            for key, c in val.form.terms.items():
                idx = index.get(((p, q), key))
                if idx is None:
                    raise LevelCapError("window too small for the image")
                out[idx] = c
        return out

    dims = {}
    ranks = {}
    for deg in range(max_degree + 1):
        degree_basis = [(pq, el) for (pq, el) in basis
                        if pq[0] + pq[1] == deg and pq[0] <= level_cap]
        dims[deg] = len(degree_basis)
        ech = Echelon()
        for pq, el in degree_basis:
            ech.insert(coords(tot_differential(TotElement(be, {pq: el}))))
        ranks[deg] = ech.rank
    # rank-nullity: degree deg has dims[deg] - ranks[deg] cycles
    return {deg: dims[deg] - ranks[deg] - ranks.get(deg - 1, 0)
            for deg in range(max_degree + 1)}


# ---------------------------------------------------------------------
# closed-form products on elements of total degree <= 1
# ---------------------------------------------------------------------

def _split_degree_one(a: TotElement):
    b = a.component(1, 0)
    c = a.component(0, 1)
    extra = [k for k in a.components if k not in ((1, 0), (0, 1))]
    if extra:
        raise ValueError("input is not of total degree 1")
    return b, c


def tot_product_degree1(alg: TotalComplexAlgebra, elems):
    """The closed-form product of total-degree-1 elements.

    Implements the closed degree-1 formulas: the four-term arity-2
    product (with m2(c1, c2) the levelwise wedge) and, for higher arity,
    the Bernoulli-weighted sum over one (0,1)-slot plus the pure (1,0)
    product; the all-(0,1) part vanishes for arity > 2.  Coefficients
    are calibrated against the general transferred-product formula.

    The pure (1,0) part is not independent: it is ``alg.m`` itself on the
    (1,0) components.  So for arity >= 3 a comparison of this closed form
    with ``alg.m`` does not check that part, which is where the top
    coefficients of the transferred simplex tables enter.
    """
    be = alg.backend
    l = len(elems)
    if l < 2:
        raise ValueError("need at least two inputs")
    split = [_split_degree_one(e) for e in elems]
    if l == 2:
        (b1, c1), (b2, c2) = split
        return alg.sum((
            # m2(c1, c2): levelwise wedge at level 0
            (TotElement(be, {(0, 2): be.wedge(c1, c2, 0)}), Fraction(1)),
            # m2(b1, c2) = -1/2 b1 ptilde(c2) + b1 d0(c2)
            (_m2_bc(alg, b1, c2), Fraction(1)),
            # m2(c1, b2) = -m2(b2, c1) by graded commutativity in degree 1
            (_m2_bc(alg, b2, c1), Fraction(-1)),
            # m2(b1, b2): the 1/6 formula
            (_m2_bb(alg, b1, b2), Fraction(1))))
    coeff = bernoulli(l - 1) / factorial(l - 1)
    bs = [s[0] for s in split]

    def terms():
        for i in range(l):
            ci = split[i][1]
            if be.is_zero(ci):
                continue
            prod = None
            for j in range(l):
                if j == i:
                    continue
                if be.is_zero(bs[j]):
                    prod = None
                    break
                prod = bs[j] if prod is None else be.wedge(prod, bs[j], 1)
            if prod is None:
                continue
            term = be.wedge(prod, partial_tilde(be, ci, 0), 1)
            # an odd insertion alternates with its slot (calibrated against
            # the general formula)
            sgn = Fraction((-1) ** (l - 1)) * ((-1) ** i) * comb(l - 1, i)
            yield TotElement(be, {(1, 1): term}), sgn * coeff
        # the pure (1,0)-part, evaluated through the general formula
        if all(not be.is_zero(b) for b in bs):
            yield alg.m(l, [TotElement(be, {(1, 0): b}) for b in bs]), Fraction(1)

    return alg.sum(terms())


def _m2_bc(alg, b, c):
    """m2(b, c) = -1/2 b ptilde(c) + b d^0(c) for b (1,0) and c (0,q)."""
    be = alg.backend
    if be.is_zero(b) or be.is_zero(c):
        return alg.zero()
    term = be.sum(((be.wedge(b, partial_tilde(be, c, 0), 1), Fraction(-1, 2)),
                   (be.wedge(b, be.coface(c, 0, 0), 1), Fraction(1))))
    return TotElement(be, {(1, be.form_degree(c)): term})


def _m2_bb(alg, b1, b2):
    """m2(b1, b2): the one-sixth combination of coface products."""
    be = alg.backend
    if be.is_zero(b1) or be.is_zero(b2):
        return alg.zero()
    d0b1, d1b1, d2b1 = (be.coface(b1, i, 1) for i in range(3))
    d0b2, d1b2, d2b2 = (be.coface(b2, i, 1) for i in range(3))
    acc = be.sum(((be.wedge(d0b1, be.add(d1b2, d2b2), 2), Fraction(-1, 6)),
                  (be.wedge(d1b1, be.add(d0b2, d2b2, Fraction(-1)), 2), Fraction(1, 6)),
                  (be.wedge(d2b1, be.add(d0b2, d1b2), 2), Fraction(1, 6))))
    return TotElement(be, {(2, 0): acc})


def tot_product_degree1_with_scalar(alg: TotalComplexAlgebra, elems, x, slot):
    """Closed form for one total-degree-0 input x among degree-1 inputs.

    For l >= 3, m_l(a_1, .., x, .., a_{l-1}) = (-1)^(l-1) binom(l-1, slot-1)
    B_{l-1}/(l-1)! b_1 ... b_{l-1} ptilde(x), slots counted from 1.
    """
    be = alg.backend
    l = len(elems) + 1
    split = [_split_degree_one(e) for e in elems]
    bs = [s[0] for s in split]
    if l == 2:
        b, c = split[0]
        # m2(c, x) = c x and m2(x, c) = x c; m2(b, x) as in _m2_bc
        return alg.sum(((TotElement(be, {(0, 1): be.wedge(c, x, 0)}), Fraction(1)),
                        (_m2_bc(alg, b, x), Fraction(1))))
    if any(be.is_zero(b) for b in bs):
        return alg.zero()
    prod = None
    for b in bs:
        prod = b if prod is None else be.wedge(prod, b, 1)
    # an even (degree-0) insertion enters only through the binomial;
    # no per-slot sign occurs (calibrated against the general formula)
    coeff = (Fraction((-1) ** (l - 1)) * comb(l - 1, slot - 1)
             * bernoulli(l - 1) / factorial(l - 1))
    term = be.scale(be.wedge(prod, partial_tilde(be, x, 0), 1), coeff)
    return TotElement(be, {(1, 0): term})
