"""Cosimplicial commutative dg-algebras and their normalized total complex.

The cosimplicial cdga is that of the translation action of Z^m on R^m,
held symbolically: a level-p component is a ``GroupCochain``, a
polynomial map from p group arguments to polynomial forms on R^m, and
equality is polynomial identity.  A cochain knows its level, and its
differential ``d``, pointwise ``wedge``, ``coface`` and ``codegeneracy``
are its own methods; the face maps are exponent maps on the integer
store, a coface splitting one variable block by the binomial theorem
(or appending a zero block) and a codegeneracy dropping one.
``GroupCochainBackend`` is only their carrier: ``sum(terms, p)`` (the
carrier sum of ``structures``, in place, with the derived ``zero(p)``
and ``add``), ``one()``, ``scale`` and ``is_zero``.  A total-complex
element (``TotElement``) holds one cochain per bidegree (p, q).

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
  non-zero coefficient below it never appears; its leaves are integer
  numerators over one common denominator C, the lcm of the
  coefficients' denominators;
* each pushforward sigma_{I *} a_i is computed at most once per call,
  as one exponent map (``sigma_pushforward``), and read as integer
  numerators over the denominator of a_i;
* each trie node stands for the sum of its subtree, kept as integer
  numerators over C times the denominators of a_i .. a_n: at the last
  slot sum_I c sigma_{I *} a_n, with the sign (-1)^{sum q_i p_j} in c,
  above it the sum over (I, child) of sigma_{I *} a_i ^ (the child's
  sum), accumulated in place by the one wedge kernel
  (``forms._wedge_into``), so every edge above the last slot costs one
  wedge, no prefix is ever wedged, and nothing is rescaled or reduced
  on the way; the root's numerators become one form, with one gcd, over
  C times the product of the inputs' denominators.

By bilinearity of the wedge this is the same sum as the per-string
formula above, regrouped as a_1 ^ (a_2 ^ (...)); the regrouping is valid
because the wedge of polynomial forms is associative.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, factorial, lcm, prod

from .forms import PolyForm, _wedge_into
from .linalg import (ONE, Echelon, accumulate, accumulate_scaled, multilinear_terms,
                     scaled_sum)
from .scalars import bernoulli, rat
from .signs import column_order, perm_sign, sorted_image
from .structures import Carrier, KeyedCarrier
from .transfer import nc_structure, nc_vector_from_element


class LevelCapError(RuntimeError):
    pass


# ---------------------------------------------------------------------
# polynomial group cochains for Z^m acting on R^m
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
        later blocks up.
        """
        p = self.p
        if not 0 <= i <= p + 1:
            raise ValueError("coface index %r out of range 0..%d" % (i, p + 1))
        return self._block_sums([2 if k == i else 1 for k in range(p + 1)], p + 1)

    def _block_sums(self, sizes, level):
        """The pullback to ``level`` along block k -> the sum of the next
        sizes[k] blocks, from block 0 on, the blocks after them unread.

        One exponent map: each block is expanded by the multinomial
        theorem.  Group variables carry no differentials, so the dts
        stay, and distinct (monomial, split) pairs give distinct
        monomials.  Each monomial's image holds it moved whole into one
        block per range, with its own numerator, and every other
        numerator of the image is a multiple of that one; so the image
        has the numerators' gcd and the denominator of the cochain.
        """
        m, f = self.m, self.form
        pad = (0,) * (m * (level + 1 - sum(sizes)))
        num = {}
        for (exps, dts), c in f.num.items():
            images = [((), c)]
            for k, r in enumerate(sizes):
                splits = _multinomial_splits(exps[m * k:m * k + m], r)
                images = [(e + split, b * coeff) for e, b in images
                          for split, coeff in splits]
            for e, b in images:
                num[(e + pad, dts)] = b
        return GroupCochain(m, level, PolyForm._trusted(m * (level + 1), f.den, num,
                                                        "z", m))

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
def _multinomial_splits(block, r):
    """The expansion of prod_j (u_1j + .. + u_rj)^block[j]: the pairs
    (exponents of u_1, then of u_2, .., of u_r, the product over j of
    the multinomial coefficients), the first part's exponents ascending
    in ``itertools.product`` order."""
    if r == 1:
        return ((block, 1),)
    out = []
    for ks in itertools.product(*[range(e + 1) for e in block]):
        b = prod(comb(e, k) for e, k in zip(block, ks))
        rest = tuple(e - k for e, k in zip(block, ks))
        out += [(ks + split, b * c) for split, c in _multinomial_splits(rest, r - 1)]
    return tuple(out)


class GroupCochainBackend(Carrier):
    """The carrier of the group cochains of Z^m acting on R^m.

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

    def _grade(self, x):
        return x.p

    def _into(self, acc, x, c):
        accumulate_scaled(acc, x.form.den, x.form.num.items(), c)

    def _wrap(self, acc, p):
        m = self.m
        return GroupCochain(m, p, PolyForm._trusted(m * (p + 1), *scaled_sum(acc), "z", m))


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
        return all(val.is_normalized() for val in self.components.values())


def partial_tilde(backend, val, p):
    """The cosimplicial differential: alternating sum of cofaces."""
    return backend.sum(((val.coface(i), Fraction((-1) ** i))
                        for i in range(p + 2)), p + 1)


def tot_differential(v: TotElement) -> TotElement:
    """D(a) = partial-tilde(a) + (-1)^p d(a) on bidegree (p, q)."""
    be = v.backend

    def terms():
        for (p, q), val in v.components.items():
            yield TotElement(be, {(p, q + 1): val.d()}), Fraction((-1) ** p)
            yield TotElement(be, {(p + 1, q): partial_tilde(be, val, p)}), Fraction(1)

    return TotalComplexAlgebra(be).sum(terms())


# ---------------------------------------------------------------------
# pushforward along the inclusions of faces
# ---------------------------------------------------------------------

def sigma_pushforward(val, I, p, target_level):
    """A(sigma_I) for the inclusion with image I in {0..target_level}: I
    is a strictly increasing string of p+1 vertices.

    The composite of the cofaces d^j, j not in I, as one exponent map:
    x -> x + g_1 + .. + g_{I_0}, g_k -> g_{I_{k-1}+1} + .. + g_{I_k},
    and no g after g_{I_p} is read.
    """
    if (len(I) != p + 1 or any(a >= b for a, b in zip(I, I[1:]))
            or not 0 <= I[0] <= I[-1] <= target_level):
        raise ValueError("index string %r is not an increasing string of %d "
                         "vertices in 0..%d" % (I, p + 1, target_level))
    if p == target_level:
        return val
    return val._block_sums([I[0] + 1] + [b - a for a, b in zip(I, I[1:])], target_level)


# ---------------------------------------------------------------------
# the products
# ---------------------------------------------------------------------

def _nc_top_coefficient(l, n, strings, arity_cap):
    """Top coefficient of m_n^{[l]}(lam_{I_1}, .., lam_{I_n}), read off
    the entries of m_n on the words of the product."""
    alg = nc_structure(l, arity_cap).algebra
    elems = [nc_vector_from_element({I: ONE}, l) for I in strings]
    [top] = nc_vector_from_element({tuple(range(l + 1)): ONE}, l)
    return sum((c * alg.entry(n, word).get(top, 0)
                for word, c in multilinear_terms(elems)), Fraction(0))


def _freeze(trie, scale):
    """Nested dicts as nested tuples of (index string, child) pairs, the
    leaves multiplied by ``scale``."""
    return tuple((I, _freeze(child, scale) if isinstance(child, dict)
                  else int(child * scale)) for I, child in trie.items())


# (l, ps, arity_cap) -> the (denominator, frozen trie) of ``_top_table``
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

    Returns (C, trie): C the lcm of the coefficients' denominators and
    a trie over the n = len(ps) slots, whose level i holds (I_i, child)
    pairs and last level (I_n, C * coefficient) pairs of integers, in
    the order of ``itertools.product`` over the slots.  A prefix appears
    only when some coefficient below it is non-zero.  ``_nc_top_coefficient`` runs
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
        den = 1
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
                den = lcm(den, c.denominator)
        table = _TOP_TABLES[key] = (den, _freeze(trie, den))
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
        the module docstring over the integer trie of non-zero top
        coefficients, times (-1)^{sum_{i<j} q_i p_j}.
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
        sign = (-1) ** sum(qs[i] * ps[j] for i in range(n) for j in range(i + 1, n))
        dens = [val.form.den for val in vals]
        pushed = {}

        def push(slot, I):
            """The numerators of sigma_{I *} a_slot, over den(a_slot):
            a pushforward keeps its input's denominator (see
            ``GroupCochain._block_sums``)."""
            num = pushed.get((slot, I))
            if num is None:
                img = sigma_pushforward(vals[slot], I, ps[slot], l)
                num = pushed[(slot, I)] = img.form.num
            return num

        def fold(node, slot):
            """The numerators of the sum below node, over C times the
            denominators of a_slot..a_n: sigma_{I *} a_slot ^ fold(child)
            over its (I, child) pairs, and sign * sum_I c sigma_{I *} a_n
            at the last slot."""
            out = {}
            if slot == n - 1:
                for I, c in node:
                    c *= sign
                    accumulate(out, ((k, c * v) for k, v in push(slot, I).items()))
                return out
            for I, child in node:
                a = push(slot, I)
                if a:
                    b = fold(child, slot + 1)
                    if b:
                        _wedge_into(out, a, b)
            return out

        den, table = _top_table(l, ps, self.arity_cap)
        m = be.m
        form = PolyForm._trusted(m * (l + 1), den * prod(dens), fold(table, 0), "z", m)
        return TotElement(be, {(l, sum(qs)): GroupCochain(m, l, form)})


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
            (TotElement(be, {(0, 2): c1.wedge(c2)}), Fraction(1)),
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
                prod = bs[j] if prod is None else prod.wedge(bs[j])
            if prod is None:
                continue
            term = prod.wedge(partial_tilde(be, ci, 0))
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
    term = be.sum(((b.wedge(partial_tilde(be, c, 0)), Fraction(-1, 2)),
                   (b.wedge(c.coface(0)), Fraction(1))))
    return TotElement(be, {(1, c.form_degree()): term})


def _m2_bb(alg, b1, b2):
    """m2(b1, b2): the one-sixth combination of coface products."""
    be = alg.backend
    if be.is_zero(b1) or be.is_zero(b2):
        return alg.zero()
    d0b1, d1b1, d2b1 = (b1.coface(i) for i in range(3))
    d0b2, d1b2, d2b2 = (b2.coface(i) for i in range(3))
    acc = be.sum(((d0b1.wedge(be.add(d1b2, d2b2)), Fraction(-1, 6)),
                  (d1b1.wedge(be.add(d0b2, d2b2, Fraction(-1))), Fraction(1, 6)),
                  (d2b1.wedge(be.add(d0b2, d1b2)), Fraction(1, 6))))
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
        return alg.sum(((TotElement(be, {(0, 1): c.wedge(x)}), Fraction(1)),
                        (_m2_bc(alg, b, x), Fraction(1))))
    if any(be.is_zero(b) for b in bs):
        return alg.zero()
    prod = None
    for b in bs:
        prod = b if prod is None else prod.wedge(b)
    # an even (degree-0) insertion enters only through the binomial;
    # no per-slot sign occurs (calibrated against the general formula)
    coeff = (Fraction((-1) ** (l - 1)) * comb(l - 1, slot - 1)
             * bernoulli(l - 1) / factorial(l - 1))
    term = prod.wedge(partial_tilde(be, x, 0)).scale(coeff)
    return TotElement(be, {(1, 0): term})
