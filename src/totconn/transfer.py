"""Homotopy transfer of structures across a contraction.

The big side is any dga-flavored carrier (polynomial forms, a finite
(c)dga window); the small side gets the transferred structure through the
planar-tree sum, implemented as the two-branch recursion

    lam_n = sum_{s=1}^{n-1} (-1)^{s+1} m2( H lam_s (x) H lam_{n-s} ),

performed in the shifted picture, where the two branch maps are even
and the recursion carries no signs of its own.  The calibration anchors
are the Bernoulli coefficients of the transferred interval products and
the one-sixth coefficients on the triangle; the structure relations, the
shuffle-vanishing property and the morphism relations for the inclusion
are the running oracles.

A contraction may carry a ``symmetry``: permutations that act on the big
side and, up to sign, on the small basis keys, and that commute with
the inclusion, the projection, the homotopy and the product.  The tree
sum is then equivariant, lam(sigma.w) = sigma.lam(w) with the signs that
sigma puts on the letters of w.  Dupont's E, Int and s are natural in
simplicial maps (Dupont, Topology 15, 1976), so ``dupont_contraction(n)``
carries the permutations of the vertices 1..n with vertex 0 fixed; they
act monomially on the forms and on the basis 1, v_i, L_I.  A word is
evaluated once per orbit, at the orbit's representative: the word with
its vertices relabelled in the order of their columns
(``signs.column_order``), which the symmetry computes from the word
alone, together with the permutation and sign that carry it back.
``lam`` and ``hlam`` evaluate representatives and relabel a form to any
other word when that word is first read; ``_ensure`` projects each
representative once and fills every other word's table entry from it.
Contractions without a symmetry evaluate every word on its own.

Dupont's contraction and the Hodge contractions send the unit to the
unit, and their side conditions h i = 0, h h = 0 and p h = 0 make the
transfer strictly unital: m_k vanishes for k >= 3 on every word that
holds the unit, and so does hlam on every such word of length >= 2
(see ``TransferredAlgebra``).  The transfer checks once that the
contraction's unit key includes to a two-sided unit of the big product,
and then evaluates none of those words; a contraction without a unit
key, or whose unit fails the check, has every word evaluated.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from types import MappingProxyType

from .dupont import dupont_E, dupont_Int, dupont_s, index_strings
from .graded import GradedVectorSpace
from .linalg import MINUS_ONE, ONE, Coordinates, Echelon, accumulate, multilinear_terms
from .signs import column_order, sorted_image
from .structures import (FiniteAlgebra, FormsAlgebra, InfinityMorphism,
                         shift_sign)


class Contraction:
    """Inclusion/projection/homotopy data with verified side conditions.

    ``big`` is an algebra carrier; ``include`` maps small basis keys to
    big elements, ``project`` big elements to small vectors, ``homotopy``
    big elements to big elements (degree -1).  ``symmetry`` is None or a
    group that the four maps commute with (see ``VertexPermutations``).
    """

    def __init__(self, big, small_space: GradedVectorSpace, include, project,
                 homotopy, unit_key=None, tag=""):
        self.big = big
        self.small_space = small_space
        self.include = include
        self.project = project
        self.homotopy = homotopy
        self.unit_key = unit_key
        self.tag = tag
        self.symmetry = None

    def include_vec(self, vec):
        return self.big.sum((self.include(key), c) for key, c in vec.items())

    def verify_side_conditions(self, witnesses=()):
        """p i = Id always; the h-conditions on the supplied big elements."""
        failures = []
        for key in self.small_space.keys():
            got = self.project(self.include(key))
            if got != {key: Fraction(1)}:
                failures.append(("p i != Id", key, got))
            hi = self.homotopy(self.include(key))
            if not self.big.is_zero(hi):
                failures.append(("h i != 0", key))
        for w in witnesses:
            hw = self.homotopy(w)
            if not self.big.is_zero(self.homotopy(hw)):
                failures.append(("h h != 0", repr(w)))
            if self.project(hw):
                failures.append(("p h != 0", repr(w)))
            lhs = self.big.add(self.big.m(1, [hw]), self.homotopy(self.big.m(1, [w])))
            rhs = self.big.add(self.include_vec(self.project(w)), w, Fraction(-1))
            if not self.big.is_zero(self.big.add(lhs, rhs, Fraction(-1))):
                failures.append(("d h + h d != i p - Id", repr(w)))
        return failures


class TransferResult:
    """Transferred structure plus the inclusion quasi-morphism."""

    def __init__(self, algebra: FiniteAlgebra, inclusion: InfinityMorphism,
                 contraction: Contraction):
        self.algebra = algebra
        self.inclusion = inclusion
        self.contraction = contraction


class ArityCapError(RuntimeError):
    pass


class TransferredAlgebra(FiniteAlgebra):
    """Transferred structure with lazily computed structure constants.

    Structure constants m_n on basis words are evaluated from the tree
    recursion on first read (``entry``, ``m``) and cached in sparse tables
    of the usual shape, so checkers and serialization see a table-backed
    structure; only the words a reader asks for are evaluated.  m_n has
    degree 2 - n and the contraction is graded, so a word whose output
    degree (its degree sum plus 2 - n) holds no basis key is zero: it is
    recorded as filled without evaluating its tree sum.  The
    tables belong to the transfer, so that a shared (memoized) structure
    cannot be changed by one of its users: ``set_value`` raises
    ``TypeError``, and ``maps``, each of its tables and each table value
    are read-only views (``MappingProxyType``) of a private store that
    only ``_set_value`` writes.

    The forms lam(w) and hlam(w) = eta Lam(w) live in ``_lam``, keyed by w
    and ("h", w), and ``_done`` holds the (k, w) whose m_k entry is filled.
    Under a symmetry a form is evaluated only at its orbit's
    representative and relabelled from there on the first read of another
    word.  Both are write-once: no value in them is ever replaced.

    ``strict_unit_key`` is the contraction's unit key when its inclusion
    is a two-sided unit of the big product (``_includes_a_unit``), else
    None.  Then the transfer is strictly unital.  A planar tree of the
    sum with a unit leaf dies at that leaf's parent vertex: the product
    there returns the other branch, which is i(x) for a leaf x and
    h(...) for a subtree, and the next map above kills it, h by h i = 0
    or h h = 0 below the root and p by p h = 0 at the root.  Only at
    arity 2 is the other branch a leaf read by p, and p i = Id.  So hlam
    is zero on every word of length >= 2 that holds the unit, and m_k on
    every such word of arity k >= 3; neither is evaluated or stored, and
    ``m`` is zero at k >= 3 as soon as one argument is a multiple of the
    unit alone.
    """

    def __init__(self, contraction: Contraction, arity_cap: int, kind="Cinf"):
        super().__init__(contraction.small_space, kind=kind,
                         arity_cap=arity_cap, unit_key=contraction.unit_key)
        self._tables = {}
        self._views = {}
        self.maps = MappingProxyType(self._views)
        self.contraction = contraction
        self._lam = {}
        self._done = set()
        self.strict_unit_key = (contraction.unit_key if _includes_a_unit(contraction)
                                else None)
        big = contraction.big
        for key in self.space.keys():
            val = contraction.project(big.m(1, [contraction.include(key)]))
            if val:
                self._set_value(1, (key,), val)

    def set_value(self, k, input_word, output_vec):
        raise TypeError("the tables of a transferred structure are read-only; "
                        "copy them into a FiniteAlgebra to change them")

    def _set_value(self, k, input_word, output_vec):
        input_word, out = self._checked(k, input_word, output_vec)
        table = self._tables.get(k)
        if table is None:
            table = self._tables[k] = {}
            self._views[k] = MappingProxyType(table)
        if out:
            table[input_word] = MappingProxyType(out)
        else:
            table.pop(input_word, None)

    def _canonical(self, word):
        """The symmetry's ``canonical(word)``; (word, None, 1) without one."""
        sym = self.contraction.symmetry
        return (word, None, 1) if sym is None else sym.canonical(word)

    def _form(self, tag, word):
        """lam (tag None) or hlam (tag "h") of ``word``: stored, or on the
        first read that of the representative, relabelled and stored.  The
        hlam of a word of length >= 2 that holds a strict unit is a fresh
        zero, never stored."""
        key = (tag, word) if tag else word
        val = self._lam.get(key)
        if val is None:
            if tag and len(word) > 1 and self.strict_unit_key in word:
                return self.contraction.big.zero()
            rep, perm, sign = self._canonical(word)
            val = self._rep_form(tag, rep)
            if rep != word:
                val = self._lam[key] = self.contraction.symmetry.form(perm, val, sign)
        return val

    def hlam(self, word):
        """eta Lam on a word of basis keys: the inclusion for single
        letters, the homotopy of the tree sum otherwise.  In the shifted
        picture these maps are even, so the recursion itself is sign-free.
        """
        return self._form("h", word)

    def lam(self, word):
        return self._form(None, word)

    def _rep_form(self, tag, rep):
        """lam or hlam of a representative, evaluated on its first read."""
        key = (tag, rep) if tag else rep
        val = self._lam.get(key)
        if val is None:
            if not tag:
                val = self._tree_sum(rep)
            elif len(rep) == 1:
                val = self.contraction.include(rep[0])
            else:
                val = self.contraction.homotopy(self._rep_form(None, rep))
            self._lam[key] = val
        return val

    def _tree_sum(self, word):
        n = len(word)
        if n > self.arity_cap:
            raise ArityCapError("transfer: arity cap %d exceeded" % self.arity_cap)
        big = self.contraction.big
        degs = [k[0] for k in word]

        def terms():
            for s in range(1, n):
                left = self.hlam(word[:s])
                right = self.hlam(word[s:])
                if not (big.is_zero(left) or big.is_zero(right)):
                    # delta_2 on the shifted carriers: the only sign is the
                    # shift dictionary of the binary product on the left degree
                    left_deg = sum(degs[:s]) + 1 - s
                    yield big.m(2, [left, right]), MINUS_ONE if (left_deg - 1) % 2 else ONE

        return big.sum(terms())

    def _ensure(self, k, word):
        """Fill m_k on ``word``: at a representative by projecting its
        form, at any other word by relabelling its representative's entry,
        so that no form is relabelled only to be projected.  A word of an
        output degree with no basis key, and under a strict unit a word of
        arity k >= 3 that holds the unit, is zero and evaluates nothing."""
        if k == 1 or (k, word) in self._done:
            return
        if ((k > 2 and self.strict_unit_key in word)
                or sum(key[0] for key in word) + 2 - k not in self.space.degrees):
            self._done.add((k, word))
            return
        rep, perm, sign = self._canonical(word)
        if (k, rep) not in self._done:
            self._done.add((k, rep))
            val = self.contraction.project(self._rep_form(None, rep))
            if val:
                if shift_sign([key[0] for key in rep]) != 1:
                    val = {kk: -c for kk, c in val.items()}
                self._set_value(k, rep, val)
        if rep != word:
            self._done.add((k, word))
            val = self._tables.get(k, {}).get(rep)
            if val:
                self._set_value(k, word, self.contraction.symmetry.vector(perm, val, sign))

    def m(self, k, elems):
        if len(elems) != k:
            raise ValueError("arity mismatch")
        if k > self.arity_cap:
            raise ArityCapError("transfer: arity cap %d exceeded" % self.arity_cap)
        unit = self.strict_unit_key
        if k > 2 and any(len(e) == 1 and unit in e for e in elems):
            return {}
        # only the words are needed here; their coefficients are
        # multiplied out once, in FiniteAlgebra.m
        for wrd in itertools.product(*elems):
            self._ensure(k, wrd)
        return super().m(k, elems)

    def entry(self, k, word):
        """m_k on one word of basis keys, filled on its first read: the
        stored read-only value, empty when it is zero."""
        if k > self.arity_cap:
            raise ArityCapError("transfer: arity cap %d exceeded" % self.arity_cap)
        self._ensure(k, word)
        return self._tables.get(k, {}).get(word, {})

    def materialize(self, arity):
        """Fill m_k on every word of arity 2..``arity``."""
        for k in range(2, arity + 1):
            for word in itertools.product(self.space.keys(), repeat=k):
                self.entry(k, word)


def _includes_a_unit(contraction: Contraction) -> bool:
    """Whether the contraction's unit key includes to a two-sided unit of
    the big product: ``big.one()`` on forms, and on a finite algebra an
    element u with m2(u, e) = e = m2(e, u) on every basis key e."""
    if contraction.unit_key is None:
        return False
    big = contraction.big
    unit = contraction.include(contraction.unit_key)
    if isinstance(big, FormsAlgebra):
        return unit == big.one()
    return all(big.m(2, [unit, e]) == e == big.m(2, [e, unit])
               for e in big.basis_vectors())


def transfer_structure(contraction: Contraction, arity_cap: int,
                       kind="Cinf") -> TransferResult:
    """Transferred m_n for n <= arity_cap, with the inclusion morphism."""
    alg = TransferredAlgebra(contraction, arity_cap, kind=kind)
    big = contraction.big

    def component(elems):
        # f_k on a word is its cached hlam, the inclusion for one letter
        return big.sum((alg.hlam(wrd), coeff if shift_sign([key[0] for key in wrd]) == 1
                        else -coeff) for wrd, coeff in multilinear_terms(elems))

    components = dict.fromkeys(range(1, arity_cap + 1), component)
    inclusion = InfinityMorphism(alg, big, components=components)
    return TransferResult(alg, inclusion, contraction)


# ---------------------------------------------------------------------
# contraction from a Hodge-type decomposition of a finite dga
# ---------------------------------------------------------------------

class HodgeError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def contraction_from_hodge(alg: FiniteAlgebra, w_vectors, m_vectors,
                           names=None, tag="hodge") -> Contraction:
    """Contraction onto span(w_vectors) along m_vectors (+) d(m_vectors).

    The decomposition must be direct and span the window; W must consist
    of closed vectors and M may not contain nonzero exact elements.  Every
    W and M vector must be homogeneous, so that ``project`` and
    ``homotopy`` keep degrees and the transferred m_k has degree 2 - k
    (``TransferredAlgebra`` skips words on that premise).  The
    homotopy inverts d from dM back to M with the sign forced by
    d h + h d = i p - Id.  Each basis key's (W, M, dM) coordinates are
    found once, here; ``project`` and ``homotopy`` only sum them.
    """
    order = alg.space.key_order
    d = lambda v: alg.m(1, [v])

    for i, w in enumerate(w_vectors):
        if d(w):
            raise HodgeError("W is not closed", witness=w)
    dm_vectors = [d(m) for m in m_vectors]
    if any(not dm for dm in dm_vectors):
        raise HodgeError("d is not injective on M",
                         witness=next(m for m in m_vectors if not d(m)))

    basis = list(w_vectors) + list(m_vectors) + dm_vectors
    ech = Echelon(order)
    for v in basis:
        if not ech.insert(v):
            raise HodgeError("decomposition is not direct", witness=v)
    ambient = alg.space.keys()
    coordinates = Coordinates(basis, order)
    rows = {k: coordinates({k: Fraction(1)}) for k in ambient}
    missing = [k for k, (_, leftover) in rows.items() if leftover]
    if missing:
        raise HodgeError("decomposition does not span: missing %r" % (missing,),
                         witness=missing)

    # exact elements inside M (beyond 0) would break h h = 0 / p h = 0
    exact = Echelon(order)
    for k in ambient:
        dv = d({k: Fraction(1)})
        if dv:
            exact.insert(dv)
    for m in m_vectors:
        if exact.contains(m):
            raise HodgeError("M contains a nonzero exact element", witness=m)

    def coords(vec):
        return accumulate({}, ((j, c * x) for k, c in vec.items() for j, x in rows[k][0].items()))

    if names is None:
        names = ["w%d" % (j + 1) for j in range(len(w_vectors))]
    by_degree = {}
    w_keys = []
    for name, v in zip(names, w_vectors):
        deg = {k[0] for k in v}
        if len(deg) != 1:
            raise HodgeError("W basis vector not homogeneous", witness=v)
        deg = deg.pop()
        by_degree.setdefault(deg, []).append(name)
        w_keys.append((deg, name))
    for v in m_vectors:
        if len({k[0] for k in v}) != 1:
            raise HodgeError("M basis vector not homogeneous", witness=v)
    small = GradedVectorSpace(by_degree)

    unit_key = None
    if alg.unit_key is not None:
        for key, v in zip(w_keys, w_vectors):
            if v == {alg.unit_key: Fraction(1)}:
                unit_key = key

    def include(key):
        return dict(w_vectors[w_keys.index(key)])

    def project(vec):
        cs = coords(vec)
        return {w_keys[j]: cs[j] for j in range(len(w_vectors)) if j in cs}

    def homotopy(vec):
        cs = coords(vec)
        base = len(w_vectors) + len(m_vectors)
        return accumulate({}, ((k, -cs[base + j] * v) for j, mv in enumerate(m_vectors)
                               if base + j in cs for k, v in mv.items()))

    return Contraction(alg, small, include, project, homotopy,
                       unit_key=unit_key, tag=tag)


def identity_contraction(alg: FiniteAlgebra) -> Contraction:
    space = alg.space
    return Contraction(alg, space,
                       include=lambda key: {key: Fraction(1)},
                       project=lambda vec: dict(vec),
                       homotopy=lambda vec: {},
                       unit_key=alg.unit_key, tag="identity")


# ---------------------------------------------------------------------
# the transferred structures on the simplex cochains
# ---------------------------------------------------------------------

# L_I is named by the digits of its vertices, one digit each
NC_MAX_N = 9


def nc_space(n) -> GradedVectorSpace:
    if n > NC_MAX_N:
        raise ValueError("nc_space: basis names spell one digit per vertex, "
                         "so n must be at most %d, got %d" % (NC_MAX_N, n))
    degrees = {0: ["1"] + ["v%d" % i for i in range(1, n + 1)]}
    for size in range(2, n + 2):
        degrees[size - 1] = ["L" + "".join(map(str, I))
                             for I in index_strings(n, size)]
    return GradedVectorSpace(degrees)


def nc_key_to_lambda(key, n):
    """Small basis key -> elementary cochain {I: c} on the n-simplex: L_I
    and v_i are lambda_I and lambda_i, and the unit key is the sum of the
    vertices."""
    name = key[1]
    if name == "1":
        return {(i,): ONE for i in range(n + 1)}
    return {tuple(int(ch) for ch in name[1:]): ONE}


def nc_vector_from_element(vec, n):
    """Elementary cochain {I: c} on the n-simplex -> sparse vector over
    the nc_space basis."""
    def terms():
        for I, c in vec.items():
            if len(I) > 1:
                yield (len(I) - 1, "L" + "".join(map(str, I))), c
            elif I[0]:
                yield (0, "v%d" % I[0]), c
            else:
                # lambda_0 = 1 - sum_i lambda_i in the adapted basis
                yield (0, "1"), c
                for j in range(1, n + 1):
                    yield (0, "v%d" % j), -c

    return accumulate({}, terms())


class VertexPermutations:
    """The permutations of the vertices 1..n of the n-simplex, vertex 0 fixed.

    A permutation is a tuple ``perm`` over 0..n with perm[0] == 0 that
    sends vertex v to perm[v].  It acts on forms by t_v -> t_perm[v] and
    dt_v -> dt_perm[v], which fixes t_0 = 1 - sum t_v and dt_0, and on the
    small basis by 1 -> 1, v_i -> v_perm[i] and L_I -> sgn L_sort(perm I),
    where sgn is the sign of sorting perm I.  The representative of a
    word relabels the vertices 1..n in the order of their columns over
    the word's letters (``signs.column_order``); the images of the basis
    keys are tabled once per permutation.
    """

    def __init__(self, n):
        self.n = n
        # the vertices a basis key holds: () for 1, (i,) for v_i, I for L_I
        self._holds = {key: tuple(int(ch) for ch in key[1][1:])
                       for key in nc_space(n).keys()}
        self._tables = {}
        # a word's column order -> (perm, its inverse)
        self._by_order = {}

    def _table(self, perm):
        """{key: (perm . key, sign)} over the small basis, built once per perm."""
        table = self._tables.get(perm)
        if table is None:
            table = self._tables[perm] = {}
            for key, index in self._holds.items():
                image, sign = sorted_image(perm, index)
                if key[0]:
                    name = "L" + "".join(map(str, image))
                else:
                    name = "v%d" % image if image else "1"
                table[key] = (key[0], name), sign
        return table

    def canonical(self, word):
        """(rep, perm, sign) with word = sign * perm . rep, rep the same for
        every word of the orbit of ``word``; a representative is its own,
        with perm the identity and sign 1."""
        order, _ = column_order([self._holds[key] for key in word], range(1, self.n + 1))
        order = tuple(order)
        hit = self._by_order.get(order)
        if hit is None:
            perm = (0, *order)
            hit = self._by_order[order] = (
                perm, tuple(sorted(range(len(perm)), key=perm.__getitem__)))
        rep, sign = self.word(hit[1], word)
        return rep, hit[0], sign

    def word(self, perm, word):
        """perm . word, letter by letter, as (image word, sign)."""
        table = self._table(perm)
        sign = 1
        image = []
        for key in word:
            img, s = table[key]
            image.append(img)
            sign *= s
        return tuple(image), sign

    def vector(self, perm, vec, sign):
        """sign * perm . vec on the small basis."""
        table = self._table(perm)
        out = {}
        for key, c in vec.items():
            img, s = table[key]
            out[img] = c if s == sign else -c
        return out

    def form(self, perm, form, sign):
        """sign * perm . form."""
        return form.relabel([perm[v] - 1 for v in range(1, self.n + 1)], sign)


def dupont_contraction(n) -> Contraction:
    big = FormsAlgebra(n)
    space = nc_space(n)

    def include(key):
        return dupont_E(nc_key_to_lambda(key, n), n)

    def project(form):
        return nc_vector_from_element(dupont_Int(form, n), n)

    def homotopy(form):
        return dupont_s(form, n)

    con = Contraction(big, space, include, project, homotopy,
                      unit_key=(0, "1"), tag="dupont[%d]" % n)
    if n >= 2:
        con.symmetry = VertexPermutations(n)
    return con


@functools.lru_cache(maxsize=None)
def nc_structure(n, arity_cap) -> TransferResult:
    """Memoized transferred structure on the n-simplex cochains."""
    return transfer_structure(dupont_contraction(n), arity_cap, kind="Cinf")
