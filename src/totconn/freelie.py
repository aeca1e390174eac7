"""Truncated free tensor and free Lie algebra machinery.

Words are tuples of generator indices; series are dicts {word: Fraction}
truncated at a fixed word length.  The tensor algebra carries the
concatenation product and the unshuffle coproduct, whose primitives are
the free Lie algebra; Lyndon words provide the canonical bracket basis.
All generators sit in degree zero, so no Koszul signs appear here.

Public functions and methods take and return ``Fraction`` dicts.  Inside,
every product, power series and normal form is computed on scaled series
``(den, {word: int})``, the format of ``linalg`` (``to_scaled``), by one
kernel keyed by a normal-form table ``(P, {pivot: image})``: P times the
normal form of a word is the word itself times P, or its image when the
word is a pivot (``_table_nf``).  The enveloping quotient's table is
``EnvelopingQuotient._pivot_images``; the free tensor algebra is the
quotient by the zero ideal, with the table ``FREE = (1, {})``.  Each
operation divides out the gcd of the denominator and the numerators once
at its end, and ``Fraction``s are built only when a value leaves the
public interface.

Lie elements, the ideal of a presentation and the fiber u/I^k are kept
in Lyndon coordinates, read off without an elimination.

``QuotientLie`` is the enveloping quotient's Lie algebra in coordinates,
and the one owner of its Lie span: a basis of the normal forms of the
Lyndon brackets, ordered by weight, with structure constants computed
once per pair on first use.  Transport runs in it
(``connection.transport``), and only its final exp is taken in the
quotient; ``EnvelopingQuotient.is_grouplike`` asks it whether a log lies
in the span.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, lcm

from .linalg import Echelon, accumulate, from_scaled, lowest_terms, to_scaled
from .scalars import rat, rat_str


class TruncationError(RuntimeError):
    pass


EMPTY = ()


def check_order(order):
    if order < 1:
        raise TruncationError("truncation order must be >= 1")


# ---------------------------------------------------------------------
# scaled series in normal form, read from one table
# ---------------------------------------------------------------------

# the normal-form table of the free tensor algebra: no word is a pivot
FREE = (1, {})


def _scaled(x: dict, order: int):
    """The scaled form of a {word: Fraction} dict cut at ``order``."""
    return to_scaled({w: c for w, c in x.items() if len(w) <= order})


def _table_nf(table, raw):
    """P NF(raw) of a {word: int} dict, as a {word: int} dict, for the
    table ``(P, {pivot: image})``."""
    P, images = table
    out = {w: P * c for w, c in raw.items() if c and w not in images}
    get = out.get
    for w, c in raw.items():
        image = images.get(w)
        if image is None or not c:
            continue
        for u, n in image.items():
            n = get(u, 0) + c * n
            if n:
                out[u] = n
            else:
                del out[u]
    return out


def _product_sum(triples, order, table):
    """P NF(sum of c a b over the ``(a, b, c)`` in ``triples``), as a
    {word: int} dict: a is a {word: int} dict with no word longer than
    ``order``, b one arranged by ``_by_room`` and c an int.

    The concatenations no longer than the order are summed first, so
    each word is brought to its normal form once, by the table.
    """
    raw = {}
    get = raw.get
    for a, b, factor in triples:
        for wa, ca in a.items():
            ca *= factor
            for wb, cb in b[order - len(wa)]:
                w = wa + wb
                raw[w] = get(w, 0) + ca * cb
    return _table_nf(table, raw)


def _by_room(b, order):
    """The terms of the {word: int} dict b no longer than r, for each
    r = 0..order, as the list of lists ``_product_sum`` reads."""
    words = sorted(b, key=len)
    terms = [(w, b[w]) for w in words]
    lengths = list(map(len, words))
    return [terms[:bisect.bisect_right(lengths, r)] for r in range(order + 1)]


def _mul(a, b, order, table):
    """The product of two scaled normal forms, as a normal form."""
    (da, na), (db, nb) = a, b
    return lowest_terms(da * db * table[0],
                        _product_sum([(na, _by_room(nb, order), 1)], order, table))


def _power_series(x, coefficients, order, table):
    """sum_k coefficients[k] x^k of a scaled normal form x without
    constant term, truncated at ``order``, as a normal form in lowest
    terms.

    With x = num/den, x^k is N_k / (den P)^k, N_k = P NF(N_{k-1} num)
    and N_0 = 1, so every term sits over the common denominator
    (den P)^order times the lcm of the coefficients' denominators.
    """
    den, num = x
    scale = den * table[0]
    common = scale ** order * lcm(*[c.denominator for c in coefficients])
    c0 = coefficients[0]
    out = {EMPTY: c0.numerator * (common // c0.denominator)} if c0 else {}
    num = _by_room(num, order)
    power = {EMPTY: 1}
    for k in range(1, order + 1):
        power = _product_sum([(power, num, 1)], order, table)
        if not power:
            break
        c = coefficients[k]
        f = c.numerator * (common // (scale ** k * c.denominator))
        for w, n in power.items():
            out[w] = out.get(w, 0) + f * n
    return lowest_terms(common, {w: n for w, n in out.items() if n})


def _exp(x, order, table):
    """exp of a scaled normal form without constant term."""
    if EMPTY in x[1]:
        raise ValueError("exp needs a series without constant term")
    return _power_series(x, [Fraction(1, factorial(k)) for k in range(order + 1)],
                         order, table)


def _log(t, order, table):
    """log of a scaled normal form with constant term 1."""
    den, num = t
    if num.get(EMPTY) != den:
        raise ValueError("log needs constant term 1")
    u = (den, {w: n for w, n in num.items() if w != EMPTY})
    return _power_series(u, [Fraction(0)] + [Fraction((-1) ** (k + 1), k)
                                             for k in range(1, order + 1)], order, table)


# ---------------------------------------------------------------------
# the unshuffle coproduct
# ---------------------------------------------------------------------

def unshuffle_coproduct(t: dict, order: int) -> dict:
    """Delta(T) as {(left word, right word): coeff}; generators primitive."""
    def terms():
        for w, c in t.items():
            for r in range(len(w) + 1):
                for S in itertools.combinations(range(len(w)), r):
                    left = tuple(w[i] for i in S)
                    right = tuple(w[i] for i in range(len(w)) if i not in S)
                    yield (left, right), c

    return accumulate({}, terms())


def is_grouplike(t: dict, order: int) -> bool:
    """Delta(T) = T (x) T up to word length ``order`` in each slot pair."""
    if t.get(EMPTY) != 1:
        return False
    delta = unshuffle_coproduct(t, order)
    want = accumulate({}, (((w1, w2), c1 * c2) for w1, c1 in t.items()
                           for w2, c2 in t.items() if len(w1) + len(w2) <= order))
    delta = {k: v for k, v in delta.items() if len(k[0]) + len(k[1]) <= order}
    return delta == want


# ---------------------------------------------------------------------
# Lyndon words and the free Lie algebra
# ---------------------------------------------------------------------

def _length_first(w):
    """Key order on words: by length, then lexicographically."""
    return (len(w), w)


def lyndon_words(num_gens, max_len):
    """All Lyndon words over 0..num_gens-1 of length <= max_len (Duval)."""
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if w[-1] < num_gens:
            out.append(tuple(w))
            while len(w) < max_len:
                w.append(w[len(w) - m])
        while w and w[-1] == num_gens - 1:
            w.pop()
    return sorted(out, key=_length_first)


def standard_factorization(w):
    """w = uv with v the longest proper Lyndon suffix."""
    if len(w) < 2:
        raise ValueError("no factorization for letters")
    for i in range(1, len(w)):
        v = w[i:]
        if _is_lyndon(v):
            return w[:i], v
    raise AssertionError("unreachable for Lyndon input")


def _is_lyndon(w):
    if not w:
        return False
    for i in range(1, len(w)):
        if w[i:] <= w:
            return False
    return True


def commutator(a: dict, b: dict, order: int) -> dict:
    (da, na), (db, nb) = _scaled(a, order), _scaled(b, order)
    num = _product_sum([(na, _by_room(nb, order), 1), (nb, _by_room(na, order), -1)],
                       order, FREE)
    return from_scaled(lowest_terms(da * db, num))


def lyndon_bracket(w, order=None) -> dict:
    """The right-normed standard bracketing of a Lyndon word, expanded."""
    if order is None:
        order = len(w)
    if len(w) == 1:
        return {tuple(w): Fraction(1)}
    u, v = standard_factorization(tuple(w))
    return commutator(lyndon_bracket(u, order), lyndon_bracket(v, order), order)


class FreeLie:
    """The free Lie algebra on named degree-zero generators, truncated.

    ``_bracket_elems[w]``, the expanded bracket of a Lyndon word w, is an
    integer dict: w plus greater words of its length (Reutenauer, *Free Lie
    Algebras*, Thm 5.1).  So in ``lyndon`` order the coefficient of w in
    what is left of x, once the brackets before w are taken off, is the
    Lyndon coordinate of w.
    """

    def __init__(self, gen_names, order):
        check_order(order)
        self.gen_names = list(gen_names)
        self.order = order
        self.lyndon = lyndon_words(len(self.gen_names), order)
        # the letters, then by length, so the brackets of a word's standard
        # factors are there before it: one commutator per bracket
        letters = len(self.gen_names)
        brackets = self._bracket_elems = {w: {w: 1} for w in self.lyndon[:letters]}
        for w in self.lyndon[letters:]:
            u, v = standard_factorization(w)
            brackets[w] = {x: c.numerator for x, c in
                           commutator(brackets[u], brackets[v], order).items()}
        self._ad_memo = {}  # (i, w) -> _ad(i, w)

    def gen(self, i) -> dict:
        return {(i,): Fraction(1)}

    def _coordinates(self, x: dict):
        """The Lyndon coordinates of x as a scaled vector ``(den, {w: int})``;
        None if x is no Lie element up to the order."""
        den, num = to_scaled(x)
        coords = {}
        get = num.get
        for w in self.lyndon:
            if not num:
                break
            c = get(w)
            if c:
                coords[w] = c
                for u, n in self._bracket_elems[w].items():
                    n = get(u, 0) - c * n
                    if n:
                        num[u] = n
                    else:
                        del num[u]
        return None if num else (den, coords)

    def to_lyndon(self, x: dict):
        """Lyndon coordinates of a Lie element; None if not a Lie element.

        Coefficients are coerced with ``rat``: a float raises TypeError."""
        s = self._coordinates({w: rat(c) for w, c in x.items()})
        return None if s is None else from_scaled(s)

    def _ad(self, i, w):
        """[x_i, P_w] in Lyndon coordinates, an integer dict, computed once."""
        out = self._ad_memo.get((i, w))
        if out is None:
            out = self._ad_memo[i, w] = self._coordinates(
                commutator({(i,): 1}, self._bracket_elems[w], self.order))[1]
        return out

    def from_lyndon(self, coords) -> dict:
        return accumulate({}, ((u, rat(c) * n) for w, c in coords.items()
                               for u, n in self._bracket_elems[tuple(w)].items()))

    def graded_dims(self):
        return dict(Counter(map(len, self.lyndon)))


def word_labels(series: dict, gen_names):
    """{label: "p/q"} of a {tensor word: coeff} series, in word order; a
    word is labelled "1" if empty, else its generator names joined by "."."""
    return {("1" if not w else ".".join(gen_names[i] for i in w)): rat_str(c)
            for w, c in sorted(series.items())}


def series_repr(x: dict, gen_names):
    if not x:
        return "0"
    bits = []
    for w in sorted(x, key=_length_first):
        label = "1" if not w else "".join(gen_names[i] for i in w)
        bits.append("%s*%s" % (rat_str(x[w]), label))
    return " + ".join(bits)


def bracket_label(w, gen_names):
    """Lyndon word -> nested-bracket string like "[X,[X,Y]]"."""
    w = tuple(w)
    if len(w) == 1:
        return gen_names[w[0]]
    u, v = standard_factorization(w)
    return "[%s,%s]" % (bracket_label(u, gen_names), bracket_label(v, gen_names))


def parse_bracket(expr, gen_names):
    """Nested-bracket string -> expanded tensor series of the bracketing."""
    expr = expr.strip()
    if not expr.startswith("["):
        if expr not in gen_names:
            raise ValueError("unknown generator %r" % (expr,))
        return {(gen_names.index(expr),): Fraction(1)}
    if not expr.endswith("]"):
        raise ValueError("unbalanced bracket in %r" % (expr,))
    inner = expr[1:-1]
    depth = 0
    for i, ch in enumerate(inner):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            left = parse_bracket(inner[:i], gen_names)
            right = parse_bracket(inner[i + 1:], gen_names)
            order = max(max((len(w) for w in left), default=1)
                        + max((len(w) for w in right), default=1), 1)
            return commutator(left, right, order)
    raise ValueError("no top-level comma in %r" % (expr,))


def lie_series_from_json(data, free: "FreeLie"):
    out = {}
    for label, c in data["terms"].items():
        c = rat(c)
        accumulate(out, ((w, c * v) for w, v in parse_bracket(label, free.gen_names).items()
                         if len(w) <= free.order))
    return out


# ---------------------------------------------------------------------
# Lie ideals, quotients and the enveloping quotient
# ---------------------------------------------------------------------

def _close(span, generators, order, products):
    """Insert ``generators`` into the echelon ``span`` and close the span
    under ``products``, breadth first.  ``products(v)`` yields the
    products of v by one letter; they are taken of every generator and of
    every vector whose insertion grew the rank.  A vector with no word
    shorter than ``order`` is skipped: all its products are truncated."""
    frontier = list(generators)
    for g in frontier:
        span.insert(g)
    while frontier:
        nxt = []
        for v in frontier:
            if min(map(len, v), default=order) >= order:
                continue
            for h in products(v):
                if h and span.insert(h):
                    nxt.append(h)
        frontier = nxt


class LieIdealPresentation:
    """The Lie ideal generated by given Lie series inside a free Lie algebra.

    Generators may carry tails.  A generator that is no Lie element up to
    the order (it has no Lyndon coordinates) is a ValueError naming its
    index and series.  ``span`` is the ideal cut at the order: an
    ``Echelon`` over Lyndon words, closed under ad_{x_i}.  A bracket has
    no word below its own, so the pivots are the expanded ideal's.
    """

    def __init__(self, free: FreeLie, generators):
        self.free = free
        self.generators = [{w: rat(c) for w, c in g.items()} for g in generators]
        rows = [free._coordinates(g) for g in self.generators]
        if None in rows:
            i = rows.index(None)
            raise ValueError("ideal generator %d is not a Lie element: %s"
                             % (i, series_repr(self.generators[i], free.gen_names)))
        letters, ad = range(len(free.gen_names)), free._ad
        # closed on integer numerators: a span does not depend on scale
        self.span = Echelon(_length_first)
        _close(self.span, [num for _, num in rows], free.order, lambda v: (
            accumulate({}, ((u, c * n) for w, c in v.items() for u, n in ad(i, w).items()))
            for i in letters))

    def contains(self, x: dict) -> bool:
        s = self.free._coordinates(x)
        return s is not None and not self.span.reduce_scaled(*s)[1]


class FiberLieAlgebra:
    """Nilpotent quotient u/I^k of a free Lie algebra modulo an ideal.

    One ``Echelon`` holds the ideal's rows cut below length k, pivoted on
    each row's *last* Lyndon word.  The basis is the Lyndon words below k
    that are no pivot: the brackets independent of the ideal and of the
    brackets before them.  A normal form is reduced Lyndon coordinates.
    """

    def __init__(self, free: FreeLie, ideal: LieIdealPresentation, k: int):
        if k < 2:
            raise ValueError("truncation order k must be >= 2")
        if k - 1 > free.order:
            raise ValueError("free Lie truncation too small for k")
        self.free = free
        self.ideal = ideal
        self.k = k
        position = {w: n for n, w in enumerate(free.lyndon)}
        self._echelon = Echelon(lambda w: -position[w])
        # a row whose pivot, its shortest word, is k or longer cuts to nothing
        for w, (p, tail) in ideal.span._rows.items():
            if len(w) < k:
                self._echelon.insert({w: p, **{u: n for u, n in tail.items() if len(u) < k}})
        self.basis = [w for w in free.lyndon if len(w) < k and w not in self._echelon._rows]

    def normal_form(self, x: dict) -> dict:
        """Image of a Lie series in u/I^k, as quotient-basis coordinates."""
        s = self.free._coordinates({w: c for w, c in x.items() if len(w) < self.k})
        if s is None:
            raise ArithmeticError("element does not reduce to the quotient basis")
        return from_scaled(lowest_terms(*self._echelon.reduce_scaled(*s)))

    def bracket(self, coords_a, coords_b):
        a, b = map(self.free.from_lyndon, (coords_a, coords_b))
        return self.normal_form(commutator(a, b, self.free.order))

    def dim(self):
        return len(self.basis)

    def dims_per_k(self):
        """{kk: dim u/I^kk} for kk = 2..k: the Lyndon words shorter than
        kk, less the ideal's echelon rows whose pivot is shorter than kk.
        The rows are fully reduced and each pivot is its row's shortest
        word, so cutting the rows below length kk keeps exactly those
        rows, and they stay independent."""
        lyndon = [len(w) for w in self.free.lyndon]
        pivots = [len(w) for w in self.ideal.span.pivots()]
        return {kk: sum(n < kk for n in lyndon) - sum(n < kk for n in pivots)
                for kk in range(2, self.k + 1)}

    def graded_dims(self):
        return dict(Counter(map(len, self.basis)))

    def check_jacobi(self):
        failures = []
        coords = [{w: Fraction(1)} for w in self.basis]
        for a, b, c in itertools.combinations(coords, 3):
            j = self.bracket(a, self.bracket(b, c))
            accumulate(j, self.bracket(b, self.bracket(c, a)).items())
            accumulate(j, self.bracket(c, self.bracket(a, b)).items())
            if j:
                failures.append((a, b, c, j))
        return failures


class EnvelopingQuotient:
    """T(gens)/(two-sided ideal of R0), truncated by word length.

    This is the completed enveloping algebra of the fiber Lie algebra at
    truncated scale; transport values and holonomies live here.  The
    two-sided ideal is one ``Echelon``, filled at construction.  Its rows
    are fully reduced, so after construction every normal form is read
    from one table, ``_pivot_images``, by the kernel shared with the free
    tensor algebra; every method computes on scaled series and returns
    ``Fraction`` dicts.  The Lie algebra of the quotient, ``_lie``, is
    built on first use.
    """

    def __init__(self, free: FreeLie, ideal: LieIdealPresentation, order: int):
        check_order(order)
        if order > free.order:
            # the ideal's generators and the Lyndon brackets stop there
            raise TruncationError("quotient order %d exceeds the free Lie "
                                  "truncation %d" % (order, free.order))
        self.free = free
        self.order = order
        self.ideal = ideal
        self._mod = Echelon(_length_first)
        letters = range(len(free.gen_names))

        def left_and_right(v):
            shorter = [(w, c) for w, c in v.items() if len(w) < order]
            for i in letters:
                yield {(i,) + w: c for w, c in shorter}
                yield {w + (i,): c for w, c in shorter}

        _close(self._mod, [{w: c for w, c in g.items() if len(w) <= order}
                           for g in ideal.generators], order, left_and_right)
        # (P, {pivot: image}): P is the lcm of the pivot coefficients, and
        # the image of the pivot of a row (p, tail) is -(P/p) tail.  A word
        # that is no pivot is its own normal form, so P times the normal
        # form of any word is read off this table without an elimination.
        rows = self._mod._rows
        P = lcm(*[p for p, _ in rows.values()])
        self._pivot_images = P, {w: {u: -(P // p) * n for u, n in tail.items()}
                                 for w, (p, tail) in rows.items()}

    def _normal_form(self, x: dict):
        """The normal form of a {word: Fraction} dict, as a scaled series."""
        den, num = _scaled(x, self.order)
        table = self._pivot_images
        return lowest_terms(den * table[0], _table_nf(table, num))

    def _mul(self, a, b):
        return _mul(a, b, self.order, self._pivot_images)

    def reduce(self, x: dict) -> dict:
        return from_scaled(self._normal_form(x))

    def eq(self, a: dict, b: dict) -> bool:
        # normal forms in lowest terms are canonical
        return self._normal_form(a) == self._normal_form(b)

    def mul(self, a: dict, b: dict) -> dict:
        return from_scaled(self._mul(self._normal_form(a), self._normal_form(b)))

    def exp(self, x: dict) -> dict:
        return from_scaled(_exp(self._normal_form(x), self.order, self._pivot_images))

    def log(self, t: dict) -> dict:
        return from_scaled(_log(self._normal_form(t), self.order, self._pivot_images))

    def inverse(self, t: dict) -> dict:
        if t.get(EMPTY) != 1:
            raise ValueError("only grouplike-style series are inverted")
        den, num = _log(self._normal_form(t), self.order, self._pivot_images)
        return from_scaled(_exp((den, {w: -n for w, n in num.items()}),
                                self.order, self._pivot_images))

    def is_grouplike(self, t: dict) -> bool:
        """The normal form of t has constant term 1 and log(t) is a Lie
        element modulo the ideal.

        NF is linear with the ideal as its kernel, so x lies in Lie + I
        exactly when NF(x) lies in the span of the normal forms of the
        Lyndon brackets."""
        s = self._normal_form(t)
        if s[1].get(EMPTY) != s[0]:
            return False
        return self._lie.contains(_log(s, self.order, self._pivot_images))

    @functools.cached_property
    def _lie(self):
        """The quotient's Lie algebra, built once per quotient on first
        use."""
        return QuotientLie(self)


class QuotientLie:
    """The Lie algebra of an enveloping quotient: the span of the normal
    forms of the Lyndon brackets up to the order, closed under the
    commutator.

    It owns the quotient's one echelon of the table normal forms of the
    Lyndon brackets, which ``contains`` reads for
    ``EnvelopingQuotient.is_grouplike``.  Its basis is the echelon's rows,
    in pivot order, as integer vectors.  A row's pivot is its shortest word
    and no other row holds it, so an element of the span is read off its
    pivot entries, and its weight (the length of the shortest word of its
    normal form) is the least pivot length among the rows it uses.
    Weights add under the commutator, since no ideal row is shorter than
    its pivot, and no non-zero element weighs more than ``top``, the
    largest pivot length.

    An element is a scaled vector ``(d, {i: int})`` of coordinates: it is
    the sum of n_i/d times row i.  With P the scale of the quotient's
    table and Q the lcm of the rows' pivot coefficients, the coordinates
    of a Lyndon bracket and the structure constants [row_i, row_j] are
    integer dicts over ``den`` = P Q.  A structure constant is computed
    on first use, and never for a pair whose weights sum above ``top``.
    """

    def __init__(self, env: EnvelopingQuotient):
        self._order = env.order
        self._table = env._pivot_images
        self._free = env.free
        # a Lyndon bracket is homogeneous of its word's length, so the
        # brackets of ``free`` need no truncation
        echelon = self._echelon = Echelon(_length_first)
        for w in env.free.lyndon:
            if len(w) <= env.order:
                echelon.insert(_table_nf(self._table, env.free._bracket_elems[w]))
        rows = echelon._rows
        pivots = echelon.pivots()
        self.weights = [len(w) for w in pivots]
        self.top = max(self.weights, default=0)
        # _within[r]: the number of basis elements of weight at most r
        self._within = [bisect.bisect_right(self.weights, r) for r in range(self.top + 1)]
        Q = lcm(*[rows[w][0] for w in pivots])
        self.den = self._table[0] * Q
        self._rows = [{w: rows[w][0], **rows[w][1]} for w in pivots]
        self._reads = [(w, Q // rows[w][0]) for w in pivots]
        self._constants = {}
        self._lyndon = {}

    def contains(self, scaled):
        """Whether the scaled normal form ``(den, num)`` lies in the span."""
        return not self._echelon.reduce_scaled(*scaled)[1]

    def _coordinates(self, num):
        """The coordinates over ``den`` of num/P, for a table normal form
        num = P NF(x) of an integer x in the span."""
        return {i: n * f for i, (w, f) in enumerate(self._reads) if (n := num.get(w))}

    def of_lyndon(self, w):
        """The coordinates over ``den`` of the Lyndon bracket of w."""
        coords = self._lyndon.get(w)
        if coords is None:
            # a Lyndon bracket is homogeneous of its word's length
            coords = {} if len(w) > self._order else self._coordinates(
                _table_nf(self._table, self._free._bracket_elems[w]))
            self._lyndon[w] = coords
        return coords

    def _structure(self, i, j):
        """[row_i, row_j] as coordinates over ``den``."""
        c = self._constants.get((i, j))
        if c is None:
            a, b = self._rows[i], self._rows[j]
            order = self._order
            c = self._coordinates(_product_sum(
                [(a, _by_room(b, order), 1), (b, _by_room(a, order), -1)],
                order, self._table))
            self._constants[i, j] = c
            self._constants[j, i] = {k: -n for k, n in c.items()}
        return c

    def bracket(self, x, y):
        """[x, y] of two scaled coordinate vectors, not in lowest terms."""
        (dx, nx), (dy, ny) = x, y
        out = {}
        if nx and ny:
            # the basis is in weight order, so the j with
            # weight_i + weight_j <= top are those below _within[top - weight_i]
            ys = sorted(ny.items())
            get = out.get
            for i, a in nx.items():
                limit = self._within[self.top - self.weights[i]]
                for j, b in ys:
                    if j >= limit:
                        break
                    if j == i:
                        continue
                    ab = a * b
                    for k, n in self._structure(i, j).items():
                        out[k] = get(k, 0) + ab * n
        return dx * dy * self.den, {k: n for k, n in out.items() if n}

    def exp(self, x):
        """exp of the element x, as a scaled normal form in lowest terms."""
        den, coords = x
        num = {}
        for i, c in coords.items():
            for w, n in self._rows[i].items():
                num[w] = num.get(w, 0) + c * n
        return _exp(lowest_terms(den, {w: n for w, n in num.items() if n}),
                    self._order, self._table)
