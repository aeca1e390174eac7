"""Convolution structures on Hom(T^c(V[1]), A) as truncated series.

A series is a word-indexed family of target elements: the word entries
are shifted-basis generators of the positively graded source, and the
series of degree r assigns to a word of shifted degree k a target element
of degree r + k.  Everything is truncated at a fixed word length, and
exceeding the truncation is a hard error, never silent.

The operations M_n convolve the target structure maps against the word
deconcatenation coproduct (with the alternating arity twist), the
skew-symmetrizations l_n follow, and Maurer-Cartan elements of degree 1
correspond to morphisms of infinity-structures.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import itemgetter

from .freelie import (EnvelopingQuotient, FreeLie, LieIdealPresentation,
                      TruncationError)
from .graded import GradedVectorSpace
from .linalg import ONE, accumulate
from .scalars import rat
from .signs import antisym_sign, shuffle_product
from .structures import (FiniteAlgebra, InfinityMorphism, KeyedCarrier,
                         compositions, delta_apply, f_shifted, shift_sign)


class Generators:
    """Shifted generators of T^c(V[1]) for a positively graded source."""

    def __init__(self, space: GradedVectorSpace):
        if any(d <= 0 for d in space.degrees):
            raise ValueError("source must be positively graded")
        self.space = space
        self.keys = space.keys()           # (degree, name) in V
        self.shifted = [d - 1 for d, _ in self.keys]

    def index_of(self, key):
        return self.keys.index(key)

    def word_degree(self, w):
        return sum(self.shifted[i] for i in w)

    def words(self, max_len):
        for n in range(1, max_len + 1):
            yield from itertools.product(range(len(self.keys)), repeat=n)

    def degree_zero_indices(self):
        return [i for i, d in enumerate(self.shifted) if d == 0]

    def label(self, w):
        return "".join("[%s]" % self.keys[i][1] for i in w)


class TensorSeries:
    """Word-truncated element of the convolution algebra."""

    __slots__ = ("gens", "target", "trunc", "degree", "data")

    def __init__(self, gens: Generators, target, trunc: int, degree: int,
                 data=None):
        if trunc < 1:
            raise TruncationError("truncation order must be >= 1")
        self.gens = gens
        self.target = target
        self.trunc = trunc
        self.degree = degree
        self.data = {}
        if data:
            for w, val in data.items():
                w = tuple(w)
                if len(w) > trunc:
                    raise TruncationError("word beyond truncation order")
                if not target.is_zero(val):
                    self.data[w] = val

    def is_zero(self):
        return not self.data

    def support_order(self):
        """Least word length carrying a nonzero value (the I-filtration)."""
        return min((len(w) for w in self.data), default=None)

    def add(self, other, coeff=Fraction(1)):
        conv = ConvolutionAlgebra(self.gens, self.target, None, self.trunc)
        return conv.add(self, other, coeff)

    def scale(self, c):
        c = rat(c)
        if not c:
            return TensorSeries(self.gens, self.target, self.trunc, self.degree)
        return TensorSeries(self.gens, self.target, self.trunc, self.degree,
                            {w: self.target.scale(v, c) for w, v in self.data.items()})

    def eq(self, other):
        return self.add(other, Fraction(-1)).is_zero()

    def __repr__(self):
        if not self.data:
            return "Series(0)"
        bits = []
        for w in sorted(self.data, key=lambda t: (len(t), t)):
            bits.append("%s: %r" % (self.gens.label(w), self.data[w]))
        return "Series{%s}" % "; ".join(bits)


# ---------------------------------------------------------------------
# the convolution operations
# ---------------------------------------------------------------------

def _word_order(w):
    """Words by length, then index order, with () last."""
    return (not w, len(w), w)


def _support_tuples(series_list, trunc, nonempty=False):
    """The tuples (u_1..u_n), each u_b a key of f_b.data with a nonzero
    value (a non-empty one if ``nonempty``) and total length <= trunc,
    grouped by their concatenation.

    Returns {word: [(sign, pieces, values)]}.  A tuple is one splitting of
    its word, so each list comes in the splitting order of
    ``structures.compositions`` (piece lengths ascending
    lexicographically); ``sign`` is the Koszul sign of every odd f_b
    passing the shifted degrees of the earlier pieces.
    """
    shifted = series_list[0].gens.shifted
    supports = []
    seen = {}     # a series passed more than once is read once
    for f in series_list:
        items = seen.get(id(f))
        if items is None:
            items = seen[id(f)] = sorted(
                [(len(u), sum([shifted[i] for i in u]) & 1, u, v)
                 for u, v in f.data.items()
                 if (u or not nonempty) and not f.target.is_zero(v)],
                key=itemgetter(0))
        if not items:
            return {}
        supports.append(items)
    n = len(series_list)
    odd = [f.degree % 2 for f in series_list]
    rest = [0] * (n + 1)      # least length the pieces b.. still need
    for b in range(n - 1, -1, -1):
        rest[b] = rest[b + 1] + supports[b][0][0]
    groups = {}

    def walk(b, w, parity, sign, pieces, vals):
        if b == n:
            groups.setdefault(w, []).append((sign, pieces, vals))
            return
        if odd[b] and parity:
            sign = -sign
        room = trunc - len(w) - rest[b + 1]
        for length, par, u, v in supports[b]:
            if length > room:
                break
            walk(b + 1, w + u, parity ^ par, sign, pieces + (u,), vals + (v,))

    walk(0, (), 0, 1, (), ())
    return groups


def conv_M(n, series_list, trunc=None):
    """M_n(f_1..f_n): the twisted target structure convolved along the
    deconcatenation coproduct.

    In the shifted conventions used throughout, the arity twist that
    makes degree-1 series with alpha(1) = 0 satisfy the Maurer-Cartan
    equation exactly when their coalgebra avatars are morphisms is a
    global minus on every arity (the degree-1 case m~_1 = -m_1 included);
    the correspondence is asserted jointly in the tests.

    Only tuples of support words are visited, so the cost follows the
    supports, not the number of words up to ``trunc``, and none at all when
    the target is a table-backed structure with no table of arity n.  Each
    word sums its tuples in splitting order, and the output keys come by
    length, then index order, with () last.
    """
    f0 = series_list[0]
    gens, target = f0.gens, f0.target
    if any(f.trunc != f0.trunc for f in series_list):
        raise TruncationError("conv_M: truncation mismatch")
    trunc = trunc if trunc is not None else f0.trunc
    out_degree = sum(f.degree for f in series_list) + 2 - n
    arities = _table_arities(target)
    if arities is not None and n not in arities:
        return TensorSeries(gens, target, trunc, out_degree)
    groups = _support_tuples(series_list, trunc)
    twisted = {1: Fraction(-1), -1: Fraction(1)}     # the sign times the twist
    out = {w: target.sum((target.m(n, list(vals)), twisted[sign])
                         for sign, _, vals in groups[w])
           for w in sorted(groups, key=_word_order)}
    return TensorSeries(gens, target, trunc, out_degree, out)


def _table_arities(alg):
    """The arities of the non-empty tables of a table-backed structure,
    whose ``m`` is zero at every other arity.  None for any other carrier,
    such as a ``TotalComplexAlgebra`` or an ``IntervalAlgebra``, and for a
    ``TransferredAlgebra``, whose read-only ``maps`` fill on first use."""
    maps = getattr(alg, "maps", None)
    if type(maps) is not dict:
        return None
    return {k for k, table in maps.items() if table}


def _delta_transpose(gens: Generators, source, max_len):
    """{generator index g: [(subword s, coeff c, rank)]}: the shifted
    structure component delta(s) holds c * g, as its rank-th term.

    One ``delta_apply`` per subword of length <= max_len that passes the
    source's window; subwords come by length, then index order.  The walk
    stops at a table-backed source's last table arity, above which
    ``delta_apply`` is zero.
    """
    arities = _table_arities(source)
    if arities is not None:
        max_len = min(max_len, max(arities, default=0))
    out = {}
    for s in gens.words(max_len):
        keys = [gens.keys[i] for i in s]
        if not source.in_window(len(s), keys):
            continue
        val = delta_apply(source, len(s), [{k: ONE} for k in keys],
                          [k[0] for k in keys])
        for rank, (key, c) in enumerate(val.items()):
            out.setdefault(gens.index_of(key), []).append((s, c, rank))
    return out


def conv_partial(f: TensorSeries, source: FiniteAlgebra) -> TensorSeries:
    """partial(f) = -m_1 f - (-1)^{|f|} f o delta.

    f o delta is pushed from f's support through the transpose of the
    source coderivation, built once per call: a supported word w2 with a
    generator g at position p reaches every w = w2[:p] + s + w2[p+1:]
    with g in delta(s).  Each word sums its terms in the order the source
    coderivation lists them on it: by the length of the subword s, then
    by its position, then by the term's rank in delta(s).  The words
    where -m_1 f is non-zero come first, in f's order, then the other
    words by length and index order.
    """
    gens, target = f.gens, f.target
    min_len = min((len(w) for w in f.data if w), default=f.trunc + 1)
    transpose = _delta_transpose(gens, source, f.trunc - min_len + 1)
    reached = {}
    for w2 in f.data:
        room = f.trunc - len(w2) + 1
        for p, g in enumerate(w2):
            head, tail = w2[:p], w2[p + 1:]
            sign = -1 if gens.word_degree(head) % 2 else 1
            for s, c, rank in transpose.get(g, ()):
                if len(s) > room:
                    break
                reached.setdefault(head + s + tail, []).append(
                    ((len(s), p, rank), w2, sign * c))
    f_delta = {}
    for w in sorted(reached, key=_word_order):
        terms = sorted(reached[w], key=lambda t: t[0])
        coeffs = accumulate({}, ((w2, c) for _, w2, c in terms))
        f_delta[w] = target.sum((f.data[w2], c) for w2, c in coeffs.items())
    m1_f = {w: target.m(1, [val]) for w, val in f.data.items()}
    out = KeyedCarrier(target).sum(((m1_f, Fraction(-1)),
                                    (f_delta, Fraction(-((-1) ** f.degree)))))
    return TensorSeries(gens, target, f.trunc, f.degree + 1, out)


def conv_l(n, series_list, source: FiniteAlgebra):
    """The skew-symmetrized convolution operations; l_1 is partial."""
    if n == 1:
        return conv_partial(series_list[0], source)
    f0 = series_list[0]
    degs = [f.degree for f in series_list]
    terms = {}    # a repeated argument repeats orderings: convolve each once

    def term(perm):
        order = tuple(id(series_list[p]) for p in perm)
        if order not in terms:
            terms[order] = conv_M(n, [series_list[p] for p in perm])
        return terms[order]

    conv = ConvolutionAlgebra(f0.gens, f0.target, source, f0.trunc)
    return conv.sum(((term(perm), antisym_sign(perm, degs))
                     for perm in itertools.permutations(range(n))), sum(degs) + 2 - n)


class ConvolutionAlgebra(KeyedCarrier):
    """The convolution algebra as a carrier, keyed by word over the target,
    so the generic skew-relation checker applies.  A sum has the degree
    of its first term, or ``p`` (0 by default) when it has none; summing
    series of another truncation raises."""

    def __init__(self, gens, target, source, trunc):
        super().__init__(target)
        self.gens = gens
        self.target = target
        self.source = source
        self.trunc = trunc

    def _grade(self, x):
        return x.degree

    def _items(self, x):
        if x.trunc != self.trunc:
            raise TruncationError("truncation mismatch")
        return x.data.items()

    def _wrap(self, acc, p):
        return TensorSeries(self.gens, self.target, self.trunc, p or 0,
                            super()._wrap(acc, p))

    def scale(self, a, c):
        return a.scale(c)

    def is_zero(self, a):
        return a.is_zero()

    def degree(self, a):
        return a.degree

    def m(self, k, elems):
        return conv_l(k, list(elems), self.source)

    def series(self, degree, data=None):
        return TensorSeries(self.gens, self.target, self.trunc, degree, data)


def mc_defect(alpha: TensorSeries, source: FiniteAlgebra) -> TensorSeries:
    """partial(alpha) + sum_k l_k(alpha..alpha)/k!, via M_k for odd alpha."""
    if alpha.degree != 1:
        raise ValueError("Maurer-Cartan elements have degree 1")
    if alpha.data.get(()) is not None:
        raise ValueError("alpha(1) must vanish")
    conv = ConvolutionAlgebra(alpha.gens, alpha.target, source, alpha.trunc)
    return conv.sum(itertools.chain(
        [(conv_partial(alpha, source), Fraction(1))],
        ((conv_M(k, [alpha] * k), Fraction(1)) for k in range(2, alpha.trunc + 1))))


def mc_check(alpha: TensorSeries, source: FiniteAlgebra):
    """Report of failing words for the Maurer-Cartan equation."""
    defect = mc_defect(alpha, source)
    return [(w, defect.data[w]) for w in sorted(defect.data,
                                                key=lambda t: (len(t), t))]


# ---------------------------------------------------------------------
# the dictionary between morphisms and Maurer-Cartan elements
# ---------------------------------------------------------------------

def morphism_to_mc(f: InfinityMorphism, gens: Generators, trunc: int) -> TensorSeries:
    """alpha(w) = (shift dictionary) f_n on the unshifted entries.

    ``InfinityMorphism.apply`` is zero above the last arity with a
    component or a table, so the walk stops there.
    """
    target = f.target
    data = {}
    last = max(itertools.chain(f.components, f.tables), default=0)
    for w in gens.words(min(trunc, last)):
        keys = [gens.keys[i] for i in w]
        elems = [{k: ONE} for k in keys]
        val = f_shifted(f, len(w), elems, [k[0] for k in keys])
        if not target.is_zero(val):
            data[tuple(w)] = val
    return TensorSeries(gens, target, trunc, 1, data)


def mc_to_morphism(alpha: TensorSeries, source: FiniteAlgebra) -> InfinityMorphism:
    """The table-backed morphism with components read off the series."""
    gens = alpha.gens
    tables = {}
    for w, val in alpha.data.items():
        if not w:
            continue
        keys = tuple(gens.keys[i] for i in w)
        sign = shift_sign([k[0] for k in keys])
        tables.setdefault(len(w), {})[keys] = alpha.target.scale(val, sign)
    return InfinityMorphism(source, alpha.target, tables=tables)


def check_reduced(alpha: TensorSeries):
    """alpha kills non-trivial shuffles (membership in the reduced part)."""
    gens, target = alpha.gens, alpha.target
    failures = []
    for w in gens.words(alpha.trunc):
        for p in range(1, len(w)):
            entries = tuple((i, gens.shifted[i]) for i in w)
            shuffled = shuffle_product(entries[:p], entries[p:])
            words = ((tuple(lab for lab, _ in sw), c) for sw, c in shuffled.items())
            total = target.sum((alpha.data[ww], c) for ww, c in words if ww in alpha.data)
            if not target.is_zero(total):
                failures.append((tuple(w), p))
    return failures


# ---------------------------------------------------------------------
# delta-star and the Lie ideal
# ---------------------------------------------------------------------

def delta_star(mW: FiniteAlgebra, trunc: int):
    """Dual of the minimal codifferential on degree-one duals.

    For each degree-2 basis element the emitted series collects the
    structure constants of m_n on degree-1 inputs; the result lives in
    the free Lie algebra on the degree-1 duals: ``LieIdealPresentation``
    raises ValueError for a series that is no Lie element.
    Returns (FreeLie, LieIdealPresentation, generator dict).
    """
    if mW.maps.get(1):
        raise ValueError("delta_star needs a minimal structure (m_1 = 0)")
    one_keys = mW.space.keys(1)
    two_keys = mW.space.keys(2)
    free = FreeLie([name for _, name in one_keys], trunc)
    words = [(tuple(one_keys.index(k) for k in wrd), val)
             for n in range(2, mW.arity_cap + 1)
             for wrd, val in mW.maps.get(n, {}).items()
             if len(wrd) <= trunc and all(k in one_keys for k in wrd)]
    gens_out = {key: accumulate({}, ((w, val[key]) for w, val in words if key in val))
                for key in two_keys}
    generators = [g for g in gens_out.values() if g]
    ideal = LieIdealPresentation(free, generators)
    return free, ideal, gens_out


# ---------------------------------------------------------------------
# degree-zero reduction and functoriality
# ---------------------------------------------------------------------

def degree_zero_restrict(alpha: TensorSeries) -> TensorSeries:
    """Restriction to words in the degree-zero shifted generators."""
    zero_idx = set(alpha.gens.degree_zero_indices())
    data = {w: v for w, v in alpha.data.items()
            if all(i in zero_idx for i in w)}
    return TensorSeries(alpha.gens, alpha.target, alpha.trunc, alpha.degree, data)


def reduce_mod_ideal(alpha: TensorSeries, env: EnvelopingQuotient) -> dict:
    """Quotient normal form: {reduced word: target element}.

    Degree-zero series generator i is letter i of ``env``: ``Generators``
    lists the degree-1 keys first, in key order, and ``delta_star`` names
    the free generators after those keys.  A quotient on another number
    of letters, or a word of ``alpha`` with another letter, is a ValueError.
    """
    letters = len(env.free.gen_names)
    zero = len(alpha.gens.degree_zero_indices())
    if zero != letters:
        raise ValueError("the series has %d degree-zero generators, the "
                         "quotient %d letters" % (zero, letters))
    for w in alpha.data:
        if any(i >= letters for i in w):
            raise ValueError("word %s has a letter outside the degree-zero "
                             "generators" % alpha.gens.label(w))
    return KeyedCarrier(alpha.target).sum(
        ({w2: val}, c) for w, val in alpha.data.items()
        for w2, c in env.reduce({w: Fraction(1)}).items())


def series_eq_mod_ideal(a: TensorSeries, b: TensorSeries,
                        env: EnvelopingQuotient) -> bool:
    ra = reduce_mod_ideal(a, env)
    rb = reduce_mod_ideal(b, env)
    return not KeyedCarrier(a.target).add(ra, rb, Fraction(-1))


def pullback_along(k_mor: InfinityMorphism, alpha: TensorSeries,
                   gens_src: Generators) -> TensorSeries:
    """Precomposition with the coalgebra morphism of k: W -> V.

    alpha is a series over V-generators; the result is over W-generators.
    The shifted morphism components are even, so no signs appear beyond
    the shift dictionary inside each component.
    """
    gens_v = alpha.gens

    def terms(w):
        for parts in range(1, len(w) + 1):
            for lengths in compositions(len(w), parts):
                cuts = list(itertools.accumulate(lengths, initial=0))
                pieces = [w[a:b] for a, b in zip(cuts, cuts[1:])]
                # each block maps through k to a vector of V-generators
                block_vecs = []
                for u in pieces:
                    elems = [{gens_src.keys[i]: Fraction(1)} for i in u]
                    degs = [gens_src.keys[i][0] for i in u]
                    vec = f_shifted(k_mor, len(u), elems, degs)
                    if not vec:
                        break
                    block_vecs.append(vec)
                else:
                    for combo in itertools.product(*[list(v.items()) for v in block_vecs]):
                        coeff = Fraction(1)
                        target_word = []
                        for key, c in combo:
                            coeff *= c
                            target_word.append(gens_v.index_of(key))
                        v = alpha.data.get(tuple(target_word))
                        if v is not None:
                            yield v, coeff

    data = {tuple(w): alpha.target.sum(terms(tuple(w))) for w in gens_src.words(alpha.trunc)}
    return TensorSeries(gens_src, alpha.target, alpha.trunc, alpha.degree, data)


def pushforward_along(h_mor: InfinityMorphism, alpha: TensorSeries,
                      new_target) -> TensorSeries:
    """Postcomposition with an infinity-morphism of the target.

    Visits the tuples of non-empty support words of alpha, by arity and
    then splitting order within each word; keys by length, then index
    order.
    """
    gens = alpha.gens
    terms = {}
    for parts in range(1, alpha.trunc + 1):
        groups = _support_tuples([alpha] * parts, alpha.trunc, nonempty=True)
        if not groups:
            break
        for w, tuples in groups.items():
            terms.setdefault(w, []).extend(tuples)
    data = {w: new_target.sum(
        (f_shifted(h_mor, len(pieces), list(vals),
                   [alpha.degree + gens.word_degree(u) for u in pieces]), Fraction(1))
        for _, pieces, vals in terms[w]) for w in sorted(terms, key=_word_order)}
    return TensorSeries(gens, new_target, alpha.trunc, alpha.degree, data)


# ---------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------

def check_filtration_additive(series_list, source):
    """l_2 and l_3 raise the support order at least additively."""
    failures = []
    for k in (2, 3):
        for combo in itertools.combinations(series_list, k):
            orders = [f.support_order() for f in combo]
            if any(o is None for o in orders):
                continue
            out = conv_l(k, list(combo), source)
            oo = out.support_order()
            if oo is not None and oo < sum(orders):
                failures.append((orders, oo))
    return failures
