"""Multiplicative infinity-structures and their relation checkers.

Every algebra carrier, and the group-cochain backend of ``totalcomplex``,
is a ``Carrier``.  The protocol:

* ``sum(terms, p=None)`` is primary: the sum of c * x over the ``(x, c)``
  pairs of ``terms``, built in place in one accumulator that it creates
  itself.  The terms are only read, and the result shares no mutable
  part with them.  ``p`` is the level or degree of the result, for
  carriers whose zero depends on one; when it is not given it is read
  from the first term.
* ``zero(p=None)`` and ``add(a, b, coeff=1)`` are derived from ``sum``
  once, here, and equal its empty and two-term cases.
* ``scale``, ``is_zero``, ``degree`` (None for zero/mixed), ``m(k, elems)``
  and ``in_window`` (True unless the carrier is 1-truncated) complete it.

``sum`` adds each term into the accumulator with ``_into`` and wraps the
result once with ``_wrap``.  Accumulators are dicts that never store a
zero, so an empty accumulator is a zero sum, at every nesting level.
Carriers over dict vectors accumulate through ``linalg.accumulate``;
carriers over ``PolyForm`` accumulate its integer numerators over a
running denominator (``linalg.accumulate_scaled``);
``KeyedCarrier`` accumulates {key: element of an inner carrier} and is
the one place that drops a key whose running sum reaches zero.  A sum
equals the left fold of two-term adds from zero, key order included: a
key that cancels and comes back moves to the end.

Finite carriers (sparse structure-constant tables over a named basis)
additionally enumerate basis vectors, which makes the checkers
exhaustive at small arity.

Relations are evaluated in the unrestricted form: for structures,

    sum_{p+q+r=n, q>=1} (-1)^{p+qr} m_{p+1+r} o (Id^p x m_q x Id^r) = 0,

which folds the differential terms of the split formulation into the
same sum; a differential graded algebra passes on the nose, and all
transferred structures are checked against this single convention.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .forms import PolyForm
from .graded import GradedVectorSpace, vector_degree
from .linalg import (MINUS_ONE, ONE, accumulate, accumulate_scaled, multilinear_terms,
                     scaled_sum, vec_add, vec_scale)
from .scalars import rat
from .signs import antisym_sign, shuffle_product


class Carrier:
    """The carrier protocol; the defaults are those of dict vectors."""

    def sum(self, terms, p=None):
        """The sum of c * x over the ``(x, c)`` pairs of ``terms``."""
        acc = {}
        into = self._into
        for x, c in terms:
            if p is None:
                p = self._grade(x)
            into(acc, x, c)
        return self._wrap(acc, p)

    def zero(self, p=None):
        return self.sum((), p)

    def add(self, a, b, coeff=Fraction(1)):
        return self.sum(((a, Fraction(1)), (b, coeff)))

    def scale(self, a, c):
        return vec_scale(a, rat(c))

    def is_zero(self, a):
        return not a

    def degree(self, a):
        return vector_degree(a)

    def in_window(self, arity, word_keys):
        return True

    def _grade(self, x):
        """The ``p`` of a sum whose first term is x."""
        return None

    def _into(self, acc, x, c):
        """acc += c * x in place; x stores no zero, so into an empty acc
        it is copied as it is."""
        if c != 1:
            accumulate(acc, ((k, c * v) for k, v in x.items()))
        elif acc:
            accumulate(acc, x.items())
        else:
            acc.update(x)

    def _wrap(self, acc, p):
        """The element summed in ``acc``, which the caller gives up."""
        return acc


class KeyedCarrier(Carrier):
    """Elements {key: element of ``inner``}, no key holding a zero."""

    def __init__(self, inner):
        self.inner = inner

    def _items(self, x):
        return x.items()

    def _level(self, key):
        """The ``p`` of the inner element at ``key``."""
        return None

    def _into(self, acc, x, c):
        into = self.inner._into
        for key, v in self._items(x):
            sub = acc.get(key)
            if sub is None:
                sub = acc[key] = {}
            into(sub, v, c)
            if not sub:
                del acc[key]

    def _wrap(self, acc, p):
        wrap = self.inner._wrap
        return {key: wrap(sub, self._level(key)) for key, sub in acc.items()}


class FormSpace(Carrier):
    """Polynomial forms in one ambient (see ``PolyForm``)."""

    def __init__(self, nvars, varname="t", ndiff=None):
        self.nvars = nvars
        self.varname = varname
        self.ndiff = nvars if ndiff is None else ndiff

    def scale(self, a, c):
        return a.scale(c)

    def is_zero(self, a):
        return a.is_zero()

    def degree(self, a):
        return a.homogeneous_degree()

    def _into(self, acc, x, c):
        if x.nvars != self.nvars or x.ndiff > self.ndiff:
            raise ValueError("PolyForm: mixed ambients")
        accumulate_scaled(acc, x.den, x.num.items(), c)

    def _wrap(self, acc, p):
        return PolyForm._trusted(self.nvars, *scaled_sum(acc), self.varname, self.ndiff)


class FormsAlgebra(FormSpace):
    """The polynomial-forms dga on the n-simplex as an infinity-target."""

    def __init__(self, n):
        super().__init__(n)
        self.n = n

    def one(self):
        return PolyForm.one(self.n)

    def m(self, k, elems):
        if k == 1:
            return elems[0].d()
        if k == 2:
            return elems[0].wedge(elems[1])
        return PolyForm.zero(self.n)


class FiniteAlgebra(Carrier):
    """Arity-indexed structure maps on a finite-type graded space.

    ``maps[k]`` is {input word (tuple of basis keys): {output key: coeff}};
    m_k has degree 2 - k (checked on insertion).  ``kind`` is one of
    "Ainf", "Cinf", "Linf", "1Ainf", "1Cinf"; 1-truncated kinds carry the
    degree window on which their relations are imposed.
    """

    KINDS = ("Ainf", "Cinf", "Linf", "1Ainf", "1Cinf")

    def __init__(self, space: GradedVectorSpace, kind="Ainf", arity_cap=6,
                 maps=None, unit_key=None):
        if kind not in self.KINDS:
            raise ValueError("unknown kind %r" % (kind,))
        self.space = space
        self.kind = kind
        self.arity_cap = arity_cap
        self.unit_key = unit_key
        self.maps = {}
        if maps:
            for k, table in maps.items():
                for w, out in table.items():
                    self._set_value(k, w, out)

    # -- construction ---------------------------------------------------
    def set_value(self, k, input_word, output_vec):
        """Set m_k on one input word (an empty vector removes the entry)."""
        self._set_value(k, input_word, output_vec)

    def _set_value(self, k, input_word, output_vec):
        input_word, out = self._checked(k, input_word, output_vec)
        if out:
            self.maps.setdefault(k, {})[input_word] = out
        else:
            self.maps.get(k, {}).pop(input_word, None)

    def _checked(self, k, input_word, output_vec):
        """(input word as a tuple, output without zero coefficients), with
        the arity and the degree 2 - k of m_k checked."""
        input_word = tuple(input_word)
        if len(input_word) != k:
            raise ValueError("arity mismatch")
        out = {key: rat(c) for key, c in output_vec.items() if rat(c)}
        in_deg = sum(key[0] for key in input_word)
        for key in out:
            if key[0] != in_deg + 2 - k:
                raise ValueError("m_%d value at %r breaks degree 2-k" % (k, input_word))
        return input_word, out

    @classmethod
    def from_dga(cls, space, diff_blocks, products, kind="Cinf", arity_cap=6,
                 unit_key=None):
        """Build from a differential and binary-product table."""
        alg = cls(space, kind=kind, arity_cap=arity_cap, unit_key=unit_key)
        for src, col in diff_blocks.items():
            alg.set_value(1, (src,), col)
        for (a, b), out in products.items():
            alg.set_value(2, (a, b), out)
        return alg

    # -- protocol ---------------------------------------------------------
    def one(self):
        if self.unit_key is None:
            raise ValueError("algebra has no unit")
        return {self.unit_key: Fraction(1)}

    def m(self, k, elems):
        if len(elems) != k:
            raise ValueError("arity mismatch")
        table = self.maps.get(k)
        if not table:
            return {}
        out = {}
        for wrd, coeff in multilinear_terms(elems, table):
            val = table[wrd]
            if coeff is ONE:
                accumulate(out, val.items())
            else:
                accumulate(out, ((key, coeff * c) for key, c in val.items()))
        return out

    def basis_vectors(self):
        return [{k: Fraction(1)} for k in self.space.keys()]

    def basis_words(self, arity, degrees=None):
        keys = self.space.keys()
        if degrees is not None:
            keys = [k for k in keys if k[0] in degrees]
        for combo in itertools.product(keys, repeat=arity):
            yield tuple({k: Fraction(1)} for k in combo)

    def in_window(self, arity, word_keys):
        """1-truncated structures act only below total degree arity+1."""
        if self.kind in ("1Ainf", "1Cinf"):
            return sum(k[0] for k in word_keys) <= arity
        return True

    def to_json(self):
        out = {"kind": self.kind, "arity_cap": self.arity_cap,
               "space": self.space.to_json(), "maps": {}}
        if self.unit_key is not None:
            out["unit"] = list(self.unit_key)
        for k in sorted(self.maps):
            entries = []
            for wrd, val in sorted(self.maps[k].items()):
                for key, c in sorted(val.items()):
                    entries.append({"in": [[d, n] for d, n in wrd],
                                    "out": [key[0], key[1]],
                                    "coeff": str(c)})
            out["maps"][str(k)] = entries
        return out

    @classmethod
    def from_json(cls, data):
        space = GradedVectorSpace.from_json(data["space"])
        unit = tuple(data["unit"]) if "unit" in data else None
        alg = cls(space, kind=data["kind"], arity_cap=data["arity_cap"],
                  unit_key=unit)
        for k, entries in data["maps"].items():
            k = int(k)
            acc = {}
            for e in entries:
                wrd = tuple((int(d), n) for d, n in e["in"])
                key = (int(e["out"][0]), e["out"][1])
                acc.setdefault(wrd, {})[key] = rat(e["coeff"])
            for wrd, val in acc.items():
                alg.set_value(k, wrd, val)
        return alg


# ---------------------------------------------------------------------
# element/probe helpers
# ---------------------------------------------------------------------

def probe_degrees(alg, elems):
    return [alg.degree(e) for e in elems]


def shift_sign(degrees):
    """Sign of (s^{-1})^{x k} on the shift of elements of these degrees.

    Conjugating m_k to the coalgebra component delta_k = s o m_k o
    (s^{-1})^{x k} produces, on the shifted word s x_1 (x) ... (x) s x_k,
    the sign (-1)^{sum_j (k-j)(d_j - 1)}.  The same sign converts back.
    With j counted from 0 the exponent is sum_j (k-1-j)(d_j - 1); k-1-j
    is odd exactly when j = k mod 2, so its parity is the number of such
    positions j with d_j even.
    """
    evens = 0
    for d in degrees[len(degrees) % 2::2]:
        if not d & 1:
            evens += 1
    return -1 if evens & 1 else 1


def delta_apply(alg, k, elems, degs=None):
    """The shifted structure component delta_k evaluated on carrier elements.

    Elements stand for their images under the shift; the returned carrier
    element stands for its shift as well (shifted degree = degree - 1).
    """
    if degs is None:
        degs = [alg.degree(e) for e in elems]
    sign = shift_sign(degs)
    out = alg.m(k, elems)
    return out if sign == 1 else alg.scale(out, -1)


def _inner_delta(alg, n, elems, degs):
    """Yield (coeff, replaced elements, replaced degrees, outer arity) for
    Id^p (x) delta_q (x) Id^r in the shifted picture; delta_q is odd, so
    it picks up the shifted degrees of the first p entries."""
    for q in range(1, n + 1):
        for p in range(0, n - q + 1):
            r = n - p - q
            sign = MINUS_ONE if sum(d - 1 for d in degs[:p]) % 2 else ONE
            inner = delta_apply(alg, q, elems[p:p + q], degs[p:p + q])
            if alg.is_zero(inner):
                continue
            new_elems = list(elems[:p]) + [inner] + list(elems[p + q:])
            new_degs = list(degs[:p]) + [sum(degs[p:p + q]) + 2 - q] + list(degs[p + q:])
            yield sign, new_elems, new_degs, p + 1 + r


def stasheff_defect(alg, elems):
    """delta^2 = 0 evaluated on one probe word (shifted picture)."""
    n = len(elems)
    degs = probe_degrees(alg, elems)
    if any(d is None for d in degs):
        raise ValueError("probes must be homogeneous and nonzero")
    return alg.sum((delta_apply(alg, k, new_elems, new_degs), coeff)
                   for coeff, new_elems, new_degs, k in _inner_delta(alg, n, elems, degs))


MAX_REPORT = 10    # failures a check lists before it stops


def _probe_failures(carrier, defect, probes):
    """``(tuple_repr(probe), defect(probe))`` for each probe word whose
    defect is not zero in ``carrier``, up to ``MAX_REPORT`` of them."""
    failures = []
    for elems in probes:
        value = defect(list(elems))
        if not carrier.is_zero(value):
            failures.append((tuple_repr(elems), value))
            if len(failures) >= MAX_REPORT:
                break
    return failures


def check_stasheff(alg, probes):
    """Evaluate the structure relations on each probe word; list failures.
    A word of basis elements outside the window is skipped."""
    def in_window(elems):
        keys = [next(iter(e)) for e in elems if isinstance(e, dict)]
        return len(keys) != len(elems) or alg.in_window(len(elems) - 1, keys)

    return _probe_failures(alg, lambda elems: stasheff_defect(alg, elems),
                           filter(in_window, probes))


def tuple_repr(elems):
    bits = []
    for e in elems:
        if isinstance(e, dict) and len(e) == 1:
            ((d, n), c), = e.items()
            bits.append("%s%s" % (n, "" if c == 1 else "*%s" % c))
        else:
            bits.append(repr(e))
    return "(" + ", ".join(bits) + ")"


def check_shuffle_vanishing(alg, arity_cap):
    """All m_k vanish on images of non-trivial shuffle products."""
    if getattr(alg, "kind", None) not in ("Cinf", "1Cinf"):
        raise ValueError("shuffle vanishing only applies to Cinf kinds")
    failures = []
    keys = alg.space.keys()
    for k in range(2, arity_cap + 1):
        for entries in itertools.product(keys, repeat=k):
            if not alg.in_window(k, entries):
                continue
            # the shuffles live in the shifted word, so entry degrees and
            # the evaluation both use the shifted dictionary
            wrd = tuple((key, key[0] - 1) for key in entries)
            for p in range(1, k):
                shuffled = shuffle_product(wrd[:p], wrd[p:])
                total = alg.sum((delta_apply(alg, k, [{lab: Fraction(1)} for lab, _ in sw],
                                             [lab[0] for lab, _ in sw]), coeff)
                                for sw, coeff in shuffled.items())
                if not alg.is_zero(total):
                    failures.append((entries, p, total))
                    if len(failures) >= MAX_REPORT:
                        return failures
    return failures


# ---------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------

class InfinityMorphism:
    """Arity-indexed components f_k of degree 1-k between carriers.

    Components are either sparse tables {input word: target element}
    (finite sources) or callables taking a list of source elements.  An
    arity with neither is the zero component, so the morphism has no cap.
    """

    def __init__(self, source, target, components=None, tables=None):
        self.source = source
        self.target = target
        self.components = dict(components or {})
        self.tables = {int(k): dict(v) for k, v in (tables or {}).items()}

    def apply(self, k, elems):
        if k in self.components:
            return self.components[k](list(elems))
        table = self.tables.get(k)
        if not table:
            return self.target.zero()
        return self.target.sum((table[wrd], coeff)
                               for wrd, coeff in multilinear_terms(elems, table))

    @classmethod
    def identity(cls, alg):
        return cls(alg, alg, components={1: lambda es: es[0]})


def f_shifted(f: InfinityMorphism, k, elems, degs):
    """Shifted morphism component F_k on carrier elements (even degree)."""
    sign = shift_sign(degs)
    out = f.apply(k, elems)
    return out if sign == 1 else f.target.scale(out, -1)


def defect_terms(src, elems):
    """The terms of F delta = delta F on one probe word, in the order
    ``morphism_defect`` sums them, as (coeff, pieces, arity).  A piece is
    the (key, arguments, degrees) of one F_i.  An inner term, F after
    Id^p (x) delta_q (x) Id^r, has one piece, key None and arity None; a
    composition term, delta_arity after one F_i per block, has its
    blocks, the probe slices keyed (pos, i).  The terms, and the table
    entries they read (``defect_term_reads``), follow from the probe and
    the source alone.
    """
    n = len(elems)
    degs = [src.degree(e) for e in elems]
    if any(d is None for d in degs):
        raise ValueError("probes must be homogeneous and nonzero")
    for coeff, new_elems, new_degs, k in _inner_delta(src, n, elems, degs):
        yield coeff, ((None, new_elems, new_degs),), None
    for k in range(1, n + 1):
        for arities in compositions(n, k):
            pieces, pos = [], 0
            for i in arities:
                pieces.append(((pos, i), elems[pos:pos + i], degs[pos:pos + i]))
                pos += i
            yield MINUS_ONE, pieces, k


def defect_term_value(f: InfinityMorphism, term, blocks):
    """A ``defect_terms`` term under f, without its coefficient; None for
    a composition with a zero block, which the defect skips.  ``blocks``
    holds the block values of one probe word under f, each evaluated once."""
    _, pieces, arity = term
    if arity is None:
        (_, args, degs), = pieces
        return f_shifted(f, len(args), args, degs)
    values = []
    for key, args, degs in pieces:
        if key not in blocks:
            blocks[key] = f_shifted(f, len(args), args, degs)
        values.append(blocks[key])
    if any(f.target.is_zero(v) for v in values):
        return None
    return delta_apply(f.target, arity, values,
                       [sum(degs) + 1 - len(args) for _, args, degs in pieces])


def defect_term_reads(term):
    """The table entries (arity, input word) a term looks up: every word
    of one key from each argument of each piece, held by a table or not."""
    return {(len(args), wrd) for _, args, _ in term[1]
            for wrd in itertools.product(*args)}


def morphism_defect(f: InfinityMorphism, elems):
    """F delta = delta F evaluated on one probe word (shifted picture), as
    the sum of its ``defect_terms`` under f.  The shifted components F_k
    are even, so the splitting side carries no Koszul signs at all; all
    signs come from delta being odd and from the shift dictionary."""
    blocks = {}
    values = ((defect_term_value(f, term, blocks), term[0])
              for term in defect_terms(f.source, elems))
    return f.target.sum((v, c) for v, c in values if v is not None)


def compositions(n, k):
    """Ordered splittings of n into k positive parts."""
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in compositions(n - first, k - 1):
            yield (first,) + rest


def check_morphism(f: InfinityMorphism, probes):
    return _probe_failures(f.target, lambda elems: morphism_defect(f, elems),
                           probes)


# ---------------------------------------------------------------------
# the skew relations
# ---------------------------------------------------------------------

def linfty_defect(alg, elems):
    """The skew-symmetric relation on one probe word.

    sum_{p+q=n+1} sum_{|S|=q} (-1)^{(p-1)q} chi(sigma_S) l_p(l_q(x_S), x_rest).
    """
    n = len(elems)
    degs = probe_degrees(alg, elems)
    if any(d is None for d in degs):
        raise ValueError("probes must be homogeneous and nonzero")

    def terms():
        for q in range(1, n + 1):
            p = n + 1 - q
            for S in itertools.combinations(range(n), q):
                rest = [j for j in range(n) if j not in S]
                perm = tuple(S) + tuple(rest)
                chi = antisym_sign(perm, degs)
                inner = alg.m(q, [elems[j] for j in S])
                if not alg.is_zero(inner):
                    outer = alg.m(p, [inner] + [elems[j] for j in rest])
                    yield outer, Fraction(chi * ((-1) ** ((p - 1) * q)))

    return alg.sum(terms())


def check_linfty(alg, probes):
    return _probe_failures(alg, lambda elems: linfty_defect(alg, elems), probes)


def check_unitality(alg: FiniteAlgebra):
    """m2(1,a)=a=m2(a,1); m_k with a unit argument vanishes for k>=3."""
    failures = []
    one = alg.one()
    for v in alg.basis_vectors():
        if not alg.is_zero(vec_add(alg.m(2, [one, v]), v, Fraction(-1))):
            failures.append(("m2(1,a) != a", tuple_repr([v])))
        if not alg.is_zero(vec_add(alg.m(2, [v, one]), v, Fraction(-1))):
            failures.append(("m2(a,1) != a", tuple_repr([v])))
    for k in range(3, alg.arity_cap + 1):
        if k not in alg.maps:
            continue
        for wrd in alg.maps[k]:
            for slot in range(k):
                elems = [{key: Fraction(1)} for key in wrd]
                elems[slot] = one
                if not alg.is_zero(alg.m(k, elems)):
                    failures.append(("m_%d with unit nonzero" % k, wrd, slot))
                    if len(failures) >= MAX_REPORT:
                        return failures
    return failures


# ---------------------------------------------------------------------
# interval tensoring and homotopies
# ---------------------------------------------------------------------

class IntervalAlgebra(KeyedCarrier):
    """Omega(1) tensor A, elements {(t-exponent, has_dt): A-element}."""

    def __init__(self, base):
        super().__init__(base)
        self.base = base

    def scale(self, a, c):
        c = rat(c)
        if not c:
            return {}
        return {k: self.base.scale(v, c) for k, v in a.items()}

    def is_zero(self, a):
        return all(self.base.is_zero(v) for v in a.values())

    def degree(self, a):
        degs = set()
        for (e, dt), v in a.items():
            if self.base.is_zero(v):
                continue
            d = self.base.degree(v)
            if d is None:
                return None
            degs.add(d + (1 if dt else 0))
        if len(degs) == 1:
            return degs.pop()
        return None

    def include(self, a):
        """A-element -> 1 (x) a."""
        return {(0, False): a}

    def m(self, k, elems):
        return self.sum(self._d_terms(elems[0]) if k == 1 else self._m_terms(k, elems))

    def _d_terms(self, a):
        for (e, dt), v in a.items():
            # d(t^e) (x) v
            if e > 0 and not dt:
                yield {(e - 1, True): v}, Fraction(e)
            # +/- t^e (x) d v
            dv = self.base.m(1, [v])
            if not self.base.is_zero(dv):
                yield {(e, dt): dv}, Fraction(-1 if dt else 1)

    def _m_terms(self, k, elems):
        for combo in itertools.product(*[list(e.items()) for e in elems]):
            exps = 0
            dt_count = 0
            sign = 1
            adegs = []
            pdegs = []
            vals = []
            dead = False
            for (e, dt), v in combo:
                exps += e
                if dt:
                    dt_count += 1
                pdegs.append(1 if dt else 0)
                d = self.base.degree(v)
                if d is None:
                    dead = True
                    break
                adegs.append(d)
                vals.append(v)
            if dead or dt_count > 1:
                continue
            # Koszul: pull the Omega(1) factors left past the A factors,
            # and across each other (the dt ordering among p's)
            for i in range(len(combo)):
                if pdegs[i] % 2 and sum(adegs[:i]) % 2:
                    sign = -sign
            inner = self.base.m(k, vals)
            if not self.base.is_zero(inner):
                yield {(exps, dt_count == 1): inner}, Fraction(sign)

    def evaluate(self, a, value):
        """Strict evaluation t -> value in {0, 1}, dt -> 0.

        The generator t is the barycentric coordinate of vertex 0, so the
        evaluation i_0 at vertex 0 substitutes t = 1 and i_1 substitutes
        t = 0.
        """
        return self.base.sum((v, Fraction(1)) for (e, dt), v in a.items()
                             if not dt and (value != 0 or e == 0))


def interval_tensor(alg):
    """The tensored carrier plus the two strict endpoint evaluations i_0, i_1."""
    omega_a = IntervalAlgebra(alg)
    ev0 = InfinityMorphism(omega_a, alg,
                           components={1: lambda es: omega_a.evaluate(es[0], 1)})
    ev1 = InfinityMorphism(omega_a, alg,
                           components={1: lambda es: omega_a.evaluate(es[0], 0)})
    return omega_a, ev0, ev1


class Homotopy:
    """A morphism into Omega(1) (x) B with its two endpoint evaluations."""

    def __init__(self, H: InfinityMorphism, f0: InfinityMorphism, f1: InfinityMorphism):
        self.H = H
        self.f0 = f0
        self.f1 = f1

    def endpoint(self, j, k, elems):
        omega_b = self.H.target
        return omega_b.evaluate(self.H.apply(k, elems), j)

    def check_endpoints(self, probes):
        failures = []
        tgt = self.f0.target
        for elems in probes:
            k = len(elems)
            for j, f in ((0, self.f0), (1, self.f1)):
                got = self.endpoint(j, k, list(elems))
                want = f.apply(k, list(elems))
                if not tgt.is_zero(tgt.add(got, want, Fraction(-1))):
                    failures.append((j, tuple_repr(elems)))
        return failures
