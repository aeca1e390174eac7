"""Polynomial differential forms with exact rational coefficients.

One representation serves two ambients:

* forms on the standard n-simplex, with the barycentric relations
  t0 = 1 - sum(t_i), dt0 = -sum(dt_i) eliminated at construction so that
  equality is literal coefficient equality;
* forms on R^m with coordinates x_1..x_m (used by connection forms).

A form is a sum of monomials keyed by ``(exps, dts)``: ``exps`` is a
tuple of exponents (one per variable, 0-based) and ``dts`` a strictly
increasing tuple of 0-based variable indices.  Its coefficients are
stored on integers, as a scaled vector of ``linalg``: numerators
``num`` {(exps, dts): int}, none zero, over one positive common
denominator ``den``, in lowest terms (no prime divides ``den`` and every
numerator).  So equal forms have equal stores, and every operation
(wedge, sums, scaling, d, partial derivatives, substitution, relabelling)
computes on the numerators and ends with one gcd, building no
``Fraction`` on the way.  The store is only read, never written, once a
form is built.

``terms`` is the public coefficient dict {(exps, dts): Fraction}: a
read-only view (``MappingProxyType``) built from the store on each read,
for boundaries such as JSON and tests, not for inner loops.

Sums of many forms accumulate their numerators in place into a scaled
accumulator of ``linalg`` (``accumulate_scaled``, ``scaled_sum``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from operator import add
from types import MappingProxyType

from .linalg import (accumulate, accumulate_scaled, from_scaled, lowest_terms,
                     scaled_sum, to_scaled)
from .scalars import rat, rat_str
from .signs import sorted_image


def _merge_dts(d1, d2):
    """Concatenate-and-sort two dt index tuples; (None, 0) if repeated."""
    if not d1:
        return d2, 1
    if not d2:
        return d1, 1
    if set(d1) & set(d2):
        return None, 0
    merged = d1 + d2
    sign = 1
    # count inversions between the blocks (all dt's have degree 1)
    for a in d1:
        for b in d2:
            if a > b:
                sign = -sign
    return tuple(sorted(merged)), sign


def _wedge_num(a, b):
    """The numerators of the wedge of the numerators ``a`` and ``b``, over
    the product of their denominators (not in lowest terms)."""
    out = {}
    get = out.get
    merged = {}
    for (e1, d1), c1 in a.items():
        for (e2, d2), c2 in b.items():
            if not d2:
                dts, c = d1, c1 * c2
            elif not d1:
                dts, c = d2, c1 * c2
            else:
                hit = merged.get((d1, d2))
                if hit is None:
                    hit = merged[(d1, d2)] = _merge_dts(d1, d2)
                dts, sign = hit
                if dts is None:
                    continue
                c = c1 * c2 if sign > 0 else -c1 * c2
            key = (tuple(map(add, e1, e2)), dts)
            s = get(key)
            if s is None:
                out[key] = c
            else:
                s += c
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


class PolyForm:
    """Immutable polynomial differential form on a fixed variable set.

    ``ndiff`` limits which leading variables carry differentials; trailing
    variables beyond it are formal constants (discrete parameters), so d
    ignores them and no dx exists for them.
    """

    __slots__ = ("nvars", "varname", "ndiff", "den", "num")

    def __init__(self, nvars, terms=None, varname="t", ndiff=None):
        self.nvars = nvars
        self.varname = varname
        self.ndiff = nvars if ndiff is None else ndiff

        def checked():
            for (exps, dts), c in terms.items():
                if any(j >= self.ndiff for j in dts):
                    raise ValueError("differential on a non-smooth variable")
                yield (tuple(exps), tuple(dts)), rat(c)

        self.den, self.num = to_scaled(accumulate({}, checked())) if terms else (1, {})

    # -- constructors -------------------------------------------------
    @classmethod
    def _trusted(cls, nvars, den, num, varname, ndiff):
        """The form num/den, brought to lowest terms, without the checks
        of ``__init__``.

        Only for numerators already known to be clean: tuple keys,
        non-zero ints, no dt on a variable at or beyond ``ndiff``, and
        ``den`` > 0.  The new form owns ``num``; the caller must not keep
        mutating it.
        """
        self = object.__new__(cls)
        self.nvars = nvars
        self.den, self.num = lowest_terms(den, num)
        self.varname = varname
        self.ndiff = ndiff
        return self

    @classmethod
    def zero(cls, nvars, varname="t", ndiff=None):
        return cls(nvars, {}, varname, ndiff)

    @classmethod
    def const(cls, nvars, c, varname="t", ndiff=None):
        c = rat(c)
        if not c:
            return cls.zero(nvars, varname, ndiff)
        return cls(nvars, {((0,) * nvars, ()): c}, varname, ndiff)

    @classmethod
    def one(cls, nvars, varname="t", ndiff=None):
        return cls.const(nvars, 1, varname, ndiff)

    @classmethod
    def var(cls, nvars, j, varname="t", ndiff=None):
        exps = [0] * nvars
        exps[j] = 1
        return cls._trusted(nvars, 1, {(tuple(exps), ()): 1}, varname,
                            nvars if ndiff is None else ndiff)

    @classmethod
    def dvar(cls, nvars, j, varname="t", ndiff=None):
        return cls(nvars, {((0,) * nvars, (j,)): Fraction(1)}, varname, ndiff)

    # -- basic structure ----------------------------------------------
    @property
    def terms(self):
        """{(exps, dts): Fraction}, a read-only view built on each read."""
        return MappingProxyType(from_scaled((self.den, self.num)))

    def is_zero(self):
        return not self.num

    def homogeneous_degree(self):
        """Form degree if homogeneous, else None; zero counts as any."""
        degs = {len(dts) for _, dts in self.num}
        if len(degs) != 1:
            return None
        return degs.pop()

    def _like(self, den, num):
        """The form num/den in this form's ambient."""
        return PolyForm._trusted(self.nvars, den, num, self.varname, self.ndiff)

    def component(self, degree):
        return self._like(self.den, {k: v for k, v in self.num.items()
                                     if len(k[1]) == degree})

    def __eq__(self, other):
        return (isinstance(other, PolyForm) and self.nvars == other.nvars
                and self.ndiff == other.ndiff and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.nvars, self.ndiff, self.den, frozenset(self.num.items())))

    def _combined(self, other, den, num):
        """A result built from the clean numerators of ``self`` and
        ``other``; checked only when ``other`` may carry a dt that is not
        smooth for ``self``."""
        if other.ndiff > self.ndiff and any(j >= self.ndiff for _, dts in num for j in dts):
            raise ValueError("differential on a non-smooth variable")
        return self._like(den, num)

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("PolyForm: mixed ambients")
        acc = {}
        accumulate_scaled(acc, self.den, self.num.items())
        accumulate_scaled(acc, other.den, other.num.items())
        return self._combined(other, *scaled_sum(acc))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = rat(c)
        if not c:
            return PolyForm.zero(self.nvars, self.varname, self.ndiff)
        n = c.numerator
        return self._like(self.den * c.denominator, {k: n * v for k, v in self.num.items()})

    def wedge(self, other):
        if self.nvars != other.nvars:
            raise ValueError("PolyForm: mixed ambients")
        return self._combined(other, self.den * other.den, _wedge_num(self.num, other.num))

    def d(self):
        def derivatives():
            for (exps, dts), c in self.num.items():
                for j in range(self.ndiff):
                    if exps[j] == 0:
                        continue
                    dnew, sign = _merge_dts((j,), dts)
                    if dnew is None:
                        continue
                    e = list(exps)
                    e[j] -= 1
                    yield (tuple(e), dnew), sign * exps[j] * c

        return self._like(self.den, accumulate({}, derivatives()))

    def substitute(self, images):
        """Pull back along x_j -> images[j] (PolyForms of degree 0).

        dx_j maps to d(images[j]) computed in the target ambient.  All
        images must share one ambient.  Each monomial's image is the left
        fold c ^ images[0] ^ .. (exps[j] times images[j], j ascending) ^
        d(images[j]) for j in dts; the polynomial parts are kept per
        exponent tuple, each one wedge from its longest proper prefix.
        """
        if len(images) != self.nvars:
            raise ValueError("substitute: need one image per variable")
        if images:
            tgt_nvars = images[0].nvars
            tgt_name = images[0].varname
            tgt_ndiff = images[0].ndiff
        else:
            tgt_nvars, tgt_name, tgt_ndiff = 0, self.varname, 0
        dimages = [im.d() for im in images]
        polys = {(0,) * self.nvars: (1, {((0,) * tgt_nvars, ()): 1})}

        def poly(exps):
            """(den, num) of images[0]^exps[0] ^ images[1]^exps[1] ^ .."""
            hit = polys.get(exps)
            if hit is None:
                j = max(i for i, e in enumerate(exps) if e)
                den, num = poly(exps[:j] + (exps[j] - 1,) + exps[j + 1:])
                im = images[j]
                hit = polys[exps] = (den * im.den, _wedge_num(num, im.num))
            return hit

        acc = {}
        for (exps, dts), c in self.num.items():
            den, num = poly(exps)
            for j in dts:
                im = dimages[j]
                den *= im.den
                num = _wedge_num(num, im.num)
            accumulate_scaled(acc, den, num.items(), c)
        den, num = scaled_sum(acc)
        return PolyForm._trusted(tgt_nvars, den * self.den, num, tgt_name, tgt_ndiff)

    def relabel(self, images, sign=1):
        """``sign`` times the form with variable j renamed images[j].

        ``images`` is a permutation of range(nvars) that keeps the
        differentiable variables among themselves.  Each dt tuple is
        re-sorted with the sign of the sort.  No arithmetic beyond signs.
        """
        src = [0] * self.nvars
        for j, i in enumerate(images):
            src[i] = j
        moved = {}
        out = {}
        for (exps, dts), c in self.num.items():
            hit = moved.get(dts)
            if hit is None:
                hit = moved[dts] = sorted_image(images, dts)
            out[(tuple([exps[j] for j in src]), hit[0])] = c if hit[1] == sign else -c
        return self._like(self.den, out)

    def partial(self, j):
        def derivatives():
            for (exps, dts), c in self.num.items():
                if exps[j]:
                    e = list(exps)
                    e[j] -= 1
                    yield (tuple(e), dts), c * exps[j]

        return self._like(self.den, accumulate({}, derivatives()))

    def eval_at(self, point):
        """Evaluate the degree-0 part at a rational point."""
        val = Fraction(0)
        for (exps, dts), c in self.num.items():
            if dts:
                continue
            term = c
            for j, e in enumerate(exps):
                term *= rat(point[j]) ** e
            val += term
        return val / self.den

    def __repr__(self):
        if not self.num:
            return "0"
        bits = []
        for (exps, dts), c in sorted(self.terms.items()):
            factors = [rat_str(c)]
            for j, e in enumerate(exps):
                if e:
                    factors.append("%s%d%s" % (self.varname, j + 1, "^%d" % e if e > 1 else ""))
            for j in dts:
                factors.append("d%s%d" % (self.varname, j + 1))
            bits.append("*".join(factors))
        return " + ".join(bits)

    # -- JSON ----------------------------------------------------------
    def to_json(self):
        return [{"coeff": rat_str(c), "exps": list(exps), "dts": [j + 1 for j in dts]}
                for (exps, dts), c in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, nvars, data, varname="t", ndiff=None):
        terms = accumulate({}, (((tuple(item["exps"]), tuple(j - 1 for j in item["dts"])),
                                 rat(item["coeff"])) for item in data))
        return cls(nvars, terms, varname, ndiff)


# ---------------------------------------------------------------------
# simplex flavor: forms on the standard n-simplex in eliminated
# coordinates t_1..t_n (t_0 and dt_0 substituted away).
# ---------------------------------------------------------------------

def simplex_t(n, i):
    """The barycentric coordinate t_i on the n-simplex, 0 <= i <= n."""
    if not 0 <= i <= n:
        raise ValueError("simplex_t: index out of range")
    if i == 0:
        out = PolyForm.one(n)
        for j in range(n):
            out = out - PolyForm.var(n, j)
        return out
    return PolyForm.var(n, i - 1)


def simplex_dt(n, i):
    if not 0 <= i <= n:
        raise ValueError("simplex_dt: index out of range")
    if i == 0:
        out = PolyForm.zero(n)
        for j in range(n):
            out = out - PolyForm.dvar(n, j)
        return out
    return PolyForm.dvar(n, i - 1)


class SimplicialOperator:
    """A monotone map [n] -> [m], acting on forms by geometric pullback."""

    def __init__(self, source_dim, target_dim, images):
        self.n = source_dim
        self.m = target_dim
        self.images = tuple(images)
        if len(self.images) != source_dim + 1:
            raise ValueError("SimplicialOperator: need n+1 images")
        if any(self.images[i] > self.images[i + 1] for i in range(source_dim)):
            raise ValueError("SimplicialOperator: not monotone")
        if any(not 0 <= v <= target_dim for v in self.images):
            raise ValueError("SimplicialOperator: image out of range")

    @classmethod
    def coface(cls, n, i):
        """d^i: [n] -> [n+1], skipping i."""
        return cls(n, n + 1, [j if j < i else j + 1 for j in range(n + 1)])

    @classmethod
    def codegeneracy(cls, n, i):
        """s^i: [n+1] -> [n], hitting i twice."""
        return cls(n + 1, n, [j if j <= i else j - 1 for j in range(n + 2)])

    @classmethod
    def inclusion(cls, subset, m):
        subset = tuple(subset)
        return cls(len(subset) - 1, m, subset)

    def compose(self, inner):
        """self o inner, with inner: [k] -> [n]."""
        if inner.m != self.n:
            raise ValueError("compose: dimension mismatch")
        return SimplicialOperator(inner.n, self.m,
                                  [self.images[v] for v in inner.images])

    def pullback(self, form: PolyForm) -> PolyForm:
        """Pull a form on the target simplex back to the source simplex."""
        if form.nvars != self.m:
            raise ValueError("pullback: form lives on the wrong simplex")
        if self.m == 0:
            # forms on the point are constants; extend constantly
            return PolyForm.const(self.n, form.eval_at(()))
        def coordinate(j):
            """t_j pulled back: the sum of the t_i with images[i] == j."""
            acc = {}
            for i in range(self.n + 1):
                if self.images[i] == j:
                    t = simplex_t(self.n, i)
                    accumulate_scaled(acc, t.den, t.num.items())
            return PolyForm._trusted(self.n, *scaled_sum(acc), "t", self.n)

        return form.substitute([coordinate(j) for j in range(1, self.m + 1)])

    def __repr__(self):
        return "[%d]->[%d]:%s" % (self.n, self.m, list(self.images))


def integrate_over_simplex(form: PolyForm, p: int) -> Fraction:
    """Exact integral of a top-degree form over the geometric p-simplex.

    Uses the factorial formula termwise; non-top components integrate
    to 0 by convention.
    """
    if form.nvars != p:
        raise ValueError("integrate_over_simplex: form is not on the p-simplex")
    if p == 0:
        return form.eval_at(())
    total = Fraction(0)
    full = tuple(range(p))
    for (exps, dts), c in form.num.items():
        if dts != full:
            continue
        num = 1
        for e in exps:
            num *= factorial(e)
        total += c * Fraction(num, factorial(sum(exps) + p))
    return total / form.den


def simplex_monomials(n, max_poly_deg, form_degree=None):
    """Spanning monomial forms t^E dt_S on the n-simplex (eliminated coords)."""
    out = []
    for total in range(max_poly_deg + 1):
        for exps in itertools.product(range(total + 1), repeat=n):
            if sum(exps) != total:
                continue
            for r in range(n + 1):
                if form_degree is not None and r != form_degree:
                    continue
                for dts in itertools.combinations(range(n), r):
                    out.append(PolyForm(n, {(exps, dts): Fraction(1)}))
    return out
