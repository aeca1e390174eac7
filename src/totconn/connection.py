"""Flat connections, gauge action, factors of automorphy and holonomy.

Connection forms are exact polynomial 1-forms on R^m with values in a
nilpotent quotient of a free Lie algebra.  Parallel transport along a
piecewise-linear rational path is the iterated-integral series T in the
truncated enveloping quotient, with the composition convention
T(path1 . path2) = T(path1) T(path2) (pinned by the composition and
homomorphism tests).  T is grouplike, so T = exp(Omega) with Omega in
the quotient's Lie algebra (Chen; Magnus), and ``transport`` carries
Omega along the whole path as a flow in Lie coordinates: per segment, a
power-series recurrence in the segment's parameter that ends after
finitely many steps because the Lie algebra is nilpotent, and one exp
at the end.  All arithmetic is exact.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial, lcm

from .convolution import (TensorSeries, degree_zero_restrict, mc_defect,
                          reduce_mod_ideal)
from .forms import PolyForm
from .freelie import EnvelopingQuotient, FiberLieAlgebra
from .linalg import (accumulate, accumulate_scaled, from_scaled, lowest_terms,
                     scaled_sum)
from .scalars import bernoulli, rat, rat_str
from .structures import FormSpace, KeyedCarrier


def form_zero(m):
    return PolyForm.zero(m, varname="x", ndiff=m)


def form_var(m, j):
    return PolyForm.var(m, j, varname="x", ndiff=m)


def form_dvar(m, j):
    return PolyForm.dvar(m, j, varname="x", ndiff=m)


def translate_form(form: PolyForm, g) -> PolyForm:
    """Pull back along x -> x + g for a rational tuple g."""
    m = form.nvars
    images = [form_var(m, j) + PolyForm.const(m, rat(g[j]), varname="x", ndiff=m)
              for j in range(m)]
    return form.substitute(images)


# Form-valued series are dicts {word: PolyForm}: Lie-valued ones are keyed
# by quotient basis words, enveloping-valued ones by tensor words.  Zero
# forms are never stored.

def _series(m):
    """The carrier of form-valued series with forms on R^m."""
    return KeyedCarrier(FormSpace(m, varname="x", ndiff=m))


def _ambient(*series):
    """The m of the first form of these series (0 if they have none)."""
    return next((f.nvars for s in series for f in s.values()), 0)


def fv_add(a, b, c=1):
    """a + c * b."""
    return _series(_ambient(a, b)).add(a, b, c)


def fv_mul(a, b, word_mul):
    """sum of (f1 ^ f2) (x) word_mul(w1, w2) over the terms f1 (x) w1 of a
    and f2 (x) w2 of b; ``word_mul`` returns a {word: coeff} dict."""
    def terms():
        for w1, f1 in a.items():
            for w2, f2 in b.items():
                words = word_mul(w1, w2)
                if words:
                    form = f1.wedge(f2)
                    for w, c in words.items():
                        yield {w: form}, c

    return _series(_ambient(a)).sum(terms())


def fv_map(a, word_map, m):
    """The linear map ``word_map`` on {word: coeff} vectors, applied one
    form monomial at a time: the words carrying a monomial of ``a`` form
    one vector, so ``word_map`` may be a normal form that accepts only
    whole elements (Lie elements, say) rather than single words.  The
    results are forms on R^m."""
    by_monomial = {}
    for w, f in a.items():
        for key, c in f.terms.items():
            by_monomial.setdefault(key, {})[w] = c

    def terms():
        for key, vec in by_monomial.items():
            monomial = PolyForm(m, {key: 1}, varname="x", ndiff=m)
            for w, c in word_map(vec).items():
                yield {w: monomial}, c

    return _series(m).sum(terms())


class LieFormValued:
    """Finite sums of (polynomial form) (x) (quotient Lie basis element)."""

    __slots__ = ("m", "fib", "coeffs")

    def __init__(self, m, fib: FiberLieAlgebra, coeffs=None):
        self.m = m
        self.fib = fib
        self.coeffs = {}
        if coeffs:
            for w, form in coeffs.items():
                if not form.is_zero():
                    self.coeffs[tuple(w)] = form

    def is_zero(self):
        return not self.coeffs

    def add(self, other, c=Fraction(1)):
        return LieFormValued(self.m, self.fib, fv_add(self.coeffs, other.coeffs, c))

    def scale(self, c):
        return LieFormValued(self.m, self.fib,
                             {w: f.scale(c) for w, f in self.coeffs.items()})

    def d(self):
        return LieFormValued(self.m, self.fib,
                             {w: f.d() for w, f in self.coeffs.items()})

    def bracket(self, other):
        return LieFormValued(self.m, self.fib, fv_mul(
            self.coeffs, other.coeffs,
            lambda w1, w2: self.fib.bracket({w1: Fraction(1)}, {w2: Fraction(1)})))

    def translate(self, g):
        return LieFormValued(self.m, self.fib,
                             {w: translate_form(f, g) for w, f in self.coeffs.items()})

    def eq(self, other):
        return self.add(other, Fraction(-1)).is_zero()

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join("(%r)(x)%s" % (f, "".join(map(str, w)))
                          for w, f in sorted(self.coeffs.items()))

    def to_json(self):
        return [{"word": list(w), "form": f.to_json()}
                for w, f in sorted(self.coeffs.items())]


class ConnectionForm(LieFormValued):
    """Degree-1 Lie-valued form with declarative regularity flags
    (bookkeeping only)."""

    def __init__(self, m, fib, coeffs=None, flags=()):
        super().__init__(m, fib, coeffs)
        self.flags = tuple(flags)


class FlatnessCertificate:
    def __init__(self, failures):
        self.failures = failures

    @property
    def flat(self):
        return not self.failures


def flatness_check(alpha: ConnectionForm) -> FlatnessCertificate:
    """Exact flatness identity per quotient basis word.

    The calibrated curvature is d(alpha) + 1/2 [alpha, alpha]: with the
    convolution conventions used here the skew bracket on base-valued
    series is the negative of the geometric one, so Maurer-Cartan
    restrictions satisfy this identity, and it is exactly the condition
    under which the homomorphic iterated-integral transport is
    path-independent.
    """
    curv = alpha.d().add(alpha.bracket(alpha), Fraction(1, 2))
    return FlatnessCertificate(sorted(curv.coeffs.items()))


class NonFlatError(RuntimeError):
    pass


# ---------------------------------------------------------------------
# restriction of a Maurer-Cartan series to a connection form
# ---------------------------------------------------------------------

def restrict_connection(alpha: TensorSeries, source, fib: FiberLieAlgebra,
                        env: EnvelopingQuotient) -> ConnectionForm:
    """The connection of a degree-zero-words series with values in Tot_N.

    ``alpha`` takes values in a ``TotalComplexAlgebra`` over the group
    cochains of Z^m acting on R^m; its connection is the level-0 one-form
    part, the (0, 1) component of each value, as a polynomial form on
    R^m.  ``env`` is the enveloping quotient of ``fib.free`` by
    ``fib.ideal``, in which the Maurer-Cartan defect must vanish.  Words
    carry over unchanged: degree-zero series generator i is free-Lie
    generator i (see ``reduce_mod_ideal``), and only degree-zero words
    have a (0, 1) part.  The collected word family is converted to
    quotient coordinates, which requires it to be Lie-valued (it is, for
    reduced series).
    """
    defect = mc_defect(alpha, source)
    zero_words = degree_zero_restrict(defect)
    if len(zero_words.data) != len(defect.data):
        raise NonFlatError("Maurer-Cartan defect outside the degree-zero "
                           "words: %r" % (sorted(defect.data.keys()
                                                 - zero_words.data.keys())[:3],))
    reduced = reduce_mod_ideal(zero_words, env)
    bad = {w: v for w, v in reduced.items() if not alpha.target.is_zero(v)}
    if bad:
        raise NonFlatError("input series is not Maurer-Cartan modulo the "
                           "ideal: %r" % (sorted(bad)[:3],))
    m = alpha.target.backend.m
    forms = {w: PolyForm(m, val.components[(0, 1)].form.terms, varname="x", ndiff=m)
             for w, val in alpha.data.items() if (0, 1) in val.components}
    return ConnectionForm(m, fib, fv_map(forms, fib.normal_form, m))


# ---------------------------------------------------------------------
# gauge action
# ---------------------------------------------------------------------

class GaugeElement(LieFormValued):
    """Degree-0 Lie-valued polynomial function."""

    def at_point(self, point):
        """The value at ``point`` as a tensor series (the bracket words
        expanded), the form ``EnvelopingQuotient.exp`` reads."""
        return self.fib.free.from_lyndon({w: f.eval_at(point)
                                          for w, f in self.coeffs.items()})


def gauge(alpha: ConnectionForm, h: GaugeElement) -> ConnectionForm:
    """The gauge action on flat connections in the calibrated conventions.

    With the curvature d(alpha) + 1/2 [alpha, alpha], the action of the
    exponential of h is

      e^h(alpha) = e^{-ad_h}(alpha) + sum_{j>=0} (-1)^j ad_h^j(dh)/(j+1)!,

    which reduces to alpha + dh in the abelian case and preserves
    flatness (both facts pinned by tests).
    """
    fib = alpha.fib

    def terms():
        for term, shift in ((alpha, 0), (h.d(), 1)):
            j = 0
            while not term.is_zero():
                yield term.coeffs, Fraction((-1) ** j, factorial(j + shift))
                term = h.bracket(term)
                j += 1
                if j > fib.k + 2:
                    break

    return ConnectionForm(alpha.m, fib, _series(alpha.m).sum(terms()), flags=alpha.flags)


def gauge_compose_check(alpha, h1, h2):
    """Group-action law: e^{h1}(e^{h2}(alpha)) = e^{h12}(alpha), where
    e^{h12} = e^{h2} e^{h1} (h12 is the Baker-Campbell-Hausdorff product).

    The composite gauge parameter is computed in the enveloping series
    with polynomial coefficients (form-valued elements do not commute).
    The order of the two factors is pinned by the exact identity itself:
    this realization of the action composes contravariantly, matching the
    sign convention in :func:`gauge`.
    """
    lhs = gauge(gauge(alpha, h2), h1)
    env_order = alpha.fib.k
    e1 = _exp_form_series(h2, env_order)
    e2 = _exp_form_series(h1, env_order)
    prod = _series_mul(e1, e2, env_order)
    log = _series_log(prod, env_order, h1.m)
    h12 = GaugeElement(h1.m, alpha.fib, fv_map(log, alpha.fib.normal_form, h1.m))
    rhs = gauge(alpha, h12)
    return lhs.add(rhs, Fraction(-1))


# enveloping-valued polynomial series helpers: {tensor word: PolyForm}

def _series_mul(a, b, order):
    return fv_mul(a, b, lambda w1, w2: {w1 + w2: 1} if len(w1 + w2) <= order else {})


def _lie_to_series(x: LieFormValued, order):
    free = x.fib.free
    return fv_map(x.coeffs, lambda vec: {w: c for w, c in free.from_lyndon(vec).items()
                                         if len(w) <= order}, x.m)


def _exp_form_series(x: LieFormValued, order):
    return _series(x.m).sum((power, Fraction(1, factorial(j)))
                            for j, power in _powers(_lie_to_series(x, order), order, x.m))


def _series_log(t, order, m):
    u = {w: f for w, f in t.items() if w}
    return _series(m).sum((power, Fraction((-1) ** (j + 1), j))
                          for j, power in _powers(u, order, m) if j)


def _powers(base, order, m):
    """(j, base^j) for j = 0, 1, .., up to the first power that vanishes
    below ``order``."""
    power = {(): PolyForm.one(m, varname="x", ndiff=m)}
    yield 0, power
    for j in range(1, order + 1):
        power = _series_mul(power, base, order)
        if not power:
            break
        yield j, power


# ---------------------------------------------------------------------
# factors of automorphy
# ---------------------------------------------------------------------

class AutomorphyFactor:
    """g -> exp series with polynomial x-dependence, from a gauge element."""

    def __init__(self, h: GaugeElement, env: EnvelopingQuotient):
        self.h = h
        self.env = env
        self.m = h.m

    def at(self, g):
        """F_g(x) = e^{-h(gx)} e^{h(x)} as an enveloping-valued series."""
        order = self.env.order
        h_shift = self.h.translate(g).scale(-1)
        return _series_mul(_exp_form_series(h_shift, order),
                           _exp_form_series(self.h, order), order)

    def at_point(self, g, point):
        """F_g(p) as a rational enveloping element, reduced."""
        return from_scaled(self._at_point(g, point))

    def _at_point(self, g, point):
        """F_g(p) as a scaled normal form."""
        out = {}
        for w, f in self.at(g).items():
            v = f.eval_at(point)
            if v:
                out[w] = v
        return self.env._normal_form(out)

    def cocycle_defect(self, g1, g2):
        """F_{g1+g2}(x) - F_{g1}(g2 x) F_{g2}(x), reduced wordwise."""
        lhs = self.at(tuple(rat(a) + rat(b) for a, b in zip(g1, g2)))
        left = {w: translate_form(f, g2) for w, f in self.at(g1).items()}
        rhs = _series_mul(left, self.at(g2), self.env.order)
        return fv_map(fv_add(lhs, rhs, -1), self.env.reduce, self.m)


def automorphy_from_gauge(h: GaugeElement, env: EnvelopingQuotient,
                          samples=None) -> AutomorphyFactor:
    """Build the factor and verify the cocycle identity on sampled pairs."""
    F = AutomorphyFactor(h, env)
    if samples:
        for g1, g2 in samples:
            defect = F.cocycle_defect(g1, g2)
            if defect:
                raise ValueError("cocycle identity fails at %r, %r" % (g1, g2))
    return F


def equivariance_defect(alpha: ConnectionForm, F: AutomorphyFactor, g):
    """g^* alpha - (F_g alpha F_g^{-1} + (d F_g) F_g^{-1}), reduced.

    Vanishing is the well-definedness of d - alpha on the twisted bundle.
    """
    m = alpha.m
    env = F.env
    order = env.order
    alpha_series = _lie_to_series(alpha, order)
    Fg = F.at(g)
    # F^{-1} = exp(-(-h(gx)) ... ) computed directly
    h_shift = F.h.translate(g)
    inv = _series_mul(_exp_form_series(F.h.scale(-1), order),
                      _exp_form_series(h_shift, order), order)
    conj = _series_mul(_series_mul(Fg, alpha_series, order), inv, order)
    dF = {w: df for w, f in Fg.items() if not (df := f.d()).is_zero()}
    term = _series_mul(dF, inv, order)
    rhs = fv_add(conj, term)
    pulled = {w: translate_form(f, g) for w, f in alpha_series.items()}
    return fv_map(fv_add(pulled, rhs, -1), env.reduce, m)


# ---------------------------------------------------------------------
# parallel transport and holonomy
# ---------------------------------------------------------------------

class PLPath:
    """Piecewise-linear path with rational vertices."""

    def __init__(self, vertices):
        self.vertices = [tuple(rat(c) for c in v) for v in vertices]
        if not self.vertices:
            raise ValueError("a path needs at least one vertex")

    @property
    def start(self):
        return self.vertices[0]

    @property
    def end(self):
        return self.vertices[-1]

    def concat(self, other):
        if self.end != other.start:
            raise ValueError("paths do not compose: endpoints differ")
        return PLPath(self.vertices + other.vertices[1:])

    def translate(self, g):
        return PLPath([tuple(a + rat(b) for a, b in zip(v, g))
                       for v in self.vertices])

    def to_json(self):
        return {"vertices": [[rat_str(c) for c in v] for v in self.vertices]}

    @classmethod
    def from_json(cls, data):
        return cls(data["vertices"])


def transport(alpha: ConnectionForm, path: PLPath, env: EnvelopingQuotient):
    """Iterated-integral transport series T, exact, with T solving
    T' = T * A(s) along each segment in traversal order, so that
    T(path1 . path2) = T(path1) T(path2).

    T is exp(Omega) with Omega in the quotient's Lie algebra
    (``EnvelopingQuotient._lie``).  Omega is carried along the whole path
    by the flow ``_segment_flow``, each segment starting from the Omega
    the one before it ended with, and the path ends with one exp.  A
    segment's recurrence ends after max(top (J + 1) - 1, J + 1) steps, J
    the degree in s of alpha pulled back to it: the Lie algebra has no
    non-zero element of weight above ``top``, the fiber's nilpotency
    class, and on a non-abelian fiber the last of top (J + 1) steps
    would always give zero (``_segment_flow``).  So the cost
    grows with the class, not with the dimension of the enveloping
    quotient.  On a fiber of class 2 a segment takes a few brackets of
    Lie vectors; on a free quotient, whose class is its order, the flow
    brackets up to ``top`` deep, and is slower than multiplying a series
    per segment would be.  Every value is a scaled vector in lowest
    terms; the result is built as ``Fraction``s once, at the end.  Every
    vertex of the path must have alpha.m coordinates.
    """
    return from_scaled(_transport(alpha, path, env))


def _transport(alpha, path, env):
    """``transport`` as a scaled normal form in lowest terms."""
    for v in path.vertices:
        if len(v) != alpha.m:
            raise ValueError("path vertex (%s) has %d coordinates, the connection "
                             "lives on R^%d" % (", ".join(map(str, v)), len(v), alpha.m))
    lie = env._lie
    terms = _coefficient_terms(alpha, lie)
    omega = (1, {})
    for a, b in zip(path.vertices, path.vertices[1:]):
        omega = _segment_flow(lie, _pullback(terms, a, b), omega)
    return lie.exp(omega)


def _coefficient_terms(alpha, lie):
    """The 1-form terms of ``alpha`` on integers, as ``(den, terms)``:
    alpha is the sum over ``(coords, exps, j, n)`` in ``terms`` of
    x^exps dx_j (x) the Lie element with the coordinates n coords over
    den, where ``coords`` are those of the Lyndon bracket of the
    coefficient word over ``lie.den``."""
    den = lcm(*[f.den for f in alpha.coeffs.values()])
    terms = []
    for w, form in alpha.coeffs.items():
        coords = lie.of_lyndon(tuple(w))
        if not coords:
            continue
        f = den // form.den
        for (exps, dts), n in form.num.items():
            if len(dts) == 1:
                terms.append((coords, exps, dts[0], n * f))
    return den * lie.den, terms


def _pullback(coeff_terms, a, b):
    """The pull-back A(s) = sum_j A_j s^j of alpha to the segment from a
    to b, as the list of the A_j in Lie coordinates, each a scaled vector
    in lowest terms, up to the last non-zero one; ``coeff_terms`` is
    ``_coefficient_terms(alpha, lie)``."""
    den_c, terms = coeff_terms
    # pull back along x = a + s(b - a).  With a = A/q and b - a = D/q over
    # one denominator q, the term c x^e dx_j becomes
    # c D_j prod_i (A_i + D_i s)^e_i / q^(1 + |e|) ds, so over
    # den_c q^(1 + deg), deg the largest |e|, each coefficient is an
    # integer polynomial in s
    q = lcm(*[c.denominator for c in a + b])
    A = [c.numerator * (q // c.denominator) for c in a]
    D = [c.numerator * (q // c.denominator) - x for c, x in zip(b, A)]
    deg = max((sum(exps) for _, exps, _, _ in terms), default=0)
    by_power = {}  # exponent j of s -> A_j as {basis index: int}
    for coords, exps, j, n in terms:
        if not D[j]:
            continue
        poly = {0: n * D[j] * q ** (deg - sum(exps))}
        for i, e in enumerate(exps):
            for _ in range(e):
                times = {}
                for k, c in poly.items():
                    times[k] = times.get(k, 0) + c * A[i]
                    times[k + 1] = times.get(k + 1, 0) + c * D[i]
                poly = times
        for k, c in poly.items():
            accumulate(by_power.setdefault(k, {}), ((i, c * x) for i, x in coords.items()))
    last = max((k for k, a_k in by_power.items() if a_k), default=-1)
    den = den_c * q ** (1 + deg)
    return [lowest_terms(den, by_power.get(k, {})) for k in range(last + 1)]


@functools.cache
def _dexp_inverse(n):
    """beta_0 .. beta_{n-1} of x / (1 - e^{-x}) = sum_n beta_n x^n, that
    is beta_n = B+_n / n!: 1, 1/2, 1/12, 0, -1/720, ..."""
    return tuple(bernoulli(k) / factorial(k) for k in range(n))


def _segment_flow(lie, A, omega):
    """Omega(1) for the segment with pull-back A(s) = sum_j A_j s^j
    (``_pullback``), from Omega(0) = ``omega``.

    exp(Omega) solves T' = T A(s), so Omega' = sum_n beta_n ad_Omega^n A
    (``_dexp_inverse``), and with Omega(s) = sum_k Omega_k s^k

      (k + 1) Omega_{k+1} = sum_n beta_n [s^k] ad_{Omega(s)}^n A(s),

    where [s^k] ad^n = sum_i [Omega_i, [s^(k-i)] ad^(n-1)].  An element
    of weight above ``lie.top`` is zero and A has weight at least 1, so
    n < top; and Omega_k has weight at least ceil(k / (J + 1)), J the
    degree of A, so Omega_k is zero for k > top (J + 1).  For top >= 2
    the last one, Omega_{top (J + 1)}, is zero too: it lies in weight
    top, where only brackets of the weight-one part of A_J with itself
    reach s-degree top (J + 1) - 1, and those vanish.  So the recurrence
    stops after max(top (J + 1) - 1, J + 1) steps; on an abelian fiber
    (top 1) Omega_{J + 1} = A_J / (J + 1) is the last non-zero one.
    """
    if not A:
        return omega
    top = lie.top
    beta = _dexp_inverse(top)
    degree = len(A) - 1
    zero = (1, {})
    omegas = [omega]
    ads = [[] for _ in beta]  # ads[n][k] = [s^k] ad_{Omega(s)}^n A(s)
    for k in range(max(top * (degree + 1) - 1, degree + 1)):
        ads[0].append(A[k] if k <= degree else zero)
        for n in range(1, len(beta)):
            acc = {}
            for i, inner in enumerate(reversed(ads[n - 1])):
                den, num = lie.bracket(omegas[i], inner)
                accumulate_scaled(acc, den, num.items())
            ads[n].append(lowest_terms(*scaled_sum(acc)))
        acc = {}
        for b, ad in zip(beta, ads):
            accumulate_scaled(acc, ad[k][0], ad[k][1].items(), b)
        den, num = scaled_sum(acc)
        omegas.append(lowest_terms((k + 1) * den, num))
    acc = {}
    for den, num in omegas:
        accumulate_scaled(acc, den, num.items())
    return lowest_terms(*scaled_sum(acc))


def lattice_path(basepoint, deck_word):
    """The straight-segment lift of a deck word from the basepoint."""
    verts = [tuple(rat(c) for c in basepoint)]
    pos = list(verts[0])
    for g in deck_word:
        pos = [a + rat(b) for a, b in zip(pos, g)]
        verts.append(tuple(pos))
    return PLPath(verts)


def parse_loop(text, m):
    """Parse a loop word like "a b a- b-" into lattice translations."""
    gens = "abcdefgh"[:m]
    out = []
    for tok in text.split():
        inv = tok.endswith("-")
        name = tok[:-1] if inv else tok
        if name not in gens:
            raise ValueError("unknown deck generator %r" % (tok,))
        g = [Fraction(0)] * m
        g[gens.index(name)] = Fraction(-1) if inv else Fraction(1)
        out.append(tuple(g))
    return out


def holonomy(alpha: ConnectionForm, F: AutomorphyFactor, deck_word,
             basepoint, env: EnvelopingQuotient):
    """Theta_0(loop) = T(lift) * F_{rho(loop)}(basepoint); ``transport``
    refuses a basepoint without alpha.m coordinates.  T(lift) is the one
    exp of the flow along the whole lift (see ``transport``), and the only
    product in the quotient is the one by F; both factors stay scaled
    normal forms, so the product needs no reduction."""
    basepoint = tuple(rat(c) for c in basepoint)
    T = _transport(alpha, lattice_path(basepoint, deck_word), env)
    rho = tuple(sum(g[j] for g in deck_word) if deck_word else Fraction(0)
                for j in range(alpha.m))
    return from_scaled(env._mul(T, F._at_point(rho, basepoint)))


def conjugation_compatibility(theta1, theta2, h_at_p, env2):
    """theta2(loop) = e^{-h(p)} theta1(loop) e^{h(p)} per loop.

    ``theta1`` is already in ``env2``'s letters: a comparison's dual map
    K* is applied by the caller (``compare_pipeline_models``)."""
    failures = []
    eh = env2.exp(h_at_p)
    eh_inv = env2.exp({w: -c for w, c in h_at_p.items()})
    for loop in theta1:
        want = env2.mul(env2.mul(eh_inv, theta1[loop]), eh)
        if not env2.eq(theta2[loop], want):
            failures.append(loop)
    return failures


# ---------------------------------------------------------------------
# gauges between Maurer-Cartan connection forms
# ---------------------------------------------------------------------

def poincare_primitive(form: PolyForm) -> PolyForm:
    """Exact polynomial primitive of a closed 1-form on R^m (radial)."""
    m = form.nvars

    # P(x) = int_0^1 sum_j x_j f_j(t x) dt
    def terms():
        for (exps, dts), c in form.terms.items():
            if len(dts) != 1:
                raise ValueError("primitive of a non-1-form requested")
            e = list(exps)
            e[dts[0]] += 1
            yield PolyForm(m, {(tuple(e), ()): 1}, varname="x", ndiff=m), c / (sum(exps) + 1)

    return FormSpace(m, varname="x", ndiff=m).sum(terms())


def gauge_between(alpha1: ConnectionForm, alpha2: ConnectionForm):
    """Solve e^h(alpha1) = alpha2 order by order in bracket length.

    Works on the simply-connected cover, where every closed polynomial
    1-form has an exact polynomial primitive.  Returns the gauge element
    or raises with the first obstruction.
    """
    fib = alpha1.fib
    m = alpha1.m
    h = GaugeElement(m, fib, {})
    max_len = fib.k
    for length in range(1, max_len):
        residual = alpha2.add(gauge(alpha1, h), Fraction(-1))
        piece = {w: f for w, f in residual.coeffs.items() if len(w) == length}
        if not piece:
            continue
        add = {}
        for w, f in piece.items():
            if not f.d().is_zero():
                raise NonFlatError("gauge obstruction: residual not closed at %r" % (w,))
            add[w] = poincare_primitive(f)
        h = GaugeElement(m, fib, fv_add(h.coeffs, add))
    residual = alpha2.add(gauge(alpha1, h), Fraction(-1))
    if not residual.is_zero():
        raise NonFlatError("gauge solve failed: residual %r" % (residual,))
    return h

