"""The simplicial contraction from polynomial forms onto elementary forms.

Provides the three maps E (elementary-form extension), Int (integration
over sub-simplices) and s (the simplicial homotopy operator built from
radial contractions toward vertices), together with verifiers for Stokes
compatibility and simplicial naturality.  An elementary cochain is a
plain sparse vector {I: c} over strictly increasing index strings I in
{0..n}; L_I has degree |I| - 1.  The side conditions

    Int o E = Id,   Int o s = s o E = s o s = 0,   ds + sd = E Int - Id

are those of every contraction: ``transfer.dupont_contraction(n)``
packages E, Int and s, and its ``verify_side_conditions`` checks them.
All arithmetic is exact.

E, Int and each h^i are linear, so they are applied to a form as sparse
sums of cached images of its monomials t^exps dt_dts: ``elementary_form``
per index string, ``_int_monomial`` per (exps, dts, n) as one closed
Dirichlet integral, and ``_h_monomial`` per (exps, dts, n, i) as a sum
of closed Beta integrals, one per term of the pullback.  The monomial
tables hold scaled values, ``(den, ((key, int), ..))`` in lowest terms,
and cached forms are only read, never mutated.  The sums run on the
forms' integer numerators, in place, in a scaled accumulator
(``linalg.accumulate_scaled``), so no ``Fraction`` is built on the way;
``dupont_Int`` builds its coefficients once, at the end.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, factorial, gcd

from .forms import (PolyForm, SimplicialOperator, simplex_dt, simplex_monomials,
                    simplex_t)
from .linalg import accumulate, accumulate_scaled, lowest_terms, scaled_sum


def index_strings(n, size):
    """Strictly increasing tuples of the given size inside {0..n}."""
    return list(itertools.combinations(range(n + 1), size))


@functools.lru_cache(maxsize=None)
def elementary_form(I, n) -> PolyForm:
    """The degree-p elementary form w_I = p! sum_j (-1)^j t_{i_j} dt_{...}."""
    I = tuple(I)
    if not I or list(I) != sorted(set(I)) or I[0] < 0 or I[-1] > n:
        raise ValueError("elementary_form: invalid index set")
    p = len(I) - 1
    fact = factorial(p)
    acc = {}
    for j in range(p + 1):
        term = simplex_t(n, I[j])
        for k in range(p + 1):
            if k == j:
                continue
            term = term.wedge(simplex_dt(n, I[k]))
        accumulate_scaled(acc, term.den, term.num.items(), -fact if j % 2 else fact)
    return PolyForm._trusted(n, *scaled_sum(acc), "t", n)


def dupont_E(lam: dict, n: int) -> PolyForm:
    """Extend the elementary cochain ``lam`` = {I: c} on the n-simplex to
    the form sum_I c w_I."""
    acc = {}
    for I, c in lam.items():
        w = elementary_form(I, n)
        accumulate_scaled(acc, w.den, w.num.items(), c)
    return PolyForm._trusted(n, *scaled_sum(acc), "t", n)


@functools.lru_cache(maxsize=None)
def _int_monomial(exps, dts, n):
    """Int of the monomial t^exps dt_dts on the n-simplex, scaled: the
    value on I is n/den over the ``(den, ((I, n), ..))`` returned.

    See ``dupont_Int`` for the formula.  With S = {j + 1 for j in dts},
    the only candidates are I = S + {x}: x is forced when one variable
    with a positive exponent lies outside S, and the integral vanishes on
    every I when two do.
    """
    S = {j + 1 for j in dts}
    outside = {j + 1 for j, a in enumerate(exps) if a} - S
    if len(outside) > 1:
        return 1, ()
    value = 1
    for a in exps:
        value *= factorial(a)
    den = factorial(sum(exps) + len(dts))
    g = gcd(value, den)
    value, den = value // g, den // g
    out = []
    for x in outside or [x for x in range(n + 1) if x not in S]:
        I = tuple(sorted(S | {x}))
        out.append((I, -value if I.index(x) % 2 else value))
    return den, tuple(out)


def dupont_Int(form: PolyForm, n: int) -> dict:
    """Integrate over all sub-simplices sigma_I of the n-simplex: the
    elementary cochain {I: c}, with no zero stored.

    Int is linear, so it is applied termwise from the per-monomial table
    ``_int_monomial``, which uses the Dirichlet integral in closed form.
    For the monomial t^a dt_S (eliminated coordinates t_1..t_n, S a set of
    p indices in 1..n) and I = (i_0 < ... < i_p), the integral over
    sigma_I is non-zero only if every t_j with a_j > 0 and every j in S
    lies in I, so that S = I minus {i_m} for one position m; it is then

        (-1)^m * prod_{i in I, i >= 1} a_i!  /  (sum_{i in I} a_i + p)!.

    The sign is that of the geometric pullback along the inclusion
    [p] -> [n] with image I, whose chart eliminates the first vertex of
    sigma_I: for m > 0 the factor dt_{i_0} pulls back to minus the sum of
    the other p differentials, of which only -dt_{i_m} survives, and it
    passes m - 1 others to sit in increasing order.  For p = 0 the value
    is that of the monomial at the vertex i_0.
    """
    if form.nvars != n:
        raise ValueError("dupont_Int: form is not on the n-simplex")
    acc = {}
    for (exps, dts), c in form.num.items():
        den, values = _int_monomial(exps, dts, n)
        accumulate_scaled(acc, den, values, c)
    den, num = scaled_sum(acc)
    den *= form.den
    # faces by size, then lexicographically: the key order does not
    # depend on the order of the form's terms
    faces = sorted(num, key=lambda I: (len(I), I))
    return {I: Fraction(num[I], den) for I in faces}


# ---------------------------------------------------------------------
# the homotopy operator
# ---------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _h_monomial(exps, dts, n, i):
    """h^i of the monomial t^exps dt_dts on the n-simplex, scaled:
    ``(den, ((key, n), ..))`` in lowest terms.

    phi_i^* sends t_k -> u t_k + (1-u) delta_ik in the eliminated chart,
    so dt_k -> u dt_k + (t_k - delta_ik) du.  With a = exps, S = (s_0 <
    .. < s_{p-1}) the dt indices, c the coordinate of vertex i (a_c = 0
    when i = 0) and A = |a| - a_c, expanding (u t_c + 1 - u)^{a_c}
    binomially and moving du leftmost past r dt's gives

        h^i(t^a dt_S) = - sum_{b <= a_c} sum_{r < p} (-1)^r C(a_c, b)
                        B(A + b + p, a_c - b + 1) t^{a, a_c -> b}
                        (t_{s_r} - delta_{s_r c}) dt_{S - s_r},

    one Beta integral of u^{A+b+p-1} (1-u)^{a_c-b} per term (see
    ``h_operator`` for the sign).  All terms share the denominator
    (A + a_c + p)!, and h^i is zero on functions.
    """
    p = len(dts)
    if not p:
        return 1, ()
    c = i - 1
    ac = exps[c] if i else 0
    A = sum(exps) - ac
    terms = []
    for b in range(ac + 1):
        base = exps[:c] + (b,) + exps[i:] if i else exps
        beta = comb(ac, b) * factorial(A + b + p - 1) * factorial(ac - b)
        for r, s in enumerate(dts):
            v = beta if r % 2 else -beta
            rest = dts[:r] + dts[r + 1:]
            terms.append(((base[:s] + (base[s] + 1,) + base[s + 1:], rest), v))
            if s == c:
                terms.append(((base, rest), -v))
    den, num = lowest_terms(factorial(A + ac + p), accumulate({}, terms))
    return den, tuple(num.items())


@functools.lru_cache(maxsize=200000)
def h_operator(form: PolyForm, i: int) -> PolyForm:
    """h^i = (integration along u in [0,1]) o phi_i^*.

    Keeps the du-component of the pulled-back form and integrates its
    polynomial u-dependence exactly, one Beta integral per term of a
    monomial (``_h_monomial``), as Int is one Dirichlet integral per
    monomial.  The fiber orientation is pinned by
    the side conditions: with du collected leftmost, the integral carries
    a global minus sign (the other orientation breaks ds + sd = E Int - Id
    on the monomial spanning set).  h^i is linear, so it is applied
    termwise from the per-monomial table ``_h_monomial``.
    """
    n = form.nvars
    acc = {}
    for (exps, dts), c in form.num.items():
        den, values = _h_monomial(exps, dts, n, i)
        accumulate_scaled(acc, den, values, c)
    den, num = scaled_sum(acc)
    return PolyForm._trusted(n, den * form.den, num, "t", n)


def dupont_s(form: PolyForm, n: int) -> PolyForm:
    """The simplicial homotopy operator.

    s(w) = sum over j and strings i_0 < ... < i_j of
    w_{i_0..i_j} wedge h^{i_j} ... h^{i_0}(w), with j below deg(w).
    """
    if form.nvars != n:
        raise ValueError("dupont_s: form is not on the n-simplex")
    acc = {}
    for p in sorted({len(key[1]) for key in form.num}):
        comp = form.component(p)
        # h-composites along ascending strings share prefixes; walk them
        # depth-first so each h application happens once
        stack = [((), comp)]
        while stack:
            I, inner = stack.pop()
            if I:
                w = elementary_form(I, n).wedge(inner)
                accumulate_scaled(acc, w.den, w.num.items())
            if len(I) >= p:
                continue
            lo = I[-1] + 1 if I else 0
            for idx in range(lo, n + 1):
                nxt = h_operator(inner, idx)
                if not nxt.is_zero():
                    stack.append((I + (idx,), nxt))
    return PolyForm._trusted(n, *scaled_sum(acc), "t", n)


def nc_simplicial_action(theta: SimplicialOperator, lam: dict) -> dict:
    """Action of a monotone map [q] -> [n] on elementary cochains.

    theta_* lambda_I = sum of lambda_K over K in {0..q} mapped bijectively
    onto I by theta.  Every I must be an index string in {0..n}.
    """
    for I in lam:
        elementary_form(I, theta.m)  # raises ValueError on an invalid I
    q = theta.n
    # theta(K) = I fixes I, so no two terms share a K
    return {K: c for I, c in lam.items()
            for K in itertools.combinations(range(q + 1), len(I))
            if tuple(theta.images[k] for k in K) == I}


# ---------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------

def nc_basis(n):
    return [{I: Fraction(1)} for size in range(1, n + 2) for I in index_strings(n, size)]


def verify_stokes(n, max_poly_deg=4):
    """Int(dw)(sigma_I) = alternating sum over deleted indices, termwise."""
    failures = []
    for w in simplex_monomials(n, max_poly_deg):
        left = dupont_Int(w.d(), n)
        val = dupont_Int(w, n)
        for size in range(2, n + 2):
            for I in index_strings(n, size):
                lhs = left.get(I, Fraction(0))
                rhs = Fraction(0)
                for j in range(size):
                    J = I[:j] + I[j + 1:]
                    rhs += (-1) ** j * val.get(J, Fraction(0))
                if lhs != rhs:
                    failures.append(("stokes", n, repr(w), I))
    return failures


def verify_naturality(n, max_poly_deg=3):
    """E, Int and s commute with the cofaces into and the codegeneracies
    out of dimension n (so every form involved lives on a simplex of
    dimension at most n)."""
    failures = []
    ops = [SimplicialOperator.coface(n - 1, i) for i in range(n + 1)] if n >= 1 else []
    ops += [SimplicialOperator.codegeneracy(n - 1, i) for i in range(n)] if n >= 1 else []
    for theta in ops:
        for lam in nc_basis(theta.m):
            lhs = theta.pullback(dupont_E(lam, theta.m))
            rhs = dupont_E(nc_simplicial_action(theta, lam), theta.n)
            if lhs != rhs:
                failures.append(("E naturality", repr(theta), repr(lam)))
        for w in simplex_monomials(theta.m, max_poly_deg):
            lhs = nc_simplicial_action(theta, dupont_Int(w, theta.m))
            rhs = dupont_Int(theta.pullback(w), theta.n)
            if lhs != rhs:
                failures.append(("Int naturality", repr(theta), repr(w)))
        for w in simplex_monomials(theta.m, max_poly_deg):
            lhs = theta.pullback(dupont_s(w, theta.m))
            rhs = dupont_s(theta.pullback(w), theta.n)
            if lhs != rhs:
                failures.append(("s naturality", repr(theta), repr(w)))
    return failures
