"""Exact rational scalars and (de)serialization helpers.

Every number the library takes or returns is a ``fractions.Fraction``.
Internally, some layers compute on integer numerators over a common
denominator (the scaled vectors of ``linalg``) and build ``Fraction``s
only where a value leaves them: transport and the enveloping quotient
(see ``freelie``), elimination (``linalg.Echelon``), and polynomial
forms (``forms.PolyForm``, whose public ``terms`` is a read-only view)
with the Dupont operators on them.  There is no floating point anywhere
in the computational core.  Fractions are kept in
canonical reduced form with positive denominator by the stdlib, which makes
equality of values literal equality of objects.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def rat(x) -> Fraction:
    """Coerce ints, "p/q" strings and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip().replace("−", "-")  # tolerate unicode minus in JSON
        return Fraction(s)
    raise TypeError("not an exact scalar: %r" % (x,))


def rat_str(x: Fraction) -> str:
    """Canonical string form used in all JSON output ("p" or "p/q")."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def bernoulli(n: int) -> Fraction:
    """Second Bernoulli numbers (B1 = +1/2) via the defining recurrence.

    sum_{j=0}^{n} C(n+1, j) B_j = n + 1, solved for B_n.  This is the
    independent oracle used to pin the transferred-product coefficients.
    """
    if n < 0:
        raise ValueError("bernoulli: negative index")
    values = []
    for m in range(n + 1):
        acc = Fraction(m + 1)
        for j in range(m):
            acc -= comb(m + 1, j) * values[j]
        values.append(acc / (m + 1))
    # The recurrence above yields the B1 = +1/2 convention directly.
    return values[n]
