"""Polynomial forms on simplices and the contraction onto elementary forms.

Run:  python3 demos/01_simplex_contraction.py
"""

from fractions import Fraction

from totconn.dupont import dupont_E, dupont_Int, dupont_s, elementary_form
from totconn.forms import (integrate_over_simplex, simplex_dt, simplex_monomials,
                           simplex_t)
from totconn.transfer import dupont_contraction

# Forms on the standard 2-simplex live in the coordinates t1, t2 with
# t0 = 1 - t1 - t2 eliminated, so every identity is literal equality.
n = 2
t0, t1, t2 = (simplex_t(n, i) for i in range(3))
print("t0 + t1 + t2 =", t0 + t1 + t2)

# The elementary form attached to the edge {0,1}:
w01 = elementary_form((0, 1), n)
print("w_01 =", w01)

# Integration over faces packages a form into face data.  For the top
# form on the triangle the factorial formula gives exact rationals:
top = t1.wedge(t2).wedge(simplex_dt(n, 1)).wedge(simplex_dt(n, 2))
print("integral of t1 t2 dt1 dt2 =", integrate_over_simplex(top, 2))

# The contraction data: E (extend face data to a form), Int (integrate
# over faces) and the homotopy s.  Face data is a sparse vector
# {I: c} over the index strings I of the faces.  Int o E is the identity:
lam = {(0, 2): Fraction(1)}
back = dupont_Int(dupont_E(lam, n), n)
print("Int(E(lambda_02)) =", " + ".join("%s*L%s" % (c, "".join(map(str, I)))
                                         for I, c in back.items()))

# and d s + s d = E Int - Id, exactly, on any polynomial form:
w = t1.wedge(t1).wedge(simplex_dt(n, 2))
lhs = dupont_s(w, n).d() + dupont_s(w.d(), n)
rhs = dupont_E(dupont_Int(w, n), n) - w
print("homotopy identity holds:", lhs == rhs)

# E, Int and s form a contraction; its side conditions, checked on every
# monomial of polynomial degree <= 3:
print("side-condition failures on the triangle:",
      dupont_contraction(n).verify_side_conditions(simplex_monomials(n, 3)))
