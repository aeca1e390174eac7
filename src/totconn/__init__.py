"""Exact-arithmetic homotopy transfer and flat-connection holonomy.

The layers, bottom up:

* ``scalars``, ``signs``, ``linalg``, ``graded`` -- rationals, the Koszul
  sign engine, sparse exact elimination, finite-type graded spaces;
* ``forms``, ``dupont`` -- polynomial forms on simplices and the
  simplicial contraction onto elementary forms;
* ``structures``, ``transfer`` -- infinity-structure carriers, relation
  checkers, and homotopy transfer (the simplex structures included);
* ``totalcomplex`` -- polynomial group cochains of Z^m on R^m, their
  normalized total complex, and its products (general formula and
  degree-one closed forms);
* ``freelie``, ``convolution`` -- truncated free Lie/tensor machinery and
  convolution structures with Maurer-Cartan elements;
* ``minimal``, ``connection``, ``pipeline``, ``cli`` -- minimal models,
  flat connections with gauge/automorphy/holonomy, and the front ends.

Everything is exact: scalars are rationals, identities are equalities.
"""

__version__ = "0.1.0"
