"""Koszul sign engine, shuffles and tensor words.

This module is the single source of signs for the whole library: every
graded permutation, shuffle product and tensor-map evaluation routes
through :func:`koszul_sign`.

Permutations are 0-based tuples ``perm`` with the meaning "output slot j
holds the input element ``perm[j]``"; ``degrees[i]`` is the degree of input
element ``i``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .linalg import ONE, accumulate


def is_permutation(perm) -> bool:
    n = len(perm)
    return sorted(perm) == list(range(n))


def perm_sign(perm) -> int:
    """(-1)^inversions of the permutation."""
    sign = 1
    for j in range(len(perm)):
        for k in range(j + 1, len(perm)):
            if perm[j] > perm[k]:
                sign = -sign
    return sign


def sorted_image(images, index):
    """The image of the index string ``index`` under ``images`` (i goes
    to images[i]), sorted, and the sign of sorting it."""
    image = [images[i] for i in index]
    return tuple(sorted(image)), perm_sign(image)


def column_order(strings, vertices):
    """The ``vertices`` (a range) sorted by their columns, largest first,
    and the columns, indexed by vertex: the column of v is a bitmask of
    the index strings that hold v, the first string the highest bit.
    Relabelling order[r] as vertices[r] sends two tuples of strings to the
    same image exactly when a permutation of ``vertices`` carries one to
    the other; ties keep their order, so a sorted tuple is its own image.
    """
    columns = [0] * vertices.stop
    bit = 1 << len(strings)
    for index in strings:
        bit >>= 1
        for v in index:
            columns[v] |= bit
    return sorted(vertices, key=columns.__getitem__, reverse=True), columns


def koszul_sign(perm, degrees) -> Fraction:
    """Sign picked up by reordering graded elements along ``perm``.

    Each adjacent transposition of elements of degrees a, b contributes
    (-1)^{a*b}; the closed form is the product over inversion pairs.
    """
    if len(perm) != len(degrees):
        raise ValueError("koszul_sign: permutation/degree length mismatch")
    if not is_permutation(perm):
        raise ValueError("koszul_sign: not a bijection: %r" % (perm,))
    sign = 1
    for j in range(len(perm)):
        for k in range(j + 1, len(perm)):
            if perm[j] > perm[k] and (degrees[perm[j]] * degrees[perm[k]]) % 2:
                sign = -sign
    return Fraction(sign)


def antisym_sign(perm, degrees) -> Fraction:
    """sgn(perm) times the Koszul sign; the weight in antisymmetrizations."""
    return perm_sign(perm) * koszul_sign(perm, degrees)


def shuffles(p: int, q: int):
    """All (p,q)-shuffles as 0-based permutations of {0..p+q-1}.

    Output slot j holds input perm[j]; inputs 0..p-1 keep their relative
    order, as do inputs p..p+q-1.  Trivial shuffles (p=0 or q=0) are
    rejected, mirroring the "non-trivial shuffles" subspace.
    """
    if p < 1 or q < 1:
        raise ValueError("shuffles: p and q must be >= 1")
    out = []
    for positions in itertools.combinations(range(p + q), p):
        perm = [None] * (p + q)
        for i, pos in enumerate(positions):
            perm[pos] = i
        rest = iter(range(p, p + q))
        for j in range(p + q):
            if perm[j] is None:
                perm[j] = next(rest)
        out.append(tuple(perm))
    return out


# A word in a tensor (co)algebra is a tuple of (label, degree) entries.
EMPTY_WORD = ()


def word(*entries) -> tuple:
    return entries


def shuffle_product(a: tuple, b: tuple) -> dict:
    """Graded shuffle product of two words as a formal sum {word: coefficient}.

    The empty word is the unit.  Signs come from inversions between the
    two blocks only, weighted by entry degrees.
    """
    if not a:
        return {b: ONE}
    if not b:
        return {a: ONE}
    entries = a + b
    degrees = tuple(d for _, d in entries)
    return accumulate({}, ((tuple(entries[i] for i in perm),
                            koszul_sign(perm, degrees))
                           for perm in shuffles(len(a), len(b))))
