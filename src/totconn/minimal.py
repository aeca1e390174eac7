"""Construction and comparison of low-degree minimal models.

``one_minimal_model`` builds a Hodge-type decomposition of a finite dga
window by deterministic exact elimination, transfers the structure onto
the chosen harmonic representatives, and restricts to the low-degree
truncation whose degree-2 part is generated by products of degree-1
elements.  ``compare_models`` produces the comparison morphism between
two models of the same algebra (linear part the projected inclusion,
higher corrections solved arity by arity) and the induced map on dual
tensor algebras used for the filtered-isomorphism checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .convolution import Generators, delta_star, mc_check, morphism_to_mc
from .freelie import FiberLieAlgebra
from .graded import GradedVectorSpace
from .linalg import ONE, Coordinates, Echelon, accumulate, intersect_spans, solve, vec_add
from .scalars import rat_str
from .structures import (FiniteAlgebra, InfinityMorphism, check_morphism,
                         defect_term_reads, defect_term_value, defect_terms,
                         morphism_defect)
from .transfer import (TransferResult, contraction_from_hodge,
                       transfer_structure)


class ModelError(ValueError):
    pass


def _pivot_candidates(keys, strategy):
    """Deterministic candidate vectors for complement choices."""
    singles = [{k: Fraction(1)} for k in keys]
    pairs = []
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            pairs.append({keys[i]: Fraction(1), keys[j]: Fraction(1)})
    if strategy == "lex":
        return singles + pairs
    if strategy == "revlex":
        return list(reversed(singles)) + list(reversed(pairs))
    if strategy == "shear":
        return pairs + singles
    raise ValueError("unknown pivot strategy %r" % (strategy,))


def hodge_decomposition(alg: FiniteAlgebra, pivot="lex"):
    """W, M vectors for a deterministic Hodge-type decomposition.

    Per degree: W is a complement of the exact part inside the closed
    part (with the unit chosen as the degree-0 representative), M a
    complement of the closed part chosen from the pivot candidates.
    """
    order = alg.space.key_order
    degrees = sorted(alg.space.degrees)
    w_vectors = []
    m_vectors = []
    for d in degrees:
        keys = alg.space.keys(d)
        prev_keys = alg.space.keys(d - 1)
        exact = Echelon(order)
        for k in prev_keys:
            dv = alg.m(1, [{k: Fraction(1)}])
            if dv:
                exact.insert(dv)
        # closed subspace: the relations among the differentials of the keys
        images = Coordinates([alg.m(1, [{k: Fraction(1)}]) for k in keys], order)
        closed = [{keys[i]: c for i, c in rel.items()} for rel in images.relations()]
        closed_ech = Echelon(order)
        for v in closed:
            closed_ech.insert(v)
        # W: complement of exact inside closed, picked from the pivot
        # candidates (so different strategies change the representatives)
        w_ech = Echelon(order)
        for v in exact.basis():
            w_ech.insert(v)
        chosen_w = []
        if d == 0 and alg.unit_key is not None:
            unit = {alg.unit_key: Fraction(1)}
            if closed_ech.contains(unit) and w_ech.insert(unit):
                chosen_w.append(unit)
        for cand in _pivot_candidates(keys, pivot) + closed:
            if not closed_ech.contains(cand):
                continue
            if w_ech.insert(cand):
                chosen_w.append(dict(cand))
        w_vectors.extend(chosen_w)
        # M: complement of closed inside the degree, from pivot candidates
        m_ech = Echelon(order)
        for v in closed:
            m_ech.insert(v)
        for cand in _pivot_candidates(keys, pivot):
            if m_ech.insert(cand):
                m_vectors.append(dict(cand))
    return w_vectors, m_vectors


class OneMinimalModel:
    """Low-degree minimal structure with its morphism into the target."""

    def __init__(self, algebra: FiniteAlgebra, morphism: InfinityMorphism,
                 target: FiniteAlgebra, transfer: TransferResult):
        self.algebra = algebra
        self.morphism = morphism
        self.target = target
        self.transfer = transfer


def positive_part(alg: FiniteAlgebra) -> FiniteAlgebra:
    """The structure restricted to positive degrees."""
    space = GradedVectorSpace({d: names for d, names in alg.space.degrees.items()
                               if d > 0})
    out = FiniteAlgebra(space, kind=alg.kind, arity_cap=alg.arity_cap)
    keys = set(space.keys())
    for k, table in alg.maps.items():
        for wrd, val in table.items():
            if all(kk in keys for kk in wrd):
                vv = {kk: c for kk, c in val.items() if kk in keys}
                if vv:
                    out.set_value(k, wrd, vv)
    return out


def _degree_one_products(alg: FiniteAlgebra):
    """{n: {word: m_n(word)}} on the words of degree-1 keys for n = 2 ..
    arity cap: the non-zero values in word order, and only the arities
    that have one."""
    one_keys = alg.space.keys(1)
    out = {}
    for n in range(2, alg.arity_cap + 1):
        table = {}
        for wrd in itertools.product(one_keys, repeat=n):
            val = alg.m(n, [{k: Fraction(1)} for k in wrd])
            if val:
                table[wrd] = val
        if table:
            out[n] = table
    return out


def one_minimal_model(B: FiniteAlgebra, arity_cap=4, pivot="lex") -> OneMinimalModel:
    """Build the low-degree minimal model of a finite (c)dga window.

    The structure is transferred onto the harmonic basis W, and the model
    keeps W's degree-0 and degree-1 keys and the degree-2 keys that
    products of degree-1 elements generate.  The transferred m_k is read
    (``TransferredAlgebra.entry``) only on words of kept keys whose output
    degree is a degree of the model, for k = 2 .. ``arity_cap``, and at
    k >= 3 not on a word that holds a strict unit; no other word of W is
    evaluated.  An ``arity_cap`` below 2 is a ValueError: the
    model would lose its products.
    """
    if arity_cap < 2:
        raise ValueError("one_minimal_model: arity_cap must be at least 2, got %d"
                         % arity_cap)
    w_vectors, m_vectors = hodge_decomposition(B, pivot=pivot)
    # connectedness: exactly one harmonic representative in degree 0
    h0 = [v for v in w_vectors if {k[0] for k in v} == {0}]
    if len(h0) != 1:
        raise ModelError("cohomology is not connected in degree 0")
    names = []
    counter = {}
    for v in w_vectors:
        d = next(iter(v))[0]
        counter[d] = counter.get(d, 0) + 1
        names.append("h%d_%d" % (d, counter[d]))
    con = contraction_from_hodge(B, w_vectors, m_vectors, names=names,
                                 tag="hodge[%s]" % pivot)
    failures = con.verify_side_conditions(
        [{k: Fraction(1)} for k in B.space.keys()])
    if failures:
        raise ModelError("side conditions failed: %r" % (failures[:3],))
    res = transfer_structure(con, arity_cap, kind="1Cinf")
    full = res.algebra

    # regenerate the degree-2 part from products of degree-1 elements
    one_keys = full.space.keys(1)
    two_keys = full.space.keys(2)
    gen2 = Echelon(full.space.key_order)
    for table in _degree_one_products(full).values():
        for val in table.values():
            gen2.insert(val)
    # keep exactly a basis of the generated part, expressed on the chosen keys
    kept2 = [k for k in two_keys if gen2.contains({k: Fraction(1)})]
    if gen2.rank != len(kept2):
        raise ModelError("window too small to span the generated degree-2 part")

    unit_name = full.unit_key
    degrees = {1: [name for _, name in one_keys], 2: [name for _, name in kept2]}
    if unit_name is not None:
        degrees[0] = [unit_name[1]]
    space = GradedVectorSpace(degrees)
    model = FiniteAlgebra(space, kind="1Cinf", arity_cap=arity_cap,
                          unit_key=unit_name)
    keep = set(space.keys())
    # the model's words in the order of the full space's, so that every
    # table is filled in the order a product over all of W would fill it.
    # A word whose output degree is not a degree of the model is skipped:
    # its value has no kept key.  The skip drops all-degree-1 words, of
    # output degree 2, only when no degree-2 key is kept, i.e. when gen2
    # has rank 0 and every degree-1 product is zero, so the escape check
    # below loses nothing.  A strictly unital transfer has m_k = 0 on a
    # word that holds the unit for k >= 3, so those words are not
    # enumerated; the others come in the same order.
    keep_keys = [key for key in full.space.keys() if key in keep]
    for k in range(2, arity_cap + 1):
        keys = [key for key in keep_keys if k == 2 or key != full.strict_unit_key]
        degrees = [key[0] for key in keys]
        for wrd, degs in zip(itertools.product(keys, repeat=k),
                             itertools.product(degrees, repeat=k)):
            if sum(degs) + 2 - k not in space.degrees:
                continue
            val = full.entry(k, wrd)
            vv = {kk: c for kk, c in val.items() if kk in keep}
            bad = {kk: c for kk, c in val.items() if kk not in keep and kk[0] == 2}
            if bad and all(kk[0] == 1 for kk in wrd):
                raise ModelError("degree-1 products escape the generated part")
            if vv:
                model.set_value(k, wrd, vv)

    # the morphism: inclusion components restricted to the model basis
    morphism = InfinityMorphism(model, B, components=res.inclusion.components)
    out = OneMinimalModel(model, morphism, B, res)
    _verify_model(out)
    return out


def _verify_model(model: OneMinimalModel):
    alg = model.algebra
    if alg.maps.get(1):
        raise ModelError("transferred structure is not minimal")
    # the linear part embeds onto independent cohomology classes
    B = model.target
    order = B.space.key_order
    exact = Echelon(order)
    for k in B.space.keys():
        dv = B.m(1, [{k: Fraction(1)}])
        if dv:
            exact.insert(dv)
    class_ech = Echelon(order)
    for key in alg.space.keys(1):
        img = model.morphism.apply(1, [{key: Fraction(1)}])
        if B.m(1, [img]):
            raise ModelError("degree-1 image is not closed")
        red = exact.reduce(img)
        if not red or not class_ech.insert(red):
            raise ModelError("degree-1 classes are not independent")
    # morphism relations on degree-1 words within the cap
    probes = []
    one_keys = alg.space.keys(1)
    for n in range(1, min(alg.arity_cap, 4) + 1):
        probes.extend([{k: Fraction(1)} for k in wrd]
                      for wrd in itertools.product(one_keys, repeat=n))
    failures = check_morphism(model.morphism, probes)
    if failures:
        raise ModelError("model morphism fails: %r" % (failures[:2],))


def massey_report(model: OneMinimalModel):
    """Tables of the minimal products on degree-1 inputs, per arity."""
    return {n: {tuple(name for _, name in wrd): {key[1]: c for key, c in val.items()}
                for wrd, val in table.items()}
            for n, table in _degree_one_products(model.algebra).items()}


def massey_json(model: OneMinimalModel):
    """``massey_report`` with string keys and coefficients, as printed."""
    return {str(n): {"|".join(wrd): {name: rat_str(c) for name, c in val.items()}
                     for wrd, val in sorted(table.items())}
            for n, table in massey_report(model).items()}


def model_fiber_data(model: OneMinimalModel, trunc=4, k=4) -> FiberLieAlgebra:
    """The nilpotent quotient u/I^k of a model: ``fib.free`` is the free
    Lie algebra on the degree-1 duals truncated at ``trunc`` and
    ``fib.ideal`` the delta-star ideal.  The one place these are built;
    the formality and comparison checks take its result."""
    free, ideal, _ = delta_star(positive_part(model.algebra), trunc)
    return FiberLieAlgebra(free, ideal, k)


def model_mc(model: OneMinimalModel, trunc=4):
    """The series of the model morphism, checked Maurer-Cartan; its
    generators are ``alpha.gens``."""
    W = positive_part(model.algebra)
    alpha = morphism_to_mc(model.morphism, Generators(W.space), trunc)
    report = mc_check(alpha, W)
    if report:
        raise ModelError("model series is not Maurer-Cartan: %r" % (report[:2],))
    return alpha


# ---------------------------------------------------------------------
# comparison of two models of the same algebra
# ---------------------------------------------------------------------

class Comparison:
    """k: W2 -> W1 with linear part the projected inclusion, plus the
    induced algebra map on dual tensor generators.  Free generator i of a
    model's fiber is its i-th degree-1 key (``delta_star``), so
    ``_columns[i]`` is the image of W1 generator i, {W2 index: coeff}."""

    def __init__(self, model1, model2, k_tables, dual_matrix):
        self.k_tables = k_tables
        self.dual_matrix = dual_matrix  # {W1 degree-1 name: {W2 name: coeff}}
        names2 = [name for _, name in model2.algebra.space.keys(1)]
        self._columns = [{names2.index(name2): c
                          for name2, c in dual_matrix.get(name1, {}).items()}
                         for _, name1 in model1.algebra.space.keys(1)]

    def dual_on_word(self, w):
        """Image of a dual word of model1's fiber in model2's fiber."""
        out = {(): Fraction(1)}
        for i in w:
            out = accumulate({}, ((ww + (j,), c * c2) for ww, c in out.items()
                                  for j, c2 in self._columns[i].items()))
        return out

    def dual_series(self, series):
        out = {}
        for w, c in series.items():
            accumulate(out, ((w2, c * c2) for w2, c2 in self.dual_on_word(w).items()))
        return out


def _linear_system(W2, W1, k_tables, unknowns, probes):
    """Columns and right-hand side of the comparison's linear system.

    Entries are keyed (probe index, W1 key).  The column of an unknown
    (j, wrd, vk) is defect(base + e) - defect(base), where e puts a unit
    on vk at table entry (j, wrd).  Each probe's ``defect_terms`` are
    evaluated once on the base tables and indexed by the table entries
    they read.  A column is the sum of coeff * (term under base + e -
    base term) over the terms that read (j, wrd): every other term makes
    the same lookups with the same values and so adds exactly zero.
    """
    mor = InfinityMorphism(W2, W1, tables=k_tables)
    rhs, readers = {}, {}
    for pi, wrd in enumerate(probes):
        blocks, defect = {}, []
        for term in defect_terms(W2, [{k: ONE} for k in wrd]):
            value = defect_term_value(mor, term, blocks) or {}
            defect.append((value, term[0]))
            for entry in defect_term_reads(term):
                readers.setdefault(entry, []).append((pi, term, value))
        rhs.update(((pi, key), -c) for key, c in W1.sum(defect).items())
    cols = []
    for j, wrd, vk in unknowns:
        table = dict(k_tables.get(j, {}))
        table[wrd] = vec_add(table.get(wrd, {}), {vk: Fraction(1)})
        mor = InfinityMorphism(W2, W1, tables={**k_tables, j: table})
        col, blocks = {}, {}
        for pi, term, base in readers.get((j, wrd), ()):
            coeff = term[0]
            new = defect_term_value(mor, term, blocks.setdefault(pi, {})) or {}
            accumulate(col, (((pi, key), coeff * c) for key, c in new.items()))
            accumulate(col, (((pi, key), -coeff * c) for key, c in base.items()))
        cols.append(col)
    return cols, rhs


def compare_models(model1: OneMinimalModel, model2: OneMinimalModel,
                   arity_cap=3) -> Comparison:
    """Comparison morphism k: W2 -> W1 via projection of the second
    model's images.

    The linear part is p1 o g2_1.  The unknowns are the components
    k_2 .. k_{cap-1}: degree-1 values on all-degree-1 words and degree-2
    values on words with one degree-2 entry; the relations are the
    morphism relations on all-degree-1 probe words of arity 3..cap.  The
    column of an unknown is the change of every probe's defect when that
    one table entry gets a unit, built from the defect terms that read
    the entry (``_linear_system``).  The system is solved for one
    solution; with none, the extension is obstructed.
    """
    W1, W2 = model1.algebra, model2.algebra
    p1 = model1.transfer.contraction.project
    k1 = {(key,): dict(p1(model2.morphism.apply(1, [{key: Fraction(1)}])))
          for key in W2.space.keys()}
    k_tables = {1: k1}
    one2 = W2.space.keys(1)
    two2 = W2.space.keys(2)

    # the arity-2 relation must hold for the linear part alone
    cur = InfinityMorphism(W2, W1, tables=k_tables)
    for wrd in itertools.product(one2, repeat=2):
        if morphism_defect(cur, [{k: ONE} for k in wrd]):
            raise ModelError("linear comparison is not multiplicative on "
                             "classes: %r" % (wrd,))

    unknowns = []
    for j in range(2, arity_cap):
        for wrd in itertools.product(one2, repeat=j):
            for vk in W1.space.keys(1):
                unknowns.append((j, tuple(wrd), vk))
        for pos in range(j):
            for combo in itertools.product(one2, repeat=j - 1):
                for t in two2:
                    wrd = combo[:pos] + (t,) + combo[pos:]
                    for vk in W1.space.keys(2):
                        unknowns.append((j, tuple(wrd), vk))
    unknowns = sorted(set(unknowns))
    probes = []
    for n in range(3, arity_cap + 1):
        probes.extend(itertools.product(one2, repeat=n))

    if unknowns:
        cols, rhs = _linear_system(W2, W1, k_tables, unknowns, probes)
        sol = solve(cols, rhs)
        if sol is None:
            raise ModelError("comparison extension is obstructed")
        for (j, wrd, vk), x in zip(unknowns, sol):
            if x:
                k_tables.setdefault(j, {}).setdefault(wrd, {})[vk] = x

    # dual matrix on degree-1 generators
    dual = {}
    for key1 in W1.space.keys(1):
        col = {}
        for key2 in one2:
            val = k_tables[1].get((key2,), {})
            c = val.get(key1)
            if c:
                col[key2[1]] = c
        dual[key1[1]] = col
    return Comparison(model1, model2, k_tables, dual)


def check_comparison(comp: Comparison, fib1: FiberLieAlgebra, fib2: FiberLieAlgebra):
    """Filtered-isomorphism checks for the induced dual map.

    ``fib1`` and ``fib2`` are the ``model_fiber_data`` quotients of the
    two models given to ``compare_models``, built at the same truncation
    and quotient order; the dual map keeps word length, so it stays within
    ``fib2.free``.  Verifies that the dual algebra map sends the first
    model's ideal generators into the second model's ideal span (per word
    length), and that the induced maps on nilpotent quotients are
    bijective.
    """
    failures = []
    for g in fib1.ideal.generators:
        img = comp.dual_series(g)
        if not fib2.ideal.contains(img):
            failures.append(("generator image escapes the ideal", g))
    if fib1.dim() != fib2.dim():
        failures.append(("quotient dimensions differ", fib1.dim(), fib2.dim()))
    # rank of the induced map on the quotient
    rank_ech = Echelon(lambda key: (len(key), key))
    for w in fib1.basis:
        img = comp.dual_series(fib1.free.from_lyndon({w: 1}))
        rank_ech.insert(fib2.normal_form(img))
    if rank_ech.rank != fib1.dim():
        failures.append(("induced quotient map is not injective", rank_ech.rank))
    return failures


def formality_check(model: OneMinimalModel, ideal):
    """Homogeneity verdict for the ideal generators.

    ``ideal`` is the delta-star ideal of ``model``, as built by
    ``model_fiber_data``.  Returns (verdict, metadata): "homogeneous
    generators" when every dual-codifferential generator is concentrated
    in a single word length, else "inconclusive".  The metadata also
    records the weaker sufficient condition that the degree-2
    product-image subspaces of the different arities intersect trivially.
    """
    lengths = []
    homogeneous = True
    for g in ideal.generators:
        ls = {len(w) for w in g}
        lengths.append(sorted(ls))
        if len(ls) > 1:
            homogeneous = False
    # the sufficient condition: the degree-2 product-image subspaces of
    # the different arities intersect trivially
    alg = model.algebra
    spans = {}
    for n, table in _degree_one_products(alg).items():
        ech = Echelon(alg.space.key_order)
        for val in table.values():
            ech.insert(val)
        spans[n] = ech.basis()
    inter_rank = None
    if len(spans) >= 2:
        items = list(spans.values())
        cur = items[0]
        for nxt in items[1:]:
            cur = intersect_spans(cur, nxt, alg.space.key_order)
        inter_rank = len(cur)
    verdict = "homogeneous generators" if homogeneous else "inconclusive"
    metadata = {
        "generator_lengths": lengths,
        "sufficient_condition": "intersection over arities of the product-image subspaces is zero",
        "product_image_arities": sorted(spans),
        "intersection_rank": inter_rank,
    }
    return verdict, metadata
