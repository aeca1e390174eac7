import functools
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from totconn.convolution import Generators
from totconn.freelie import (EnvelopingQuotient, FiberLieAlgebra, FreeLie,
                             LieIdealPresentation, commutator)
from totconn.graded import GradedVectorSpace
from totconn.linalg import Echelon, accumulate, solve, vec_add
from totconn.minimal import (Comparison, ModelError, _linear_system,
                             check_comparison, compare_models, formality_check,
                             hodge_decomposition, massey_report,
                             model_fiber_data, model_mc, one_minimal_model,
                             positive_part)
from totconn.pipeline import PRESETS
from totconn.structures import (FiniteAlgebra, InfinityMorphism, defect_term_reads,
                                defect_term_value, defect_terms, morphism_defect,
                                shift_sign)
from totconn.transfer import TransferredAlgebra, contraction_from_hodge
from tests.test_structures import heisenberg_cdga, torus_cdga

CIRCLE_JSON = Path(__file__).parent / "golden" / "circle.json"


def circle_cdga():
    space = GradedVectorSpace({0: ["1"], 1: ["dx"]})
    unit = (0, "1")
    prod = {(unit, unit): {unit: Fraction(1)},
            (unit, (1, "dx")): {(1, "dx"): Fraction(1)},
            ((1, "dx"), unit): {(1, "dx"): Fraction(1)}}
    return FiniteAlgebra.from_dga(space, {}, prod, kind="Cinf", arity_cap=4,
                                  unit_key=unit)


def test_circle_model():
    model = one_minimal_model(circle_cdga(), arity_cap=4)
    keys = model.algebra.space.keys
    assert [k[1] for k in keys(1)] and len(keys(1)) == 1
    assert keys(2) == []
    assert massey_report(model) == {}
    fib = model_fiber_data(model, trunc=4, k=4)
    assert fib.dim() == 1
    assert fib.ideal.generators == []


def test_torus_model():
    model = one_minimal_model(torus_cdga(), arity_cap=4)
    assert len(model.algebra.space.keys(1)) == 2
    assert len(model.algebra.space.keys(2)) == 1
    rep = massey_report(model)
    assert set(rep) == {2}
    fib = model_fiber_data(model, trunc=4, k=4)
    assert fib.dim() == 2
    assert len(fib.ideal.generators) == 1
    assert {len(w) for w in fib.ideal.generators[0]} == {2}
    verdict, meta = formality_check(model, fib.ideal)
    assert verdict == "homogeneous generators"


@pytest.mark.parametrize("arity_cap", [0, 1])
def test_model_below_arity_two_is_refused(arity_cap):
    # at arity cap 1 the torus model used to drop its degree-2 key and
    # every m2 entry, and come back without an error
    with pytest.raises(ValueError, match="at least 2, got %d" % arity_cap):
        one_minimal_model(torus_cdga(), arity_cap=arity_cap)


def test_heisenberg_model():
    model = one_minimal_model(heisenberg_cdga(arity_cap=4), arity_cap=4)
    assert len(model.algebra.space.keys(1)) == 2
    assert len(model.algebra.space.keys(2)) == 2
    rep = massey_report(model)
    assert 2 not in rep  # the binary products vanish on degree one
    assert 3 in rep
    coeffs = {c for table in rep[3].values() for c in table.values()}
    assert coeffs <= {Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)}
    fib = model_fiber_data(model, trunc=4, k=4)
    assert fib.graded_dims() == {1: 2, 2: 1}
    assert fib.dim() == 3
    verdict, _ = formality_check(model, fib.ideal)
    assert verdict == "homogeneous generators"


def test_heisenberg_massey_constants_are_units():
    model = one_minimal_model(heisenberg_cdga(arity_cap=4), arity_cap=4)
    rep = massey_report(model)[3]
    # the triple products on (a,a,b)-type words carry unit coefficients
    seen = set()
    for wrd, val in rep.items():
        for _, c in val.items():
            seen.add(abs(c))
    assert Fraction(1) in seen


def test_model_mc_dictionary():
    model = one_minimal_model(torus_cdga(), arity_cap=4)
    alpha = model_mc(model, trunc=4)
    assert alpha.data  # nontrivial series


def test_model_connected_requirement():
    space = GradedVectorSpace({0: ["1", "e"], 1: []})
    alg = FiniteAlgebra(space, kind="Cinf", arity_cap=3, unit_key=(0, "1"))
    with pytest.raises(ModelError):
        one_minimal_model(alg, arity_cap=3)


def test_hodge_pivots_differ_on_heisenberg():
    B = heisenberg_cdga()
    w_lex, m_lex = hodge_decomposition(B, pivot="lex")
    w_shear, m_shear = hodge_decomposition(B, pivot="shear")
    assert (w_lex, m_lex) != (w_shear, m_shear)


def test_self_comparison_is_identity():
    model = one_minimal_model(torus_cdga(), arity_cap=3)
    comp = compare_models(model, model, arity_cap=3)
    for key in model.algebra.space.keys():
        assert comp.k_tables[1][(key,)] == {key: Fraction(1)}
    fiber = model_fiber_data(model, trunc=4, k=4)
    assert check_comparison(comp, fiber, fiber) == []


def test_comparison_of_permuted_torus_models():
    B = torus_cdga()
    m1 = one_minimal_model(B, arity_cap=3, pivot="lex")
    m2 = one_minimal_model(B, arity_cap=3, pivot="revlex")
    comp = compare_models(m1, m2, arity_cap=3)
    assert check_comparison(comp, model_fiber_data(m1, trunc=4, k=4),
                            model_fiber_data(m2, trunc=4, k=4)) == []
    # the linear part permutes the degree-1 generators
    mat = comp.dual_matrix
    assert all(len(col) == 1 for col in mat.values())


def test_comparison_with_rescaled_generator():
    # a rescaled copy of the one-generator model: the comparison is the
    # scaling on duals and the quotient dimensions are preserved
    from totconn.minimal import OneMinimalModel
    from totconn.structures import InfinityMorphism
    B = circle_cdga()
    m1 = one_minimal_model(B, arity_cap=3)
    key = m1.algebra.space.keys(1)[0]
    scaled = InfinityMorphism(
        m1.algebra, B,
        tables={1: {(k,): {bk: 2 * c for bk, c in
                           m1.morphism.apply(1, [{k: Fraction(1)}]).items()}
                    for k in m1.algebra.space.keys()}})
    m2 = OneMinimalModel(m1.algebra, scaled, B, m1.transfer)
    comp = compare_models(m1, m2, arity_cap=3)
    assert comp.dual_matrix[key[1]] == {key[1]: Fraction(2)}
    assert check_comparison(comp, model_fiber_data(m1, trunc=4, k=4),
                            model_fiber_data(m2, trunc=4, k=4)) == []


def test_comparison_of_heisenberg_pivots():
    B = heisenberg_cdga()
    m1 = one_minimal_model(B, arity_cap=4, pivot="lex")
    m2 = one_minimal_model(B, arity_cap=4, pivot="shear")
    comp = compare_models(m1, m2, arity_cap=4)
    fib1 = model_fiber_data(m1, trunc=4, k=4)
    fib2 = model_fiber_data(m2, trunc=4, k=4)
    assert check_comparison(comp, fib1, fib2) == []
    assert fib1.dim() == fib2.dim() == 3
    for kk in (2, 3, 4):
        fa = model_fiber_data(m1, trunc=4, k=kk)
        fb = model_fiber_data(m2, trunc=4, k=kk)
        assert fa.dim() == fb.dim()


def test_comparison_failures_are_reported():
    # torus self-comparison: its fiber's relation [a,b] escapes a fiber with
    # no relation, and a dual map zero on one generator is not injective
    m = one_minimal_model(torus_cdga(), arity_cap=3)
    comp = compare_models(m, m, arity_cap=3)
    fib = model_fiber_data(m, trunc=4, k=4)
    free_fib = FiberLieAlgebra(fib.free, LieIdealPresentation(fib.free, []), 2)
    assert fib.dim() == free_fib.dim() == 2
    assert check_comparison(comp, fib, free_fib) == [
        ("generator image escapes the ideal", fib.ideal.generators[0])]
    name = next(iter(comp.dual_matrix))
    dual = dict(comp.dual_matrix, **{name: {}})
    assert check_comparison(Comparison(m, m, comp.k_tables, dual), fib, fib) == [
        ("induced quotient map is not injective", 1)]
    # heisenberg pivots: the quotient below length 2 against the full one
    B = heisenberg_cdga()
    m1 = one_minimal_model(B, arity_cap=4, pivot="lex")
    m2 = one_minimal_model(B, arity_cap=4, pivot="shear")
    comp = compare_models(m1, m2, arity_cap=4)
    assert check_comparison(comp, model_fiber_data(m1, trunc=4, k=2),
                            model_fiber_data(m2, trunc=4, k=4)) == [
        ("quotient dimensions differ", 2, 3)]


def test_fiber_data_is_built_once_per_model(monkeypatch):
    import totconn.minimal
    from totconn.pipeline import compare_pipeline_models, run_pipeline
    calls = []
    real = totconn.minimal.delta_star

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(totconn.minimal, "delta_star", counting)
    run_pipeline("torus", trunc=4)
    assert len(calls) == 1
    calls.clear()
    compare_pipeline_models("heisenberg", trunc=3, k=3, pivots=("lex", "shear"))
    assert len(calls) == 2

    built = {FiberLieAlgebra: 0, EnvelopingQuotient: 0}

    def counted(cls):
        init = cls.__init__

        def counting_init(self, *args, **kwargs):
            built[cls] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting_init)

    counted(FiberLieAlgebra)
    counted(EnvelopingQuotient)
    run_pipeline("torus", trunc=6)
    assert built == {FiberLieAlgebra: 1, EnvelopingQuotient: 1}
    built.update({FiberLieAlgebra: 0, EnvelopingQuotient: 0})
    compare_pipeline_models("torus", trunc=4, k=4)
    assert built == {FiberLieAlgebra: 2, EnvelopingQuotient: 2}


def test_run_pipeline_refuses_k_above_trunc():
    # the enveloping quotient is built at order k over a free Lie algebra
    # truncated at trunc; above it, the ideal would miss the longer tails
    from totconn.pipeline import run_pipeline
    with pytest.raises(ValueError, match="exceeds trunc"):
        run_pipeline("torus", trunc=4, k=5)
    r = run_pipeline("torus", trunc=4, k=4)
    assert r.env.order == r.fib.free.order == 4


@pytest.mark.parametrize("k", [0, 1, -3])
def test_run_pipeline_refuses_k_below_two(k):
    # k = 0 is an order like any other, not a request for the default
    from totconn.pipeline import run_pipeline
    with pytest.raises(ValueError, match="k must be >= 2"):
        run_pipeline("torus", trunc=4, k=k)


def test_run_pipeline_defaults_k_to_trunc():
    from totconn.pipeline import run_pipeline
    r = run_pipeline("torus", trunc=4, k=None)
    assert r.fib.k == r.env.order == 4


def per_k_dims(fib):
    """dim u/I^kk for kk = 2..k, one quotient built per kk: the oracle of
    ``FiberLieAlgebra.dims_per_k``."""
    return {kk: FiberLieAlgebra(fib.free, fib.ideal, kk).dim()
            for kk in range(2, fib.k + 1)}


@pytest.mark.parametrize("pivot", ["lex", "revlex", "shear"])
@pytest.mark.parametrize("preset", ["circle", "torus", "heisenberg"])
def test_dims_per_k_counts_pivots_as_the_per_k_quotients_do(preset, pivot):
    from totconn.pipeline import PRESETS
    model = one_minimal_model(PRESETS[preset]["window"](4), arity_cap=4, pivot=pivot)
    for trunc in range(3, 8):
        fib = model_fiber_data(model, trunc=trunc, k=trunc)
        assert fib.dims_per_k() == per_k_dims(fib)


@pytest.mark.parametrize("pivot", ["lex", "revlex", "shear"])
@pytest.mark.parametrize("preset", ["circle", "torus", "heisenberg"])
def test_degree_zero_series_generators_are_the_free_generators(preset, pivot):
    # the one numbering from model to fiber: Generators lists the degree-1
    # keys first, in key order, and delta_star names the free generators
    # after them, so the map from series generators to free generators by
    # name is the identity
    from totconn.pipeline import PRESETS
    model = one_minimal_model(PRESETS[preset]["window"](4), arity_cap=4, pivot=pivot)
    gens = Generators(positive_part(model.algebra).space)
    free = model_fiber_data(model, trunc=3, k=3).free
    zero = gens.degree_zero_indices()
    assert [gens.keys[i] for i in zero] == model.algebra.space.keys(1)
    by_name = {i: free.gen_names.index(key[1])
               for i, key in enumerate(gens.keys) if key[0] == 1}
    assert by_name == {i: i for i in range(len(free.gen_names))}
    assert zero == list(by_name)


def test_dims_per_k_of_a_non_homogeneous_ideal():
    # [a1,a2] + [a3,[a1,a3]] has a tail, so u/I^3 is not cut from the
    # basis of a larger quotient: the 4-quotient has 6 basis words
    # shorter than 3, but u/I^3 has dimension 5
    free = FreeLie(["a1", "a2", "a3"], 4)
    a1, a2, a3 = (free.gen(i) for i in range(3))
    g = vec_add(commutator(a1, a2, 4), commutator(a3, commutator(a1, a3, 4), 4))
    fib = FiberLieAlgebra(free, LieIdealPresentation(free, [g]), 5)
    assert fib.dims_per_k() == per_k_dims(fib) == {2: 3, 3: 5, 4: 10, 5: 20}
    short = [w for w in FiberLieAlgebra(free, fib.ideal, 4).basis if len(w) < 3]
    assert len(short) == 6


def test_synthetic_inconclusive_formality():
    # m2 and m3 both hitting the same degree-2 line force a mixed-length
    # generator
    space = GradedVectorSpace({1: ["a", "b"], 2: ["z"]})
    W = FiniteAlgebra(space, kind="1Cinf", arity_cap=3)
    a, b, z = (1, "a"), (1, "b"), (2, "z")
    W.set_value(2, (a, b), {z: Fraction(1)})
    W.set_value(2, (b, a), {z: Fraction(-1)})
    W.set_value(3, (a, a, b), {z: Fraction(1)})
    W.set_value(3, (a, b, a), {z: Fraction(-2)})
    W.set_value(3, (b, a, a), {z: Fraction(1)})

    class Dummy:
        algebra = W
        arity_cap = 3

    model = Dummy()
    fib = model_fiber_data(model, trunc=4, k=4)
    verdict, meta = formality_check(model, fib.ideal)
    assert verdict == "inconclusive"
    assert meta["generator_lengths"] == [[2, 3]]


# ---------------------------------------------------------------------
# compare_models against the all-probes loop it replaced
# ---------------------------------------------------------------------

COMPARE_INPUTS = {"circle": circle_cdga, "torus": torus_cdga,
                  "heisenberg": heisenberg_cdga}


@functools.lru_cache(maxsize=None)
def _model(name, pivot):
    return one_minimal_model(COMPARE_INPUTS[name](), arity_cap=4, pivot=pivot)


def ref_unknowns_and_probes(W1, W2, arity_cap):
    one2, two2 = W2.space.keys(1), W2.space.keys(2)
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
    probes = []
    for n in range(3, arity_cap + 1):
        probes.extend(itertools.product(one2, repeat=n))
    return sorted(set(unknowns)), probes


def ref_linear_part(model1, model2):
    p1 = model1.transfer.contraction.project
    return {1: {(key,): dict(p1(model2.morphism.apply(1, [{key: Fraction(1)}])))
                for key in model2.algebra.space.keys()}}


def ref_linear_system(model1, model2, arity_cap):
    """The comparison's linear system as an all-probes loop: every
    unknown's column re-evaluates the defect of every probe.  Returns
    (unknowns, probes, columns, right-hand side)."""
    W1, W2 = model1.algebra, model2.algebra
    k_tables = ref_linear_part(model1, model2)
    unknowns, probes = ref_unknowns_and_probes(W1, W2, arity_cap)

    def total_defect(tables):
        mor = InfinityMorphism(W2, W1, tables=tables)
        out = {}
        for wi, wrd in enumerate(probes):
            d = morphism_defect(mor, [{k: Fraction(1)} for k in wrd])
            for key, c in d.items():
                out[(wi, key)] = c
        return out

    def copy_tables(tbs):
        return {kk: {w: dict(v) for w, v in tb.items()} for kk, tb in tbs.items()}

    base = total_defect(copy_tables(k_tables))
    cols = []
    for (j, wrd, vk) in unknowns:
        probe_tables = copy_tables(k_tables)
        accumulate(probe_tables.setdefault(j, {}).setdefault(wrd, {}),
                   [(vk, Fraction(1))])
        cols.append(vec_add(total_defect(probe_tables), base, Fraction(-1)))
    return unknowns, probes, cols, {k: -v for k, v in base.items() if v}


def ref_compare_models(model1, model2, system):
    """``compare_models`` solving the system of ``ref_linear_system``.
    Returns (k_tables, dual)."""
    W1, W2 = model1.algebra, model2.algebra
    k_tables = ref_linear_part(model1, model2)
    unknowns, _, cols, rhs = system
    if unknowns:
        sol = solve(cols, rhs)
        assert sol is not None
        for (j, wrd, vk), x in zip(unknowns, sol):
            if x:
                k_tables.setdefault(j, {}).setdefault(wrd, {})[vk] = x
    dual = {}
    for key1 in W1.space.keys(1):
        col = {}
        for key2 in W2.space.keys(1):
            c = k_tables[1].get((key2,), {}).get(key1)
            if c:
                col[key2[1]] = c
        dual[key1[1]] = col
    return k_tables, dual


COMPARE_CASES = [("circle", "lex", "revlex"), ("torus", "lex", "revlex"),
                 ("torus", "lex", "shear"), ("heisenberg", "lex", "shear"),
                 ("heisenberg", "revlex", "shear")]


@pytest.mark.parametrize("arity_cap", [3, 4])
@pytest.mark.parametrize("name,pivot1,pivot2", COMPARE_CASES)
def test_compare_models_matches_the_all_probes_loop(name, pivot1, pivot2, arity_cap):
    m1, m2 = _model(name, pivot1), _model(name, pivot2)
    comp = compare_models(m1, m2, arity_cap=arity_cap)
    system = ref_linear_system(m1, m2, arity_cap)
    k_tables, dual = ref_compare_models(m1, m2, system)
    assert repr(comp.k_tables) == repr(k_tables)
    assert comp.dual_matrix == dual
    # the system itself, not only its solution: a column that misses a
    # probe it should re-evaluate differs here even where the solution
    # does not change
    unknowns, probes, cols, rhs = system
    assert _linear_system(m2.algebra, m1.algebra, ref_linear_part(m1, m2),
                          unknowns, probes) == (cols, rhs)


def ref_dual_series(comp, series, free1, free2, trunc):
    """The dual map on generator names, with the length cut at ``trunc``:
    the oracle of ``Comparison.dual_series``."""
    def on_word(w):
        out = {(): Fraction(1)}
        for i in w:
            col = comp.dual_matrix.get(free1.gen_names[i], {})
            out = accumulate({}, ((ww + (free2.gen_names.index(name2),), c * c2)
                                  for ww, c in out.items() for name2, c2 in col.items()))
        return out

    out = {}
    for w, c in series.items():
        if len(w) <= trunc:
            accumulate(out, ((w2, c * c2) for w2, c2 in on_word(w).items()))
    return out


@pytest.mark.parametrize("name,pivot1,pivot2", COMPARE_CASES)
def test_dual_series_matches_the_name_based_map(name, pivot1, pivot2):
    m1, m2 = _model(name, pivot1), _model(name, pivot2)
    comp = compare_models(m1, m2, arity_cap=4)
    fib1, fib2 = (model_fiber_data(m, trunc=4, k=4) for m in (m1, m2))
    free1, free2 = fib1.free, fib2.free
    letters = range(len(free1.gen_names))
    every_word = {w: Fraction(3 * len(w) - 1, 2 + sum(w))
                  for n in range(1, free1.order + 1)
                  for w in itertools.product(letters, repeat=n)}
    series = ([every_word] + list(fib1.ideal.generators)
              + [free1.from_lyndon({w: 1}) for w in free1.lyndon])
    for x in series:
        got = comp.dual_series(x)
        want = ref_dual_series(comp, x, free1, free2, free1.order)
        assert list(got.items()) == list(want.items())


def test_term_reads_hold_words_the_tables_do_not_hold():
    space = GradedVectorSpace({1: ["a", "b"], 2: ["c"]})
    a, b, c = (1, "a"), (1, "b"), (2, "c")
    alg = FiniteAlgebra(space, maps={2: {(a, b): {c: Fraction(1)}}})
    ident = InfinityMorphism(alg, alg, tables={1: {(k,): {k: Fraction(1)}
                                                   for k in (a, b, c)}})
    probe = [{a: Fraction(1), b: Fraction(2)}, {b: Fraction(1)}]
    terms = list(defect_terms(alg, probe))
    # F_1(delta_2), then the compositions delta_1(F_2) and delta_2(F_1, F_1);
    # the morphism has no arity-2 table, and (b, b) is in no table at all
    assert [defect_term_reads(t) for t in terms] == [
        {(1, (c,))}, {(2, (a, b)), (2, (b, b))},
        {(1, (a,)), (1, (b,))}]
    blocks = {}
    values = [defect_term_value(ident, t, blocks) for t in terms]
    assert values == [{c: Fraction(1)}, None, {c: Fraction(1)}]
    assert [coeff for coeff, _, _ in terms] == [1, -1, -1]
    assert morphism_defect(ident, probe) == {}


class _LoggedTable(dict):
    """A morphism table that adds to ``log`` every (arity, word) looked up."""

    def __init__(self, k, table, log):
        super().__init__(table)
        self.k, self.log = k, log

    def __contains__(self, wrd):
        self.log.add((self.k, wrd))
        return super().__contains__(wrd)


@pytest.mark.parametrize("name,pivot1,pivot2", COMPARE_CASES[::2])
def test_term_read_sets_do_not_depend_on_the_tables(name, pivot1, pivot2):
    # the premise of re-evaluating only the terms that read a column's
    # entry: a term's read set comes from the probe and the source alone,
    # it holds every entry the term looks up on the base tables and on
    # each table that puts a unit on one unknown, and a term that does
    # not read the unknown's entry keeps its base value
    m1, m2 = _model(name, pivot1), _model(name, pivot2)
    W1, W2 = m1.algebra, m2.algebra
    base_tables = ref_linear_part(m1, m2)
    unknowns, probes = ref_unknowns_and_probes(W1, W2, 4)
    terms = [list(defect_terms(W2, [{k: Fraction(1)} for k in wrd])) for wrd in probes]
    reads = [[defect_term_reads(t) for t in ts] for ts in terms]

    def evaluate(tables):
        """Per term, its value and the entries it looks up."""
        mor = InfinityMorphism(W2, W1, tables=tables)
        out = []
        for ts in terms:
            for term in ts:
                log = set()
                mor.tables = {k: _LoggedTable(k, t, log) for k, t in tables.items()}
                out.append((defect_term_value(mor, term, {}), log))
        return out

    base = evaluate(base_tables)
    flat_reads = [r for rs in reads for r in rs]
    assert all(flat_reads)
    assert any(entry[0] not in base_tables for r in flat_reads for entry in r)
    for j, wrd, vk in unknowns:
        got = evaluate({1: base_tables[1], j: {wrd: {vk: Fraction(1)}}})
        for r, (value, log), (base_value, base_log) in zip(flat_reads, got, base):
            assert log <= r and base_log <= r, (j, wrd, vk)
            if (j, wrd) not in r:
                assert value == base_value, (j, wrd, vk)
    assert [[defect_term_reads(t) for t in ts] for ts in terms] == reads


@pytest.mark.parametrize("name,pivot1,pivot2", COMPARE_CASES[3:])
def test_linear_system_on_tables_that_hold_the_unknowns(name, pivot1, pivot2):
    # base tables with values at the unknowns' own entries (the solved
    # comparison, its higher components doubled): a column still equals
    # defect(base + e) - defect(base) over every probe
    m1, m2 = _model(name, pivot1), _model(name, pivot2)
    W1, W2 = m1.algebra, m2.algebra
    k_tables = {j: {wrd: {key: c if j == 1 else 2 * c for key, c in val.items()}
                    for wrd, val in table.items()}
                for j, table in compare_models(m1, m2, arity_cap=4).k_tables.items()}
    assert any(j > 1 for j in k_tables)
    unknowns, probes = ref_unknowns_and_probes(W1, W2, 4)

    def total_defect(tables):
        mor = InfinityMorphism(W2, W1, tables=tables)
        return {(pi, key): c for pi, wrd in enumerate(probes)
                for key, c in morphism_defect(mor, [{k: Fraction(1)} for k in wrd]).items()}

    base = total_defect(k_tables)
    want = []
    for j, wrd, vk in unknowns:
        table = dict(k_tables.get(j, {}))
        table[wrd] = vec_add(table.get(wrd, {}), {vk: Fraction(1)})
        want.append(vec_add(total_defect({**k_tables, j: table}), base, Fraction(-1)))
    cols, rhs = _linear_system(W2, W1, k_tables, unknowns, probes)
    assert cols == want
    assert rhs == {k: -c for k, c in base.items()} and rhs


def test_linear_system_calls_no_morphism_defect(monkeypatch):
    import totconn.minimal
    import totconn.structures
    calls = []
    real = totconn.structures.morphism_defect

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(totconn.structures, "morphism_defect", counting)
    monkeypatch.setattr(totconn.minimal, "morphism_defect", counting)
    m1, m2 = _model("heisenberg", "lex"), _model("heisenberg", "shear")
    unknowns, probes = ref_unknowns_and_probes(m1.algebra, m2.algebra, 4)
    cols, _ = _linear_system(m2.algebra, m1.algebra, ref_linear_part(m1, m2),
                             unknowns, probes)
    assert len(cols) == len(unknowns) and any(cols)
    assert calls == []


# ---------------------------------------------------------------------
# the model's on-demand fill against the eager fill it replaced
# ---------------------------------------------------------------------

def ref_one_minimal_model(B, arity_cap, pivot):
    """The model algebra from m_k evaluated on every word of W up to the
    arity cap, each from its own tree sum, keeping the words of the
    model's keys in the order of that fill."""
    w_vectors, m_vectors = hodge_decomposition(B, pivot=pivot)
    names, counter = [], {}
    for v in w_vectors:
        d = next(iter(v))[0]
        counter[d] = counter.get(d, 0) + 1
        names.append("h%d_%d" % (d, counter[d]))
    con = contraction_from_hodge(B, w_vectors, m_vectors, names=names)
    full = TransferredAlgebra(con, arity_cap, kind="1Cinf")
    tables = {k: dict(table) for k, table in full.maps.items()}
    for k in range(2, arity_cap + 1):
        for wrd in itertools.product(full.space.keys(), repeat=k):
            val = con.project(full.lam(wrd))
            if val:
                sign = shift_sign([key[0] for key in wrd])
                tables.setdefault(k, {})[wrd] = {key: sign * c for key, c in val.items()}
    gen2 = Echelon(full.space.key_order)
    for table in tables.values():
        for wrd, val in table.items():
            if len(wrd) > 1 and all(key[0] == 1 for key in wrd):
                gen2.insert(val)
    kept2 = [k for k in full.space.keys(2) if gen2.contains({k: Fraction(1)})]
    assert gen2.rank == len(kept2)
    degrees = {1: [name for _, name in full.space.keys(1)],
               2: [name for _, name in kept2], 0: [full.unit_key[1]]}
    space = GradedVectorSpace(degrees)
    model = FiniteAlgebra(space, kind="1Cinf", arity_cap=arity_cap,
                          unit_key=full.unit_key)
    keep = set(space.keys())
    for k, table in tables.items():
        for wrd, val in table.items():
            if all(kk in keep for kk in wrd):
                bad = {kk for kk in val if kk not in keep and kk[0] == 2}
                assert not (bad and all(kk[0] == 1 for kk in wrd))
                vv = {kk: c for kk, c in val.items() if kk in keep}
                if vv:
                    model.set_value(k, wrd, vv)
    return model


MODEL_CASES = [(name, pivot, arity_cap) for name in ("circle", "torus", "heisenberg")
               for pivot in ("lex", "revlex", "shear") for arity_cap in (3, 4, 5)]


def assert_same_model(got, want):
    # the same tables, each filled in the same order
    assert got.to_json() == want.to_json()
    assert list(got.maps) == list(want.maps)
    for k in want.maps:
        assert list(got.maps[k]) == list(want.maps[k])


@pytest.mark.parametrize("name,pivot,arity_cap", MODEL_CASES)
def test_model_reads_only_its_words_and_matches_the_eager_fill(name, pivot, arity_cap):
    B = PRESETS[name]["window"](arity_cap)
    model = one_minimal_model(B, arity_cap=arity_cap, pivot=pivot)
    assert_same_model(model.algebra, ref_one_minimal_model(B, arity_cap, pivot))
    # no word with a key outside the model was filled
    keep = set(model.algebra.space.keys())
    assert all(key in keep for _, wrd in model.transfer.algebra._done for key in wrd)


@pytest.mark.parametrize("pivot", ["lex", "revlex", "shear"])
def test_model_of_the_circle_input_matches_the_eager_fill(pivot):
    B = FiniteAlgebra.from_json(json.loads(CIRCLE_JSON.read_text()))
    model = one_minimal_model(B, arity_cap=4, pivot=pivot)
    assert_same_model(model.algebra, ref_one_minimal_model(B, 4, pivot))
