import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totconn.cli import main
from totconn.convolution import (ConvolutionAlgebra, Generators, TensorSeries,
                                 check_filtration_additive, check_reduced,
                                 conv_M, conv_l, conv_partial, degree_zero_restrict,
                                 delta_star, mc_check,
                                 mc_defect, mc_to_morphism, morphism_to_mc,
                                 pullback_along, pushforward_along,
                                 reduce_mod_ideal, series_eq_mod_ideal)
from totconn.freelie import (EnvelopingQuotient, FiberLieAlgebra, FreeLie,
                             LieIdealPresentation, commutator)
from totconn.graded import GradedVectorSpace
from totconn.minimal import one_minimal_model, positive_part
from totconn.pipeline import PRESETS, run_pipeline
from totconn.structures import (FiniteAlgebra, InfinityMorphism, check_linfty,
                                check_morphism, delta_apply, f_shifted,
                                interval_tensor)
from tests.test_structures import all_words, torus_cdga


def torus_model():
    """The minimal two-generator structure with one antisymmetric product."""
    space = GradedVectorSpace({1: ["w1", "w2"], 2: ["w12"]})
    alg = FiniteAlgebra(space, kind="1Cinf", arity_cap=4)
    w1, w2, w12 = (1, "w1"), (1, "w2"), (2, "w12")
    alg.set_value(2, (w1, w2), {w12: Fraction(1)})
    alg.set_value(2, (w2, w1), {w12: Fraction(-1)})
    return alg


def torus_inclusion():
    """The strict morphism of the minimal model into the exterior algebra."""
    W = torus_model()
    B = torus_cdga()
    tables = {1: {((1, "w1"),): {(1, "dx"): Fraction(1)},
                  ((1, "w2"),): {(1, "dy"): Fraction(1)},
                  ((2, "w12"),): {(2, "dxdy"): Fraction(1)}}}
    return W, B, InfinityMorphism(W, B, tables=tables)


def heisenberg_model():
    """Minimal structure with vanishing m2 and primitive-dual m3 tables."""
    space = GradedVectorSpace({1: ["a", "b"], 2: ["p", "q"]})
    alg = FiniteAlgebra(space, kind="1Cinf", arity_cap=4)
    a, b = (1, "a"), (1, "b")
    p, q = (2, "p"), (2, "q")
    alg.set_value(3, (a, a, b), {p: Fraction(1)})
    alg.set_value(3, (a, b, a), {p: Fraction(-2)})
    alg.set_value(3, (b, a, a), {p: Fraction(1)})
    alg.set_value(3, (b, b, a), {q: Fraction(1)})
    alg.set_value(3, (b, a, b), {q: Fraction(-2)})
    alg.set_value(3, (a, b, b), {q: Fraction(1)})
    return alg


def test_morphism_to_mc_and_back():
    W, B, incl = torus_inclusion()
    gens = Generators(W.space)
    alpha = morphism_to_mc(incl, gens, trunc=4)
    assert mc_check(alpha, W) == []
    back = mc_to_morphism(alpha, W)
    probes = all_words(W, 3)
    assert check_morphism(back, probes) == []
    for k, table in back.tables.items():
        for wrd, val in table.items():
            want = incl.apply(k, [{kk: Fraction(1)} for kk in wrd])
            assert val == want or (not val and B.is_zero(want))


def test_mc_iff_morphism_jointly():
    # corrupting the morphism breaks both checks; the true one passes both
    W, B, incl = torus_inclusion()
    gens = Generators(W.space)
    alpha = morphism_to_mc(incl, gens, trunc=4)
    i12 = gens.index_of((2, "w12"))
    bad = alpha.add(TensorSeries(gens, B, 4, 1,
                                 {(i12,): {(2, "dxdy"): Fraction(1)}}))
    report = mc_check(bad, W)
    assert report
    assert all(len(w) == 2 for w, _ in report)
    bad_mor = mc_to_morphism(bad, W)
    assert check_morphism(bad_mor, all_words(W, 3))


def test_zero_series_is_mc_for_zero_differential():
    W = torus_model()
    gens = Generators(W.space)
    B = torus_cdga()
    zero = TensorSeries(gens, B, 4, 1)
    assert mc_check(zero, W) == []


def test_reduced_membership():
    W, B, incl = torus_inclusion()
    gens = Generators(W.space)
    alpha = morphism_to_mc(incl, gens, trunc=3)
    assert check_reduced(alpha) == []
    # a symmetric two-letter value breaks shuffle-orthogonality
    sym = TensorSeries(gens, B, 3, 1, {(0, 1): {(2, "dxdy"): Fraction(1)},
                                       (1, 0): {(2, "dxdy"): Fraction(1)}})
    assert check_reduced(sym)


def test_l_equals_factorial_M_on_odd_series():
    W, B, incl = torus_inclusion()
    gens = Generators(W.space)
    alpha = morphism_to_mc(incl, gens, trunc=4)
    for k in (2, 3):
        lhs = conv_l(k, [alpha] * k, W)
        rhs = conv_M(k, [alpha] * k)
        fact = 1
        for j in range(2, k + 1):
            fact *= j
        assert lhs.eq(rhs.scale(fact))


def test_convolution_linfty_relations_on_samples():
    W, B, _ = torus_inclusion()
    gens = Generators(W.space)
    conv = ConvolutionAlgebra(gens, B, W, trunc=4)
    rng = random.Random(3)
    samples = []
    bkeys = B.space.keys()
    for deg in (0, 1, 1, 2):
        data = {}
        for w in gens.words(3):
            tgt_deg = deg + gens.word_degree(w)
            options = [k for k in bkeys if k[0] == tgt_deg]
            if options and rng.random() < 0.6:
                data[tuple(w)] = {rng.choice(options): Fraction(rng.randint(-2, 2))}
        s = conv.series(deg, data)
        if not s.is_zero():
            samples.append(s)
    probes = []
    for n in (2, 3):
        probes.extend(itertools.combinations(samples, n))
    assert check_linfty(conv, [list(p) for p in probes]) == []


def test_shuffle_kernel_closed_under_products():
    # if all factors kill non-trivial shuffles, so do their convolutions
    W, B, incl = torus_inclusion()
    gens = Generators(W.space)
    alpha = morphism_to_mc(incl, gens, trunc=3)
    assert check_reduced(alpha) == []
    for k in (2, 3):
        out = conv_M(k, [alpha] * k)
        assert check_reduced(out) == []
    out = conv_l(2, [alpha, alpha], W)
    assert check_reduced(out) == []


def test_convolution_skew_relations_against_total_complex():
    # sampled series valued in the genuine total complex of the plane
    # translation action satisfy the skew relations
    import random as _random
    from totconn.forms import PolyForm
    from totconn.totalcomplex import (GroupCochain, GroupCochainBackend,
                                      TotalComplexAlgebra, TotElement)
    rng = _random.Random(31)
    W = torus_model()
    gens = Generators(W.space)
    be = GroupCochainBackend(2)
    tot = TotalComplexAlgebra(be, level_cap=3, arity_cap=4)
    conv = ConvolutionAlgebra(gens, tot, W, trunc=3)
    dx = TotElement(be, {(0, 1): GroupCochain.from_form(
        2, PolyForm.dvar(2, 0, varname="z", ndiff=2))})
    dy = TotElement(be, {(0, 1): GroupCochain.from_form(
        2, PolyForm.dvar(2, 1, varname="z", ndiff=2))})
    vol = tot.m(2, [dx, dy])
    g1 = TotElement(be, {(1, 0): GroupCochain(2, 1, PolyForm.var(
        4, 2, varname="z", ndiff=2))})
    x0 = TotElement(be, {(0, 0): GroupCochain.from_form(
        2, PolyForm.var(2, 0, varname="z", ndiff=2))})
    pool = {0: [x0], 1: [dx, dy, g1], 2: [vol]}
    samples = []
    for deg in (1, 1, 0, 2):
        data = {}
        for w in gens.words(2):
            tgt = deg + gens.word_degree(w)
            options = pool.get(tgt)
            if options and rng.random() < 0.7:
                data[tuple(w)] = rng.choice(options)
        s = conv.series(deg, data)
        if not s.is_zero():
            samples.append(s)
    probes = []
    for n in (2, 3):
        probes.extend(itertools.combinations_with_replacement(samples, n))
    assert check_linfty(conv, [list(p) for p in probes[:12]]) == []


def test_filtration_additivity():
    W, B, incl = torus_inclusion()
    gens = Generators(W.space)
    alpha = morphism_to_mc(incl, gens, trunc=4)
    beta = TensorSeries(gens, B, 4, 1, {(0, 1): {(2, "dxdy"): Fraction(1)}})
    assert check_filtration_additive([alpha, beta, alpha], W) == []


def test_delta_star_torus():
    W = torus_model()
    free, ideal, gens_out = delta_star(W, trunc=4)
    got = gens_out[(2, "w12")]
    want = commutator(free.gen(0), free.gen(1), 4)
    assert got == want or got == {k: -v for k, v in want.items()}
    fib = FiberLieAlgebra(free, ideal, 4)
    assert fib.dim() == 2
    assert fib.bracket({(0,): Fraction(1)}, {(1,): Fraction(1)}) == {}


def test_delta_star_zero_products():
    space = GradedVectorSpace({1: ["w"], 2: []})
    W = FiniteAlgebra(space, kind="1Cinf", arity_cap=4)
    free, ideal, _ = delta_star(W, trunc=4)
    fib = FiberLieAlgebra(free, ideal, 4)
    assert fib.dim() == 1  # free Lie on one generator
    assert ideal.generators == []


def test_delta_star_heisenberg():
    W = heisenberg_model()
    free, ideal, gens_out = delta_star(W, trunc=4)
    assert len(ideal.generators) == 2
    for g in ideal.generators:
        assert {len(w) for w in g} == {3}
    fib = FiberLieAlgebra(free, ideal, 4)
    assert fib.graded_dims() == {1: 2, 2: 1}
    assert fib.dim() == 3


def test_delta_star_rejects_nonminimal():
    space = GradedVectorSpace({1: ["w"], 2: ["v"]})
    W = FiniteAlgebra(space, kind="1Cinf", arity_cap=3)
    W.set_value(1, ((1, "w"),), {(2, "v"): Fraction(1)})
    with pytest.raises(ValueError):
        delta_star(W, trunc=3)


def test_delta_star_rejects_a_non_lie_image(tmp_path, capsys):
    # m2(a, b) = c with m2(b, a) = 0 dualises to the word ab alone, which
    # is no Lie element
    space = GradedVectorSpace({1: ["a", "b"], 2: ["c"]})
    W = FiniteAlgebra(space, kind="1Cinf", arity_cap=3)
    W.set_value(2, ((1, "a"), (1, "b")), {(2, "c"): Fraction(1)})
    with pytest.raises(ValueError, match=r"generator 0 is not a Lie element: 1\*ab$"):
        delta_star(W, trunc=3)
    f = tmp_path / "model.json"
    f.write_text(json.dumps(W.to_json()))
    assert main(["conv", "fiber-lie", "--input", str(f), "--trunc", "3"]) == 2
    assert "not a Lie element" in capsys.readouterr().err


def test_degree_zero_reduction_of_mc():
    # the degree-zero restriction of an MC element is MC modulo the ideal
    W, B, incl = torus_inclusion()
    gens = Generators(W.space)
    alpha = morphism_to_mc(incl, gens, trunc=4)
    pi_alpha = degree_zero_restrict(alpha)
    free, ideal, _ = delta_star(W, trunc=4)
    env = EnvelopingQuotient(free, ideal, 4)
    defect = mc_defect(pi_alpha, W)
    zero = TensorSeries(gens, B, 4, 2)
    # restrict the defect to degree-zero words before reducing
    defect0 = degree_zero_restrict(defect)
    assert series_eq_mod_ideal(defect0, zero, env)
    assert not defect0.is_zero()  # nonzero before the quotient


def test_reduce_mod_ideal_reads_only_the_quotient_letters():
    # degree-zero series generator i is free generator i; a word with a
    # degree-2 letter, or a quotient on another number of letters, is a
    # ValueError with a message, not a bare KeyError
    W, B, incl = torus_inclusion()
    alpha = morphism_to_mc(incl, Generators(W.space), trunc=3)
    free, ideal, _ = delta_star(W, trunc=3)
    env = EnvelopingQuotient(free, ideal, 3)
    with pytest.raises(ValueError, match=r"word \[w12\] has a letter outside"):
        reduce_mod_ideal(alpha, env)
    pi_alpha = degree_zero_restrict(alpha)
    assert reduce_mod_ideal(pi_alpha, env)
    one = FreeLie(["X"], 3)
    one_letter = EnvelopingQuotient(one, LieIdealPresentation(one, []), 3)
    for call in (lambda: reduce_mod_ideal(pi_alpha, one_letter),
                 lambda: series_eq_mod_ideal(pi_alpha, pi_alpha, one_letter)):
        with pytest.raises(ValueError, match="2 degree-zero generators, the "
                                             "quotient 1 letters"):
            call()


def test_pi_kills_higher_degree_words():
    W, B, incl = torus_inclusion()
    gens = Generators(W.space)
    alpha = morphism_to_mc(incl, gens, trunc=4)
    pi_alpha = degree_zero_restrict(alpha)
    w12_index = gens.index_of((2, "w12"))
    assert all(w12_index not in w for w in pi_alpha.data)


def test_pullback_identity():
    W, B, incl = torus_inclusion()
    gens = Generators(W.space)
    alpha = morphism_to_mc(incl, gens, trunc=3)
    ident = InfinityMorphism.identity(W)
    # table-based identity on the model
    tables = {1: {(k,): {k: Fraction(1)} for k in W.space.keys()}}
    ident = InfinityMorphism(W, W, tables=tables)
    back = pullback_along(ident, alpha, gens)
    assert back.eq(alpha)


def test_pullback_preserves_mc():
    # pull back along the basis swap of the model
    W, B, incl = torus_inclusion()
    gens = Generators(W.space)
    alpha = morphism_to_mc(incl, gens, trunc=4)
    w1, w2, w12 = (1, "w1"), (1, "w2"), (2, "w12")
    tables = {1: {(w1,): {w2: Fraction(1)}, (w2,): {w1: Fraction(1)},
                  (w12,): {w12: Fraction(-1)}}}
    swap = InfinityMorphism(W, W, tables=tables)
    assert check_morphism(swap, all_words(W, 3)) == []
    pulled = pullback_along(swap, alpha, gens)
    assert mc_check(pulled, W) == []


def test_pushforward_strict():
    W, B, incl = torus_inclusion()
    gens = Generators(W.space)
    alpha = morphism_to_mc(incl, gens, trunc=3)
    # strict automorphism of B: rescale dx
    tables = {1: {}}
    for key in B.space.keys():
        c = Fraction(2) if key in ((1, "dx"), (2, "dxdy")) else Fraction(1)
        tables[1][(key,)] = {key: c}
    h = InfinityMorphism(B, B, tables=tables)
    assert check_morphism(h, all_words(B, 2)) == []
    pushed = pushforward_along(h, alpha, B)
    for w, val in alpha.data.items():
        assert pushed.data.get(w) == h.apply(1, [val])
    assert mc_check(pushed, W) == []


def test_degree_zero_restriction_commutes_with_pullback():
    # f* pi = pi f* on probes, for the basis-swap morphism of the model
    W, B, incl = torus_inclusion()
    gens = Generators(W.space)
    alpha = morphism_to_mc(incl, gens, trunc=4)
    w1, w2, w12 = (1, "w1"), (1, "w2"), (2, "w12")
    tables = {1: {(w1,): {w2: Fraction(1)}, (w2,): {w1: Fraction(1)},
                  (w12,): {w12: Fraction(-1)}}}
    swap = InfinityMorphism(W, W, tables=tables)
    lhs = degree_zero_restrict(pullback_along(swap, alpha, gens))
    rhs = pullback_along(swap, degree_zero_restrict(alpha), gens)
    assert lhs.eq(rhs)


def test_source_delta_on_torus_words():
    W = torus_model()
    gens = Generators(W.space)
    i1 = gens.index_of((1, "w1"))
    i2 = gens.index_of((1, "w2"))
    i12 = gens.index_of((2, "w12"))
    out = ref_source_delta(gens, W, (i1, i2))
    assert out == {(i12,): Fraction(1)}
    out = ref_source_delta(gens, W, (i2, i1))
    assert out == {(i12,): Fraction(-1)}


def test_homotopy_transport_of_mc():
    # two strictly homotopic morphisms give endpoint-connected MC elements
    from totconn.structures import FormsAlgebra
    space = GradedVectorSpace({1: ["w"]})
    W = FiniteAlgebra(space, kind="1Cinf", arity_cap=3)
    B = FormsAlgebra(1)  # polynomial forms on the interval as a dga
    omega_b, ev0, ev1 = interval_tensor(B)
    from totconn.forms import PolyForm, simplex_dt, simplex_t
    dt = simplex_dt(1, 1)
    t = simplex_t(1, 1)
    w = (1, "w")
    f = InfinityMorphism(W, B, tables={1: {(w,): dt}})
    g = InfinityMorphism(W, B, tables={1: {(w,): B.zero()}})
    # H(w) = tau (x) dt + dtau (x) t interpolates f (tau=1) and g (tau=0)
    H_val = {(1, False): dt, (0, True): t}
    H = InfinityMorphism(W, omega_b, tables={1: {(w,): H_val}})
    assert check_morphism(H, [[{w: Fraction(1)}]]) == []
    gens = Generators(W.space)
    path = morphism_to_mc(H, gens, trunc=3)
    assert mc_check(path, W) == []
    at1 = TensorSeries(gens, B, 3, 1,
                       {ww: omega_b.evaluate(v, 1) for ww, v in path.data.items()})
    at0 = TensorSeries(gens, B, 3, 1,
                       {ww: omega_b.evaluate(v, 0) for ww, v in path.data.items()})
    assert at1.eq(morphism_to_mc(f, gens, 3))
    assert at0.eq(morphism_to_mc(g, gens, 3))


def test_im_delta_star_absorption():
    # if one argument is a delta-star image, M_n lands in the image span
    W, B, _ = torus_inclusion()
    gens = Generators(W.space)
    trunc = 3
    rng = random.Random(23)
    # gamma supported on words with exactly one degree-one entry
    i12 = gens.index_of((2, "w12"))
    gdata = {}
    for w in gens.words(trunc):
        if sum(1 for i in w if i == i12) == 1 and len(w) <= 2:
            options = [k for k in B.space.keys() if k[0] == 0 + gens.word_degree(w)]
            if options:
                gdata[tuple(w)] = {rng.choice(options): Fraction(rng.randint(1, 2))}
    gamma = TensorSeries(gens, B, trunc, 0, gdata)
    # delta-star of gamma: precompose with the source coderivation
    dstar_data = {}
    for w in gens.words(trunc):
        if any(i == i12 for i in w):
            continue
        total = B.zero()
        for w2, c in ref_source_delta(gens, W, tuple(w)).items():
            v = gamma.data.get(w2)
            if v is not None:
                total = B.add(total, v, c)
        if not B.is_zero(total):
            dstar_data[tuple(w)] = total
    dstar_gamma = TensorSeries(gens, B, trunc, 1, dstar_data)
    if dstar_gamma.is_zero():
        pytest.skip("degenerate sample")
    other = morphism_to_mc(torus_inclusion()[2], gens, trunc)
    out = conv_M(2, [degree_zero_restrict(other), dstar_gamma])
    # membership: out must vanish after reduction modulo the ideal
    free, ideal, _ = delta_star(W, trunc=trunc)
    env = EnvelopingQuotient(free, ideal, trunc)
    out0 = degree_zero_restrict(out)
    zero = TensorSeries(gens, B, trunc, out.degree)
    assert series_eq_mod_ideal(out0, zero, env)


# ---------------------------------------------------------------------
# the all-words loops, kept here as the reference for the support loops
# ---------------------------------------------------------------------

def ref_splittings(w, parts):
    """Ordered splittings into possibly-empty consecutive subwords."""
    for cuts in itertools.combinations_with_replacement(range(len(w) + 1), parts - 1):
        bounds = (0,) + cuts + (len(w),)
        yield [w[bounds[i]:bounds[i + 1]] for i in range(parts)]


def ref_conv_M(n, series_list, trunc=None):
    """Every word up to trunc, then (), and every splitting of each."""
    f0 = series_list[0]
    gens, target = f0.gens, f0.target
    trunc = trunc if trunc is not None else f0.trunc
    degs = [f.degree for f in series_list]
    out = {}
    for w in list(gens.words(trunc)) + [()]:
        total = target.zero()
        for pieces in ref_splittings(tuple(w), n):
            vals = []
            sign = 1
            for b, (f, u) in enumerate(zip(series_list, pieces)):
                v = f.data.get(u) if len(u) <= f.trunc else None
                if v is None or target.is_zero(v):
                    break
                if degs[b] % 2 and sum(gens.word_degree(pieces[a])
                                       for a in range(b)) % 2:
                    sign = -sign
                vals.append(v)
            else:
                total = target.add(total, target.m(n, vals), Fraction(sign))
        if not target.is_zero(total):
            out[tuple(w)] = target.scale(total, Fraction(-1))
    return TensorSeries(gens, target, trunc, sum(degs) + 2 - n, out)


def ref_source_delta(gens, source, w):
    out = {}
    degs = [gens.keys[i][0] for i in w]
    for q in range(1, len(w) + 1):
        for p in range(0, len(w) - q + 1):
            sub = w[p:p + q]
            if not source.in_window(q, [gens.keys[i] for i in sub]):
                continue
            sign = -1 if sum(d - 1 for d in degs[:p]) % 2 else 1
            val = delta_apply(source, q, [{gens.keys[i]: Fraction(1)} for i in sub],
                              degs[p:p + q])
            for key, c in val.items():
                w2 = w[:p] + (gens.index_of(key),) + w[p + q:]
                s = out.pop(w2, 0) + sign * c
                if s:
                    out[w2] = s
    return out


def ref_conv_partial(f, source):
    """-m_1 f, then f o delta on every word up to the truncation."""
    gens, target = f.gens, f.target
    out = {}
    for w, val in f.data.items():
        dv = target.scale(target.m(1, [val]), Fraction(-1))
        if not target.is_zero(dv):
            out[w] = dv
    sgn = Fraction(-((-1) ** f.degree))
    for w in gens.words(f.trunc):
        total = target.zero()
        for w2, c in ref_source_delta(gens, source, tuple(w)).items():
            v = f.data.get(w2)
            if v is not None:
                total = target.add(total, v, c)
        if not target.is_zero(total):
            cur = out.get(tuple(w))
            s = target.add(cur, total, sgn) if cur is not None \
                else target.scale(total, sgn)
            if target.is_zero(s):
                out.pop(tuple(w), None)
            else:
                out[tuple(w)] = s
    return TensorSeries(gens, target, f.trunc, f.degree + 1, out)


def ref_pushforward_along(h_mor, alpha, new_target):
    """Every word, every splitting into non-empty pieces."""
    gens = alpha.gens
    data = {}
    for w in gens.words(alpha.trunc):
        total = new_target.zero()
        for parts in range(1, len(w) + 1):
            for pieces in ref_splittings(tuple(w), parts):
                vals = [alpha.data.get(u) for u in pieces]
                if any(not u for u in pieces) or any(v is None for v in vals):
                    continue
                degs = [alpha.degree + gens.word_degree(u) for u in pieces]
                total = new_target.add(total, f_shifted(h_mor, parts, vals, degs))
        if not new_target.is_zero(total):
            data[tuple(w)] = total
    return TensorSeries(gens, new_target, alpha.trunc, alpha.degree, data)


def ref_pullback_along(k_mor, alpha, gens_src):
    """Every word, every splitting into non-empty pieces."""
    gens_v, target = alpha.gens, alpha.target
    data = {}
    for w in gens_src.words(alpha.trunc):
        total = target.zero()
        for parts in range(1, len(w) + 1):
            for pieces in ref_splittings(tuple(w), parts):
                if any(not u for u in pieces):
                    continue
                vecs = [f_shifted(k_mor, len(u), [{gens_src.keys[i]: Fraction(1)} for i in u],
                                  [gens_src.keys[i][0] for i in u]) for u in pieces]
                for combo in itertools.product(*[list(v.items()) for v in vecs]):
                    v = alpha.data.get(tuple(gens_v.index_of(key) for key, _ in combo))
                    if v is not None:
                        coeff = Fraction(1)
                        for _, c in combo:
                            coeff *= c
                        total = target.add(total, v, coeff)
        data[tuple(w)] = total
    return TensorSeries(gens_src, target, alpha.trunc, alpha.degree, data)


def assert_same_series(got, want):
    """Equal values, the same key order and the same order inside values."""
    assert (got.degree, got.trunc) == (want.degree, want.trunc)
    assert list(got.data) == list(want.data)
    for w, v in want.data.items():
        assert got.data[w] == v
        if isinstance(v, dict):
            assert list(got.data[w]) == list(v)
    assert repr(got) == repr(want)


def product_target():
    """A target with m_1..m_4 all non-zero, so every arity multiplies."""
    space = GradedVectorSpace({0: ["e"], 1: ["x", "y"], 2: ["z"]})
    alg = FiniteAlgebra(space, kind="Ainf", arity_cap=4)
    rng = random.Random(11)
    keys = space.keys()
    for k in range(1, 5):
        for wrd in itertools.product(keys, repeat=k):
            options = [key for key in keys
                       if key[0] == sum(d for d, _ in wrd) + 2 - k]
            if options and rng.random() < 0.5:
                alg.set_value(k, wrd, {rng.choice(options): rng.choice([-2, -1, 1, 3])})
    return alg


def two_key_model():
    """The heisenberg structure plus an m_2 with two output keys, so one
    subword reaches a word through two generators."""
    alg = heisenberg_model()
    a, b, p, q = (1, "a"), (1, "b"), (2, "p"), (2, "q")
    alg.set_value(2, (a, b), {p: Fraction(1), q: Fraction(2)})
    alg.set_value(2, (b, a), {q: Fraction(-2), p: Fraction(-1)})
    return alg


SOURCES = {"torus": torus_model, "heisenberg": heisenberg_model,
           "two-key": two_key_model}
TARGET = product_target()


def as_kind(alg, kind):
    """The same structure maps under another kind (another window)."""
    return FiniteAlgebra(alg.space, kind=kind, arity_cap=alg.arity_cap,
                         maps=alg.maps)


@st.composite
def series(draw, gens, trunc, degree=None):
    """A sparse series, possibly with a value at the empty word."""
    words = [()] + [tuple(w) for w in gens.words(trunc)]
    keys = TARGET.space.keys()
    value = st.dictionaries(st.sampled_from(keys),
                            st.integers(-2, 2).filter(bool).map(Fraction),
                            min_size=1, max_size=2)
    data = draw(st.dictionaries(st.sampled_from(words), value, max_size=6))
    if degree is None:
        degree = draw(st.integers(0, 2))
    return TensorSeries(gens, TARGET, trunc, degree, data)


@st.composite
def convolution_case(draw):
    gens = Generators(SOURCES[draw(st.sampled_from(sorted(SOURCES)))]().space)
    trunc = draw(st.integers(1, 4))
    n = draw(st.integers(2, 4))
    fs = [draw(series(gens, trunc)) for _ in range(n)]
    cut = draw(st.one_of(st.none(), st.integers(1, trunc)))
    return n, fs, cut


@given(convolution_case())
@settings(deadline=None, max_examples=80)
def test_conv_M_matches_the_all_words_loop(case):
    n, fs, cut = case
    assert_same_series(conv_M(n, fs, cut), ref_conv_M(n, fs, cut))


@given(convolution_case())
@settings(deadline=None, max_examples=40)
def test_conv_M_matches_on_a_repeated_argument(case):
    n, fs, cut = case
    fs = [fs[0]] * n
    assert_same_series(conv_M(n, fs, cut), ref_conv_M(n, fs, cut))


@st.composite
def partial_case(draw):
    name = draw(st.sampled_from(sorted(SOURCES)))
    source = as_kind(SOURCES[name](), draw(st.sampled_from(["1Cinf", "Ainf"])))
    gens = Generators(source.space)
    return draw(series(gens, draw(st.integers(1, 4)))), source


@given(partial_case())
@settings(deadline=None, max_examples=80)
def test_conv_partial_matches_the_all_words_loop(case):
    f, source = case
    assert_same_series(conv_partial(f, source), ref_conv_partial(f, source))


def test_conv_partial_cancels_against_m1():
    # at w1 w2 the -m_1 part cancels f o delta exactly and the word drops
    # out; at w2 w1 only f o delta is left
    W = torus_model()
    gens = Generators(W.space)
    B = FiniteAlgebra(GradedVectorSpace({0: ["t"], 1: ["u"]}), kind="Ainf")
    t, u = (0, "t"), (1, "u")
    B.set_value(1, (t,), {u: Fraction(1)})
    i1, i2, i12 = (gens.index_of(k) for k in ((1, "w1"), (1, "w2"), (2, "w12")))
    f = TensorSeries(gens, B, 2, 0, {(i12,): {u: Fraction(1)},
                                     (i1, i2): {t: Fraction(-1)}})
    got = conv_partial(f, W)
    assert_same_series(got, ref_conv_partial(f, W))
    assert got.data == {(i2, i1): {u: Fraction(1)}}


def test_conv_partial_sums_in_source_delta_order():
    # delta(a b) = p + 2q: the value at a b adds f(p) before f(q), in the
    # order of the terms of delta(a b), whatever the order of f's keys
    W = two_key_model()
    gens = Generators(W.space)
    a, b, p, q = (gens.index_of((d, n)) for d, n in
                  ((1, "a"), (1, "b"), (2, "p"), (2, "q")))
    x, y = (1, "x"), (1, "y")
    f = TensorSeries(gens, TARGET, 2, 0, {(q,): {x: Fraction(1)},
                                          (p,): {y: Fraction(1)}})
    got = conv_partial(f, W)
    assert_same_series(got, ref_conv_partial(f, W))
    assert list(got.data[(a, b)].items()) == [(y, Fraction(-1)), (x, Fraction(-2))]


def morphism_h(target):
    """A non-strict endomorphism of ``target`` with components f_1..f_3."""
    rng = random.Random(5)
    keys = target.space.keys()
    tables = {1: {(k,): {k: Fraction(1 + (i % 2))} for i, k in enumerate(keys)}}
    for k in (2, 3):
        tables[k] = {}
        for wrd in itertools.product(keys, repeat=k):
            options = [key for key in keys if key[0] == sum(d for d, _ in wrd) + 1 - k]
            if options and rng.random() < 0.4:
                tables[k][wrd] = {rng.choice(options): Fraction(rng.randint(1, 3))}
    return InfinityMorphism(target, target, tables=tables)


@given(convolution_case())
@settings(deadline=None, max_examples=40)
def test_pushforward_matches_the_all_words_loop(case):
    _, fs, _ = case
    h = morphism_h(TARGET)
    assert_same_series(pushforward_along(h, fs[0], TARGET),
                       ref_pushforward_along(h, fs[0], TARGET))


@pytest.mark.parametrize("trunc", [3, 4])
def test_pushforward_matches_the_all_words_loop_on_the_fixtures(trunc):
    W, B, incl = torus_inclusion()
    gens = Generators(W.space)
    alpha = morphism_to_mc(incl, gens, trunc=trunc)
    strict = {1: {(key,): {key: Fraction(2) if key[0] == 1 else Fraction(1)}
                  for key in B.space.keys()}}
    for h in (InfinityMorphism(B, B, tables=strict), morphism_h(B)):
        assert_same_series(pushforward_along(h, alpha, B),
                           ref_pushforward_along(h, alpha, B))


@pytest.mark.parametrize("trunc", [3, 4])
def test_pullback_matches_the_all_words_loop(trunc):
    W, B, incl = torus_inclusion()
    gens = Generators(W.space)
    alpha = morphism_to_mc(incl, gens, trunc=trunc)
    k = morphism_h(W)
    assert k.tables[2] and k.tables[3]
    assert_same_series(pullback_along(k, alpha, gens),
                       ref_pullback_along(k, alpha, gens))


def test_torus_pipeline_at_trunc_8():
    r = run_pipeline("torus", trunc=8, k=8)
    W = positive_part(r.model.algebra)
    alpha = morphism_to_mc(r.model.morphism, Generators(W.space), 8)
    assert mc_check(alpha, W) == []
    assert r.certificate.flat
    assert r.theta
    assert all(r.env.is_grouplike(value) for value in r.theta.values())
    assert r.dims_per_k == {kk: 2 for kk in range(2, 9)}


def ref_morphism_to_mc(f, gens, trunc):
    """The series of ``f`` walked over every word up to ``trunc``."""
    data = {}
    for w in gens.words(trunc):
        keys = [gens.keys[i] for i in w]
        val = f_shifted(f, len(w), [{k: Fraction(1)} for k in keys],
                        [k[0] for k in keys])
        if not f.target.is_zero(val):
            data[w] = val
    return data


def test_morphism_to_mc_stops_at_the_last_arity():
    # the torus model's morphism has components at arities 1..4 and apply
    # is zero above them: on 3 generators the walk reads the 120 words up
    # to length 4, not the 1,092 up to length 6, and finds the same series
    model = one_minimal_model(PRESETS["torus"]["window"](), arity_cap=4)
    f = model.morphism
    assert max(itertools.chain(f.components, f.tables)) == 4
    gens = Generators(positive_part(model.algebra).space)
    calls = []
    apply = f.apply
    f.apply = lambda k, elems: calls.append(k) or apply(k, elems)
    alpha = morphism_to_mc(f, gens, 6)
    walked = len(calls)
    want = ref_morphism_to_mc(f, gens, 6)
    assert (walked, len(calls) - walked) == (120, 1092)
    assert alpha.trunc == 6
    assert list(alpha.data) == list(want)
    assert alpha.data == want


def counting_support_tuples(monkeypatch):
    """The arities whose ``conv_M`` walks its support tuples, in call order."""
    import totconn.convolution
    walked = []
    walk = totconn.convolution._support_tuples

    def counting(series_list, *args, **kwargs):
        walked.append(len(series_list))
        return walk(series_list, *args, **kwargs)

    monkeypatch.setattr(totconn.convolution, "_support_tuples", counting)
    return walked


def test_conv_M_skips_an_arity_with_no_table(monkeypatch):
    # the torus window holds only an arity-2 table, so M_n is zero for
    # n >= 3: conv_M returns the full walk's series without walking
    W, B, mor = torus_inclusion()
    assert set(B.maps) == {2}
    alpha = morphism_to_mc(mor, Generators(W.space), 5)
    walked = counting_support_tuples(monkeypatch)
    for n in range(2, 6):
        for cut in (None, 3):
            assert_same_series(conv_M(n, [alpha] * n, cut), ref_conv_M(n, [alpha] * n, cut))
    assert walked == [2, 2]
    assert conv_M(2, [alpha] * 2).data


def test_conv_M_walks_every_arity_of_a_target_without_tables(monkeypatch):
    # a total complex has no tables to read a zero arity off, and a
    # transferred structure fills its tables on first use: neither is pruned
    from totconn.convolution import _table_arities
    from totconn.pipeline import tot_inclusion
    W, B, mor = torus_inclusion()
    incl = tot_inclusion(B, 2, arity_cap=4)
    alpha = morphism_to_mc(mor, Generators(W.space), 4)
    tot_alpha = TensorSeries(alpha.gens, incl.target, 4, 1,
                             {w: incl.apply(1, [v]) for w, v in alpha.data.items()})
    walked = counting_support_tuples(monkeypatch)
    for n in range(2, 5):
        assert_same_series(conv_M(n, [tot_alpha] * n), ref_conv_M(n, [tot_alpha] * n))
    assert walked == [2, 3, 4]
    model = one_minimal_model(torus_cdga(), arity_cap=4)
    assert _table_arities(model.transfer.algebra) is None
    assert _table_arities(incl.target) is None
    assert _table_arities(B) == {2}


def ref_delta_transpose(gens, source, max_len):
    """``_delta_transpose`` walking every word up to ``max_len``."""
    out = {}
    for s in gens.words(max_len):
        keys = [gens.keys[i] for i in s]
        if not source.in_window(len(s), keys):
            continue
        val = delta_apply(source, len(s), [{k: Fraction(1)} for k in keys],
                          [k[0] for k in keys])
        for rank, (key, c) in enumerate(val.items()):
            out.setdefault(gens.index_of(key), []).append((s, c, rank))
    return out


def preset_model(name):
    return positive_part(one_minimal_model(PRESETS[name]["window"](), arity_cap=4).algebra)


TRANSPOSE_SOURCES = {**SOURCES, "torus-preset": lambda: preset_model("torus"),
                     "heisenberg-preset": lambda: preset_model("heisenberg")}


@pytest.mark.parametrize("name", sorted(TRANSPOSE_SOURCES))
def test_delta_transpose_stops_at_the_last_table_arity(name, monkeypatch):
    import totconn.convolution
    from totconn.convolution import _delta_transpose
    W = TRANSPOSE_SOURCES[name]()
    gens = Generators(W.space)
    last = max(k for k, table in W.maps.items() if table)
    calls = []
    apply = totconn.convolution.delta_apply
    monkeypatch.setattr(totconn.convolution, "delta_apply",
                        lambda alg, k, *args: calls.append(k) or apply(alg, k, *args))
    for max_len in range(1, 7):
        calls.clear()
        got = _delta_transpose(gens, W, max_len)
        assert max(calls) == min(max_len, last)
        want = ref_delta_transpose(gens, W, max_len)
        assert list(got.items()) == list(want.items())
