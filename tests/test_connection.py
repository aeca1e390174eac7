import random
from fractions import Fraction

import pytest

from totconn.connection import (AutomorphyFactor, ConnectionForm, GaugeElement,
                                NonFlatError, PLPath, automorphy_from_gauge,
                                conjugation_compatibility, equivariance_defect,
                                flatness_check, form_dvar, form_var, form_zero,
                                gauge, gauge_between, gauge_compose_check,
                                holonomy, parse_loop, poincare_primitive,
                                transport)
from totconn.forms import PolyForm
from totconn.freelie import (EMPTY, EnvelopingQuotient, FiberLieAlgebra,
                             FreeLie, LieIdealPresentation, QuotientLie,
                             commutator)


def abelian_rank1(k=4):
    free = FreeLie(["X"], k)
    ideal = LieIdealPresentation(free, [])
    fib = FiberLieAlgebra(free, ideal, k)
    env = EnvelopingQuotient(free, ideal, k)
    return free, ideal, fib, env


def abelian_rank2(k=4):
    free = FreeLie(["X", "Y"], k)
    gen = commutator(free.gen(0), free.gen(1), k)
    ideal = LieIdealPresentation(free, [gen])
    fib = FiberLieAlgebra(free, ideal, k)
    env = EnvelopingQuotient(free, ideal, k)
    return free, ideal, fib, env


def heisenberg_rank2(k=4):
    free = FreeLie(["X", "Y"], k)
    g1 = commutator(free.gen(0), commutator(free.gen(0), free.gen(1), k), k)
    g2 = commutator(free.gen(1), commutator(free.gen(1), free.gen(0), k), k)
    ideal = LieIdealPresentation(free, [g1, g2])
    fib = FiberLieAlgebra(free, ideal, k)
    env = EnvelopingQuotient(free, ideal, k)
    return free, ideal, fib, env


def free_rank2(k=3):
    free = FreeLie(["X", "Y"], k)
    ideal = LieIdealPresentation(free, [])
    fib = FiberLieAlgebra(free, ideal, k)
    env = EnvelopingQuotient(free, ideal, k)
    return free, ideal, fib, env


def circle_connection(fib):
    return ConnectionForm(1, fib, {(0,): form_dvar(1, 0)})


def torus_connection(fib):
    return ConnectionForm(2, fib, {(0,): form_dvar(2, 0), (1,): form_dvar(2, 1)})


def test_circle_connection_flat():
    _, _, fib, _ = abelian_rank1()
    alpha = circle_connection(fib)
    assert flatness_check(alpha).flat


def test_torus_connection_flat_in_quotient():
    _, _, fib, _ = abelian_rank2()
    alpha = torus_connection(fib)
    assert flatness_check(alpha).flat


def test_torus_connection_not_flat_in_free():
    _, _, fib, _ = free_rank2(k=3)
    alpha = torus_connection(fib)
    cert = flatness_check(alpha)
    assert not cert.flat
    # curvature is dx^dy (x) [X,Y] for d(alpha) = 0 (calibrated sign)
    ((w, f),) = cert.failures
    assert w == (0, 1)
    want = form_dvar(2, 0).wedge(form_dvar(2, 1))
    assert f == want


def test_heisenberg_flat_connection():
    # alpha = dx X + dy Y - (x dy - y dx)/2 [X,Y] is flat at k=4
    _, _, fib, _ = heisenberg_rank2(k=4)
    x, y = form_var(2, 0), form_var(2, 1)
    dx, dy = form_dvar(2, 0), form_dvar(2, 1)
    half = (x.wedge(dy) - y.wedge(dx)).scale(Fraction(-1, 2))
    alpha = ConnectionForm(2, fib, {(0,): dx, (1,): dy, (0, 1): half})
    assert flatness_check(alpha).flat


@pytest.mark.parametrize("grouplike_first", [True, False])
def test_one_quotient_lie_per_quotient(monkeypatch, grouplike_first):
    # is_grouplike reads the Lie span that transport and holonomy run in:
    # one QuotientLie per quotient, whichever is called first
    built = []
    init = QuotientLie.__init__
    monkeypatch.setattr(QuotientLie, "__init__",
                        lambda self, env: built.append(env) or init(self, env))
    _, _, fib, env = heisenberg_rank2(k=4)
    x, y = form_var(2, 0), form_var(2, 1)
    dx, dy = form_dvar(2, 0), form_dvar(2, 1)
    half = (x.wedge(dy) - y.wedge(dx)).scale(Fraction(-1, 2))
    alpha = ConnectionForm(2, fib, {(0,): dx, (1,): dy, (0, 1): half})
    F = AutomorphyFactor(GaugeElement(2, fib, {}), env)

    def check():
        assert env.is_grouplike(env.exp({(0,): Fraction(1), (1,): Fraction(1, 2)}))

    def move():
        T = transport(alpha, PLPath([(0, 0), (1, Fraction(1, 3)), (Fraction(1, 2), 2)]), env)
        theta = holonomy(alpha, F, parse_loop("a b a- b-", 2), (0, 0), env)
        assert env.is_grouplike(T) and env.is_grouplike(theta)

    for step in ((check, move) if grouplike_first else (move, check)):
        step()
    assert built == [env]


def test_gauge_trivial_and_abelian():
    _, _, fib, _ = abelian_rank1()
    alpha = circle_connection(fib)
    zero_h = GaugeElement(1, fib, {})
    assert gauge(alpha, zero_h).eq(alpha)
    h = GaugeElement(1, fib, {(0,): form_var(1, 0)})  # h = x (x) X
    out = gauge(alpha, h)
    want = ConnectionForm(1, fib, {(0,): form_dvar(1, 0).scale(2)})
    assert out.eq(want)


def test_gauge_preserves_flatness():
    _, _, fib, _ = heisenberg_rank2(k=4)
    x, y = form_var(2, 0), form_var(2, 1)
    dx, dy = form_dvar(2, 0), form_dvar(2, 1)
    half = (x.wedge(dy) - y.wedge(dx)).scale(Fraction(-1, 2))
    alpha = ConnectionForm(2, fib, {(0,): dx, (1,): dy, (0, 1): half})
    h = GaugeElement(2, fib, {(0,): x.wedge(y), (1,): y.wedge(y)})
    out = gauge(alpha, h)
    assert flatness_check(out).flat


def test_gauge_group_action_law():
    rng = random.Random(17)
    _, _, fib, _ = heisenberg_rank2(k=4)
    x, y = form_var(2, 0), form_var(2, 1)
    for _ in range(3):
        def rnd_poly():
            out = form_zero(2)
            for _ in range(2):
                e1, e2 = rng.randint(0, 1), rng.randint(0, 1)
                term = PolyForm(2, {((e1, e2), ()): Fraction(rng.randint(-2, 2))},
                                varname="x", ndiff=2)
                out = out + term
            return out
        h1 = GaugeElement(2, fib, {(0,): rnd_poly(), (1,): rnd_poly()})
        h2 = GaugeElement(2, fib, {(0,): rnd_poly(), (0, 1): rnd_poly()})
        alpha = ConnectionForm(2, fib, {(0,): form_dvar(2, 0), (1,): form_dvar(2, 1)})
        defect = gauge_compose_check(alpha, h1, h2)
        assert defect.is_zero()


def test_transport_zero_connection():
    _, _, fib, env = abelian_rank1()
    alpha = ConnectionForm(1, fib, {})
    path = PLPath([(0,), (1,)])
    assert transport(alpha, path, env) == {EMPTY: Fraction(1)}


def test_transport_circle_exponential():
    free, _, fib, env = abelian_rank1(k=4)
    alpha = circle_connection(fib)
    path = PLPath([(0,), (1,)])
    T = transport(alpha, path, env)
    want = env.exp({(0,): Fraction(1)})
    assert env.eq(T, want)
    # n-fold path: coefficients n^r / r!
    for n in (2, 3):
        pn = PLPath([(0,), (n,)])
        Tn = transport(alpha, pn, env)
        assert env.eq(Tn, env.exp({(0,): Fraction(n)}))


def test_transport_composition_split():
    free, _, fib, env = free_rank2(k=3)
    x = form_var(1, 0)
    alpha = ConnectionForm(1, fib, {(0,): form_dvar(1, 0),
                                    (1,): x.wedge(form_dvar(1, 0))})
    whole = transport(alpha, PLPath([(0,), (1,)]), env)
    first = transport(alpha, PLPath([(0,), (Fraction(1, 2),)]), env)
    second = transport(alpha, PLPath([(Fraction(1, 2),), (1,)]), env)
    assert env.eq(whole, env.mul(first, second))


def test_transport_grouplike():
    free, _, fib, env = free_rank2(k=3)
    x = form_var(2, 0)
    alpha = ConnectionForm(2, fib, {(0,): form_dvar(2, 0),
                                    (1,): x.wedge(form_dvar(2, 1))})
    T = transport(alpha, PLPath([(0, 0), (1, 0), (1, 1)]), env)
    assert env.is_grouplike(T)


def test_dexp_inverse_coefficients():
    # x / (1 - e^{-x}) = sum beta_n x^n: pinned values, and its product
    # with (1 - e^{-x}) / x = sum (-x)^k / (k + 1)! is 1 up to x^15
    from math import factorial

    from totconn.connection import _dexp_inverse
    assert _dexp_inverse(9) == (1, Fraction(1, 2), Fraction(1, 12), 0,
                                Fraction(-1, 720), 0, Fraction(1, 30240), 0,
                                Fraction(-1, 1209600))
    beta = _dexp_inverse(16)
    assert [sum(Fraction((-1) ** k, factorial(k + 1)) * beta[m - k]
                for k in range(m + 1)) for m in range(16)] == [1] + [0] * 15


def test_path_independence_for_flat():
    # flat connections transport equally along rectangle subdivisions
    _, _, fib, env = heisenberg_rank2(k=3)
    x, y = form_var(2, 0), form_var(2, 1)
    dx, dy = form_dvar(2, 0), form_dvar(2, 1)
    half = (x.wedge(dy) - y.wedge(dx)).scale(Fraction(-1, 2))
    alpha = ConnectionForm(2, fib, {(0,): dx, (1,): dy, (0, 1): half})
    assert flatness_check(alpha).flat
    p1 = PLPath([(0, 0), (1, 0), (1, 1)])
    p2 = PLPath([(0, 0), (0, 1), (1, 1)])
    p3 = PLPath([(0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), 1), (1, 1)])
    t1 = transport(alpha, p1, env)
    t2 = transport(alpha, p2, env)
    t3 = transport(alpha, p3, env)
    assert env.eq(t1, t2) and env.eq(t1, t3)


def test_non_flat_transport_path_dependent():
    _, _, fib, env = free_rank2(k=3)
    alpha = torus_connection(fib)  # not flat in the free quotient
    t1 = transport(alpha, PLPath([(0, 0), (1, 0), (1, 1)]), env)
    t2 = transport(alpha, PLPath([(0, 0), (0, 1), (1, 1)]), env)
    assert not env.eq(t1, t2)


def test_automorphy_trivial_for_invariant():
    _, _, fib, env = abelian_rank1()
    h = GaugeElement(1, fib, {})
    F = automorphy_from_gauge(h, env, samples=[((1,), (2,))])
    assert F.at_point((5,), (0,)) == {EMPTY: Fraction(1)}


def test_automorphy_from_nontrivial_gauge():
    _, _, fib, env = abelian_rank1(k=4)
    # h = x (x) X makes alpha' = 2 dx (x) X out of dx (x) X
    h = GaugeElement(1, fib, {(0,): form_var(1, 0)})
    samples = [((1,), (1,)), ((2,), (-1,)), ((3,), (2,))]
    F = automorphy_from_gauge(h, env, samples=samples)
    val = F.at_point((1,), (0,))
    want = env.exp({(0,): Fraction(-1)})
    assert env.eq(val, want)
    alpha2 = gauge(circle_connection(fib), h)
    for g in [(1,), (2,)]:
        assert equivariance_defect(alpha2, F, g) == {}


def test_equivariance_for_invariant_connection():
    _, _, fib, env = abelian_rank2()
    alpha = torus_connection(fib)
    h = GaugeElement(2, fib, {})
    F = AutomorphyFactor(h, env)
    for g in [(1, 0), (0, 1), (2, -1)]:
        assert equivariance_defect(alpha, F, g) == {}


def test_holonomy_circle():
    _, _, fib, env = abelian_rank1(k=4)
    alpha = circle_connection(fib)
    h = GaugeElement(1, fib, {})
    F = AutomorphyFactor(h, env)
    loop = parse_loop("a", 1)
    theta = holonomy(alpha, F, loop, (0,), env)
    assert env.eq(theta, env.exp({(0,): Fraction(1)}))
    theta3 = holonomy(alpha, F, loop * 3, (0,), env)
    assert env.eq(theta3, env.exp({(0,): Fraction(3)}))
    # coefficients n^r/r! exactly
    for w, c in theta3.items():
        assert c == Fraction(3 ** len(w)) / __import__("math").factorial(len(w))


def test_holonomy_homomorphism_and_commutator():
    _, _, fib, env = abelian_rank2(k=4)
    alpha = torus_connection(fib)
    h = GaugeElement(2, fib, {})
    F = AutomorphyFactor(h, env)
    a = parse_loop("a", 2)
    b = parse_loop("b", 2)
    tha = holonomy(alpha, F, a, (0, 0), env)
    thb = holonomy(alpha, F, b, (0, 0), env)
    thab = holonomy(alpha, F, a + b, (0, 0), env)
    assert env.eq(thab, env.mul(tha, thb))
    comm = parse_loop("a b a- b-", 2)
    th = holonomy(alpha, F, comm, (0, 0), env)
    assert env.eq(th, {EMPTY: Fraction(1)})


def test_trivial_loop():
    _, _, fib, env = abelian_rank1()
    alpha = circle_connection(fib)
    F = AutomorphyFactor(GaugeElement(1, fib, {}), env)
    th = holonomy(alpha, F, [], (0,), env)
    assert env.eq(th, {EMPTY: Fraction(1)})


def test_deck_equivariance_of_transport():
    # T(g path) = F_g(start) T(path) F_g(end)^{-1}
    _, _, fib, env = abelian_rank1(k=4)
    h = GaugeElement(1, fib, {(0,): form_var(1, 0)})
    alpha = gauge(circle_connection(fib), h)
    F = AutomorphyFactor(h, env)
    path = PLPath([(0,), (Fraction(1, 2),), (2,)])
    g = (3,)
    lhs = transport(alpha, path.translate(g), env)
    Fg_start = F.at_point(g, path.start)
    Fg_end = F.at_point(g, path.end)
    rhs = env.mul(env.mul(Fg_start, transport(alpha, path, env)),
                  env.inverse(Fg_end))
    assert env.eq(lhs, rhs)


def test_gauge_between_connections():
    _, _, fib, env = abelian_rank1(k=4)
    alpha = circle_connection(fib)
    beta = ConnectionForm(1, fib, {(0,): form_dvar(1, 0).scale(3)})
    h = gauge_between(alpha, beta)
    assert gauge(alpha, h).eq(beta)


def test_gauge_between_nonabelian():
    _, _, fib, env = heisenberg_rank2(k=4)
    x, y = form_var(2, 0), form_var(2, 1)
    dx, dy = form_dvar(2, 0), form_dvar(2, 1)
    half = (x.wedge(dy) - y.wedge(dx)).scale(Fraction(-1, 2))
    alpha = ConnectionForm(2, fib, {(0,): dx, (1,): dy, (0, 1): half})
    h0 = GaugeElement(2, fib, {(0,): x.wedge(x), (1,): x.wedge(y)})
    beta = gauge(alpha, h0)
    h = gauge_between(alpha, beta)
    assert gauge(alpha, h).eq(beta)


def test_conjugation_compatibility_identity_models():
    _, _, fib, env = abelian_rank1(k=4)
    alpha = circle_connection(fib)
    F = AutomorphyFactor(GaugeElement(1, fib, {}), env)
    loopa = parse_loop("a", 1)
    theta = {"a": holonomy(alpha, F, loopa, (0,), env)}
    assert conjugation_compatibility(theta, theta, {}, env) == []


def test_conjugation_with_synthetic_gauge():
    _, _, fib, env = abelian_rank1(k=4)
    alpha = circle_connection(fib)
    h = GaugeElement(1, fib, {(0,): form_var(1, 0)})
    alpha2 = gauge(alpha, h)
    F1 = AutomorphyFactor(GaugeElement(1, fib, {}), env)
    F2 = automorphy_from_gauge(h, env, samples=[((1,), (2,))])
    p = (Fraction(1, 3),)
    loops = {"a": parse_loop("a", 1), "aa": parse_loop("a a", 1)}
    theta1 = {k: holonomy(alpha, F1, lp, p, env) for k, lp in loops.items()}
    theta2 = {k: holonomy(alpha2, F2, lp, p, env) for k, lp in loops.items()}
    h_at_p = {w: f.eval_at(p) for w, f in h.coeffs.items()}
    fails = conjugation_compatibility(theta1, theta2, h_at_p, env)
    assert fails == []


def test_conjugation_with_a_bracket_gauge():
    # h = [X, Y] is read at a point as the tensor series XY - YX
    _, _, fib, env = heisenberg_rank2(k=4)
    x, y = form_var(2, 0), form_var(2, 1)
    dx, dy = form_dvar(2, 0), form_dvar(2, 1)
    half = (x.wedge(dy) - y.wedge(dx)).scale(Fraction(-1, 2))
    alpha = ConnectionForm(2, fib, {(0,): dx, (1,): dy, (0, 1): half})
    h = GaugeElement(2, fib, {(0, 1): PolyForm.one(2, varname="x", ndiff=2)})
    F1 = AutomorphyFactor(GaugeElement(2, fib, {}), env)
    F2 = AutomorphyFactor(h, env)
    p = (Fraction(1, 3), Fraction(1, 5))
    h_at_p = h.at_point(p)
    assert h_at_p == {(0, 1): 1, (1, 0): -1}
    loops = {text: parse_loop(text, 2) for text in ("a", "b", "a b")}
    theta1 = {t: holonomy(alpha, F1, lp, p, env) for t, lp in loops.items()}
    theta2 = {t: holonomy(gauge(alpha, h), F2, lp, p, env) for t, lp in loops.items()}
    assert conjugation_compatibility(theta1, theta2, h_at_p, env) == []


def test_conjugation_by_the_wrong_gauge_is_reported():
    _, _, fib, env = heisenberg_rank2(k=4)
    x, y = form_var(2, 0), form_var(2, 1)
    dx, dy = form_dvar(2, 0), form_dvar(2, 1)
    half = (x.wedge(dy) - y.wedge(dx)).scale(Fraction(-1, 2))
    alpha = ConnectionForm(2, fib, {(0,): dx, (1,): dy, (0, 1): half})
    F = AutomorphyFactor(GaugeElement(2, fib, {}), env)
    p = (Fraction(1, 3), Fraction(1, 5))
    loops = {text: parse_loop(text, 2) for text in ("a", "b", "a b")}
    theta1 = {t: holonomy(alpha, F, lp, p, env) for t, lp in loops.items()}
    # the table conjugated by e^X
    X = {(0,): Fraction(1)}
    eX, eX_inv = env.exp(X), env.exp({(0,): Fraction(-1)})
    theta2 = {t: env.mul(env.mul(eX_inv, th), eX) for t, th in theta1.items()}
    assert conjugation_compatibility(theta1, theta2, X, env) == []
    # read with h = 2X: theta1(a) commutes with X, the other two do not
    assert conjugation_compatibility(theta1, theta2, {(0,): Fraction(2)}, env) == ["b", "a b"]


def test_path_validation():
    with pytest.raises(ValueError):
        PLPath([])
    p = PLPath([(0,), (1,)])
    q = PLPath([(1,), (2,)])
    assert p.concat(q).vertices == [(0,), (1,), (2,)]
    with pytest.raises(ValueError):
        q.concat(p)


def test_restriction_kills_positive_levels():
    # a series supported on (1,0)-values restricts to the zero connection
    from totconn.connection import restrict_connection
    from totconn.convolution import Generators, TensorSeries
    from totconn.forms import PolyForm
    from totconn.graded import GradedVectorSpace
    from totconn.structures import FiniteAlgebra
    from totconn.totalcomplex import (GroupCochain, GroupCochainBackend,
                                      TotalComplexAlgebra, TotElement)
    space = GradedVectorSpace({1: ["w"]})
    W = FiniteAlgebra(space, kind="1Cinf", arity_cap=3)
    gens = Generators(space)
    be = GroupCochainBackend(1)
    tot = TotalComplexAlgebra(be, level_cap=2, arity_cap=3)
    cocycle = TotElement(be, {(1, 0): GroupCochain(
        1, 1, PolyForm.var(2, 1, varname="z", ndiff=1))})
    alpha = TensorSeries(gens, tot, 3, 1, {(0,): cocycle})
    _, _, fib, env = abelian_rank1(k=3)
    conn = restrict_connection(alpha, W, fib, env)
    assert conn.is_zero()


def test_restriction_reads_the_degree_zero_generators_as_the_fiber_letters():
    # the model series needs no generator map: in Tot it restricts to the
    # pipeline's connection; a fiber on another number of letters is a
    # ValueError, and a defect on a word with a degree-2 letter is refused
    from totconn.connection import restrict_connection
    from totconn.convolution import TensorSeries
    from totconn.minimal import model_mc, positive_part
    from totconn.pipeline import run_pipeline, tot_inclusion
    from totconn.totalcomplex import GroupCochain, TotElement
    r = run_pipeline("torus", trunc=4)
    alpha = model_mc(r.model, trunc=4)
    include = tot_inclusion(r.model.target, 2, 4)
    data = {w: include.apply(1, [v]) for w, v in alpha.data.items()}
    W = positive_part(r.model.algebra)

    def restrict(data, fib, env):
        return restrict_connection(TensorSeries(alpha.gens, include.target, 4, 1, data),
                                   W, fib, env)

    conn = restrict(data, r.fib, r.env)
    assert conn.to_json() == r.connection.to_json()
    _, _, fib1, env1 = abelian_rank1(k=4)
    with pytest.raises(ValueError, match="2 degree-zero generators, the "
                                         "quotient 1 letters"):
        restrict(data, fib1, env1)
    (top,) = [i for i, key in enumerate(alpha.gens.keys) if key[0] == 2]
    z = lambda j: PolyForm.var(2, j, varname="z", ndiff=2)
    dz = lambda j: PolyForm.dvar(2, j, varname="z", ndiff=2)
    x_dx_dy = TotElement(include.target.backend,
                         {(0, 2): GroupCochain(2, 0, z(0).wedge(dz(0)).wedge(dz(1)))})
    with pytest.raises(NonFlatError, match="outside the degree-zero words"):
        restrict({**data, (top,): x_dx_dy}, r.fib, r.env)


def test_flatness_preserved_by_translation():
    # pulling a flat connection back along a lattice translation stays flat
    _, _, fib, _ = heisenberg_rank2(k=4)
    x, y = form_var(2, 0), form_var(2, 1)
    dx, dy = form_dvar(2, 0), form_dvar(2, 1)
    half = (x.wedge(dy) - y.wedge(dx)).scale(Fraction(-1, 2))
    alpha = ConnectionForm(2, fib, {(0,): dx, (1,): dy, (0, 1): half})
    for g in [(1, 0), (0, 1), (2, -3)]:
        moved = ConnectionForm(2, fib, alpha.translate(g).coeffs)
        assert flatness_check(moved).flat


def test_connection_flags_bookkeeping():
    _, _, fib, _ = abelian_rank1()
    alpha = ConnectionForm(1, fib, {(0,): form_dvar(1, 0)},
                           flags=("holomorphic",))
    assert alpha.flags == ("holomorphic",)
    h = GaugeElement(1, fib, {})
    assert gauge(alpha, h).flags == ("holomorphic",)


def test_poincare_primitive():
    # any closed polynomial 1-form has an exact primitive
    f = form_var(2, 0).wedge(form_dvar(2, 1)) + form_var(2, 1).wedge(form_dvar(2, 0))
    assert f.d().is_zero()
    P = poincare_primitive(f)
    assert P.d() == f
