import functools
import itertools
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totconn import transfer
from totconn.graded import GradedVectorSpace
from totconn.linalg import Coordinates, accumulate
from totconn.minimal import hodge_decomposition
from totconn.scalars import bernoulli
from totconn.structures import (FiniteAlgebra, check_morphism,
                                check_shuffle_vanishing, check_stasheff,
                                check_unitality, shift_sign)
from totconn.transfer import (ArityCapError, HodgeError, TransferredAlgebra,
                              contraction_from_hodge, dupont_contraction,
                              identity_contraction, nc_space, nc_structure,
                              transfer_structure)
from tests.test_structures import all_words, heisenberg_cdga, torus_cdga


def test_bernoulli_oracle():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(5) == 0
    assert bernoulli(6) == Fraction(1, 42)


def test_identity_contraction_transfer_unchanged():
    alg = heisenberg_cdga()
    res = transfer_structure(identity_contraction(alg), 4)
    res.algebra.materialize(3)
    for k in (1, 2):
        for wrd, val in alg.maps.get(k, {}).items():
            assert res.algebra.maps.get(k, {}).get(wrd) == val
    assert 3 not in res.algebra.maps or not res.algebra.maps[3]


def test_zero_differential_gives_zero_homotopy():
    alg = torus_cdga()
    w_vectors = [{k: Fraction(1)} for k in alg.space.keys()]
    con = contraction_from_hodge(alg, w_vectors, [],
                                 names=[k[1] for k in alg.space.keys()])
    for k in alg.space.keys():
        assert con.homotopy({k: Fraction(1)}) == {}
    res = transfer_structure(con, 3)
    res.algebra.materialize(3)
    # the transferred structure is the same dga under renamed keys
    dx = {(1, "dx"): Fraction(1)}
    dy = {(1, "dy"): Fraction(1)}
    assert res.algebra.m(2, [dx, dy]) == {(2, "dxdy"): Fraction(1)}
    assert res.algebra.m(3, [dx, dy, dx]) == {}


def omega1_window(max_deg=4):
    """Finite truncation of the interval forms: 1..t^N, dt..t^{N-1}dt."""
    names0 = ["c%d" % k for k in range(max_deg + 1)]
    names1 = ["f%d" % k for k in range(max_deg)]
    space = GradedVectorSpace({0: names0, 1: names1})
    diff = {}
    for k in range(1, max_deg + 1):
        diff[(0, "c%d" % k)] = {(1, "f%d" % (k - 1)): Fraction(k)}
    return FiniteAlgebra.from_dga(space, diff, {}, kind="Ainf", arity_cap=3,
                                  unit_key=(0, "c0"))


def test_hodge_contraction_on_interval_window():
    alg = omega1_window()
    w = [{(0, "c0"): Fraction(1)}]
    m = [{(0, "c%d" % k): Fraction(1)} for k in range(1, 5)]
    con = contraction_from_hodge(alg, w, m, names=["one"])
    witnesses = [{k: Fraction(1)} for k in alg.space.keys()]
    assert con.verify_side_conditions(witnesses) == []


def test_hodge_validation_errors():
    alg = omega1_window()
    # W not closed
    with pytest.raises(HodgeError):
        contraction_from_hodge(alg, [{(0, "c1"): Fraction(1)}], [])
    # M contains an exact element: in degree 1, f0 = d(c1) is exact
    with pytest.raises(HodgeError):
        contraction_from_hodge(
            alg, [{(0, "c0"): Fraction(1)}],
            [{(0, "c%d" % k): Fraction(1)} for k in range(1, 5)]
            + [{(1, "f0"): Fraction(1)}])
    # not direct
    with pytest.raises(HodgeError):
        contraction_from_hodge(
            alg, [{(0, "c0"): Fraction(1)}, {(0, "c0"): Fraction(2)}],
            [{(0, "c%d" % k): Fraction(1)} for k in range(1, 5)])
    # M not homogeneous: c4 + f0 passes every other check
    mixed = {(0, "c4"): Fraction(1), (1, "f0"): Fraction(1)}
    with pytest.raises(HodgeError, match="M basis vector not homogeneous") as err:
        contraction_from_hodge(
            alg, [{(0, "c0"): Fraction(1)}],
            [{(0, "c%d" % k): Fraction(1)} for k in range(1, 4)] + [mixed])
    assert err.value.witness == mixed


def ref_hodge_maps(alg, w_vectors, m_vectors, names):
    """project and homotopy by one ``Coordinates`` elimination per vector."""
    dm_vectors = [alg.m(1, [m]) for m in m_vectors]
    coordinates = Coordinates(list(w_vectors) + list(m_vectors) + dm_vectors,
                              alg.space.key_order)
    w_keys = [(next(iter(v))[0], name) for name, v in zip(names, w_vectors)]
    base = len(w_vectors) + len(m_vectors)

    def coords(vec):
        cs, leftover = coordinates(vec)
        assert not leftover
        return cs

    def project(vec):
        cs = coords(vec)
        return {w_keys[j]: cs[j] for j in range(len(w_vectors)) if j in cs}

    def homotopy(vec):
        cs = coords(vec)
        return accumulate({}, ((k, -cs[base + j] * v) for j, mv in enumerate(m_vectors)
                               if base + j in cs for k, v in mv.items()))
    return project, homotopy


@functools.lru_cache(maxsize=None)
def hodge_windows():
    out = []
    for alg in (heisenberg_cdga(), omega1_window()):
        for pivot in ("lex", "shear"):
            w, m = hodge_decomposition(alg, pivot=pivot)
            names = ["h%d" % j for j in range(len(w))]
            out.append((alg, w, m, names))
    return tuple(out)


@given(st.data())
@settings(deadline=None, max_examples=40)
def test_hodge_maps_match_a_per_vector_elimination(data):
    alg, w, m, names = data.draw(st.sampled_from(hodge_windows()))
    con = contraction_from_hodge(alg, w, m, names=names)
    project, homotopy = ref_hodge_maps(alg, w, m, names)
    keys = alg.space.keys()
    vec = data.draw(st.dictionaries(st.sampled_from(keys),
                                    st.integers(-4, 4).filter(bool).map(Fraction),
                                    max_size=len(keys)))
    # the same values, keyed in the same order
    assert list(con.project(vec).items()) == list(project(vec).items())
    assert list(con.homotopy(vec).items()) == list(homotopy(vec).items())


def test_hodge_coordinates_are_read_once_per_key(monkeypatch):
    calls = []

    class Counted(transfer.Coordinates):
        def __call__(self, vec):
            calls.append(vec)
            return super().__call__(vec)

    monkeypatch.setattr(transfer, "Coordinates", Counted)
    alg, w, m, names = hodge_windows()[0]
    con = contraction_from_hodge(alg, w, m, names=names)
    assert calls == [{k: Fraction(1)} for k in alg.space.keys()]
    calls.clear()
    for k in alg.space.keys():
        con.project({k: Fraction(2)})
        con.homotopy({k: Fraction(-1)})
    res = transfer_structure(con, 3)
    res.algebra.materialize(3)
    assert calls == []


def test_dupont_contraction_side_conditions():
    from totconn.forms import simplex_monomials
    for n in (1, 2):
        con = dupont_contraction(n)
        witnesses = simplex_monomials(n, 3)
        assert con.verify_side_conditions(witnesses) == []


def test_nc0_structure_trivial():
    res = nc_structure(0, 4)
    alg = res.algebra
    alg.materialize(4)
    one = {(0, "1"): Fraction(1)}
    assert alg.m(2, [one, one]) == one
    for k in (3, 4):
        assert not alg.maps.get(k)


def test_nc1_bernoulli_products():
    res = nc_structure(1, 6)
    alg = res.algebra
    t = {(0, "v1"): Fraction(1)}
    dt = alg.m(1, [t])
    assert alg.m(2, [t, t]) == t
    for n in range(1, 6):
        want = bernoulli(n) / factorial(n)
        got = alg.m(n + 1, [t] + [dt] * n)
        dtk = (1, "L01")
        assert got.get(dtk, Fraction(0)) == want
        assert set(got) <= {dtk}


def test_nc1_binomial_symmetry():
    # the transferred products obey
    # m_{n+1}(dt^i, t, dt^{n-i}) = binom(n, i) m_{n+1}(t, dt, ..., dt);
    # the sign-free form is what the calibrated structure satisfies
    res = nc_structure(1, 6)
    alg = res.algebra
    t = {(0, "v1"): Fraction(1)}
    dt = alg.m(1, [t])
    for n in range(1, 5):
        base = alg.m(n + 1, [t] + [dt] * n)
        for i in range(n + 1):
            got = alg.m(n + 1, [dt] * i + [t] + [dt] * (n - i))
            want = {k: comb(n, i) * c for k, c in base.items()}
            assert got == want, (n, i)


def test_nc1_all_remaining_products_vanish():
    # beyond the unit laws, m_2(t,t), and the Bernoulli family, every
    # product of basis elements vanishes (checked exhaustively, arity <= 6)
    res = nc_structure(1, 6)
    alg = res.algebra
    alg.materialize(6)
    one = (0, "1")
    t = (0, "v1")
    dtk = (1, "L01")
    for k in range(2, 7):
        for wrd, val in alg.maps.get(k, {}).items():
            if one in wrd:
                assert k == 2 and val, wrd  # unit law only at arity 2
                continue
            n_t = wrd.count(t)
            n_dt = wrd.count(dtk)
            assert n_t + n_dt == k
            if k == 2 and n_t == 2:
                continue
            # exactly one t among dt's, value proportional to dt
            assert n_t == 1, (k, wrd, val)
            assert set(val) == {dtk}


def test_nc2_one_sixth_products():
    res = nc_structure(2, 4)
    alg = res.algebra
    L01 = {(1, "L01"): Fraction(1)}
    L02 = {(1, "L02"): Fraction(1)}
    L12 = {(1, "L12"): Fraction(1)}
    lam012 = {(2, "L012"): Fraction(1, 6)}
    assert alg.m(2, [L01, L02]) == lam012
    assert alg.m(2, [L01, L12]) == lam012
    assert alg.m(2, [L02, L12]) == lam012


def test_nc2_stasheff_and_shuffle_arity4():
    res = nc_structure(2, 4)
    alg = res.algebra
    probes = all_words(alg, 4)
    assert check_stasheff(alg, probes) == []
    assert check_shuffle_vanishing(alg, 4) == []


def test_nc2_unitality():
    res = nc_structure(2, 4)
    res.algebra.materialize(4)
    assert check_unitality(res.algebra) == []


def test_nc_memoized():
    assert nc_structure(1, 4) is nc_structure(1, 4)


def test_arity_cap_error():
    res = nc_structure(1, 3)
    t = {(0, "v1"): Fraction(1)}
    with pytest.raises(ArityCapError):
        res.algebra.m(4, [t, t, t, t])


def test_nc1_inclusion_morphism_arity5():
    res = nc_structure(1, 5)
    probes = all_words(res.algebra, 4)
    assert check_morphism(res.inclusion, probes) == []


def test_nc1_stasheff_exhaustive_arity6():
    # the interval structure satisfies all relations through arity 6
    res = nc_structure(1, 6)
    alg = res.algebra
    probes = list(alg.basis_words(5)) + list(alg.basis_words(6))
    assert check_stasheff(alg, probes) == []


def test_nc2_stasheff_exhaustive_arity5():
    # the long exhaustive invariant run on the triangle structure
    res = nc_structure(2, 5)
    alg = res.algebra
    probes = list(alg.basis_words(5))
    assert check_stasheff(alg, probes) == []


# -------------------------------------------------------------------
# the orbit fill against the per-word loop
# -------------------------------------------------------------------

def plain_dupont(n):
    """The Dupont contraction with its vertex symmetry taken off: a
    structure transferred along it evaluates every word on its own."""
    con = dupont_contraction(n)
    con.symmetry = None
    return con


@functools.lru_cache(maxsize=None)
def ref_materialize(n, arity):
    """The per-word loop: m_k on every word of arity 2..arity from that
    word's own lam, on a structure without symmetry, as a FiniteAlgebra."""
    alg = TransferredAlgebra(plain_dupont(n), arity)
    out = FiniteAlgebra(alg.space, kind="Cinf", arity_cap=arity,
                        unit_key=alg.unit_key)
    for wrd, val in alg.maps[1].items():
        out.set_value(1, wrd, val)
    for k in range(2, arity + 1):
        for wrd in itertools.product(alg.space.keys(), repeat=k):
            val = alg.contraction.project(alg.lam(wrd))
            if shift_sign([key[0] for key in wrd]) != 1:
                val = {key: -c for key, c in val.items()}
            out.set_value(k, wrd, val)
    return out


@pytest.mark.parametrize("n, arity", [(1, 5), (2, 4), (3, 3)])
def test_materialize_matches_the_per_word_loop(n, arity):
    alg = transfer_structure(dupont_contraction(n), arity).algebra
    alg.materialize(arity)
    assert alg.to_json() == ref_materialize(n, arity).to_json()


@st.composite
def lazy_calls(draw):
    """A structure size and a list of m calls on sums of 1-2 basis keys."""
    n, arity = draw(st.sampled_from([(1, 4), (2, 3), (2, 4), (3, 2), (3, 3)]))
    keys = dupont_contraction(n).small_space.keys()
    calls = []
    for _ in range(draw(st.integers(0, 12))):
        k = draw(st.integers(2, arity))
        elems = []
        for _ in range(k):
            picked = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2,
                                   unique=True))
            elems.append({key: Fraction(draw(st.sampled_from([-2, -1, 1, 3])))
                          for key in picked})
        calls.append((k, elems))
    return n, arity, calls


@given(lazy_calls())
@settings(deadline=None, max_examples=25)
def test_lazy_calls_then_materialize_match_the_per_word_loop(case):
    n, arity, calls = case
    ref = ref_materialize(n, arity)
    alg = transfer_structure(dupont_contraction(n), arity).algebra
    for k, elems in calls:
        assert alg.m(k, elems) == ref.m(k, elems)
    alg.materialize(arity)
    assert alg.to_json() == ref.to_json()


@given(st.data())
@settings(deadline=None, max_examples=25)
def test_words_of_an_empty_degree_are_skipped(data):
    # a word is evaluated on its first read (its representative looked
    # up) exactly when its output degree holds a basis key; entry is
    # empty on every skipped word, and the filled tables are the per-word
    # loop's
    n, arity = data.draw(st.sampled_from([(1, 4), (2, 3), (2, 4), (3, 2), (3, 3)]))
    alg = transfer_structure(dupont_contraction(n), arity).algebra
    keys = alg.space.keys()
    looked_up = []
    canonical = alg._canonical
    alg._canonical = lambda word: looked_up.append(word) or canonical(word)
    words = data.draw(st.lists(st.integers(2, arity).flatmap(
        lambda k: st.tuples(*[st.sampled_from(keys)] * k)), max_size=30))
    for word in words:
        k = len(word)
        first = (k, word) not in alg._done
        looked_up.clear()
        val = alg.entry(k, word)
        empty = sum(key[0] for key in word) + 2 - k not in alg.space.degrees
        if first:
            assert (looked_up[:1] != [word]) == empty, word
        if empty:
            assert looked_up == [] and val == {}, word
    alg.materialize(arity)
    assert alg.to_json() == ref_materialize(n, arity).to_json()


def test_relabelled_forms_match_a_fresh_evaluation(monkeypatch):
    # every lam and hlam on words of length <= 3 on the tetrahedron,
    # most of them relabelled from their representative, against their
    # own evaluation
    homotopies = []
    dupont_s = transfer.dupont_s
    monkeypatch.setattr(transfer, "dupont_s",
                        lambda form, n: homotopies.append(form) or dupont_s(form, n))
    alg = transfer_structure(dupont_contraction(3), 3).algebra
    alg.materialize(3)
    # one homotopy per orbit of words of length 2, the longest whose
    # hlam the arity-3 tree sums read, less the 5 orbits of degree sum 5
    # or 6: only arity-3 words of output degree 4 or more read them, and
    # nc(3) has no key there, so their tree sums are skipped
    assert len(homotopies) == 60
    plain = TransferredAlgebra(plain_dupont(3), 3)
    words = [w for k in (1, 2, 3) for w in itertools.product(alg.space.keys(), repeat=k)]
    for w in words:
        assert alg.lam(w) == plain.lam(w), w
        assert alg.hlam(w) == plain.hlam(w), w
    assert len(alg._lam) == len(plain._lam) == 2 * len(words)


def test_canonical_is_one_representative_per_orbit():
    # every word of length <= 3 on nc(3) against its orbit under the six
    # permutations that fix vertex 0, listed by brute force
    sym = dupont_contraction(3).symmetry
    keys = nc_space(3).keys()
    perms = [(0, *p) for p in itertools.permutations(range(1, 4))]
    for k in (1, 2, 3):
        orbits = set()
        for word in itertools.product(keys, repeat=k):
            rep, perm, sign = sym.canonical(word)
            assert sym.word(perm, rep) == (word, sign), word
            orbit = frozenset(sym.word(p, word)[0] for p in perms)
            assert rep in orbit
            assert {sym.canonical(image)[0] for image in orbit} == {rep}
            assert sym.canonical(rep) == (rep, perms[0], 1)
            orbits.add(orbit)
        if k == 2:
            assert len(orbits) == 65


def test_nc2_inclusion_morphism_arity3():
    res = nc_structure(2, 4)
    probes = list(res.algebra.basis_words(1)) + all_words(res.algebra, 3)
    assert check_morphism(res.inclusion, probes) == []


def test_transferred_tables_are_read_only():
    alg = nc_structure(2, 4).algebra
    ref = ref_materialize(2, 4)
    L01, L02, L12 = ((1, "L01"), (1, "L02"), (1, "L12"))
    words = [(L01, L02), (L12, L01, (0, "v1"))]
    alg.m(2, [{L01: Fraction(1)}, {L02: Fraction(1)}])
    for wrd in words:
        with pytest.raises(TypeError):
            alg.set_value(len(wrd), wrd, {(2, "L012"): Fraction(5)})
    # maps, its tables and their values are read-only views
    with pytest.raises(TypeError):
        alg.maps[2][(L01, L02)][(2, "L012")] = Fraction(5)
    with pytest.raises(TypeError):
        alg.maps[2][(L01, L02)] = {(2, "L012"): Fraction(5)}
    with pytest.raises(TypeError):
        alg.maps[2] = {}
    for wrd in words:
        elems = [{key: Fraction(1)} for key in wrd]
        assert alg.m(len(wrd), elems) == ref.m(len(wrd), elems)
    assert alg.m(2, [{L01: Fraction(1)}, {L02: Fraction(1)}]) == {(2, "L012"): Fraction(1, 6)}


def test_nc_space_names_need_one_digit_vertices():
    assert nc_space(9).keys(9) == [(9, "L0123456789")]
    with pytest.raises(ValueError, match="at most 9, got 10"):
        nc_space(10)


def test_gvs_json_roundtrip():
    from totconn.graded import GradedVectorSpace
    V = GradedVectorSpace({0: ["1"], 1: ["w1", "w2"]})
    assert GradedVectorSpace.from_json(V.to_json()).degrees == V.degrees
