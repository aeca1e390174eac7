import itertools
from fractions import Fraction

from totconn.forms import simplex_monomials
from totconn.graded import GradedVectorSpace
from totconn.linalg import vec_add
from totconn.structures import (FiniteAlgebra, FormsAlgebra, Homotopy,
                                InfinityMorphism, check_linfty,
                                check_morphism, check_shuffle_vanishing,
                                check_stasheff, check_unitality, delta_apply,
                                interval_tensor, shift_sign)
from totconn.transfer import nc_structure


def torus_cdga(arity_cap=4):
    """The exterior algebra on two degree-1 generators, zero differential."""
    space = GradedVectorSpace({0: ["1"], 1: ["dx", "dy"], 2: ["dxdy"]})
    prod = {}
    keys = space.keys()
    unit = (0, "1")
    for k in keys:
        prod[(unit, k)] = {k: Fraction(1)}
        if k != unit:
            prod[(k, unit)] = {k: Fraction(1)}
    prod[((1, "dx"), (1, "dy"))] = {(2, "dxdy"): Fraction(1)}
    prod[((1, "dy"), (1, "dx"))] = {(2, "dxdy"): Fraction(-1)}
    return FiniteAlgebra.from_dga(space, {}, prod, kind="Cinf",
                                  arity_cap=arity_cap, unit_key=unit)


def heisenberg_cdga(arity_cap=4):
    """Exterior algebra on e1,e2,e3 with d e3 = e1 e2."""
    space = GradedVectorSpace({0: ["1"], 1: ["e1", "e2", "e3"],
                               2: ["e12", "e13", "e23"], 3: ["e123"]})
    unit = (0, "1")
    gens = ["e1", "e2", "e3"]

    def mult(a, b):
        # exterior multiplication on sorted index words
        if a == "1":
            return b, 1
        if b == "1":
            return a, 1
        ia = [int(c) for c in a[1:]]
        ib = [int(c) for c in b[1:]]
        if set(ia) & set(ib):
            return None, 0
        merged = ia + ib
        sign = 1
        for x in ia:
            for y in ib:
                if x > y:
                    sign = -sign
        return "e" + "".join(map(str, sorted(merged))), sign

    def key_of(name):
        if name == "1":
            return (0, "1")
        return (len(name) - 1, name)

    prod = {}
    for da, names_a in space.degrees.items():
        for db, names_b in space.degrees.items():
            for a in names_a:
                for b in names_b:
                    name, sign = mult(a, b)
                    if sign and name in sum(space.degrees.values(), []):
                        prod[(key_of(a), key_of(b))] = {key_of(name): Fraction(sign)}
    diff = {(1, "e3"): {(2, "e12"): Fraction(1)}}
    # extend d by the Leibniz rule: d(e13) = -e1 e1 e2 = 0, d(e23) = 0...
    diff[(2, "e13")] = {}
    alg = FiniteAlgebra.from_dga(space, {k: v for k, v in diff.items() if v},
                                 prod, kind="Cinf", arity_cap=arity_cap,
                                 unit_key=unit)
    return alg


def all_words(alg, max_arity, degrees=None):
    probes = []
    for n in range(2, max_arity + 1):
        probes.extend(alg.basis_words(n, degrees=degrees))
    return probes


def test_shift_sign_small():
    assert shift_sign([1]) == 1
    assert shift_sign([1, 1]) == 1
    assert shift_sign([0, 1]) == -1
    assert shift_sign([2, 1]) == -1


def test_shift_sign_matches_the_closed_form():
    def closed_form(degrees):
        k = len(degrees)
        e = sum((k - j - 1) * (degrees[j] - 1) for j in range(k))
        return -1 if e % 2 else 1

    for k in range(7):
        for degrees in itertools.product(range(4), repeat=k):
            assert shift_sign(list(degrees)) == closed_form(degrees), degrees


def test_forms_dga_passes_stasheff():
    alg = FormsAlgebra(1)
    span = simplex_monomials(1, 2)
    probes = [p for n in (2, 3) for p in itertools.product(span, repeat=n)]
    assert check_stasheff(alg, probes) == []


def test_torus_cdga_passes_everything():
    alg = torus_cdga()
    assert check_stasheff(alg, all_words(alg, 3)) == []
    assert check_shuffle_vanishing(alg, 3) == []
    assert check_unitality(alg) == []


def test_heisenberg_cdga_is_a_dga():
    alg = heisenberg_cdga()
    assert check_stasheff(alg, all_words(alg, 3)) == []
    assert check_shuffle_vanishing(alg, 3) == []


def test_transferred_structure_passes_and_mutation_detected():
    res = nc_structure(1, 4)
    alg = res.algebra
    probes = all_words(alg, 4)
    assert check_stasheff(alg, probes) == []
    # corrupt one structure constant by +1: detected at arity 3
    bad = FiniteAlgebra(alg.space, kind="Ainf", arity_cap=4, unit_key=alg.unit_key)
    alg.materialize(4)
    for k, table in alg.maps.items():
        for wrd, val in table.items():
            bad.set_value(k, wrd, val)
    t = (0, "v1")
    dtk = (1, "L01")
    cur = bad.maps.get(2, {}).get((t, dtk), {})
    bad.set_value(2, (t, dtk), vec_add(cur, {dtk: Fraction(1)}))
    fails = check_stasheff(bad, all_words(bad, 3))
    assert fails


def test_shuffle_mutation_detected():
    res = nc_structure(1, 3)
    alg = res.algebra
    alg.materialize(3)
    mut = FiniteAlgebra(alg.space, kind="Cinf", arity_cap=3, unit_key=alg.unit_key)
    for k, table in alg.maps.items():
        for wrd, val in table.items():
            mut.set_value(k, wrd, val)
    # add a symmetric arity-3 term: A-infinity-but-not-C-infinity mutant
    t = (0, "v1")
    dtk = (1, "L01")
    cur = dict(mut.maps.get(3, {}).get((t, t, dtk), {}))
    mut.set_value(3, (t, t, dtk), vec_add(cur, {t: Fraction(1)}))
    assert check_shuffle_vanishing(mut, 3)


def test_identity_morphism_passes():
    alg = torus_cdga()
    ident = InfinityMorphism.identity(alg)
    assert check_morphism(ident, all_words(alg, 3)) == []


def test_transfer_inclusion_passes_morphism():
    res = nc_structure(1, 5)
    alg = res.algebra
    probes = all_words(alg, 4)
    assert check_morphism(res.inclusion, probes) == []


def test_unitality_of_transferred_structure():
    res = nc_structure(1, 4)
    res.algebra.materialize(4)
    assert check_unitality(res.algebra) == []


def nilpotent_dg_lie():
    """Three-dimensional nilpotent Lie algebra in degree 0: [x,y]=z."""
    space = GradedVectorSpace({0: ["x", "y", "z"]})
    alg = FiniteAlgebra(space, kind="Linf", arity_cap=3)
    x, y, z = (0, "x"), (0, "y"), (0, "z")
    alg.set_value(2, (x, y), {z: Fraction(1)})
    alg.set_value(2, (y, x), {z: Fraction(-1)})
    return alg


def test_dg_lie_passes_linfty():
    alg = nilpotent_dg_lie()
    assert check_linfty(alg, all_words(alg, 3)) == []


def test_linfty_mutation_detected():
    alg = nilpotent_dg_lie()
    x, y, z = (0, "x"), (0, "y"), (0, "z")
    alg.set_value(2, (x, z), {x: Fraction(1)})
    alg.set_value(2, (z, x), {x: Fraction(-1)})
    fails = check_linfty(alg, all_words(alg, 3))
    assert fails  # Jacobi broken: [[z,x],y] = -z, the other two terms vanish


def test_interval_tensor_of_dga_passes():
    alg = torus_cdga()
    omega_a, ev0, ev1 = interval_tensor(alg)
    base_words = list(alg.basis_words(2))[:10]
    probes = []
    for w in base_words:
        probes.append([omega_a.include(e) for e in w])
        probes.append([{(1, False): e} for e in w])  # t (x) e
    assert check_stasheff(omega_a, probes) == []
    assert check_morphism(ev0, probes) == []
    assert check_morphism(ev1, probes) == []


def test_interval_evaluations():
    alg = torus_cdga()
    omega_a, ev0, ev1 = interval_tensor(alg)
    a = {(1, "dx"): Fraction(1)}
    t_a = {(1, False): a}
    # i_0 sends t to 1, i_1 sends t to 0
    assert ev0.apply(1, [t_a]) == a
    assert ev1.apply(1, [t_a]) == {}
    assert omega_a.degree({(0, True): a}) == 2


def test_homotopy_container_endpoints():
    alg = torus_cdga()
    omega_a, ev0, ev1 = interval_tensor(alg)
    incl = InfinityMorphism(alg, omega_a,
                            components={1: lambda es: omega_a.include(es[0])})
    f = InfinityMorphism.identity(alg)
    H = Homotopy(incl, f, f)
    probes = [list(w) for w in alg.basis_words(1)]
    assert H.check_endpoints(probes) == []


def test_coderivation_square_matches_checker():
    """Independent oracle: expand delta as a full coderivation on words and
    square it; zero iff the corestriction relation holds."""
    res = nc_structure(1, 3)
    alg = res.algebra
    alg.materialize(3)

    def delta_on_word(word_keys):
        # word of basis keys -> {output word: coeff}, using delta_apply
        out = {}
        n = len(word_keys)
        for q in range(1, n + 1):
            for p in range(0, n - q + 1):
                degs = [k[0] for k in word_keys]
                sign = -1 if sum(d - 1 for d in degs[:p]) % 2 else 1
                middle = [{k: Fraction(1)} for k in word_keys[p:p + q]]
                val = delta_apply(alg, q, middle, degs[p:p + q])
                for key, c in val.items():
                    w2 = word_keys[:p] + (key,) + word_keys[p + q:]
                    out[w2] = out.get(w2, Fraction(0)) + sign * c
                    if not out[w2]:
                        del out[w2]
        return out

    keys = alg.space.keys()
    for n in (1, 2, 3):
        for word_keys in itertools.product(keys, repeat=n):
            first = delta_on_word(word_keys)
            total = {}
            for w2, c in first.items():
                for w3, c2 in delta_on_word(w2).items():
                    total[w3] = total.get(w3, Fraction(0)) + c * c2
                    if not total[w3]:
                        del total[w3]
            assert total == {}, (word_keys, total)

    # ...and exactly when: a corrupted structure fails both ways
    bad = FiniteAlgebra(alg.space, kind="Ainf", arity_cap=3,
                        unit_key=alg.unit_key)
    for k, table in alg.maps.items():
        for wrd, val in table.items():
            bad.set_value(k, wrd, val)
    t = (0, "v1")
    dtk = (1, "L01")
    cur = dict(bad.maps.get(2, {}).get((t, dtk), {}))
    bad.set_value(2, (t, dtk), vec_add(cur, {dtk: Fraction(1)}))
    assert check_stasheff(bad, all_words(bad, 3))

    def bad_delta(word_keys):
        out = {}
        n = len(word_keys)
        for q in range(1, n + 1):
            for p in range(0, n - q + 1):
                degs = [k[0] for k in word_keys]
                sign = -1 if sum(d - 1 for d in degs[:p]) % 2 else 1
                middle = [{k: Fraction(1)} for k in word_keys[p:p + q]]
                val = delta_apply(bad, q, middle, degs[p:p + q])
                for key, c in val.items():
                    w2 = word_keys[:p] + (key,) + word_keys[p + q:]
                    out[w2] = out.get(w2, Fraction(0)) + sign * c
                    if not out[w2]:
                        del out[w2]
        return out

    square_broken = False
    for n in (2, 3):
        for word_keys in itertools.product(keys, repeat=n):
            total = {}
            for w2, c in bad_delta(word_keys).items():
                for w3, c2 in bad_delta(w2).items():
                    total[w3] = total.get(w3, Fraction(0)) + c * c2
                    if not total[w3]:
                        del total[w3]
            if total:
                square_broken = True
    assert square_broken


def test_window_honored_by_one_truncated():
    space = GradedVectorSpace({1: ["a"], 2: ["b"]})
    alg = FiniteAlgebra(space, kind="1Cinf", arity_cap=3)
    assert alg.in_window(2, ((1, "a"), (1, "a")))
    assert not alg.in_window(2, ((1, "a"), (2, "b")))
