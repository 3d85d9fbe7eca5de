import pytest

from test_acceptance import corpus_monoids

from monoidkit import monoids as mk
from monoidkit.asets import enumerate_asubsets
from monoidkit import spectra as sp
from monoidkit.errors import ImproperIdeal


def F1():
    return mk.build_from_presentation([], [], name="F1")


def idem2():
    return mk.build_from_presentation(["x", "y"], [("x^2", "x"), ("y^2", "y")])


def line(n):
    return mk.build_from_presentation(["x"], [(f"x^{n}", "0")])


def plane33():
    return mk.build_from_presentation(["x", "y"], [("x^3", "0"), ("y^3", "0")])


def test_ideal_generated():
    m = line(3)
    assert sp.ideal_generated(m, []).names() == ["0"]
    assert sp.ideal_generated(m, ["x"]).names() == ["0", "x", "x^2"]
    assert not sp.ideal_generated(m, ["1"]).is_proper


def test_all_ideals_are_proper():
    # over the zero monoid 1 = 0, so its one ideal is the unit ideal
    zero = mk.build_from_presentation([], [("1", "0")])
    assert sp.all_ideals(zero) == []
    for m in corpus_monoids():
        ideals = sp.all_ideals(m)
        assert ideals and all(i.is_proper for i in ideals), m.name


def test_ideal_lattice_is_swept_once_per_monoid(monkeypatch):
    sweeps = []
    monkeypatch.setattr(sp, "enumerate_asubsets",
                        lambda *a, **k: sweeps.append(1) or enumerate_asubsets(*a, **k))
    m = corpus_monoids()[0]
    first = sp.all_ideals(m)
    for i in first:
        sp.primary_decomposition(m, i)
        sp.associated_primes(m, i)
    first.clear()  # callers get a fresh list
    assert sp.all_ideals(m) and len(sweeps) == 1


def test_mspec_f1():
    primes = sp.mspec(F1())
    assert len(primes) == 1
    assert primes[0].names() == ["0"]
    assert str(primes[0]) == "(0)"


def test_mspec_idem2_matches_text():
    m = idem2()
    primes = sp.mspec(m)
    assert [str(p) for p in primes] == ["(0)", "(x)", "(y)", "(x, y)"]
    # oracle: full-lattice scan agrees
    assert [p.elements for p in primes] == [
        p.elements for p in sp.mspec_bruteforce(m)
    ]


def test_mspec_idempotent_cube():
    m = mk.build_from_presentation(
        ["x", "y", "z"], [("x^2", "x"), ("y^2", "y"), ("z^2", "z")]
    )
    assert len(sp.mspec(m)) == 8
    assert sp.dimension(m) == 3


def test_dimension_and_height():
    assert sp.dimension(F1()) == 0
    m = idem2()
    assert sp.dimension(m) == 2
    top = sp.ideal_generated(m, ["x", "y"])
    assert sp.height(m, sp.Ideal(m, top.elements)) == 2


def test_zero_not_prime_when_nilpotents():
    m = line(3)
    zero = sp.Ideal(m, frozenset({0}))
    assert not sp.is_prime(m, zero)


def test_primary_with_radical():
    m = plane33()
    i = sp.ideal_generated(m, ["x"])
    assert sp.is_primary(m, i)
    rad = sp.radical(m, i)
    assert sp.is_prime(m, rad)
    # y is nilpotent, so the radical is the whole maximal ideal (x, y)
    assert rad.elements == sp.ideal_generated(m, ["x", "y"]).elements
    assert str(rad) == "(x, y)"


def test_prime_is_primary_idem2():
    m = idem2()
    p = sp.ideal_generated(m, ["x", "y"])
    assert sp.is_prime(m, p)
    assert sp.is_primary(m, p)


def test_radical_idempotent_and_contains():
    m = plane33()
    for i in sp.all_ideals(m):
        if not i.is_proper:
            continue
        r = sp.radical(m, i)
        assert i.elements <= r.elements
        assert sp.radical(m, r).elements == r.elements


def test_radical_power_inside():
    # for each ideal there is n <= |M| with radical(I)^n inside I
    m = plane33()
    for i in sp.all_ideals(m):
        if not i.is_proper:
            continue
        r = sp.radical(m, i)
        power = set(r.elements)
        ok = power <= i.elements
        for _ in range(len(m.elements)):
            if ok:
                break
            power = {m.table[a][b] for a in power for b in r.elements}
            ok = power <= i.elements
        assert ok


def test_primary_decomposition_prime_is_itself():
    m = idem2()
    p = sp.ideal_generated(m, ["x"])
    comps = sp.primary_decomposition(m, p)
    assert len(comps) == 1 and comps[0].elements == p.elements


def test_primary_decomposition_xy():
    m = plane33()
    i = sp.ideal_generated(m, ["x*y"])
    comps = sp.primary_decomposition(m, i)
    inter = set(m.indices())
    for c in comps:
        inter &= c.elements
        assert sp.is_primary(m, c)
    assert inter == i.elements
    # components are the two coordinate primaries
    assert sorted(str(c) for c in comps) == ["(x)", "(y)"]


def test_primary_decomposition_zero_in_line():
    m = line(3)
    comps = sp.primary_decomposition(m, sp.Ideal(m, frozenset({0})))
    assert len(comps) == 1
    assert comps[0].elements == frozenset({0})


def test_primary_decomposition_rejects_unit_ideal():
    m = line(3)
    with pytest.raises(ImproperIdeal):
        sp.primary_decomposition(m, sp.Ideal(m, frozenset(m.indices())))


def test_ideal_quotient():
    m = line(3)
    x = m.index_of("x")
    zero = sp.Ideal(m, frozenset({0}))
    q = sp.ideal_quotient(m, zero, sp.ideal_generated(m, [x]))
    assert q.names() == ["0", "x^2"]
    j = sp.ideal_generated(m, [x])
    assert sp.ideal_quotient(m, j, sp.ideal_generated(m, [m.one])).elements == j.elements
    assert sp.annihilator(m, sp.Ideal(m, frozenset(m.indices()))).names() == ["0"]


def test_nilradical():
    m = line(3)
    assert sp.nilradical(m).names() == ["0", "x", "x^2"]
    assert sp.nilradical(idem2()).names() == ["0"]
    stabilized = mk.build_from_presentation(
        ["x", "y"], [("x^2", "y^2"), ("x^3", "y^3"), ("y^4", "y^3")]
    )
    assert sp.nilradical(stabilized).names() == ["0"]
    assert not mk.is_reduced(stabilized)[0]


def test_associated_primes_three_ways():
    m = plane33()
    i = sp.ideal_generated(m, ["x*y"])
    primes = sp.associated_primes(m, i)  # internal triple cross-check
    comps = sp.primary_decomposition(m, i)
    assert {p.elements for p in primes} == {
        sp.radical(m, c).elements for c in comps
    }


def test_associated_primes_of_prime():
    m = idem2()
    p = sp.ideal_generated(m, ["x"])
    primes = sp.associated_primes(m, p)
    assert len(primes) == 1 and primes[0].elements == p.elements


def test_union_of_primes_is_prime():
    for m in (idem2(), line(4)):
        primes = sp.mspec(m)
        for p in primes:
            for q in primes:
                union = p.elements | q.elements
                assert sp.is_prime(m, sp.Ideal(m, union))


def test_prime_search_vs_bruteforce_small():
    for m in (F1(), line(2), line(4), idem2(), plane33()):
        fast = [p.elements for p in sp.mspec(m)]
        slow = [p.elements for p in sp.mspec_bruteforce(m)]
        assert fast == slow


def test_tensor_ideal_boxes():
    a = line(2)
    b = mk.build_from_presentation(["y"], [("y^2", "0")])
    ab = mk.smash_product(a, b)
    for k in sp.all_ideals(ab):
        boxes = sp.tensor_ideal_decomposition(a, b, ab, k)
        i_sets = [i.elements for i, _ in boxes]
        assert len(i_sets) == len(set(i_sets))


def test_tensor_ideal_boxes_larger():
    a = mk.build_from_presentation(["x"], [("x^2", "x")])
    b = mk.build_from_presentation(["y"], [("y^3", "0")])
    ab = mk.smash_product(a, b)
    assert len(a.elements) <= 5 and len(b.elements) <= 5
    for k in sp.all_ideals(ab):
        sp.tensor_ideal_decomposition(a, b, ab, k)
