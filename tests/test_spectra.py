import itertools
import os
import subprocess
import sys

import pytest

from census import labeled_tables
from test_acceptance import corpus_monoids

from monoidkit import monoids as mk
from monoidkit import spectra as sp
from monoidkit.errors import ImproperIdeal, NotAnIdeal


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


def test_decomposition_never_sweeps_the_ideal_lattice(monkeypatch):
    sweeps = []
    m = corpus_monoids()[0]
    lattice = sp.all_ideals(m)
    monkeypatch.setattr(sp, "enumerate_asubsets", lambda *a, **k: sweeps.append(1))
    monkeypatch.setattr(sp, "all_ideals", lambda *a, **k: sweeps.append(1))
    for i in lattice:
        sp.primary_decomposition(m, i)
        sp.associated_primes(m, i)
    assert lattice and sweeps == []


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


def rejected_calls():
    """Calls on sets {0, x} that are not ideals, and on unit ideals, each
    with the error it must raise.  On these sets the old lattice search
    returned the set as its own component or raised OracleMismatch."""
    out = {}
    for m in corpus_monoids():
        if m.name not in ("line3", "cyc4", "idem2", "nonreduced-nil0"):
            continue
        not_ideal = [0, m.index_of("x")]
        for f in (sp.primary_decomposition, sp.associated_primes):
            out[f"{f.__name__} {m.name} {{0, x}}"] = (NotAnIdeal, lambda f=f, m=m: f(m, not_ideal))
            out[f"{f.__name__} {m.name} (1)"] = (ImproperIdeal, lambda f=f, m=m: f(m, m.indices()))
    return out


@pytest.mark.parametrize("name", sorted(rejected_calls()))
def test_decomposition_rejects_non_ideals_and_the_unit_ideal(name):
    error, call = rejected_calls()[name]
    with pytest.raises(error):
        call()


REJECTIONS_UNDER_O = """
import test_spectra as ts
for name, (error, call) in sorted(ts.rejected_calls().items()):
    try:
        call()
    except error:
        print("raised", name)
print("__debug__ =", __debug__)
"""


def test_rejections_survive_python_O():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(sp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    proc = subprocess.run([sys.executable, "-O", "-c", REJECTIONS_UNDER_O],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == [
        f"raised {name}" for name in sorted(rejected_calls())
    ] + ["__debug__ = False"]


def test_decomposition_of_every_census_ideal():
    # every proper ideal of every labeled table of order <= 5; the oracle
    # reads irreducibility off the ideal lattice, with no formula: an ideal
    # is irreducible when no two strictly larger ideals meet in it
    checked = 0
    for n in range(2, 6):
        for t in labeled_tables(n):
            m = mk.FiniteMonoid(f"T{n}", [str(i) for i in range(n)], t)
            lattice = [i.elements for i in sp.all_ideals(m)]
            irreducible = [
                c for c in lattice
                if not any(a & b == c for a, b in itertools.combinations(
                    [j for j in lattice if c < j], 2))
            ]
            for i in lattice:
                comps = [c.elements for c in sp.primary_decomposition(m, i)]
                assert all(c in irreducible for c in comps), (t, i)
                assert all(sp.is_primary(m, c) for c in comps), (t, i)
                assert frozenset.intersection(*comps) == i, (t, i)
                for k, c in enumerate(comps):
                    rest = comps[:k] + comps[k + 1:]
                    assert not rest or not frozenset.intersection(*rest) <= c, (t, i)
                above = [c for c in irreducible if i <= c]
                assert set(comps) == {c for c in above if not any(d < c for d in above)}
                checked += 1
    assert checked == 1 + 5 + 53 + 1079  # proper ideals at orders 2, 3, 4, 5


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
