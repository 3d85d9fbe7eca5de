import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from census import census
from monoidkit import asets as ak
from monoidkit import monoids as mk
from monoidkit.errors import (
    BoundExceeded,
    NotACongruence,
    NotAnIdeal,
    OracleMismatch,
    ValidationError,
    ZeroInS,
    ZeroNotPrime,
)


def F1():
    return mk.build_from_presentation([], [], name="F1")


def truncated_line(n):
    """F1[x]/(x^n)."""
    return mk.build_from_presentation(["x"], [(f"x^{n}", "0")])


def idem1():
    return mk.build_from_presentation(["x"], [("x^2", "x")])


def idem2():
    return mk.build_from_presentation(["x", "y"], [("x^2", "x"), ("y^2", "y")])


def pointed_cycle(n):
    """C_n: cyclic group of order n with adjoined zero."""
    return mk.build_from_presentation(["x"], [(f"x^{n}", "1")])


# -- presentations ----------------------------------------------------------


def test_empty_presentation_is_f1():
    m = F1()
    assert m.elements == ["0", "1"]
    assert m.table == [[0, 0], [0, 1]]
    assert mk.validate(m).ok


def test_presentation_idempotent_generator():
    # oracle: closed by hand over words of length <= 3
    m = idem1()
    assert m.elements == ["0", "1", "x"]
    x = m.index_of("x")
    assert m.mul(x, x) == x


def test_presentation_bound_exceeded_for_infinite_monoid():
    with pytest.raises(BoundExceeded):
        mk.build_from_presentation(["x", "y"], [("x*y", "0")], bound=10)


def test_presentation_truncated_line():
    m = truncated_line(3)
    assert m.elements == ["0", "1", "x", "x^2"]
    x = m.index_of("x")
    assert m.mul(x, x) == m.index_of("x^2")
    assert m.mul(m.mul(x, x), x) == 0


def test_presentation_word_equivalence_oracle():
    # brute-force oracle: enumerate words up to length 6 and check the
    # quotient map respects the closure for x^3 = x
    m = mk.build_from_presentation(["x"], [("x^3", "x")])
    assert m.elements == ["0", "1", "x", "x^2"]
    x = m.index_of("x")
    # x^4 = x^2, x^5 = x^3 = x ...
    assert m.power(x, 4) == m.power(x, 2)
    assert m.power(x, 5) == x


def present_by_table(m):
    """Generators g<i> for the nonzero non-units, one relation per product."""
    nonunit = [i for i in m.indices() if i not in (0, m.one)]
    gname = {i: f"g{i}" for i in nonunit}
    gname.update({0: "0", m.one: "1"})
    rels = [(f"{gname[a]}*{gname[b]}", gname[m.mul(a, b)])
            for a in nonunit for b in nonunit]
    return [gname[i] for i in nonunit], rels


def test_represent_roundtrip_isomorphic():
    # re-presenting a table by all its elements and full relations gives an
    # isomorphic table
    m = idem2()
    m2 = mk.build_from_presentation(*present_by_table(m))
    assert mk.monoid_isomorphic(m, m2) is not None


def census_monoids(n):
    tables, classes = census(n)
    as_monoid = lambda t: mk.FiniteMonoid(f"T{n}", [str(i) for i in range(n)], t)
    return [(as_monoid(t), c) for t, c in tables], [(as_monoid(c), c) for c in classes]


def test_census_counts():
    counts = [tuple(map(len, census(n))) for n in range(2, 6)]
    assert counts == [(1, 1), (3, 3), (19, 11), (255, 53)]


def test_monoid_isomorphic_matches_canonical_forms():
    # every labeled table of order <= 5 against every class representative:
    # a map exists iff the canonical forms agree, and it preserves products
    for n in range(2, 6):
        tables, reps = census_monoids(n)
        for (a, ca), (b, cb) in itertools.product(tables, reps):
            f = mk.monoid_isomorphic(a, b)
            assert (f is not None) == (ca == cb), (a.table, b.table)
            if f is not None:
                assert sorted(f) == list(range(n))
                assert all(b.table[f[x]][f[y]] == f[a.table[x][y]]
                           for x in range(n) for y in range(n))


def relabeled(m, perm):
    """``m`` with element i renamed perm[i]; perm fixes 0 and 1."""
    inv = sorted(m.indices(), key=perm.__getitem__)
    table = [[perm[m.table[i][j]] for j in inv] for i in inv]
    return mk.FiniteMonoid(m.name + "'", [m.elements[i] for i in inv], table)


def assert_isomorphism(a, b, f):
    n = len(a.elements)
    assert sorted(f) == list(range(n)) and f[0] == 0 and f[a.one] == b.one
    assert all(b.table[f[x]][f[y]] == f[a.table[x][y]] for x in range(n) for y in range(n))


def test_monoid_isomorphic_above_the_census():
    # products and smash products of census classes (orders 10-25), each
    # against seeded relabelings of itself and against another monoid
    # built the same way from classes of the same orders.  The greedy
    # generator sweep of a relabeling often keeps an element that later
    # generators reach; at least one case must have such a redundant one.
    reps = {n: [m for m, _ in census_monoids(n)[1]] for n in (3, 4, 5)}
    sizes = [(mk.product, p, q) for p in (3, 4, 5) for q in (p, 5) if p * q >= 10]
    sizes += [(mk.smash_product, p, q) for p in (4, 5) for q in (p, 5)]
    rng = random.Random(29)
    redundant = other_idempotents = 0
    for _ in range(40):
        build, p, q = rng.choice(sizes)
        a = build(rng.choice(reps[p]), rng.choice(reps[q]))
        b = build(rng.choice(reps[p]), rng.choice(reps[q]))
        n = len(a.elements)
        assert 10 <= n <= 25
        for _ in range(2):
            c = relabeled(a, [0, 1] + rng.sample(range(2, n), n - 2))
            gens = c.generators
            redundant += any(g in c.submonoid_closure(gens[:i] + gens[i + 1:])
                             for i, g in enumerate(gens))
            assert_isomorphism(a, c, mk.monoid_isomorphic(a, c))
            assert_isomorphism(c, a, mk.monoid_isomorphic(c, a))
        f = mk.monoid_isomorphic(a, b)
        if len(mk.idempotents(a)) != len(mk.idempotents(b)):
            other_idempotents += 1
            assert f is None, (a.table, b.table)
        elif f is not None:
            assert_isomorphism(a, b, f)
    assert redundant and other_idempotents


def test_monoid_isomorphic_rejects_pairs_told_apart_by_ideal_sizes():
    # 60 seeded pairs of products and smash products of census classes of
    # one order (10-25), the second relabeled, whose sorted principal
    # ideal sizes |xA| differ: an invariant the search does not read, so
    # no isomorphism may be returned
    reps = {n: [m for m, _ in census_monoids(n)[1]] for n in (3, 4, 5)}
    sizes = [(mk.product, p, q) for p in (3, 4, 5) for q in (p, 5) if p * q >= 10]
    sizes += [(mk.smash_product, p, q) for p in (4, 5) for q in (p, 5)]

    def ideal_sizes(m):
        return sorted(len(set(row)) for row in m.table)

    rng = random.Random(30)
    pairs = 0
    while pairs < 60:
        build, p, q = rng.choice(sizes)
        a = build(rng.choice(reps[p]), rng.choice(reps[q]))
        b = build(rng.choice(reps[p]), rng.choice(reps[q]))
        n = len(a.elements)
        if ideal_sizes(a) == ideal_sizes(b):
            continue
        assert 10 <= n <= 25
        c = relabeled(b, [0, 1] + rng.sample(range(2, n), n - 2))
        assert mk.monoid_isomorphic(a, c) is None, (a.table, c.table)
        assert mk.monoid_isomorphic(c, a) is None, (a.table, c.table)
        pairs += 1


def test_monoid_isomorphic_refuses_generators_that_miss_an_element():
    line2 = mk.build_from_presentation(["x"], [("x^2", "0")])
    bare = mk.FiniteMonoid("bare", line2.elements, line2.table, generators=[])
    assert not mk.validate(bare).ok
    with pytest.raises(ValidationError, match="leave an element unreached"):
        mk.monoid_isomorphic(bare, line2)


def test_every_small_class_presented_by_its_table():
    for n in range(2, 6):
        for m, _ in census_monoids(n)[1]:
            m2 = mk.build_from_presentation(*present_by_table(m))
            assert mk.monoid_isomorphic(m, m2) is not None, m.table


def test_zero_monoid_presentation():
    m = mk.build_from_presentation(["x"], [("1", "0")])
    assert m.elements == ["0"]


def test_presentation_that_collapses_to_f1():
    # y = x^2*y*y^2 = 0, and then x = x*y^4 = 0
    m = mk.build_from_presentation(
        ["x", "y"], [("x*y^4", "x"), ("y^2", "0"), ("y", "x^2*y^3"), ("y^2", "x*y")]
    )
    assert m.elements == ["0", "1"]


def random_presentation(rng):
    """1-3 generators and 1-4 relations between words of degree <= 5."""
    g = rng.randint(1, 3)
    gens = ["x", "y", "z"][:g]

    def word():
        exps = [0] * g
        for _ in range(rng.randint(0, 5)):
            exps[rng.randrange(g)] += 1
        return tuple(exps)

    rels = [(word(), "0" if rng.random() < 0.25 else word())
            for _ in range(rng.randint(1, 4))]
    return gens, rels


# Of 400 presentations drawn from random.Random(0), the degree-window closure
# that coset enumeration replaced built 164.  WINDOW_DIGEST is the sha256 of
# their [index, elements, table, generators] lists as JSON, taken from that
# closure; it raised BoundExceeded on the presentations below, which
# enumeration builds with these sizes.
WINDOW_DIGEST = "1351478dc4415fbda1a90412f1ab85e1f298ad25352a3c916ead9e5568641209"
PAST_THE_WINDOW = {
    1: 1, 2: 3, 4: 5, 11: 4, 15: 2, 29: 5, 39: 4, 47: 9, 61: 1, 62: 3, 63: 1,
    64: 7, 66: 1, 68: 3, 75: 1, 78: 1, 80: 3, 86: 1, 87: 4, 93: 4, 96: 2,
    98: 2, 99: 2, 100: 1, 116: 6, 123: 1, 129: 4, 140: 1, 143: 3, 150: 2,
    152: 1, 159: 1, 163: 1, 167: 5, 169: 1, 179: 8, 182: 2, 184: 1, 186: 1,
    188: 2, 192: 4, 193: 1, 212: 2, 214: 2, 216: 3, 217: 1, 219: 4, 223: 2,
    237: 1, 238: 3, 243: 6, 249: 1, 252: 5, 254: 2, 278: 3, 284: 2, 285: 12,
    305: 2, 307: 1, 311: 1, 313: 1, 329: 11, 338: 2, 341: 2, 344: 3, 347: 4,
    350: 1, 356: 3, 359: 10, 373: 1, 374: 2, 375: 2, 376: 1, 387: 5, 392: 1,
    395: 3, 398: 4,
}


def presents(m, gens, rels):
    """Brute force: some choice of generator images makes every element the
    value of its own name and every relation hold."""
    def value(image, word):
        exps = mk.parse_word(word, gens)
        if exps is None:
            return 0
        acc = m.one
        for k, e in enumerate(exps):
            for _ in range(e):
                acc = m.mul(acc, image[k])
        return acc

    choices = [[m.index_of(x)] if x in m.elements else m.indices() for x in gens]
    return any(
        all(value(image, name) == i for i, name in enumerate(m.elements))
        and all(value(image, u) == value(image, v) for u, v in rels)
        for image in itertools.product(*choices)
    )


def test_random_presentations_against_the_window_closure():
    rng = random.Random(0)
    built, past = [], {}
    for i in range(400):
        gens, rels = random_presentation(rng)
        try:
            m = mk.build_from_presentation(gens, rels)
        except BoundExceeded:
            continue
        if i in PAST_THE_WINDOW:
            past[i] = len(m.elements)
            assert mk.validate(m).ok and presents(m, gens, rels), (gens, rels)
        else:
            built.append([i, m.elements, m.table, m.generators])
    assert past == PAST_THE_WINDOW
    assert hashlib.sha256(json.dumps(built).encode()).hexdigest() == WINDOW_DIGEST


def test_corrupt_enumeration_raises_oracle_mismatch(monkeypatch):
    enumerate_nodes = mk._enumerate_nodes

    def corrupt(g, traced, bound):
        rows = enumerate_nodes(g, traced, bound)
        rows[max(rows)][0] = max(rows)  # x^3 = x^2 in place of x^3 = 0
        return rows

    monkeypatch.setattr(mk, "_enumerate_nodes", corrupt)
    with pytest.raises(OracleMismatch):
        mk.build_from_presentation(["x"], [("x^3", "0")])


# -- validation -------------------------------------------------------------


def test_validate_flags_noncommutative():
    m = F1()
    bad = mk.FiniteMonoid(
        "bad",
        ["0", "1", "x", "y"],
        [
            [0, 0, 0, 0],
            [0, 1, 2, 3],
            [0, 2, 0, 2],
            [0, 3, 3, 0],
        ],
    )
    rep = mk.validate(bad)
    assert not rep.ok
    assert any(v.kind == "Commutativity" for v in rep.violations)


def test_validate_ok_on_derived_tables():
    for m in [F1(), idem1(), idem2(), truncated_line(4), pointed_cycle(3)]:
        assert mk.validate(m).ok, mk.validate(m)


# -- units / idempotents / nilpotents ----------------------------------------


def test_units_idempotents_nilpotents_idem1():
    m = idem1()
    assert [m.elements[i] for i in mk.units(m)] == ["1"]
    assert [m.elements[i] for i in mk.idempotents(m)] == ["0", "1", "x"]
    assert [m.elements[i] for i in mk.nilpotents(m)] == ["0"]


def test_nilpotents_power_scan():
    m = truncated_line(3)
    assert [m.elements[i] for i in mk.nilpotents(m)] == ["0", "x", "x^2"]


def test_pointed_group_units():
    for n in (2, 3, 4):
        m = pointed_cycle(n)
        assert len(mk.units(m)) == n


def test_is_reduced():
    ok, _ = mk.is_reduced(F1())
    assert ok
    bad, witness = mk.is_reduced(truncated_line(2))
    assert not bad and set(witness) == {"x", "0"}
    # the stabilized x^2=y^2, x^3=y^3 example: not reduced, no nilpotents
    m = mk.build_from_presentation(
        ["x", "y"], [("x^2", "y^2"), ("x^3", "y^3"), ("y^4", "y^3")]
    )
    red, witness = mk.is_reduced(m)
    assert not red and set(witness) == {"x", "y"}
    assert [m.elements[i] for i in mk.nilpotents(m)] == ["0"]


# -- quotients ---------------------------------------------------------------


def test_quotient_by_zero_ideal_is_identity():
    m = idem2()
    q, hom = mk.quotient(m, [0])
    assert q.elements == m.elements
    assert hom.mapping == list(range(len(m.elements)))


def test_quotient_by_congruence():
    m = mk.build_from_presentation(["x"], [("x^3", "x")])
    x = m.index_of("x")
    x2 = m.index_of("x^2")
    cong = ak.congruence_closure(ak.aset_from_monoid(m), [(x2, x)])
    q, hom = mk.quotient(m, cong)
    assert sorted(q.elements) == ["0", "1", "x"]
    xq = q.index_of("x")
    assert q.mul(xq, xq) == xq


def test_quotient_congruence_collapse_to_zero():
    # over F1[x]/(x^3), merging x^2 with x drags x to 0 by closure
    m = truncated_line(3)
    pair = (m.index_of("x^2"), m.index_of("x"))
    q, _ = mk.quotient(m, ak.congruence_closure(ak.aset_from_monoid(m), [pair]))
    assert q.elements == ["0", "1"]


def test_quotient_by_ideal():
    m = truncated_line(3)
    q, hom = mk.quotient(m, [0, m.index_of("x^2")])
    assert sorted(q.elements) == ["0", "1", "x"]
    xq = q.index_of("x")
    assert q.mul(xq, xq) == 0


def test_quotient_by_a_set_that_is_no_ideal_raises():
    m = truncated_line(3)
    x, x2 = m.index_of("x"), m.index_of("x^2")
    with pytest.raises(NotAnIdeal, match="an ideal must contain 0"):
        mk.quotient(m, [x2])
    with pytest.raises(NotAnIdeal, match="x\\^2 escapes the ideal"):
        mk.quotient(m, [0, x])
    with pytest.raises(NotAnIdeal, match="must contain 0"):
        mk.quotient(m, [])
    # names work as well as indices
    q, _ = mk.quotient(m, ["0", "x^2"])
    assert q.elements == ["0", "1", "x"]


def test_quotient_by_a_partition_that_is_no_congruence_raises():
    m = truncated_line(3)
    x, x2 = m.index_of("x"), m.index_of("x^2")
    reps = list(range(len(m.elements)))
    reps[x2] = 1  # x^2 ~ 1, but x.x^2 = 0 and x.1 = x stay apart
    with pytest.raises(NotACongruence):
        mk.quotient(m, ak.ASetCongruence(ak.aset_from_monoid(m), reps))
    reps[x2], reps[x] = 0, 0  # x ~ x^2 ~ 0 is the ideal (x)
    q, hom = mk.quotient(m, ak.ASetCongruence(ak.aset_from_monoid(m), reps))
    assert q.elements == ["0", "1"] and hom.mapping == [0, 1, 0, 0]


@pytest.mark.parametrize("reps", [[0, 1], [0, 1, 2, 3, 3], [0, 1, 2, 4]])
def test_quotient_by_labels_of_the_wrong_shape_raises(reps):
    """Labels must name a point of A for each point of A (4 on F1[x]/(x^3))."""
    m = truncated_line(3)
    with pytest.raises(NotACongruence, match="labels each of its 4 points"):
        mk.quotient(m, ak.ASetCongruence(ak.aset_from_monoid(m), reps))


# -- products ----------------------------------------------------------------


def test_smash_identity():
    b = truncated_line(3)
    s = mk.smash_product(F1(), b)
    assert mk.monoid_isomorphic(s, b) is not None


def test_smash_cardinality():
    a = truncated_line(2)
    b = mk.build_from_presentation(["y"], [("y^2", "0")])
    s = mk.smash_product(a, b)
    assert len(s.elements) == (len(a.elements) - 1) * (len(b.elements) - 1) + 1
    assert mk.validate(s).ok


def test_smash_commutative_associative():
    a, b, c = truncated_line(2), idem1(), pointed_cycle(2)
    ab = mk.smash_product(a, b)
    ba = mk.smash_product(b, a)
    assert mk.monoid_isomorphic(ab, ba) is not None
    abc1 = mk.smash_product(ab, c)
    abc2 = mk.smash_product(a, mk.smash_product(b, c))
    assert mk.monoid_isomorphic(abc1, abc2) is not None


def test_product_size():
    a, b = truncated_line(2), idem1()
    p = mk.product(a, b)
    assert len(p.elements) == len(a.elements) * len(b.elements)
    assert mk.validate(p).ok


# -- localization -------------------------------------------------------------


def test_localize_at_units_is_identity():
    m = pointed_cycle(3)
    loc, hom = mk.localize(m, [m.index_of("x")])
    assert mk.monoid_isomorphic(m, loc) is not None
    assert hom.is_injective()


def test_localize_idem2_at_y():
    m = idem2()
    loc, _ = mk.localize(m, [m.index_of("y")])
    expected = idem1()
    assert mk.monoid_isomorphic(loc, expected) is not None


def test_localize_at_nilpotent_gives_zero_monoid():
    m = truncated_line(3)
    loc, hom = mk.localize(m, [m.index_of("x")])
    assert loc.elements == ["0"]
    assert set(hom.mapping) == {0}


def test_localize_keeps_its_name_when_s_reaches_zero():
    m = truncated_line(2)
    assert mk.localize(m, [m.index_of("x")], name="Q")[0].name == "Q"
    assert mk.localize(m, [], name="Q")[0].name == "Q"
    assert mk.localize(m, [m.index_of("x")])[0].name == f"{m.name}_loc"


def test_localize_explicit_zero_raises():
    m = truncated_line(3)
    with pytest.raises(ZeroInS):
        mk.localize(m, [0])


def test_localize_equals_localize_at_saturation():
    m = idem2()
    s = [m.index_of("y")]
    sat = mk.saturation(m, s)
    loc1, _ = mk.localize(m, s)
    loc2, _ = mk.localize(m, sat)
    assert mk.monoid_isomorphic(loc1, loc2) is not None
    assert m.index_of("y") in sat and 0 not in sat


# -- group completion ----------------------------------------------------------


def test_group_completion_pointed_group_is_itself():
    m = pointed_cycle(4)
    g, hom = mk.group_completion(m)
    assert mk.monoid_isomorphic(m, g) is not None
    assert hom.is_injective()


def test_group_completion_monogenic_symbolic():
    desc = mk.group_completion(mk.MonogenicMonoid())
    assert desc.free_rank == 1 and not desc.torsion_orders


def test_group_completion_affine_gcd():
    aff = mk.AffineMonoid("A", 1, [(2,), (3,)])
    desc = mk.group_completion(aff)
    assert desc.free_rank == 1


def test_group_completion_requires_zero_prime():
    with pytest.raises(ZeroNotPrime):
        mk.group_completion(truncated_line(3))


def test_group_completion_noninjective_on_noncancellative():
    m = idem1()  # x^2 = x is not cancellative but (0) is prime
    g, hom = mk.group_completion(m)
    assert not hom.is_injective()


# -- cancellativity -------------------------------------------------------------


def test_cancellative_checks():
    ok, _ = mk.is_cancellative(pointed_cycle(3))
    assert ok
    bad, witness = mk.is_cancellative(truncated_line(3))
    assert not bad
    ok, _ = mk.is_cancellative(mk.AffineMonoid("A", 2, [(1, 0), (0, 1)]))
    assert ok


def test_smash_unsupported_for_monogenic():
    from monoidkit.errors import UnsupportedBackend

    with pytest.raises(UnsupportedBackend):
        mk.smash_product(mk.MonogenicMonoid(), mk.MonogenicMonoid())


def test_monogenic_basics():
    m = mk.MonogenicMonoid()
    assert m.mul(2, 3) == 5
    assert m.mul(None, 3) is None
    assert mk.units(m) == [0]
    assert mk.idempotents(m) == [None, 0]
    assert mk.nilpotents(m) == [None]


# -- bounded affine membership ------------------------------------------------


def sums_up_to(gens, bound):
    """Brute force: sum(c_i g_i) over coefficient vectors with sum(c) <= bound."""
    rank = len(gens[0])
    return {
        tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(rank))
        for coeffs in itertools.product(range(bound + 1), repeat=len(gens))
        if sum(coeffs) <= bound
    }


@st.composite
def small_charts(draw):
    """Rank 1-2, 2-4 generators with entries in -2..3 (zero and dependent
    generators included), bound 2-5."""
    rank = draw(st.integers(1, 2))
    entry = st.integers(-2, 3)
    gens = draw(st.lists(st.tuples(*[entry] * rank), min_size=2, max_size=4))
    return gens, draw(st.integers(2, 5))


@settings(max_examples=300, deadline=None)
@given(small_charts())
def test_bounded_membership_matches_brute_force(chart):
    gens, bound = chart
    rank = len(gens[0])
    aff = mk.AffineMonoid("A", rank, gens)
    want = sums_up_to(gens, bound)
    assert set(aff.bounded_elements(bound)) == want
    assert set(aff.bounded_elements(bound - 1)) == sums_up_to(gens, bound - 1)
    window = range(-2 * bound - 1, 3 * bound + 2)
    for v in itertools.product(window, repeat=rank):
        assert aff.contains(v, bound) == (v in want), v


@pytest.mark.parametrize(
    "gens, bound, member",
    [
        ([(-2,), (0,), (-2,), (1,)], 5, (-10,)),
        ([(-2, 2), (-1, 1), (1, 2), (-1, 0)], 3, (-6, 6)),
    ],
)
def test_bounded_membership_keeps_late_members(gens, bound, member):
    # a member first reached along a long path must not be lost when a
    # shorter path reaches it later
    aff = mk.AffineMonoid("A", len(member), gens)
    assert member in aff.bounded_elements(bound)
    assert aff.contains(member, bound)
    assert set(aff.bounded_elements(bound)) == sums_up_to(gens, bound)


def test_bound_zero_is_only_the_identity():
    # an explicit bound of 0 is a bound, not "use the default"
    aff = mk.AffineMonoid("A", 1, [(1,)])
    assert aff.bounded_elements(0) == {(0,)}
    assert not aff.contains((3,), 0)
    assert aff.contains((3,))


@pytest.mark.parametrize("bound", [-1, -2, "8", 2.0, True, False])
def test_explicit_bound_must_be_a_nonnegative_int(bound):
    # a negative bound used to act as 0: contains((0,), -1) was True
    aff = mk.AffineMonoid("A", 1, [(1,)])
    with pytest.raises(ValidationError, match="bound"):
        aff.contains((0,), bound)
    with pytest.raises(ValidationError, match="bound"):
        aff.bounded_elements(bound)


def test_generator_is_a_member_without_a_level_set():
    aff = mk.AffineMonoid("A", 2, [(1, 0), (3, -2)])
    assert aff.contains((3, -2), 1) and aff.contains([1, 0])
    assert aff._level_sets == {}
    assert not aff.contains((3, -2), 0)  # bound 0 holds the identity alone
    for bound in (-1, "1", True):
        with pytest.raises(ValidationError, match="bound"):
            aff.contains((1, 0), bound)
    assert aff.contains((4, -2), 2) and set(aff._level_sets) == {0, 2}


def test_out_of_box_or_wrong_length_vector_is_not_a_member():
    # gens [(1, 0)], bound 1: radius 1, radix 3, and (-2, 1) packs to
    # -2 + 3 = 1, the code of the member (1, 0)
    aff = mk.AffineMonoid("A", 2, [(1, 0)])
    assert aff.contains((1, 0), 1)
    for v in [(-2, 1), (4, -1), (), (1,), (1, 0, 0)]:
        assert not aff.contains(v, 1), v


@pytest.mark.parametrize(
    "gens, bound",
    [
        ([(1, 0, 0), (-1, 0, 0), (0, 1, 1)], 3),
        ([(2, -1, 0), (0, 1, -2), (-1, 0, 1), (0, 0, 0)], 2),
        ([(1, -2, 1), (-2, 1, 1), (1, 1, -2), (0, -1, 0)], 2),
    ],
)
def test_rank3_membership_matches_brute_force(gens, bound):
    # negative entries and non-pointed generator sets, over a window two
    # wider than the packing's box [-R, R] on every axis
    aff = mk.AffineMonoid("A", 3, gens)
    want = sums_up_to(gens, bound)
    assert set(aff.bounded_elements(bound)) == want
    radius = bound * max(abs(x) for g in gens for x in g)
    window = range(-radius - 2, radius + 3)
    for v in itertools.product(window, repeat=3):
        assert aff.contains(v, bound) == (v in want), v


@pytest.mark.parametrize("bound", [0, -2, "8", 2.0, True, None])
def test_degree_bound_must_be_a_positive_int(bound):
    with pytest.raises(ValidationError, match="degree_bound"):
        mk.AffineMonoid("A", 1, [(1,)], degree_bound=bound)
