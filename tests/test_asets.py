import hashlib
import itertools
import random

import pytest
from test_acceptance import corpus_monoids

from monoidkit import _kernels
from monoidkit import asets as ak
from monoidkit import homological as hm
from monoidkit import monoids as mk
from monoidkit.errors import (
    BoundExceeded,
    NotACongruence,
    NotAES,
    NotASubset,
    ValidationError,
)


def F1():
    return mk.build_from_presentation([], [], name="F1")


def line(n):
    return mk.build_from_presentation(["x"], [(f"x^{n}", "0")])


def idem2():
    return mk.build_from_presentation(["x", "y"], [("x^2", "x"), ("y^2", "y")])


def pointed_set(k):
    """k-point pointed set as an F1-set."""
    m = F1()
    carrier = ["0"] + [f"e{i}" for i in range(1, k)]
    action = [[0] * k, list(range(k))]
    return ak.ASet(m, carrier, action=action, name=f"S{k}")


def test_aset_validation_monoid_on_itself():
    for m in (F1(), line(3), idem2()):
        x = ak.aset_from_monoid(m)
        assert ak.validate_aset(x).ok


def test_free_aset_cardinality():
    m = line(3)
    for k in range(4):
        f = ak.free_aset(m, [f"g{i}" for i in range(k)])
        assert len(f.carrier) == k * (len(m.elements) - 1) + 1
        assert ak.validate_aset(f).ok


def test_free_aset_is_a_wedge_of_copies_and_free_cover_evaluates():
    for m in (idem2(), line(3)):
        a = ak.aset_from_monoid(m)
        for k in range(1, 4):
            f = ak.free_aset(m, [f"g{i}" for i in range(k)])
            assert f.action == ak.wedge([a] * k).action
    # cell a[label_k] goes to a.points[k] whatever the carrier names: this
    # X over line3 names both of its nonzero points "p"
    m = line(3)
    x = ak.build_action_from_gen_maps(m, ["0", "p", "p"], [[0, 2, 0]])
    assert ak.validate_aset(x).ok
    cover = ak.free_cover(x, [2, 1], labels=["u", "v"], name="P")
    assert cover.source.name == "P" and cover.validate().ok
    assert cover.source.carrier == ["0", "1[u]", "x[u]", "x^2[u]", "1[v]", "x[v]", "x^2[v]"]
    assert cover.mapping == [0, 2, 0, 0, 1, 2, 0]


def test_free_aset_over_f1_is_pointed_set():
    f = ak.free_aset(F1(), ["a", "b"])
    assert len(f.carrier) == 3


def test_free_aset_monogenic_needs_bound():
    with pytest.raises(BoundExceeded):
        ak.free_aset(mk.MonogenicMonoid(), ["a"])


def test_quotient_by_fold_congruence():
    # folding the two wedge summands of A v A recovers A
    m = line(3)
    a = ak.aset_from_monoid(m)
    w = ak.wedge([a, a])
    pairs = [
        (w.wedge_offsets[0] + i - 1, w.wedge_offsets[1] + i - 1)
        for i in a.nonzero()
    ]
    q, proj = ak.quotient_aset(w, pairs)
    assert ak.is_isomorphic(q, a)
    assert proj.is_surjective()


def test_congruence_closure_line():
    m = line(3)
    x = ak.aset_from_monoid(m)
    cong = ak.congruence_closure(x, [(x.carrier.index("x"), 0)])
    classes = [c for c in cong.classes() if len(c) > 1]
    assert classes == [[0, m.index_of("x"), m.index_of("x^2")]]


def test_congruence_closure_matches_naive_oracle():
    # every pair seed over every small A-set built from self-maps
    m = line(3)
    x = ak.aset_from_monoid(m)
    n = len(x.carrier)
    for p, q in itertools.combinations(range(n), 2):
        fast = ak.congruence_closure(x, [(p, q)]).reps
        slow = ak.congruence_closure_naive(x, [(p, q)]).reps
        assert fast == slow


def test_congruence_closure_oracle_monogenic():
    # every self-map on a 4-point carrier, every seed pair
    for theta_tail in itertools.product(range(4), repeat=3):
        x = ak.aset_from_theta([0] + list(theta_tail))
        for p, q in itertools.combinations(range(4), 2):
            fast = ak.congruence_closure(x, [(p, q)]).reps
            slow = ak.congruence_closure_naive(x, [(p, q)]).reps
            assert fast == slow


def test_quotient_by_subset():
    m = line(3)
    a = ak.aset_from_monoid(m)
    ix = sorted({m.table[i][m.index_of("x")] for i in m.indices()})
    q, proj = ak.quotient_by_subset(a, ix)
    assert len(q.carrier) == 2  # {0, 1}
    assert proj.is_surjective()


def test_quotient_by_nonsubset_raises():
    m = line(3)
    a = ak.aset_from_monoid(m)
    with pytest.raises(NotASubset):
        ak.quotient_by_subset(a, [0, m.index_of("x")])  # x*x = x^2 escapes


def test_fold_map_sentinel():
    # trivial kernel, surjective, NOT injective, NOT admissible
    m = line(2)
    a = ak.aset_from_monoid(m)
    w = ak.wedge([a, a])
    fold = ak.ASetMorphism(
        w, a, [0] + [i for part in (a, a) for i in part.nonzero()]
    )
    assert fold.validate().ok
    assert fold.is_surjective()
    assert fold.kernel_indices() == [0]
    assert not fold.is_injective()
    assert not fold.is_admissible()


def test_inclusions_are_admissible():
    m = line(3)
    a = ak.aset_from_monoid(m)
    sub = [0, m.index_of("x^2")]
    s = ak.sub_aset(a, sub)
    inc = ak.inclusion_morphism(s, sub, a)
    assert inc.validate().ok
    assert inc.is_admissible()


def test_zero_map_admissible_with_full_kernel():
    m = line(3)
    a = ak.aset_from_monoid(m)
    z = ak.zero_morphism(a, a)
    assert z.is_admissible()
    assert z.kernel_indices() == list(range(len(a.carrier)))


def test_first_isomorphism_for_admissible():
    m = line(3)
    a = ak.aset_from_monoid(m)
    # projection to A/(x^2) is admissible: quotient by the ideal subset
    ix2 = sorted({m.table[i][m.index_of("x^2")] for i in m.indices()})
    q, proj = ak.quotient_by_subset(a, ix2)
    assert proj.is_admissible()
    ker = ak.kernel_aset(proj)
    qq, _ = ak.quotient_by_subset(a, proj.kernel_indices())
    assert ak.is_isomorphic(qq, ak.image_aset(proj))


def test_hom_count_over_f1():
    x, y = pointed_set(3), pointed_set(4)
    homs = ak.hom_enumerate(x, y)
    assert len(homs) == len(y.carrier) ** (len(x.carrier) - 1)


def test_hom_free_forgetful_adjunction():
    # Hom_A(A, X) = X as A-sets
    m = line(3)
    a = ak.aset_from_monoid(m)
    x = ak.sub_aset(a, [0, m.index_of("x"), m.index_of("x^2")])
    h = ak.hom_aset(a, x)
    assert ak.is_isomorphic(h, x)


def test_hom_to_zero():
    x = pointed_set(3)
    z = pointed_set(1)
    homs = ak.hom_enumerate(x, z)
    assert len(homs) == 1 and homs[0].mapping == [0, 0, 0]


def corpus_classes(max_carrier=5):
    """The A-set classes of carrier <= max_carrier over each corpus finite
    monoid with at most 5 elements, one list per monoid."""
    return [
        [x for c in range(1, max_carrier + 1) for x in ak.enumerate_asets(m, c)]
        for m in corpus_monoids(max_size=5)
    ]


def small_aset_classes(max_carrier):
    """Per base: ``corpus_classes(max_carrier)``, then every monogenic theta."""
    out = corpus_classes(max_carrier)
    out.append([
        ak.aset_from_theta((0,) + tail)
        for c in range(1, max_carrier + 1)
        for tail in itertools.product(range(c), repeat=c - 1)
    ])
    return out


def test_hom_enumerate_matches_brute_force():
    # every based map that validates, in lexicographic order
    for classes in small_aset_classes(3):
        for x, y in itertools.product(classes, repeat=2):
            brute = [
                list(m)
                for m in itertools.product(
                    [0], *[range(len(y.carrier))] * (len(x.carrier) - 1)
                )
                if ak.ASetMorphism(x, y, m).validate().ok
            ]
            assert [h.mapping for h in ak.hom_enumerate(x, y)] == brute, (x, y)


def test_section_exists_exactly_when_some_hom_is_one():
    for classes in small_aset_classes(4):
        for x in classes:
            for sub in ak.enumerate_asubsets(x):
                _, f = ak.quotient_by_subset(x, sub)
                ident = list(range(len(f.target.carrier)))
                some = any(
                    f.compose(h).mapping == ident
                    for h in ak.hom_enumerate(f.target, f.source)
                )
                s = ak.section(f)
                assert (s is not None) == some, (x, sub)
                if s is not None:
                    assert s.validate().ok and f.compose(s).mapping == ident, (x, sub)


def test_split_check_retractions_match_hom_filter():
    # every sub-A-set of every monogenic action table with carrier <= 5
    for c in range(1, 6):
        for tail in itertools.product(range(c), repeat=c - 1):
            y = ak.aset_from_theta((0,) + tail)
            for sub in ak.enumerate_asubsets(y):
                g = ak.inclusion_morphism(ak.sub_aset(y, sub), sub, y)
                _, f = ak.quotient_by_subset(y, sub)
                ident = list(range(len(g.source.carrier)))
                retractions = [
                    r for r in ak.hom_enumerate(y, g.source) if r.compose(g).mapping == ident
                ]
                rep = ak.split_check(g, f)
                assert rep.has_retraction == bool(retractions), (tail, sub)
                assert rep.has_admissible_retraction == any(
                    r.is_admissible() for r in retractions
                ), (tail, sub)


def _acting_elements(x):
    """Elements whose action the checks below compare: all of a finite
    base; zero and t^0 .. t^(|X|+1) over the monogenic base."""
    if isinstance(x.base, mk.MonogenicMonoid):
        return [None] + list(range(len(x.carrier) + 2))
    return list(x.base.indices())


def _commutes(source, target, mapping):
    return all(
        mapping[source.act(a, p)] == target.act(a, mapping[p])
        for a in _acting_elements(source)
        for p in range(len(source.carrier))
    )


def _is_morphism(source, target, mapping):
    return ak.ASetMorphism(source, target, mapping).validate().ok and _commutes(
        source, target, mapping
    )


def _check_unary_constructions(x):
    n = len(x.carrier)
    elems = _acting_elements(x)
    # validate accepts exactly the based maps commuting with every element
    for tail in itertools.product(range(n), repeat=n - 1):
        f = [0, *tail]
        assert ak.ASetMorphism(x, x, f).validate().ok == _commutes(x, x, f)
    r = x.relabeled("R")
    assert (r.name, r.action, r.carrier) == ("R", x.action, x.carrier)
    assert _is_morphism(x, r, list(range(n)))
    z = ak.zero_aset(x.base)
    assert ak.validate_aset(z).ok and all(z.act(a, 0) == 0 for a in elems)
    assert _is_morphism(x, z, [0] * n) and _is_morphism(z, x, [0])
    for sub in ak.enumerate_asubsets(x):
        s = ak.sub_aset(x, sub)
        assert ak.validate_aset(s).ok and s.carrier == [x.carrier[p] for p in sub]
        assert all(sub[s.act(a, i)] == x.act(a, p) for a in elems for i, p in enumerate(sub))
        assert _is_morphism(s, x, sub)
    for cong in ak.enumerate_congruences(x):
        q, proj = ak.quotient_aset(x, cong)
        assert ak.validate_aset(q).ok and proj.is_surjective()
        assert _is_morphism(x, q, proj.mapping)
        assert all(
            (proj(p) == proj(p2)) == (cong.reps[p] == cong.reps[p2])
            for p in range(n) for p2 in range(n)
        )


def _check_binary_constructions(x, y):
    elems = _acting_elements(x)
    w = ak.wedge([x, y])
    assert ak.validate_aset(w).ok and len(w.carrier) == len(x.carrier) + len(y.carrier) - 1
    for part, incl in zip((x, y), ak.wedge_inclusions(w)):
        assert _is_morphism(part, w, incl.mapping)
    s = ak.smash(x, y)
    assert ak.validate_aset(s).ok
    node = {(i, j): k + 1 for k, (i, j) in enumerate(itertools.product(x.nonzero(), y.nonzero()))}
    for a in elems:
        for (i, j), k in node.items():
            assert s.act(a, k) == node.get((x.act(a, i), y.act(a, j)), 0)
    t = ak.tensor(x, y)
    assert ak.validate_aset(t).ok

    def cls(i, j):
        return t.pair_class.get((i, j), 0)

    # [-, j] and [i, -] are morphisms, and (a.i, j) ~ (i, a.j) for every a
    for j in range(len(y.carrier)):
        assert _is_morphism(x, t, [cls(i, j) for i in range(len(x.carrier))])
    for i in range(len(x.carrier)):
        assert _is_morphism(y, t, [cls(i, j) for j in range(len(y.carrier))])
    # the classes are exactly those of the interchange moves over every element
    moves = [
        (node.get((x.act(a, i), j), 0), node.get((i, y.act(a, j)), 0))
        for a in elems for i, j in node
    ]
    reps = _kernels.closure(len(node) + 1, [], moves)
    assert all(
        (cls(*u) == cls(*v)) == (reps[node[u]] == reps[node[v]]) for u in node for v in node
    )
    h = ak.hom_aset(x, y)
    assert ak.validate_aset(h).ok
    maps = [f.mapping for f in h.morphisms]
    assert sorted(maps) == [f.mapping for f in ak.hom_enumerate(x, y)] and not any(maps[0])
    for a in elems:
        for k, f in enumerate(maps):
            assert maps[h.act(a, k)] == [f[x.act(a, p)] for p in range(len(x.carrier))]
    for p in range(len(x.carrier)):
        assert _is_morphism(h, y, [f[p] for f in maps])  # evaluation at p


def test_constructions_act_by_definition_on_both_bases():
    # every monogenic table of carrier <= 4, and every line(3) table
    thetas = [
        ak.aset_from_theta((0,) + tail)
        for c in range(1, 5)
        for tail in itertools.product(range(c), repeat=c - 1)
    ]
    m = line(3)
    tables = [x for c in range(1, 5) for x in ak.enumerate_asets(m, c, up_to_iso=False)]
    for family in (thetas, tables):
        for x in family:
            _check_unary_constructions(x)
        # each table against every table of carrier <= 3, on either side
        small = [y for y in family if len(y.carrier) <= 3]
        for x, y in itertools.product(family, small):
            _check_binary_constructions(x, y)
            _check_binary_constructions(y, x)


def test_wedge_smash_tensor_over_f1():
    x, y = pointed_set(3), pointed_set(4)
    w = ak.wedge([x, y])
    assert len(w.carrier) == 3 + 4 - 1
    s = ak.smash(x, y)
    assert len(s.carrier) == (3 - 1) * (4 - 1) + 1
    t = ak.tensor(x, y)
    # over F1 the tensor is the smash product
    assert ak.is_isomorphic(t, s)


def test_tensor_unit():
    m = line(3)
    a = ak.aset_from_monoid(m)
    x = ak.sub_aset(a, [0, m.index_of("x"), m.index_of("x^2")], name="I")
    t = ak.tensor(x, a)
    assert ak.is_isomorphic(t, x)
    t2 = ak.tensor(a, x)
    assert ak.is_isomorphic(t2, x)


def test_tensor_commutative_associative_distributive():
    m = idem2()
    a = ak.aset_from_monoid(m)
    x = ak.sub_aset(a, sorted({m.table[i][m.index_of("x")] for i in m.indices()}))
    y = ak.sub_aset(a, sorted({m.table[i][m.index_of("y")] for i in m.indices()}))
    assert ak.is_isomorphic(ak.tensor(x, y), ak.tensor(y, x))
    t1 = ak.tensor(ak.tensor(x, y), a)
    t2 = ak.tensor(x, ak.tensor(y, a))
    assert ak.is_isomorphic(t1, t2)
    # (X v Y) tensor Z = (X tensor Z) v (Y tensor Z)
    w = ak.wedge([x, y])
    lhs = ak.tensor(w, y)
    rhs = ak.wedge([ak.tensor(x, y), ak.tensor(y, y)])
    assert ak.is_isomorphic(lhs, rhs)


def test_tensor_quotient_compatibility():
    # (X/Y) tensor Z = (X tensor Z)/(Y tensor Z)
    m = line(3)
    a = ak.aset_from_monoid(m)
    sub = [0, m.index_of("x"), m.index_of("x^2")]
    y = ak.sub_aset(a, sub)
    q, _ = ak.quotient_by_subset(a, sub)
    z = ak.sub_aset(a, [0, m.index_of("x^2")])
    lhs = ak.tensor(q, z)
    az = ak.tensor(a, z)
    # image of Y tensor Z inside A tensor Z
    img = sorted({az.pair_class[(p, j)] for p in sub[1:] for j in z.nonzero()})
    rhs, _ = ak.quotient_by_subset(az, [0] + img)
    assert ak.is_isomorphic(lhs, rhs)


def test_localize_aset_at_units():
    m = idem2()
    a = ak.aset_from_monoid(m)
    xs, hom, unit = ak.localize_aset(a, [m.one])
    assert ak.is_isomorphic(xs, a)


def test_localize_aset_torsion_kill():
    # x/1 = 0 iff ann(x) meets S
    m = idem2()
    a = ak.aset_from_monoid(m)
    x_el = m.index_of("x")
    xs, hom, unit = ak.localize_aset(a, [m.index_of("y")])
    # ann(x) = {0}: x survives
    assert unit.mapping[x_el] != 0
    m2 = mk.build_from_presentation(["x", "y"], [("x*y", "0"), ("x^2", "x"), ("y^2", "y")])
    a2 = ak.aset_from_monoid(m2)
    xs2, hom2, unit2 = ak.localize_aset(a2, [m2.index_of("y")])
    # now y kills x, so x/1 = 0
    assert unit2.mapping[m2.index_of("x")] == 0


def test_localized_aset_is_tensor_with_localized_base():
    m = idem2()
    a = ak.aset_from_monoid(m)
    x = ak.sub_aset(a, sorted({m.table[i][m.index_of("x")] for i in m.indices()}))
    xs, hom, _ = ak.localize_aset(x, [m.index_of("y")])
    # restrict scalars on S^-1 A and tensor
    loc_as_aset = ak.ASet(
        m,
        list(hom.target.elements),
        action=[
            [hom.target.table[hom(a_i)][b] for b in hom.target.indices()]
            for a_i in m.indices()
        ],
        name="S^-1A",
    )
    t = ak.tensor(x, loc_as_aset)
    assert ak.is_isomorphic(
        ak.ASet(m, xs.carrier, action=[
            [xs.action[hom(a_i)][p] for p in range(len(xs.carrier))]
            for a_i in m.indices()
        ]),
        t,
    )


def test_enumerate_asubsets_f1():
    x = pointed_set(3)
    subs = ak.enumerate_asubsets(x)
    assert len(subs) == 4  # any subset containing 0
    m = line(3)
    a = ak.aset_from_monoid(m)
    subs = ak.enumerate_asubsets(a)
    # ideals of F1[x]/(x^3): 0, (x^2), (x), A
    assert [len(s) for s in subs] == [1, 2, 3, 4]


def test_enumerate_congruences_contains_subset_congruences():
    m = line(3)
    a = ak.aset_from_monoid(m)
    congs = ak.enumerate_congruences(a)
    reps_set = {tuple(c.reps) for c in congs}
    for sub in ak.enumerate_asubsets(a):
        cong = ak.congruence_closure(a, [(p, 0) for p in sub])
        assert tuple(cong.reps) in reps_set


def test_enumerate_congruences_counts_partitions_over_f1():
    x = pointed_set(3)
    congs = ak.enumerate_congruences(x)
    assert len(congs) == 5  # Bell(3)


def test_enumerate_bound():
    x = pointed_set(3)
    with pytest.raises(BoundExceeded):
        ak.enumerate_asubsets(x, bound=1)


def test_split_check_trivial_wedge():
    m = line(2)
    a = ak.aset_from_monoid(m)
    z = ak.sub_aset(a, [0, m.index_of("x")], name="Z")
    w = ak.wedge([a, z])
    incs = ak.wedge_inclusions(w)
    g = incs[0]
    proj_map = [0] * len(w.carrier)
    for i in z.nonzero():
        proj_map[w.wedge_offsets[1] + i - 1] = i
    f = ak.ASetMorphism(w, z, proj_map)
    assert f.validate().ok
    rep = ak.split_check(g, f)
    assert rep.splits and rep.wedge_isomorphic


def test_split_check_nonsplitting_sentinel():
    # Y = (A v A')/(x^n = x'^n) over A = F1[x]/(x^2n), n = 2:
    # a retraction exists but is not admissible; no section; no splitting
    n = 2
    m = line(2 * n)
    a = ak.aset_from_monoid(m)
    w = ak.wedge([a, a])
    xn = m.index_of(f"x^{n}")
    off = w.wedge_offsets
    g1 = off[0] + xn - 1
    g2 = off[1] + xn - 1
    y, proj = ak.quotient_aset(w, [(g1, g2)], name="Y")
    # inclusion of A as the second summand
    inc = ak.ASetMorphism(a, y, [proj.mapping[0] ] + [
        proj.mapping[off[1] + i - 1] for i in a.nonzero()
    ])
    assert inc.validate().ok
    assert inc.is_injective()
    coker, cproj = ak.quotient_by_subset(y, sorted(set(inc.mapping)))
    rep = ak.split_check(inc, cproj)
    assert not rep.splits
    assert rep.has_retraction
    assert not rep.has_admissible_retraction


def test_torsion_free_quotient_splits():
    # any a.e.s. ending in a torsion-free A-set splits
    m = line(3)
    a = ak.aset_from_monoid(m)
    # Z = pointed group-like: single fixed point under x? over F1[x]/(x^3)
    # torsion free means ax != 0 for nonzero a, x; x^3 = 0 makes most torsion;
    # use the F1 base instead
    x, z = pointed_set(3), pointed_set(2)
    w = ak.wedge([x, z])
    g = ak.wedge_inclusions(w)[0]
    pm = [0] * len(w.carrier)
    for i in z.nonzero():
        pm[w.wedge_offsets[1] + i - 1] = i
    f = ak.ASetMorphism(w, z, pm)
    assert ak.split_check(g, f).splits


def test_splitting_decomposition_on_trivial_kernel():
    # f: X -> wedge Y_i with trivial kernel decomposes X into preimages
    m = F1()
    x = pointed_set(5)
    y1, y2 = pointed_set(3), pointed_set(3)
    w = ak.wedge([y1, y2])
    f = ak.ASetMorphism(x, w, [0, 1, 2, 3, 4])
    assert f.validate().ok and f.kernel_indices() == [0]
    pre1 = [p for p in range(5) if f.mapping[p] in (0, 1, 2)]
    pre2 = [p for p in range(5) if f.mapping[p] in (0, 3, 4)]
    x1 = ak.sub_aset(x, pre1)
    x2 = ak.sub_aset(x, pre2)
    assert ak.is_isomorphic(x, ak.wedge([x1, x2]))


def test_canonical_key_dedup():
    x1 = ak.aset_from_theta([0, 2, 0])
    x2 = ak.aset_from_theta([0, 0, 1])
    x3 = ak.aset_from_theta([0, 0, 0])
    assert ak.canonical_key(x1) == ak.canonical_key(x2)
    assert ak.canonical_key(x1) != ak.canonical_key(x3)
    assert ak.is_isomorphic(x1, x2)
    assert not ak.is_isomorphic(x1, x3)


def _assert_isomorphism(x, y, f):
    assert f is not None, (x.name, y.name)
    g = ak.ASetMorphism(x, y, f)
    assert g.validate().ok and g.is_injective() and g.is_surjective()


def test_is_isomorphic_agrees_with_canonical_key():
    # every same-size pair of classes, a class with itself included
    for classes in corpus_classes():
        keys = [ak.canonical_key(x) for x in classes]
        for (x, kx), (y, ky) in itertools.product(zip(classes, keys), repeat=2):
            if len(x.carrier) == len(y.carrier):
                f = ak.find_isomorphism(x, y)
                assert (f is not None) == (kx == ky), (x.base.name, x.action, y.action)
                if f is not None:
                    _assert_isomorphism(x, y, f)


def test_wedge_is_isomorphic_to_its_relabelings():
    # each wedge of two classes against a relabeling s t s^-1 that fixes
    # the basepoint
    rng = random.Random(16)
    for classes in corpus_classes(max_carrier=3):
        for x, y in itertools.combinations_with_replacement(classes, 2):
            w = ak.wedge([x, y])
            n = len(w.carrier)
            s = [0] + rng.sample(range(1, n), n - 1)
            inverse = sorted(range(n), key=s.__getitem__)
            action = [[s[row[q]] for q in inverse] for row in w.action]
            relabeled = ak.ASet(w.base, w.carrier, action)
            assert ak.validate_aset(relabeled).ok
            _assert_isomorphism(w, relabeled, ak.find_isomorphism(w, relabeled))


def test_fixed_points_are_not_a_two_cycle():
    # over cyc4 = {0, 1, x, x^2, x^3}, colour refinement alone cannot tell
    # four fixed points from two fixed points and a 2-cycle
    (m,) = [m for m in corpus_monoids() if m.name == "cyc4"]
    carrier = ["0", "p1", "p2", "p3", "p4"]
    x = ak.build_action_from_gen_maps(m, carrier, [[0, 1, 2, 3, 4]])
    y = ak.build_action_from_gen_maps(m, carrier, [[0, 1, 2, 4, 3]])
    assert ak.validate_aset(x).ok and ak.validate_aset(y).ok
    xyx, xxx = ak.wedge([x, y, x]), ak.wedge([x, x, x])
    # the fixed-point pattern of the point classes decides it before any search
    assert sorted(ak._classes(xyx)) != sorted(ak._classes(xxx))
    assert not ak.is_isomorphic(xyx, xxx)
    assert ak.is_isomorphic(ak.wedge([x, y, x]), ak.wedge([y, x, x]))


def _smallest_generating_size(x, span):
    """Brute force: the size of the smallest subset of the span that
    generates it."""
    nonzero = sorted(span - {0})
    return next(r for r in range(len(nonzero) + 1)
                for combo in itertools.combinations(nonzero, r)
                if ak.generated_subset(x, combo) == span)


def test_aset_generators_are_a_smallest_generating_set():
    # on every corpus class of carrier <= 5, every monogenic class of
    # carrier <= 6 and the joint kernel of a resolution's first level,
    # the generators are sorted, generate the span, and no smaller subset
    # of the span does
    cases = [(x, None) for classes in corpus_classes() for x in classes]
    cases += [(x, None) for c in range(1, 7)
              for x in ak.enumerate_asets(mk.MonogenicMonoid(), c)]
    assert len(cases) == 637
    (m,) = [m for m in corpus_monoids() if m.name == "axes22"]
    comp, _ = hm.projective_resolution(ak.enumerate_asets(m, 3)[0], length_cap=1)
    top, r, s = comp.levels[1], comp.r[0], comp.s[0]
    joint = [i for i in range(len(top.carrier)) if r(i) == 0 and s(i) == 0]
    assert len(joint) == 9
    cases.append((top, joint))
    for x, points in cases:
        span = ak.generated_subset(x, x.nonzero() if points is None else points)
        gens = ak.aset_generators(x, points)
        assert gens == sorted(gens) and ak.generated_subset(x, gens) == span
        assert len(gens) == _smallest_generating_size(x, span), (x.action, points)


def test_point_classes_are_built_once_per_aset(monkeypatch):
    # the colour refinement behind find_isomorphism runs once per A-set,
    # however often the A-set is compared; a relabeled or a quotient
    # A-set is a new A-set with colours of its own
    calls = []
    refine = ak._invariants
    monkeypatch.setattr(ak, "_invariants", lambda x: calls.append(x) or refine(x))
    (m,) = [m for m in corpus_monoids() if m.name == "idem2"]
    x = ak.enumerate_asets(m, 4)[-1]
    s = [0, 3, 1, 2]
    inverse = sorted(range(4), key=s.__getitem__)
    y = ak.ASet(m, x.carrier, [[s[row[q]] for q in inverse] for row in x.action])
    for _ in range(3):
        assert ak.is_isomorphic(x, y) and ak.is_isomorphic(y, x)
    assert calls == [x, y]
    assert ak._classes(y) == [ak._classes(x)[q] for q in inverse]
    q, _ = ak.quotient_aset(x, [(1, 2)])
    assert ak.is_isomorphic(q, q)
    assert calls == [x, y, q]


def _composed_action(m, carrier, gen_maps):
    """Reference action: each nonzero element's row composes the generator
    maps along the word by which a breadth-first walk from 1 first reaches
    it (generators in order); the zero row sends everything to 0."""
    words = {m.one: ()}
    queue = [m.one]
    for a in queue:
        for g in m.generators:
            b = m.table[a][g]
            if b not in words:
                words[b] = words[a] + (g,)
                queue.append(b)
    gen_map = dict(zip(m.generators, gen_maps))
    action = [[0] * len(carrier) for _ in m.indices()]
    for a in m.nonzero():
        row = list(range(len(carrier)))
        for g in words[a]:
            row = [gen_map[g][p] for p in row]
        action[a] = row
    return action


def test_actions_from_generator_maps_match_word_composition():
    # every labeled table of carrier <= 4 over every corpus finite monoid
    for m in corpus_monoids():
        for c in range(1, 5):
            for x in ak.enumerate_asets(m, c, up_to_iso=False):
                gen_maps = x.gen_tables()
                built = ak.build_action_from_gen_maps(m, list(x.carrier), gen_maps)
                assert built.action == _composed_action(m, x.carrier, gen_maps), (m.name, gen_maps)
    # an element the generators do not reach is refused, not left zero
    line2 = line(2)
    bare = mk.FiniteMonoid("bare", line2.elements, line2.table, generators=[])
    with pytest.raises(ValidationError, match="element x not generated"):
        ak.build_action_from_gen_maps(bare, ["0", "p"], [])


def test_enumeration_keeps_the_first_table_of_each_class():
    # oracle: every labeled table deduplicated by canonical_key, in order;
    # the monogenic base's tables are every based self-map
    digest = hashlib.sha256()
    cases = [(m, c) for m in corpus_monoids(max_size=5) for c in range(1, 6)]
    cases += [(mk.MonogenicMonoid(), c) for c in range(1, 7)]
    for m, c in cases:
        first = {}
        for x in ak.enumerate_asets(m, c, up_to_iso=False):
            first.setdefault(ak.canonical_key(x), x)
        kept = ak.enumerate_asets(m, c)
        keys = [ak.canonical_key(x) for x in kept]
        assert len(set(keys)) == len(keys), (m.name, c)
        assert [(x.carrier, x.action, x.name) for x in kept] == [
            (x.carrier, x.action, x.name) for x in first.values()
        ], (m.name, c)
        if isinstance(m, mk.MonogenicMonoid):
            continue  # the digest below pins the corpus monoids' tables
        for x in kept:
            digest.update(repr((m.name, x.carrier, x.action, x.name)).encode())
    # which table stands for each class is what callers index by position
    # (the perfbench `finite` inputs among them): pin the 446 kept tables
    assert digest.hexdigest() == (
        "f351496b37ebbe046da33d122da5216b51ca1a8c1f4a6e7c7e21a5a216596f35"
    )


def test_based_self_maps_fall_into_121_and_338_classes():
    # t is free, so every based self-map is a table; the class counts are
    # those of perfbench/theta_reps.json
    monogenic = mk.MonogenicMonoid()
    assert len(ak.enumerate_asets(monogenic, 5, up_to_iso=False)) == 5**4
    assert [len(ak.enumerate_asets(monogenic, c)) for c in (6, 7)] == [121, 338]


def test_canonical_theta_key_is_the_first_map_of_the_class():
    monogenic = mk.MonogenicMonoid()
    for c in range(1, 6):
        reps = [tuple(x.action[0]) for x in ak.enumerate_asets(monogenic, c)]
        assert [ak.canonical_theta_key(r) for r in reps] == reps
        for x in ak.enumerate_asets(monogenic, c, up_to_iso=False):
            key = ak.canonical_theta_key(x.action[0])
            assert key in reps and ak.is_isomorphic(x, ak.aset_from_theta(list(key)))
    with pytest.raises(BoundExceeded):
        ak.canonical_theta_key([0] * 8)
    for theta in ([], [1, 0], [0, 2]):
        with pytest.raises(ValidationError):
            ak.canonical_theta_key(theta)


def test_fraction_classes_match_their_definition():
    # oracle: p/t and q/u share a class iff v.u.p = v.t.q for some v in S,
    # tried on every pair of fractions, for every multiplicative set of
    # each corpus monoid and X = A or an A-set class of carrier <= 4; each
    # class is listed by its least fraction, in lexicographic order
    checked = 0
    for m in corpus_monoids():
        regular = ak.aset_from_monoid(m)
        classes = [regular] + [x for c in range(1, 5) for x in ak.enumerate_asets(m, c)]
        sets = {
            tuple(mk.multiplicative_set(m, list(g)))
            for k in range(len(m.elements)) for g in itertools.combinations(m.nonzero(), k)
        }
        for s in sorted(sets):
            for x in classes:
                fractions, _, cls = mk.fraction_classes(m, list(s), x.act, x.carrier)
                nodes = sorted(cls)
                for (p, t), (q, u) in itertools.combinations(nodes, 2):
                    related = any(x.act(v, x.act(u, p)) == x.act(v, x.act(t, q)) for v in s)
                    assert (cls[(p, t)] == cls[(q, u)]) == related, (m.name, s, x.action)
                assert fractions == [min(nd for nd in nodes if cls[nd] == i)
                                     for i in range(len(fractions))]
                checked += 1
    assert checked == 2002


def test_localization_sweep():
    # every S generated by at most two nonzero elements of each small corpus
    # monoid: A_S is A localized as an A-set, the unit map X -> X_S is
    # equivariant along A -> A_S for every class of carrier <= 4, and the
    # names, order and tables of every output are pinned
    digest = hashlib.sha256()
    for m in corpus_monoids(max_size=6):
        regular = ak.aset_from_monoid(m)
        classes = [regular] + [x for c in range(1, 5) for x in ak.enumerate_asets(m, c)]
        for k in range(3):
            for s in itertools.combinations(m.nonzero(), k):
                loc, hom = mk.localize(m, list(s))
                out = (m.name, s, loc.elements, loc.table, hom.mapping)
                digest.update(repr(out).encode())
                for x in classes:
                    xs, _, unit = ak.localize_aset(x, list(s))
                    if x is regular:
                        assert ak.is_isomorphic(xs, ak.aset_from_monoid(loc)), s
                    for a in m.indices():
                        for p in range(len(x.carrier)):
                            lhs = unit(x.act(a, p))
                            assert lhs == xs.act(hom(a), unit(p)), (m.name, s, x.name)
                    out = (xs.name, xs.carrier, xs.action, unit.mapping)
                    digest.update(repr(out).encode())
    assert digest.hexdigest() == (
        "84fe5400e1b90dd8a1232f20a706e50a31236e0f0e3581e2b62f4f42a41941aa"
    )


@pytest.mark.parametrize("reps", [[0, 1], [0, 1, 2, 3, 3], [0, 1, 2, -1]])
def test_quotient_aset_by_labels_of_the_wrong_shape_raises(reps):
    """A congruence of another length, or with a label that is no point of
    X, is refused before the quotient is built."""
    x = ak.aset_from_monoid(line(3))
    with pytest.raises(NotACongruence, match="labels each of its 4 points"):
        ak.quotient_aset(x, ak.ASetCongruence(x, reps))


def test_quotient_aset_by_labels_that_are_no_congruence_raises():
    """On F1[x]/(x^3), labelling x^2 with 1 glues x^2 to 1 while x sends
    them to 0 and x apart: no congruence, so no quotient is built."""
    m = line(3)
    x = ak.aset_from_monoid(m)
    with pytest.raises(NotACongruence, match="is not a congruence"):
        ak.quotient_aset(x, ak.ASetCongruence(x, [0, 1, 2, 1]))
    q, proj = ak.quotient_aset(x, ak.ASetCongruence(x, [0, 1, 0, 0]))
    assert ak.validate_aset(q).ok and proj.validate().ok and q.carrier == ["0", "1"]
