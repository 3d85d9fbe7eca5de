"""Cross-module property sweeps over small exhaustive instances."""

import hashlib
import itertools

from test_acceptance import corpus_monoids

from monoidkit import asets as ak
from monoidkit import extensions as ex
from monoidkit import homological as hm
from monoidkit import monoids as mk
from monoidkit import projk as pk
from monoidkit import spectra as sp


def F1():
    return mk.build_from_presentation([], [], name="F1")


def line(n):
    return mk.build_from_presentation(["x"], [(f"x^{n}", "0")])


def cyc(n):
    return mk.build_from_presentation(["x"], [(f"x^{n}", "1")])


def pointed(k):
    m = F1()
    return ak.ASet(
        m,
        ["0"] + [f"e{i}" for i in range(1, k)],
        action=[[0] * k, list(range(k))],
        name=f"S{k}",
    )


def test_closure_is_minimal_containing_congruence():
    # the closure of any seed equals the smallest enumerated congruence
    # containing the seed, on every carrier <= 6 instance tried
    m = line(3)
    a = ak.aset_from_monoid(m)
    congs = ak.enumerate_congruences(a)
    n = len(a.carrier)
    for p, q in itertools.combinations(range(n), 2):
        closed = ak.congruence_closure(a, [(p, q)]).reps
        candidates = [
            c.reps
            for c in congs
            if c.reps[p] == c.reps[q]
        ]
        # minimal = fewest merged pairs among containing congruences
        def merged(reps):
            return sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if reps[i] == reps[j]
            )

        best = min(candidates, key=merged)
        assert merged(best) == merged(closed)
        assert best == closed


def test_admissible_with_trivial_kernel_is_injective():
    m = line(3)
    a = ak.aset_from_monoid(m)
    x = ak.sub_aset(a, [0, m.index_of("x"), m.index_of("x^2")])
    for src, dst in ((a, a), (x, a), (a, x)):
        for f in ak.hom_enumerate(src, dst):
            if f.is_admissible() and f.kernel_indices() == [0]:
                assert f.is_injective()


def test_admissible_first_isomorphism_sweep():
    m = line(3)
    a = ak.aset_from_monoid(m)
    for f in ak.hom_enumerate(a, a):
        if not f.is_admissible():
            continue
        ker = f.kernel_indices()
        q, _ = ak.quotient_by_subset(a, ker)
        assert ak.is_isomorphic(q, ak.image_aset(f))


def test_aes_ending_in_projective_splits():
    # sequences 0 -> S -> X -> X/S -> 0 with projective quotient split
    m = mk.build_from_presentation(["x"], [("x^2", "x")], name="idem1")
    for c in (2, 3, 4):
        for x in ak.enumerate_asets(m, c):
            for sub in ak.enumerate_asubsets(x):
                s = ak.sub_aset(x, sub)
                q, proj = ak.quotient_by_subset(x, sub)
                dec = pk.decompose_projective(q)
                if isinstance(dec, pk.NotProjective):
                    continue
                inc = ak.inclusion_morphism(s, sub, x)
                rep = ak.split_check(inc, proj)
                assert rep.splits, (x.name, sub)


def test_pushforward_of_projective_is_projective():
    src = mk.build_from_presentation(["x"], [("x^2", "x")], name="idem1")
    dst = mk.build_from_presentation(
        ["x", "y"], [("x^2", "x"), ("y^2", "y")], name="idem2"
    )
    hom = mk.MonoidHom(src, dst, [0, 1, dst.index_of("x")])
    assert hom.validate().ok
    # push forward Ae along the hom: tensor with the target as a source-set
    target_as_src = ak.ASet(
        src,
        list(dst.elements),
        action=[
            [dst.table[hom(a)][b] for b in dst.indices()] for a in src.indices()
        ],
        name="B",
    )
    for e in mk.idempotents(src):
        if e == 0:
            continue
        p = pk.cyclic_on_idempotent(src, e)
        pushed = ak.tensor(p, target_as_src)
        # reinterpret the tensor as a target-monoid action through the
        # second coordinate
        action = [[0] * len(pushed.carrier) for _ in dst.indices()]
        for b in dst.indices():
            for (i, j), cls in pushed.pair_class.items():
                tgt = dst.table[b][j]
                action[b][cls] = pushed.pair_class[(i, tgt)] if tgt else 0
        candidate = ak.ASet(dst, list(pushed.carrier), action=action, name="fP")
        assert ak.validate_aset(candidate).ok
        dec = pk.decompose_projective(candidate)
        assert isinstance(dec, pk.ProjectiveDecomposition)
        assert dec.names() == [dst.elements[hom(e)]]


def test_embedded_chain_complex_matches_pointwise_homology():
    # a complex with vanishing second boundary over a pointed group base:
    # the joint-kernel homology equals kernel-mod-image computed directly
    m = cyc(2)
    a = ak.aset_from_monoid(m)
    w = ak.wedge([a, a])
    # boundary: fold the second summand onto the first, kill the first
    r_map = [0] * len(w.carrier)
    for i in a.nonzero():
        r_map[w.wedge_offsets[1] + i - 1] = w.wedge_offsets[0] + i - 1
    r = ak.ASetMorphism(w, w, r_map)
    z = ak.zero_morphism(w, w)
    assert r.compose(r).mapping == [0] * len(w.carrier)  # r.r = 0
    c = hm.DaComplex(m, [w, w, w], [r, r], [z, z])
    assert hm.validate_dacomplex(c).ok
    h1 = hm.homology(c, 1)
    # direct computation: ker(r) / im(r) as a subset quotient
    ker = ak.sub_aset(w, r.kernel_indices())
    img = sorted(set(r.mapping))
    inner = [r.kernel_indices().index(p) for p in img]
    direct, _ = ak.quotient_by_subset(ker, inner)
    assert ak.is_isomorphic(h1, direct)


def test_unit_embeds_complex_in_roundtrip():
    m = line(3)
    a = ak.aset_from_monoid(m)
    g = m.index_of("x")
    r = ak.ASetMorphism(a, a, [m.table[g][p] for p in range(len(a.carrier))])
    z = ak.zero_morphism(a, a)
    c = hm.DaComplex(m, [a, a], [r], [z])
    s = hm.dold_kan_inverse(c, 3)
    n = hm.moore(s)
    # levelwise: the nondegenerate cells inject into the normalized part
    for k in (0, 1):
        nd = s.nondegenerate_index[k]
        keep = hm._moore_keep(s, k)
        images = [keep.index(idx) for p, idx in nd.items()]
        assert len(set(images)) == len(images)
        # and the boundary pairs agree under the embedding
    r_n, s_n = n.boundary(1)
    nd1 = s.nondegenerate_index[1]
    keep0 = hm._moore_keep(s, 0)
    keep1 = hm._moore_keep(s, 1)
    for p, idx in nd1.items():
        assert r_n(keep1.index(idx)) == keep0.index(
            s.nondegenerate_index[0].get(c.r[0](p), 0)
        ) or c.r[0](p) == 0


def test_homotopy_formula_on_constant_group_levels():
    # on a constant simplicial object with pointed-group levels (fibrant
    # for free), kernel-then-identify equals identify-then-kernel
    m = cyc(3)
    x = ak.aset_from_monoid(m)
    s = hm.constant_simplicial(x, 3)
    n = hm.moore(s)
    for deg in (0, 1, 2):
        h = hm.homology(n, deg)
        # direct order: joint kernel of the outgoing pair first, then the
        # identification by the incoming pair
        r_out, s_out = n.boundary(deg)
        joint = [
            p
            for p in range(len(n.levels[deg].carrier))
            if r_out(p) == 0 and s_out(p) == 0
        ] if deg > 0 else list(range(len(n.levels[0].carrier)))
        sub = ak.sub_aset(n.levels[deg], sorted(set(joint) | {0}))
        r_in, s_in = n.boundary(deg + 1)
        pos = {p: i for i, p in enumerate(sorted(set(joint) | {0}))}
        pairs = []
        for q in range(len(n.level(deg + 1).carrier)):
            a, b = r_in(q), s_in(q)
            if a in pos and b in pos:
                pairs.append((pos[a], pos[b]))
        direct, _ = ak.quotient_aset(sub, pairs)
        assert ak.is_isomorphic(h, direct), deg


def test_localization_commutes_with_normalization_on_window():
    from monoidkit import geometry as gm
    from monoidkit.monoids import AffineMonoid

    aff = AffineMonoid("numsg", 1, [(2,), (3,)])
    # localize by adjoining the inverse of a generator, then normalize,
    # and the other way around; memberships agree on a window
    loc = AffineMonoid("numsg-loc", 1, [(2,), (3,), (-2,)])
    nor_then_loc = gm.normalize_affine(aff)
    nor_then_loc = AffineMonoid(
        "ntl", 1, list(nor_then_loc.generators) + [(-2,)]
    )
    loc_then_nor = gm.normalize_affine(loc)
    for v in range(-6, 7):
        assert loc_then_nor.contains((v,)) == nor_then_loc.contains((v,)), v


def test_wedge_translation_and_window_shifts():
    m = line(2)
    a = ak.aset_from_monoid(m)
    z = ak.zero_morphism(a, a)
    c = hm.DaComplex(m, [a, a, a], [z, z], [z, z])
    for p in (-1, 0, 1):
        shifted = c.translate(p)
        for n in range(-1, 4):
            h1 = hm.homology(c, n + p)
            h2 = hm.homology(shifted, n)
            assert ak.is_isomorphic(h1, h2)


def _relabeled(x, s):
    """s t s^-1 for every stored row t, carrier names following s."""
    inverse = sorted(range(len(s)), key=s.__getitem__)
    carrier = [x.carrier[q] for q in inverse]
    action = [[s[row[q]] for q in inverse] for row in x.action]
    return ak.ASet(x.base, carrier, action, name=x.name)


def _labeling_free_invariants(x, a):
    dec = pk.decompose_projective(x)
    return (
        len(ak.hom_enumerate(x, x)),
        len(ak.hom_enumerate(x, a)),
        len(ak.hom_enumerate(a, x)),
        len(ak.enumerate_congruences(x)),
        len(ak.enumerate_asubsets(x)),
        len(ak.tensor(x, x).carrier),
        len(ak.tensor(x, a).carrier),
        len(ex.ext_enumerate(x, a)),
        len(ex.ext_enumerate(a, x)),
        getattr(dec, "idempotent_multiset", None),
        pk.rank_vector(x),
        ak.canonical_key(x),
        len(ak.aset_generators(x)),
        [len(p.carrier) for p in hm.projective_resolution(x)[0].levels],
        [len(p.carrier) for p in hm.reduced_resolution(x)[0].levels],
    )


def test_invariants_survive_every_relabeling():
    """Every basepoint-fixing relabeling s t s^-1 of each A-set class of
    the corpus monoids with at most 4 elements, carriers <= 4 (227
    relabelings, the identity among them), keeps the hom, congruence,
    A-subset, tensor and extension counts, the projective decomposition,
    the rank vector, the canonical key, the generator count and the level
    sizes of the projective and the reduced resolution.
    """
    checked = 0
    for m in corpus_monoids(max_size=4):
        a = ak.aset_from_monoid(m)
        for c in range(1, 5):
            for x in ak.enumerate_asets(m, c):
                want = _labeling_free_invariants(x, a)
                for perm in itertools.permutations(range(1, c)):
                    y = _relabeled(x, (0,) + perm)
                    assert ak.validate_aset(y).ok
                    assert _labeling_free_invariants(y, a) == want, (m.name, x.action, perm)
                    checked += 1
    assert checked == 227


def _relabeled_monoid(m, s):
    """The same monoid with element a moved to index s[a]; names and
    generators follow the move."""
    inverse = sorted(range(len(s)), key=s.__getitem__)
    elements = [m.elements[a] for a in inverse]
    table = [[s[m.table[a][b]] for b in inverse] for a in inverse]
    return mk.FiniteMonoid(m.name, elements, table, [s[g] for g in m.generators])


def _spectral_invariants(m):
    ideals = sp.all_ideals(m)
    primes = sp.mspec(m)
    regular = ak.aset_from_monoid(m)
    universe = pk.g0([regular], middle_bound=len(m.elements))
    return (
        sorted(len(mk.quotient(m, i.sorted_elements())[0].elements) for i in ideals),
        sorted(len(mk.localize(m, [a])[0].elements) for a in m.nonzero()),
        universe.invariants(),
        len(universe.class_reps),
        len(ideals),
        sorted(len(p.elements) for p in primes),
        sp.dimension(m),
        sorted(
            (
                sorted(len(c.elements) for c in sp.primary_decomposition(m, i)),
                len(sp.associated_primes(m, i)),
            )
            for i in ideals
        ),
        pk.k0(m).invariants(),
        pk.k1(m).invariants(),
        sorted(
            (
                len(ex.squarezero_enumerate(m, x)),
                len(ex.ext_enumerate(x, regular)),
                len(ex.ext_enumerate(regular, x)),
            )
            for c in range(1, 4)
            for x in ak.enumerate_asets(m, c)
        ),
    )


def test_spectra_survive_every_relabeling():
    """Every relabeling of the elements other than 0 and 1 of the corpus
    monoids with 3 to 5 elements (33 relabelings, the identity among
    them), generators moved along, keeps the sizes of the quotients A/I
    over the proper ideals I, the sizes of the localizations at each
    nonzero element, G0 of the universe A generates and its class count,
    the number of proper ideals, the prime sizes, the dimension, for each
    proper ideal the sizes of its primary components and the number of
    its associated primes, the groups K0 and K1, and over the A-set
    classes X of carrier <= 3 the sorted counts of square-zero extensions
    of A by X and of extensions of X by A and of A by X."""
    checked = 0
    for m in corpus_monoids(max_size=5):
        n = len(m.elements)
        if n < 3:
            continue
        want = _spectral_invariants(m)
        for perm in itertools.permutations(range(2, n)):
            r = _relabeled_monoid(m, (0, 1) + perm)
            assert mk.validate(r).ok
            assert _spectral_invariants(r) == want, (m.name, perm)
            checked += 1
    assert checked == 33


def test_free_constructions_are_pinned():
    """One sha256 over the outputs built on free A-sets, for each A-set
    class of the corpus monoids with at most 5 elements, carriers <= 4
    (163 classes): the counit, the minimized projective resolution (cap
    3), the full-pullback one (cap 1) and the reduced resolution, each
    with its augmentation, every level's name, carrier and action, and
    every r and s map; and ``k1_bruteforce`` on 1 and 2 copies of each
    monoid.  The digest was taken while each caller still built its own
    evaluation map by carrier-name lookups, before they all moved onto
    the block layout of ``free_aset`` and ``free_cover``, and retaken
    when ``aset_generators`` became minimal: 77 of the 163 classes lost a
    redundant generator, which shrinks P0 and every level above it."""
    digest = hashlib.sha256()

    def put(*parts):
        digest.update(repr(parts).encode() + b"\n")

    def put_map(f):
        put(f.source.name, f.source.carrier, f.source.action, f.mapping)

    def put_complex(comp, eps):
        put(comp.complete)
        put_map(eps)
        for level in comp.levels:
            put(level.name, level.carrier, level.action)
        for f in comp.r + comp.s:
            put_map(f)

    classes = 0
    for m in corpus_monoids(max_size=5):
        for copies in (1, 2):
            put("k1", m.name, copies, pk.k1_bruteforce(m, copies))
        for c in range(1, 5):
            for x in ak.enumerate_asets(m, c):
                classes += 1
                put_map(pk.counit(x))
                for kw in ({}, {"minimized": False, "length_cap": 1}):
                    put("res", kw)
                    put_complex(*hm.projective_resolution(x, **kw))
                put("red")
                put_complex(*hm.reduced_resolution(x))
    assert classes == 163
    assert digest.hexdigest() == (
        "3361c8105f0c798300f56fedefa396dca210ae5ed79767bba9d20ce58fc68b4e"
    )


def test_asubset_constructions_are_pinned():
    """One sha256 over the ideals, the cyclic pieces Ae and the torsion
    pairs.  For every corpus finite-table monoid: each entry of
    ``all_ideals`` and of ``mspec`` (string and elements), the primary
    decomposition and associated primes of each proper ideal, the
    principal ideal of every element, and the name, carrier and action of
    ``cyclic_on_idempotent`` at each nonzero idempotent.  For each A-set
    class X of the corpus monoids with at most 4 elements, carriers <= 4
    (61 classes): the torsion-pair A-set as an order-free record (sorted
    cell names, and the name of b.a[p] for each pair and element b), and
    for (X, A), (A, X) and (X, X) the sorted (phi items, E carrier,
    E action) of every extension.  The digest was taken while spectra,
    projk and extensions still closed ideals, orbits and torsion pairs by
    hand, before they moved onto the A-subset code of ``asets``."""
    digest = hashlib.sha256()

    def put(*parts):
        digest.update(repr(parts).encode() + b"\n")

    def ideals(items):
        return [(str(i), i.sorted_elements()) for i in items]

    for m in corpus_monoids():
        lattice = sp.all_ideals(m)
        put(m.name, ideals(lattice), ideals(sp.mspec(m)))
        for i in lattice:
            if i.is_proper:
                put(ideals(sp.primary_decomposition(m, i)))
                put(ideals(sp.associated_primes(m, i)))
        put(ideals(sp.ideal_generated(m, [a]) for a in m.indices()))
        for e in mk.idempotents(m):
            if e != 0:
                p = pk.cyclic_on_idempotent(m, e)
                put(p.name, p.carrier, p.action)

    def extensions(x, y):
        return sorted(
            (sorted(e.phi_table.items()), e.e.carrier, e.e.action)
            for e in ex.ext_enumerate(x, y)
        )

    classes = 0
    for m in corpus_monoids(max_size=4):
        a = ak.aset_from_monoid(m)
        for c in range(1, 5):
            for x in ak.enumerate_asets(m, c):
                classes += 1
                z = ex.torsion_pair_aset(m, x)
                put(sorted(z.carrier), sorted(
                    (pair, b, z.carrier[z.act(b, i)])
                    for pair, i in z.pair_index.items()
                    for b in m.indices()
                ))
                put(extensions(x, a), extensions(a, x), extensions(x, x))
    assert classes == 61
    assert digest.hexdigest() == (
        "e35cfaea2b6ae967e0f7722e0b6795886a98832e68ac6042c1b43d83d6163aa0"
    )


def test_quotients_and_fractions_are_pinned():
    """One sha256 over the quotients and fractions of every corpus
    finite-table monoid: A/I for each proper ideal I and A/~ for the
    congruence each pair of elements generates (186 quotients), A_S for
    each S generated by at most two nonzero elements (145 localizations),
    and X_S for the same S and each X among A and the A-set classes of
    carrier <= 3 (1,226 A-set localizations); names, elements, tables,
    generators, fractions and maps.  The digest was taken while monoid
    congruences, quotients and fractions still had their own code in
    ``monoids``, before they moved onto ``congruence_closure``,
    ``quotient_aset`` and the one ``fraction_classes``."""
    digest = hashlib.sha256()

    def put(*parts):
        digest.update(repr(parts).encode() + b"\n")

    def put_monoid(q, hom):
        put(q.name, q.elements, q.table, q.generators, getattr(q, "fractions", None),
            hom.mapping)

    counts = [0, 0, 0]
    for m in corpus_monoids():
        a = ak.aset_from_monoid(m)
        for i in sp.all_ideals(m):
            put_monoid(*mk.quotient(m, i.sorted_elements()))
            counts[0] += 1
        for pair in itertools.combinations(m.indices(), 2):
            put_monoid(*mk.quotient(m, ak.congruence_closure(a, [pair])))
            counts[0] += 1
        classes = [a] + [x for c in range(1, 4) for x in ak.enumerate_asets(m, c)]
        for k in range(3):
            for s in itertools.combinations(m.nonzero(), k):
                put_monoid(*mk.localize(m, list(s)))
                counts[1] += 1
                for x in classes:
                    xs, hom, unit = ak.localize_aset(x, list(s))
                    put(xs.name, xs.carrier, xs.action, hom.mapping, unit.mapping)
                    counts[2] += 1
    assert counts == [186, 145, 1226]
    assert digest.hexdigest() == (
        "2cb74ff7936354ed3d5c67241c152f0a767615f72dd15fea7c194a66d5de5f33"
    )
