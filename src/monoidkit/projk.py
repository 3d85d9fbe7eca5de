"""Projective A-sets, rank functions, and the K- and G-groups.

Projectivity is decided by the section-of-counit criterion; the wedge
decomposition into cyclic pieces generated by idempotents recovers the
classifying multiset.  K0 is the monoid ring on the idempotents, K1 is
units times a sign, and G0 is presented over a bounded, closed universe
of A-sets whose relations come from subset/quotient exact sequences.
"""

from __future__ import annotations

import math

from . import asets as ak
from . import spectra as sp
from ._records import Record
from .abgroup import AbelianGroup, GroupPresentation
from .errors import (
    BoundExceeded,
    HypothesisViolated,
    NotNilpotent,
    OracleMismatch,
    ValidationError,
)
from .monoids import (
    FiniteMonoid,
    ZERO,
    idempotents,
    localize,
    quotient as monoid_quotient,
    same_monoid,
    units,
)


# ---------------------------------------------------------------------------
# projectivity


class ProjectiveDecomposition(Record):
    _fields = ("base", "idempotent_multiset")

    def __init__(self, base: FiniteMonoid, idempotent_multiset: list[int]):
        self.base = base
        self.idempotent_multiset = idempotent_multiset  # element indices, sorted

    def names(self):
        return [self.base.elements[e] for e in self.idempotent_multiset]


class NotProjective(Record):
    _fields = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


def counit(x):
    """The evaluation surjection from the free A-set on the carrier."""
    return ak.free_cover(x, x.nonzero())


def counit_section(x):
    """A section of the counit, or None; existence characterizes projectives."""
    return ak.section(counit(x))


def wedge_components(x):
    """Partition of the nonzero carrier into wedge summands."""
    n = len(x.carrier)
    edges = []
    for t in x.gen_tables():
        for p in range(1, n):
            if t[p] != 0:
                edges.append((p, t[p]))
    from . import _kernels

    reps = _kernels.connected_components(n, edges)
    comps = {}
    for p in range(1, n):
        comps.setdefault(reps[p], []).append(p)
    return [sorted(v) for _, v in sorted(comps.items())]


def cyclic_on_idempotent(m, e):
    """The A-set Ae inside A."""
    a = ak.aset_from_monoid(m)
    return ak.sub_aset(a, ak.generated_subset(a, [e]), name=f"A{m.elements[e]}")


def decompose_projective(x):
    """Idempotent multiset when projective, else NotProjective."""
    section = counit_section(x)
    if section is None:
        return NotProjective("counit admits no section")
    m = x.base
    idems = [e for e in idempotents(m) if e != ZERO]
    found = []
    for comp in wedge_components(x):
        piece = ak.sub_aset(x, [0] + comp)
        match = None
        for e in idems:
            if ak.is_isomorphic(piece, cyclic_on_idempotent(m, e)):
                match = e
                break
        if match is None:
            # cannot happen when a section exists; guard anyway
            return NotProjective("component matches no cyclic idempotent piece")
        found.append(match)
    dec = ProjectiveDecomposition(m, sorted(found))
    rebuilt = ak.wedge([cyclic_on_idempotent(m, e) for e in dec.idempotent_multiset]) \
        if dec.idempotent_multiset else ak.sub_aset(ak.aset_from_monoid(m), [0])
    if not ak.is_isomorphic(x, rebuilt):
        raise OracleMismatch(
            f"idempotent multiset {dec.names()} does not rebuild {x.name}"
        )
    return dec


def has_lifting(p, f, g):
    """Is there phi: P -> Y with f . phi = g?  (f onto, g: P -> Z.)"""
    for phi in ak.hom_enumerate(p, f.source):
        if f.compose(phi).mapping == g.mapping:
            return True
    return False


def is_projective_lifting_oracle(p, surjections):
    """Direct definition over a finite family of test squares."""
    for f in surjections:
        for g in ak.hom_enumerate(p, f.target):
            if not has_lifting(p, f, g):
                return False
    return True


# ---------------------------------------------------------------------------
# rank


def residue_group_aset(m, prime):
    """Quot(A/p) as an A-set (restriction along the canonical maps),
    together with the group monoid and the A -> G hom composite."""
    q, proj = monoid_quotient(m, sorted(prime.elements))
    nonzero = [i for i in q.nonzero()]
    g, loc_hom = localize(q, nonzero)
    comp = [loc_hom(proj(a)) for a in m.indices()]
    action = [[g.table[comp[a]][b] for b in g.indices()] for a in m.indices()]
    g_aset = ak.ASet(m, list(g.elements), action=action, name=f"G({prime})")
    return g_aset, g, comp


def rank(x, prime):
    """Number of nonzero orbits of X tensored up to the residue group."""
    m = x.base
    g_aset, g, comp = residue_group_aset(m, prime)
    t = ak.tensor(x, g_aset)
    n = len(t.carrier)
    edges = []
    for (i, j), cls in t.pair_class.items():
        for u in g.nonzero():
            edges.append((cls, t.pair_class[(i, g.table[u][j])]))
    from . import _kernels

    reps = _kernels.connected_components(n, edges)
    orbits = {reps[k] for k in range(1, n)}
    orbits.discard(reps[0])
    return len(orbits)


def rank_vector(x, primes=None):
    primes = primes if primes is not None else sp.mspec(x.base)
    return [rank(x, p) for p in primes]


def projectives_isomorphic(p_aset, q_aset):
    dp = decompose_projective(p_aset)
    dq = decompose_projective(q_aset)
    if isinstance(dp, NotProjective) or isinstance(dq, NotProjective):
        raise HypothesisViolated("both inputs must be projective")
    by_rank = rank_vector(p_aset) == rank_vector(q_aset)
    by_multiset = dp.idempotent_multiset == dq.idempotent_multiset
    by_search = ak.is_isomorphic(p_aset, q_aset)
    if not by_rank == by_multiset == by_search:
        raise OracleMismatch(
            f"{p_aset.name} vs {q_aset.name}: rank vectors say {by_rank}, "
            f"idempotent multisets {by_multiset}, isomorphism search {by_search}"
        )
    return by_rank


# ---------------------------------------------------------------------------
# K0 and K1


class K0Ring(Record):
    _fields = ("base", "generators", "presentation", "mult")

    def __init__(self, base: FiniteMonoid, generators: list[str],
                 presentation: GroupPresentation, mult: dict):
        self.base = base
        self.generators = generators  # nonzero idempotent names
        self.presentation = presentation
        self.mult = mult  # (i, j) -> k index or None for zero

    def invariants(self) -> AbelianGroup:
        return self.presentation.invariants()

    def __str__(self):
        return str(self.invariants())


def k0(m):
    idems = [e for e in idempotents(m) if e != ZERO]
    pos = {e: i for i, e in enumerate(idems)}
    mult = {}
    for i, e in enumerate(idems):
        for j, f in enumerate(idems):
            prod = m.table[e][f]
            mult[(i, j)] = pos.get(prod)  # None when the product is 0
    return K0Ring(
        base=m,
        generators=[m.elements[e] for e in idems],
        presentation=GroupPresentation(len(idems), []),
        mult=mult,
    )


def k0_pushforward_matrix(hom):
    """Map on K0 induced by a monoid hom (idempotents to idempotents)."""
    src = [e for e in idempotents(hom.source) if e != ZERO]
    dst = [e for e in idempotents(hom.target) if e != ZERO]
    pos = {e: i for i, e in enumerate(dst)}
    mat = [[0] * len(src) for _ in dst]
    for j, e in enumerate(src):
        img = hom(e)
        if img != ZERO:
            mat[pos[img]][j] = 1
    return mat


def k1(m):
    """Units times a sign: presented with the unit group's relations."""
    u = units(m)
    pos = {x: i for i, x in enumerate(u)}
    k = len(u)
    rels = []
    for i, a in enumerate(u):
        for j, b in enumerate(u):
            prod = pos[m.table[a][b]]
            row = [0] * (k + 1)
            row[i] += 1
            row[j] += 1
            row[prod] -= 1
            rels.append(row)
    sign_row = [0] * (k + 1)
    sign_row[k] = 2
    rels.append(sign_row)
    labels = [m.elements[x] for x in u] + ["swap"]
    return GroupPresentation(k + 1, rels, generator_labels=labels)


def automorphism_group(x):
    """All equivariant based bijections of a finite A-set, sorted."""
    maps = sorted(ak._equivariant_maps(x, x, injective=True))
    return [ak.ASetMorphism(x, x, f) for f in maps]


def abelianization_invariants(elements, compose):
    """Invariants of G/[G,G] for a finite group given by a composition map.

    ``elements`` lists the group with the identity first.  A generating set
    S is taken greedily in list order.  One breadth-first pass from the
    identity over S builds a spanning tree of the Cayley graph and gives
    each element a word vector in Z^S.  The tree edges are Tietze
    eliminations, so G is presented on S by one relation per non-tree edge
    a -> ag: word(a) + e_g = word(ag) (Magnus-Karrass-Solitar,
    *Combinatorial Group Theory*, 1966, sections 1.5 and 2.3).  Read as
    abelian relations they present G/[G,G], whose invariants the Smith
    reduction gives.
    """
    gens = []
    reached = {elements[0]}
    for g in elements:
        if g in reached:
            continue
        gens.append(g)
        frontier = list(reached)
        while frontier:
            a = frontier.pop()
            for h in gens:
                b = compose(a, h)
                if b not in reached:
                    reached.add(b)
                    frontier.append(b)
    words = {elements[0]: (0,) * len(gens)}
    queue = [elements[0]]
    rows = set()
    for a in queue:  # grows while it is read: a breadth-first pass
        word = words[a]
        for j, g in enumerate(gens):
            step = list(word)
            step[j] += 1
            b = compose(a, g)
            target = words.get(b)
            if target is None:
                words[b] = tuple(step)
                queue.append(b)
            else:
                row = tuple(s - t for s, t in zip(step, target))
                if any(row):
                    rows.add(row)
    return GroupPresentation(len(gens), [list(r) for r in sorted(rows)]).invariants()


def k1_bruteforce(m, copies):
    """Abelianization of Aut of a free A-set on ``copies`` generators."""
    w = ak.free_aset(m, range(copies))
    # sorted, so the identity comes first: it is the least bijection
    elements = [tuple(f.mapping) for f in automorphism_group(w)]

    def compose(f, g):
        return tuple(f[v] for v in g)

    # sanity: the group order matches |units|^n * n!
    order = len(elements)
    expect = (len(units(m)) ** copies) * math.factorial(copies)
    if order != expect:
        raise OracleMismatch(
            f"Aut of {copies} copies of {m.name} has order {order}, "
            f"|units|^n * n! = {expect}"
        )
    return abelianization_invariants(elements, compose)


# ---------------------------------------------------------------------------
# G0 over a bounded universe


class G0Result(Record):
    _fields = ("presentation", "class_labels", "class_reps", "universe_hash", "class_index")

    def __init__(self, presentation: GroupPresentation, class_labels: list[str],
                 class_reps: list, universe_hash: str, class_index: dict | None = None):
        self.presentation = presentation
        self.class_labels = class_labels
        self.class_reps = class_reps
        self.universe_hash = universe_hash
        self.class_index = {} if class_index is None else class_index

    def invariants(self):
        return self.presentation.invariants()

    def __str__(self):
        return str(self.invariants())


def _closed_universe(seeds, middle_bound):
    """Close under A-subsets and subset-quotients; dedupe up to iso.

    Returns (key, representative, pieces) per class in key order, where
    ``pieces`` holds the (sub key, quotient key) pair of each A-subset of
    the representative, so every canonical key is taken once.  The
    representative is the first A-set of its class taken off the work
    stack.  A seed with more than ``middle_bound`` nonzero points raises
    ``BoundExceeded``; sub-objects and quotients are never larger than
    the A-set they come from, so no other A-set can pass the bound.
    """
    for x in seeds:
        if len(x.carrier) > middle_bound + 1:
            raise BoundExceeded(
                f"seed {x.name} has {len(x.carrier) - 1} nonzero points, "
                f"past the bound {middle_bound}"
            )
    classes = {}
    work = [(ak.canonical_key(x), x) for x in seeds]
    while work:
        key, x = work.pop()
        if key in classes:
            continue
        pieces = []
        for sub in ak.enumerate_asubsets(x, bound=middle_bound + 1):
            parts = [ak.sub_aset(x, sub), ak.quotient_by_subset(x, sub)[0]]
            keys = [ak.canonical_key(y) for y in parts]
            pieces.append(tuple(keys))
            work.extend(zip(keys, parts))
        classes[key] = (x, pieces)
    return [(key, *classes[key]) for key in sorted(classes)]


def g0(seeds, middle_bound=6):
    """Grothendieck-style group on a closed universe of A-sets.

    One relation [X] = [X'] + [X/X'] per A-subset X' of each class
    representative X; every admissible exact sequence with middle X gives
    such a relation (the image of the left map is an A-subset).  The
    result is an approximation from below, reported with a universe hash.
    The seeds must live over one monoid: a ValidationError otherwise.
    """
    import hashlib

    for x in seeds[1:]:
        if not same_monoid(x.base, seeds[0].base):
            raise ValidationError(
                f"G0 seeds over different monoids: {seeds[0].name} lives over "
                f"{seeds[0].base.name}, {x.name} over {x.base.name}"
            )
    closed = _closed_universe(seeds, middle_bound)
    index = {key: i for i, (key, _, _) in enumerate(closed)}
    rels = []
    for i, (_, _, pieces) in enumerate(closed):
        for sub_key, quotient_key in pieces:
            row = [0] * len(closed)
            row[i] += 1
            row[index[sub_key]] -= 1
            row[index[quotient_key]] -= 1
            rels.append(row)
    labels = [x.name or f"X{i}" for i, (_, x, _) in enumerate(closed)]
    blob = repr([key for key, _, _ in closed]).encode()
    return G0Result(
        presentation=GroupPresentation(len(closed), rels, generator_labels=labels),
        class_labels=labels,
        class_reps=[x for _, x, _ in closed],
        universe_hash=hashlib.sha256(blob).hexdigest()[:16],
        class_index=index,
    )


def g0_class_vector(result, x):
    """Coefficient vector of [X] in the universe presentation."""
    key = ak.canonical_key(x)
    vec = [0] * len(result.class_labels)
    vec[result.class_index[key]] = 1
    return vec


class DevissageReport(Record):
    _fields = ("nilpotency", "filtration_sizes", "quotients_are_base_quotient_sets",
               "identity_holds")

    def __init__(self, nilpotency: int, filtration_sizes: list[int],
                 quotients_are_base_quotient_sets: bool, identity_holds: bool):
        self.nilpotency = nilpotency
        self.filtration_sizes = filtration_sizes
        self.quotients_are_base_quotient_sets = quotients_are_base_quotient_sets
        self.identity_holds = identity_holds


def devissage_check(m, ideal_elements, x):
    """[X] = sum of the filtration quotients [I^i X / I^{i+1} X] in G0.

    The seeds are X and its quotients, none larger than X, so G0 is taken
    with X's count of nonzero points as its bound."""
    if not same_monoid(x.base, m):
        raise ValidationError(
            f"the A-set {x.name} lives over {x.base.name}, not over {m.name}"
        )
    ideal = sorted(set(ideal_elements) | {ZERO})
    power = set(ideal)
    nilpotency = 1
    while power != {ZERO}:
        power = {m.table[a][b] for a in power for b in ideal}
        nilpotency += 1
        if nilpotency > len(m.elements) + 1:
            raise NotNilpotent("ideal is not nilpotent")

    # descending filtration by the ideal powers, as global carrier subsets
    filt = [sorted(set(range(len(x.carrier))))]
    cur = filt[0]
    while True:
        nxt = {0}
        for a in ideal:
            for p in cur:
                nxt.add(x.act(a, p))
        nxt = sorted(nxt)
        filt.append(nxt)
        if nxt == [0]:
            break
        if len(filt) > nilpotency + 2:
            raise NotNilpotent("filtration does not terminate")
        cur = nxt

    quotients = []
    ok_base_quotient = True
    for i in range(len(filt) - 1):
        layer = ak.sub_aset(x, filt[i], name=f"layer{i}")
        inner = [filt[i].index(p) for p in filt[i + 1]]
        q, _ = ak.quotient_by_subset(layer, inner, name=f"gr{i}")
        quotients.append(q)
        ann = ak.ann_aset(q)
        if not set(ideal) <= set(ann):
            ok_base_quotient = False

    seeds = [x] + quotients
    res = g0(seeds, middle_bound=len(x.carrier) - 1)
    vec = g0_class_vector(res, x)
    for q in quotients:
        qv = g0_class_vector(res, q)
        vec = [a - b for a, b in zip(vec, qv)]
    holds = res.presentation.contains_in_relation_lattice(vec)
    return DevissageReport(
        nilpotency=len(filt) - 1,
        filtration_sizes=[len(f) for f in filt],
        quotients_are_base_quotient_sets=ok_base_quotient,
        identity_holds=holds,
    )
