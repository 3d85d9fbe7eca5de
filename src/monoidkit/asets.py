"""Pointed sets with a validated monoid action, and their category.

Carriers are index lists with basepoint at 0.  The action is one list
of carrier rows, ``action``: a finite-table base has one row per element
(row ``a`` sends p to a.p), the monogenic base has the single row of its
generator t.  Constructions map every stored row the same way and never
ask which base they are over; only ``ASet.act``, ``ASet.gen_tables``, the
axioms in ``validate_aset``, the row count of ``zero_aset``, the oracle
``congruence_closure_naive``, the base check of ``find_isomorphism``,
``build_action_from_gen_maps``, the generator maps of ``enumerate_asets``
and the finite-table constructions ``aset_from_monoid``, ``free_aset`` and
``localize_aset`` read the base kind.  Quotients,
tensor products and coequalizers all reduce to the congruence-closure
kernel: merge seed pairs, then keep merging generator translates.
"""

from __future__ import annotations

import functools
import itertools

from . import _kernels
from ._records import Record
from .errors import (
    BoundExceeded,
    NotACongruence,
    NotAES,
    NotASubset,
    OracleMismatch,
    UnsupportedBackend,
    ValidationError,
)
from .monoids import (
    MonogenicMonoid,
    ValidationReport,
    ZERO,
    fraction_classes,
    localize as localize_monoid,
    multiplicative_set,
)

DEFAULT_ENUM_BOUND = 8


class ASet:
    """Pointed set with a left action of the base monoid.

    ``action`` holds carrier rows: one per element of a finite-table base,
    the generator's alone over the monogenic base.  ``carrier`` and
    ``action`` are not written after construction: every operation builds
    a new A-set, so what is computed from them once, like the isomorphism
    colours of ``_classes``, is kept on the A-set.
    """

    def __init__(self, base, carrier, action, name=""):
        self.base = base
        self.carrier = list(carrier)
        self.action = [list(row) for row in action]
        self.name = name or "X"
        self._colours = None  # _classes builds it on first use

    # -- core ----------------------------------------------------------------

    def __len__(self):
        return len(self.carrier)

    def nonzero(self):
        return range(1, len(self.carrier))

    def act(self, a, x):
        """Action of monoid element ``a`` on carrier index ``x``."""
        if isinstance(self.base, MonogenicMonoid):
            if a is None:
                return 0
            row = self.action[0]
            for _ in range(a):
                x = row[x]
            return x
        return self.action[a][x]

    def gen_tables(self):
        """Carrier self-maps of the monoid generators."""
        if isinstance(self.base, MonogenicMonoid):
            return list(self.action)
        return [self.action[g] for g in self.base.generators]

    def element_name(self, x):
        return self.carrier[x]

    def __repr__(self):
        return f"ASet({self.name!r}, |X|={len(self.carrier)})"

    def relabeled(self, name):
        return ASet(self.base, self.carrier, self.action, name=name)


def validate_aset(x) -> ValidationReport:
    report = ValidationReport()
    if isinstance(x.base, MonogenicMonoid):
        if len(x.action) != 1 or len(x.action[0]) != len(x.carrier):
            report.add("ActionShape", ())
            return report
        if x.action[0][0] != 0:
            report.add("BasepointNotFixed", ())
        return report
    m = x.base
    n = len(x.carrier)
    if len(x.action) != len(m.elements) or any(len(r) != n for r in x.action):
        report.add("ActionShape", ())
        return report
    for p in range(n):
        if x.action[m.one][p] != p:
            report.add("IdentityAction", (x.carrier[p],))
        if x.action[ZERO][p] != 0:
            report.add("ZeroKills", (x.carrier[p],))
    for a in m.indices():
        if x.action[a][0] != 0:
            report.add("BasepointNotFixed", (m.elements[a],))
    for a in m.indices():
        for b in m.indices():
            ab = m.table[a][b]
            for p in range(n):
                if x.action[ab][p] != x.action[a][x.action[b][p]]:
                    report.add(
                        "ActionAssociativity",
                        (m.elements[a], m.elements[b], x.carrier[p]),
                    )
                    if len(report.violations) > 16:
                        return report
    return report


def zero_aset(base, name="0"):
    rows = 1 if isinstance(base, MonogenicMonoid) else len(base.elements)
    return ASet(base, ["0"], [[0]] * rows, name=name)


def aset_from_monoid(m, name=None):
    """The monoid acting on itself."""
    if isinstance(m, MonogenicMonoid):
        raise UnsupportedBackend("the monogenic monoid is not a finite carrier")
    return ASet(m, list(m.elements), action=[list(r) for r in m.table], name=name or m.name)


def aset_from_theta(theta, base=None, name="X"):
    """Monogenic-base A-set from the generator self-map."""
    base = base or MonogenicMonoid()
    carrier = ["0"] + [f"p{i}" for i in range(1, len(theta))]
    return ASet(base, carrier, [theta], name=name)


def build_action_from_gen_maps(m, carrier, gen_maps, name="X"):
    """Full action from per-generator carrier maps.

    Over a finite base the rows are filled breadth first from 1: the row
    of a.g is the generator's map after the row of a.  Over the monogenic
    base the generator's map is the whole action.  Validity is checked by
    the caller via validate_aset.
    """
    if isinstance(m, MonogenicMonoid):
        return ASet(m, carrier, gen_maps, name=name)
    n = len(carrier)
    rows = {m.one: list(range(n))}
    queue = [m.one]
    for a in queue:
        for g, gen_map in zip(m.generators, gen_maps):
            b = m.table[a][g]
            if b not in rows:
                rows[b] = [gen_map[p] for p in rows[a]]
                queue.append(b)
    rows[ZERO] = [0] * n  # the zero row sends everything to the basepoint
    for a in m.indices():
        if a not in rows:
            raise ValidationError(f"element {m.elements[a]} not generated")
    return ASet(m, carrier, action=[rows[a] for a in m.indices()], name=name)


def free_aset(m, labels, name=None):
    """Wedge of one copy of the base per label: the free A-set.

    Copy k holds the nonzero elements of A in order: element a is the
    cell ``a[labels[k]]`` at carrier index k(|A|-1) + a, so row b of the
    action is the regular row of b shifted into each copy.
    """
    if isinstance(m, MonogenicMonoid):
        raise BoundExceeded(
            "free A-sets over the monogenic base have infinite carriers; "
            "use the symbolic free complexes in monoidkit.homological"
        )
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise ValidationError("free generator labels must be distinct")
    width = len(m.elements) - 1
    carrier = ["0"] + [f"{m.elements[a]}[{s}]" for s in labels for a in m.nonzero()]
    action = [
        [0] + [0 if ba == ZERO else k * width + ba
               for k in range(len(labels)) for ba in row[1:]]
        for row in m.table
    ]
    return ASet(m, carrier, action=action, name=name or f"{m.name}[{len(labels)}]")


def free_cover(x, points, labels=None, name=None):
    """The evaluation morphism P -> X out of the free A-set P on one
    generator per point: cell a[labels[k]] goes to a.points[k].

    ``labels`` default to the points' carrier names; ``name`` names P.
    """
    points = list(points)
    if labels is None:
        labels = [x.carrier[p] for p in points]
    free = free_aset(x.base, labels, name=name)
    # row a of the action is a's map: the nonzero rows, in element order
    mapping = [0] + [row[p] for p in points for row in x.action[1:]]
    return ASetMorphism(free, x, mapping)


# ---------------------------------------------------------------------------
# morphisms


class ASetMorphism:
    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = list(mapping)

    def __call__(self, x):
        return self.mapping[x]

    def __eq__(self, other):
        return (
            isinstance(other, ASetMorphism)
            and self.mapping == other.mapping
            and self.source is other.source
            and self.target is other.target
        )

    def __hash__(self):
        return hash(tuple(self.mapping))

    def validate(self):
        """Based, and f(row[p]) = row'[f(p)] for each pair of stored rows;
        a violation names the row's index and the carrier point."""
        report = ValidationReport()
        if self.mapping[0] != 0:
            report.add("NotBased", ())
        f = self.mapping
        rows = zip(self.source.action, self.target.action)
        for a, (row_x, row_y) in enumerate(rows):
            for p, q in enumerate(row_x):
                if f[q] != row_y[f[p]]:
                    report.add("NotEquivariant", (a, self.source.carrier[p]))
                    if len(report.violations) > 8:
                        return report
        return report

    def is_surjective(self):
        return set(self.mapping) == set(range(len(self.target.carrier)))

    def is_injective(self):
        return len(set(self.mapping)) == len(self.mapping)

    def kernel_indices(self):
        return [p for p, v in enumerate(self.mapping) if v == 0]

    def is_admissible(self):
        """Injective away from the kernel."""
        seen = {}
        for p, v in enumerate(self.mapping):
            if v == 0:
                continue
            if v in seen:
                return False
            seen[v] = p
        return True

    def compose(self, other):
        """self after other."""
        return ASetMorphism(
            other.source, self.target, [self.mapping[v] for v in other.mapping]
        )


def identity_morphism(x):
    return ASetMorphism(x, x, list(range(len(x.carrier))))


def zero_morphism(x, y):
    return ASetMorphism(x, y, [0] * len(x.carrier))


def sub_aset(x, subset, name=None):
    """A-subset as its own A-set; raises NotASubset when not closed."""
    subset = sorted(set(subset) | {0})
    pos = {p: i for i, p in enumerate(subset)}
    for t in x.gen_tables():
        for p in subset:
            if t[p] not in pos:
                raise NotASubset(f"{x.carrier[p]} leaves the subset")
    carrier = [x.carrier[p] for p in subset]
    action = [[pos[row[p]] for p in subset] for row in x.action]
    return ASet(x.base, carrier, action, name=name or f"{x.name}|sub")


def inclusion_morphism(x, subset, ambient):
    subset = sorted(set(subset) | {0})
    return ASetMorphism(x, ambient, subset)


# ---------------------------------------------------------------------------
# congruences and quotients


class ASetCongruence(Record):
    _fields = ("base", "reps")

    def __init__(self, base: ASet, reps: list[int]):
        self.base = base
        self.reps = reps

    def classes(self):
        buckets = {}
        for i, r in enumerate(self.reps):
            buckets.setdefault(r, []).append(i)
        return [sorted(v) for _, v in sorted(buckets.items())]


def congruence_closure(x, pairs):
    """Smallest congruence containing the pairs (zig-zag closure)."""
    reps = _kernels.closure(len(x.carrier), x.gen_tables(), list(pairs))
    return ASetCongruence(x, reps)


def congruence_closure_naive(x, pairs):
    """Oracle twin: closes under every monoid element, not just generators."""
    tables = x.action
    if isinstance(x.base, MonogenicMonoid):
        # the powers t^1 .. t^(|X|+1) of the generator row
        row = x.action[0]
        tables = [row]
        for _ in range(len(x.carrier)):
            tables.append([row[p] for p in tables[-1]])
    reps = _kernels.closure(len(x.carrier), tables, list(pairs))
    return ASetCongruence(x, reps)


def _require_labels(x, reps):
    """A congruence on ``x`` labels each point with a point of ``x``:
    ``NotACongruence`` for labels of another length or out of range."""
    n = len(x.carrier)
    if len(reps) != n or not all(0 <= r < n for r in reps):
        raise NotACongruence(
            f"a congruence on {x.name} labels each of its {n} points with "
            f"one of them, not {reps}"
        )


def quotient_aset(x, cong_or_pairs, name=None):
    """Quotient by a congruence, or by the one that pairs generate;
    returns (Q, projection).  ``NotACongruence`` for labels that are not
    a congruence on ``x``."""
    if isinstance(cong_or_pairs, ASetCongruence):
        cong = cong_or_pairs
        _require_labels(x, cong.reps)
        if not _is_congruence(x.gen_tables(), cong.reps):
            raise NotACongruence(f"{cong.classes()} is not a congruence of {x.name}")
    else:
        cong = congruence_closure(x, cong_or_pairs)
    reps = cong.reps
    zero_rep = reps[0]
    ordered = [zero_rep] + sorted(set(reps) - {zero_rep})
    pos = {r: i for i, r in enumerate(ordered)}
    carrier = ["0"] + [x.carrier[r] for r in ordered[1:]]
    action = [[pos[reps[row[r]]] for r in ordered] for row in x.action]
    q = ASet(x.base, carrier, action, name=name or f"{x.name}/~")
    proj = ASetMorphism(x, q, [pos[reps[p]] for p in range(len(x.carrier))])
    return q, proj


def quotient_by_subset(x, subset, name=None):
    """Collapse an A-subset to the basepoint, fixing the rest."""
    subset = sorted(set(subset) | {0})
    for t in x.gen_tables():
        for p in subset:
            if t[p] not in subset:
                raise NotASubset(f"{x.carrier[p]} leaves the subset")
    return quotient_aset(x, [(p, 0) for p in subset], name=name)


# ---------------------------------------------------------------------------
# kernels and images


def kernel_aset(f):
    return sub_aset(f.source, f.kernel_indices(), name=f"ker({f.source.name})")


def image_aset(f):
    return sub_aset(f.target, sorted(set(f.mapping)), name=f"im({f.source.name})")


# ---------------------------------------------------------------------------
# wedges, smashes, tensors


def wedge(parts, name=None):
    """Wedge sum; carrier 0 then the nonzero parts of each summand."""
    base = parts[0].base
    carrier = ["0"]
    offsets = []
    for k, p in enumerate(parts):
        offsets.append(len(carrier))
        for i in p.nonzero():
            carrier.append(f"{p.carrier[i]}@{k}")

    def glob(k, i):
        return 0 if i == 0 else offsets[k] + i - 1

    # one row of the wedge per tuple of matching summand rows
    action = [
        [0]
        + [glob(k, row[i]) for k, row in enumerate(rows) for i in range(1, len(row))]
        for rows in zip(*(p.action for p in parts))
    ]
    w = ASet(base, carrier, action, name=name or "wedge")
    w.wedge_offsets = offsets
    w.wedge_parts = parts
    return w


def wedge_inclusions(w):
    out = []
    for k, p in enumerate(w.wedge_parts):
        mapping = [0] + [w.wedge_offsets[k] + i - 1 for i in p.nonzero()]
        out.append(ASetMorphism(p, w, mapping))
    return out


def smash(x, y, name=None):
    """Nonzero pairs plus basepoint, coordinatewise action."""
    pairs = [(i, j) for i in x.nonzero() for j in y.nonzero()]
    pos = {p: k + 1 for k, p in enumerate(pairs)}

    def node(i, j):
        return 0 if i == 0 or j == 0 else pos[(i, j)]

    carrier = ["0"] + [f"({x.carrier[i]},{y.carrier[j]})" for i, j in pairs]
    action = [
        [0] + [node(row_x[i], row_y[j]) for i, j in pairs]
        for row_x, row_y in zip(x.action, y.action)
    ]
    return ASet(x.base, carrier, action, name=name or "smash")


def tensor(x, y, name=None):
    """Balanced product: smash carrier modulo generator interchange moves.

    The congruence is generated by (g.u, v) ~ (u, g.v) over the monoid
    generators g; the action on classes moves the first coordinate.
    """
    pairs = [(i, j) for i in x.nonzero() for j in y.nonzero()]
    pos = {p: k + 1 for k, p in enumerate(pairs)}

    def node(i, j):
        return 0 if i == 0 or j == 0 else pos[(i, j)]

    gens = list(zip(x.gen_tables(), y.gen_tables()))
    moves = [(node(gx[i], j), node(i, gy[j])) for i, j in pairs for gx, gy in gens]
    reps = _kernels.closure(len(pairs) + 1, [], moves)

    zero_rep = reps[0]
    ordered = [zero_rep] + sorted(set(reps) - {zero_rep})
    pos_cls = {r: k for k, r in enumerate(ordered)}

    def cls(i, j):
        return pos_cls[reps[node(i, j)]]

    rep_pair = {}
    for k, (i, j) in enumerate(pairs):
        r = reps[k + 1]
        if r != zero_rep and r not in rep_pair:
            rep_pair[r] = (i, j)
    carrier = ["0"] + [
        f"[{x.carrier[rep_pair[r][0]]},{y.carrier[rep_pair[r][1]]}]"
        for r in ordered[1:]
    ]
    rep_pairs = [rep_pair[r] for r in ordered[1:]]
    action = [[0] + [cls(row[i], j) for i, j in rep_pairs] for row in x.action]
    t = ASet(x.base, carrier, action, name=name or "tensor")
    t.pair_class = {(i, j): cls(i, j) for (i, j) in pairs}
    report = validate_aset(t)
    if not report.ok:
        raise ValidationError(f"tensor action ill-defined: {report}")
    return t


# ---------------------------------------------------------------------------
# hom enumeration


def aset_generators(x, points=None):
    """Minimal generating set of the A-subset ``points`` span (all of X
    when None), as carrier indices in increasing order.

    Reachability (p <= q iff p is in A.q) is a preorder on the span, and
    a set generates it iff it meets every maximal class: a strongly
    connected class of the generator graph that no edge from another
    class enters.  So the least point of each maximal class, leaving out
    the basepoint's, is a generating set of the least possible size.  One
    iterative Tarjan pass (1972) finds the classes; a class is closed
    only after every class its points reach, so an edge into an already
    closed class is an edge between classes.
    """
    tables = x.gen_tables()
    n = len(x.carrier)
    num = [None] * n  # visit number, None while unvisited
    low = [0] * n
    cls = [None] * n  # visit number of the class root once the class is closed
    num[0] = cls[0] = 0  # the basepoint is its own class, visited and closed
    edge = [0] * n  # next table to follow out of each point on the path
    entered = set()  # classes with an edge from another class
    least = []  # (class, least point) for each closed class
    stack, path = [], []
    count = 0
    for s in x.nonzero() if points is None else points:
        if num[s] is not None:
            continue
        count += 1
        num[s] = low[s] = count
        stack.append(s)
        path.append(s)
        while path:
            u = path[-1]
            i = edge[u]
            if i < len(tables):
                edge[u] = i + 1
                v = tables[i][u]
                if num[v] is None:
                    count += 1
                    num[v] = low[v] = count
                    stack.append(v)
                    path.append(v)
                elif cls[v] is None:
                    if num[v] < low[u]:
                        low[u] = num[v]
                else:
                    entered.add(cls[v])
                continue
            path.pop()
            if low[u] == num[u]:
                w = stack.pop()
                cls[w] = num[u]
                first = w
                while w != u:
                    w = stack.pop()
                    cls[w] = num[u]
                    if w < first:
                        first = w
                least.append((num[u], first))
            if path:
                p = path[-1]
                if cls[u] is None:
                    if low[u] < low[p]:
                        low[p] = low[u]
                else:
                    entered.add(cls[u])
    return sorted(first for c, first in least if c not in entered)


def generated_subset(x, points):
    """The A-subset the points generate, with 0: every point reached from
    one of them along the generator tables."""
    out = {0, *points}
    frontier = list(out)
    tables = x.gen_tables()
    while frontier:
        q = frontier.pop()
        for t in tables:
            r = t[q]
            if r not in out:
                out.add(r)
                frontier.append(r)
    return out


def _close(mapping, frontier, tables, taken=None):
    """Close a partial map in place along table pairs (t_x, t_y):
    f(t_x[q]) = t_y[f(q)] for every mapped q, starting from ``frontier``.

    Returns False on a clash.  With ``taken``, the set of images in use,
    an image that a propagated point would share is a clash too.
    """
    while frontier:
        q = frontier.pop()
        for t_x, t_y in tables:
            src, dst = t_x[q], t_y[mapping[q]]
            if mapping[src] is None:
                if taken is not None:
                    if dst in taken:
                        return False
                    taken.add(dst)
                mapping[src] = dst
                frontier.append(src)
            elif mapping[src] != dst:
                return False
    return True


def _equivariant_maps(x, y, candidates=None, injective=False):
    """Every based equivariant map X -> Y, as carrier lists, depth first.

    A map is fixed by its values on ``aset_generators(x)``, a generating
    set of least size, so the search branches on as few points as any
    search over generator images can; generator ``g`` takes its value
    from ``candidates(g)`` (all of Y when None), in that order.  Each
    partial map is closed under the generator tables only (``_close``).
    That is equivariance for every monoid element on validated inputs:
    every nonzero element of a finite base is a generator word (the
    ``NonGenerating`` check), the zero element sends everything to the
    basepoint, and the monogenic base has the single generator row.

    With ``injective`` a point may not take an image that another point
    already has, whether it is a generator's chosen value or a value the
    tables propagate; so only injective maps are yielded, and between
    carriers of one size these are the isomorphisms.
    """
    gens = aset_generators(x)
    tables = list(zip(x.gen_tables(), y.gen_tables()))
    everything = range(len(y.carrier))

    def extend(mapping, p, img):
        """Copy with f(p) = img, closed under the tables; None on a clash."""
        taken = None
        if injective:
            taken = set(mapping)
            if img in taken:
                return None
            taken.add(img)
        mapping = list(mapping)
        mapping[p] = img
        return mapping if _close(mapping, [p], tables, taken) else None

    def rec(k, mapping):
        if k == len(gens):
            yield mapping
            return
        g = gens[k]
        if mapping[g] is not None:
            yield from rec(k + 1, mapping)
            return
        for img in everything if candidates is None else candidates(g):
            nxt = extend(mapping, g, img)
            if nxt is not None:
                yield from rec(k + 1, nxt)

    start = extend([None] * len(x.carrier), 0, 0)
    if start is not None:
        yield from rec(0, start)


def hom_enumerate(x, y):
    """All based equivariant maps, canonically sorted."""
    maps = sorted(set(map(tuple, _equivariant_maps(x, y))))
    return [ASetMorphism(x, y, list(r)) for r in maps]


def section(f):
    """A morphism s with f . s = id, or None when f has no section.

    Each generator of the target takes its value in its own fiber under
    ``f``; since ``f`` is equivariant, f . s then fixes every point.
    """
    fibers = [[] for _ in f.target.carrier]
    for i, v in enumerate(f.mapping):
        fibers[v].append(i)
    s = next(_equivariant_maps(f.target, f.source, candidates=fibers.__getitem__), None)
    return None if s is None else ASetMorphism(f.target, f.source, s)


def hom_aset(x, y):
    """Hom(X, Y) with its pointwise action (af)(p) = f(a p): row ``a``
    sends f to p -> f(row[p])."""
    homs = hom_enumerate(x, y)
    idx = {tuple(h.mapping): i for i, h in enumerate(homs)}
    zero_i = idx[tuple([0] * len(x.carrier))]
    order = [zero_i] + [i for i in range(len(homs)) if i != zero_i]
    pos = {old: new for new, old in enumerate(order)}
    carrier = [f"f{pos[i]}" for i in order]
    carrier[0] = "0"

    maps = [homs[i].mapping for i in order]
    action = [[pos[idx[tuple(f[q] for q in row)]] for f in maps] for row in x.action]
    h = ASet(x.base, carrier, action, name=f"Hom({x.name},{y.name})")
    h.morphisms = [homs[i] for i in order]
    return h


# ---------------------------------------------------------------------------
# isomorphism search and canonical forms


def _invariants(x):
    tables = x.gen_tables()
    n = len(x.carrier)
    colors = [0] * n
    colors[0] = -1
    # in-degrees do not depend on the colors: count them once
    indeg = [tuple(t.count(p) for t in tables) for p in range(n)]
    for _ in range(n):
        sig = []
        for p in range(n):
            sig.append((colors[p], tuple(colors[t[p]] for t in tables), indeg[p]))
        ranking = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranking[s] for s in sig]
        if new == colors:
            break
        colors = new
    return colors


def _classes(x):
    """Isomorphism-invariant class of each point: its ``_invariants``
    colour and which generator tables fix it.  Built once per A-set and
    kept on it."""
    if x._colours is None:
        tables = x.gen_tables()
        x._colours = [(c, tuple(t[p] == p for t in tables))
                      for p, c in enumerate(_invariants(x))]
    return x._colours


def find_isomorphism(x, y):
    """Basepoint-preserving equivariant bijection, or None.

    The injective search of ``_equivariant_maps``, with each generator of
    X sent only to points of Y in its class.  The classes (``_classes``)
    are kept on each A-set, so an A-set compared again reuses them.
    """
    if len(x.carrier) != len(y.carrier):
        return None
    if isinstance(x.base, MonogenicMonoid) != isinstance(y.base, MonogenicMonoid):
        return None
    if len(x.gen_tables()) != len(y.gen_tables()):
        return None
    cx, cy = _classes(x), _classes(y)
    if sorted(cx) != sorted(cy):
        return None
    same_class = {}
    for q, c in enumerate(cy):
        same_class.setdefault(c, []).append(q)
    maps = _equivariant_maps(x, y, lambda p: same_class[cx[p]], injective=True)
    return next(maps, None)


def is_isomorphic(x, y):
    return find_isomorphism(x, y) is not None


def canonical_theta_key(theta):
    """Complete isomorphism invariant of a based self-map: the first map of
    its class in ``itertools.product`` order, so two keys are equal iff
    the maps are conjugate by a bijection of the carrier fixing 0.

    Read from the orbit pass of ``enumerate_asets`` over the monogenic
    base, built once per carrier size.  That pass maps all c^(c-1) based
    self-maps, so carriers past 7 raise ``BoundExceeded``.
    """
    theta = tuple(theta)
    if len(theta) > 7:
        raise BoundExceeded(f"carrier {len(theta)} exceeds the based-map class bound 7")
    rep = _based_map_classes(len(theta)).get(theta) if theta else None
    if rep is None:
        raise ValidationError(f"{list(theta)} is not a based self-map")
    return rep


@functools.lru_cache(maxsize=None)
def _based_map_classes(c):
    """Every based self-map on c points -> the first map of its class."""
    first = _table_classes(MonogenicMonoid(), c, up_to_iso=True)[1]
    return {t: rep for (t,), (rep,) in first.items()}


def canonical_key(x):
    """Canonical relabeling key for dedup up to isomorphism."""
    tables = x.gen_tables()
    n = len(x.carrier)
    colors = _invariants(x)
    groups = {}
    for p in range(1, n):
        groups.setdefault(colors[p], []).append(p)
    buckets = [groups[c] for c in sorted(groups)]

    best = None
    for perm_parts in itertools.product(
        *[itertools.permutations(b) for b in buckets]
    ):
        perm = [0] * n
        new_index = 1
        assign = {}
        for part in perm_parts:
            for p in part:
                assign[p] = new_index
                new_index += 1
        assign[0] = 0
        enc = tuple(
            tuple(assign[t[p]] for p in sorted(range(n), key=lambda q: assign[q]))
            for t in tables
        )
        if best is None or enc < best:
            best = enc
    return (n, best)


# ---------------------------------------------------------------------------
# localization


def localize_aset(x, s_gens, name=None):
    """Fractions of the carrier at the multiplicative set; the result is an
    A-set over the localized base, returned as (X_S, base hom, unit map)."""
    m = x.base
    if isinstance(m, MonogenicMonoid):
        raise UnsupportedBackend("localize finite-table based A-sets")
    loc, hom = localize_monoid(m, s_gens)
    s = multiplicative_set(m, s_gens)
    fractions, carrier, cls = fraction_classes(m, s, x.act, x.carrier)
    # (a/sv).(p/t) = (a.p)/(sv t), with a/sv the least fraction of each
    # element of the localized base
    action = [
        [cls[(x.act(a, p), m.table[sv][t])] for p, t in fractions]
        for a, sv in loc.fractions
    ]
    xs = ASet(loc, carrier, action=action, name=name or f"{x.name}_S")
    unit = ASetMorphism(x, xs, [cls[(p, m.one)] for p in range(len(x.carrier))])
    report = validate_aset(xs)
    if not report.ok:
        raise ValidationError(f"localized action ill-defined: {report}")
    for a in m.indices():
        for p in range(len(x.carrier)):
            if unit(x.act(a, p)) != xs.act(hom(a), unit(p)):
                raise OracleMismatch(
                    f"unit map not equivariant: {m.elements[a]}.{x.carrier[p]}"
                )
    return xs, hom, unit


def ann_aset(x):
    """Annihilator ideal of the whole A-set inside the base."""
    m = x.base
    return sorted(
        a
        for a in m.indices()
        if all(x.act(a, p) == 0 for p in range(len(x.carrier)))
    )


# ---------------------------------------------------------------------------
# enumerations


def _generator_map_candidates(m, g, c):
    """Based self-maps on c points compatible with the generator's power
    relations inside the base monoid."""
    n = len(m.elements)
    powers = [m.one]
    x = m.one
    for _ in range(n + 1):
        x = m.table[x][g]
        powers.append(x)
    constraints = []  # (i, j) with g^i == g^j, plus zero powers
    zero_powers = [i for i, p in enumerate(powers) if p == ZERO and i > 0]
    seen = {}
    for i, p in enumerate(powers):
        if i == 0:
            continue
        if p in seen:
            constraints.append((seen[p], i))
        else:
            seen[p] = i
    zero = [0] * c
    top = max([j for _, j in constraints] + zero_powers[:1], default=0)
    out = []
    for tail in itertools.product(range(c), repeat=c - 1):
        theta = (0,) + tail
        power = [list(range(c))]  # power[k] sends p to theta^k(p)
        for _ in range(top):
            power.append([theta[v] for v in power[-1]])
        if all(power[i] == power[j] for i, j in constraints) and (
            not zero_powers or power[zero_powers[0]] == zero
        ):
            out.append(theta)
    return out


def enumerate_asets(m, carrier_size, up_to_iso=True):
    """Every A-set structure on a carrier of the given size.

    Over a finite base, enumerates compatible per-generator self-maps,
    derives the full grid along generator words, and keeps the grids
    that satisfy all axioms.  Over the monogenic base t is free, so its
    maps are every based self-map, in ``itertools.product`` order.

    With ``up_to_iso`` each kept tuple of generator maps marks its whole
    orbit: every relabeling s t s^-1 of its maps by a bijection s of the
    carrier that fixes the basepoint, which is exactly its isomorphism
    class.  A relabeled valid table is valid and meets the same power
    relations, so it comes up in the product and is skipped before any
    work is done on it.  The result is the first table of each class in
    product order, the same list that deduplicating every valid table by
    ``canonical_key`` gives.
    """
    return _table_classes(m, carrier_size, up_to_iso)[0]


def _table_classes(m, c, up_to_iso):
    """The kept A-sets of ``enumerate_asets``, and (with ``up_to_iso``) the
    one orbit pass behind them: a dict sending every valid tuple of
    generator maps to the first tuple of its class."""
    carrier = ["0"] + [f"p{i}" for i in range(1, c)]
    if isinstance(m, MonogenicMonoid):
        per_gen = [[(0,) + tail for tail in itertools.product(range(c), repeat=c - 1)]]
    elif len(m.elements) == 1:
        # over the zero monoid only the one-point carrier is consistent
        return ([ASet(m, ["0"], action=[[0]], name="S1")] if c == 1 else []), {}
    elif not m.generators:
        return [ASet(m, carrier, action=[[0] * c, list(range(c))], name=f"S{c}")], {}
    else:
        per_gen = [_generator_map_candidates(m, g, c) for g in m.generators]
    # (s, s^-1) for each relabeling; t becomes s t s^-1 = [s[t[q]] for q in s^-1]
    relabelings = []
    if up_to_iso:
        for perm in itertools.permutations(range(1, c)):
            s = (0,) + perm
            relabelings.append((s, sorted(range(c), key=s.__getitem__)))
    out = []
    first = {}
    for combo in itertools.product(*per_gen):
        if combo in first:
            continue
        # commuting actions are necessary in a commutative base
        ok = True
        for t1, t2 in itertools.combinations(combo, 2):
            if any(t1[t2[p]] != t2[t1[p]] for p in range(c)):
                ok = False
                break
        if not ok:
            continue
        try:
            x = build_action_from_gen_maps(m, list(carrier), list(combo))
        except ValidationError:
            continue
        if not validate_aset(x).ok:
            continue
        # zip each map's relabelings back into the relabeled tuples
        conjugates = [[tuple([s[t[q]] for q in inverse]) for s, inverse in relabelings]
                      for t in combo]
        first.update(dict.fromkeys(zip(*conjugates), combo))
        out.append(x)
    return out, first


def enumerate_asubsets(x, bound=DEFAULT_ENUM_BOUND):
    if len(x.carrier) - 1 > bound:
        raise BoundExceeded(f"carrier {len(x.carrier)} exceeds bound {bound}")
    tables = x.gen_tables()
    out = []
    nz = list(x.nonzero())
    for r in range(len(nz) + 1):
        for combo in itertools.combinations(nz, r):
            sub = set(combo) | {0}
            if all(t[p] in sub for p in sub for t in tables):
                out.append(sorted(sub))
    out.sort(key=lambda s: (len(s), s))
    return out


def enumerate_congruences(x, bound=DEFAULT_ENUM_BOUND):
    n = len(x.carrier)
    if n > bound:
        raise BoundExceeded(f"carrier {n} exceeds bound {bound}")
    tables = x.gen_tables()
    out = []
    # restricted-growth enumeration of set partitions of the carrier
    code = [0] * n

    def rec(i, maxc):
        if i == n:
            reps = {}
            arr = [0] * n
            for p in range(n):
                arr[p] = reps.setdefault(code[p], p)
            if _is_congruence(tables, arr):
                out.append(list(arr))
            return
        for c in range(maxc + 2):
            code[i] = c
            rec(i + 1, max(maxc, c))

    rec(1, 0) if n > 0 else None
    out.sort()
    return [ASetCongruence(x, arr) for arr in out]


def _is_congruence(tables, arr):
    n = len(arr)
    for p in range(n):
        for q in range(p + 1, n):
            if arr[p] == arr[q]:
                for t in tables:
                    if arr[t[p]] != arr[t[q]]:
                        return False
    return True


# ---------------------------------------------------------------------------
# split checks


class SplitReport(Record):
    _fields = ("splits", "has_section", "wedge_isomorphic", "has_retraction",
               "has_admissible_retraction")

    def __init__(self, splits: bool, has_section: bool, wedge_isomorphic: bool,
                 has_retraction: bool, has_admissible_retraction: bool):
        self.splits = splits
        self.has_section = has_section
        self.wedge_isomorphic = wedge_isomorphic
        self.has_retraction = has_retraction
        self.has_admissible_retraction = has_admissible_retraction


def validate_aes(g, f):
    """0 -> X -g-> Y -f-> Z -> 0 admissible exact; raises NotAES."""
    if g.target is not f.source:
        raise NotAES("maps do not compose")
    if not g.is_injective():
        raise NotAES("left map is not injective")
    if not f.is_surjective():
        raise NotAES("right map is not surjective")
    if not f.is_admissible():
        raise NotAES("right map is not admissible")
    if sorted(set(g.mapping)) != sorted(f.kernel_indices()):
        raise NotAES("image of the left map is not the kernel of the right")


def split_check(g, f):
    """Does 0 -> X -> Y -> Z -> 0 split?  Reports all four witnesses."""
    validate_aes(g, f)
    x, y, z = g.source, g.target, f.target
    sec = section(f)
    identity = list(range(len(x.carrier)))
    # r . g = id pins each generator of Y in g's image to its preimage
    preimage = {v: [p] for p, v in enumerate(g.mapping)}
    retractions = [
        ASetMorphism(y, x, r)
        for r in _equivariant_maps(y, x, lambda q: preimage.get(q, identity))
        if [r[v] for v in g.mapping] == identity
    ]
    wedge_iso = is_isomorphic(y, wedge([x, z]))
    has_section = sec is not None
    has_adm_retr = any(r.is_admissible() for r in retractions)
    if not has_section == wedge_iso == has_adm_retr:
        raise OracleMismatch(
            f"splitting criteria disagree: section "
            f"{sec.mapping if has_section else None}, Y = X v Z {wedge_iso}, "
            f"admissible retraction {has_adm_retr}"
        )
    return SplitReport(
        splits=has_section,
        has_section=has_section,
        wedge_isomorphic=wedge_iso,
        has_retraction=bool(retractions),
        has_admissible_retraction=has_adm_retr,
    )
