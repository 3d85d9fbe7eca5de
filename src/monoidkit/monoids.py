"""Commutative pointed monoids in three backends.

* ``FiniteMonoid`` -- full multiplication table, index 0 is the zero
  element and index 1 the identity (they coincide in the one-element
  zero monoid).  All exhaustive algorithms live here.
* ``MonogenicMonoid`` -- the free pointed monoid on one generator
  (elements are exponents; the zero element is ``None``).  Infinite, used
  where an injective multiplication is required.
* ``AffineMonoid`` -- finitely generated submonoid of a lattice, with an
  optional finite unit group and optional monomial ideal (the partially
  cancellative representation).  Geometry operations live in
  :mod:`monoidkit.geometry`.
"""

from __future__ import annotations

import heapq
import itertools
import re

from ._records import Record
from .errors import (
    BadWord,
    BoundExceeded,
    NotAnIdeal,
    OracleMismatch,
    UnsupportedBackend,
    ValidationError,
    ZeroInS,
    ZeroNotPrime,
)

ZERO = 0
ONE = 1


# ---------------------------------------------------------------------------
# finite tables


class FiniteMonoid:
    """Commutative pointed monoid given by a full multiplication table.

    It holds its names, table, generators and a name index, and no derived
    structure: ideals, primes and decompositions are computed per call.
    """

    backend = "finite-table"

    def __init__(self, name, elements, table, generators=None):
        self.name = name
        self.elements = list(elements)
        self.table = [list(row) for row in table]
        if generators is None:
            generators = _minimal_generators(self)
        self.generators = list(generators)
        self._index = {e: i for i, e in enumerate(self.elements)}

    # -- basic arithmetic ---------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def mul(self, i, j):
        return self.table[i][j]

    def power(self, i, k):
        acc = ONE if len(self.elements) > 1 else ZERO
        for _ in range(k):
            acc = self.table[acc][i]
        return acc

    def index_of(self, name):
        return self._index[name]

    def element_name(self, i):
        return self.elements[i]

    def indices(self):
        return range(len(self.elements))

    def nonzero(self):
        return range(1, len(self.elements)) if len(self.elements) > 1 else range(0)

    @property
    def zero(self):
        return ZERO

    @property
    def one(self):
        return ONE if len(self.elements) > 1 else ZERO

    def __repr__(self):
        return f"FiniteMonoid({self.name!r}, {len(self.elements)} elements)"

    def submonoid_closure(self, seed):
        """Indices of the submonoid generated by ``seed`` (with 1)."""
        seen = {self.one}
        frontier = [self.one]
        seed = list(seed)
        while frontier:
            x = frontier.pop()
            for s in seed:
                y = self.table[x][s]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen


def _minimal_generators(m):
    # greedy sweep in canonical element order; each unreachable element
    # becomes a generator (zero need not be generated)
    gens = []
    reachable = {m.one}
    for e in range(2, len(m.elements)):
        if e not in reachable:
            gens.append(e)
            reachable = m.submonoid_closure(gens)
    return gens


# ---------------------------------------------------------------------------
# monogenic backend


class MonogenicMonoid:
    """Free pointed monoid on one generator; elements are exponents.

    ``None`` is the zero element and the integer ``k`` stands for the k-th
    power of the generator (0 = identity).
    """

    backend = "monogenic"

    def __init__(self, name="N", generator_name="t"):
        self.name = name
        self.generator_name = generator_name

    def mul(self, a, b):
        if a is None or b is None:
            return None
        return a + b

    def element_name(self, a):
        if a is None:
            return "0"
        if a == 0:
            return "1"
        if a == 1:
            return self.generator_name
        return f"{self.generator_name}^{a}"

    def __repr__(self):
        return f"MonogenicMonoid({self.name!r})"


def generator_names(base):
    """Names of a base's generators, in the order of ``ASet.gen_tables``."""
    if isinstance(base, MonogenicMonoid):
        return [base.generator_name]
    return [base.elements[g] for g in base.generators]


# ---------------------------------------------------------------------------
# affine backend


class AffineMonoid(Record):
    """Finitely generated submonoid of Z^rank (optionally times a finite
    unit group), possibly modulo a monomial ideal."""

    _fields = ("name", "rank", "generators", "unit_orders", "unit_tags",
               "monomial_ideal", "degree_bound")
    backend = "affine"

    def __init__(
        self,
        name: str,
        rank: int,
        generators: list[tuple[int, ...]],
        unit_orders: list[int] | None = None,
        unit_tags: list[tuple[int, ...]] | None = None,
        monomial_ideal: list[tuple[int, ...]] | None = None,
        degree_bound: int = 8,
    ):
        self.name = name
        self.rank = rank
        self.unit_orders = [] if unit_orders is None else unit_orders
        self.unit_tags = unit_tags
        self.degree_bound = degree_bound
        self.generators = [tuple(int(x) for x in g) for g in generators]
        for g in self.generators:
            if len(g) != self.rank:
                raise ValidationError(f"generator {g} does not match rank {self.rank}")
        for o in self.unit_orders:
            if o < 2:
                raise ValidationError("unit group orders must be >= 2")
        if self.unit_tags is not None and len(self.unit_tags) != len(self.generators):
            raise ValidationError("unit_tags must align with generators")
        self.monomial_ideal = [tuple(int(x) for x in v) for v in monomial_ideal or ()]
        bound = self.degree_bound
        if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
            raise ValidationError(f"degree_bound must be an integer >= 1, got {bound!r}")
        self._generator_set = frozenset(self.generators)
        self._level_sets = {}
        self._cone = None  # geometry.chart_cone builds it on first use

    @property
    def is_pc_quotient(self):
        return bool(self.monomial_ideal)

    def _bound(self, bound):
        """``bound``, or ``degree_bound`` when it is None; an explicit bound
        must be an int >= 0."""
        if bound is None:
            return self.degree_bound
        if isinstance(bound, bool) or not isinstance(bound, int) or bound < 0:
            raise ValidationError(f"bound must be an integer >= 0, got {bound!r}")
        return bound

    def _packed_level_set(self, bound):
        """``(radius, radix, codes)``: the packed codes of every sum of at
        most ``bound`` generators (see ``bounded_elements``).

        The code is additive, so the search adds the generators' codes
        level by level; a code joins only if no earlier level holds it.
        Cached per bound, since the generators never change.  ``bound``
        defaults to ``degree_bound``; an explicit one must be an int >= 0.
        """
        bound = self._bound(bound)
        found = self._level_sets.get(bound)
        if found is None:
            radius = bound * max((abs(x) for g in self.generators for x in g), default=0)
            radix = 2 * radius + 1
            steps = {_pack(g, radix) for g in self.generators}
            seen, level = {0}, {0}
            for _ in range(bound):
                level = {v + g for v in level for g in steps} - seen
                if not level:
                    break
                seen |= level
            found = self._level_sets[bound] = (radius, radix, frozenset(seen))
        return found

    def bounded_elements(self, bound=None):
        """Every sum of at most ``bound`` generators, as a frozenset of tuples.

        The level set is kept as one int per vector: with radius =
        bound * max|g_ij| and radix = 2 * radius + 1, v is packed as
        sum(v_i * radix**i).  Every sum of at most ``bound`` generators
        lies in the box [-radius, radius]^rank, and on that box the code is
        injective: it is v's base-radix expansion with balanced digits
        -radius..radius, one digit per coordinate.  Decoding reads the
        digits v_i + radius of code + radius * (1 + radix + ... +
        radix**(rank-1)).
        """
        radius, radix, codes = self._packed_level_set(bound)
        offset = _pack((radius,) * self.rank, radix)
        out = []
        for code in codes:
            code += offset
            v = []
            for _ in range(self.rank):
                code, digit = divmod(code, radix)
                v.append(digit - radius)
            out.append(tuple(v))
        return frozenset(out)

    def contains(self, vec, bound=None):
        """Bounded membership: is vec a sum of at most ``bound`` generators?

        One lookup of vec's code in the packed level set (see
        ``bounded_elements``).  A vector of the wrong length or with an
        entry outside [-radius, radius] is rejected before it is packed,
        since outside the box the code is not injective: for generator
        (1, 0) and bound 1 the radix is 3, and (-2, 1) packs to the code
        of (1, 0).  A generator is a member for every bound >= 1, so it is
        answered before any level set is built.
        """
        vec = tuple(int(x) for x in vec)
        if vec in self._generator_set and self._bound(bound) >= 1:
            return True
        radius, radix, codes = self._packed_level_set(bound)
        if len(vec) != self.rank or max(map(abs, vec), default=0) > radius:
            return False
        return _pack(vec, radix) in codes

    def __repr__(self):
        return f"AffineMonoid({self.name!r}, rank={self.rank}, gens={self.generators})"


def _pack(vec, radix):
    """sum(vec[i] * radix**i), by Horner's rule."""
    code = 0
    for x in reversed(vec):
        code = code * radix + x
    return code


# ---------------------------------------------------------------------------
# defining data


def monoid_to_doc(m):
    """The defining data of ``m`` as a JSON document (the document kinds
    ``finite-table``, ``monogenic`` and ``affine``)."""
    if isinstance(m, FiniteMonoid):
        return {
            "kind": "finite-table",
            "name": m.name,
            "elements": list(m.elements),
            "mul": [list(r) for r in m.table],
            "generators": [m.elements[g] for g in m.generators],
        }
    if isinstance(m, MonogenicMonoid):
        return {"kind": "monogenic", "name": m.name, "generator": m.generator_name}
    if isinstance(m, AffineMonoid):
        doc = {
            "kind": "affine",
            "name": m.name,
            "rank": m.rank,
            "generators": [list(g) for g in m.generators],
            "degree_bound": m.degree_bound,
        }
        if m.unit_orders:
            doc["unit_group"] = list(m.unit_orders)
        if m.unit_tags is not None:
            doc["unit_tags"] = [list(t) for t in m.unit_tags]
        if m.monomial_ideal:
            doc["monomial_ideal"] = [list(v) for v in m.monomial_ideal]
        return doc
    raise ValidationError(f"cannot serialize {type(m).__name__}")


def same_monoid(a, b):
    """Whether ``a`` and ``b`` have the same defining data, name included."""
    return a is b or monoid_to_doc(a) == monoid_to_doc(b)


# ---------------------------------------------------------------------------
# validation


class Violation(Record):
    _fields = ("kind", "witness")

    def __init__(self, kind: str, witness: tuple):
        self.kind = kind
        self.witness = witness

    def __str__(self):
        return f"{self.kind}{self.witness}"


class ValidationReport(Record):
    _fields = ("violations",)

    def __init__(self, violations: list[Violation] | None = None):
        self.violations = [] if violations is None else violations

    @property
    def ok(self):
        return not self.violations

    def add(self, kind, witness):
        self.violations.append(Violation(kind, tuple(witness)))

    def __str__(self):
        if self.ok:
            return "valid"
        return "; ".join(str(v) for v in self.violations)


def validate(m) -> ValidationReport:
    """Check the pointed-monoid axioms exhaustively (finite tables)."""
    report = ValidationReport()
    if isinstance(m, MonogenicMonoid):
        return report
    if isinstance(m, AffineMonoid):
        for o in m.unit_orders:
            if o < 2:
                report.add("UnitOrder", (o,))
        return report
    n = len(m.elements)
    if len(m.table) != n or any(len(row) != n for row in m.table):
        report.add("TableShape", (n,))
        return report
    for i in range(n):
        for j in range(n):
            v = m.table[i][j]
            if not (0 <= v < n):
                report.add("TableRange", (m.elements[i], m.elements[j]))
                return report
    one = m.one
    for a in range(n):
        if m.table[ZERO][a] != ZERO or m.table[a][ZERO] != ZERO:
            report.add("Absorbing", (m.elements[a],))
        if m.table[one][a] != a or m.table[a][one] != a:
            report.add("Identity", (m.elements[a],))
    for a in range(n):
        for b in range(a, n):
            if m.table[a][b] != m.table[b][a]:
                report.add("Commutativity", (m.elements[a], m.elements[b]))
    for a in range(n):
        for b in range(n):
            ab = m.table[a][b]
            for c in range(n):
                if m.table[ab][c] != m.table[a][m.table[b][c]]:
                    report.add(
                        "Associativity",
                        (m.elements[a], m.elements[b], m.elements[c]),
                    )
                    if len(report.violations) > 16:
                        return report
    gen_closure = m.submonoid_closure(m.generators)
    missing = [m.elements[e] for e in range(1, n) if e not in gen_closure]
    if missing and n > 1:
        report.add("NonGenerating", tuple(missing))
    return report


# ---------------------------------------------------------------------------
# presentations


_TOKEN = re.compile(r"([A-Za-z_][A-Za-z_0-9']*)(?:\^(\d+))?$")


def parse_word(word, gen_names):
    """Parse a word into an exponent vector; '1' is empty, '0' is zero."""
    if isinstance(word, (tuple, list)):
        if len(word) != len(gen_names):
            raise BadWord(f"exponent vector {word} does not match generators")
        return tuple(int(x) for x in word)
    w = str(word).strip()
    if w == "0":
        return None
    exps = [0] * len(gen_names)
    if w in ("1", ""):
        return tuple(exps)
    idx = {g: i for i, g in enumerate(gen_names)}
    for factor in w.split("*"):
        factor = factor.strip()
        mt = _TOKEN.match(factor)
        if not mt or mt.group(1) not in idx:
            raise BadWord(f"bad factor {factor!r} in word {word!r}")
        exps[idx[mt.group(1)]] += int(mt.group(2) or 1)
    return tuple(exps)


def render_word(exps, gen_names):
    if exps is None:
        return "0"
    parts = []
    for e, g in zip(exps, gen_names):
        if e == 1:
            parts.append(g)
        elif e > 1:
            parts.append(f"{g}^{e}")
    return "*".join(parts) if parts else "1"


def word_key(w):
    """Canonical word order: degree first, then earlier generators first.

    It is a graded monomial order, so the least word of a class is the
    least word of another class times one generator.
    """
    return (sum(w), tuple(-e for e in w))


def build_from_presentation(gen_names, relations, bound=24, name=None):
    """Quotient of the free commutative pointed monoid by generated relations.

    ``relations`` is a list of (lhs, rhs) word pairs; rhs may be "0".  The
    quotient is found by coset enumeration (``_enumerate_nodes``), and its
    elements are named by their least words under ``word_key``, in that
    order.  ``bound`` caps the live nonzero enumeration nodes, not the
    classes: BoundExceeded is raised when more would be live at once.
    OracleMismatch is raised when the built table breaks a relation.
    """
    gen_names = list(gen_names)
    rels = []
    for lhs, rhs in relations:
        u = parse_word(lhs, gen_names)
        v = parse_word(rhs, gen_names)
        if u is None and v is None:
            continue
        rels.append((u, v))
    if name is None:
        rel_str = ",".join(
            f"{render_word(u, gen_names)}={render_word(v, gen_names)}" for u, v in rels
        )
        base = f"F1[{','.join(gen_names)}]" if gen_names else "F1"
        name = f"{base}/({rel_str})" if rel_str else base

    g = len(gen_names)

    def trace(w):  # an exponent vector as a sequence of generator indices
        return None if w is None else [i for i, e in enumerate(w) for _ in range(e)]

    traced = [(trace(u), trace(v)) if u is not None else (trace(v), None)
              for u, v in rels]
    traced += [([i, j], [j, i]) for i in range(g) for j in range(i + 1, g)]
    rows = _enumerate_nodes(g, traced, bound)
    if ONE not in rows:
        # identity collapsed to zero: the zero monoid
        return FiniteMonoid(name, ["0"], [[0]], [])

    # least words, smallest first: a least word is a least word times one
    # generator, since word_key is a graded monomial order
    least, tree, order = {}, {}, []
    heap = [(word_key((0,) * g), (0,) * g, ONE, None)]
    while heap:
        _, w, t, via = heapq.heappop(heap)
        if t in least:
            continue
        least[t], tree[t] = w, via
        order.append(t)
        for i, u in enumerate(rows[t]):
            if u != ZERO and u not in least:
                wu = tuple(e + (k == i) for k, e in enumerate(w))
                heapq.heappush(heap, (word_key(wu), wu, u, (t, i)))
    pos = {t: k for k, t in enumerate([ZERO] + order)}
    table = [[ZERO] * len(pos)]
    for a in order:
        prod = {ONE: a}  # a times each node, along the tree of least words
        for b in order[1:]:
            s, i = tree[b]
            prod[b] = ZERO if prod[s] == ZERO else rows[prod[s]][i]
        table.append([ZERO] + [pos[prod[b]] for b in order])
    image = [pos[t] for t in rows[ONE]]
    elements = ["0"] + [render_word(least[t], gen_names) for t in order]
    m = FiniteMonoid(name, elements, table, sorted(set(image) - {ZERO}) or None)

    def value(seq):
        acc = m.one
        for i in seq:
            acc = table[acc][image[i]]
        return acc

    for u, v in traced:
        if value(u) != (ZERO if v is None else value(v)):
            word = "*".join(gen_names[i] for i in u) or "1"
            raise OracleMismatch(f"{name}: the built table breaks a relation at {word}")
    return m


def _enumerate_nodes(g, traced, bound):
    """Commutative Todd-Coxeter enumeration with the HLT strategy.

    Node 0 is zero and node 1 the identity; ``edges[n][i]`` is the node of
    n times x_i, or None until a walk defines it.  At every live node, in
    order, both sides of each pair in ``traced`` (generator sequences, None
    for zero) are walked, defining nodes as needed, and their ends are
    merged; then the node's row is filled.  A merge joins the higher node
    into the lower one by union-find, then merges their edges.  Returns the
    rows of the live nonzero nodes, each edge resolved to a live node.
    """
    edges = [[ZERO] * g, [None] * g]
    parent = [ZERO, ONE]
    live = 1  # live nonzero nodes

    def find(n):
        while parent[n] != n:
            n = parent[n]
        return n

    def step(n, i):
        nonlocal live
        t = edges[n][i]
        if t is not None:
            return find(t)
        if live >= bound:
            raise BoundExceeded(f"coset enumeration exceeded bound {bound} (live nodes)")
        t = edges[n][i] = len(edges)
        edges.append([None] * g)
        parent.append(t)
        live += 1
        return t

    def walk(n, seq):
        for i in seq:
            n = step(n, i)
        return n

    def merge(a, b):
        nonlocal live
        pending = [(a, b)]
        while pending:
            a, b = sorted(map(find, pending.pop()))
            if a != b:
                parent[b] = a
                live -= 1
                for i, t in enumerate(edges[b]):
                    if edges[a][i] is None:
                        edges[a][i] = t
                    elif t is not None:
                        pending.append((edges[a][i], t))

    n = ONE
    while n < len(edges):
        for u, v in traced:
            if parent[n] == n:
                merge(walk(n, u), ZERO if v is None else walk(n, v))
        if parent[n] == n:  # fill the row
            for i in range(g):
                step(n, i)
        n += 1
    live_rows = (n for n in range(ONE, len(edges)) if parent[n] == n)
    return {n: [find(t) for t in edges[n]] for n in live_rows}


# ---------------------------------------------------------------------------
# classical element sets


def units(m):
    """Elements with a multiplicative inverse; they form a group."""
    if isinstance(m, MonogenicMonoid):
        return [0]
    _require_table(m, "units")
    out = [a for a in m.indices() if any(m.table[a][b] == m.one for b in m.indices())]
    return sorted(out)


def idempotents(m):
    if isinstance(m, MonogenicMonoid):
        return [None, 0]
    _require_table(m, "idempotents")
    return sorted(a for a in m.indices() if m.table[a][a] == a)


def nilpotents(m):
    if isinstance(m, MonogenicMonoid):
        return [None]
    _require_table(m, "nilpotents")
    out = []
    for a in m.indices():
        x = a
        seen = set()
        while x not in seen:
            seen.add(x)
            if x == ZERO:
                out.append(a)
                break
            x = m.table[x][a]
        else:
            continue
    return sorted(set(out))


def is_reduced(m):
    """No pair a != b with equal squares and cubes (table backends)."""
    _require_table(m, "is_reduced")
    n = len(m.elements)
    for a in range(n):
        for b in range(a + 1, n):
            if m.table[a][a] == m.table[b][b]:
                a3 = m.table[m.table[a][a]][a]
                b3 = m.table[m.table[b][b]][b]
                if a3 == b3:
                    return False, (m.elements[a], m.elements[b])
    return True, None


def is_cancellative(m):
    """ab = ac with a != 0 forces b = c; returns (bool, witness)."""
    if isinstance(m, MonogenicMonoid):
        return True, None
    if isinstance(m, AffineMonoid):
        if m.is_pc_quotient:
            # a quotient by a nonempty monomial ideal kills products
            v = m.monomial_ideal[0]
            return False, (v,)
        return True, None
    for a in m.nonzero():
        seen = {}
        for b in m.indices():
            ab = m.table[a][b]
            if ab in seen and seen[ab] != b:
                return False, (m.elements[a], m.elements[seen[ab]], m.elements[b])
            seen[ab] = b
    return True, None


def _require_table(m, op):
    if not isinstance(m, FiniteMonoid):
        raise UnsupportedBackend(f"{op} requires a finite table, got {m.backend}")


# ---------------------------------------------------------------------------
# congruences, quotients, products


def require_ideal(m, ideal):
    """Raise NotAnIdeal unless the index set ``ideal`` contains 0 and is
    closed under multiplication by A."""
    if ZERO not in ideal:
        raise NotAnIdeal("an ideal must contain 0")
    escaped = set().union(*(m.table[x] for x in ideal)) - set(ideal)
    if escaped:
        raise NotAnIdeal(f"{m.elements[min(escaped)]} escapes the ideal")


def quotient(m, by):
    """Quotient by a congruence or by an ideal (elements sent to zero).

    A congruence on A is one of A acting on itself, as
    ``congruence_closure(aset_from_monoid(m), pairs)`` returns it; an
    ideal is a collection of elements (indices or names).  The quotient
    is ``quotient_aset`` of A: classes are ordered by their least
    elements and named after them, and a class multiplies by the action
    row of any of its elements.  Returns (quotient monoid, projection).
    """
    from . import asets

    _require_table(m, "quotient")
    a = asets.aset_from_monoid(m)
    if isinstance(by, asets.ASetCongruence):
        cong = by
    else:
        ideal = {x if isinstance(x, int) else m.index_of(x) for x in by}
        require_ideal(m, ideal)
        cong = [(x, ZERO) for x in ideal]
    q, proj = asets.quotient_aset(a, cong)
    row = dict(zip(proj.mapping, q.action))
    quot = FiniteMonoid(q.name, q.carrier, [row[i] for i in range(len(q.carrier))])
    return quot, MonoidHom(m, quot, proj.mapping)


def smash_product(a, b, name=None):
    """Coproduct: (A x B) / (A x 0 u 0 x B)."""
    _require_table(a, "smash_product")
    _require_table(b, "smash_product")
    pairs = [(ZERO, ZERO)] + [
        (x, y) for x in a.nonzero() for y in b.nonzero()
    ]
    pos = {p: i for i, p in enumerate(pairs)}

    def mul(p, q):
        x = a.table[p[0]][q[0]]
        y = b.table[p[1]][q[1]]
        if x == ZERO or y == ZERO:
            return (ZERO, ZERO)
        return (x, y)

    n = len(pairs)
    table = [[pos[mul(p, q)] for q in pairs] for p in pairs]
    names = ["0"] + [
        _smash_name(a.elements[x], b.elements[y]) for (x, y) in pairs[1:]
    ]
    return FiniteMonoid(name or f"{a.name}^{b.name}", names, table)


def _smash_name(x, y):
    if x == "1":
        return y
    if y == "1":
        return x
    return f"{x}^{y}"


def product(a, b, name=None):
    _require_table(a, "product")
    _require_table(b, "product")
    pairs = list(itertools.product(a.indices(), b.indices()))
    pairs.sort(key=lambda p: (p != (ZERO, ZERO), p != (a.one, b.one), p))
    pos = {p: i for i, p in enumerate(pairs)}
    table = [
        [pos[(a.table[p[0]][q[0]], b.table[p[1]][q[1]])] for q in pairs] for p in pairs
    ]
    names = [f"({a.elements[x]},{b.elements[y]})" for (x, y) in pairs]
    return FiniteMonoid(name or f"{a.name}x{b.name}", names, table)


# ---------------------------------------------------------------------------
# homs


class MonoidHom:
    """Monoid morphism; for finite sources a full element mapping."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = list(mapping)

    def __call__(self, x):
        return self.mapping[x]

    def validate(self):
        s, t = self.source, self.target
        report = ValidationReport()
        if self.mapping[ZERO] != ZERO:
            report.add("BasepointNotPreserved", ())
        if self.mapping[s.one] != t.one:
            report.add("IdentityNotPreserved", ())
        for a in s.indices():
            for b in s.indices():
                if self.mapping[s.table[a][b]] != t.table[self.mapping[a]][self.mapping[b]]:
                    report.add("NotMultiplicative", (s.elements[a], s.elements[b]))
                    if len(report.violations) > 8:
                        return report
        return report

    def is_injective(self):
        return len(set(self.mapping)) == len(self.mapping)


def _element_invariants(m):
    """What every isomorphism keeps of each element x: whether x is
    idempotent, whether it is a unit, the size of its annihilator, and the
    tail and period of its powers x, x^2, ... (x^tail is the first power
    that comes back, period steps later)."""
    out = []
    for x, row in enumerate(m.table):
        first = {}  # power -> its least exponent
        p = x
        while p not in first:
            first[p] = len(first) + 1
            p = row[p]
        out.append((row[x] == x, m.one in row, row.count(ZERO), first[p],
                    len(first) + 1 - first[p]))
    return out


def monoid_isomorphic(a, b):
    """An isomorphism A -> B as a mapping list, or None.

    A morphism fixes 0 and 1 and is fixed by its generator images: a
    bijection fixing them is multiplicative iff f(g.x) = f(g).f(x) for
    every generator g, since every element is a generator word.  The
    search walks the generators of A depth first.  One that the earlier
    ones do not reach tries every unused element of B in index order
    with the same ``_element_invariants``, and the partial map is closed
    injectively under the rows of the generators placed so far
    (``asets._close``, the step of every A-set map search).  Monoids whose
    invariants differ as multisets are not isomorphic, so they are
    rejected before any search.
    """
    from .asets import _close

    n = len(a.elements)
    if n != len(b.elements):
        return None
    if len(a.submonoid_closure(a.generators) | {ZERO}) < n:
        raise ValidationError(f"the generators of {a.name} leave an element unreached")
    inv_a, inv_b = _element_invariants(a), _element_invariants(b)
    if sorted(inv_a) != sorted(inv_b):
        return None
    start = [None] * n
    start[ZERO], start[a.one] = ZERO, b.one

    def rec(k, mapping, tables):
        if k == len(a.generators):
            return mapping
        g = a.generators[k]
        taken = set(mapping)
        images = [mapping[g]] if mapping[g] is not None else [
            h for h in b.indices() if h not in taken and inv_b[h] == inv_a[g]]
        for h in images:
            nxt, nxt_taken = list(mapping), taken | {h}
            nxt[g] = h
            pairs = tables + [(a.table[g], b.table[h])]
            frontier = [p for p in a.indices() if nxt[p] is not None]
            if _close(nxt, frontier, pairs, nxt_taken):
                found = rec(k + 1, nxt, pairs)
                if found is not None:
                    return found
        return None

    return rec(0, start, [])


# ---------------------------------------------------------------------------
# localization and group completion


def saturation(m, s_set):
    """Smallest saturated multiplicative set containing ``s_set``."""
    s = m.submonoid_closure(s_set)
    # x is in the saturation when some multiple xy lands in s
    changed = True
    while changed:
        changed = False
        for x in m.indices():
            if x in s:
                continue
            if any(m.table[x][y] in s for y in m.indices()):
                s.add(x)
                changed = True
    return sorted(s)


def multiplicative_set(m, s_gens):
    """Sorted submonoid generated by ``s_gens`` (indices or names); an
    explicitly zero generator raises ZeroInS."""
    s_gens = [x if isinstance(x, int) else m.index_of(x) for x in s_gens]
    if ZERO in s_gens and len(m.elements) > 1:
        raise ZeroInS("0 in the localization set")
    return sorted(m.submonoid_closure(s_gens))


def fraction_classes(m, s, act, names):
    """Fractions p/t of the carrier {0..len(names)-1} at the sorted
    multiplicative set ``s`` of ``m``, where ``act(a, p)`` is a.p and p/t
    = q/u iff v.u.p = v.t.q for some v in s.  The one place that orders
    and names fractions, of A and of its A-sets alike.

    Returns the least fraction (p, t) of each class in lexicographic
    order (the zero class, holding 0/t, first); the class names, "0" for
    the zero class, ``names[p]`` for p/1 and ``names[p]/t`` otherwise;
    and the map (p, t) -> class index.

    s is finite, so the idempotent power e of the product of s lies in
    v.s for every v in s, and e.t.t' = e for some t' in s.  Hence p/t =
    q/u iff e.u.p = e.t.q iff e.t'.p = e.u'.q: the point e.t'.p keys
    the class of p/t.
    """
    x = m.one
    for t in s:
        x = m.table[x][t]
    e = x
    while m.table[e][e] != e:
        e = m.table[e][x]
    inverse = {t: next(v for v in s if m.table[e][m.table[t][v]] == e) for t in s}
    fractions, cls, index = [], {}, {}
    for p in range(len(names)):
        for t in s:
            key = act(m.table[e][inverse[t]], p)
            if key not in index:
                index[key] = len(fractions)
                fractions.append((p, t))
            cls[(p, t)] = index[key]
    carrier = ["0"] + [
        names[p] if t == m.one else f"{names[p]}/{m.elements[t]}"
        for p, t in fractions[1:]
    ]
    return fractions, carrier, cls


def localize(m, s_gens, name=None):
    """Monoid of fractions at the multiplicative set generated by s_gens.

    Returns (localized monoid, canonical hom a -> a/1).  An explicitly
    zero generator raises ZeroInS; a set whose closure reaches zero
    collapses everything to the zero monoid.  Element i of the result is
    the class of its least fraction ``fractions[i]``, named as
    ``fraction_classes`` names it.
    """
    _require_table(m, "localize")
    s = multiplicative_set(m, s_gens)
    fractions, names, cls = fraction_classes(m, s, m.mul, m.elements)
    table = [
        [cls[(m.table[a][b], m.table[t][u])] for b, u in fractions]
        for a, t in fractions
    ]
    loc = FiniteMonoid(name or f"{m.name}_loc", names, table)
    loc.fractions = fractions
    return loc, MonoidHom(m, loc, [cls[(a, m.one)] for a in m.indices()])


def is_zero_prime(m):
    """(0) prime = no zero divisors = the monoid is torsion free."""
    for a in m.nonzero():
        for b in m.nonzero():
            if m.table[a][b] == ZERO:
                return False
    return True


class PointedGroupDescription(Record):
    """Symbolic pointed abelian group: free rank plus finite cyclic orders."""

    _fields = ("free_rank", "torsion_orders")

    def __init__(self, free_rank: int, torsion_orders: list[int]):
        self.free_rank = free_rank
        self.torsion_orders = torsion_orders

    def __str__(self):
        from .abgroup import AbelianGroup

        return str(AbelianGroup(self.free_rank, tuple(t for t in self.torsion_orders if t > 1)))


def group_completion(m):
    """Localization at (0); requires (0) prime.

    Finite tables return a FiniteMonoid (plus hom); the monogenic backend
    returns a symbolic infinite cyclic description; affine backends return
    a PointedGroupDescription of units x lattice.
    """
    if isinstance(m, MonogenicMonoid):
        return PointedGroupDescription(1, [])
    if isinstance(m, AffineMonoid):
        if m.is_pc_quotient:
            raise ZeroNotPrime("monomial ideal quotients have zero divisors")
        from . import intlin

        cols = [list(g) for g in m.generators]
        if cols:
            mat = [[cols[j][i] for j in range(len(cols))] for i in range(m.rank)]
            diag = intlin.invariant_factors(mat)
            free_rank = len(diag)
        else:
            free_rank = 0
        return PointedGroupDescription(free_rank, list(m.unit_orders))
    if not is_zero_prime(m):
        raise ZeroNotPrime("(0) is not prime; use a localization instead")
    return localize(m, [x for x in m.nonzero()], name=f"{m.name}_0")
