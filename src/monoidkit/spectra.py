"""Ideals and the prime spectrum of finite monoids.

An ideal is an A-subset of A acting on itself, so closure, generators
and the ideal lattice come from the A-subset code of ``asets``.
Primes are searched among ideals generated by subsets of the generator
set (every prime is generated by the generators it contains); a full
lattice sweep validates this on small tables.  Primary decomposition
is a closed form: the minimal ideals J_x = {a : a does not divide x}
for x outside the ideal.
"""

from __future__ import annotations

import itertools

from ._records import FrozenRecord
from .asets import (
    aset_from_monoid,
    aset_generators,
    enumerate_asubsets,
    generated_subset,
)
from .errors import ImproperIdeal, OracleMismatch
from .monoids import FiniteMonoid, ZERO, nilpotents, require_ideal


class Ideal(FrozenRecord):
    _fields = ("base", "elements")

    def __init__(self, base: FiniteMonoid, elements: frozenset[int]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "elements", elements)

    def __contains__(self, x):
        return x in self.elements

    def sorted_elements(self):
        return sorted(self.elements)

    def names(self):
        return [self.base.elements[i] for i in self.sorted_elements()]

    @property
    def is_proper(self):
        return self.base.one not in self.elements

    def generator_names(self):
        gens = aset_generators(aset_from_monoid(self.base), self.elements)
        if not gens:
            return ["0"]
        return [self.base.elements[g] for g in sorted(gens)]

    def __le__(self, other):
        return self.elements <= other.elements

    def __str__(self):
        return "(" + ", ".join(self.generator_names()) + ")"


def ideal_generated(m, gens):
    """Smallest ideal containing ``gens``: the A-subset of A they generate
    (always contains 0)."""
    idx = [g if isinstance(g, int) else m.index_of(g) for g in gens]
    return Ideal(m, frozenset(generated_subset(aset_from_monoid(m), idx)))


def all_ideals(m):
    """Every proper ideal of a finite monoid, ordered by size and then by
    elements: the A-subsets of A that miss 1, found by sweeping all
    subsets.  Only oracles and tests need the whole lattice."""
    subsets = enumerate_asubsets(aset_from_monoid(m), bound=len(m.elements))
    return [Ideal(m, frozenset(s)) for s in subsets if m.one not in s]


def _elements(ideal):
    """Element set of an Ideal or of a plain collection of indices."""
    return ideal.elements if isinstance(ideal, Ideal) else frozenset(ideal)


def is_prime(m, ideal):
    """Proper, and ab in p forces a in p or b in p."""
    els = _elements(ideal)
    if m.one in els:
        return False
    for a in m.indices():
        if a in els:
            continue
        for b in m.indices():
            if b in els:
                continue
            if m.table[a][b] in els:
                return False
    return True


def radical(m, ideal):
    """Elements with some power inside the ideal."""
    els = _elements(ideal)
    out = set()
    n = len(m.elements)
    for a in m.indices():
        x = a
        for _ in range(n + 1):
            if x in els:
                out.add(a)
                break
            x = m.table[x][a]
    return Ideal(m, frozenset(out))


def is_primary(m, ideal):
    """Every zero divisor modulo the ideal lies in its radical.

    This is primary in the quotient's terms without building it: a is a
    zero divisor of A/I when a and some b lie outside I and ab lies in
    I, and a is nilpotent in A/I exactly when some power of a lies in I.
    """
    els = _elements(ideal)
    if m.one in els:
        raise ImproperIdeal("primary ideals are proper")
    rad = radical(m, els).elements
    outside = [a for a in m.indices() if a not in els]
    return all(
        a in rad or all(m.table[a][b] not in els for b in outside) for a in outside
    )


def mspec(m):
    """All prime ideals, each generated by a subset of the monoid generators."""
    gens = m.generators
    seen = set()
    primes = []
    for r in range(len(gens) + 1):
        for combo in itertools.combinations(gens, r):
            ideal = ideal_generated(m, combo)
            if ideal.elements in seen:
                continue
            seen.add(ideal.elements)
            if is_prime(m, ideal):
                primes.append(ideal)
    primes.sort(key=lambda i: (len(i.elements), i.sorted_elements()))
    return primes


def mspec_bruteforce(m):
    """Oracle: primality test over the full ideal lattice."""
    return sorted(
        (i for i in all_ideals(m) if is_prime(m, i)),
        key=lambda i: (len(i.elements), i.sorted_elements()),
    )


def dimension(m):
    """Longest chain length in the prime containment poset."""
    primes = mspec(m)
    return _longest_chain(primes)


def height(m, prime):
    primes = [p for p in mspec(m) if p.elements <= prime.elements]
    return _longest_chain(primes)


def _longest_chain(primes):
    order = {i: [] for i in range(len(primes))}
    for i, p in enumerate(primes):
        for j, q in enumerate(primes):
            if i != j and p.elements < q.elements:
                order[i].append(j)
    best = {}

    def depth(i):
        if i not in best:
            best[i] = 1 + max((depth(j) for j in order[i]), default=0)
        return best[i]

    if not primes:
        return 0
    return max(depth(i) for i in range(len(primes))) - 1


def ideal_quotient(m, j_ideal, i_ideal):
    """(J : I) = elements a with a*I inside J."""
    j_els = _elements(j_ideal)
    i_els = _elements(i_ideal)
    out = {
        a
        for a in m.indices()
        if all(m.table[a][b] in j_els for b in i_els)
    }
    return Ideal(m, frozenset(out))


def annihilator(m, i_ideal):
    return ideal_quotient(m, Ideal(m, frozenset({ZERO})), i_ideal)


def nilradical(m):
    """Intersection of all primes; asserted equal to the nilpotent set."""
    primes = mspec(m)
    inter = set(m.indices())
    for p in primes:
        inter &= p.elements
    nil = nilpotents(m)
    if sorted(inter) != nil:
        raise OracleMismatch(f"primes intersect to {sorted(inter)}, nilpotents are {nil}")
    return Ideal(m, frozenset(inter))


def _intersect(ideals):
    els = set(ideals[0].elements)
    for i in ideals[1:]:
        els &= i.elements
    return els


def primary_decomposition(m, ideal):
    """The irredundant irreducible components of I, each primary.

    Ideals are closed under union and intersection, so they form a finite
    distributive lattice, whose meet-irreducibles are the ideals
    J_x = {a : a does not divide x}, and I is the meet of J_x over
    x outside I.  J_x lies in J_y exactly when y divides x, so the
    components are the inclusion-minimal distinct J_x; in a distributive
    lattice this irredundant decomposition is unique (Birkhoff, Lattice
    Theory, ch. VIII).  Components are sorted by size, then elements.
    Raises NotAnIdeal on a set that is not an ideal (for which the meet
    of the J_x is only the largest ideal inside it) and ImproperIdeal on
    the unit ideal.
    """
    els = _elements(ideal)
    require_ideal(m, els)
    ideal = Ideal(m, els)
    if not ideal.is_proper:
        raise ImproperIdeal("cannot decompose the unit ideal")
    rows = [set(row) for row in m.table]
    # J_x is minimal iff every multiple of x outside I divides x back
    tops = [
        x for x in m.indices()
        if x not in els and all(x in rows[y] for y in rows[x] - els)
    ]
    minimal = {frozenset(a for a in m.indices() if x not in rows[a]) for x in tops}
    components = sorted(
        (Ideal(m, j) for j in minimal),
        key=lambda i: (len(i.elements), i.sorted_elements()),
    )
    for c in components:
        if not is_primary(m, c):
            raise OracleMismatch(f"component {c} of {ideal} is not primary")
    if _intersect(components) != els:
        raise OracleMismatch(
            f"components {[str(c) for c in components]} do not intersect to {ideal}"
        )
    return components


def associated_primes(m, ideal):
    """Primes of the form rad(I : a); cross-checked two more ways."""
    components = primary_decomposition(m, ideal)  # rejects non-ideals first
    ideal = Ideal(m, _elements(ideal))
    via_components = {radical(m, c).elements for c in components}
    via_radquot = set()
    via_quot = set()
    for a in m.indices():
        q = ideal_quotient(m, ideal, ideal_generated(m, [a]))
        if not q.is_proper:
            continue
        r = radical(m, q)
        if is_prime(m, r):
            via_radquot.add(r.elements)
        if is_prime(m, q):
            via_quot.add(q.elements)
    if not via_radquot == via_quot == via_components:
        raise OracleMismatch(
            f"associated primes of {ideal} disagree: rad(I:a) {via_radquot}, "
            f"prime (I:a) {via_quot}, radicals of components {via_components}"
        )
    return sorted(
        (Ideal(m, e) for e in via_radquot),
        key=lambda i: (len(i.elements), i.sorted_elements()),
    )


# ---------------------------------------------------------------------------
# ideals of a smash product decompose as unions of boxes


def tensor_ideal_decomposition(a, b, ab, k_ideal):
    """Write an ideal of the smash product as a union of I x J boxes.

    ``ab`` must be the smash product table of ``a`` and ``b`` with element
    names built by ``smash_product``.  Returns a list of (I, J) ideal
    pairs with the I's distinct; their union is verified to equal K.
    """
    # recover coordinates from the smash construction order:
    # index 0 is 0^0; others enumerate (x, y) with x, y nonzero in order
    nb = len(b.elements) - 1
    coords = {0: (ZERO, ZERO)}
    k = 1
    for x in a.nonzero():
        for y in b.nonzero():
            coords[k] = (x, y)
            k += 1

    k_els = _elements(k_ideal)
    # I_y per second coordinate
    i_by_y = {}
    for idx in k_els:
        if idx == 0:
            continue
        x, y = coords[idx]
        i_by_y.setdefault(y, set()).add(x)
    for y in list(i_by_y):
        i_by_y[y] = ideal_generated(a, i_by_y[y]).elements

    groups = {}
    for y, i_els in i_by_y.items():
        groups.setdefault(frozenset(i_els), set()).add(y)
    out = []
    for i_els, ys in sorted(groups.items(), key=lambda kv: sorted(kv[0])):
        j = ideal_generated(b, ys)
        out.append((Ideal(a, i_els), j))

    # verify the union is exactly K
    union = {0}
    rev = {v: k for k, v in coords.items()}
    for i_ideal, j_ideal in out:
        for x in i_ideal.elements:
            for y in j_ideal.elements:
                if x == ZERO or y == ZERO:
                    continue
                union.add(rev[(x, y)])
    if union | {0} != set(k_els) | {0}:
        raise OracleMismatch(f"boxes cover {sorted(union)}, the ideal is {sorted(k_els)}")
    i_sets = [i.elements for i, _ in out]
    if len(i_sets) != len(set(i_sets)):
        raise OracleMismatch(f"first components repeat: {[sorted(i) for i in i_sets]}")
    return out
