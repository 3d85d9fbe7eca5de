"""Finitely generated abelian groups given by generators and relations.

The canonical invariant (free rank + torsion factors in divisibility
order) is extracted with the Smith normal form; this is the output format
for K-groups, class groups, Picard groups and integral homology.
"""

from __future__ import annotations

from . import intlin
from ._records import FrozenRecord, Record
from .errors import ValidationError


class AbelianGroup(FrozenRecord):
    """Invariants of a finitely generated abelian group."""

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)  # each > 1, t1 | t2 | ...

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n


class GroupPresentation(Record):
    """Z^n modulo the row span of an integer relation matrix."""

    _fields = ("n_generators", "relations", "generator_labels")

    def __init__(
        self,
        n_generators: int,
        relations: list[list[int]] | None = None,
        generator_labels: list[str] | None = None,
    ):
        self.n_generators = n_generators
        self.relations = [] if relations is None else relations
        self.generator_labels = generator_labels

    def invariants(self) -> AbelianGroup:
        if self.n_generators == 0:
            return AbelianGroup(0, ())
        rels = [r for r in self.relations if any(r)]
        if not rels:
            return AbelianGroup(self.n_generators, ())
        diag = intlin.invariant_factors(rels)
        torsion = tuple(d for d in diag if d > 1)
        free = self.n_generators - len(diag)
        return AbelianGroup(free, torsion)

    def __str__(self) -> str:
        return str(self.invariants())

    def contains_in_relation_lattice(self, vec) -> bool:
        """Is ``vec`` (coefficients on the generators) a relation, i.e. zero
        in the presented group?"""
        if not any(vec):
            return True
        rels = [r for r in self.relations if any(r)]
        if not rels:
            return False
        cols = [list(r) for r in rels]  # rows span the lattice
        mat = [[cols[j][i] for j in range(len(cols))] for i in range(self.n_generators)]
        return intlin.solve(mat, list(vec)) is not None


def quotient_group(ambient_dim, ambient_relations, numerator_cols, denominator_cols):
    """Invariants of N/D for sublattices of Z^ambient_dim mod relations.

    ``numerator_cols`` generate N (columns), ``denominator_cols`` generate
    D; both are taken modulo the ambient relation rows, and D (together
    with the relations) must be contained in N + relations.
    """
    ncols = [c for c in numerator_cols if any(c)]
    if not ncols:
        return AbelianGroup(0, ())
    # present N / (D + rel) on the nonzero columns of N, taken as a basis
    # of N: each column of D and each relation is written in that basis,
    # and its coefficient vector is one relation of the presentation
    gens = ncols
    k = len(gens)
    gen_mat = [[gens[j][i] for j in range(k)] for i in range(ambient_dim)]
    rel_rows = []
    for d in list(denominator_cols) + [list(r) for r in ambient_relations]:
        if not any(d):
            continue
        coeff = intlin.solve(gen_mat, list(d))
        if coeff is None:
            raise ValidationError("denominator not contained in numerator lattice")
        rel_rows.append(coeff)
    return GroupPresentation(k, rel_rows).invariants()
