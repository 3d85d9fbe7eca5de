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
        for row in self.relations:
            if len(row) != n_generators:
                raise ValidationError(
                    f"relation {list(row)} has {len(row)} entries, "
                    f"not one per generator ({n_generators})"
                )

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
        return list(vec) in intlin.Sublattice(self.relations, self.n_generators)


def quotient_group(ambient_dim, numerator_cols, denominator_cols):
    """Invariants of N/D for lattices D inside N inside Z^ambient_dim.

    ``numerator_cols`` generate N and ``denominator_cols`` generate D
    (columns; either may be dependent).  N/D is presented on the basis of
    ``intlin.Sublattice(numerator_cols)``: the coordinates of each column
    of D in that basis are one relation.  A column of D outside N raises
    ``ValidationError``.
    """
    lattice = intlin.Sublattice(numerator_cols, ambient_dim)
    rel_rows = []
    for d in denominator_cols:
        coeff = lattice.coordinates(d)
        if coeff is None:
            raise ValidationError("denominator not contained in numerator lattice")
        rel_rows.append(coeff)
    return GroupPresentation(len(lattice.basis), rel_rows).invariants()
