"""Union-find closure of a relation under monoid generator actions.

This is the engine behind quotients by generated congruences, tensor
products and coequalizers: starting from seed pairs, classes are merged
until the relation is stable under every generator action.  One pure
kernel, ``generating_pairs``, does the merging; ``closure`` keeps only its
labels.  The compiled ``_closure_cy.closure`` computes the same labels.
"""

from __future__ import annotations


def generating_pairs(n, gen_tables, pairs):
    """Close the seed ``pairs`` one at a time under every action table.

    ``gen_tables`` are lists mapping index to index on {0..n-1}.  A seed is
    kept when it merges two classes of the congruence generated by the
    seeds kept before it; its translates under the tables are merged before
    the next seed is read.  Returns ``(kept, reps)``: the kept seeds in
    order, and the representative array (minimal index per class) of the
    smallest congruence containing ``pairs``.
    """
    parent = list(range(n))
    kept = []
    work = []
    for seed in pairs:
        work.append(seed)
        merged = False
        while work:
            a, b = work.pop()
            ra = a
            while parent[ra] != ra:
                parent[ra] = ra = parent[parent[ra]]
            rb = b
            while parent[rb] != rb:
                parent[rb] = rb = parent[parent[rb]]
            if ra == rb:
                continue
            # the smaller root wins, so parent[x] <= x for every x
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
            for table in gen_tables:
                work.append((table[a], table[b]))
            merged = True
        if merged:
            kept.append(seed)
    # parent[x] <= x, so parent[parent[x]] is already a root when x is read
    for x in range(n):
        parent[x] = parent[parent[x]]
    return kept, parent


def closure(n, gen_tables, pairs):
    """Smallest equivalence on {0..n-1} containing ``pairs`` and closed
    under every action table in ``gen_tables`` (lists mapping index to
    index).  Returns a representative array (minimal index per class).
    """
    return generating_pairs(n, gen_tables, pairs)[1]
