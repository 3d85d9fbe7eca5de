"""Union-find closure of a relation under monoid generator actions.

This is the engine behind quotients by generated congruences, tensor
products and coequalizers: starting from seed pairs, classes are merged
until the relation is stable under every generator action.  Pure-Python
twin of ``_closure_cy``.
"""

from __future__ import annotations


def closure(n, gen_tables, pairs):
    """Smallest equivalence on {0..n-1} containing ``pairs`` and closed
    under every action table in ``gen_tables`` (lists mapping index to
    index).  Returns a representative array (minimal index per class).
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = [(a, b) for (a, b) in pairs]
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra
        for table in gen_tables:
            work.append((table[a], table[b]))
    # the smaller root always wins, so every root is its class minimum
    return [find(x) for x in range(n)]
