"""Integer box search for conjunctions of linear atoms.

Encoding: an atom is ``(op, bound, ((dim, coeff), ...))`` with op 0 for
``<=`` and 1 for ``=``; a point satisfies the atom when the dot product
compares against ``bound``.  Arithmetic is on Python integers, so
coefficients and bounds of any size are exact.
"""

from __future__ import annotations

# perfbench records this label with every run and refuses to compare
# runs whose labels differ.
BACKEND = "pure"


def find_conjunction_witness(n_dims, lows, highs, atoms):
    """First point of the box satisfying every atom, or None.

    Atoms are bucketed by their highest dimension so partial assignments
    prune early; iteration is lexicographic in dimension order.
    """
    for lo, hi in zip(lows, highs):
        if lo > hi:
            return None
    if n_dims == 0:
        for op, bound, terms in atoms:
            if op == 0:
                if not (0 <= bound):
                    return None
            elif bound != 0:
                return None
        return ()

    buckets: list[list] = [[] for _ in range(n_dims)]
    for op, bound, terms in atoms:
        if not terms:
            ok = (0 <= bound) if op == 0 else (bound == 0)
            if not ok:
                return None
            continue
        top = max(d for d, _ in terms)
        buckets[top].append((op, bound, terms))

    vals = [0] * n_dims
    level = 0
    vals[0] = lows[0]
    while True:
        ok = True
        for op, bound, terms in buckets[level]:
            s = 0
            for d, c in terms:
                s += c * vals[d]
            if (s > bound) if op == 0 else (s != bound):
                ok = False
                break
        if ok:
            if level == n_dims - 1:
                return tuple(vals)
            level += 1
            vals[level] = lows[level]
            continue
        while vals[level] >= highs[level]:
            level -= 1
            if level < 0:
                return None
        vals[level] += 1
