"""Integer witnesses by back-substitution along a Fourier-Motzkin record.

The solver's elimination record lists steps ``(term, constraints)`` in
elimination order; each constraint ``(coeffs, bound)`` means
``sum(coeff * term) <= bound`` and mentions its step's term plus terms of
later steps only.  Fixing the terms in reverse order therefore leaves one
unknown per constraint.  Each term takes the integer nearest 0 in the
range its constraints allow; an empty range backs off to the next value
of the term fixed before it.  Arithmetic is on Python integers, so
coefficients and bounds of any size are exact.
"""

from __future__ import annotations

# perfbench records this label with every run and refuses to compare
# runs whose labels differ.
BACKEND = "pure"

# Back-off budgets: values tried for one term, and in all, before giving up.
VALUES_PER_TERM = 16
VALUES_IN_ALL = 4096


def _candidates(term, constraints, values) -> list[int]:
    """Values the constraints allow for term, nearest 0 first (up to budget)."""
    lo = hi = None
    for coeffs, bound in constraints:
        rest = bound
        for t, c in coeffs.items():
            if t != term:
                rest -= c * values[t]
        c = coeffs[term]
        if c > 0:
            bound_hi = rest // c
            if hi is None or bound_hi < hi:
                hi = bound_hi
        else:
            bound_lo = -(rest // -c)
            if lo is None or bound_lo > lo:
                lo = bound_lo
    if lo is not None and hi is not None and lo > hi:
        return []
    start = lo if lo is not None and lo > 0 else 0
    if hi is not None and start > hi:
        start = hi
    out = []
    for d in range(VALUES_PER_TERM):
        for v in ((start + d, start - d) if d else (start,)):
            if (lo is None or v >= lo) and (hi is None or v <= hi):
                out.append(v)
    return out[:VALUES_PER_TERM]


def find_conjunction_witness(steps):
    """``{term: int}`` meeting every constraint of the record, or None."""
    order = steps[::-1]
    if not order:
        return {}
    values: dict = {}
    pending = [_candidates(order[0][0], order[0][1], values)]
    budget = VALUES_IN_ALL
    while pending:
        level = len(pending) - 1
        if not pending[level]:
            pending.pop()  # exhausted: back off to the previous term
            continue
        if not budget:
            return None
        budget -= 1
        term = order[level][0]
        values[term] = pending[level].pop(0)
        if level + 1 == len(order):
            return values
        pending.append(_candidates(order[level + 1][0], order[level + 1][1], values))
    return None
