#!/usr/bin/env python3
"""Benchmark: compiled kernels vs the pure-Python fallback.

Times the two hot loops (integer witness search over a conjunction, and
formula evaluation over an exhaustive box) on workloads shaped like the
ones the analyses produce.  End-to-end timings live in perfbench/.

Run after building the extension in place:

    python setup.py build_ext --inplace
    python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import random
import time

from cmcheck._kernels import pure

try:
    from cmcheck._kernels import _core as compiled
except ImportError:
    compiled = None


def time_call(fn, *args, repeat=5):
    best = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best.append(time.perf_counter() - t0)
    return min(best)


def witness_workload():
    """Near-worst-case witness search: wide box, late constraints."""
    rng = random.Random(1)
    cases = []
    for _ in range(40):
        n = 3
        atoms = []
        for _ in range(4):
            terms = tuple((d, rng.choice([-2, -1, 1, 2])) for d in range(n))
            atoms.append((0, rng.randint(-40, -20), terms))
        cases.append((n, [-32] * n, [32] * n, atoms))
    return cases


def box_workload():
    """Abstraction-oracle style: minterm formulas over [-8, 8]^3."""
    rng = random.Random(2)
    progs = []
    for _ in range(60):
        n = 3
        derived = (((0, ((0, 1),)), (0, ((1, 1),))),)
        atoms = []
        for _ in range(5):
            terms = tuple((d, rng.choice([-2, -1, 1, 2]))
                          for d in rng.sample(range(n + 1), 2))
            atoms.append((rng.randint(0, 1), rng.randint(-6, 6), (0, terms)))
        code = [0]
        for i in range(1, len(atoms)):
            code.extend([i, -1 if i % 2 else -2])
        progs.append(((n, derived, tuple(atoms), tuple(code)), [-8] * n, [8] * n))
    return progs


def run_witness(backend, cases):
    for n, lows, highs, atoms in cases:
        backend.find_conjunction_witness(n, lows, highs, atoms)


def run_box(backend, progs):
    for prog, lows, highs in progs:
        backend.box_find_model(prog, lows, highs)


def main():
    print(f"{'workload':<30} {'pure':>10} {'compiled':>10} {'speedup':>9}")
    rows = [
        ("conjunction witness search", run_witness, witness_workload()),
        ("formula over box", run_box, box_workload()),
    ]
    for name, fn, data in rows:
        t_pure = time_call(fn, pure, data)
        if compiled is None:
            print(f"{name:<30} {t_pure * 1e3:>8.1f}ms {'n/a':>10}")
            continue
        t_comp = time_call(fn, compiled, data)
        print(f"{name:<30} {t_pure * 1e3:>8.1f}ms {t_comp * 1e3:>8.1f}ms "
              f"{t_pure / t_comp:>8.1f}x")
    # sanity: identical answers on the box workload
    for prog, lows, highs in box_workload():
        a = pure.box_find_model(prog, lows, highs)
        if compiled is not None:
            assert a == compiled.box_find_model(prog, lows, highs)
    print("backends agree on all benchmark inputs")


if __name__ == "__main__":
    main()
