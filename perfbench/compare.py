"""Compare saved outputs of run.py, before and after a change.

    python3 perfbench/compare.py --before a1.out a2.out ... --after b1.out b2.out ...

Each file is the standard output of one ``run.py`` run.  Prints, per
metric, each side's median, the change, and the before side's quartile
spread as a share of its median, and whether the output digests agree.
Refuses (exit 2) to compare runs of different workloads or runs made on
different kernel backends, Python versions or processor counts: the
compiled kernels alone roughly halve ``random-corpus``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(path: str) -> dict:
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    run = {"path": path, "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key == "env":
            run["env"] = json.loads(rest)
        elif key in ("workload", "digest"):
            run[key] = rest.split(":")[0]
    return run


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", nargs="+", required=True)
    ap.add_argument("--after", nargs="+", required=True)
    args = ap.parse_args()
    before = [load(p) for p in args.before]
    after = [load(p) for p in args.after]
    runs = before + after
    for key in ("workload", "env"):
        seen = {json.dumps(r.get(key), sort_keys=True) for r in runs}
        if len(seen) > 1:
            print(f"refusing to compare: runs differ in {key}: {sorted(seen)}", file=sys.stderr)
            return 2
    digests = {r.get("digest") for r in runs}
    print(f"workload {runs[0]['workload']}, env {json.dumps(runs[0]['env'], sort_keys=True)}")
    print("digest " + ("identical" if len(digests) == 1 else f"DIFFERS: {sorted(digests)}"))
    for name, m in before[0]["result"]["metrics"].items():
        b = [r["result"]["metrics"][name]["value"] for r in before]
        a = [r["result"]["metrics"][name]["value"] for r in after
             if name in r["result"]["metrics"]]
        if not a:
            continue
        mb, ma = statistics.median(b), statistics.median(a)
        change = (ma - mb) / mb if mb else 0.0
        print(f"{name:40s} {mb:12.6g} -> {ma:12.6g} {m['unit']:6s} "
              f"{change:+8.2%}  (before spread {spread(b):.2%}, n={len(b)}/{len(a)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
