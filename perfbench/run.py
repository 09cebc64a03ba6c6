"""End-to-end and per-layer benchmark of cmcheck.

    python3 perfbench/run.py --workload random-corpus --seed 1 --seconds 33 --trace 0

Runs one workload in this process, one analysis at a time (a closed loop
with a single client), in whole passes over the workload's analyses:
as many passes as fit in ``--seconds`` at the speed measured when the
benchmark was introduced, at least one.  ``--seed`` shuffles the order
of the analyses in each pass; the programs themselves are fixed (see
README.md).  Outputs are checked outside the timed region.  The last
line of standard output is one JSON object: ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` runs one untraced and one traced pass
and gives the per-layer metrics.  The exit code is 1 when a correctness
check or a trace self-check fails, 2 when cmcheck's sources are not
found.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import corpus
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 9
# Seconds one untraced pass takes at the commit that introduced the
# benchmark (pure kernels, 2 vCPUs of a shared 2.1 GHz Xeon host).  A run
# makes as many passes as fit in --seconds at that speed, so both sides
# of a comparison do the same work.
PASS_SECONDS = {"random-corpus": 30.0, "explicit-deep": 10.0, "two-stage": 17.0}


def import_cmcheck() -> None:
    """Import cmcheck from this checkout's sources, or exit with code 2."""
    if not (SRC / "cmcheck" / "__init__.py").is_file():
        print(f"perfbench: cmcheck sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cmcheck

    if Path(cmcheck.__file__).resolve().parent != SRC / "cmcheck":
        print(f"perfbench: imported cmcheck from {cmcheck.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    from cmcheck import _kernels

    return {"backend": _kernels.BACKEND, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def setup_seconds(texts: list[str]) -> list[float]:
    """Fresh-interpreter set-up times, one probe process after another."""
    payload = json.dumps({"src": str(SRC), "texts": texts})
    out = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                               input=payload, capture_output=True, text=True,
                               timeout=60, check=True)
        out.append(float(probe.stdout))
    return out


class Pass:
    """Timings, digests, failures and counts of one pass over a workload."""

    def __init__(self):
        self.wall_s = 0.0
        self.samples: dict[str, float] = {}  # job name -> seconds
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []
        self.totals: Counter = Counter()

    def run(self, job: workloads.Job, cfa, check=None,
            tracer: tracing.Tracer | None = None) -> None:
        """Time one job, then check, digest and count it untimed."""
        if tracer is not None:
            tracer.install()
        started = perf_counter()
        try:
            outcome = workloads.run_job(job, cfa)
        except Exception as exc:  # a crash counts as a failed analysis
            outcome = None
            self.failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
        finally:
            took = perf_counter() - started
            if tracer is not None:
                tracer.uninstall()
        self.wall_s += took
        if outcome is None:
            return
        self.samples[job.name] = took
        problem = check(job, cfa, outcome) if check else None
        if problem:
            self.failures.append(f"{job.name}: {problem}")
        self.digests[job.name] = workloads.summarize(outcome)
        t = self.totals
        t["decided"] += outcome.verdicts[-1] in ("TRUE", "FALSE")
        for config, stats, text in zip(job.stages, outcome.stats, outcome.automaton_texts):
            t["posts"] += stats["posts"]
            t["sat_queries"] += stats["sat_queries"]
            t["reached"] += stats["reached"]
            t["refinements"] += stats["refinements"]
            t["precision_atoms"] += stats.get("precision_atoms", 0)
            t["art_nodes"] += stats["art_nodes"]
            t["removed_nodes"] += stats["removed_nodes"]
            t["automaton_states"] += stats["automaton_states"]
            t["automaton_bytes"] += len(text.encode())
            t["fuel_exhausted"] += config.fuel is not None and stats["posts"] >= config.fuel
        # A user runs one analysis per process and never collects its ART;
        # collecting here keeps one job's garbage out of the next job's time.
        del outcome
        gc.collect()


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[Pass], n_jobs: int, setup: list[float]) -> dict:
    first = passes[0]
    wall = statistics.median(p.wall_s for p in passes)
    samples = sorted(statistics.median(p.samples[name] for p in passes if name in p.samples)
                     for name in first.samples)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(wall, "s"),
        "analysis_s.p50": metric(statistics.median(samples), "s"),
        "analysis_s.p99": metric(percentile(samples, 0.99), "s"),
        "posts_per_s": metric(first.totals["posts"] / wall, "1/s"),
        "decided_ratio": metric(first.totals["decided"] / n_jobs, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tr: tracing.Tracer, traced: Pass, untraced: Pass, lang_edges: int) -> dict:
    calls, self_s, total_s, counts, t = tr.calls, tr.self_s, tr.total_s, tr.counts, traced.totals

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def n(value):
        return metric(value, "count")

    def s(value):
        return metric(value, "s")

    return {
        "lang.parse_s": s(total_s["lang.parse"]),
        "lang.edges": n(lang_edges),
        "engine.self_s": s(self_s["engine.run_cpa"]),
        "engine.art_nodes": n(calls["engine.new_node"]),
        "engine.covered_nodes": n(calls["engine.new_covered_node"]),
        "engine.removed_nodes": n(t["removed_nodes"]),
        "engine.reached": n(t["reached"]),
        "domains.explicit.transfer.calls": n(calls["domains.explicit.transfer"]),
        "domains.explicit.transfer.self_s": s(self_s["domains.explicit.transfer"]),
        "domains.explicit.cover_keys_yielded": n(counts["domains.explicit.cover_keys_yielded"]),
        "domains.predicate.transfer.calls": n(calls["domains.predicate.transfer"]),
        "domains.predicate.transfer.self_s": s(self_s["domains.predicate.transfer"]),
        "domains.predicate.cache_hit_ratio": metric(ratio(
            calls["domains.predicate.transfer"] - counts["domains.predicate.cache_misses"],
            calls["domains.predicate.transfer"]), "ratio"),
        "domains.predicate.covers.self_s": s(self_s["domains.predicate.covers"]),
        "solver.check_sat.calls": n(calls["solver.check_sat"]),
        "solver.check_sat.self_s": s(self_s["solver.check_sat"]),
        "solver.sat_queries": n(counts["solver.sat_queries"]),
        "solver.sat_cache_hit_ratio": metric(ratio(
            calls["solver.check_sat"] - counts["solver.sat_queries"],
            calls["solver.check_sat"]), "ratio"),
        "solver.entails.calls": n(calls["solver.entails"]),
        "solver.entails_cache_hit_ratio": metric(ratio(
            calls["solver.entails"] - counts["solver.entails_misses"],
            calls["solver.entails"]), "ratio"),
        "solver.to_dnf.self_s": s(self_s["solver.to_dnf"]),
        "kernels.witness.calls": n(calls["kernels.witness"]),
        "kernels.witness.self_s": s(self_s["kernels.witness"]),
        "kernels.witness.self_s.under_domains": s(self_s["kernels.witness.under_domains"]),
        "kernels.witness.self_s.under_refine": s(self_s["kernels.witness.under_refine"]),
        "kernels.witness.self_s.under_other": s(self_s["kernels.witness.under_other"]),
        "kernels.witness.found_ratio": metric(ratio(
            counts["kernels.witness.found"], calls["kernels.witness"]), "ratio"),
        "refine.feasibility.calls": n(calls["refine.feasibility"]),
        "refine.feasibility.self_s": s(self_s["refine.feasibility"]),
        "refine.feasible": n(counts["refine.feasible"]),
        "refine.infeasible": n(counts["refine.infeasible"]),
        "refine.unconfirmed": n(counts["refine.unconfirmed"]),
        "refine.mine.self_s": s(self_s["refine.mine"]),
        "refine.refinements": n(t["refinements"]),
        "refine.precision_atoms": n(t["precision_atoms"]),
        "assumptions.successors.self_s": s(self_s["assumptions.successors"]),
        "assumptions.covers.calls": n(calls["assumptions.covers"]),
        "assumptions.merge.calls": n(calls["assumptions.merge"]),
        "assumptions.observer_step.calls": n(calls["assumptions.observer_step"]),
        "assumptions.observer_step.self_s": s(self_s["assumptions.observer_step"]),
        "assumptions.export_s": s(total_s["assumptions.export"]),
        "assumptions.postprocess.self_s": s(self_s["assumptions.postprocess"]),
        "assumptions.automaton_states": n(t["automaton_states"]),
        "assumptions.automaton_bytes": metric(t["automaton_bytes"], "bytes"),
        "assumptions.serialize_s": s(total_s["assumptions.serialize"]),
        "assumptions.parse_s": s(total_s["assumptions.parse"]),
        "conditions.posts": n(counts["conditions.posts"]),
        "conditions.fuel_exhausted": n(t["fuel_exhausted"]),
        "formula.f_and.calls": n(calls["formula.f_and"]),
        "formula.rename_vars.calls": n(calls["formula.rename_vars"]),
        "formula.linearize.calls": n(calls["formula.linearize"]),
        "trace.overhead": metric(traced.wall_s / untraced.wall_s, "ratio"),
    }


def trace_self_checks(wl_name: str, tr: tracing.Tracer, traced: Pass, untraced: Pass) -> list[str]:
    """The trace must agree with the untraced run and with cmcheck's counters."""
    problems = []
    if workloads.combine(traced.digests) != workloads.combine(untraced.digests):
        problems.append("traced digest differs from the untraced digest")
    t = traced.totals
    pairs = [
        ("solver.sat_queries", tr.counts["solver.sat_queries"], t["sat_queries"]),
        ("kernels.witness.calls", tr.calls["kernels.witness"],
         tr.counts["solver.witness_searches"]),
        ("conditions.posts", tr.counts["conditions.posts"], t["posts"]),
        ("engine.art_nodes", tr.calls["engine.new_node"], t["art_nodes"]),
    ]
    for name, traced_value, own_value in pairs:
        if traced_value != own_value:
            problems.append(f"{name} = {traced_value} but cmcheck counted {own_value}")
    for name in tr.missing_calls(wl_name):
        problems.append(f"wrapper {name} saw no call on {wl_name}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="shuffles the analysis order")
    ap.add_argument("--seconds", type=float, default=33.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int, default=corpus.CRITERION_1_SEED,
                    help="seed of the random corpus (default: the criterion-1 seed)")
    args = ap.parse_args()

    import_cmcheck()
    env = environment()
    wl = workloads.build(args.workload, args.corpus_seed)
    tracer = tracing.Tracer() if args.trace else None
    setup = [] if tracer else setup_seconds(list(wl.texts.values()))
    if tracer:
        tracer.install()
    cfas = workloads.parse_texts(wl.texts)
    if tracer:
        tracer.uninstall()
    lang_edges = sum(len(c.edges) for c in cfas.values())

    # Everything alive now is the benchmark's own or cmcheck's modules: keep
    # it out of the collections that run inside the timed analyses.
    gc.collect()
    gc.freeze()
    rng = random.Random(args.seed)
    check = workloads.Checker()
    passes: list[Pass] = []
    traced = Pass()
    n_passes = 1 if tracer else max(1, int(args.seconds // PASS_SECONDS[wl.name]))
    for _ in range(n_passes):
        passes.append(Pass())
        for job in rng.sample(wl.jobs, len(wl.jobs)):
            passes[-1].run(job, cfas[job.program], check)
            if tracer:  # right after the untraced run, so both see the same host
                traced.run(job, cfas[job.program], None, tracer)
        check = None  # later passes must only reproduce the first pass's digests

    failures = [f for p in passes for f in p.failures]
    for p in passes[1:]:
        for name, digest in p.digests.items():
            if passes[0].digests.get(name) != digest:
                failures.append(f"{name}: output differs from the first pass")
    attempted = len(wl.jobs) * len(passes)
    digest = workloads.combine(passes[0].digests)
    self_check_problems = []

    if tracer:
        attempted += len(wl.jobs)
        failures += traced.failures
        self_check_problems = trace_self_checks(wl.name, tracer, traced, passes[0])
        metrics = per_layer(tracer, traced, passes[0], lang_edges)
    else:
        metrics = end_to_end(passes, len(wl.jobs), setup)

    print(f"workload {wl.name}: {len(wl.jobs)} analyses per pass, {len(passes)} untraced "
          f"pass(es) of {', '.join(f'{p.wall_s:.3f}' for p in passes)} s, "
          f"order seed {args.seed}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    if wl.corpus_seed is not None:
        print(f"corpus seed {wl.corpus_seed}")
    print(f"programs sha256 {corpus.texts_sha256(wl.texts)}")
    print(f"digest {digest}")
    print(f"failed_ratio {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted})")
    for name, m in metrics.items():
        extra = ""
        if name.startswith("analysis_s."):
            extra = f" (n={len(passes[0].samples)} analyses, each its median over passes)"
        elif name in ("setup_s", "wall_s"):
            extra = f" (median of {len(setup) if name == 'setup_s' else len(passes)})"
        print(f"{name} {m['value']:.6g} {m['unit']}{extra}")
    for failure in failures[:20] + self_check_problems:
        print(f"FAILED {failure}")
    correct = not failures and not self_check_problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
