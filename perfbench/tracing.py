"""Per-layer tracing from outside the program, by wrapping attributes.

Every hot call inside cmcheck goes through a module or class attribute
(``kernels.find_conjunction_witness``, ``solver.to_dnf``,
``refine.check_feasibility``, ...), so replacing the attribute with a
wrapper sees every call.  Timed wrappers open a span; a span's self time
is its duration minus the time of the spans it encloses.  Counting
wrappers only count: they sit on calls too hot to time.

Wrappers are installed around each timed analysis and removed before the
benchmark checks and digests its results, so the checks are not counted.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

# Wrapped attribute -> workloads predicted to call it.  A traced run fails
# its self-check when a wrapper listed here records no call, so a rename
# in cmcheck that bypasses a wrapper cannot pass for zero seconds.
ALL = ("random-corpus", "explicit-deep", "two-stage")
PREDICATE = ("random-corpus", "two-stage")
EXPECTED_CALLS = {
    "lang.parse": ALL,
    "engine.run_cpa": ALL,
    "engine.new_node": ALL,
    "engine.new_covered_node": PREDICATE,
    "domains.explicit.transfer": ALL,
    "domains.explicit.cover_keys": ALL,
    "domains.predicate.transfer": PREDICATE,
    "domains.predicate.covers": PREDICATE,
    "solver.new": ALL,
    "solver.check_sat": PREDICATE,
    "solver.entails": PREDICATE,
    "solver.to_dnf": PREDICATE,
    "kernels.witness": PREDICATE,
    "refine.feasibility": PREDICATE,
    "refine.mine": PREDICATE,
    "assumptions.successors": ALL,
    "assumptions.covers": PREDICATE,
    "assumptions.merge": PREDICATE,
    "assumptions.observer_step": ("two-stage",),
    "assumptions.export": ALL,
    "assumptions.postprocess": ALL,
    "assumptions.serialize": ("two-stage",),
    "assumptions.parse": ("two-stage",),
    "conditions.pre_post": ALL,
    "formula.f_and": ALL,
    "formula.rename_vars": PREDICATE,
    "formula.linearize": PREDICATE,
}

# Layers that call the witness search, for splitting its self time.
WITNESS_CALLERS = ("domains", "refine")


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.solvers: list = []
        self._stack: list = []  # [layer, child seconds] per open span
        self._saved: list = []

    # -- wrappers -------------------------------------------------------------

    # ``before(args)`` runs ahead of the call; its value goes to
    # ``after(args, value, result, raised)``, which runs when the call ends.

    def _timed(self, fn, name, layer, before=None, after=None, split=False):
        calls, self_s, total_s, stack = self.calls, self.self_s, self.total_s, self._stack

        def wrapper(*args, **kwargs):
            if split:
                under = next((f[0] for f in reversed(stack) if f[0] in WITNESS_CALLERS),
                             "other")
            frame = [layer, 0.0]
            stack.append(frame)
            token = before(args) if before else None
            raised = True
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                took = perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][1] += took
                calls[name] += 1
                total_s[name] += took
                self_s[name] += took - frame[1]
                if split:
                    self_s[f"{name}.under_{under}"] += took - frame[1]
                if after:
                    after(args, token, None if raised else result, raised)
            return result

        return wrapper

    def _counted(self, fn, name, before=None, after=None):
        calls = self.calls
        if after is None:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def probed(*args, **kwargs):
            calls[name] += 1
            token = before(args) if before else None
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                after(args, token, None if raised else result, raised)
            return result

        return probed

    def _generator(self, fn, name, item_name):
        calls, counts = self.calls, self.counts

        def wrapper(*args, **kwargs):
            calls[name] += 1
            for item in fn(*args, **kwargs):
                counts[item_name] += 1
                yield item

        return wrapper

    def _cache_probe(self, attr, miss_name) -> dict:
        """Count calls that grew the instance's cache (or raised) as misses."""
        counts = self.counts

        def before(args):
            return len(getattr(args[0], attr))

        def after(args, size, result, raised):
            if raised or len(getattr(args[0], attr)) > size:
                counts[miss_name] += 1

        return {"before": before, "after": after}

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        from cmcheck import _kernels as K
        from cmcheck import assumptions as A
        from cmcheck import conditions as C
        from cmcheck import domains as D
        from cmcheck import engine as E
        from cmcheck import formula as F
        from cmcheck import lang, refine
        from cmcheck import solver as S

        counts = self.counts
        solvers = self.solvers

        def timed(owner, attr, name, layer, **kw):
            self._patch(owner, attr, self._timed(getattr(owner, attr), name, layer, **kw))

        def counted(owner, attr, name, **kw):
            self._patch(owner, attr, self._counted(getattr(owner, attr), name, **kw))

        def witness_found(args, _, result, raised):
            counts["kernels.witness.found"] += result is not None

        def feasibility(args, _, result, raised):
            if not raised:
                counts[f"refine.{type(result).__name__.lower()}"] += 1

        def proceeded(args, _, result, raised):
            counts["conditions.posts"] += result == C.PROCEED

        def keep_solver(args, _, result, raised):
            solvers.append(args[0])

        timed(lang, "parse_program", "lang.parse", "lang")
        timed(E, "run_cpa", "engine.run_cpa", "engine")
        counted(E.RunState, "_new_node", "engine.new_node")
        counted(E.RunState, "new_covered_node", "engine.new_covered_node")
        timed(D.ExplicitDomain, "transfer", "domains.explicit.transfer", "domains")
        self._patch(D.ExplicitDomain, "cover_keys",
                    self._generator(D.ExplicitDomain.cover_keys,
                                    "domains.explicit.cover_keys",
                                    "domains.explicit.cover_keys_yielded"))
        timed(D.PredicateDomain, "transfer", "domains.predicate.transfer", "domains",
              **self._cache_probe("_cache", "domains.predicate.cache_misses"))
        timed(D.PredicateDomain, "covers", "domains.predicate.covers", "domains")
        counted(S.Solver, "__init__", "solver.new", after=keep_solver)
        timed(S.Solver, "check_sat", "solver.check_sat", "solver",
              **self._cache_probe("_sat_cache", "solver.sat_queries"))
        counted(S.Solver, "entails", "solver.entails",
                **self._cache_probe("_entails_cache", "solver.entails_misses"))
        timed(S, "to_dnf", "solver.to_dnf", "solver")
        timed(K, "find_conjunction_witness", "kernels.witness", "kernels",
              after=witness_found, split=True)
        timed(refine, "check_feasibility", "refine.feasibility", "refine",
              after=feasibility)
        timed(refine, "mine_predicates", "refine.mine", "refine")
        timed(A.CompositeCpa, "successors", "assumptions.successors", "assumptions")
        counted(A.CompositeCpa, "covers", "assumptions.covers")
        counted(A.CompositeCpa, "merge", "assumptions.merge")
        timed(A.ObserverComponent, "step", "assumptions.observer_step", "assumptions")
        timed(A, "export_automaton", "assumptions.export", "assumptions")
        timed(A, "postprocess", "assumptions.postprocess", "assumptions")
        timed(A, "serialize_automaton", "assumptions.serialize", "assumptions")
        timed(A, "parse_automaton", "assumptions.parse", "assumptions")
        counted(C.GlobalMonitor, "pre_post", "conditions.pre_post", after=proceeded)
        counted(F, "f_and", "formula.f_and")
        counted(F, "rename_vars", "formula.rename_vars")
        counted(F, "linearize", "formula.linearize")

    def uninstall(self) -> None:
        """Restore every attribute; read cmcheck's own witness-search count."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.counts["solver.witness_searches"] += sum(
            s.stats["witness_searches"] for s in self.solvers)
        self.solvers.clear()

    def missing_calls(self, workload: str) -> list[str]:
        return [name for name, where in EXPECTED_CALLS.items()
                if workload in where and not self.calls[name]]
