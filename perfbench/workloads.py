"""The three benchmark workloads: their analyses, checks and digests.

Every analysis goes through cmcheck's public entry points
(``driver.run_analysis``, ``assumptions.serialize_automaton`` and
``parse_automaton``).  Checks and digests run outside the timed region.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Optional

import corpus

WORKLOADS = ("random-corpus", "explicit-deep", "two-stage")
CORPUS_FUEL = 1500
CORPUS_MAX_REFINEMENTS = 25
DEEP_FUEL = 100_000


@dataclass
class Job:
    """One analysis (or one two-stage pipeline) of one program."""

    name: str
    program: str
    stages: list  # AnalysisConfig per stage; later stages read the previous automaton
    expect: Optional[list[str]] = None  # known stage verdicts; None: oracle check


@dataclass
class Workload:
    name: str
    texts: dict[str, str]
    jobs: list[Job]
    corpus_seed: Optional[int] = None


@dataclass
class Outcome:
    """What a finished job leaves for checking, digesting and counting."""

    verdicts: list[str]
    reports: list = field(default_factory=list)
    stats: list[dict] = field(default_factory=list)
    automaton_texts: list[str] = field(default_factory=list)


def build(name: str, corpus_seed: int) -> Workload:
    from cmcheck import driver

    if name == "random-corpus":
        texts = {f"p{i:03d}": t for i, t in enumerate(corpus.random_corpus(corpus_seed))}
        configs = []
        for cfg in driver.shipped_configurations().values():
            cfg = dataclasses.replace(cfg, fuel=CORPUS_FUEL)
            if cfg.wants_refinement():
                cfg.max_refinements = CORPUS_MAX_REFINEMENTS
            configs.append(cfg)
        jobs = [Job(f"{p}/{c.name}", p, [c]) for p in texts for c in configs]
        return Workload(name, texts, jobs, corpus_seed)

    explicit = driver.AnalysisConfig(name="explicit", domain="explicit", fuel=DEEP_FUEL)
    if name == "explicit-deep":
        texts = {p: corpus.named_program(p) for p in corpus.NAMED_PROGRAMS}
        jobs = [Job(f"{p}/explicit", p, [explicit], ["CONDITION"]) for p in texts]
        for n in corpus.WIDE_SIZES:
            texts[f"wide{n}"] = corpus.wide_program(n)
            jobs.append(Job(f"wide{n}/explicit", f"wide{n}", [explicit], ["TRUE"]))
        return Workload(name, texts, jobs)

    if name == "two-stage":
        program = "nonlinear_square"
        texts = {program: corpus.named_program(program)}
        predicate = driver.AnalysisConfig(name="predicate", domain="predicate")
        unlimited = driver.AnalysisConfig(name="explicit", domain="explicit")
        jobs = [
            Job(f"{program}/explicit>predicate", program, [explicit, predicate],
                ["CONDITION", "TRUE"]),
            Job(f"{program}/predicate>explicit", program, [predicate, unlimited],
                ["CONDITION", "TRUE"]),
        ]
        return Workload(name, texts, jobs)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def parse_texts(texts: dict[str, str]) -> dict:
    from cmcheck import lang

    return {name: lang.parse_program(text) for name, text in texts.items()}


def run_job(job: Job, cfa) -> Outcome:
    """The timed part: each stage, handing its automaton on as text.

    Stages stop after a definite verdict, as ``driver.run_pipeline`` does.
    """
    from cmcheck import assumptions as A
    from cmcheck import driver

    out = Outcome([])
    carried = None
    for k, config in enumerate(job.stages):
        report = driver.run_analysis(cfa, dataclasses.replace(config),
                                     input_automaton=carried)
        out.verdicts.append(report.verdict)
        out.reports.append(report)
        if report.verdict in ("TRUE", "FALSE"):
            break
        if k + 1 < len(job.stages):
            carried = A.parse_automaton(A.serialize_automaton(report.automaton))
    return out


def summarize(outcome: Outcome) -> str:
    """Digest of verdicts, psi and automata; records each stage's counts."""
    from cmcheck import assumptions as A

    h = hashlib.sha256()
    for verdict, report in zip(outcome.verdicts, outcome.reports):
        automaton = A.serialize_automaton(report.automaton)
        outcome.automaton_texts.append(automaton)
        h.update(f"{verdict}\0{A.serialize_condition(report.psi)}\0{automaton}\0".encode())
        outcome.stats.append(dict(report.stats, art_nodes=len(report.run.nodes),
                                  removed_nodes=sum(n.removed for n in report.run.nodes),
                                  automaton_states=len(report.automaton.flags)))
    return h.hexdigest()


class Checker:
    """Correctness of one job's outcome; returns a failure message or None.

    Named programs have known stage verdicts.  Random-corpus verdicts get
    the criterion-1 soundness check: a bounded oracle for TRUE, witness
    replay for FALSE, and psi-avoids-error for CONDITION.
    """

    def __init__(self):
        self._ground: dict[str, bool] = {}

    def __call__(self, job: Job, cfa, outcome: Outcome) -> Optional[str]:
        if job.expect is not None:
            if outcome.verdicts != job.expect:
                return f"stages {outcome.verdicts}, expected {job.expect}"
            return None
        return self._soundness(job.program, cfa, outcome.reports[-1])

    def _soundness(self, program: str, cfa, report) -> Optional[str]:
        from cmcheck import formula as F
        from cmcheck import oracle

        if report.verdict != "FALSE" and (report.verdict == "TRUE") != (report.psi == F.TRUE):
            return f"verdict {report.verdict} with psi {'=' if report.psi == F.TRUE else '!='} true"
        if report.verdict == "TRUE":
            if program not in self._ground:
                self._ground[program] = oracle.enumerate_reachable(
                    cfa, havoc_range=(0, 4), max_states=8000).error_hit
            return "verdict TRUE but the bounded oracle reaches an error" \
                if self._ground[program] else None
        if report.verdict == "FALSE":
            return None if replay_witness(cfa, report.witness) else "witness does not replay"
        ok = oracle.condition_avoids_error(cfa, report.psi, havoc_range=(0, 4),
                                           max_states=20000)
        if ok is None:
            return "oracle budget exhausted on the condition"
        return None if ok else "an execution inside psi reaches an error location"


def replay_witness(cfa, witness) -> bool:
    """Re-execute a confirmed counterexample; True iff it ends in an error."""
    from cmcheck import lang, oracle

    state = oracle.initial_state(cfa)
    for edge, expected_store in witness or ():
        if isinstance(edge.op, lang.Havoc):
            store = oracle.store_of(state)
            store[edge.op.var] = expected_store[edge.op.var]
            state = oracle.make_state(edge.target, store)
        else:
            state = oracle.step(state, edge)
            if state is None:
                return False
        if oracle.store_of(state) != expected_store:
            return False
    return state[0] in cfa.error_locations


def combine(job_digests: dict[str, str]) -> str:
    """Workload digest, independent of the order the jobs ran in."""
    h = hashlib.sha256()
    for name in sorted(job_digests):
        h.update(f"{name}\0{job_digests[name]}\0".encode())
    return h.hexdigest()

