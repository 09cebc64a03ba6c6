"""Analysis configurations, the sequential pipeline runner, and reports.

A pipeline runs configurations in order, stopping early on a definite
verdict.  In condition-passing mode each stage that ends with CONDITION
exports its assumption automaton and the next stage consumes it as an
input condition, restricting the state space to what is still unverified.
The final result is the last stage's result; total time is the sum.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

from . import assumptions as A
from . import conditions as C
from . import domains as D
from . import lang, refine
from . import solver as solver_mod

STATS_SCHEMA = 1


@dataclass
class AnalysisConfig:
    name: str = "predicate"
    domain: str = "predicate"  # 'explicit' | 'predicate' | 'location'
    order: str = "dfs"
    refinement: Optional[bool] = None  # defaults to (domain == 'predicate')
    overflow: bool = False
    overflow_min: int = -(2 ** 31)
    overflow_max: int = 2 ** 31 - 1
    repeat_loc: Optional[int] = None
    path_length: Optional[int] = None
    assume_edges: Optional[int] = None
    busy_edge: Optional[int] = None
    reached_size: Optional[int] = None
    soft_time: Optional[float] = None
    fuel: Optional[int] = None
    pf_atoms: Optional[int] = None
    input_automaton: Optional[str] = None  # file path
    max_refinements: Optional[int] = None

    def wants_refinement(self) -> bool:
        if self.refinement is None:
            return self.domain == "predicate"
        return self.refinement

    def validate(self) -> None:
        # Each field holds a value of its annotated type (an int also serves
        # as a float), and only the overflow bounds may be negative.
        accepted = {"str": (str, "a string"), "bool": (bool, "true or false"),
                    "int": (int, "an integer"), "float": ((int, float), "a number")}
        for f in fields(self):
            value = getattr(self, f.name)
            kind = f.type.removeprefix("Optional[").removesuffix("]")
            if value is None and kind != f.type:
                continue
            types, expected = accepted[kind]
            if not isinstance(value, types) or isinstance(value, bool) != (kind == "bool"):
                raise ValueError(f"{f.name} must be {expected}, not {value!r}")
            if kind in ("int", "float") and not f.name.startswith("overflow_") \
                    and not value >= 0:
                raise ValueError(f"{f.name} must be non-negative, not {value!r}")
        if self.overflow_min > self.overflow_max:
            raise ValueError(f"overflow_min {self.overflow_min} exceeds "
                             f"overflow_max {self.overflow_max}")
        if self.domain not in ("explicit", "predicate", "location"):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.order not in ("dfs", "bfs"):
            raise ValueError(f"unknown order {self.order!r}")
        if self.wants_refinement() and self.domain != "predicate":
            raise ValueError("refinement requires domain=predicate")


@dataclass
class Pipeline:
    stages: list[AnalysisConfig]
    chaining: str = "condition-passing"  # or 'independent'

    def validate(self) -> None:
        if self.chaining not in ("condition-passing", "independent"):
            raise ValueError(f"unknown chaining mode {self.chaining!r}")
        if not self.stages:
            raise ValueError("pipeline has no stages")
        for s in self.stages:
            s.validate()


def shipped_configurations() -> dict[str, AnalysisConfig]:
    """Named single-stage configurations selectable with --config."""
    return {
        "explicit": AnalysisConfig(name="explicit", domain="explicit"),
        "explicit-bfs": AnalysisConfig(name="explicit-bfs", domain="explicit", order="bfs"),
        "explicit-repeat3": AnalysisConfig(name="explicit-repeat3", domain="explicit",
                                           repeat_loc=3),
        "explicit-pathlen40": AnalysisConfig(name="explicit-pathlen40", domain="explicit",
                                             path_length=40),
        "predicate": AnalysisConfig(name="predicate", domain="predicate"),
        "predicate-norefine": AnalysisConfig(name="predicate-norefine", domain="predicate",
                                             refinement=False),
        "location": AnalysisConfig(name="location", domain="location"),
    }


# ---------------------------------------------------------------------------
# Single-stage analysis
# ---------------------------------------------------------------------------

def run_analysis(cfa: lang.Cfa, config: AnalysisConfig,
                 input_automaton: Optional[A.AssumptionAutomaton] = None) -> A.ConditionReport:
    """Run one configuration to a condition report."""
    config.validate()
    solver = solver_mod.Solver()
    if config.domain == "explicit":
        domain = D.ExplicitDomain()
    elif config.domain == "predicate":
        domain = D.PredicateDomain(solver, D.Precision())
    else:
        domain = D.NoDomain()

    condition_components = []
    if config.repeat_loc is not None:
        condition_components.append(C.RepeatComponent(config.repeat_loc))
    if config.path_length is not None or config.assume_edges is not None:
        condition_components.append(
            C.PathStatsComponent(config.path_length, config.assume_edges))

    observer = None
    automaton = input_automaton
    if automaton is None and config.input_automaton:
        automaton = A.parse_automaton(Path(config.input_automaton).read_text(),
                                      source=config.input_automaton)
    if automaton is not None:
        observer = A.ObserverComponent(automaton, cfa)

    overflow = None
    if config.overflow:
        overflow = A.OverflowComponent(config.overflow_min, config.overflow_max)

    cpa = A.CompositeCpa(cfa, domain, solver,
                         condition_components=condition_components,
                         observer=observer, overflow=overflow)
    monitor = C.GlobalMonitor(
        max_fuel=config.fuel,
        max_reached=config.reached_size,
        soft_time_seconds=config.soft_time,
        busy_edge_limit=config.busy_edge,
    )
    started = time.monotonic()
    report = refine.refine_loop(cpa, config.order, monitor, config.wants_refinement(),
                                config.max_refinements, config.pf_atoms)
    report.stats.update({
        "config": config.name,
        "posts": monitor.fuel_spent,
        "sat_queries": solver.stats["sat_queries"],
        "wall_seconds": round(time.monotonic() - started, 6),
    })
    if isinstance(domain, D.PredicateDomain):
        report.stats["precision_atoms"] = domain.precision.atom_total()
    elif isinstance(domain, D.ExplicitDomain):
        report.stats["value_widenings"] = domain.value_widenings
    return report


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

@dataclass
class StageResult:
    name: str
    verdict: str  # TRUE | FALSE | CONDITION | skipped
    report: Optional[A.ConditionReport]
    seconds: float

    @property
    def skipped(self) -> bool:
        return self.verdict == "skipped"


@dataclass
class FinalReport:
    verdict: str
    stages: list[StageResult]
    total_seconds: float

    @property
    def solved(self) -> bool:  # a definite TRUE/FALSE was reached
        return self.verdict in ("TRUE", "FALSE")

    @property
    def last_report(self) -> Optional[A.ConditionReport]:
        for stage in reversed(self.stages):
            if stage.report is not None:
                return stage.report
        return None


def run_pipeline(cfa: lang.Cfa, pipeline: Pipeline) -> FinalReport:
    pipeline.validate()
    stages: list[StageResult] = []
    carried: Optional[A.AssumptionAutomaton] = None
    verdict = "CONDITION"
    total = 0.0
    done = False
    for config in pipeline.stages:
        if done:
            stages.append(StageResult(config.name, "skipped", None, 0.0))
            continue
        started = time.monotonic()
        report = run_analysis(cfa, config, input_automaton=carried)
        seconds = time.monotonic() - started
        total += seconds
        stages.append(StageResult(config.name, report.verdict, report, seconds))
        verdict = report.verdict
        if report.verdict in ("TRUE", "FALSE"):
            done = True
        elif pipeline.chaining == "condition-passing":
            carried = report.automaton
    return FinalReport(verdict=verdict, stages=stages, total_seconds=total)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def render_witness(witness: list) -> str:
    lines = []
    for k, (edge, store) in enumerate(witness):
        vals = ",".join(f"{v}={store[v]}" for v in sorted(store))
        lines.append(f"step {k}: edge {edge.id} {lang.render_op(edge.op)}; store {{{vals}}}")
    return "\n".join(lines) + "\n"


def emit_report(final: FinalReport, out_dir: str | Path,
                json_stats: bool = False) -> dict[str, Path]:
    """Write verdict, psi, automaton, witness, and stats files; with
    ``json_stats``, also ``stats.jsonl``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    def emit(name: str, text: str):
        path = out / name
        path.write_text(text)
        written[name] = path

    emit("verdict.txt", final.verdict + "\n")
    last = final.last_report
    if last is not None:
        emit("psi.txt", A.serialize_condition(last.psi))
        emit("automaton.txt", A.serialize_automaton(last.automaton))
        if last.witness is not None:
            emit("witness.txt", render_witness(last.witness))

    stats_lines = [f"verdict: {final.verdict}",
                   f"total_seconds: {final.total_seconds:.6f}",
                   f"solved: {final.solved}"]
    for stage in final.stages:
        extra = ""
        if stage.report is not None:
            s = stage.report.stats
            extra = (f" posts={s.get('posts')} reached={s.get('reached')}"
                     f" refinements={s.get('refinements')}")
        stats_lines.append(f"stage {stage.name}: {stage.verdict}"
                           f" ({stage.seconds:.3f}s){extra}")
    emit("stats.txt", "\n".join(stats_lines) + "\n")

    if json_stats:
        rows = []
        for stage in final.stages:
            row = {"schema": STATS_SCHEMA, "stage": stage.name,
                   "verdict": stage.verdict, "seconds": round(stage.seconds, 6),
                   "skipped": stage.skipped}
            if stage.report is not None:
                row.update({k: v for k, v in stage.report.stats.items()
                            if isinstance(v, (int, float, str))})
            rows.append(row)
        rows.append({"schema": STATS_SCHEMA, "stage": "total",
                     "verdict": final.verdict,
                     "seconds": round(final.total_seconds, 6),
                     "solved": final.solved})
        emit("stats.jsonl", "\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n")
    return written


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------

# Each key sets the configuration field of the same name, with '_' for '-'.
_CONDITION_KEYS = ("path-length", "repeat-loc", "assume-edges", "busy-edge",
                   "reached-size", "soft-time", "fuel", "pf-atoms")


def parse_condition_flag(text: str) -> tuple[str, object]:
    key, sep, value = text.partition("=")
    if not sep or key not in _CONDITION_KEYS:
        known = ", ".join(sorted(_CONDITION_KEYS))
        raise ValueError(f"bad condition {text!r}; expected one of {known} with =VALUE")
    attr = key.replace("-", "_")
    if key == "soft-time":
        return attr, float(value.removesuffix("s"))
    # ASCII digits only: int() also takes signs, '_' and other scripts' digits.
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"condition {key} takes a non-negative integer, not {value!r}")
    return attr, int(value)


_CONFIG_FIELDS = {f.name for f in fields(AnalysisConfig)}


def config_from_dict(data: dict) -> AnalysisConfig:
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    config = AnalysisConfig(**data)
    config.validate()
    return config


def parse_config(config_name: Optional[str] = None,
                 pipeline_file: Optional[str] = None,
                 condition_flags: Sequence[str] = (),
                 overrides: Optional[dict] = None) -> Pipeline:
    """Build a pipeline from a named config or a pipeline file, plus flags.

    Flags override file values; unknown keys are rejected.
    """
    if pipeline_file:
        data = json.loads(Path(pipeline_file).read_text())
        unknown = set(data) - {"chaining", "stages"}
        if unknown:
            raise ValueError(f"unknown pipeline keys: {sorted(unknown)}")
        stages = [config_from_dict(s) for s in data.get("stages", [])]
        pipeline = Pipeline(stages=stages, chaining=data.get("chaining", "condition-passing"))
    else:
        named = shipped_configurations()
        name = config_name or "predicate"
        if name not in named:
            raise ValueError(f"unknown configuration {name!r}; "
                             f"known: {', '.join(sorted(named))}")
        pipeline = Pipeline(stages=[named[name]])
    for flag in condition_flags:
        attr, value = parse_condition_flag(flag)
        for stage in pipeline.stages:
            setattr(stage, attr, value)
    for key, value in (overrides or {}).items():
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"unknown configuration key {key!r}")
        for stage in pipeline.stages:
            setattr(stage, key, value)
    pipeline.validate()
    return pipeline
