"""Golden output: one digest over verdict, psi and automaton of many runs.

Refactors must leave every output byte unchanged.  ``GOLDEN`` covers the
seven shipped configurations (bounded by fuel, and by a refinement cap
where they refine, as in the benchmark) over the shipped programs and the
first 40 criterion-1 programs; ``GOLDEN_CONDITIONS`` covers the same
programs under eight configurations with overflow bounds, busy edges,
repeated locations and path lengths.  A change that alters outputs on
purpose updates the digest and says why in CHANGES.md.

``PYTHONPATH=src python tests/test_golden.py`` prints one line per run
(program, config, verdict, and short sha256s of the ψ and automaton
texts), so the runs that moved between two commits show in a ``diff`` of
their outputs.
"""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

from cmcheck import assumptions as A
from cmcheck import driver, lang

from helpers import random_cfa

GOLDEN = "8b339a609708ad21d17d5134493b0a13dab25defd0842cf7da92a206bce44d67"
GOLDEN_CONDITIONS = "b1b2f0516c9825c3ba4f4b776bcab553b1ce5cf1e9e598edc9c4d35242825bb0"


def golden_programs(programs_dir):
    named = [(p.name, lang.parse_program(p.read_text()))
             for p in sorted(programs_dir.glob("*.imp"))]
    named.append(("diamond.cfa", lang.parse_cfa((programs_dir / "diamond.cfa").read_text())))
    # The criterion-1 generator, seed and parameters; its first 40 programs.
    rng = random.Random(20110901)
    named.extend((f"criterion1-{i:02d}",
                  random_cfa(rng, n_vars=rng.randint(1, 4), allow_mult=(i % 5 == 0),
                             require_assert=(i % 2 == 0)))
                 for i in range(40))
    return named


def bounded(configs):
    out = []
    for config in configs:
        config = dataclasses.replace(config, fuel=1500)
        if config.wants_refinement():
            config.max_refinements = 25
        out.append(config)
    return out


def golden_configs():
    return bounded(driver.shipped_configurations().values())


def condition_configs():
    C = driver.AnalysisConfig
    small = {"overflow": True, "overflow_min": -3, "overflow_max": 3}
    return bounded([
        C(name="explicit-overflow", domain="explicit", overflow=True),
        C(name="predicate-overflow", domain="predicate", overflow=True),
        C(name="explicit-overflow3", domain="explicit", **small),
        C(name="predicate-overflow3", domain="predicate", **small),
        C(name="explicit-busy2", domain="explicit", busy_edge=2),
        C(name="predicate-busy3", domain="predicate", busy_edge=3),
        C(name="explicit-overflow5-busy2-repeat2", domain="explicit", overflow=True,
          overflow_min=-5, overflow_max=5, busy_edge=2, repeat_loc=2),
        C(name="location-busy1-pathlen20", domain="location", busy_edge=1,
          path_length=20),
    ])


def runs(programs_dir, configs):
    """(program, config, verdict, ψ text, automaton text) for each run."""
    for name, cfa in golden_programs(programs_dir):
        for config in configs:
            report = driver.run_analysis(cfa, dataclasses.replace(config))
            yield (name, config.name, report.verdict, A.serialize_condition(report.psi),
                   A.serialize_automaton(report.automaton))


def digest(programs_dir, configs):
    h = hashlib.sha256()
    for run in runs(programs_dir, configs):
        h.update("".join(f"{field}\0" for field in run).encode())
    return h.hexdigest()


def test_outputs_match_the_golden_digest(programs_dir):
    assert digest(programs_dir, golden_configs()) == GOLDEN


def test_condition_configs_match_their_golden_digest(programs_dir):
    assert digest(programs_dir, condition_configs()) == GOLDEN_CONDITIONS


def test_golden_digest_under_a_second_hash_seed(programs_dir):
    # Output bytes must not depend on string hashing.  Tier-1 runs under
    # one hash seed per session, so a child under a fixed one pins another.
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here), str(here.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pathlib, test_golden as g; "
         "print(g.digest(pathlib.Path(sys.argv[1]), g.golden_configs()))", str(programs_dir)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=path))
    assert proc.stdout.strip() == GOLDEN


def short(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


if __name__ == "__main__":
    programs = Path(__file__).resolve().parent.parent / "programs"
    for name, config, verdict, psi, automaton in runs(
            programs, golden_configs() + condition_configs()):
        print(name, config, verdict, short(psi), short(automaton))
