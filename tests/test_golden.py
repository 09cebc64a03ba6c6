"""Golden output: one digest over verdict, psi and automaton of many runs.

Refactors must leave every output byte unchanged.  ``GOLDEN`` covers the
seven shipped configurations (bounded by fuel, and by a refinement cap
where they refine, as in the benchmark) over the shipped programs and the
first 40 criterion-1 programs; ``GOLDEN_CONDITIONS`` covers the same
programs under eight configurations with overflow bounds, busy edges,
repeated locations and path lengths.  A change that alters outputs on
purpose updates the digest and says why in CHANGES.md.
"""

import dataclasses
import hashlib
import random

from cmcheck import assumptions as A
from cmcheck import driver, lang

from helpers import random_cfa

GOLDEN = "8b339a609708ad21d17d5134493b0a13dab25defd0842cf7da92a206bce44d67"
GOLDEN_CONDITIONS = "878b92781a4b417d8b2fb7108e38b31de5b5687b7c22f77ec383f57078c5c83e"


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


def digest(programs_dir, configs):
    h = hashlib.sha256()
    for name, cfa in golden_programs(programs_dir):
        for config in configs:
            report = driver.run_analysis(cfa, dataclasses.replace(config))
            h.update(f"{name}\0{config.name}\0{report.verdict}\0"
                     f"{A.serialize_condition(report.psi)}\0"
                     f"{A.serialize_automaton(report.automaton)}\0".encode())
    return h.hexdigest()


def test_outputs_match_the_golden_digest(programs_dir):
    assert digest(programs_dir, golden_configs()) == GOLDEN


def test_condition_configs_match_their_golden_digest(programs_dir):
    assert digest(programs_dir, condition_configs()) == GOLDEN_CONDITIONS
