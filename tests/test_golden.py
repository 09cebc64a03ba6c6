"""Golden output: one digest over verdict, psi and automaton of many runs.

Refactors must leave every output byte unchanged.  The digest covers the
seven shipped configurations (bounded by fuel, and by a refinement cap
where they refine, as in the benchmark) over the shipped programs and the
first 40 criterion-1 programs.  A change that alters outputs on purpose
updates ``GOLDEN`` and says why in CHANGES.md.
"""

import dataclasses
import hashlib
import random

from cmcheck import assumptions as A
from cmcheck import driver, lang

from helpers import random_cfa

GOLDEN = "8b339a609708ad21d17d5134493b0a13dab25defd0842cf7da92a206bce44d67"


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


def golden_configs():
    configs = []
    for config in driver.shipped_configurations().values():
        config = dataclasses.replace(config, fuel=1500)
        if config.wants_refinement():
            config.max_refinements = 25
        configs.append(config)
    return configs


def test_outputs_match_the_golden_digest(programs_dir):
    h = hashlib.sha256()
    for name, cfa in golden_programs(programs_dir):
        for config in golden_configs():
            report = driver.run_analysis(cfa, dataclasses.replace(config))
            h.update(f"{name}\0{config.name}\0{report.verdict}\0"
                     f"{A.serialize_condition(report.psi)}\0"
                     f"{A.serialize_automaton(report.automaton)}\0".encode())
    assert h.hexdigest() == GOLDEN
