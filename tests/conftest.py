import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

PROGRAMS = Path(__file__).parent.parent / "programs"


@pytest.fixture(scope="session")
def programs_dir() -> Path:
    return PROGRAMS


@pytest.fixture(scope="session")
def nonlinear_square_cfa():
    from cmcheck import lang

    return lang.parse_program((PROGRAMS / "nonlinear_square.imp").read_text())


@pytest.fixture(scope="session")
def deep_loop_bug_cfa():
    from cmcheck import lang

    return lang.parse_program((PROGRAMS / "deep_loop_shallow_bug.imp").read_text())


@pytest.fixture(scope="session")
def nonlinear_square_explicit_automaton(nonlinear_square_cfa) -> str:
    """Serialized automaton of a 100,000-post explicit run: the first stage
    of the explicit-then-predicate pipeline on ``nonlinear_square``."""
    from cmcheck import assumptions as A
    from cmcheck.driver import AnalysisConfig, run_analysis

    report = run_analysis(nonlinear_square_cfa,
                          AnalysisConfig(name="explicit", domain="explicit", fuel=100000))
    assert report.verdict == "CONDITION"
    return A.serialize_automaton(report.automaton)
