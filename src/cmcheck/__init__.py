"""cmcheck: a conditional model checker for a small integer language.

Instead of failing, every analysis run emits a condition (a state formula
plus an assumption automaton) under which the program is proved safe;
conditions from one run can restrict the next, so complementary analyses
combine.
"""

__version__ = "0.1.0"
