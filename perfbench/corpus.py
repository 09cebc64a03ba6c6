"""Program texts of the benchmark workloads.

The random corpus is the criterion-1 corpus of the acceptance suite: the
same grammar, the same random-number call sequence and the same
acceptance filter, so one seed yields the same 200 programs.  The
benchmark keeps its own copy of the generator so that an edit to the
test helpers cannot shift the workload.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

CRITERION_1_SEED = 20110901
CORPUS_SIZE = 200
WIDE_SIZES = (6, 8, 9)
NAMED_PROGRAMS = ("nonlinear_square", "deep_loop_shallow_bug")

_PROGRAMS_DIR = Path(__file__).resolve().parent / "programs"
_VARS = ["a", "b", "c", "d"]


def _term(rng: random.Random, names: list[str]) -> str:
    if rng.random() < 0.45 or not names:
        return str(rng.randint(-4, 4))
    return rng.choice(names)


def _expr(rng: random.Random, names: list[str], allow_mult: bool) -> str:
    a = _term(rng, names)
    roll = rng.random()
    if roll < 0.35:
        return a
    b = _term(rng, names)
    if allow_mult and roll > 0.92:
        return f"{a} * {b}"
    return f"{a} {rng.choice(['+', '+', '-'])} {b}"


def _cmp(rng: random.Random, names: list[str]) -> str:
    lhs = rng.choice(names) if names else "0"
    op = rng.choice(["<", "<=", "==", "!=", ">=", ">"])
    return f"{lhs} {op} {_term(rng, names)}"


def _stmts(rng: random.Random, names: list[str], depth: int, budget: list[int],
           allow_mult: bool) -> list[str]:
    out: list[str] = []
    for _ in range(rng.randint(1, 3)):
        if budget[0] <= 0:
            break
        budget[0] -= 1
        roll = rng.random()
        pad = "  " * depth
        if roll < 0.40:
            v = rng.choice(names)
            out.append(f"{pad}{v} := {_expr(rng, names, allow_mult)};")
        elif roll < 0.52:
            out.append(f"{pad}havoc {rng.choice(names)};")
        elif roll < 0.64:
            out.append(f"{pad}assert({_cmp(rng, names)});")
        elif roll < 0.84 and depth < 2:
            body = _stmts(rng, names, depth + 1, budget, allow_mult)
            out.append(f"{pad}if ({_cmp(rng, names)}) {{")
            out.extend(body)
            if rng.random() < 0.4:
                out.append(f"{pad}}} else {{")
                out.extend(_stmts(rng, names, depth + 1, budget, allow_mult))
            out.append(f"{pad}}}")
        elif depth < 2:
            v = rng.choice(names)
            bound = rng.randint(1, 4)
            out.append(f"{pad}{v} := 0;")
            out.append(f"{pad}while ({v} < {bound}) {{")
            out.extend(_stmts(rng, names, depth + 1, budget, allow_mult))
            out.append(f"{'  ' * (depth + 1)}{v} := {v} + 1;")
            out.append(f"{pad}}}")
        else:
            v = rng.choice(names)
            out.append(f"{pad}{v} := {_expr(rng, names, allow_mult)};")
    return out


def _program_text(rng: random.Random, n_vars: int, allow_mult: bool) -> str:
    names = _VARS[:n_vars]
    lines = [f"int {', '.join(names)};"]
    budget = [rng.randint(3, 9)]
    lines.extend(_stmts(rng, names, 0, budget, allow_mult))
    return "\n".join(lines) + "\n"


def _accepted_text(rng: random.Random, n_vars: int, allow_mult: bool,
                   require_assert: bool) -> str:
    """First sample that fits 20 locations and the oracle's state budget."""
    from cmcheck import lang, oracle

    for _ in range(200):
        text = _program_text(rng, n_vars, allow_mult)
        cfa = lang.parse_program(text)
        if len(cfa.locations) > 20:
            continue
        if require_assert and not cfa.error_locations:
            continue
        if oracle.enumerate_reachable(cfa, havoc_range=(0, 4),
                                      max_states=8000).budget_exceeded:
            continue
        return text
    raise RuntimeError("could not generate a suitable program")


def random_corpus(seed: int = CRITERION_1_SEED) -> list[str]:
    """The criterion-1 corpus: 200 texts, every fifth with products."""
    rng = random.Random(seed)
    return [_accepted_text(rng, n_vars=rng.randint(1, 4), allow_mult=(i % 5 == 0),
                           require_assert=(i % 2 == 0))
            for i in range(CORPUS_SIZE)]


def wide_program(n: int) -> str:
    """A 50-iteration loop incrementing n variables; the assertion holds."""
    names = ", ".join(f"v{k}" for k in range(n))
    body = " ".join(f"v{k} := v{k} + 1;" for k in range(n))
    return (f"int i, {names};\ni := 0;\n"
            f"while (i < 50) {{ {body} i := i + 1; }}\nassert(i == 50);\n")


def named_program(name: str) -> str:
    return (_PROGRAMS_DIR / f"{name}.imp").read_text()


def texts_sha256(texts: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(texts):
        h.update(f"{name}\0{texts[name]}\0".encode())
    return h.hexdigest()
