"""Driver, pipeline, report emission, and CLI tests."""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from cmcheck import assumptions as A
from cmcheck import cli, driver, formula as F, lang
from cmcheck.driver import AnalysisConfig, Pipeline

from helpers import br_program, replay_witness


def test_parse_config_named_with_conditions():
    p = driver.parse_config(config_name="explicit",
                            condition_flags=["repeat-loc=3"])
    assert p.stages[0].domain == "explicit"
    assert p.stages[0].repeat_loc == 3


def test_parse_config_path_length_and_soft_time():
    p = driver.parse_config(config_name="explicit",
                            condition_flags=["path-length=90", "soft-time=15s"])
    assert p.stages[0].path_length == 90
    assert p.stages[0].soft_time == 15.0


def test_parse_config_default_is_predicate_with_refinement():
    p = driver.parse_config()
    assert p.stages[0].domain == "predicate"
    assert p.stages[0].wants_refinement()


def test_parse_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError, match="condition"):
        driver.parse_config(condition_flags=["bogus=1"])
    # Integer values take ASCII digits only, as the input formats do.
    for flag in ("fuel=\u0663", "fuel=1_0", "fuel=+3", "fuel=-3", "fuel= 3", "repeat-loc=3.0"):
        with pytest.raises(ValueError, match=flag.partition("=")[0]):
            driver.parse_config(condition_flags=[flag])
    # Seconds are ASCII digits with at most one '.', and an optional 's'.
    for flag in ("soft-time=\u0663s", "soft-time=1_0", "soft-time=+3", "soft-time=1e1",
                 "soft-time=inf", "soft-time=nan", "soft-time=.", "soft-time=s",
                 "soft-time=1.2.3", "soft-time=3 s", "soft-time=-1"):
        with pytest.raises(ValueError, match="soft-time"):
            driver.parse_config(config_name="explicit", condition_flags=[flag])
    for value, seconds in (("3", 3.0), ("1.5s", 1.5), (".5", 0.5), ("2.", 2.0)):
        p = driver.parse_config(config_name="explicit", condition_flags=[f"soft-time={value}"])
        assert p.stages[0].soft_time == seconds
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"stages": [{"domain": "explicit", "frobnicate": 1}]}))
    with pytest.raises(ValueError, match="unknown configuration keys"):
        driver.parse_config(pipeline_file=str(f))
    f.write_text(json.dumps({"stagez": []}))
    with pytest.raises(ValueError, match="unknown pipeline keys"):
        driver.parse_config(pipeline_file=str(f))


def test_cli_rejects_full_restart_key(tmp_path, capsys):
    # Refinement always re-explores lazily; the old restart switch is gone.
    prog = tmp_path / "p.imp"
    prog.write_text("int x; x := 0;")
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"stages": [{"domain": "predicate", "full_restart": True}]}))
    assert cli.main([str(prog), "--pipeline", str(f)]) == 3
    assert "unknown configuration keys: ['full_restart']" in capsys.readouterr().err


def test_cli_names_the_program_file_in_syntax_errors(tmp_path, capsys):
    f = tmp_path / "bad.imp"
    f.write_text("int x; x := ;")
    assert cli.main([str(f), "--config", "explicit"]) == 3
    assert capsys.readouterr().err == \
        f"cmcheck: error: {f}:1:13: expected expression, found ';'\n"


@pytest.mark.parametrize("name, text, message", [
    ("bad.cfa", "vars: x; init: L0; L0 -> L1: y := 1;", "1:30: undeclared variable 'y'"),
    ("bad.cfa", "vars: x; init: L\u00b2;", "1:16: expected location (L<n>), found 'L\u00b2'"),
    # A superscript two is no digit, and no letter either.
    ("bad.imp", "int x; x := 2\u00b2;", "1:14: unexpected character '\u00b2'"),
    ("bad.imp", "int \u00b2;", "1:5: unexpected character '\u00b2'"),
    # psi reads pc as the program counter.
    ("bad.imp", "int x, pc; pc := 1;", "1:8: 'pc' is reserved for the program counter"),
    ("bad.cfa", "vars: pc; init: L0;", "1:7: 'pc' is reserved for the program counter"),
])
def test_cli_names_the_program_file_in_input_errors(tmp_path, capsys, name, text, message):
    f = tmp_path / name
    f.write_text(text)
    assert cli.main([str(f), "--config", "explicit"]) == 3
    assert capsys.readouterr().err == f"cmcheck: error: {f}:{message}\n"


def test_refinement_requires_predicate_domain():
    cfg = AnalysisConfig(name="x", domain="explicit", refinement=True)
    with pytest.raises(ValueError, match="refinement requires"):
        cfg.validate()


@pytest.mark.parametrize("values, message", [
    ({"fuel": "abc"}, "fuel must be an integer, not 'abc'"),
    ({"repeat_loc": "3"}, "repeat_loc must be an integer, not '3'"),
    ({"path_length": True}, "path_length must be an integer, not True"),
    ({"fuel": -5}, "fuel must be non-negative, not -5"),
    ({"max_refinements": -1}, "max_refinements must be non-negative, not -1"),
    ({"overflow_min": 1.5}, "overflow_min must be an integer, not 1.5"),
    ({"soft_time": "1s"}, "soft_time must be a number, not '1s'"),
    ({"soft_time": -0.5}, "soft_time must be non-negative, not -0.5"),
    ({"overflow_min": 5, "overflow_max": 4}, "overflow_min 5 exceeds overflow_max 4"),
    ({"overflow_max": None}, "overflow_max must be an integer, not None"),
    ({"overflow": "no"}, "overflow must be true or false, not 'no'"),
    ({"refinement": "false"}, "refinement must be true or false, not 'false'"),
    ({"input_automaton": 5}, "input_automaton must be a string, not 5"),
], ids=["fuel-text", "repeat-text", "bool", "fuel-negative", "refinements-negative",
        "overflow-float", "soft-time-text", "soft-time-negative", "overflow-order",
        "overflow-bound-null", "overflow-text", "refinement-text", "automaton-number"])
def test_cli_rejects_bad_pipeline_values(tmp_path, capsys, values, message):
    prog = tmp_path / "p.imp"
    prog.write_text("int x; x := 1; assert(x == 1);")
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"stages": [dict(domain="explicit", **values)]}))
    assert cli.main([str(prog), "--pipeline", str(f)]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"cmcheck: error: {message}\n")


@pytest.mark.parametrize("text, message", [
    ("null", "a pipeline must be a JSON object, not None"),
    ("3", "a pipeline must be a JSON object, not 3"),
    ("[1, 2]", "a pipeline must be a JSON object, not [1, 2]"),
    ('{"stages": 5}', "pipeline stages must be a list, not 5"),
    ('{"stages": "ab"}', "pipeline stages must be a list, not 'ab'"),
    ('{"stages": [3]}', "a pipeline stage must be a JSON object, not 3"),
    ('{"stages": [null]}', "a pipeline stage must be a JSON object, not None"),
    ('{"stages": [{}, 7]}', "a pipeline stage must be a JSON object, not 7"),
], ids=["null", "number", "list", "stages-number", "stages-text", "stage-number",
        "stage-null", "second-stage-number"])
def test_cli_rejects_malformed_pipeline_files(tmp_path, capsys, text, message):
    prog = tmp_path / "p.imp"
    prog.write_text("int x; x := 1; assert(x == 1);")
    f = tmp_path / "p.json"
    f.write_text(text)
    assert cli.main([str(prog), "--pipeline", str(f)]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"cmcheck: error: {message}\n")


def test_config_accepts_numbers_in_range():
    AnalysisConfig(domain="explicit", fuel=0, soft_time=2, overflow_min=-3,
                   overflow_max=-3).validate()
    AnalysisConfig(domain="explicit", soft_time=0.5, repeat_loc=1).validate()


def test_cli_bad_out_dir_exits_before_any_verdict(tmp_path, capsys):
    prog = tmp_path / "p.imp"
    prog.write_text("int x; x := 1; assert(x == 1);")
    (tmp_path / "file").write_text("")
    out_dir = tmp_path / "file" / "out"
    assert cli.main([str(prog), "--config", "explicit", "--out-dir", str(out_dir)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("cmcheck: error: ") and "Not a directory" in err


def test_pipeline_file(tmp_path, programs_dir):
    p = driver.parse_config(pipeline_file=str(programs_dir / "two_stage.json"))
    assert [s.domain for s in p.stages] == ["predicate", "explicit"]
    assert p.chaining == "condition-passing"


def test_pipeline_early_exit_on_false():
    cfa = lang.parse_program("int x; x := 0; assert(x == 1);")
    pipe = Pipeline(stages=[
        AnalysisConfig(name="first", domain="explicit"),
        AnalysisConfig(name="second", domain="predicate"),
    ])
    final = driver.run_pipeline(cfa, pipe)
    assert final.verdict == "FALSE" and final.solved
    assert [s.verdict for s in final.stages] == ["FALSE", "skipped"]
    assert final.stages[1].skipped


def test_pipeline_total_time_is_sum_of_stages():
    cfa = lang.parse_program("int x; x := 0; assert(x == 0);")
    pipe = Pipeline(stages=[AnalysisConfig(name="a", domain="explicit"),
                            AnalysisConfig(name="b", domain="predicate")])
    final = driver.run_pipeline(cfa, pipe)
    assert abs(final.total_seconds - sum(s.seconds for s in final.stages)) < 1e-6


def test_condition_passing_feeds_automaton(nonlinear_square_cfa):
    pipe = Pipeline(stages=[
        AnalysisConfig(name="predicate", domain="predicate"),
        AnalysisConfig(name="explicit", domain="explicit"),
    ])
    final = driver.run_pipeline(nonlinear_square_cfa, pipe)
    assert [s.verdict for s in final.stages] == ["CONDITION", "TRUE"]
    assert final.verdict == "TRUE"


def test_independent_mode_does_not_feed(nonlinear_square_cfa):
    pipe = Pipeline(chaining="independent", stages=[
        AnalysisConfig(name="predicate", domain="predicate"),
        AnalysisConfig(name="explicit", domain="explicit", fuel=1000),
    ])
    final = driver.run_pipeline(nonlinear_square_cfa, pipe)
    assert [s.verdict for s in final.stages] == ["CONDITION", "CONDITION"]


def test_emit_report_files(tmp_path):
    cfa = lang.parse_program("int x; x := 0; assert(x == 1);")
    final = driver.run_pipeline(cfa, Pipeline(stages=[
        AnalysisConfig(name="explicit", domain="explicit")]))
    written = driver.emit_report(final, tmp_path, json_stats=True)
    assert (tmp_path / "verdict.txt").read_text() == "FALSE\n"
    assert (tmp_path / "psi.txt").read_text().startswith("# psi")
    assert "witness.txt" in written
    witness_text = (tmp_path / "witness.txt").read_text()
    assert witness_text.startswith("step 0: edge 0 x := 0; store {x=0}")
    rows = [json.loads(l) for l in (tmp_path / "stats.jsonl").read_text().splitlines()]
    assert all(r["schema"] == 1 for r in rows)
    assert rows[-1]["stage"] == "total"


def test_emitted_witness_replays(tmp_path):
    cfa = lang.parse_program("int x; havoc x; if (x > 2) { assert(x <= 2); }")
    report = driver.run_analysis(cfa, AnalysisConfig(name="explicit", domain="explicit"))
    assert report.verdict == "FALSE"
    assert replay_witness(cfa, report.witness)


def test_emitted_automaton_reparses_byte_identical(tmp_path):
    from cmcheck import assumptions as A

    cfa = lang.parse_program("int x; x := 0; while (x >= 0) { x := x + 1; }")
    final = driver.run_pipeline(cfa, Pipeline(stages=[
        AnalysisConfig(name="explicit", domain="explicit", fuel=100)]))
    driver.emit_report(final, tmp_path)
    text = (tmp_path / "automaton.txt").read_text()
    assert A.serialize_automaton(A.parse_automaton(text)) == text


def test_determinism_across_runs(tmp_path, nonlinear_square_cfa):
    outs = []
    for i in range(2):
        final = driver.run_pipeline(nonlinear_square_cfa, Pipeline(stages=[
            AnalysisConfig(name="predicate", domain="predicate")]))
        d = tmp_path / f"run{i}"
        driver.emit_report(final, d)
        outs.append({p.name: p.read_text() for p in d.iterdir()
                     if p.name in ("psi.txt", "automaton.txt", "verdict.txt")})
    assert outs[0] == outs[1]


# -- CLI ------------------------------------------------------------------------

def test_cli_true_exit_code(tmp_path, capsys):
    f = tmp_path / "p.imp"
    f.write_text("int x; x := 0; assert(x == 0);")
    code = cli.main([str(f), "--config", "explicit"])
    assert code == 0
    assert capsys.readouterr().out.startswith("TRUE")


def test_cli_false_exit_code_and_out_dir(tmp_path, capsys):
    f = tmp_path / "p.imp"
    f.write_text("int x; x := 2; assert(x == 1);")
    out = tmp_path / "out"
    code = cli.main([str(f), "--config", "explicit", "--out-dir", str(out),
                     "--emit", "json"])
    assert code == 1
    assert (out / "witness.txt").exists()
    assert (out / "stats.jsonl").exists()
    assert "violated: assert" in capsys.readouterr().out


def test_cli_condition_exit_code(tmp_path, capsys):
    f = tmp_path / "p.imp"
    f.write_text("int x; x := 0; while (x >= 0) { x := x + 1; }")
    code = cli.main([str(f), "--config", "explicit", "--condition", "fuel=200"])
    assert code == 2


def test_cli_rejects_non_ascii_condition_digits(tmp_path, capsys):
    f = tmp_path / "p.imp"
    f.write_text("int x; x := 0; while (x >= 0) { x := x + 1; }")
    code = cli.main([str(f), "--config", "explicit", "--condition", "fuel=\u0663"])
    assert code == 3
    assert "fuel" in capsys.readouterr().err
    code = cli.main([str(f), "--config", "explicit", "--condition", "soft-time=\u0663s"])
    assert code == 3
    assert "soft-time" in capsys.readouterr().err


def test_cli_usage_error(tmp_path, capsys):
    f = tmp_path / "broken.imp"
    f.write_text("int x; x := ;")
    assert cli.main([str(f)]) == 3
    assert "error" in capsys.readouterr().err
    assert cli.main([str(tmp_path / "missing.imp")]) == 3
    f2 = tmp_path / "ok.imp"
    f2.write_text("int x; x := 0;")
    assert cli.main([str(f2), "--config", "nope"]) == 3


@pytest.mark.parametrize("args", [["--bogus"], None, ["--order", "xyz"],
                                  ["--emit", "text"]])
def test_cli_usage_errors_exit_3(programs_dir, capsys, args):
    # argparse's own exit code 2 would read as CONDITION.
    argv = [] if args is None else [str(programs_dir / "nonlinear_square.imp"), *args]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 3
    assert "usage: cmcheck" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: cmcheck" in capsys.readouterr().out


def test_cli_crash_exits_with_internal_error(tmp_path, capsys, monkeypatch):
    # A crash must exit 4, never 1, which would read as the verdict FALSE.
    def crash(cfa, pipeline):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(driver, "run_pipeline", crash)
    f = tmp_path / "p.imp"
    f.write_text("int x; x := 2; assert(x == 1);")
    assert cli.main([str(f)]) == 4
    assert capsys.readouterr().err.startswith("cmcheck: internal error: RecursionError")


DEEP_SUM = "int x; x := " + " + ".join(["x"] * 3000) + ";"
DEEP_IFS = "int x; havoc x; " + "if (x < 5) { " * 600 + "x := 1;" + " }" * 600


@pytest.mark.parametrize("text", [DEEP_SUM, DEEP_IFS], ids=["sum", "ifs"])
def test_cli_deep_input_is_a_parse_error(tmp_path, capsys, text):
    f = tmp_path / "deep.imp"
    f.write_text(text)
    assert cli.main([str(f)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("cmcheck: ") and f"deeper than {lang.MAX_NESTING}" in err
    assert "Traceback" not in err


def nested_programs(n):
    """One program of each kind that nests exactly n levels deep."""
    return {
        # n - 1 operators make a tree n levels high
        "sum": "int x; havoc x; x := " + " + ".join(["x"] * n) + "; assert(x != 7);",
        "product": "int x; havoc x; x := " + " * ".join(["x"] * n) + "; assert(x != 8);",
        "condition": "int x; havoc x; assert(" + " + ".join(["x"] * (n - 1)) + " != 7);",
        # n - 1 statements around an innermost one
        "ifs": "int x; havoc x; " + "if (x < 5) " * (n - 1) + "x := 1; assert(x != 1);",
        # the assignment plus n - 1 parentheses
        "parens": ("int x; havoc x; x := " + "(" * (n - 1) + "x + 1" + ")" * (n - 1)
                   + "; assert(x != 7);"),
    }


@pytest.mark.parametrize("config", sorted(driver.shipped_configurations()))
def test_programs_at_the_nesting_limit_analyse(config):
    for name, text in nested_programs(lang.MAX_NESTING).items():
        final = driver.run_pipeline(lang.parse_program(text),
                                    driver.parse_config(config_name=config))
        assert final.verdict in ("TRUE", "FALSE", "CONDITION"), name


def test_one_level_past_the_nesting_limit_is_a_parse_error():
    n = lang.MAX_NESTING
    for name, text in nested_programs(n + 1).items():
        with pytest.raises(lang.ParseError, match="deeper than"):
            lang.parse_program(text)
    for op in ("x := " + " + ".join(["x"] * (n + 1)), "assume " + "!" * n + "(x < 1)"):
        with pytest.raises(lang.ParseError, match="deeper than"):
            lang.parse_cfa(f"vars: x;\ninit: L0;\nL0 -> L1: {op};\n")


@pytest.mark.parametrize("label", ["!" * 101 + "x <= 1", "x <= 1 -> " * 101 + "x <= 1",
                                   "(" * 101 + "x <= 1" + ")" * 101],
                         ids=["not", "implies", "parens"])
def test_cli_deep_automaton_label_is_a_parse_error(tmp_path, capsys, label):
    f = tmp_path / "p.imp"
    f.write_text("int x; x := 0; assert(x == 0);")
    aut = tmp_path / "automaton.txt"
    aut.write_text("# edges: 3\nstate q0 init;\nstate T T;\nstate U U;\n"
                   f"trans q0 edge=0 assume={label} -> U;\n")
    assert cli.main([str(f), "--config", "explicit", "--input-automaton", str(aut)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("cmcheck: ") and f"deeper than {lang.MAX_NESTING}" in err
    assert "Traceback" not in err
    # The position is in the automaton file: its fifth line, inside the label.
    with pytest.raises(lang.ParseError) as inner:
        F.parse_formula(label)
    line = aut.read_text().splitlines()[4]
    assert f"{aut}:5:{line.index(label) + inner.value.col}: " in err


def test_cli_names_the_automaton_file_in_whole_file_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.imp").write_text("int x; x := 0; assert(x == 0);")
    (tmp_path / "noinit.txt").write_text("# edges: 3\nstate T T;\nstate U U;\n")
    assert cli.main(["p.imp", "--config", "explicit", "--input-automaton", "noinit.txt"]) == 3
    assert capsys.readouterr().err == \
        "cmcheck: error: noinit.txt:1:1: automaton has no init state\n"
    (tmp_path / "noedges.txt").write_text("state q0 init;\n")
    assert cli.main(["p.imp", "--config", "explicit", "--input-automaton", "noedges.txt"]) == 3
    assert capsys.readouterr().err == \
        "cmcheck: error: noedges.txt:1:1: automaton has no '# edges:' header\n"
    (tmp_path / "twoinit.txt").write_text("# edges: 3\nstate q0 init;\nstate q1 init;\n")
    assert cli.main(["p.imp", "--config", "explicit", "--input-automaton", "twoinit.txt"]) == 3
    assert capsys.readouterr().err == \
        "cmcheck: error: twoinit.txt:3:1: second init state q1 (the first is q0)\n"


def test_cli_constants_beyond_64_bits(tmp_path, capsys):
    # The witness search runs on constants >= 2^63; they must stay exact
    # integers, not overflow a machine word.  x = 3 reaches the error.
    f = tmp_path / "big.imp"
    f.write_text("int x, y; havoc x; y := x + 9223372036854775808;"
                 " assert(y != 9223372036854775811);")
    assert cli.main([str(f), "--config", "predicate",
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert "internal error" not in capsys.readouterr().err
    assert (tmp_path / "out" / "witness.txt").exists()


def test_cli_pipeline_keeps_overflow_labels_unverified(tmp_path, capsys):
    # The predicate stage verifies the assertion only under y's machine
    # bounds; the explicit stage must not prune there, and x = 2^31 fails.
    f = tmp_path / "ov.imp"
    f.write_text("int x, y; havoc x; y := x; assert(y <= 2147483647);")
    pipe = tmp_path / "pipe.json"
    pipe.write_text(json.dumps({"stages": [
        {"name": "predicate", "domain": "predicate", "overflow": True},
        {"name": "explicit", "domain": "explicit"}]}))
    assert cli.main([str(f), "--pipeline", str(pipe)]) == 1


# A path that merges into, or is covered by, a node explored under the
# overflow bounds must not reach T in the automaton: b is havocked there.
MERGED_UNDER_BOUNDS = {
    "covered": "vars: b;\ninit: L0;\nerror: L5;\n"
               "L0 -> L2: b := 0;\nL0 -> L2: havoc b;\nL2 -> L5: assume b <= -4;\n",
    "merged": "vars: b;\ninit: L0;\nerror: L9;\n"
              "L0 -> L1: havoc b;\nL1 -> L3: assume true;\nL0 -> L2: assume true;\n"
              "L2 -> L3: b := 1;\nL3 -> L9: assume b >= 5;\n",
}


@pytest.mark.parametrize("order", ["dfs", "bfs"])
@pytest.mark.parametrize("name", sorted(MERGED_UNDER_BOUNDS))
def test_pipeline_keeps_paths_into_bounded_nodes_unverified(name, order):
    cfa = lang.parse_cfa(MERGED_UNDER_BOUNDS[name])
    final = driver.run_pipeline(cfa, Pipeline(stages=[
        AnalysisConfig(name="predicate-overflow3", domain="predicate", order=order,
                       overflow=True, overflow_min=-3, overflow_max=3),
        AnalysisConfig(name="explicit", domain="explicit", order=order)]))
    assert [s.verdict for s in final.stages] == ["CONDITION", "FALSE"]
    assert replay_witness(cfa, final.last_report.witness)


def test_cli_pipeline_and_automaton_flow(tmp_path, programs_dir):
    prog = programs_dir / "nonlinear_square.imp"
    out1 = tmp_path / "first"
    code = cli.main([str(prog), "--config", "predicate", "--out-dir", str(out1)])
    assert code == 2
    out2 = tmp_path / "second"
    code = cli.main([str(prog), "--config", "explicit",
                     "--input-automaton", str(out1 / "automaton.txt"),
                     "--out-dir", str(out2)])
    assert code == 0
    assert (out2 / "verdict.txt").read_text() == "TRUE\n"


def test_cli_cfa_input(tmp_path):
    f = tmp_path / "p.cfa"
    f.write_text("vars: x;\ninit: L0;\nerror: L2;\n"
                 "L0 -> L1: x := 1;\nL1 -> L2: assume x <= 0;\n")
    assert cli.main([str(f), "--config", "explicit"]) == 0


def test_busy_edge_limit_counts_posts_for_the_whole_run(tmp_path, programs_dir):
    # Busy-edge counts span the run.  The square's path is refined once
    # and re-explored from its pivot, so the 3-post budget is not spent
    # again below the root, and psi is plain predicate's condition, not
    # the whole assertion location.
    assert cli.main([str(programs_dir / "nonlinear_square.imp"), "--condition", "busy-edge=3",
                     "--out-dir", str(tmp_path)]) == 2
    assert (tmp_path / "psi.txt").read_text() == "# psi\n(pc = 3) -> ((r - x >= 0))\n"


def test_cli_entry_point_subprocess(tmp_path, programs_dir):
    # The child gets no import path from pytest: put the package's src/ first.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cmcheck.cli", str(programs_dir / "counting_loop.imp"),
         "--config", "predicate"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert proc.stdout.startswith("TRUE")


def test_condition_passing_pipelines_sound_on_random_programs():
    # The final verdict of a condition-passing pipeline makes a combined
    # claim; check it against bounded ground truth on random programs.
    import random

    from cmcheck import oracle
    from helpers import random_cfa

    rng = random.Random(31337)
    true_count = false_count = 0
    for _ in range(30):
        cfa = random_cfa(rng, n_vars=2, require_assert=True)
        final = driver.run_pipeline(cfa, Pipeline(stages=[
            AnalysisConfig(name="explicit", domain="explicit", repeat_loc=2, fuel=400),
            AnalysisConfig(name="predicate", domain="predicate", fuel=1500,
                           max_refinements=20),
        ]))
        if final.verdict == "TRUE":
            ground = oracle.enumerate_reachable(cfa, havoc_range=(0, 4),
                                                max_states=8000)
            assert not ground.error_hit
            true_count += 1
        elif final.verdict == "FALSE":
            report = final.last_report
            assert replay_witness(cfa, report.witness)
            false_count += 1
    assert true_count + false_count >= 10  # the pipeline usually concludes


def _agreement_stage(name: str, domain: str, fuel: int = 3000, **fields) -> AnalysisConfig:
    return AnalysisConfig(name=name, domain=domain, fuel=fuel, max_refinements=25, **fields)


AGREEMENT_PIPELINES = [
    [_agreement_stage("predicate-norefine", "predicate", refinement=False),
     _agreement_stage("explicit", "explicit")],
    [_agreement_stage("explicit-fuel40", "explicit", fuel=40),
     _agreement_stage("predicate", "predicate")],
    [_agreement_stage("location", "location"), _agreement_stage("explicit", "explicit")],
    [_agreement_stage("explicit-repeat1", "explicit", repeat_loc=1),
     _agreement_stage("predicate", "predicate")],
    [_agreement_stage("predicate-overflow", "predicate", overflow=True,
                      overflow_min=-3, overflow_max=3),
     _agreement_stage("explicit", "explicit")],
]


def test_no_two_analyses_disagree():
    # A FALSE carries a replayed witness, so a program that one analysis
    # calls TRUE and another FALSE proves an unsound TRUE, whatever the
    # havoc range.  Every shipped configuration and five
    # condition-passing pipelines run on each program; all definite
    # verdicts must agree, which also makes each pipeline's agree with
    # any single configuration that decides the program.  The gate for
    # changes to merge, stop, refinement and the observer.
    import random

    from helpers import random_cfa, serialize_cfa

    configs = [dataclasses.replace(c, fuel=3000, max_refinements=25)
               for c in driver.shipped_configurations().values()]
    cfas = []
    for seed in range(1, 6):  # criterion 1 draws from seed 20110901
        rng = random.Random(seed)
        cfas += [random_cfa(rng, n_vars=rng.randint(1, 4), allow_mult=(i % 5 == 0),
                            require_assert=(i % 2 == 0)) for i in range(90)]
    tally = Counter()
    for cfa in cfas:
        verdicts = {}
        for config in configs:
            report = driver.run_analysis(cfa, config)
            verdicts[config.name] = report.verdict
            assert report.verdict != "TRUE" or report.psi == F.TRUE, config.name
        for stages in AGREEMENT_PIPELINES:
            final = driver.run_pipeline(cfa, Pipeline(stages=stages))
            verdicts[" -> ".join(s.name for s in stages)] = final.verdict
            assert final.verdict != "TRUE" or final.last_report.psi == F.TRUE
        definite = set(verdicts.values()) - {"CONDITION"}
        assert len(definite) <= 1, (serialize_cfa(cfa), verdicts)
        tally.update(verdicts.values())
    # the sweep exercises both definite verdicts and open conditions
    assert min(tally[v] for v in ("TRUE", "FALSE", "CONDITION")) > 100, tally


def test_minterm_bound_excludes_no_branch_of_br_3():
    # br_3's equality predicates on c once made the minterm search give
    # up before it searched (the product of their clause counts passed
    # the bound), and psi excluded the whole c != 0 branch as !(pc = 7).
    # Counting the prefixes the search visits, psi names the three
    # squares alone, and the explicit stage decides them.
    cfa = lang.parse_program(br_program(3))
    report = driver.run_analysis(cfa, AnalysisConfig(name="predicate", domain="predicate"))
    assert report.verdict == "CONDITION"
    assert A.serialize_condition(report.psi) == (
        "# psi\n"
        "(pc = 5) -> ((r_0 - x_0 >= 0) | !(c = 0))\n"
        "(pc = 19) -> ((c = 0) | (c = 1) | (r_1 - x_1 >= 0) | !(c = 2))\n"
        "(pc = 33) -> ((c = 0) | (c = 1) | (c = 2) | (c = 3) | (r_2 - x_2 >= 0) | !(c = 4))\n")
    final = driver.run_pipeline(cfa, Pipeline(stages=[
        AnalysisConfig(name="predicate", domain="predicate"),
        AnalysisConfig(name="explicit", domain="explicit", fuel=10_000)]))
    assert [s.verdict for s in final.stages] == ["CONDITION", "TRUE"]


def test_explicit_repeat1_then_predicate_decides_criterion_1_program_28():
    # In its second stage the proposal puts 8 atoms, 6 of them
    # equalities, at one location, which the minterm search's bound once
    # refused up front; predicate alone decides the program.
    import random

    from helpers import random_cfa

    rng = random.Random(20110901)  # the criterion-1 corpus
    cfas = [random_cfa(rng, n_vars=rng.randint(1, 4), allow_mult=(i % 5 == 0),
                       require_assert=(i % 2 == 0)) for i in range(29)]
    predicate = AnalysisConfig(name="predicate", domain="predicate")
    assert driver.run_analysis(cfas[28], predicate).verdict == "TRUE"
    final = driver.run_pipeline(cfas[28], Pipeline(stages=[
        AnalysisConfig(name="explicit-repeat1", domain="explicit", repeat_loc=1),
        predicate]))
    assert [s.verdict for s in final.stages] == ["CONDITION", "TRUE"]


def test_cli_pipeline_file(tmp_path, programs_dir, capsys):
    code = cli.main([str(programs_dir / "nonlinear_square.imp"),
                     "--pipeline", str(programs_dir / "two_stage.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("TRUE")
    assert "stage predicate: CONDITION" in out
    assert "stage explicit: TRUE" in out


def test_cli_stale_automaton_diagnostic(tmp_path, programs_dir, capsys):
    prog = programs_dir / "nonlinear_square.imp"
    out = tmp_path / "out"
    assert cli.main([str(prog), "--config", "predicate",
                     "--out-dir", str(out)]) == 2
    other = tmp_path / "other.imp"
    other.write_text("int x; x := 0;")
    code = cli.main([str(other), "--config", "explicit",
                     "--input-automaton", str(out / "automaton.txt")])
    assert code == 3
    err = capsys.readouterr().err
    assert "automaton.txt" in err and "other.imp" in err


def test_pipeline_explicit_budget_then_predicate(nonlinear_square_cfa):
    # Cheap bounded bug hunt first, stronger analysis on the residual after.
    final = driver.run_pipeline(nonlinear_square_cfa, Pipeline(stages=[
        AnalysisConfig(name="explicit", domain="explicit", fuel=10_000),
        AnalysisConfig(name="predicate", domain="predicate"),
    ]))
    assert [s.verdict for s in final.stages] == ["CONDITION", "TRUE"]
    assert final.verdict == "TRUE" and final.solved
