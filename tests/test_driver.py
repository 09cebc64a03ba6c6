"""Driver, pipeline, report emission, and CLI tests."""

import json
import subprocess
import sys

import pytest

from cmcheck import cli, driver, formula as F, lang
from cmcheck.driver import AnalysisConfig, Pipeline

from helpers import replay_witness


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


def test_refinement_requires_predicate_domain():
    cfg = AnalysisConfig(name="x", domain="explicit", refinement=True)
    with pytest.raises(ValueError, match="refinement requires"):
        cfg.validate()


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
    written = driver.emit_report(final, tmp_path, formats=("text", "json"))
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


def test_cli_usage_error(tmp_path, capsys):
    f = tmp_path / "broken.imp"
    f.write_text("int x; x := ;")
    assert cli.main([str(f)]) == 3
    assert "error" in capsys.readouterr().err
    assert cli.main([str(tmp_path / "missing.imp")]) == 3
    f2 = tmp_path / "ok.imp"
    f2.write_text("int x; x := 0;")
    assert cli.main([str(f2), "--config", "nope"]) == 3


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


def test_cli_entry_point_subprocess(tmp_path, programs_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "cmcheck.cli", str(programs_dir / "counting_loop.imp"),
         "--config", "predicate"],
        capture_output=True, text=True)
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
