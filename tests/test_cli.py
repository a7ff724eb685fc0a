import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CORPUS, unreadable_entries

import ctrskit as ck
from ctrskit import checker, cli
from ctrskit.cli import EXIT_INPUT, EXIT_INTERNAL, cli_main
from ctrskit.ctrs import Search
from ctrskit.terms import App


def corpus(name: str) -> str:
    return str(CORPUS / f"{name}.ctrs")


def test_validate_ok(capsys):
    assert cli_main(["validate", corpus("bubble_sort")]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_violations(tmp_path, capsys):
    bad = tmp_path / "bad.ctrs"
    bad.write_text("(CONDITIONTYPE ORIENTED)\n(VAR x y)\n(RULES f(x) -> y)\n")
    assert cli_main(["validate", str(bad)]) == 1
    assert "unbound" in capsys.readouterr().err


# Rules without conditions are checked by the same validation whether or not
# the file declares its condition type.
UNCONDITIONAL_VIOLATIONS = {
    "unbound-rhs-var": (
        "(VAR x y)(RULES f(x) -> y)",
        "[unbound-rhs-var] r1: right-hand side uses unbound variables ['y']\n",
    ),
    "variable-lhs": ("(VAR x)(RULES x -> f(x))", "[variable-lhs] r1: left-hand side is a variable\n"),
}


@pytest.mark.parametrize("header", ["", "(CONDITIONTYPE ORIENTED)"], ids=["bare", "oriented"])
@pytest.mark.parametrize("case", sorted(UNCONDITIONAL_VIOLATIONS))
def test_an_unconditional_file_is_validated_like_a_conditional_one(tmp_path, capsys, case, header):
    text, violations = UNCONDITIONAL_VIOLATIONS[case]
    (tmp_path / "bad.ctrs").write_text(header + text)
    assert cli_main(["validate", str(tmp_path / "bad.ctrs")]) == 1
    assert capsys.readouterr().err == violations
    assert cli_main(["experiment", str(tmp_path), "--json", str(tmp_path / "out.json")]) == 0
    (row,) = json.loads((tmp_path / "out.json").read_text())["rows"]
    assert (row["status"], row["error"]) == ("invalid", violations.rstrip("\n"))


# Every command reads a TRS file's rules through the same validation, so a
# bad rule is reported by its code and rule id, not at a made-up position.
TRS_RULE_ERRORS = {
    "unbound-rhs-var": (
        "(VAR x y)(SIG (a 0))(RULES\n  g(x) -> x\n  f(x) -> y\n)",
        "[unbound-rhs-var] r2: right-hand side uses unbound variables ['y']",
    ),
    "variable-lhs": (
        "(VAR x)(SIG (a 0))(RULES\n  g(x) -> x\n  x -> a\n)",
        "[variable-lhs] r2: left-hand side is a variable",
    ),
}


@pytest.mark.parametrize(
    "command", [["rewrite", "-t", "g(a)"], ["simulate", "-s", "g(a)"]], ids=["rewrite", "simulate"]
)
@pytest.mark.parametrize("case", sorted(TRS_RULE_ERRORS))
def test_a_bad_trs_rule_is_named_by_its_violation(tmp_path, capsys, case, command):
    text, violation = TRS_RULE_ERRORS[case]
    path = tmp_path / "bad.trs"
    path.write_text(text)
    assert cli_main([command[0], str(path), *command[1:]]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {violation}\n")


def test_a_bad_rule_in_a_strategy_file_is_a_violation(tmp_path, capsys):
    (tmp_path / "bad.ctrs").write_text("(VAR x y)(RULES f(x) -> y)(STRATEGY CONTEXTSENSITIVE (f 1))")
    violation = "[unbound-rhs-var] r1: right-hand side uses unbound variables ['y']"
    assert cli_main(["validate", str(tmp_path / "bad.ctrs")]) == 1
    assert capsys.readouterr() == ("", violation + "\n")
    assert cli_main(["experiment", str(tmp_path), "--json", str(tmp_path / "out.json")]) == 0
    (row,) = json.loads((tmp_path / "out.json").read_text())["rows"]
    assert (row["status"], row["error"]) == ("invalid", violation)


def test_validate_names_the_condition_of_a_determinism_violation(tmp_path, capsys):
    bad = tmp_path / "bad.ctrs"
    bad.write_text("(CONDITIONTYPE ORIENTED)(VAR x y z)(SIG (a 0))(RULES f(x) -> y | g(z) == y)")
    assert cli_main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "[determinism] r1, condition 1: condition source uses variables ['z'] not bound "
        "by the left-hand side or earlier condition targets\n"
    )


def test_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.ctrs"
    bad.write_text("(RULES f(x -> y)\n")
    assert cli_main(["validate", str(bad)]) == 3


# A conditional system may not use the names the unraveling gives its fresh
# symbols: the unraveled file would declare one name for two symbols.
RESERVED_NAME_CASES = {
    "rule": (
        "(VAR x)\n(RULES\n  f(x) -> U1_r1(x,x) | x == a\n  g(x) -> U1_r1(x,x)\n)\n",
        "[unraveling-symbol] r1: symbol U1_r1 is reserved for unraveled systems\n"
        "[unraveling-symbol] r2: symbol U1_r1 is reserved for unraveled systems\n",
    ),
    "sig": (
        "(VAR x)\n(SIG (U1_r1 2))\n(RULES f(x) -> x | x == a)\n",
        "[unraveling-symbol] SIG: symbol U1_r1 is reserved for unraveled systems\n",
    ),
}


@pytest.mark.parametrize("case", sorted(RESERVED_NAME_CASES))
def test_reserved_unraveling_names_are_rejected(tmp_path, capsys, case):
    text, violations = RESERVED_NAME_CASES[case]
    path = tmp_path / "reserved.ctrs"
    path.write_text(text)
    assert cli_main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == violations
    assert cli_main(["unravel", str(path)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err == "error: " + violations.rstrip("\n").replace("\n", "; ") + "\n"


def test_unsupported_condition_type_with_a_strategy(tmp_path, capsys):
    path = tmp_path / "join.trs"
    path.write_text("(CONDITIONTYPE JOIN)(RULES a -> b)(STRATEGY CONTEXTSENSITIVE (a))")
    assert cli_main(["rewrite", str(path), "-t", "a", "--successors"]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: 1:16: unsupported condition type JOIN: only ORIENTED "
        "(reachability) conditions are handled\n"
    )


# The replacement map of a STRATEGY section is for unconditional rules; a
# conditional rule read under one would lose its conditions.
CONDITIONAL_WITH_STRATEGY = (
    "(VAR x)(SIG (a 0))(RULES f(x) -> x | x == b)(STRATEGY CONTEXTSENSITIVE (f 1))"
)


@pytest.mark.parametrize(
    "command",
    [
        ["validate"],
        ["unravel"],
        ["rewrite", "-t", "f(a)", "--successors"],
        ["rewrite", "-t", "f(a)", "--mu"],
        ["simulate", "-s", "f(a)"],
        ["prove"],
        ["check-witness"],
    ],
    ids=["validate", "unravel", "rewrite", "rewrite-mu", "simulate", "prove", "check-witness"],
)
def test_conditional_rules_with_a_strategy_are_rejected(tmp_path, capsys, command):
    path = tmp_path / "strategy.trs"
    path.write_text(CONDITIONAL_WITH_STRATEGY)
    assert cli_main([command[0], str(path), *command[1:]]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 1:46: conditional rules cannot take a STRATEGY section\n"


@pytest.mark.parametrize(
    "command", [["validate"], ["rewrite", "-t", "f(a)", "--successors"]], ids=["validate", "rewrite"]
)
def test_a_second_strategy_section_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "twice.trs"
    path.write_text(
        "(VAR x)(SIG (a 0))(RULES f(x) -> x)\n"
        "(STRATEGY CONTEXTSENSITIVE (f))\n(STRATEGY CONTEXTSENSITIVE (f 1))"
    )
    assert cli_main([command[0], str(path), *command[1:]]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 3:2: duplicate STRATEGY section\n"


def test_complete_condition_searches_leave_the_witness_check_complete(tmp_path, capsys):
    # The condition c == c holds at level 1, and c is a normal form: the
    # level-0 closure {c} is complete, so nothing here is cut by a bound.
    path = tmp_path / "normal_condition.ctrs"
    path.write_text("(CONDITIONTYPE ORIENTED)(RULES a -> b | c == c)")
    code = cli_main(["check-witness", str(path), "--seeds-size", "1", "--max-level", "1"])
    out, err = capsys.readouterr()
    assert code == 0
    assert "incomplete" not in out + err


def test_missing_file():
    assert cli_main(["validate", "/nonexistent/zzz.ctrs"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{loop}"],
        ["prove", "{loop}"],
        ["unravel", "{loop}"],
        ["check-witness", "{loop}"],
        ["rewrite", "{loop}", "-t", "0"],
        ["prove", "{dir}/" + "a" * 300 + ".ctrs"],
        ["prove", corpus("less"), "--json", "{loop}/out.json"],
    ],
    ids=["validate", "prove", "unravel", "check-witness", "rewrite", "long-name", "json-into-loop"],
)
def test_an_unreadable_path_is_an_input_error(tmp_path, capsys, argv):
    # A symlink to itself cannot be resolved, and a 300-character name is
    # longer than file systems allow: each is the user's input, not a bug.
    (tmp_path / "loop").symlink_to(tmp_path / "loop")
    argv = [arg.format(loop=tmp_path / "loop", dir=tmp_path) for arg in argv]
    assert cli_main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_usage_error():
    assert cli_main(["frobnicate"]) == 3
    assert cli_main(["prove", corpus("less"), "--precedence-cap", "5"]) == 3


def test_unravel_roundtrip(tmp_path, capsys):
    out = tmp_path / "out.trs"
    assert cli_main(["unravel", corpus("bubble_sort"), "--cs", "-o", str(out)]) == 0
    problem = ck.parse_problem(out.read_text())
    assert problem.kind == "csrs"
    assert len(problem.system.rules) == 5
    assert "(U1_r4 1)" in out.read_text()
    assert "(: 1 2)" in out.read_text()


def test_rewrite_successors(capsys):
    code = cli_main(
        ["rewrite", corpus("bubble_sort"), "-t", ":(0,:(s(0),nil))", "--successors"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert ":(s(0),:(0,nil))" in out


# Terms to rewrite may hold variables, at the root or as arguments.
OPEN_TERM_STEP = ":(0,:(s(x),ys)) -> :(s(x),:(0,ys)) [r4 @ e]"


def test_rewrite_and_simulate_open_terms(capsys):
    bubble = corpus("bubble_sort")
    assert cli_main(["rewrite", bubble, "-t", ":(0,:(s(x),ys))", "--successors"]) == 0
    assert capsys.readouterr().out == OPEN_TERM_STEP + "\n"
    assert cli_main(["simulate", bubble, "-s", ":(0,:(s(x),ys))"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"step: {OPEN_TERM_STEP}",
        "  simulation (3 mu-steps): :(0,:(s(x),ys)) -> U1_r4(<(0,s(x)),0,s(x),ys) "
        "-> U1_r4(true,0,s(x),ys) -> :(s(x),:(0,ys))",
    ]
    assert cli_main(["rewrite", bubble, "-t", "x", "--successors"]) == 0
    assert capsys.readouterr().out == "no successors (normal form)\n"


def test_rewrite_trace_mu(capsys):
    code = cli_main(["rewrite", corpus("bubble_sort"), "-t", ":(0,:(s(0),nil))", "--mu"])
    assert code == 0
    out = capsys.readouterr().out
    assert "U1_r4" in out
    assert out.strip().endswith("U1_r4(false,s(0),0,nil)")


def test_rewrite_normal_form_message(capsys):
    assert cli_main(["rewrite", corpus("bubble_sort"), "-t", "true", "--successors"]) == 0
    assert "normal form" in capsys.readouterr().out


# A step search cut short by a bound is not a normal form: both modes say
# so and exit 2, as simulate does.
@pytest.mark.parametrize(
    "mode, expected",
    [
        (["--successors"], "no successors found within bounds\n"),
        ([], "  :(0,:(s(0),nil))\nnote: the step search hit its bounds at the last term\n"),
    ],
    ids=["successors", "trace"],
)
def test_rewrite_with_a_cut_step_search_exits_2(capsys, mode, expected):
    argv = ["rewrite", corpus("bubble_sort"), "-t", ":(0,:(s(0),nil))", "--max-steps", "1"]
    assert cli_main(argv + mode) == 2
    assert capsys.readouterr().out == expected


def test_rewrite_successors_found_by_a_cut_search_exit_2(tmp_path, capsys):
    # h(c) never reaches c, so the second rule's condition search is always
    # cut, while the first rule still gives a successor.
    path = tmp_path / "cut.ctrs"
    path.write_text(
        "(CONDITIONTYPE ORIENTED)\n(VAR x)\n"
        "(RULES\n  f(x) -> x\n  f(x) -> g(x) | h(x) == c\n  h(x) -> h(s(x))\n)\n"
    )
    assert cli_main(["rewrite", str(path), "-t", "f(c)", "--successors"]) == 2
    assert capsys.readouterr().out == (
        "f(c) -> c [r1 @ e]\nnote: the step search hit its bounds; more successors may exist\n"
    )
    assert cli_main(["rewrite", str(path), "-t", "f(c)"]) == 0
    assert capsys.readouterr().out == "  f(c) ->\n  c\n"


def test_rewrite_graph_exports(tmp_path):
    dot = tmp_path / "g.dot"
    gjson = tmp_path / "g.json"
    code = cli_main(
        [
            "rewrite",
            corpus("bubble_sort"),
            "-t",
            ":(0,:(s(0),nil))",
            "--mu",
            "--dot",
            str(dot),
            "--graph-json",
            str(gjson),
        ]
    )
    assert code == 0
    assert dot.read_text().startswith("digraph")
    doc = json.loads(gjson.read_text())
    assert doc["format_version"] == 1
    assert len(doc["nodes"]) == 6
    assert len(doc["edges"]) == 5
    assert doc["verdict"]["outcome"] == "terminates"


def test_rewrite_graph_export_cut_by_fuel(tmp_path):
    gjson = tmp_path / "g.json"
    argv = ["rewrite", corpus("fib_pairs"), "-t", "fib(s(s(s(s(s(0))))))", "--max-steps", "5"]
    assert cli_main(argv + ["--graph-json", str(gjson)]) == 2
    doc = json.loads(gjson.read_text())
    assert doc["complete"] is False
    assert doc["verdict"] == {
        "outcome": "unknown",
        "fuel": {"max_level": 8, "max_steps": 5, "max_term_size": 200},
    }


def test_rewrite_bad_term(capsys):
    assert cli_main(["rewrite", corpus("bubble_sort"), "-t", "zzz(1,2)"]) == 3


def test_simulate(capsys):
    code = cli_main(["simulate", corpus("bubble_sort"), "-s", ":(0,:(s(0),nil))"])
    assert code == 0
    out = capsys.readouterr().out
    assert "simulation (3 mu-steps)" in out


def test_simulate_normal_form(capsys):
    assert cli_main(["simulate", corpus("bubble_sort"), "-s", "true"]) == 0
    assert "no conditional steps" in capsys.readouterr().out


def test_simulate_on_an_unraveled_file_is_an_input_error(tmp_path, capsys):
    unraveled = tmp_path / "bubble.trs"
    assert cli_main(["unravel", corpus("bubble_sort"), "-o", str(unraveled)]) == 0
    capsys.readouterr()
    assert cli_main(["simulate", str(unraveled), "-s", "true"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [unraveling-symbol] r4: symbol U1_r4 is reserved")
    assert captured.out == ""


def _saturated_without_a_path(engine, start, fuel, goal=None):
    return Search({start: None}, {start: []}, None, False)


def test_simulate_alarm_exits_1(monkeypatch, capsys):
    # A simulation search that saturates without a reduction contradicts
    # simulation completeness: an alarm on stderr, never a bounded answer.
    monkeypatch.setattr(checker, "mu_search", _saturated_without_a_path)
    assert cli_main(["simulate", corpus("bubble_sort"), "-s", ":(0,:(s(0),nil))"]) == 1
    out, err = capsys.readouterr()
    step = ":(0,:(s(0),nil)) -> :(s(0),:(0,nil)) [r4 @ e]"
    assert out == f"step: {step}\n"
    assert err == f"  ALARM: no simulating reduction for {step} despite a saturated search\n"


def test_simulate_cut_search_exits_2(tmp_path, capsys):
    # The step needs no condition search, while its simulation needs two
    # expansions: one is too few to find it, and too few to rule it out.
    path = tmp_path / "sim.ctrs"
    path.write_text(
        "(CONDITIONTYPE ORIENTED)\n(VAR x y)\n(SIG (a 0))\n(RULES\n  f(x) -> g(y) | x == y\n)\n"
    )
    assert cli_main(["simulate", str(path), "-s", "f(a)", "--max-steps", "1"]) == 2
    assert capsys.readouterr().out == (
        "step: f(a) -> g(a) [r1 @ e]\n  simulation not found within bounds\n"
    )


def test_check_witness_alarm_fails_obligation_3(monkeypatch, capsys):
    monkeypatch.setattr(checker, "mu_search", _saturated_without_a_path)
    assert cli_main(["check-witness", corpus("bubble_sort"), "--seeds-size", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    ob3 = lines.index(next(line for line in lines if line.startswith("(3) ")))
    assert lines[ob3].startswith("(3) contains every rewrite step: FAIL [")
    assert lines[ob3 + 1].startswith("    no simulating reduction for ")
    assert lines[ob3 + 1].endswith(" despite a saturated search")


@pytest.mark.parametrize(
    "name,expected_code,expected_verdict",
    [("less", 0, "YES"), ("self_loop", 1, "NO"), ("bubble_sort", 2, "MAYBE")],
)
def test_prove_exit_codes_agree_with_json(tmp_path, capsys, name, expected_code, expected_verdict):
    out = tmp_path / "outcome.json"
    code = cli_main(["prove", corpus(name), "--json", str(out)])
    assert code == expected_code
    doc = json.loads(out.read_text())
    assert doc["verdict"] == expected_verdict
    assert doc["format_version"] == 1
    printed = capsys.readouterr().out
    assert f"verdict: {expected_verdict}" in printed


def test_prove_json_carries_the_answer_of_each_method(tmp_path):
    # As experiment rows do, including the note of a refused search.
    path = tmp_path / "wide.ctrs"
    path.write_text("(VAR x)\n(SIG " + " ".join(f"(c{i} 0)" for i in range(10)) + ")\n(RULES f(x) -> x)\n")
    out = tmp_path / "outcome.json"
    for file, methods in [
        (corpus("self_loop"), {"unravel+lpo": "MAYBE", "loop-search": "NO"}),
        (str(path), {
            "lpo-note": "signature has 11 symbols (cap 10); delegate to an external prover",
            "unravel+lpo": "MAYBE",
            "loop-search": "MAYBE",
        }),
    ]:
        cli_main(["prove", file, "--seeds-size", "1", "--json", str(out)])
        assert json.loads(out.read_text())["methods"] == methods


def test_check_witness_pass(tmp_path, capsys):
    out = tmp_path / "witness.json"
    code = cli_main(
        ["check-witness", corpus("bubble_sort"), "--seeds-size", "5", "--json", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert [ob["passed"] for ob in doc["obligations"]] == [True] * 4


def test_check_witness_failure(capsys):
    assert cli_main(["check-witness", corpus("self_loop")]) == 1
    assert "FAIL" in capsys.readouterr().out


# Bounds that cut the witness check's searches leave it incomplete (exit 2):
# on these quasi-decreasing systems each used to report a FAIL (exit 1).
@pytest.mark.parametrize(
    "name, flags",
    [
        ("fib_pairs", ["--seeds-size", "2", "--max-steps", "1"]),
        ("last_cond", ["--seeds-size", "4", "--max-steps", "1"]),
        ("parity_cond", ["--seeds-size", "4", "--max-term-size", "5"]),
    ],
    ids=["graph-cut", "simulation-cut", "waypoint-cut"],
)
def test_check_witness_cut_by_a_bound_is_incomplete_not_failed(capsys, name, flags):
    assert cli_main(["check-witness", corpus(name), *flags]) == 2
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.endswith("note: some searches hit their bounds; the sample is incomplete\n")


def test_experiment_cli(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_main(
        ["experiment", str(CORPUS), "--json", str(out), "--seeds-size", "3"]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "summary:" in printed
    doc = json.loads(out.read_text())
    assert doc["summary"]["YES"] >= 1
    assert doc["summary"]["NO"] >= 1
    assert doc["summary"]["MAYBE"] >= 1
    assert len(doc["rows"]) == len(list(CORPUS.glob("*.ctrs")))


@pytest.mark.parametrize(
    "entry, message",
    [
        (
            {"command": "awk {print} {file}"},
            "field 'command' is not a valid template: KeyError('print')",
        ),
        (
            {"command": "tool 'x {file}"},
            "field 'command' is not a valid template: ValueError('No closing quotation')",
        ),
        ({"command": "cat {file}", "timeout": -1}, "field 'timeout' must be positive: -1"),
        (
            {"command": "cat {file}", "timeout": 1e7},
            "field 'timeout' must be at most 2147483.647 seconds: 10000000.0",
        ),
        (
            {"command": "cat {file}", "timeout": float("inf")},
            "field 'timeout' must be at most 2147483.647 seconds: inf",
        ),
    ],
    ids=[
        "unknown-placeholder", "unclosed-quote", "negative-timeout",
        "overlong-timeout", "infinite-timeout",
    ],
)
def test_experiment_with_a_bad_tool_entry_runs_no_row(tmp_path, capsys, entry, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"external_tools": [{"name": "x", **entry}]}))
    assert cli_main(["experiment", str(CORPUS), "--config", str(config)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: config external_tools[0]: {message}\n"


def test_experiment_with_a_non_ascii_arity(tmp_path, capsys):
    (tmp_path / "superscript.ctrs").write_text("(SIG (f ²))\n(RULES a -> b)\n")
    assert cli_main(["experiment", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "superscript  -        -       -       parse-error" in out
    assert "summary: YES=0 NO=0 MAYBE=0 error=1" in out


def test_experiment_empty_dir(tmp_path, capsys):
    code = cli_main(["experiment", str(tmp_path)])
    assert code == 0
    assert "YES=0 NO=0 MAYBE=0" in capsys.readouterr().out


def test_experiment_with_unreadable_entries(tmp_path, capsys):
    unreadable_entries(tmp_path)
    assert cli_main(["experiment", str(tmp_path), "--seeds-size", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[1:4]] == [
        ["bad", "-", "-", "-", "unreadable"],
        ["less", "YES", "YES", "MAYBE", "ok"],
        ["sub", "-", "-", "-", "unreadable"],
    ]
    assert lines[4] == "summary: YES=1 NO=0 MAYBE=0 error=2"


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_experiment_path_that_is_not_a_directory(tmp_path, capsys, kind):
    path = tmp_path / "corpus"
    if kind == "file":
        path.write_text("(RULES a -> b)\n")
    assert cli_main(["experiment", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "summary:" not in captured.out
    assert captured.err == f"error: not a directory: {path}\n"


@pytest.mark.parametrize("command", ["prove", "check-witness", "experiment"])
def test_seeds_size_must_be_positive(tmp_path, capsys, command):
    target = str(CORPUS) if command == "experiment" else corpus("less")
    out = tmp_path / "out.json"
    code = cli_main([command, target, "--seeds-size", "0", "--json", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "argument --seeds-size: must be a positive integer, got 0" in err
    assert "max_size" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-2", "2"])
def test_experiment_workers_must_be_positive(tmp_path, capsys, value):
    # The files are processed one after another: there is no --workers flag,
    # so any value is an input error.
    out = tmp_path / "report.json"
    code = cli_main(["experiment", str(CORPUS), "--workers", value, "--json", str(out)])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"unrecognized arguments: --workers {value}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["prove", corpus("less"), "--max-level", "0"],
        ["prove", corpus("less"), "--max-steps", "0"],
        ["prove", corpus("less"), "--max-term-size", "0"],
        ["rewrite", corpus("less"), "-t", "<(0,s(0))", "--max-steps", "0"],
    ],
    ids=["prove-max-level", "prove-max-steps", "prove-max-term-size", "rewrite-max-steps"],
)
def test_fuel_flags_must_be_positive(capsys, argv):
    # Used to reach Fuel's own check, whose message names no flag.
    assert cli_main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"argument {argv[-2]}: must be a positive integer, got 0" in captured.err
    assert "fuel bounds" not in captured.err
    assert captured.out == ""


def test_a_fuel_flag_that_is_not_a_number_is_named(capsys):
    assert cli_main(["prove", corpus("less"), "--max-steps", "abc"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "argument --max-steps: invalid int value: 'abc'" in captured.err
    assert captured.out == ""


def test_prove_alarm_is_an_internal_error(monkeypatch, capsys):
    # A fake loop on `less`, which a precedence orients: both methods answer.
    self_loop = ck.parse_ctrs((CORPUS / "self_loop.ctrs").read_text(), "self_loop")
    fake_loop = ck.mu_terminating_on_seeds(
        ck.enumerate_original_terms(self_loop.signature, 1), ck.unravel_cs(self_loop)
    )
    real = checker.mu_terminating_on_seeds

    def loops_on_less(seeds, cs, fuel=ck.DEFAULT_FUEL):
        if any(s.name == "<" for s in cs.signature):
            return fake_loop
        return real(seeds, cs, fuel)

    monkeypatch.setattr(checker, "mu_terminating_on_seeds", loops_on_less)
    assert cli_main(["prove", corpus("less")]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert "verdict" not in captured.out
    assert captured.err.startswith("ALARM: methods disagree")


def test_crash_on_deep_term_is_an_internal_error(monkeypatch, capsys):
    # The parser and both engines walk terms on explicit stacks, so a deep
    # term rewrites.  A failure inside the engine is still an internal
    # error, reported on one line.
    real = cli.parse_term

    def deep_term(text, problem):
        term, succ = real("0", problem), real("s(0)", problem).sym
        for _ in range(5000):
            term = App(succ, (term,))
        return App(real("<(0,0)", problem).sym, (term, real("0", problem)))

    monkeypatch.setattr(cli, "parse_term", deep_term)
    assert cli_main(["rewrite", corpus("bubble_sort"), "-t", "0"]) == 0
    assert capsys.readouterr().out == "  <(" + "s(" * 5000 + "0" + ")" * 5000 + ",0) ->\n  false\n"

    def overflow(self, s, budget):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(ck.ConditionalEngine, "_successors", overflow)
    assert cli_main(["rewrite", corpus("bubble_sort"), "-t", "0"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error: RecursionError")
    assert len(err.splitlines()) == 1


# Unconditional swapping loops: the trace stops where a term repeats.
DEEP_TRS = "(VAR x y ys)\n(SIG (0 0) (s 1) (nil 0))\n(RULES\n  :(x,:(y,ys)) -> :(y,:(x,ys))\n)\n"


@pytest.mark.parametrize("mode", ["ctrs", "mu", "trs"])
def test_deep_term_rewrites(tmp_path, monkeypatch, capsys, mode):
    # A redex 5,000 levels down: stepping lifts each reduct through every
    # level, and the trace is the shallow one's, wrapped.
    path = corpus("bubble_sort")
    if mode == "trs":
        path = tmp_path / "swap.trs"
        path.write_text(DEEP_TRS)
    argv = ["rewrite", str(path), "-t", ":(0,:(s(0),nil))"] + (["--mu"] if mode == "mu" else [])
    assert cli_main(argv) == 0
    shallow = capsys.readouterr().out.splitlines()
    assert len(shallow) == {"ctrs": 2, "mu": 6, "trs": 3}[mode]
    real = cli.parse_term

    def deep_term(text, problem):
        term, succ = real(text, problem), real("s(0)", problem).sym
        for _ in range(5000):
            term = App(succ, (term,))
        return term

    monkeypatch.setattr(cli, "parse_term", deep_term)
    assert cli_main(argv) == 0
    wrap = lambda body: "s(" * 5000 + body + ")" * 5000
    expected = [
        "  " + (wrap(line[2:-3]) + " ->" if line.endswith(" ->") else wrap(line[2:]))
        for line in shallow
    ]
    assert capsys.readouterr().out.splitlines() == expected


# Every command on a rule and a term 20,000 levels deep, in a child whose
# recursion limit is far below that depth: no code on these paths may
# recurse once per level, the path orders behind prove's YES included.
DEEP_INPUTS_SCRIPT = """
import contextlib, io, json, sys
from ctrskit.cli import cli_main

levels, path = int(sys.argv[1]), sys.argv[2]
term = "f(" + "s(" * (levels - 2) + "0" + ")" * (levels - 1)
with open(path, "w") as f:
    f.write(
        "(CONDITIONTYPE ORIENTED)\\n(VAR x y)\\n(SIG (0 0))\\n(RULES\\n"
        f"  {term.replace('0', 'x', 1)} -> g(y) | h(x) == y\\n  h(x) -> x\\n)\\n"
    )
commands = [
    ["validate", path],
    ["unravel", path, "--cs"],
    ["check-witness", path, "--seeds-size", "3"],
    ["prove", path, "--seeds-size", "3"],
    ["rewrite", path, "-t", term],
    ["simulate", path, "-s", term],
]
sys.setrecursionlimit(120)
for argv in commands:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    print(json.dumps([argv[0], code, out.getvalue()[-300:], err.getvalue()]))
"""


def test_every_command_takes_terms_of_any_depth(tmp_path):
    child = subprocess.run(
        [sys.executable, "-c", DEEP_INPUTS_SCRIPT, "20000", str(tmp_path / "deep.ctrs")],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(ck.__file__).parent.parent)},
    )
    assert child.stderr == ""
    runs = [json.loads(line) for line in child.stdout.splitlines()]
    codes = {command: code for command, code, _, _ in runs}
    assert codes.pop("check-witness") in (0, 2)
    assert codes == {"validate": 0, "unravel": 0, "prove": 0, "rewrite": 0, "simulate": 0}
    assert all(err == "" for _, _, _, err in runs)
    tails = {command: out for command, _, out, _ in runs}
    assert tails["rewrite"].endswith(")) ->\n  g(0)\n")
    assert tails["simulate"].endswith(")) -> U1_r1(h(0),0) -> g(h(0))\n")
    assert "note: loop search over seeds" in tails["prove"]
    assert "cap" not in tails["prove"] and "exhaustive" not in tails["prove"]


@pytest.mark.parametrize("mu", [[], ["--mu"]], ids=["plain", "mu"])
def test_rewrite_trace_of_a_growing_term(tmp_path, capsys, mu):
    # Each step adds a level, so the trace ends 2,000 levels deep: stepping,
    # the seen-set and printing must all cope with that depth.  The last term
    # still has a step, so the trace says that --max-steps cut it (exit 2).
    path = tmp_path / "grow.trs"
    path.write_text("(VAR x)\n(SIG (0 0))\n(RULES\n  f(x) -> f(s(x))\n)\n")
    argv = ["rewrite", str(path), "-t", "f(0)", "--max-steps", "2000", "--max-term-size", "5000"]
    assert cli_main(argv + mu) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2002
    assert lines[0] == "  f(0) ->"
    assert lines[-2] == "  f(" + "s(" * 2000 + "0" + ")" * 2001
    assert lines[-1] == "note: the trace stopped after 2000 steps (--max-steps)"


TRACES = {
    3: ["  f(a) ->", "  f(b) ->", "  g(a) ->", "  g(b)", "note: the trace stopped after 3 steps (--max-steps)"],
    4: ["  f(a) ->", "  f(b) ->", "  g(a) ->", "  g(b) ->", "  c"],
}


@pytest.mark.parametrize("max_steps, code", [(3, 2), (4, 0)], ids=["cut", "normal-form"])
def test_a_trace_cut_by_max_steps_says_so(tmp_path, capsys, max_steps, code):
    # f(a) reaches the normal form c in four steps; a budget of three stops
    # the trace at a term that still has a step.
    path = tmp_path / "chain.trs"
    path.write_text("(SIG (a 0))(RULES f(a) -> f(b)  f(b) -> g(a)  g(a) -> g(b)  g(b) -> c)")
    assert cli_main(["rewrite", str(path), "-t", "f(a)", "--max-steps", str(max_steps)]) == code
    assert capsys.readouterr().out.splitlines() == TRACES[max_steps]
