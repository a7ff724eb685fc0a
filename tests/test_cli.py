import json
from pathlib import Path

import pytest

from conftest import CORPUS, unreadable_entries

import ctrskit as ck
from ctrskit import checker, cli
from ctrskit.cli import EXIT_INPUT, EXIT_INTERNAL, cli_main
from ctrskit.fmt import MAX_TERM_DEPTH
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


def test_rewrite_trace_mu(capsys):
    code = cli_main(["rewrite", corpus("bubble_sort"), "-t", ":(0,:(s(0),nil))", "--mu"])
    assert code == 0
    out = capsys.readouterr().out
    assert "U1_r4" in out
    assert out.strip().endswith("U1_r4(false,s(0),0,nil)")


def test_rewrite_normal_form_message(capsys):
    assert cli_main(["rewrite", corpus("bubble_sort"), "-t", "true", "--successors"]) == 0
    assert "normal form" in capsys.readouterr().out


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


@pytest.mark.parametrize("value", ["0", "-2"])
def test_experiment_workers_must_be_positive(tmp_path, capsys, value):
    # Used to run serially and exit 0, while the same value in a config
    # file is an input error.
    out = tmp_path / "report.json"
    code = cli_main(["experiment", str(CORPUS), "--workers", value, "--json", str(out)])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"argument --workers: must be a positive integer, got {value}" in captured.err
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
    # The parser rejects input deeper than MAX_TERM_DEPTH; a deeper term that
    # reaches the engine anyway rewrites, since the engines walk terms on
    # explicit stacks.  A failure inside the engine is still an internal
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
    # A redex 5,000 levels down, past the parser's cap: stepping lifts each
    # reduct through every level, and the trace is the shallow one's, wrapped.
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


def _nested(depth: int) -> str:
    """``<(s(...s(0)...),0)`` with ``depth`` nodes on its longest path."""
    return "<(" + "s(" * (depth - 2) + "0" + ")" * (depth - 2) + ",0)"


def test_deep_term_is_an_input_error(capsys):
    assert cli_main(["rewrite", corpus("bubble_sort"), "-t", _nested(3000)]) == EXIT_INPUT
    err = capsys.readouterr().err
    # The `(` after the s at depth 256 would open depth 257: column 2 + 2 * 255.
    assert err == f"error: 1:512: term nested deeper than {MAX_TERM_DEPTH} levels\n"


def test_deep_rule_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.ctrs"
    path.write_text(f"(VAR x)\n(RULES\n  g(x) -> x\n  f({_nested(3000)}) -> 0\n)\n")
    assert cli_main(["prove", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: 4:514: term nested deeper than {MAX_TERM_DEPTH} levels\n"


def test_term_at_the_depth_limit_rewrites(capsys):
    term = _nested(MAX_TERM_DEPTH)
    assert cli_main(["rewrite", corpus("bubble_sort"), "-t", term, "--mu"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("false")
    assert cli_main(["rewrite", corpus("bubble_sort"), "-t", term]) == 0
    assert capsys.readouterr().out.rstrip().endswith("false")


@pytest.mark.parametrize("mu", [[], ["--mu"]], ids=["plain", "mu"])
def test_rewrite_trace_of_a_growing_term(tmp_path, capsys, mu):
    # Each step adds a level, so the trace ends 2,000 levels deep: stepping,
    # the seen-set and printing must all cope with that depth.
    path = tmp_path / "grow.trs"
    path.write_text("(VAR x)\n(SIG (0 0))\n(RULES\n  f(x) -> f(s(x))\n)\n")
    argv = ["rewrite", str(path), "-t", "f(0)", "--max-steps", "2000", "--max-term-size", "5000"]
    assert cli_main(argv + mu) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2001
    assert lines[0] == "  f(0) ->"
    assert lines[-1] == "  f(" + "s(" * 2000 + "0" + ")" * 2001
