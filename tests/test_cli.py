import json
from pathlib import Path

import pytest

from conftest import CORPUS

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


def test_prove_alarm_is_an_internal_error(monkeypatch, capsys):
    # A fake loop on `less`, which a precedence orients: both methods answer.
    self_loop = ck.parse_ctrs((CORPUS / "self_loop.ctrs").read_text(), "self_loop")
    fake_loop = ck.mu_terminating_on_seeds(
        ck.enumerate_original_terms(self_loop.signature, 1), ck.unravel_cs(self_loop)
    )
    real = checker.mu_terminating_on_seeds

    def loops_on_less(seeds, cs, fuel=ck.DEFAULT_FUEL, engine=None):
        if any(s.name == "<" for s in cs.signature):
            return fake_loop
        return real(seeds, cs, fuel, engine)

    monkeypatch.setattr(checker, "mu_terminating_on_seeds", loops_on_less)
    assert cli_main(["prove", corpus("less")]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert "verdict" not in captured.out
    assert captured.err.startswith("ALARM: methods disagree")


def test_crash_on_deep_term_is_an_internal_error(monkeypatch, capsys):
    # The parser rejects input deeper than MAX_TERM_DEPTH; a deeper term that
    # reaches the engine anyway still overflows its recursive traversals.
    real = cli.parse_term

    def deep_term(text, problem):
        term, succ = real("0", problem), real("s(0)", problem).sym
        for _ in range(3000):
            term = App(succ, (term,))
        return App(real("<(0,0)", problem).sym, (term, real("0", problem)))

    monkeypatch.setattr(cli, "parse_term", deep_term)
    assert cli_main(["rewrite", corpus("bubble_sort"), "-t", "0"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error: RecursionError")
    assert len(err.splitlines()) == 1


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
