import json
import os
import sys

import pytest

from conftest import CORPUS, load_system, unreadable_entries

import ctrskit as ck
import ctrskit.checker as checker
from ctrskit.cli import cli_main
from ctrskit.ctrs import Fuel
from ctrskit.experiment import (
    CONFIG_ENV_VAR,
    ExperimentConfig,
    ExternalTool,
    MAX_TOOL_TIMEOUT,
    NON_REPRODUCTION_NOTE,
    load_config,
    run_experiment,
)
from ctrskit.report import to_json


def small_config(**kw):
    return ExperimentConfig(seed_size=kw.pop("seed_size", 3), **kw)


def test_run_over_corpus():
    report = run_experiment(str(CORPUS), small_config())
    assert len(report.rows) == len(list(CORPUS.glob("*.ctrs")))
    assert report.summary["YES"] >= 1
    assert report.summary["NO"] >= 1
    assert report.summary["MAYBE"] >= 1
    assert report.note == NON_REPRODUCTION_NOTE
    by_system = {r.system: r for r in report.rows}
    assert by_system["less"].verdict == "YES"
    assert by_system["self_loop"].verdict == "NO"
    assert by_system["bubble_sort"].verdict == "MAYBE"
    assert by_system["bubble_sort"].methods == {
        "unravel+lpo": "MAYBE",
        "loop-search": "MAYBE",
    }


def test_summary_matches_rows():
    report = run_experiment(str(CORPUS), small_config())
    for verdict in ("YES", "NO", "MAYBE"):
        assert report.summary[verdict] == sum(
            1 for r in report.rows if r.verdict == verdict
        )
    assert report.summary["error"] == sum(1 for r in report.rows if r.verdict is None)


def _strip_timing(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    doc.pop("total_time", None)
    for row in doc["rows"]:
        row.pop("wall_time", None)
    return doc


def test_determinism_across_runs():
    a = run_experiment(str(CORPUS), small_config())
    b = run_experiment(str(CORPUS), small_config())
    assert to_json(_strip_timing(a.to_dict())) == to_json(_strip_timing(b.to_dict()))


def test_workers_do_not_change_results():
    serial = run_experiment(str(CORPUS), small_config())
    threaded = run_experiment(str(CORPUS), small_config(workers=4))
    assert _strip_timing(serial.to_dict()) == _strip_timing(threaded.to_dict())


def test_bad_files_become_rows(tmp_path):
    (tmp_path / "broken.ctrs").write_text("(RULES f(x -> )\n")
    (tmp_path / "invalid.ctrs").write_text(
        "(CONDITIONTYPE ORIENTED)\n(VAR x y)\n(RULES f(x) -> y)\n"
    )
    (tmp_path / "good.ctrs").write_text("(VAR x)\n(RULES f(f(x)) -> f(x))\n")
    report = run_experiment(str(tmp_path), ExperimentConfig(seed_size=2))
    by_system = {r.system: r for r in report.rows}
    assert by_system["broken"].status == "parse-error"
    assert by_system["invalid"].status == "invalid"
    assert by_system["good"].verdict == "YES"
    assert report.summary["error"] == 2


def test_unreadable_files_become_rows(tmp_path):
    unreadable_entries(tmp_path)
    report = run_experiment(str(tmp_path), small_config())
    rows = {r.system: r for r in report.rows}
    assert [r.system for r in report.rows] == ["bad", "less", "sub"]
    for name in ("bad", "sub"):
        assert (rows[name].status, rows[name].verdict) == ("unreadable", None)
    assert "Is a directory" in rows["sub"].error
    assert "can't decode byte 0xff" in rows["bad"].error
    assert (rows["less"].status, rows["less"].verdict) == ("ok", "YES")
    assert report.summary["error"] == 2


def test_config_loading(tmp_path, monkeypatch):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "fuel": {"max_level": 3, "max_steps": 99, "max_term_size": 50},
                "seed_size": 2,
                "workers": 2,
            }
        )
    )
    cfg = load_config(str(cfg_path))
    assert cfg.fuel == Fuel(3, 99, 50)
    assert cfg.seed_size == 2
    assert cfg.workers == 2

    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg_path))
    assert load_config().fuel == Fuel(3, 99, 50)

    monkeypatch.delenv(CONFIG_ENV_VAR)
    assert load_config() == ExperimentConfig()

    cfg_path.write_text(json.dumps({"frobnicate": 1}))
    with pytest.raises(ValueError):
        load_config(str(cfg_path))



@pytest.mark.parametrize(
    "config,message",
    [
        ([1, 2], "config must be a JSON object"),
        ({"precedence_cap": 10}, "unknown config keys: ['precedence_cap']"),
        ({"fuel": {"max_lvl": 3}}, "config fuel: unknown field 'max_lvl'"),
        ({"fuel": {"max_level": "3"}}, "config fuel: field 'max_level' has the wrong type"),
        (
            {"external_tools": [{"name": "x", "cmd": "echo"}]},
            "config external_tools[0]: unknown field 'cmd'",
        ),
        ({"external_tools": {"name": "x"}}, "config external_tools must be a JSON list"),
        ({"seed_size": "2"}, "config seed_size must be a positive integer"),
        ({"seed_size": 0}, "config seed_size must be a positive integer"),
        (
            {"external_tools": [{"name": "x", "command": "cat {file}", "transform": "U"}]},
            "config external_tools[0]: field 'transform' must be one of ['ctrs', 'u', 'ucs']",
        ),
    ],
)
def test_malformed_config_is_an_input_error(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["experiment", str(tmp_path), "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {message}")


# External tool entries that cannot run are refused when the config loads,
# before any row: an unknown placeholder, an unclosed quote, no time to run.
BAD_TOOL_ENTRIES = {
    "unknown-placeholder": (
        {"command": "awk {print} {file}"},
        "field 'command' is not a valid template: KeyError('print')",
    ),
    "unclosed-quote": (
        {"command": "tool 'x {file}"},
        "field 'command' is not a valid template: ValueError('No closing quotation')",
    ),
    "negative-timeout": (
        {"command": "cat {file}", "timeout": -1},
        "field 'timeout' must be positive: -1",
    ),
    "zero-timeout": ({"command": "cat {file}", "timeout": 0}, "field 'timeout' must be positive: 0"),
    # subprocess cannot wait longer than (2**31 - 1) ms.
    "overlong-timeout": (
        {"command": "cat {file}", "timeout": 2.2e6},
        "field 'timeout' must be at most 2147483.647 seconds: 2200000.0",
    ),
    "infinite-timeout": (
        {"command": "cat {file}", "timeout": float("inf")},
        "field 'timeout' must be at most 2147483.647 seconds: inf",
    ),
    "nan-timeout": (
        {"command": "cat {file}", "timeout": float("nan")},
        "field 'timeout' must be positive: nan",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_TOOL_ENTRIES))
def test_external_tool_entries_are_checked_when_the_config_loads(tmp_path, case):
    fields, message = BAD_TOOL_ENTRIES[case]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"external_tools": [{"name": "x", **fields}]}))
    with pytest.raises(ValueError) as err:
        load_config(str(cfg_path))
    assert str(err.value) == f"config external_tools[0]: {message}"


def test_external_tool_timeout_at_the_subprocess_limit_loads(tmp_path):
    cfg_path = tmp_path / "config.json"
    entry = {"name": "x", "command": "cat {file}", "timeout": MAX_TOOL_TIMEOUT}
    cfg_path.write_text(json.dumps({"external_tools": [entry]}))
    assert load_config(str(cfg_path)).external_tools[0].timeout == 2147483.647


def test_a_non_ascii_digit_in_a_file_is_a_parse_error_row(tmp_path):
    (tmp_path / "superscript.ctrs").write_text("(SIG (f ²))\n(RULES a -> b)\n")
    (tmp_path / "good.ctrs").write_text("(VAR x)\n(RULES f(f(x)) -> f(x))\n")
    report = run_experiment(str(tmp_path), ExperimentConfig(seed_size=2))
    rows = {r.system: r for r in report.rows}
    assert (rows["superscript"].status, rows["superscript"].error) == (
        "parse-error",
        "1:9: arity must be a number, found '²'",
    )
    assert rows["good"].verdict == "YES"


def test_external_tool_adapter(tmp_path):
    (tmp_path / "one.ctrs").write_text("(VAR x)\n(RULES f(f(x)) -> f(x))\n")
    yes_tool = ExternalTool(
        name="fake-yes",
        command=f"{sys.executable} -c \"print('YES')\"",
        transform="ucs",
    )
    noisy_tool = ExternalTool(
        name="fake-junk",
        command=f"{sys.executable} -c \"print('whatever')\"",
        transform="u",
    )
    report = run_experiment(
        str(tmp_path), ExperimentConfig(seed_size=2, external_tools=[yes_tool, noisy_tool])
    )
    row = report.rows[0]
    assert row.external == {"fake-yes": "YES", "fake-junk": "ERROR"}


def test_report_json_shape():
    report = run_experiment(str(CORPUS), small_config())
    doc = report.to_dict()
    assert doc["format_version"] == 1
    assert set(doc["summary"]["by_method"]) == {"unravel+lpo", "loop-search"}
    assert "AProVE" in doc["note"]


def test_alarm_when_both_methods_answer(monkeypatch, tmp_path):
    # A fake loop on `less`, which a precedence orients: both methods answer.
    self_loop = load_system("self_loop")
    fake_loop = ck.mu_terminating_on_seeds(
        ck.enumerate_original_terms(self_loop.signature, 1), ck.unravel_cs(self_loop)
    )
    assert fake_loop.is_loop
    real = checker.mu_terminating_on_seeds

    def loops_on_less(seeds, cs, fuel=ck.DEFAULT_FUEL):
        if any(s.name == "<" for s in cs.signature):
            return fake_loop
        return real(seeds, cs, fuel)

    monkeypatch.setattr(checker, "mu_terminating_on_seeds", loops_on_less)
    with pytest.raises(ck.ProofAlarm) as raised:
        ck.prove_quasi_decreasing(load_system("less"))
    assert raised.value.methods == {"unravel+lpo": "YES", "loop-search": "NO"}

    for name in ("append", "less", "self_loop"):
        (tmp_path / f"{name}.ctrs").write_text((CORPUS / f"{name}.ctrs").read_text())
    report = run_experiment(str(tmp_path), small_config())
    rows = {r.system: r for r in report.rows}
    assert rows["less"].status == "alarm"
    assert rows["less"].verdict is None and rows["less"].certificate is None
    assert rows["less"].error == "methods disagree: orientation found together with a loop"
    assert rows["less"].methods == {"unravel+lpo": "YES", "loop-search": "NO"}
    assert (rows["append"].status, rows["append"].verdict) == ("ok", "YES")
    assert (rows["self_loop"].status, rows["self_loop"].verdict) == ("ok", "NO")
    assert report.summary["error"] == 1
