import json
import os
import sys

import pytest

from conftest import CORPUS, load_system

import ctrskit as ck
import ctrskit.checker as checker
from ctrskit.ctrs import Fuel
from ctrskit.experiment import (
    CONFIG_ENV_VAR,
    ExperimentConfig,
    ExternalTool,
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

    def loops_on_less(seeds, cs, fuel=ck.DEFAULT_FUEL, engine=None):
        if any(s.name == "<" for s in cs.signature):
            return fake_loop
        return real(seeds, cs, fuel, engine)

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
