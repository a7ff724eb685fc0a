"""Batch runner: validate, unravel, and prove every system in a directory.

Each system goes through :func:`~ctrskit.checker.prove_quasi_decreasing`,
which always runs both built-in methods: the path-order route on the
unraveled system (can only answer YES) and the bounded loop search on the
context-sensitive unraveling from enumerated original seeds (can only answer
NO).  Each row shows the prover's verdict and per-method answers.  A
disagreement (both answering) or a certificate that fails re-validation
would be a soundness bug; the prover raises :class:`~ctrskit.checker.ProofAlarm`
and the row gets an alarm status instead of a verdict.

External provers can be hooked in through command templates; they receive an
exported file and must print YES, NO, or MAYBE on the first line.  No
external tool is ever required or invoked by default.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .checker import ProofAlarm, prove_quasi_decreasing
from .ctrs import DEFAULT_FUEL, Fuel
from .fmt import ParseError, ValidationError, parse_ctrs, print_csrs, print_ctrs, print_trs
from .report import FORMAT_VERSION, certificate_dict, fuel_dict
from .unravel import unravel, unravel_cs

CONFIG_ENV_VAR = "CTRSKIT_CONFIG"

NON_REPRODUCTION_NOTE = (
    "Built-in methods only: path-order search on the unraveled system and "
    "bounded loop search on its context-sensitive restriction. Published "
    "multi-tool benchmark totals depend on external provers (AProVE, MU-TERM, "
    "VMTL, NaTT, TTT2) and the full public problem corpus; they are not "
    "reproduced at this scale. Configure external tool adapters to extend "
    "coverage."
)


@dataclass(frozen=True)
class ExternalTool:
    """An external prover invoked on an exported file.

    ``transform`` picks the export: "ctrs" (as parsed), "u" (unraveled TRS),
    or "ucs" (context-sensitive unraveling).  ``command`` is a shell-less
    template; ``{file}`` is replaced by the export path.
    """

    name: str
    command: str
    transform: str = "ucs"
    timeout: float = 60.0


@dataclass
class ExperimentConfig:
    fuel: Fuel = DEFAULT_FUEL
    seed_size: int = 4
    workers: int = 1
    precedence_cap: int = 10
    external_tools: list[ExternalTool] = field(default_factory=list)


def load_config(path: Optional[str] = None) -> ExperimentConfig:
    """Read a JSON config; falls back to the environment variable, then to
    defaults.  Unknown keys are rejected to catch typos."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return ExperimentConfig()
    data = json.loads(Path(path).read_text())
    known = {"fuel", "seed_size", "workers", "precedence_cap", "external_tools"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    fuel = DEFAULT_FUEL
    if "fuel" in data:
        fuel = Fuel(**data["fuel"])
    tools = [ExternalTool(**entry) for entry in data.get("external_tools", [])]
    return ExperimentConfig(
        fuel=fuel,
        seed_size=data.get("seed_size", 4),
        workers=data.get("workers", 1),
        precedence_cap=data.get("precedence_cap", 10),
        external_tools=tools,
    )


@dataclass
class SystemRow:
    system: str
    file: str
    status: str  # "ok" | "parse-error" | "invalid" | "alarm"
    rule_count: int = 0
    conditional_count: int = 0
    unraveled_count: int = 0
    verdict: Optional[str] = None
    methods: dict = field(default_factory=dict)
    certificate: Optional[dict] = None
    external: dict = field(default_factory=dict)
    error: Optional[str] = None
    wall_time: float = 0.0


@dataclass
class ExperimentReport:
    rows: list[SystemRow]
    summary: dict
    note: str = NON_REPRODUCTION_NOTE
    fuel: Fuel = DEFAULT_FUEL
    total_time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "note": self.note,
            "fuel": fuel_dict(self.fuel),
            "summary": self.summary,
            "rows": [
                {
                    "system": r.system,
                    "file": r.file,
                    "status": r.status,
                    "rule_count": r.rule_count,
                    "conditional_count": r.conditional_count,
                    "unraveled_count": r.unraveled_count,
                    "verdict": r.verdict,
                    "methods": r.methods,
                    "certificate": r.certificate,
                    "external": r.external,
                    "error": r.error,
                    "wall_time": r.wall_time,
                }
                for r in self.rows
            ],
            "total_time": self.total_time,
        }


def _run_external(tool: ExternalTool, exported: str) -> str:
    with tempfile.NamedTemporaryFile(
        "w", suffix=".trs", prefix="ctrskit-", delete=False
    ) as handle:
        handle.write(exported)
        tmp_path = handle.name
    try:
        argv = [part.format(file=tmp_path) for part in shlex.split(tool.command)]
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=tool.timeout, check=False
        )
        first = (proc.stdout.splitlines() or [""])[0].strip().upper()
        return first if first in {"YES", "NO", "MAYBE"} else "ERROR"
    except (OSError, subprocess.TimeoutExpired):
        return "ERROR"
    finally:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass


def _process_file(path: Path, config: ExperimentConfig) -> SystemRow:
    row = SystemRow(system=path.stem, file=path.name, status="ok")
    started = time.monotonic()
    try:
        text = path.read_text()
        system = parse_ctrs(text, str(path))
    except ParseError as err:
        row.status = "parse-error"
        row.error = str(err)
        row.wall_time = time.monotonic() - started
        return row
    except ValidationError as err:
        row.status = "invalid"
        row.error = str(err)
        row.wall_time = time.monotonic() - started
        return row

    row.rule_count = len(system.rules)
    row.conditional_count = len(system.conditional_rules)
    row.unraveled_count = len(unravel(system).rules)
    try:
        outcome = prove_quasi_decreasing(
            system, config.fuel, seed_size=config.seed_size, precedence_cap=config.precedence_cap
        )
    except ProofAlarm as alarm:
        row.status = "alarm"
        row.error = str(alarm)
        row.methods = alarm.methods
        row.wall_time = time.monotonic() - started
        return row
    row.methods = outcome.methods
    row.verdict = outcome.verdict
    if outcome.verdict != "MAYBE":
        row.certificate = certificate_dict(outcome.certificate)

    for tool in config.external_tools:
        if tool.transform == "ctrs":
            exported = print_ctrs(system)
        elif tool.transform == "u":
            exported = print_trs(unravel(system))
        else:
            exported = print_csrs(unravel_cs(system))
        row.external[tool.name] = _run_external(tool, exported)

    row.wall_time = time.monotonic() - started
    return row


def run_experiment(directory: str, config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Process every ``.ctrs`` file in the directory; per-file failures are
    recorded as rows and never abort the batch."""
    cfg = config if config is not None else ExperimentConfig()
    started = time.monotonic()
    files = sorted(Path(directory).glob("*.ctrs"))
    if cfg.workers > 1 and len(files) > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(lambda p: _process_file(p, cfg), files))
    else:
        rows = [_process_file(p, cfg) for p in files]
    rows.sort(key=lambda r: r.system)

    summary = {
        "YES": sum(1 for r in rows if r.verdict == "YES"),
        "NO": sum(1 for r in rows if r.verdict == "NO"),
        "MAYBE": sum(1 for r in rows if r.verdict == "MAYBE"),
        "error": sum(1 for r in rows if r.verdict is None),
        "by_method": {
            "unravel+lpo": {
                "YES": sum(1 for r in rows if r.methods.get("unravel+lpo") == "YES"),
                "MAYBE": sum(1 for r in rows if r.methods.get("unravel+lpo") == "MAYBE"),
            },
            "loop-search": {
                "NO": sum(1 for r in rows if r.methods.get("loop-search") == "NO"),
                "MAYBE": sum(1 for r in rows if r.methods.get("loop-search") == "MAYBE"),
            },
        },
    }
    return ExperimentReport(
        rows=rows,
        summary=summary,
        fuel=cfg.fuel,
        total_time=time.monotonic() - started,
    )
