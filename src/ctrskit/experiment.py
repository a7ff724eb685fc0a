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
import time
from pathlib import Path
from typing import NamedTuple, Optional

from .checker import DEFAULT_SEED_SIZE, ProofAlarm, prove_quasi_decreasing
from .ctrs import DEFAULT_FUEL, Fuel
from .fmt import ParseError, ValidationError, parse_ctrs, print_csrs, print_ctrs
from .records import Record
from .report import FORMAT_VERSION, certificate_dict
from .unravel import unravel, unravel_cs

NON_REPRODUCTION_NOTE = (
    "Built-in methods only: path-order search on the unraveled system and "
    "bounded loop search on its context-sensitive restriction. Published "
    "multi-tool benchmark totals depend on external provers (AProVE, MU-TERM, "
    "VMTL, NaTT, TTT2) and the full public problem corpus; they are not "
    "reproduced at this scale. Configure external tool adapters to extend "
    "coverage."
)


class ExternalTool(NamedTuple):
    """An external prover invoked on an exported file.

    ``transform`` picks the export: "ctrs" (as parsed), "u" (unraveled TRS),
    or "ucs" (context-sensitive unraveling).  ``command`` is a shell-less
    template; ``{file}`` is replaced by the export path.
    """

    name: str
    command: str
    transform: str = "ucs"
    timeout: float = 60.0

    def argv(self, path: str) -> list[str]:
        """``command`` split as a shell would, with ``path`` for ``{file}``."""
        import shlex  # only a configured external tool needs it

        return [part.format(file=path) for part in shlex.split(self.command)]


class ExperimentConfig(Record):
    __slots__ = ("fuel", "seed_size", "workers", "external_tools")
    _defaults = {
        "fuel": DEFAULT_FUEL, "seed_size": DEFAULT_SEED_SIZE, "workers": 1, "external_tools": list
    }

    def _check(self) -> None:
        # The files are processed one after another; 1 is the one value kept.
        if self.workers != 1:
            raise ValueError(f"workers must be 1: {self.workers!r}")


# The file an external tool receives, by ``ExternalTool.transform``.
_EXPORTS = {
    "ctrs": print_ctrs,
    "u": lambda system: print_ctrs(unravel(system)),
    "ucs": lambda system: print_csrs(unravel_cs(system)),
}
_FUEL_FIELDS = {"max_level": int, "max_steps": int, "max_term_size": int}
_TOOL_FIELDS = {"name": str, "command": str, "transform": str, "timeout": (int, float)}
# The longest wait ``subprocess`` can pass to the system: (2**31 - 1) ms.
MAX_TOOL_TIMEOUT = 2147483.647


def _fields(section: str, entry, types: dict, required: tuple = ()) -> dict:
    """``entry`` checked to be an object with the ``required`` fields and no
    fields outside ``types``, each of its listed type (booleans are not
    numbers here)."""
    if not isinstance(entry, dict):
        raise ValueError(f"config {section} must be a JSON object")
    for key in (*entry, *required):
        if key not in types:
            raise ValueError(f"config {section}: unknown field {key!r}")
        if key not in entry:
            raise ValueError(f"config {section}: missing field {key!r}")
        if isinstance(entry[key], bool) or not isinstance(entry[key], types[key]):
            raise ValueError(f"config {section}: field {key!r} has the wrong type: {entry[key]!r}")
    return entry


def load_config(path: Optional[str] = None) -> ExperimentConfig:
    """Read a JSON config, or the defaults when ``path`` is None.  Unknown
    keys, ill-typed values and repeated tool names raise ``ValueError``,
    which names the offending section, to catch typos."""
    if path is None:
        return ExperimentConfig()
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(data) - {"fuel", "seed_size", "external_tools"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    seed_size = data.get("seed_size", DEFAULT_SEED_SIZE)
    if isinstance(seed_size, bool) or not isinstance(seed_size, int) or seed_size < 1:
        raise ValueError("config seed_size must be a positive integer")
    tools = data.get("external_tools", [])
    if not isinstance(tools, list):
        raise ValueError("config external_tools must be a JSON list")
    fuel = Fuel(**_fields("fuel", data.get("fuel", {}), _FUEL_FIELDS))
    tools = [_tool(f"external_tools[{i}]", entry) for i, entry in enumerate(tools)]
    for i, tool in enumerate(tools):
        if tool.name in [earlier.name for earlier in tools[:i]]:
            raise ValueError(f"config external_tools[{i}]: duplicate name {tool.name!r}")
    return ExperimentConfig(fuel=fuel, seed_size=seed_size, external_tools=tools)


def _tool(section: str, entry) -> ExternalTool:
    tool = ExternalTool(**_fields(section, entry, _TOOL_FIELDS, ("name", "command")))
    if tool.transform not in _EXPORTS:
        raise ValueError(
            f"config {section}: field 'transform' must be one of {sorted(_EXPORTS)}: "
            f"{tool.transform!r}"
        )
    if not tool.timeout > 0:
        raise ValueError(f"config {section}: field 'timeout' must be positive: {tool.timeout!r}")
    if not tool.timeout <= MAX_TOOL_TIMEOUT:
        raise ValueError(
            f"config {section}: field 'timeout' must be at most {MAX_TOOL_TIMEOUT} seconds: "
            f"{tool.timeout!r}"
        )
    try:
        tool.argv("export.trs")
    except (ValueError, LookupError, AttributeError) as err:
        raise ValueError(
            f"config {section}: field 'command' is not a valid template: {err!r}"
        ) from None
    return tool


class SystemRow(Record):
    """One system's row; ``status`` is "ok", "parse-error", "invalid",
    "alarm" or "unreadable" (the file could not be read or decoded)."""

    __slots__ = (
        "system",
        "file",
        "status",
        "rule_count",
        "conditional_count",
        "unraveled_count",
        "verdict",
        "methods",
        "certificate",
        "external",
        "error",
        "wall_time",
    )
    _defaults = {
        "rule_count": 0,
        "conditional_count": 0,
        "unraveled_count": 0,
        "verdict": None,
        "methods": dict,
        "certificate": None,
        "external": dict,
        "error": None,
        "wall_time": 0.0,
    }


class ExperimentReport(Record):
    __slots__ = ("rows", "summary", "note", "fuel", "total_time")
    _defaults = {"note": NON_REPRODUCTION_NOTE, "fuel": DEFAULT_FUEL, "total_time": 0.0}

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "note": self.note,
            "fuel": self.fuel._asdict(),
            "summary": self.summary,
            "rows": [r._asdict() for r in self.rows],
            "total_time": self.total_time,
        }


def _run_external(tool: ExternalTool, exported: str) -> str:
    # Only a configured external tool needs these modules.
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory(prefix="ctrskit-", ignore_cleanup_errors=True) as tmp:
        path = os.path.join(tmp, "export.trs")
        Path(path).write_text(exported)
        try:
            proc = subprocess.run(
                tool.argv(path), capture_output=True, text=True, timeout=tool.timeout, check=False
            )
        except (OSError, subprocess.TimeoutExpired):
            return "ERROR"
    first = (proc.stdout.splitlines() or [""])[0].strip().upper()
    return first if first in {"YES", "NO", "MAYBE"} else "ERROR"


# A failing file's row status, by the exception it fails with.
_FAILED = {
    ParseError: "parse-error", ValidationError: "invalid", ProofAlarm: "alarm",
    OSError: "unreadable", UnicodeDecodeError: "unreadable",
}


def _process_file(path: Path, config: ExperimentConfig) -> SystemRow:
    row = SystemRow(system=path.stem, file=path.name, status="ok")
    started = time.monotonic()
    try:
        system = parse_ctrs(path.read_text(), str(path))
        row.rule_count = len(system.rules)
        row.conditional_count = len(system.conditional_rules)
        row.unraveled_count = len(unravel(system).rules)
        outcome = prove_quasi_decreasing(system, config.fuel, seed_size=config.seed_size)
    except tuple(_FAILED) as err:
        row.status = next(status for kind, status in _FAILED.items() if isinstance(err, kind))
        row.error = str(err)
        row.methods = getattr(err, "methods", row.methods)  # an alarm's answers
    else:
        row.methods = outcome.methods
        row.verdict = outcome.verdict
        if outcome.verdict != "MAYBE":
            row.certificate = certificate_dict(outcome.certificate)
        for tool in config.external_tools:
            row.external[tool.name] = _run_external(tool, _EXPORTS[tool.transform](system))
    row.wall_time = time.monotonic() - started
    return row


def run_experiment(directory: str, config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Process every ``.ctrs`` file in the directory; per-file failures are
    recorded as rows and never abort the batch.  A path that is not a
    directory raises ``NotADirectoryError``."""
    if not Path(directory).is_dir():
        raise NotADirectoryError(f"not a directory: {directory}")
    cfg = config if config is not None else ExperimentConfig()
    started = time.monotonic()
    rows = [_process_file(p, cfg) for p in sorted(Path(directory).glob("*.ctrs"))]
    rows.sort(key=lambda r: r.system)

    verdicts = [r.verdict for r in rows]
    summary: dict = {v: verdicts.count(v) for v in ("YES", "NO", "MAYBE")}
    summary["error"] = verdicts.count(None)
    summary["by_method"] = {
        method: {a: sum(r.methods.get(method) == a for r in rows) for a in (answer, "MAYBE")}
        for method, answer in (("unravel+lpo", "YES"), ("loop-search", "NO"))
    }
    return ExperimentReport(
        rows=rows,
        summary=summary,
        fuel=cfg.fuel,
        total_time=time.monotonic() - started,
    )
