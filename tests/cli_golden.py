"""SHA-256 digests of what the command line prints, per command and input.

Each case runs ``cli_main`` in-process on a fixed argument list and records
its exit code and the digests of its stdout and stderr.  The corpus
directory and the temporary directory that holds unraveled files are replaced
by placeholders first, so the digests do not depend on the checkout's
location.  ``tests/test_cli_golden.py`` reruns every case and compares with
``tests/cli_golden.json``.

Regenerate the fixture from the root of a checkout whose behaviour is known
to be right (the fixture must only ever change on purpose):

    PYTHONPATH=src python tests/cli_golden.py > tests/cli_golden.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import ctrskit as ck
from ctrskit.cli import cli_main
from ctrskit.experiment import CONFIG_ENV_VAR

CORPUS = Path(ck.corpus_dir())
SYSTEMS = sorted(path.stem for path in CORPUS.glob("*.ctrs"))
BUBBLE = str(CORPUS / "bubble_sort.ctrs")
TERMS = (":(0,:(s(0),nil))", ":(s(s(0)),:(s(0),:(0,nil)))")
REWRITE_MODES = ((), ("--mu",), ("--successors",), ("--mu", "--successors"))


def _file(name: str) -> str:
    return str(CORPUS / f"{name}.ctrs")


def run(argv: list[str], tmpdir: str = "") -> dict:
    """Exit code and output digests of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop(CONFIG_ENV_VAR, None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    finally:
        if saved is not None:
            os.environ[CONFIG_ENV_VAR] = saved

    def digest(text: str) -> str:
        text = text.replace(str(CORPUS), "<corpus>")
        if tmpdir:
            text = text.replace(tmpdir, "<tmpdir>")
        return hashlib.sha256(text.encode()).hexdigest()

    return {"exit": code, "stdout": digest(out.getvalue()), "stderr": digest(err.getvalue())}


def _unraveled(flag: str) -> dict:
    """Rewrite on bubble_sort's unraveling written by ``unravel`` itself."""
    with tempfile.TemporaryDirectory() as tmpdir:
        path = str(Path(tmpdir) / "bubble_sort.trs")
        if cli_main(["unravel", BUBBLE, *([flag] if flag else []), "-o", path]) != 0:
            raise RuntimeError("unravel failed")
        return {
            f"{term} {' '.join(mode)}".strip(): run(["rewrite", path, "-t", term, *mode], tmpdir)
            for term in TERMS
            for mode in REWRITE_MODES
        }


def cases() -> dict:
    """Case name -> zero-argument function returning its record."""
    table = {}
    for name in SYSTEMS:
        table[f"prove/{name}"] = lambda name=name: run(["prove", _file(name), "--json", "-"])
        table[f"check-witness/{name}"] = lambda name=name: run(
            ["check-witness", _file(name), "--seeds-size", "3", "--json", "-"]
        )
        table[f"unravel/{name}"] = lambda name=name: run(["unravel", _file(name)])
        table[f"unravel-cs/{name}"] = lambda name=name: run(["unravel", _file(name), "--cs"])
        table[f"validate/{name}"] = lambda name=name: run(["validate", _file(name)])
    for i, term in enumerate(TERMS):
        for mode in REWRITE_MODES:
            table[f"rewrite/bubble_sort/{i}{''.join(mode)}"] = (
                lambda term=term, mode=mode: run(["rewrite", BUBBLE, "-t", term, *mode])
            )
        table[f"rewrite/bubble_sort/{i}/graphs"] = lambda term=term: run(
            ["rewrite", BUBBLE, "-t", term, "--dot", "-", "--graph-json", "-"]
        )
        table[f"simulate/bubble_sort/{i}"] = lambda term=term: run(["simulate", BUBBLE, "-s", term])
    table["rewrite/bubble_sort.trs"] = lambda: _unraveled("")
    table["rewrite/bubble_sort.csrs"] = lambda: _unraveled("--cs")
    table["simulate/bubble_sort/normal-form"] = lambda: run(["simulate", BUBBLE, "-s", "true"])
    table["experiment"] = lambda: run(["experiment", str(CORPUS)])
    return table


def main() -> None:
    records = {name: build() for name, build in cases().items()}
    sys.stdout.write(json.dumps(records, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
