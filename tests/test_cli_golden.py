"""The command line prints byte-for-byte what the fixture pins.

``tests/cli_golden.json`` holds each case's exit code and the digests of its
stdout and stderr; ``tests/cli_golden.py`` generates it (see its docstring
for the command).
"""

import json
from pathlib import Path

import pytest

import cli_golden

FIXTURE = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
CASES = cli_golden.cases()


def test_fixture_covers_every_case():
    assert sorted(FIXTURE) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_unchanged(name):
    assert CASES[name]() == FIXTURE[name]
