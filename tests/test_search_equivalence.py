"""Search results stay byte-for-byte what the fixture pins.

Each case's canonical JSON is hashed and compared with
``tests/search_equivalence.json``, which ``tests/search_digests.py``
generates (see its docstring for the command).
"""

import json
from pathlib import Path

import pytest

import search_digests

FIXTURE = json.loads((Path(__file__).parent / "search_equivalence.json").read_text())
CASES = search_digests.cases()


def test_fixture_covers_every_case():
    assert sorted(FIXTURE) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_search_results_unchanged(name):
    assert search_digests.digest(CASES[name]()) == FIXTURE[name]
