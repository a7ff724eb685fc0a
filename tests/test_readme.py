"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippet_runs(tmp_path, monkeypatch):
    # From an unrelated directory, so that no path in it may be relative.
    section = README.read_text().split("\n## Library\n", 1)[1]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section.split("\n## ", 1)[0], re.M | re.S)
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(code, str(README), "exec"), scope)
    assert not scope["exhausted"] and len(scope["steps"]) == 1
    assert scope["verdict"].outcome == "terminates"
    assert scope["outcome"].verdict == "MAYBE"
    assert scope["report"].ok
