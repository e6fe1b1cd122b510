from __future__ import annotations

import re
from pathlib import Path

_README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    text = _README.read_text(encoding="utf-8")
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_the_library_example_saves_its_answer_where_the_readme_says(tmp_path, monkeypatch, capsys):
    section = _section("Library example")
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(_README), "exec"), {"__name__": "readme_example"})
    steps, answer = capsys.readouterr().out.split(" ", 1)
    assert int(steps) > 0 and answer.strip()
    assert "`ws/outputs/f1.csv`" in section
    assert (tmp_path / "ws" / "outputs" / "f1.csv").is_file()
    assert not (tmp_path / "answers").exists()
