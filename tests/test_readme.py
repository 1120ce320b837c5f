"""README examples run as written."""

import re
from pathlib import Path

import pytest

from gaitcadence.io import write_triaxial_csv

from conftest import as_record

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example(const_walk, tmp_path, monkeypatch, capsys):
    # The example reads walk.csv: the README's 64 s synthetic walk, 1 Hz
    # strides in 2..62 s, so two steps per second.
    text = README.read_text()
    section = text[text.index("## Library use\n"):]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    _, res = const_walk
    write_triaxial_csv(tmp_path / "walk.csv", as_record(res))
    monkeypatch.chdir(tmp_path)
    exec(example, {})
    mean, unit = capsys.readouterr().out.split()
    assert unit == "steps/s"
    assert float(mean) == pytest.approx(2.0, abs=0.02)
