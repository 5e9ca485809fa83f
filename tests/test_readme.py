"""The README's library example runs as written."""

import json
import re
from pathlib import Path

from collabsim.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def test_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.json").write_text(json.dumps(
        {"seed": 7, "n_countries": 6, "n_subjects": 5,
         "pubs_per_country_year": 3, "years": [2010, 2012]}))
    assert main(["synth", "--scenario", "scenario.json", "--out",
                 "corpus.jsonl", "--regions-out", "regions.csv"]) == 0
    blocks = _library_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    table = namespace["table"]
    assert len(namespace["reports"]) == len(table) == 6
    lines = (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    assert namespace["stats"].accepted == len(lines)
    profile = next(iter(table.values())).disciplinary["domestic"]
    assert type(profile) is dict and all(n > 0 for n in profile.values())
