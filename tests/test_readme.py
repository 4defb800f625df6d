"""README cannot drift from the code: its settings table is cli._SETTINGS,
and every python block in it runs."""

import re
from pathlib import Path

from fedransom import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _number(cell: str):
    return float(cell.split()[0]) if cell else None  # "300 s" is 300


def test_the_configuration_table_is_the_cli_settings():
    rows = [[cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
            for line in _section("Configuration").splitlines() if line.startswith("| `[")]
    got = [(section, key, _number(builtin), _number(desk)) for section, key, builtin, desk in rows]
    want = [(f"[{section}]", name, float(builtin), None if desk is None else float(desk))
            for name, (section, _, builtin, desk, _) in cli._SETTINGS.items()]
    assert got == want


def test_every_python_block_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)  # where a block writes its files
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
