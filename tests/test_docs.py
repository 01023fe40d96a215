"""The README names every CLI option, and its Python API table only what the modules define."""

import argparse
import importlib
import re
from pathlib import Path

from smallprop.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def api_rows():
    """(modules, names) of each row of the table under "### Python API"."""
    section = README.read_text().split("### Python API", 1)[1].split("\n#", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = line.strip().strip("|").split("|")
        if len(cells) == 2 and "smallprop" in cells[0]:
            rows.append(tuple(re.findall(r"`([^`]+)`", cell) for cell in cells))
    return rows


def test_python_api_table_names_exist():
    rows = api_rows()
    assert len(rows) >= 8
    missing = []
    for modules, names in rows:
        loaded = [importlib.import_module(m) for m in modules]
        missing += [f"{'/'.join(modules)}.{n}" for n in names if not any(hasattr(m, n) for m in loaded)]
    assert missing == []


def test_readme_names_every_cli_option():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    named = set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", README.read_text()))
    missing = [f"{name} {opt}" for name, sub in commands.choices.items()
               for action in sub._actions for opt in action.option_strings if opt not in named]
    assert missing == []
