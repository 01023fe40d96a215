"""The README's Python API table names only what the modules define."""

import importlib
import re
from pathlib import Path

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
