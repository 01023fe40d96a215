"""The README names every CLI option, its Python API table only what the modules
define, and its exchange examples are records the reader and writer agree on."""

import argparse
import importlib
import re
from pathlib import Path

from smallprop.cli import build_parser
from smallprop.exchange import ProposalRecord, read_proposals, write_proposals
from smallprop.masks import BBox

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


def test_exchange_examples_read_and_write_back(tmp_path):
    section = README.read_text().split("## Proposal exchange format", 1)[1].split("\n## ", 1)[0]
    examples = [line for line in section.splitlines() if line.startswith("{")]
    assert len(examples) == 2
    path = tmp_path / "scene_42_0000.jsonl"
    path.write_text("\n".join(examples) + "\n")
    lines = read_proposals(path)
    write_proposals([ProposalRecord("scene_42_0000", p.mask.width, p.mask.height, p.objectness, p.mask.runs, t)
                     for _, t, p in lines], tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
    (_, tile_index, tile_local), (_, whole_index, whole) = lines
    # "foreground at flat positions 1 and 2" of tile 3's 4x3 frame
    assert tile_index == 3 and tile_local.mask.bbox == BBox(1, 0, 2, 1)
    # "a 4x2 block whose top-left corner is at (100, 165)"
    assert whole_index is None and whole.mask.bbox == BBox(100, 165, 4, 2) and whole.mask.area == 8
