"""The README names every CLI option, its Python API table only what the modules
define and the program uses, its exchange examples are records the reader and
writer agree on, and its placement errors are the text that ``place`` raises."""

import argparse
import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

from smallprop.cli import build_parser
from smallprop.exchange import ExchangeFormatError, ProposalRecord, read_proposals, write_proposals
from smallprop.pipeline import place
from smallprop.tiling import Tile
from oracles import grid_bbox, mask_grid

README = Path(__file__).resolve().parents[1] / "README.md"
# the code that is not a test: the package, its scripts and the benchmark
PROGRAM = [README.parent / d for d in ("src", "scripts", "perfbench")]


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
        # a dotted name is an attribute of a module's attribute, such as a method of a class
        missing += [f"{'/'.join(modules)}.{n}" for n in names
                    if not any(functools.reduce(lambda o, a: getattr(o, a, None), n.split("."), m) for m in loaded)]
    assert missing == []


def program_reads() -> set[str]:
    """The names that the program's code reads, as a variable or as an
    attribute, outside a definition of that name. An import, a string or a
    docstring does not read a name, nor does a function calling itself."""
    read = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in inside:
                read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in sorted(p for d in PROGRAM for p in d.rglob("*.py")):
        visit(ast.parse(path.read_text()), frozenset())
    return read


def test_python_api_table_names_only_what_the_program_uses():
    # API that only tests reach goes, or moves to the tests. A dotted name such
    # as ``Spans.batch`` counts as read wherever its last part is read as an attribute.
    read = program_reads()
    names = sorted({n for _, row in api_rows() for n in row})
    assert len(names) > 30
    assert [n for n in names if n.split(".")[-1] not in read] == []


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
    batch = read_proposals(path)
    write_proposals(batch.records("scene_42_0000"), tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
    tile_local, whole = (mask_grid(r) for r in batch.records("scene_42_0000"))
    # "foreground at flat positions 1 and 2" of tile 3's 4x3 frame
    assert batch.tiles.tolist() == [3, -1] and grid_bbox(tile_local) == (1, 0, 2, 1)
    # "a 4x2 block whose top-left corner is at (100, 165)"
    assert grid_bbox(whole) == (100, 165, 4, 2) and batch.areas.tolist() == [2, 8]


# each kind of placement error, and the (record width, height, tile_index, image
# width, height, tiles) that raise it, from the numbers of its message
_PLACEMENT_ERRORS = {
    r"whole-image record is (\d+)x(\d+), image is (\d+)x(\d+)":
        lambda w, h, iw, ih: (w, h, None, iw, ih, []),
    r"unknown tile_index (\d+); grid has (\d+) tiles":
        lambda t, n: (8, 8, t, 64, 48, [Tile(i, 0, 0, 8, 8) for i in range(n)]),
    r"local mask is (\d+)x(\d+), tile is (\d+)x(\d+)":
        lambda w, h, tw, th: (w, h, 0, tw, th, [Tile(0, 0, 0, tw, th)]),
    r"tile_index (\d+): only whole-image records are accepted":
        lambda t: (8, 8, t, 64, 48, []),
}


def test_placement_error_examples_are_what_place_raises(tmp_path):
    section = README.read_text().split("Records are placed on their scene", 1)[1].split("\n\n", 2)[1]
    examples = re.findall(r"`(?:\S+: )?line (\d+): ([^`]+)`", section)
    assert len(examples) == 4
    for line, message in examples:
        ((pattern, build),) = [(p, b) for p, b in _PLACEMENT_ERRORS.items() if re.fullmatch(p, message)]
        w, h, tile, width, height, tiles = build(*map(int, re.fullmatch(pattern, message).groups()))
        fits = ProposalRecord("x", width, height, 0.5, (0, width * height))  # a whole-image record
        path = tmp_path / "x.jsonl"
        write_proposals([fits] * (int(line) - 1) + [ProposalRecord("x", w, h, 0.5, (0, w * h), tile)], path)
        with pytest.raises(ExchangeFormatError) as exc:
            place(read_proposals(path), width, height, tiles)
        assert str(exc.value) == f"line {line}: {message}"
