"""File exchange for proposals produced outside the pipeline.

The wire format is JSON lines, one record per line. The writer's lines are
canonical: keys in fixed order (image_id, tile_index, width, height,
objectness, runs), one space after each colon and comma, tile_index omitted
for whole-image records; the reader takes any JSON object per line under the
same rules. objectness carries exactly six decimal digits; the writer formats
six and the reader rounds to six (negative zero to 0), so quantizing at the
two ends makes read/write a byte-stable round trip.
"""

from __future__ import annotations

import json
import re
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .masks import MAX_PIXELS, _foreground, _offsets_of, _segments, _sums, _valid

_REQUIRED_KEYS = ("image_id", "width", "height", "objectness", "runs")
_REQUIRED = frozenset(_REQUIRED_KEYS)
_ALL_KEYS = _REQUIRED | {"tile_index"}


class ExchangeFormatError(ValueError):
    """A proposal file that violates the exchange schema, or a record that does not fit its image."""


def _unique_keys(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return doc


# built once: passing the hook to json.loads would build a decoder per line
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


class ProposalRecord(NamedTuple):
    """The wire fields of one line to write."""

    image_id: str
    width: int
    height: int
    objectness: float
    runs: tuple[int, ...]
    tile_index: int | None = None


def format_record(record: ProposalRecord) -> str:
    """Canonical single-line serialization."""
    parts = [f'"image_id": {json.dumps(record.image_id)}']
    if record.tile_index is not None:
        parts.append(f'"tile_index": {record.tile_index}')
    parts.append(f'"width": {record.width}')
    parts.append(f'"height": {record.height}')
    parts.append(f'"objectness": {record.objectness:.6f}')
    parts.append('"runs": [' + ", ".join(map(str, record.runs)) + "]")
    return "{" + ", ".join(parts) + "}"


def write_proposals(records, path) -> None:
    """Write records in input order; identical inputs give identical bytes."""
    lines = [format_record(r) for r in records]
    payload = "\n".join(lines) + "\n" if lines else ""
    Path(path).write_bytes(payload.encode("ascii"))


class ProposalBatch:
    """The records of a proposal file as columns, in file order.

    ``lines`` holds each record's line number and ``tiles`` its tile index, -1
    for a whole-image record; ``widths``, ``heights`` and ``objectness`` are
    arrays; ``runs`` holds every record's runs end to end, record k's at
    ``runs[offsets[k]:offsets[k + 1]]``; ``areas`` holds the area of each
    record's mask.
    """

    __slots__ = ("lines", "tiles", "widths", "heights", "objectness", "runs", "offsets", "areas")

    def __init__(self, lines, tiles, widths, heights, objectness, runs, offsets, areas) -> None:
        self.lines, self.tiles, self.widths, self.heights = lines, tiles, widths, heights
        self.objectness, self.runs, self.offsets, self.areas = objectness, runs, offsets, areas

    def __len__(self) -> int:
        return len(self.lines)

    def take(self, index) -> "ProposalBatch":
        """The records at ``index``, an integer array, in its order."""
        offsets, where = _segments(self.offsets, index)
        return ProposalBatch(self.lines[index], self.tiles[index], self.widths[index], self.heights[index],
                             self.objectness[index], self.runs[where], offsets, self.areas[index])

    def records(self, image_id: str) -> list[ProposalRecord]:
        """The wire records of the batch, in order, for image ``image_id``."""
        runs, cuts = self.runs.tolist(), self.offsets.tolist()
        return [ProposalRecord(image_id, w, h, o, tuple(runs[i:j]), None if t < 0 else t)
                for w, h, o, i, j, t in zip(self.widths.tolist(), self.heights.tolist(), self.objectness.tolist(),
                                            cuts, cuts[1:], self.tiles.tolist())]

    def top(self, k: int) -> "ProposalBatch":
        """The ``k`` records of highest objectness, ranked; ties keep file order."""
        return self.take(np.argsort(-self.objectness, kind="stable")[:k])


def _record(line: str, stem: str, path, lineno: int) -> tuple:
    """The record on line ``lineno``, decoded and its fields' types checked,
    as (line, tile_index or -1, width, height, objectness, runs)."""
    try:
        doc = _DECODER.decode(line)
    except (RecursionError, ValueError) as exc:  # a repeated key or too many digits has no msg
        why = "nested too deeply" if isinstance(exc, RecursionError) else getattr(exc, "msg", exc)
        raise ExchangeFormatError(f"{path}: line {lineno}: invalid JSON ({why})") from None
    if not isinstance(doc, dict):
        raise ExchangeFormatError(f"{path}: line {lineno}: record is not an object")
    keys = doc.keys()
    if not keys >= _REQUIRED:
        missing = [k for k in _REQUIRED_KEYS if k not in keys]
        raise ExchangeFormatError(f"{path}: line {lineno}: missing fields {missing}")
    if not keys <= _ALL_KEYS:
        raise ExchangeFormatError(f"{path}: line {lineno}: unknown fields {sorted(keys - _ALL_KEYS)}")
    image_id = doc["image_id"]
    if not isinstance(image_id, str):
        raise ExchangeFormatError(f"{path}: line {lineno}: image_id must be a string")
    if image_id != stem:
        raise ExchangeFormatError(f"{path}: line {lineno}: record image_id {image_id!r} does not match {stem!r}")
    tiled = "tile_index" in keys
    # exact types, of decoded JSON values: a bool is an int instance
    for name in ("width", "height", "tile_index") if tiled else ("width", "height"):
        if type(doc[name]) is not int:
            raise ExchangeFormatError(f"{path}: line {lineno}: {name} must be an integer")
    tile_index = doc["tile_index"] if tiled else -1  # -1: a whole-image record
    if tiled and not 0 <= tile_index < 2**63:  # a column of int64
        raise ExchangeFormatError(f"{path}: line {lineno}: tile_index must be a non-negative 64-bit integer")
    objectness = doc["objectness"]
    if type(objectness) is not float and type(objectness) is not int:
        raise ExchangeFormatError(f"{path}: line {lineno}: objectness must be a number")
    runs = doc["runs"]
    if type(runs) is not list:
        raise ExchangeFormatError(f"{path}: line {lineno}: runs must be a list of integers")
    record = (lineno, tile_index, doc["width"], doc["height"], objectness, runs)
    if not set(map(type, runs)) <= {int}:
        _check(record, path)  # raises, with the record's first broken rule
    return record


def _broken(width: int, height: int, objectness, runs: list) -> str | None:
    """The first record rule that a record's values break, or None: the
    rules of its runs on its canvas, then its objectness, then a non-empty
    mask. ``_checked`` checks the same rules on every record at once."""
    if width < 1 or height < 1:
        return f"mask dimensions must be positive, got {width}x{height}"
    if width * height > MAX_PIXELS:
        return f"mask of {width}x{height} has more than 2**63 - 1 pixels"
    if not set(map(type, runs)) <= {int}:  # exact types: a bool is an int instance
        return "runs must be integers"
    if not runs:
        return "runs must be non-empty"
    if min(runs) < 0:
        return "negative run length"
    if 0 in runs[1:]:
        return "zero-length run after the first"
    if sum(runs) != width * height:
        return f"runs sum to {sum(runs)}, expected {width}x{height}={width * height}"
    try:
        objectness = round(objectness, 6) + 0.0
    except OverflowError as exc:  # an integer objectness past float range
        return str(exc)
    if not 0.0 <= objectness <= 1.0:
        return f"objectness {objectness} outside [0, 1]"
    if len(runs) == 1:  # valid runs, so no foreground run
        return "proposal mask is empty"
    return None


def _check(record, path) -> None:
    """Raise the error of the first rule that a record of ``_record`` breaks, naming its line."""
    why = _broken(*record[2:])
    if why:
        raise ExchangeFormatError(f"{path}: line {record[0]}: {why}")


def _checked(lines, tiles, widths, heights, objectness, runs, offsets) -> ProposalBatch | None:
    """The batch of these int64 columns and ``objectness``, numbers each kept as
    round(o, 6) + 0.0, if every record keeps every rule, else None."""
    objectness = np.array([round(o, 6) + 0.0 for o in objectness], dtype=float)  # + 0.0 turns -0.0 into 0.0
    if not _valid(runs, offsets, widths, heights):
        return None
    areas = _sums(_foreground(runs, offsets)[2], _offsets_of(np.diff(offsets) // 2))  # foreground runs
    if not (areas.all() and ((objectness >= 0.0) & (objectness <= 1.0)).all()):
        return None
    return ProposalBatch(lines, tiles, widths, heights, objectness, runs, offsets, areas)


def _batch(records: list[tuple], path) -> ProposalBatch:
    """The batch of the records of ``_record``, every record's values checked
    at once; if one breaks a rule, the records are checked one by one in file
    order, which raises the error of the first one that does."""
    lines, tiles, widths, heights, objectness, runs = zip(*records) if records else ((),) * 6
    offsets = _offsets_of([len(r) for r in runs])
    try:
        batch = _checked(np.array(lines, dtype=np.int64), np.array(tiles, dtype=np.int64),
                         np.array(widths, dtype=np.int64), np.array(heights, dtype=np.int64), objectness,
                         np.fromiter(chain.from_iterable(runs), np.int64, offsets[-1]), offsets)
    except OverflowError:  # a value past int64, or an integer objectness past float range
        batch = None
    if batch is None:
        for record in records:
            _check(record, path)
        raise AssertionError(f"{path}: the batch rejects a record that passes every check")
    return batch


_POSITIVE = "[1-9][0-9]{0,17}"  # at most 18 digits: np.fromstring clamps an integer past int64
_INT = f"0|{_POSITIVE}"
# a line as format_record writes it, with its "\n", whose runs after the first are not 0;
# it starts a line and holds no other "\n"
_CANONICAL = re.compile(
    rf'^\{{"image_id": ("[^"\\\n]*(?:\\.[^"\\\n]*)*"), (?:"tile_index": ({_INT}), )?"width": ({_INT}), '
    rf'"height": ({_INT}), "objectness": ([01]\.[0-9]{{6}}), "runs": \[((?:{_INT})(?:, {_POSITIVE})*)\]\}}\n', re.M)


def _ints(fields) -> np.ndarray:
    """The integers written in ``fields``, strings that ``_INT`` matches or "-1", as int64."""
    return np.fromstring(",".join(fields), dtype=np.int64, sep=",")


def _canonical(text: str, stem: str) -> ProposalBatch | None:
    """The batch of ``text``, parsed in one pass, if each line is what ``format_record``
    writes, newline included, and every record keeps every rule; else None."""
    found = _CANONICAL.findall(text)
    # a match is a whole line: they are contiguous iff there is one per "\n" and none after the last
    if len(found) != text.count("\n") or not text.endswith("\n"):
        return None
    ids, tiles, widths, heights, objectness, runs = zip(*found)
    if set(ids) != {json.dumps(stem)}:
        return None
    offsets = _offsets_of(np.fromiter(map(str.count, runs, repeat(",")), np.int64, len(runs)) + 1)
    flat = _ints(runs)
    if len(flat) != offsets[-1]:  # np.fromstring reads "" as no integer and drops a last ","
        return None
    return _checked(np.arange(1, len(found) + 1, dtype=np.int64), _ints(t or "-1" for t in tiles), _ints(widths),
                    _ints(heights), map(float, objectness), flat, offsets)


def _decoded(text: str, stem: str, path) -> ProposalBatch:
    """The batch of ``text`` decoded line by line as JSON: the format's definition and its errors."""
    records = []
    # only "\n" ends a line, as counted in read_proposals; a blank line holds only JSON whitespace
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip(" \t\r"):
            continue
        try:
            records.append(_record(line, stem, path, lineno))
        except ExchangeFormatError:
            _batch(records, path)  # a record on an earlier line may break a rule checked only there
            raise
    return _batch(records, path)


def read_proposals(path) -> ProposalBatch:
    """The records of a JSONL proposal file as one batch, in file order; every
    record's image_id must be the file's stem. A file whose every line is what
    ``format_record`` writes is parsed in one pass; any other is decoded line
    by line as JSON, with the same result. The first line that breaks a rule,
    in file order, raises an ``ExchangeFormatError`` naming it."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ExchangeFormatError(f"{path}: line {line}: non-ASCII byte {data[exc.start]:#x}") from None
    stem = Path(path).stem
    batch = _canonical(text, stem)
    return _decoded(text, stem, path) if batch is None else batch
