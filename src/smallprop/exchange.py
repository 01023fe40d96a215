"""File exchange for proposals produced outside the pipeline.

The wire format is JSON lines, one record per line, keys in fixed order
(image_id, tile_index, width, height, objectness, runs). tile_index is
omitted for whole-image records. objectness carries exactly six decimal
digits; the writer formats six and the reader rounds to six (negative zero
to 0), so quantizing at the two ends makes read/write a byte-stable round trip.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .detector import Proposal
from .masks import BinaryMask

_REQUIRED_KEYS = ("image_id", "width", "height", "objectness", "runs")
_ALL_KEYS = frozenset(_REQUIRED_KEYS) | {"tile_index"}


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


def _parse_record(doc, stem: str, path, lineno: int) -> tuple[int, int | None, Proposal]:
    if not isinstance(doc, dict):
        raise ExchangeFormatError(f"{path}: line {lineno}: record is not an object")
    keys = set(doc)
    missing = [k for k in _REQUIRED_KEYS if k not in keys]
    if missing:
        raise ExchangeFormatError(f"{path}: line {lineno}: missing fields {missing}")
    unknown = sorted(keys - _ALL_KEYS)
    if unknown:
        raise ExchangeFormatError(f"{path}: line {lineno}: unknown fields {unknown}")
    image_id = doc["image_id"]
    if not isinstance(image_id, str):
        raise ExchangeFormatError(f"{path}: line {lineno}: image_id must be a string")
    if image_id != stem:
        raise ExchangeFormatError(f"{path}: line {lineno}: record image_id {image_id!r} does not match {stem!r}")
    tile_index = doc.get("tile_index")
    for name in ("width", "height") + (("tile_index",) if tile_index is not None else ()):
        v = doc[name]
        if not isinstance(v, int) or isinstance(v, bool):
            raise ExchangeFormatError(f"{path}: line {lineno}: {name} must be an integer")
    objectness = doc["objectness"]
    if isinstance(objectness, bool) or not isinstance(objectness, (int, float)):
        raise ExchangeFormatError(f"{path}: line {lineno}: objectness must be a number")
    runs = doc["runs"]
    if not isinstance(runs, list):
        raise ExchangeFormatError(f"{path}: line {lineno}: runs must be a list of integers")
    try:  # BinaryMask checks the run elements, Proposal the range and a non-empty mask
        mask = BinaryMask(doc["width"], doc["height"], runs)
        return lineno, tile_index, Proposal(mask, round(objectness, 6) + 0.0)  # + 0.0 turns -0.0 into 0.0
    except (ValueError, OverflowError) as exc:  # an integer objectness past float range overflows
        raise ExchangeFormatError(f"{path}: line {lineno}: {exc}") from exc


def read_proposals(path) -> list[tuple[int, int | None, Proposal]]:
    """``(line number, tile_index, proposal)`` per record of a JSONL proposal
    file, in file order; every record's image_id must be the file's stem."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ExchangeFormatError(f"{path}: line {line}: non-ASCII byte {data[exc.start]:#x}") from None
    stem = Path(path).stem
    out = []
    # only "\n" ends a line, as counted above; a blank line holds only JSON whitespace
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip(" \t\r"):
            continue
        try:
            doc = _DECODER.decode(line)
        except (RecursionError, ValueError) as exc:  # a repeated key or too many digits has no msg
            why = "nested too deeply" if isinstance(exc, RecursionError) else getattr(exc, "msg", exc)
            raise ExchangeFormatError(f"{path}: line {lineno}: invalid JSON ({why})") from None
        out.append(_parse_record(doc, stem, path, lineno))
    return out
