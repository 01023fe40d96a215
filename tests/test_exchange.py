import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smallprop import cli, exchange
from smallprop.exchange import (
    ExchangeFormatError,
    ProposalBatch,
    ProposalRecord,
    format_record,
    read_proposals,
    write_proposals,
)
from smallprop.masks import _foreground
from oracles import grid_runs, rect_grid, ref_read_records, ref_record_error

LINE = '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [0, 4]}'


def sample_records(image_id="img"):
    return [
        ProposalRecord(image_id, 4, 3, 0.9, (0, 12)),
        ProposalRecord(image_id, 4, 3, 0.25, (1, 2, 9), tile_index=3),
        ProposalRecord(image_id, 2, 2, 1.0, (0, 1, 2, 1)),
    ]


def test_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_proposals([], path)
    assert path.read_bytes() == b""
    assert len(read_proposals(path)) == 0


def test_roundtrip_identity_and_byte_stability(tmp_path):
    records = sample_records()
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1 = tmp_path / "a" / "img.jsonl"
    p2 = tmp_path / "b" / "img.jsonl"
    write_proposals(records, p1)
    again = read_proposals(p1)
    assert again.lines.tolist() == [1, 2, 3] and again.records("img") == records
    write_proposals(again.records("img"), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_file_order_preserved(tmp_path):
    path = tmp_path / "img.jsonl"
    write_proposals(sample_records(), path)
    batch = read_proposals(path)
    assert [batch.lines.tolist(), batch.tiles.tolist(), batch.objectness.tolist()] == [
        [1, 2, 3], [-1, 3, -1], [0.9, 0.25, 1.0]]


def test_canonical_line_format():
    line = format_record(ProposalRecord("s", 2, 2, 0.5, (0, 1, 2, 1), tile_index=7))
    assert line == (
        '{"image_id": "s", "tile_index": 7, "width": 2, "height": 2, '
        '"objectness": 0.500000, "runs": [0, 1, 2, 1]}'
    )
    line = format_record(ProposalRecord("s", 2, 2, 1.0, (4,)))
    assert line == '{"image_id": "s", "width": 2, "height": 2, "objectness": 1.000000, "runs": [4]}'


def test_objectness_quantized_to_wire_precision(tmp_path):
    path = tmp_path / "s.jsonl"
    write_proposals([ProposalRecord("s", 2, 2, 0.12345678, (0, 4)), ProposalRecord("s", 2, 2, 1 / 3, (0, 4))], path)
    assert '"objectness": 0.123457' in path.read_text() and '"objectness": 0.333333' in path.read_text()
    assert read_proposals(path).objectness.tolist() == [0.123457, 0.333333]


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_writer_and_reader_quantize_alike(tmp_path_factory, x):
    # the writer only formats and the reader only rounds; both give round(x, 6)
    path = tmp_path_factory.mktemp("q") / "q.jsonl"
    write_proposals([ProposalRecord("q", 1, 1, x, (0, 1))], path)
    assert path.read_text() == f'{{"image_id": "q", "width": 1, "height": 1, "objectness": {round(x, 6):.6f}, "runs": [0, 1]}}\n'
    assert read_proposals(path).objectness.tolist() == [round(x, 6)]


@pytest.mark.parametrize("objectness", ["-0.0", "-0.0000001", "-0"])
def test_negative_zero_objectness_reads_as_zero(tmp_path, objectness):
    path = tmp_path / "x.jsonl"
    path.write_text(LINE.replace("0.5", objectness) + "\n")
    (objectness,) = read_proposals(path).objectness.tolist()
    assert objectness == 0.0 and math.copysign(1.0, objectness) == 1.0


def test_objectness_out_of_range(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text(LINE.replace("0.5", "1.5") + "\n")
    with pytest.raises(ExchangeFormatError) as exc:
        read_proposals(path)
    assert str(exc.value) == f"{path}: line 1: objectness 1.5 outside [0, 1]"


def test_run_sum_mismatch_is_corruption(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text(LINE + "\n" + LINE.replace("[0, 4]", "[5]") + "\n")
    with pytest.raises(ExchangeFormatError, match="line 2"):
        read_proposals(path)


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text(LINE + "\n{not json}\n")
    with pytest.raises(ExchangeFormatError, match="line 2"):
        read_proposals(path)


def test_record_naming_another_image_names_line(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text(LINE + "\n" + LINE.replace('"x"', '"y"') + "\n")
    with pytest.raises(ExchangeFormatError) as exc:
        read_proposals(path)
    assert str(exc.value) == f"{path}: line 2: record image_id 'y' does not match 'x'"


def test_empty_mask_names_line(tmp_path):
    # lines are checked in file order: line 1's empty mask is reported, not line 2's image_id
    path = tmp_path / "x.jsonl"
    path.write_text(LINE.replace("[0, 4]", "[4]") + "\n" + LINE.replace('"x"', '"y"') + "\n")
    with pytest.raises(ExchangeFormatError) as exc:
        read_proposals(path)
    assert str(exc.value) == f"{path}: line 1: proposal mask is empty"


@pytest.mark.parametrize(
    "line",
    [
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5}',
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [0, 4], "extra": 1}',
        '{"image_id": 3, "width": 2, "height": 2, "objectness": 0.5, "runs": [0, 4]}',
        '{"image_id": "x", "width": "2", "height": 2, "objectness": 0.5, "runs": [0, 4]}',
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [4.0]}',
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [true, 3]}',
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": ["4"]}',
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [[4]]}',
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [null]}',
        '[1, 2]',
        # a whole-image record omits tile_index; null is no integer
        '{"image_id": "x", "tile_index": null, "width": 2, "height": 2, "objectness": 0.5, "runs": [0, 4]}',
        # only "\n" ends a line; the other breaks of str.splitlines() stay inside it
        LINE + '\x0c' + LINE,
        LINE + '\x0b' + LINE,
        LINE + '\x1c{not json}',
        '\x0c',
        # a repeated key would otherwise keep only its last value
        '{"image_id": "y", "image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [0, 4]}',
        # beyond Python's int-string digit limit, a ValueError that is not a JSONDecodeError
        pytest.param('{"image_id": "x", "width": ' + "1" * 5000 + ', "height": 2, "objectness": 0.5, "runs": [0, 4]}',
                     id="int-beyond-digit-limit"),
        # within the digit limit but past float range
        pytest.param(LINE.replace("0.5", "1" + "0" * 400), id="int-objectness-beyond-float"),
    ],
)
def test_schema_violations_rejected(tmp_path, line):
    path = tmp_path / "x.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ExchangeFormatError) as exc:
        read_proposals(path)
    assert str(exc.value).startswith(f"{path}: line 1: ")


def test_non_ascii_byte_names_file_and_line(tmp_path):
    path = tmp_path / "img.jsonl"
    path.write_bytes(format_record(sample_records()[0]).encode() + b"\n\xff\n")
    with pytest.raises(ExchangeFormatError) as exc:
        read_proposals(path)
    assert str(exc.value) == f"{path}: line 2: non-ASCII byte 0xff"


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text("\n" + LINE + "\n\n")
    assert read_proposals(path).lines.tolist() == [2]  # blank lines are skipped but still counted


def test_crlf_lines_parse(tmp_path):
    path = tmp_path / "img.jsonl"
    lines = [format_record(r) for r in sample_records()]
    path.write_bytes(("\r\n".join(lines[:2]) + "\r\n \t\r\n" + lines[2] + "\r\n").encode())
    batch = read_proposals(path)
    assert batch.lines.tolist() == [1, 2, 4] and batch.records("img") == sample_records()


def test_large_roundtrip_bytes(tmp_path):
    records = [
        ProposalRecord("img", 32, 24, (i % 100) / 100, grid_runs(rect_grid(32, 24, i % 20, i % 12, 5, 5)),
                       i % 7 if i % 3 else None)
        for i in range(500)
    ]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1 = tmp_path / "a" / "img.jsonl"
    p2 = tmp_path / "b" / "img.jsonl"
    write_proposals(records, p1)
    write_proposals(read_proposals(p1).records("img"), p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "bad_runs, bad_width, line",
    [(2, 3, 2), (3, 2, 2)],
    ids=["numeric-fault-first", "type-fault-first"],
)
def test_first_offending_line_wins_whatever_its_kind(tmp_path, bad_runs, bad_width, line):
    # a negative run is found when the whole file's runs are checked at once,
    # a string width as its line is decoded; the earlier line is reported either way
    lines = [LINE] * 4
    lines[bad_runs - 1] = LINE.replace("[0, 4]", "[5, -1]")
    lines[bad_width - 1] = LINE.replace('"width": 2', '"width": "8"')
    path = tmp_path / "x.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ExchangeFormatError) as exc:
        read_proposals(path)
    want = "negative run length" if bad_runs == line else "width must be an integer"
    assert str(exc.value) == f"{path}: line {line}: {want}"


@pytest.mark.parametrize(
    "fault, message",
    [('"runs": [0, 2, 0, 2]', "zero-length run after the first"),
     ('"runs": [5, -1]', "negative run length"),
     ('"runs": []', "runs must be non-empty"),
     ('"runs": [0, 3]', "runs sum to 3, expected 2x2=4"),
     ('"runs": [4]', "proposal mask is empty"),
     ('"width": 0', "mask dimensions must be positive, got 0x2"),
     ('"height": -2', "mask dimensions must be positive, got 2x-2"),
     ('"objectness": 1.0000005', "objectness 1.000001 outside [0, 1]")],
)
def test_value_rules_name_their_line(tmp_path, fault, message):
    # the values of a whole file are checked at once; a fault is then re-checked record by record
    key = fault.split(":")[0]
    start = LINE.index(key)
    stop = LINE.index(",", start) if key != '"runs"' else len(LINE) - 1
    path = tmp_path / "x.jsonl"
    path.write_text(LINE + "\n" + LINE[:start] + fault + LINE[stop:] + "\n" + LINE + "\n")
    with pytest.raises(ExchangeFormatError) as exc:
        read_proposals(path)
    assert str(exc.value) == f"{path}: line 2: {message}"


@pytest.mark.parametrize(
    "runs",
    ["[4611686018427387904, 4611686018427387904, 4611686018427387904]",  # 3 * 2**62 wraps past int64
     "[0, 18446744073709551616]",  # 2**64 is no int64
     "[0, 4611686018427387904, 4611686018427387904, 4611686018427387904, 4611686018427387908]"],  # wraps to 4
)
def test_run_sums_past_int64_keep_their_message(tmp_path, runs):
    path = tmp_path / "x.jsonl"
    path.write_text(LINE + "\n" + LINE.replace("[0, 4]", runs) + "\n")
    with pytest.raises(ExchangeFormatError) as exc:
        read_proposals(path)
    total = sum(json.loads(runs))
    assert str(exc.value) == f"{path}: line 2: runs sum to {total}, expected 2x2=4"


def test_integer_objectness_past_float_range_keeps_its_message(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text(LINE + "\n" + LINE.replace("0.5", "1" + "0" * 400) + "\n")
    with pytest.raises(ExchangeFormatError) as exc:
        read_proposals(path)
    assert str(exc.value) == f"{path}: line 2: int too large to convert to float"


_TILED = LINE.replace('{"image_id": "x", ', '{"image_id": "x", "tile_index": %d, ')


@pytest.mark.parametrize(
    "line, message",
    [(_TILED % -1, "tile_index must be a non-negative 64-bit integer"),
     (_TILED % 2**63, "tile_index must be a non-negative 64-bit integer"),
     (LINE.replace('"width": 2, "height": 2', '"width": 4294967296, "height": 4294967296')
      .replace("[0, 4]", "[0, 18446744073709551616]"), "mask of 4294967296x4294967296 has more than 2**63 - 1 pixels"),
     # 2**33 * (2**31 + 1) wraps to 2**33 in int64, which the runs sum to
     (LINE.replace('"width": 2, "height": 2', '"width": 8589934592, "height": 2147483649')
      .replace("[0, 4]", "[0, 8589934592]"), "mask of 8589934592x2147483649 has more than 2**63 - 1 pixels")],
    ids=["negative-tile", "tile-past-int64", "canvas-past-int64", "canvas-wrapping-to-the-run-sum"],
)
def test_values_past_the_int64_columns_are_rejected(tmp_path, line, message):
    # the batch holds tile indices and pixel positions as int64, -1 for a whole-image record
    path = tmp_path / "x.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ExchangeFormatError) as exc:
        read_proposals(path)
    assert str(exc.value) == f"{path}: line 1: {message}"


def test_areas_past_2_to_the_53_are_exact(tmp_path):
    # a 2**31 x 2**23 canvas whose foreground runs sum to the odd 2**53 + 3,
    # which a sum in float64 rounds to 2**53 + 4; then a record of area 4
    runs = [1, 2**53 + 1, 5, 2, 2**54 - (2**53 + 9)]
    path = tmp_path / "x.jsonl"
    path.write_text(LINE.replace('"width": 2, "height": 2', f'"width": {2**31}, "height": {2**23}')
                    .replace("[0, 4]", json.dumps(runs)) + "\n" + LINE + "\n")
    assert read_proposals(path).areas.tolist() == [2**53 + 3, 4]


@st.composite
def exchange_files(draw):
    """Valid records of random masks, boxes as wide as the canvas and runs across row ends
    included, with blank lines between some of them."""
    records, blanks = [], []
    for _ in range(draw(st.integers(0, 12))):
        w, h = draw(st.integers(1, 9)), draw(st.integers(1, 6))
        flat = np.array(draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h)))
        if draw(st.booleans()):  # one run from the end of a row into the next
            y = draw(st.integers(0, h - 1))
            flat[y * w + draw(st.integers(0, w - 1)) : (y + 1) * w + draw(st.integers(0, w))] = True
        if not flat.any():
            flat[draw(st.integers(0, w * h - 1))] = True
        tile = draw(st.one_of(st.none(), st.integers(0, 2**63 - 1)))
        records.append(ProposalRecord("f", w, h, draw(st.floats(0, 1)), grid_runs(flat), tile))
        blanks.append(draw(st.integers(0, 2)))
    return records, blanks


@settings(max_examples=200, deadline=None)
@given(exchange_files())
def test_batch_columns_match_the_grid_oracle(tmp_path_factory, file):
    records, blanks = file
    path = tmp_path_factory.mktemp("b") / "f.jsonl"
    path.write_text("".join("\n" * b + format_record(r) + "\n" for r, b in zip(records, blanks)))
    batch = read_proposals(path)
    pixels = [[] for _ in range(len(batch))]
    for k, start, length in zip(*(c.tolist() for c in _foreground(batch.runs, batch.offsets))):
        pixels[k] += range(start, start + length)
    got = list(zip(batch.lines.tolist(), batch.tiles.tolist(), map(tuple, pixels), batch.areas.tolist()))
    assert len(batch) == len(records)
    assert got == ref_read_records(path)


# values that break the rules at the edges of the int64 and float columns
_HUGE = [2**31, 2**32, 2**33, 2**31 + 1, 2**62, 2**63 - 1, 2**63, 2**64, 2**64 + 4, 10**30]


def _mostly(draw, usual, rare):
    """A value drawn from ``usual`` three times in four, else from ``rare``."""
    return draw(rare if draw(st.integers(0, 3)) == 0 else usual)


@st.composite
def record_values(draw):
    """The width, height, objectness and runs of one record: often a valid
    record, maybe with one run swapped for a hostile value, dropped or added;
    else values of every kind, bools and floats among them."""
    sides = st.one_of(st.integers(-2, 0), st.sampled_from(_HUGE), st.booleans(), st.just(2.0))
    width, height = _mostly(draw, st.integers(1, 6), sides), _mostly(draw, st.integers(1, 6), sides)
    objectness = _mostly(draw, st.floats(0, 1), st.one_of(
        st.floats(-0.5, 1.5), st.floats(allow_nan=True, allow_infinity=True), st.integers(-2, 2), st.booleans(),
        st.sampled_from([-0.0, 1.0000004, 1.0000005, 1.0000006, -0.0000004, -0.0000006, 10**400, -10**400,
                         2**1024, 2**1023]),
    ))
    values = st.one_of(st.integers(-2, 12), st.sampled_from(_HUGE), st.booleans(), st.floats(0, 4))
    if type(width) is type(height) is int and 1 <= width <= 6 and 1 <= height <= 6 and draw(st.integers(0, 3)):
        runs = list(grid_runs(draw(st.lists(st.booleans(), min_size=width * height, max_size=width * height))))
        if draw(st.integers(0, 2)) == 0:  # one run swapped, dropped, or one more
            k = draw(st.integers(0, len(runs)))
            edit = draw(st.sampled_from(["swap", "drop", "add"]))
            if edit == "add" or k == len(runs):
                runs.insert(k, draw(values))
            elif edit == "swap":
                runs[k] = draw(values)
            else:
                del runs[k]
    else:
        runs = draw(st.lists(values, max_size=6))
    return width, height, objectness, runs


@settings(max_examples=600, deadline=None)
@given(record_values())
# a run sum that wraps past int64 to the canvas's pixel count, and a run past
# int64 that wraps to it, alone and before an objectness past float range
@example((2, 2, 0.5, [0, 2**62, 2**62, 2**62, 2**62 + 4]))
@example((2, 2, 0.5, [2**64 + 4]))
@example((2, 2, 10**400, [2**64 + 4]))
# a canvas of more than 2**63 - 1 pixels whose int64 product wraps to the run sum
@example((2**33, 2**31 + 1, 0.5, [0, 2**33]))
# canvases of exactly 2**63 - 1 and 2**63 pixels
@example((1, 2**63 - 1, 0.5, [0, 2**63 - 1]))
@example((2, 2**62, 0.5, [0, 2**63]))
# integers past float range, and the edges of six-decimal rounding
@example((1, 1, 10**400, [0, 1]))
@example((1, 1, 1.0000005, [0, 1]))
@example((1, 1, -0.0, [0, 1]))
@example((2, 2, True, [0, 4]))
@example((2, 2, 0.5, [True, 3]))
@example((2, 2, 0.5, [4]))
@example((2, 2, 0.5, [5, -1]))
@example((2, 2, 0.5, [0, 2, 0, 2]))
@example((2, 2, 1, [0, 4]))
def test_reader_rules_are_the_reference_rules(tmp_path_factory, values):
    # read_proposals checks a file's values all at once (masks._valid) and
    # then, on a fault, line by line (exchange._check); each gives the
    # reference's verdict, and a fault always has its line's message
    width, height, objectness, runs = values
    path = tmp_path_factory.mktemp("r") / "r.jsonl"
    doc = {"image_id": "r", "width": width, "height": height, "objectness": objectness, "runs": runs}
    path.write_text(json.dumps(doc) + "\n")
    want = ref_record_error(width, height, objectness, runs)
    if want is None:
        batch = read_proposals(path)
        assert batch.records("r") == [ProposalRecord("r", width, height, round(float(objectness), 6), tuple(runs))]
        assert batch.areas.tolist() == [sum(runs[1::2])]
        # a broken line after it sends every record through the line-by-line check, which passes this one
        path.write_text(json.dumps(doc) + "\n" + LINE.replace('"x"', '"r"').replace("[0, 4]", "[5]") + "\n")
        with pytest.raises(ExchangeFormatError) as exc:
            read_proposals(path)
        assert str(exc.value) == f"{path}: line 2: runs sum to 5, expected 2x2=4"
    else:
        with pytest.raises(ExchangeFormatError) as exc:
            read_proposals(path)
        assert str(exc.value) == f"{path}: line 1: {want}"


def _columns(batch: ProposalBatch) -> list:
    """Each column of a batch with its dtype and its bytes, so that -0.0 and 0.0 differ."""
    return [(name, getattr(batch, name).dtype.str, getattr(batch, name).tobytes()) for name in ProposalBatch.__slots__]


def _read(read, path):
    """The columns that ``read`` gives for a proposal file, or the message of its error."""
    try:
        return _columns(read(path))
    except ExchangeFormatError as exc:
        return str(exc)


def _by_json(path):
    """The file read by the line-by-line JSON path alone, the definition of the format."""
    return exchange._decoded(path.read_bytes().decode("ascii"), path.stem, path)


_TOKEN = re.compile(r"(?<![.0-9])[0-9]+(?![.0-9])")  # an integer of a line: a tile index, a side or a run


def _retoken(draw, line, new):
    """``line`` with one of its integers, ``t``, written as ``new(t)``."""
    a, b = draw(st.sampled_from([m.span() for m in _TOKEN.finditer(line)]))
    return line[:a] + new(line[a:b]) + line[b:]


def _resub(draw, line, pattern, repl):
    """``line`` with one match of ``pattern`` replaced as ``re.sub`` would."""
    m = draw(st.sampled_from(list(re.finditer(pattern, line))))
    return line[: m.start()] + m.expand(repl) + line[m.end() :]


def _runs_edit(edit):
    """A line edit that changes the texts of a line's runs, split at ",", in place with ``edit(draw, runs)``."""
    def edited(draw, line):
        m = re.search(r"\[(.*)\]", line)
        runs = m.group(1).split(",")
        edit(draw, runs)
        return line[: m.start(1)] + ",".join(runs) + line[m.end(1) :]
    return edited


def _zero_run(draw, runs):
    runs.insert(draw(st.integers(1, len(runs))), " 0")


def _sum_off_by_one(draw, runs):
    runs[-1] = re.sub("[0-9]+", lambda m: str(int(m[0]) + draw(st.sampled_from([-1, 1]))), runs[-1], count=1)


def _float_run(draw, runs):
    runs[draw(st.integers(0, len(runs) - 1))] += ".0"


# canvases of 2**63 - 1 pixels, one of them with sides of at most 11 digits, and
# runs of 19 digits or more, whose values only the JSON path reads
_BIG = '{"image_id": "f", "width": %d, "height": %d, "objectness": 0.500000, "runs": [%s]}'
_CANVASES = [(1, 2**63 - 1), (153092023, 60247241209)]
_BIG_RUNS = ["0, 9223372036854775807", "1, 9223372036854775806", "0, 9223372036854775808", "0, 18446744073709551617"]

# hostile edits of one line written by format_record
_LINE_EDITS = {
    "leading zero": lambda draw, line: _retoken(draw, line, lambda t: "0" + t),
    "19 digits": lambda draw, line: _retoken(
        draw, line, lambda t: str(draw(st.sampled_from([10**18, 2**63 - 1, 2**63, 2**64 + 4])))),
    "minus zero": lambda draw, line: _retoken(draw, line, lambda t: "-0"),
    "big canvas": lambda draw, line: _BIG % (*draw(st.sampled_from(_CANVASES)), draw(st.sampled_from(_BIG_RUNS))),
    "extra space": lambda draw, line: _resub(draw, line, r"(?<=[:,\[])|(?=[\]}])", " "),
    "missing space": lambda draw, line: _resub(draw, line, r"(?<=[:,]) ", ""),
    "reordered keys": lambda draw, line: re.sub(r'"width": ([0-9]+), "height": ([0-9]+)',
                                                r'"height": \2, "width": \1', line),
    "repeated key": lambda draw, line: _resub(draw, line, r'"height": [0-9]+, ', r"\g<0>\g<0>"),
    "escaped image_id": lambda draw, line: line.replace('"image_id": "f"', r'"image_id": "\u0066"'),
    "other image_id": lambda draw, line: line.replace('"image_id": "f"', '"image_id": "g"'),
    "objectness": lambda draw, line: re.sub(r'(?<="objectness": )[0-9.]+', draw(st.sampled_from(
        ["1.000001", "-0.000000", "1", "0", "0.5000004", "0.4999996", "1.0000004", "0.5e0"])), line),
    "zero run after the first": _runs_edit(_zero_run),
    "run sum off by one": _runs_edit(_sum_off_by_one),
    "float run": _runs_edit(_float_run),
}
_FILE_EDITS = ["crlf", "blank line", "no final newline"]


@st.composite
def hostile_files(draw):
    """(text, edited): the lines that format_record writes for valid records,
    then maybe edited with hostile edits of lines and of line ends."""
    records, _ = draw(exchange_files())
    lines, ends = [format_record(r) for r in records], ["\n"] * len(records)
    edits = draw(st.lists(st.sampled_from(sorted(_LINE_EDITS) + _FILE_EDITS), max_size=3)) if records else []
    for edit in edits:
        k = draw(st.sampled_from([i for i, line in enumerate(lines) if line.strip()]))
        if edit == "crlf":
            ends[k] = "\r\n"
        elif edit == "blank line":
            lines.insert(k, draw(st.sampled_from(["", " \t"])))
            ends.insert(k, "\n")
        elif edit == "no final newline":
            ends[-1] = ""
        else:
            lines[k] = _LINE_EDITS[edit](draw, lines[k])
    return "".join(line + end for line, end in zip(lines, ends)), bool(edits)


_LINE_F = format_record(ProposalRecord("f", 2, 2, 0.5, (0, 4), tile_index=3)) + "\n"


@settings(max_examples=400, deadline=None)
@given(hostile_files())
# a run past int64 that numpy's parser would clamp to one that fits the canvas
@example((_BIG % (1, 2**63 - 1, "0, 9223372036854775808") + "\n", True))
@example((_BIG % (153092023, 60247241209, "0, 9223372036854775808") + "\n", True))
@example((_BIG % (1, 2**63 - 1, "0, 9223372036854775807") + "\n", True))
@example((_LINE_F + "\n" + _LINE_F, True))  # a blank line: the line numbers move
@example((_LINE_F + _LINE_F.rstrip("\n"), True))
@example((_LINE_F + _LINE_F.replace("\n", "\r\n") + _LINE_F, True))
@example((_LINE_F.replace("[0, 4]", "[0, 04]"), True))
@example((_LINE_F.replace('"width": 2', '"width": 02'), True))
@example((_LINE_F.replace('"tile_index": 3', f'"tile_index": {2**63}'), True))
@example((_LINE_F + _LINE_F.replace('"f"', '"g"'), True))
@example((_LINE_F.replace("0.500000", "0.5000004"), True))
@example((_LINE_F.replace("0.500000", "-0.000000"), True))
def test_one_pass_reader_matches_the_json_reader(tmp_path_factory, file):
    # read_proposals parses a canonical file in one pass and reads any other by
    # the JSON path: its columns, dtypes and bytes included, or its error message
    text, edited = file
    path = tmp_path_factory.mktemp("d") / "f.jsonl"
    path.write_bytes(text.encode("ascii"))
    want = _read(_by_json, path)
    assert _read(read_proposals, path) == want
    # format_record's lines of valid records, no value past 18 digits: no JSON decoding
    if text and not edited and not re.search("[0-9]{19}", text):
        assert exchange._canonical(text, "f") is not None
    if not isinstance(want, str):  # the rounding rule, from lines decoded here on their own
        docs = [json.loads(line) for line in text.split("\n") if line.strip(" \t\r")]
        objectness = np.array([round(float(doc["objectness"]), 6) + 0.0 for doc in docs])
        assert read_proposals(path).objectness.tobytes() == objectness.tobytes()


def _no_json(line):
    raise AssertionError(f"a line decoded as JSON: {line}")


def test_run_and_setup_files_read_without_json(tmp_path, monkeypatch):
    # every line that run and the exchange set-up write is canonical, so with
    # JSON decoding broken, run reads the exchange files and eval reads run's
    # outputs; a reader that fell back to JSON would fail here
    spec = importlib.util.spec_from_file_location(
        "exchange_setup", Path(__file__).resolve().parents[1] / "perfbench" / "exchange_setup.py")
    exchange_setup = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(exchange_setup)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--out", "scenes", "--count", "2", "--width", "320", "--height", "240"]) == 0
    exchange_setup.write_exchange("scenes", "exchange", 42)
    with monkeypatch.context() as patch:
        patch.setattr(exchange._DECODER, "decode", _no_json)
        for out, flags in (("tiled", []), ("whole", ["--mode", "whole"]), ("ex", ["--exchange", "exchange"])):
            assert cli.main(["run", "--scenes", "scenes", "--out", f"props_{out}", *flags]) == 0
            assert cli.main(["eval", "--scenes", "scenes", "--proposals", f"props_{out}", "--out", f"r_{out}"]) == 0
        files = sorted(tmp_path.glob("*/*.jsonl"))
        assert len(files) == 8 and all(len(read_proposals(path)) for path in files)
    for path in files:
        assert _columns(read_proposals(path)) == _columns(_by_json(path))


@pytest.mark.parametrize("line, fault", [
    (2, None),
    (2, "runs sum to 13, expected 4x3=12"),
    (3, "zero-length run after the first"),
])
@pytest.mark.parametrize("non_canonical", [
    lambda line: line.replace('"runs": [', '"runs":['),
    lambda line: line.replace(", ", ",\t"),
    lambda line: json.dumps(dict(reversed(json.loads(line).items()))),
])
def test_one_non_canonical_line_sends_the_file_to_json(tmp_path, line, fault, non_canonical):
    # one line that format_record would not write, valid or the first faulty line
    path = tmp_path / "img.jsonl"
    write_proposals(sample_records(), path)
    canonical = read_proposals(path)
    lines = path.read_text().split("\n")
    if fault == "zero-length run after the first":
        lines[line - 1] = lines[line - 1].replace("[0, 1, 2, 1]", "[0, 1, 0, 2, 1]")
    elif fault:
        lines[line - 1] = lines[line - 1].replace("[1, 2, 9]", "[1, 2, 10]")
    lines[line - 1] = non_canonical(lines[line - 1])
    path.write_text("\n".join(lines))
    if fault is None:
        assert _columns(read_proposals(path)) == _columns(canonical)
    else:
        with pytest.raises(ExchangeFormatError) as exc:
            read_proposals(path)
        assert str(exc.value) == f"{path}: line {line}: {fault}"


def test_one_pass_counts_runs_apart_from_the_pattern(tmp_path, monkeypatch):
    # np.fromstring reads "0, 4," as two integers: were the pattern to admit an
    # empty runs list, the count of commas would still send the file to JSON
    pattern = exchange._CANONICAL.pattern
    assert pattern.count(r"\[(") == pattern.count(r")*)\]") == 1
    pattern = pattern.replace(r"\[(", r"\[((?:").replace(r")*)\]", r")*)?)\]")
    monkeypatch.setattr(exchange, "_CANONICAL", re.compile(pattern, re.M))
    path = tmp_path / "f.jsonl"
    path.write_text(_LINE_F + _LINE_F.replace("[0, 4]", "[]"))
    with pytest.raises(ExchangeFormatError) as exc:
        read_proposals(path)
    assert str(exc.value) == f"{path}: line 2: runs must be non-empty"
