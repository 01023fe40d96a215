import math

import pytest
from hypothesis import given, settings, strategies as st

from smallprop.detector import Proposal
from smallprop.exchange import (
    ExchangeFormatError,
    ProposalRecord,
    format_record,
    read_proposals,
    write_proposals,
)
from smallprop.masks import BinaryMask
from oracles import rect_mask

LINE = '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [0, 4]}'


def sample_records(image_id="img"):
    return [
        ProposalRecord(image_id, 4, 3, 0.9, (0, 12)),
        ProposalRecord(image_id, 4, 3, 0.25, (1, 2, 9), tile_index=3),
        ProposalRecord(image_id, 2, 2, 1.0, (0, 1, 2, 1)),
    ]


def read_back(records, linenos=None):
    """What the reader yields for each record: its line number (one record a
    line unless ``linenos`` says otherwise), tile index and proposal."""
    return [(n, r.tile_index, Proposal(BinaryMask(r.width, r.height, r.runs), r.objectness))
            for n, r in zip(linenos or range(1, len(records) + 1), records)]


def as_record(image_id, lineno, tile_index, proposal):
    m = proposal.mask
    return ProposalRecord(image_id, m.width, m.height, proposal.objectness, m.runs, tile_index)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_proposals([], path)
    assert path.read_bytes() == b""
    assert read_proposals(path) == []


def test_roundtrip_identity_and_byte_stability(tmp_path):
    records = sample_records()
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1 = tmp_path / "a" / "img.jsonl"
    p2 = tmp_path / "b" / "img.jsonl"
    write_proposals(records, p1)
    again = read_proposals(p1)
    assert again == read_back(records)
    write_proposals([as_record("img", *line) for line in again], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_file_order_preserved(tmp_path):
    path = tmp_path / "img.jsonl"
    write_proposals(sample_records(), path)
    assert [(n, t, p.objectness) for n, t, p in read_proposals(path)] == [(1, None, 0.9), (2, 3, 0.25), (3, None, 1.0)]


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
    assert [p.objectness for _, _, p in read_proposals(path)] == [0.123457, 0.333333]


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_writer_and_reader_quantize_alike(tmp_path_factory, x):
    # the writer only formats and the reader only rounds; both give round(x, 6)
    path = tmp_path_factory.mktemp("q") / "q.jsonl"
    write_proposals([ProposalRecord("q", 1, 1, x, (0, 1))], path)
    assert path.read_text() == f'{{"image_id": "q", "width": 1, "height": 1, "objectness": {round(x, 6):.6f}, "runs": [0, 1]}}\n'
    ((_, _, proposal),) = read_proposals(path)
    assert proposal.objectness == round(x, 6)


@pytest.mark.parametrize("objectness", ["-0.0", "-0.0000001", "-0"])
def test_negative_zero_objectness_reads_as_zero(tmp_path, objectness):
    path = tmp_path / "x.jsonl"
    path.write_text(LINE.replace("0.5", objectness) + "\n")
    ((_, _, proposal),) = read_proposals(path)
    assert proposal.objectness == 0.0 and math.copysign(1.0, proposal.objectness) == 1.0


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
    ((lineno, _, _),) = read_proposals(path)
    assert lineno == 2  # blank lines are skipped but still counted


def test_crlf_lines_parse(tmp_path):
    path = tmp_path / "img.jsonl"
    lines = [format_record(r) for r in sample_records()]
    path.write_bytes(("\r\n".join(lines[:2]) + "\r\n \t\r\n" + lines[2] + "\r\n").encode())
    assert read_proposals(path) == read_back(sample_records(), linenos=(1, 2, 4))


def test_large_roundtrip_bytes(tmp_path):
    records = [
        ProposalRecord("img", 32, 24, (i % 100) / 100, rect_mask(32, 24, i % 20, i % 12, 5, 5).runs,
                       i % 7 if i % 3 else None)
        for i in range(500)
    ]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1 = tmp_path / "a" / "img.jsonl"
    p2 = tmp_path / "b" / "img.jsonl"
    write_proposals(records, p1)
    write_proposals([as_record("img", *line) for line in read_proposals(p1)], p2)
    assert p1.read_bytes() == p2.read_bytes()
