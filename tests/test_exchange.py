import pytest

from smallprop.detector import Proposal
from smallprop.exchange import (
    ExchangeFormatError,
    ProposalRecord,
    format_record,
    read_proposals,
    record_from_proposal,
    write_proposals,
)
from oracles import rect_mask


def sample_records():
    return [
        ProposalRecord("img_a", 4, 3, 0.9, (0, 12)),
        ProposalRecord("img_a", 4, 3, 0.25, (1, 2, 9), tile_index=3),
        ProposalRecord("img_b", 2, 2, 1.0, (0, 1, 2, 1)),
    ]


def test_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_proposals([], path)
    assert path.read_bytes() == b""
    assert read_proposals(path) == []


def test_roundtrip_identity_and_byte_stability(tmp_path):
    records = sample_records()
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_proposals(records, p1)
    again = read_proposals(p1)
    assert again == records
    write_proposals(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_file_order_preserved(tmp_path):
    records = sample_records()
    path = tmp_path / "o.jsonl"
    write_proposals(records, path)
    assert [r.image_id for r in read_proposals(path)] == ["img_a", "img_a", "img_b"]


def test_canonical_line_format():
    line = format_record(ProposalRecord("s", 2, 2, 0.5, (0, 1, 2, 1), tile_index=7))
    assert line == (
        '{"image_id": "s", "tile_index": 7, "width": 2, "height": 2, '
        '"objectness": 0.500000, "runs": [0, 1, 2, 1]}'
    )
    line = format_record(ProposalRecord("s", 2, 2, 1.0, (4,)))
    assert line == '{"image_id": "s", "width": 2, "height": 2, "objectness": 1.000000, "runs": [4]}'


def test_objectness_quantized_to_wire_precision():
    rec = ProposalRecord("s", 2, 2, 0.12345678, (0, 4))
    assert rec.objectness == 0.123457
    assert record_from_proposal("s", Proposal(rect_mask(4, 4, 0, 0, 2, 2), 1 / 3)).objectness == 0.333333


def test_objectness_out_of_range(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"image_id": "x", "width": 2, "height": 2, "objectness": 1.5, "runs": [4]}\n')
    with pytest.raises(ExchangeFormatError, match="line 1"):
        read_proposals(path)


def test_run_sum_mismatch_is_corruption(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [4]}\n'
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [5]}\n'
    )
    with pytest.raises(ExchangeFormatError, match="line 2"):
        read_proposals(path)


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [4]}\n'
        "{not json}\n"
    )
    with pytest.raises(ExchangeFormatError, match="line 2"):
        read_proposals(path)


@pytest.mark.parametrize(
    "line",
    [
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5}',
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [4], "extra": 1}',
        '{"image_id": 3, "width": 2, "height": 2, "objectness": 0.5, "runs": [4]}',
        '{"image_id": "x", "width": "2", "height": 2, "objectness": 0.5, "runs": [4]}',
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [4.0]}',
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [true, 3]}',
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": ["4"]}',
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [[4]]}',
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [null]}',
        '[1, 2]',
        # only "\n" ends a line; the other breaks of str.splitlines() stay inside it
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [4]}\x0c'
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [4]}',
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [4]}\x0b'
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [4]}',
        '{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [4]}\x1c{not json}',
        '\x0c',
        # a repeated key would otherwise keep only its last value
        '{"image_id": "y", "image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [4]}',
        # beyond Python's int-string digit limit, a ValueError that is not a JSONDecodeError
        pytest.param('{"image_id": "x", "width": ' + "1" * 5000 + ', "height": 2, "objectness": 0.5, "runs": [4]}',
                     id="int-beyond-digit-limit"),
    ],
)
def test_schema_violations_rejected(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ExchangeFormatError) as exc:
        read_proposals(path)
    assert str(exc.value).startswith(f"{path}: line 1: ")


def test_non_ascii_byte_names_file_and_line(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_bytes(format_record(sample_records()[0]).encode() + b"\n\xff\n")
    with pytest.raises(ExchangeFormatError) as exc:
        read_proposals(path)
    assert str(exc.value) == f"{path}: line 2: non-ASCII byte 0xff"


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "g.jsonl"
    path.write_text('\n{"image_id": "x", "width": 2, "height": 2, "objectness": 0.5, "runs": [4]}\n\n')
    assert len(read_proposals(path)) == 1


def test_crlf_lines_parse(tmp_path):
    path = tmp_path / "crlf.jsonl"
    lines = [format_record(r) for r in sample_records()]
    path.write_bytes(("\r\n".join(lines[:2]) + "\r\n \t\r\n" + lines[2] + "\r\n").encode())
    assert read_proposals(path) == sample_records()


def test_large_roundtrip_bytes(tmp_path):
    records = [
        ProposalRecord(f"img_{i % 7}", 32, 24, (i % 100) / 100, rect_mask(32, 24, i % 20, i % 12, 5, 5).runs)
        for i in range(500)
    ]
    p1 = tmp_path / "big1.jsonl"
    p2 = tmp_path / "big2.jsonl"
    write_proposals(records, p1)
    write_proposals(read_proposals(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
