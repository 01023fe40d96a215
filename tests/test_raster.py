import numpy as np
import pytest

from smallprop import raster
from smallprop.raster import PnmFormatError, RasterImage, pnm_shape, read_pnm, write_pnm


def test_ppm_roundtrip_bytes(tmp_path):
    rng = np.random.default_rng(0)
    img = RasterImage(rng.integers(0, 256, (7, 5, 3), dtype=np.uint8))
    path = tmp_path / "a.ppm"
    write_pnm(img, path)
    again = read_pnm(path)
    assert np.array_equal(again.pixels, img.pixels)
    write_pnm(again, tmp_path / "b.ppm")
    assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()


def test_pgm16_big_endian_payload(tmp_path):
    img = RasterImage(np.array([[0x0102, 0xFFEE]], dtype=np.uint16))
    path = tmp_path / "g16.pgm"
    write_pnm(img, path)
    data = path.read_bytes()
    assert data == b"P5 2 1 65535\n\x01\x02\xff\xee"
    assert np.array_equal(read_pnm(path).pixels, img.pixels)


def test_header_is_canonical(tmp_path):
    img = RasterImage(np.zeros((2, 3), dtype=np.uint16))
    write_pnm(img, tmp_path / "z.pgm")
    assert (tmp_path / "z.pgm").read_bytes().startswith(b"P5 3 2 65535\n")


MALFORMED = [
    (b"P4 2 2 255\n" + b"\x00" * 4, "unsupported magic b'P4'"),
    (b"P5 2 2 254\n" + b"\x00" * 4, "unsupported P5 maxval 254"),
    (b"P5 2 2 255\n" + b"\x00" * 4, "unsupported P5 maxval 255"),  # 8-bit gray
    (b"P6 2 2 65535\n" + b"\x00" * 24, "unsupported P6 maxval 65535"),  # 16-bit RGB
    (b"P5 2 2 65535\n" + b"\x00" * 7, "payload is 7 bytes, expected 8"),  # short payload
    (b"P5 320 240 65535\n" + b"\x00" * 83, "payload is 83 bytes, expected 153600"),  # truncated
    (b"P5 2 2 65535\n" + b"\x00" * 9, "payload is 9 bytes, expected 8"),  # trailing bytes
    (b"P5 2 2\n", "truncated header"),
    (b"P6 x 2 255\n" + b"\x00" * 12, "non-numeric header token b'x'"),
    (b"", "truncated header"),
    (b"P5 2 2 65535", "missing whitespace after maxval"),
]


@pytest.mark.parametrize("payload, error", MALFORMED)
def test_malformed_files_rejected(tmp_path, payload, error):
    path = tmp_path / "bad.pnm"
    path.write_bytes(payload)
    with pytest.raises(PnmFormatError) as exc:
        read_pnm(path)
    assert str(exc.value) == f"{path}: {error}"  # every format error names the file


@pytest.mark.parametrize("payload, error", MALFORMED)
def test_header_check_rejects_as_read_pnm(tmp_path, payload, error):
    path = tmp_path / "bad.pnm"
    path.write_bytes(payload)
    with pytest.raises(PnmFormatError) as exc:
        pnm_shape(path)
    assert str(exc.value) == f"{path}: {error}"


def test_header_gives_pixel_shape(tmp_path):
    for pixels in (np.zeros((2, 3), dtype=np.uint16), np.zeros((4, 5, 3), dtype=np.uint8)):
        write_pnm(RasterImage(pixels), tmp_path / "a.pnm")
        assert pnm_shape(tmp_path / "a.pnm") == pixels.shape == read_pnm(tmp_path / "a.pnm").pixels.shape
    # a header longer than a memory page
    (tmp_path / "b.pnm").write_bytes(b"P5" + b" " * 5000 + b"2\n1 65535\n" + b"\x00\x07" * 2)
    assert pnm_shape(tmp_path / "b.pnm") == (1, 2) == read_pnm(tmp_path / "b.pnm").pixels.shape


def test_file_shrinking_after_its_header_check(tmp_path, monkeypatch):
    path = tmp_path / "g.pgm"
    write_pnm(RasterImage(np.zeros((2, 2), dtype=np.uint16)), path)
    checked = raster._header

    def check_then_truncate(f, name):
        found = checked(f, name)
        path.write_bytes(path.read_bytes()[:-1])
        return found

    monkeypatch.setattr(raster, "_header", check_then_truncate)
    with pytest.raises(PnmFormatError) as exc:
        read_pnm(path)
    assert str(exc.value) == f"{path}: file shrank while it was read"

def test_image_validation():
    with pytest.raises(ValueError):
        RasterImage(np.zeros((2, 2, 3), dtype=np.uint16))  # rgb must be 8-bit
    with pytest.raises(ValueError):
        RasterImage(np.zeros((2, 2), dtype=np.uint8))  # gray must be 16-bit
    with pytest.raises(ValueError):
        RasterImage(np.zeros((2, 2, 2), dtype=np.uint8))  # bad channel count


def test_samples_layout():
    img = RasterImage(np.arange(12, dtype=np.uint8).reshape(2, 2, 3))
    # the PPM payload order: rows top to bottom, pixels left to right, R G B
    assert img.pixels.tobytes() == bytes(range(12))
    assert img.width == 2 and img.height == 2 and img.channels == 3
