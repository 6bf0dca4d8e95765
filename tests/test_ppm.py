"""PPM/PGM raster round trips."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cvb.ppm import _PLAIN_BAND, MAGIC_CHANNELS, _header, read_image, write_image


def header_tokens(data: bytes, count: int):
    """Oracle: a byte-at-a-time header scan.

    Returns the first ``count`` whitespace-separated tokens, skipping
    comments, and the offset just past the single whitespace byte that
    terminates the last token (one past the end at EOF).
    """
    tokens = []
    pos = 0
    while len(tokens) < count:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if pos == start:
            raise ValueError("truncated image header")
        tokens.append(data[start:pos])
        pos += 1
    return tokens, pos


def oracle_header(data: bytes):
    """The magic alone first, so a bad magic is named before a short header."""
    (magic,), _ = header_tokens(data, 1)
    if magic not in MAGIC_CHANNELS:
        raise ValueError(f"unsupported image magic {magic!r} (want P2/P3/P5/P6)")
    return header_tokens(data, 4)


@pytest.fixture
def color(tmp_path):
    rng = np.random.default_rng(0)
    return rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)


@pytest.fixture
def gray():
    rng = np.random.default_rng(1)
    return rng.integers(0, 256, size=(4, 6), dtype=np.uint8)


def test_binary_color_round_trip(tmp_path, color):
    path = tmp_path / "img.ppm"
    write_image(path, color)
    assert np.array_equal(read_image(path), color)


def test_binary_gray_round_trip(tmp_path, gray):
    path = tmp_path / "img.pgm"
    write_image(path, gray)
    assert np.array_equal(read_image(path), gray)


def test_plain_color_round_trip(tmp_path, color):
    path = tmp_path / "img.ppm"
    write_image(path, color, plain=True)
    assert path.read_bytes().startswith(b"P3")
    assert np.array_equal(read_image(path), color)


def test_plain_gray_round_trip(tmp_path, gray):
    path = tmp_path / "img.pgm"
    write_image(path, gray, plain=True)
    assert path.read_bytes().startswith(b"P2")
    assert np.array_equal(read_image(path), gray)


def test_plain_writer_bytes_are_pinned(tmp_path):
    gray = np.array([[0, 7, 255], [10, 200, 99]], dtype=np.uint8)
    color = np.array([[[255, 0, 1], [2, 30, 128]]], dtype=np.uint8)
    write_image(tmp_path / "g.pgm", gray, plain=True)
    write_image(tmp_path / "c.ppm", color, plain=True)
    assert (tmp_path / "g.pgm").read_bytes() == b"P2\n3 2\n255\n0 7 255\n10 200 99\n"
    assert (tmp_path / "c.ppm").read_bytes() == b"P3\n2 1\n255\n255 0 1 2 30 128\n"


def test_write_read_write_is_byte_stable(tmp_path, color):
    a = tmp_path / "a.ppm"
    b = tmp_path / "b.ppm"
    write_image(a, color)
    write_image(b, read_image(a))
    assert a.read_bytes() == b.read_bytes()


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n# a comment\n2 2\n# another\n255\n0 64\n128 255\n")
    img = read_image(path)
    assert img.tolist() == [[0, 64], [128, 255]]


def test_binary_raster_may_contain_whitespace_bytes(tmp_path):
    path = tmp_path / "img.pgm"
    raster = bytes([10, 32, 13, 9])  # newline, space, CR, tab as pixel values
    path.write_bytes(b"P5\n2 2\n255\n" + raster)
    assert read_image(path).tolist() == [[10, 32], [13, 9]]


def test_rejects_unknown_magic(tmp_path):
    path = tmp_path / "img.x"
    path.write_bytes(b"P7\n1 1\n255\n\x00")
    with pytest.raises(ValueError):
        read_image(path)


def test_rejects_zero_dimensions(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n0 0\n255\n")
    with pytest.raises(ValueError, match="bad image dimensions 0x0"):
        read_image(path)


def test_rejects_sixteen_bit(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n1 1\n65535\n1000\n")
    with pytest.raises(ValueError):
        read_image(path)


def test_rejects_truncated_raster(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n2 2\n255\n\x00\x01")
    with pytest.raises(ValueError):
        read_image(path)


def test_rejects_value_above_maxval(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n1 1\n100\n101\n")
    with pytest.raises(ValueError):
        read_image(path)


def test_plain_body_may_mix_whitespace(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n3 2\n255\n0\t1\r\n 2\r\r3\n\n4\x0b\x0c5 \t\n")
    assert read_image(path).tolist() == [[0, 1, 2], [3, 4, 5]]


@pytest.mark.parametrize("body", [
    b"1 x 3 4",  # non-numeric token
    b"1 2 # comment\n3 4",  # comments are allowed in the header only
    b"1 +2 3 4",  # sign: int() took it, netpbm does not
    b"1 2_0 3 4",  # digit grouping: int() took it, netpbm does not
    b"1 -2 3 4",
    b"1 2.0 3 4",
    b"1 2 3",  # too few
    b"1 2 3 4 5",  # too many
    b"  \n",  # none at all
    b"1 2 3 99999999999999999999",  # beyond int64
])
def test_plain_rejects_malformed_body(tmp_path, body):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n2 2\n255\n" + body)
    with pytest.raises(ValueError):
        read_image(path)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(0, 255), min_size=1, max_size=40),
       seps=st.lists(st.text(alphabet=" \t\r\n\x0b\x0c", min_size=1, max_size=3), min_size=41, max_size=41),
       zeros=st.integers(0, 2))
def test_plain_parse_agrees_with_per_token_int(tmp_path_factory, values, seps, zeros):
    tokens = ["0" * zeros + str(v) for v in values]
    body = seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))
    path = tmp_path_factory.mktemp("plain") / "img.pgm"
    path.write_bytes(b"P2\n%d 1\n255\n" % len(values) + body.encode("ascii"))
    assert read_image(path)[0].tolist() == [int(t) for t in body.split()]


def savetxt_body(img):
    """Oracle: the plain raster as numpy's text writer renders one image row per line."""
    buffer = io.BytesIO()
    np.savetxt(buffer, img.reshape(img.shape[0], -1), fmt="%d")
    return buffer.getvalue()


# widths around one band of values per line, for gray and RGB rows
BAND_WIDTHS = sorted({_PLAIN_BAND - 1, _PLAIN_BAND, _PLAIN_BAND + 1, _PLAIN_BAND // 3, _PLAIN_BAND // 3 + 1})


@st.composite
def rasters(draw):
    """(h, w) or (h, w, 3) uint8 images of up to a little over two bands of values."""
    channels = draw(st.sampled_from([1, 3]))
    width = draw(st.one_of(st.integers(1, 12), st.sampled_from(BAND_WIDTHS)))
    height = draw(st.integers(1, 2 * _PLAIN_BAND // (width * channels) + 2))
    shape = (height, width) if channels == 1 else (height, width, 3)
    img = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 256, size=shape, dtype=np.uint8)
    # every digit count, and both ends of the range, at the start of the raster
    img.flat[: min(img.size, 6)] = [0, 9, 10, 99, 100, 255][: min(img.size, 6)]
    return img


@settings(max_examples=40, deadline=None)
@given(img=rasters())
@example(img=np.full((1, 1), 7, dtype=np.uint8))
@example(img=(np.arange(3 * (_PLAIN_BAND // 3 + 2)) % 256).astype(np.uint8).reshape(-1, 1, 3))  # a band ends mid-pixel
@example(img=np.full((3, _PLAIN_BAND + 1), 100, dtype=np.uint8))  # a line wider than a band
def test_plain_writer_matches_savetxt(tmp_path_factory, img):
    path = tmp_path_factory.mktemp("plain") / "img.ppm"
    write_image(path, img, plain=True)
    height, width = img.shape[:2]
    magic = b"P2" if img.ndim == 2 else b"P3"
    assert path.read_bytes() == b"%s\n%d %d\n255\n" % (magic, width, height) + savetxt_body(img)


def test_plain_writer_memory_is_bounded_by_its_band(tmp_path):
    # a few 64 KiB buffers, none at glibc's 128 KiB mmap threshold, whatever the raster's size
    img = np.random.default_rng(5).integers(0, 256, size=(480, 640, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    tracemalloc.start()
    try:
        write_image(path, img, plain=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert path.read_bytes().endswith(savetxt_body(img))


@pytest.mark.parametrize("plain", [False, True])
@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0, 3), (2, 0, 3)])
def test_rejects_an_empty_image(tmp_path, plain, shape):
    # read_image refuses such a file, so it is not written
    path = tmp_path / "img.ppm"
    with pytest.raises(ValueError, match=r"^bad image dimensions \d+x\d+$"):
        write_image(path, np.zeros(shape, dtype=np.uint8), plain=plain)
    assert not path.exists()


def test_rejects_wrong_dtype():
    with pytest.raises(ValueError):
        write_image("/tmp/never-written.ppm", np.zeros((2, 2), dtype=np.float64))


def test_rejects_two_channels(tmp_path):
    path = tmp_path / "img.ppm"
    with pytest.raises(ValueError, match=r"image must be \(h, w\) or \(h, w, 3\), got shape \(2, 2, 2\)"):
        write_image(path, np.zeros((2, 2, 2), dtype=np.uint8))
    assert not path.exists()


HEADER_BYTES = st.sampled_from([bytes([b]) for b in b" \t\n\r\x0b\x0c#0123456789P\x00\xff"])


def _outcome(scan, data):
    try:
        return scan(data)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(start=st.sampled_from([b"", b"P2", b"P3 ", b"P5\n", b"P6#", b"P7 "]),
       rest=st.lists(HEADER_BYTES, max_size=40).map(b"".join))
@example(start=b"P5", rest=b" 1 2 3")  # the last token ends at EOF
@example(start=b"P6", rest=b"\n#c\r1\x0b2\x0c# x\n 3 \xff")  # a comment ends at CR or LF
@example(start=b"P5", rest=b" 1 2 #c")  # a comment runs to EOF
def test_header_scan_agrees_with_the_byte_loop(start, rest):
    data = start + rest
    got, expect = _outcome(_header, data), _outcome(oracle_header, data)
    if isinstance(expect, str):
        assert got == expect
    else:
        (tokens, offset), (oracle_tokens, oracle_offset) = got, expect
        assert tokens == oracle_tokens
        # the loop steps one past the end when the last token ends at EOF
        assert offset == min(oracle_offset, len(data))


@pytest.mark.parametrize("magic", [b"P2", b"P5"])
def test_low_maxval_is_rescaled_and_round_trips(tmp_path, magic):
    values = list(range(16))
    body = " ".join(map(str, values)).encode() if magic == b"P2" else bytes(values)
    src = tmp_path / "in.pgm"
    src.write_bytes(magic + b"\n16 1\n15\n" + body)
    img = read_image(src)
    # 15 is full scale: it must come back as 255, not 15/255 of it
    assert img[0].tolist() == [(v * 255 + 7) // 15 for v in values] == [17 * v for v in values]
    dst = tmp_path / "out.pgm"
    write_image(dst, img)
    assert dst.read_bytes() == b"P5\n16 1\n255\n" + bytes(17 * v for v in values)
    assert np.array_equal(read_image(dst), img)


@pytest.mark.parametrize("maxval", [1, 2, 7, 100, 128, 254])
def test_rescale_rounds_half_up_for_every_value(tmp_path, maxval):
    values = list(range(maxval + 1))
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P3\n%d 1\n%d\n" % (len(values), maxval)
                     + " ".join(f"{v} {v} {v}" for v in values).encode())
    expect = [int(math.floor(v * 255 / maxval + 0.5)) for v in values]
    assert read_image(path)[0, :, 0].tolist() == expect
    assert expect[0] == 0 and expect[-1] == 255


@pytest.mark.parametrize("magic, plain", [(b"P5", False), (b"P6", False), (b"P2", True), (b"P3", True)])
def test_maxval_255_files_are_byte_identical_after_round_trip(tmp_path, magic, plain):
    rng = np.random.default_rng(4)
    shape = (3, 5) if magic in (b"P2", b"P5") else (3, 5, 3)
    img = rng.integers(0, 256, size=shape, dtype=np.uint8)
    a, b = tmp_path / "a.img", tmp_path / "b.img"
    write_image(a, img, plain=plain)
    assert a.read_bytes().startswith(magic)
    write_image(b, read_image(a), plain=plain)
    assert a.read_bytes() == b.read_bytes()
