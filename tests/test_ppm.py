"""PPM/PGM raster round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvb.ppm import read_image, write_image


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


def test_rejects_wrong_dtype():
    with pytest.raises(ValueError):
        write_image("/tmp/never-written.ppm", np.zeros((2, 2), dtype=np.float64))
