"""Readers and writers for 8-bit PPM/PGM rasters (P2, P3, P5, P6).

Images are numpy uint8 arrays: (h, w) for grayscale, (h, w, 3) for color.
"""

from __future__ import annotations

import re

import numpy as np

MAGIC_CHANNELS = {b"P2": 1, b"P3": 3, b"P5": 1, b"P6": 3}
PLAIN_MAGICS = (b"P2", b"P3")
# A plain raster body is decimal digits separated by whitespace, nothing else.
PLAIN_BODY_BYTES = b"0123456789 \t\n\r\v\f"
# One header token, after any whitespace and "#" comments (a comment runs to
# the end of its line), and the one whitespace byte that may end it.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]\S*)\s?")
# The plain writer gives each value a 4-byte slot, its three decimal digits
# and a separator, looked up as one uint32 per value; a mask of the same
# layout drops the leading zeros.  It writes a band of _PLAIN_BAND values at
# a time, through buffers of at most 64 KiB (the band's indices as intp, which
# np.take would otherwise convert afresh each call) that stay below glibc's
# 128 KiB mmap threshold, so a write leaves the heap's layout as it found it.
_PLAIN_BAND = 8192
_SLOTS = np.array([[48 + v // 100, 48 + v // 10 % 10, 48 + v % 10, 32] for v in range(256)], np.uint8)
_SLOTS = _SLOTS.view(np.uint32).ravel()
_DIGITS_KEPT = np.array([[v >= 100, v >= 10, True, True] for v in range(256)]).view(np.uint32).ravel()


def _header(data: bytes):
    """The magic, width, height and maxval tokens, and the offset of the raster.

    The magic is checked before a short header is called truncated.
    """
    tokens, offset = [], 0
    while len(tokens) < 4 and (match := _HEADER_TOKEN.match(data, offset)):
        tokens.append(match[1])
        offset = match.end()
    if tokens and tokens[0] not in MAGIC_CHANNELS:
        raise ValueError(f"unsupported image magic {tokens[0]!r} (want P2/P3/P5/P6)")
    if len(tokens) < 4:
        raise ValueError("truncated image header")
    return tokens, offset


def read_image(path) -> np.ndarray:
    """Load a PPM/PGM file; grayscale gives (h, w), color gives (h, w, 3).

    Values are returned on a 0-255 scale whatever the file's maxval.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    (magic, *values), offset = _header(data)
    channels = MAGIC_CHANNELS[magic]
    # the plain body's rule: decimal digits only, so no sign and no "1_0"
    if not all(t.isdigit() for t in values):
        raise ValueError(f"image header values must be decimal digits, got {b' '.join(values)!r}")
    width, height, maxval = (int(t) for t in values)
    if width < 1 or height < 1:
        raise ValueError(f"bad image dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise ValueError(f"only 8-bit images supported, got maxval {maxval}")

    count = width * height * channels
    if magic in PLAIN_MAGICS:
        body = data[offset:]
        stray = body.translate(None, PLAIN_BODY_BYTES)
        if stray:
            raise ValueError(f"plain raster holds {stray[:1]!r}; only digits and whitespace are allowed")
        # digits-only tokens parse exactly (a too-long one saturates and fails
        # the range check); a blank body would read as one bogus value
        flat = np.fromstring(body, dtype=np.int64, sep=" ") if body.strip() else np.empty(0, np.int64)
        if flat.size != count:
            raise ValueError(f"expected {count} pixel values, found {flat.size}")
    else:
        raster = data[offset : offset + count]
        if len(raster) != count:
            raise ValueError(f"expected {count} raster bytes, found {len(raster)}")
        flat = np.frombuffer(raster, dtype=np.uint8).astype(np.int64)
    if flat.min(initial=0) < 0 or flat.max(initial=0) > maxval:
        raise ValueError(f"pixel values must lie in [0, {maxval}]")
    if maxval != 255:
        # images are held at maxval 255 (what write_image writes): rescale, rounding half up
        flat = (flat * 255 + maxval // 2) // maxval
    img = flat.astype(np.uint8).reshape(
        (height, width) if channels == 1 else (height, width, 3)
    )
    return img


def write_image(path, img, plain: bool = False) -> None:
    """Write a uint8 image as PGM (2-D input) or PPM (h, w, 3 input).

    Binary output (P5/P6) is canonical; ``plain`` selects the ASCII variants.
    """
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError(f"image must be uint8, got {img.dtype}")
    if img.ndim == 3 and img.shape[2] == 3:
        magic = b"P3" if plain else b"P6"
    elif img.ndim == 2:
        magic = b"P2" if plain else b"P5"
    else:
        raise ValueError(f"image must be (h, w) or (h, w, 3), got shape {img.shape}")
    height, width = img.shape[:2]
    if width < 1 or height < 1:
        raise ValueError(f"bad image dimensions {width}x{height}")
    header = b"%s\n%d %d\n255\n" % (magic, width, height)
    with open(path, "wb") as fh:
        fh.write(header)
        if plain:
            _write_plain(fh, img)
        else:
            fh.write(img.tobytes())


def _write_plain(fh, img):
    """The plain raster: one line per image row, its values separated by one space.

    The bytes are those of ``np.savetxt(fh, img.reshape(height, -1), fmt="%d")``.
    """
    values = img.reshape(-1)
    row = values.size // img.shape[0]
    index = np.empty(min(_PLAIN_BAND, values.size), np.intp)
    slots, kept = np.empty(index.size, np.uint32), np.empty(index.size, np.uint32)
    for start in range(0, values.size, index.size):
        n = min(index.size, values.size - start)
        np.copyto(index[:n], values[start : start + n])
        np.take(_SLOTS, index[:n], out=slots[:n], mode="clip")
        np.take(_DIGITS_KEPT, index[:n], out=kept[:n], mode="clip")
        chars = slots[:n].view(np.uint8)
        # the last value of each row ends its line
        chars[4 * ((-start - 1) % row) + 3 :: 4 * row] = ord("\n")
        fh.write(chars[kept[:n].view(bool)])
