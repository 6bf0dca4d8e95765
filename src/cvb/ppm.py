"""Readers and writers for 8-bit PPM/PGM rasters (P2, P3, P5, P6).

Images are numpy uint8 arrays: (h, w) for grayscale, (h, w, 3) for color.
"""

from __future__ import annotations

import numpy as np

MAGIC_CHANNELS = {b"P2": 1, b"P3": 3, b"P5": 1, b"P6": 3}
PLAIN_MAGICS = (b"P2", b"P3")
# A plain raster body is decimal digits separated by whitespace, nothing else.
PLAIN_BODY_BYTES = b"0123456789 \t\n\r\v\f"


def _header_tokens(data: bytes, count: int):
    """First ``count`` whitespace-separated header tokens, skipping comments.

    Returns (tokens, offset just past the single whitespace byte that
    terminates the last token).
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
        pos += 1  # exactly one whitespace byte ends the final header token
    return tokens, pos


def read_image(path) -> np.ndarray:
    """Load a PPM/PGM file; grayscale gives (h, w), color gives (h, w, 3).

    Values are returned on a 0-255 scale whatever the file's maxval.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    (magic,), _ = _header_tokens(data, 1)
    if magic not in MAGIC_CHANNELS:
        raise ValueError(f"unsupported image magic {magic!r} (want P2/P3/P5/P6)")
    channels = MAGIC_CHANNELS[magic]
    tokens, offset = _header_tokens(data, 4)
    width, height, maxval = (int(t) for t in tokens[1:])
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
    header = b"%s\n%d %d\n255\n" % (magic, width, height)
    with open(path, "wb") as fh:
        fh.write(header)
        if plain:
            np.savetxt(fh, img.reshape(height, -1), fmt="%d")
        else:
            fh.write(img.tobytes())
