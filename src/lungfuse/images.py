"""Grayscale image model, 16-bit PGM I/O, gradient magnitude, JSON files.

Images are plain 2D float64 arrays in row-major order (index [y, x],
y increasing downward), intensities nominally in [0, 1].
"""

from __future__ import annotations

import json
import mmap
import re

import numpy as np

from .errors import ContractError, FormatError, in_file

PGM_MAXVAL = 65535


def as_image(data) -> np.ndarray:
    """Validate and coerce to a 2D float64 image array.

    Raises ContractError on wrong rank, empty axes, or non-finite values.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ContractError(f"image must be 2D, got {arr.ndim}D")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ContractError(f"image axes must be >= 1, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractError("image contains NaN or Inf")
    return arr


def as_image_pair(a, b):
    """Two images of one shape, each checked by as_image."""
    a, b = as_image(a), as_image(b)
    if a.shape != b.shape:
        raise ContractError(f"dimension mismatch {a.shape} vs {b.shape}")
    return a, b


# whitespace and '#' comments to the end of a line separate the header's
# fields; the group is the field, empty only at the end of the file
_PGM_FIELD = re.compile(rb"(?:[ \t\r\n]|#[^\n]*(?:\n|\Z))*([^ \t\r\n]*)")


def pgm_shape(buf: bytes) -> tuple:
    """(height, width, payload offset) of a binary PGM's bytes (P5, maxval 65535),
    refused unless the header is valid and the payload holds every pixel and nothing after."""
    if buf[:2] != b"P5":
        raise FormatError(f"not a binary PGM (magic {buf[:2]!r})", offset=0)
    pos, values = 2, []
    for what in ("width", "height", "maxval"):
        m = _PGM_FIELD.match(buf, pos)
        if not m[1]:
            raise FormatError("unexpected end of PGM header", offset=m.start(1))
        if not m[1].isdigit():
            raise FormatError(f"invalid {what} {m[1]!r} in PGM header", offset=m.start(1))
        values.append(int(m[1]))
        maxval_at, pos = pos, m.end()  # maxval's offset is before its separators
    width, height, maxval = values
    if width < 1 or height < 1:
        raise FormatError(f"zero or negative dimension {width}x{height}", offset=3)
    if maxval != PGM_MAXVAL:
        raise FormatError(f"unsupported maxval {maxval}, expected {PGM_MAXVAL}", offset=maxval_at)
    # exactly one whitespace byte separates the header from the payload; a
    # field ends at whitespace or at the end of the file
    if pos == len(buf):
        raise FormatError("missing separator before pixel payload", offset=pos)
    payload_at = pos + 1
    need, have = width * height * 2, len(buf) - payload_at
    if have != need:
        what = "truncated payload" if have < need else "trailing bytes after the last pixel"
        raise FormatError(f"{what}: need {need} bytes, have {have}",
                          offset=payload_at + min(have, need))
    return height, width, payload_at


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 65535, big-endian 16-bit) as floats in [0,1]."""
    with open(path, "rb") as fh, in_file(path):
        buf = fh.read()
        height, width, at = pgm_shape(buf)
    raw = np.frombuffer(buf, dtype=">u2", offset=at).reshape(height, width)
    return raw.astype(np.float64) / PGM_MAXVAL


def pgm_file_shape(path) -> tuple:
    """pgm_shape of a PGM file, mapped rather than read, so that its pixels stay unread."""
    with open(path, "rb") as fh, in_file(path):
        if not fh.seek(0, 2):  # the file's size: an empty file cannot be mapped
            return pgm_shape(b"")
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as buf:
            return pgm_shape(buf)


def write_pgm(img, path) -> None:
    """Write image to binary PGM; values must lie in [0,1], encoded round(v*65535)."""
    arr = as_image(img)
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ContractError(
            f"pixel values outside [0,1]: range [{arr.min():.6g}, {arr.max():.6g}]"
        )
    quant = np.rint(arr * PGM_MAXVAL).astype(">u2")
    h, w = arr.shape
    header = f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quant.tobytes())


def gradient_magnitude(img) -> np.ndarray:
    """Central-difference gradient magnitude (one-sided at the borders).

    Useful as a registration feature across modalities: tissue
    boundaries coincide between scans even when intensities do not.
    """
    arr = as_image(img)
    gy, gx = np.gradient(arr)
    return np.hypot(gx, gy)


def read_json(path, what: str, error=FormatError, encoding: str = "utf-8"):
    """The JSON document at path; error names `what` when it does not parse."""
    with open(path, encoding=encoding) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise error(f"{what} is not valid JSON: {exc}") from None


def write_json(path, doc) -> None:
    """Write doc as JSON with one-space indent and sorted keys, newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
