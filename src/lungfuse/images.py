"""Grayscale image model, 16-bit PGM I/O, gradient magnitude, JSON files.

Images are plain 2D float64 arrays in row-major order (index [y, x],
y increasing downward), intensities nominally in [0, 1].
"""

from __future__ import annotations

import json
import re

import numpy as np

from .errors import ContractError, FormatError

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


class _PgmScanner:
    """Tokenizer over PGM header bytes, tracking byte offsets for errors."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def skip_separators(self):
        # whitespace and '#' comments are legal separators in the header
        while self.pos < len(self.buf):
            c = self.buf[self.pos : self.pos + 1]
            if c in b" \t\r\n":
                self.pos += 1
            elif c == b"#":
                nl = self.buf.find(b"\n", self.pos)
                self.pos = len(self.buf) if nl < 0 else nl + 1
            else:
                return

    def token(self) -> bytes:
        self.skip_separators()
        start = self.pos
        while self.pos < len(self.buf) and self.buf[self.pos : self.pos + 1] not in b" \t\r\n":
            self.pos += 1
        if self.pos == start:
            raise FormatError("unexpected end of PGM header", offset=start)
        return self.buf[start : self.pos]

    def int_token(self, what: str) -> int:
        self.skip_separators()
        start_after_sep = self.pos
        tok = self.token()
        if not re.fullmatch(rb"\d+", tok):
            raise FormatError(f"invalid {what} {tok!r} in PGM header", offset=start_after_sep)
        return int(tok)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 65535, big-endian 16-bit) as floats in [0,1]."""
    with open(path, "rb") as fh:
        buf = fh.read()
    sc = _PgmScanner(buf)
    if buf[:2] != b"P5":
        raise FormatError(f"not a binary PGM (magic {buf[:2]!r})", offset=0)
    sc.pos = 2
    width = sc.int_token("width")
    height = sc.int_token("height")
    maxval_at = sc.pos
    maxval = sc.int_token("maxval")
    if width < 1 or height < 1:
        raise FormatError(f"zero or negative dimension {width}x{height}", offset=3)
    if maxval != PGM_MAXVAL:
        raise FormatError(f"unsupported maxval {maxval}, expected {PGM_MAXVAL}", offset=maxval_at)
    # exactly one whitespace byte separates the header from the payload
    if sc.pos >= len(buf) or buf[sc.pos : sc.pos + 1] not in b" \t\r\n":
        raise FormatError("missing separator before pixel payload", offset=sc.pos)
    payload_at = sc.pos + 1
    need = width * height * 2
    payload = buf[payload_at : payload_at + need]
    if len(payload) < need:
        raise FormatError(
            f"truncated payload: need {need} bytes, have {len(payload)}",
            offset=payload_at + len(payload),
        )
    raw = np.frombuffer(payload, dtype=">u2").reshape(height, width)
    return raw.astype(np.float64) / PGM_MAXVAL


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
