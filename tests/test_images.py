import re

import numpy as np
import pytest

from lungfuse.errors import ContractError, FormatError
from lungfuse.images import read_pgm, write_pgm


def test_read_pgm_maxval_scaling(tmp_path):
    p = tmp_path / "t.pgm"
    payload = np.array([[0, 65535], [0, 65535]], dtype=">u2").tobytes()
    p.write_bytes(b"P5\n2 2\n65535\n" + payload)
    img = read_pgm(p)
    np.testing.assert_array_equal(img, [[0.0, 1.0], [0.0, 1.0]])


def test_read_pgm_zero_dimension(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n0 4\n65535\n")
    with pytest.raises(FormatError):
        read_pgm(p)


def test_read_pgm_bad_magic(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n2 2\n65535\n1 2 3 4")
    with pytest.raises(FormatError, match="offset 0"):
        read_pgm(p)


def test_read_pgm_wrong_maxval(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(8))
    with pytest.raises(FormatError, match="maxval"):
        read_pgm(p)


def test_read_pgm_truncated_reports_offset(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n4 4\n65535\n" + bytes(10))
    with pytest.raises(FormatError, match="byte offset"):
        read_pgm(p)


def test_read_pgm_header_comment(tmp_path):
    p = tmp_path / "c.pgm"
    payload = np.array([[32768]], dtype=">u2").tobytes()
    p.write_bytes(b"P5\n# a comment\n1 1\n65535\n" + payload)
    img = read_pgm(p)
    assert img.shape == (1, 1)


def test_round_trip_within_quantization(tmp_path):
    rng = np.random.default_rng(7)
    img = rng.random((64, 64))
    p = tmp_path / "r.pgm"
    write_pgm(img, p)
    back = read_pgm(p)
    assert np.max(np.abs(back - img)) <= 1.0 / 65535


def test_double_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(8)
    img = rng.random((32, 32))
    p1 = tmp_path / "a.pgm"
    p2 = tmp_path / "b.pgm"
    write_pgm(img, p1)
    once = read_pgm(p1)
    write_pgm(once, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_pgm_known_codes(tmp_path):
    p = tmp_path / "k.pgm"
    write_pgm(np.full((2, 2), 0.5), p)
    raw = np.frombuffer(p.read_bytes()[-8:], dtype=">u2")
    assert set(raw) == {32768}
    write_pgm(np.ones((1, 1)), p)
    raw = np.frombuffer(p.read_bytes()[-2:], dtype=">u2")
    assert raw[0] == 65535


def test_write_pgm_rejects_out_of_range(tmp_path):
    with pytest.raises(ContractError):
        write_pgm(np.array([[1.5]]), tmp_path / "x.pgm")
    with pytest.raises(ContractError):
        write_pgm(np.array([[-0.1]]), tmp_path / "x.pgm")


class _ReferencePgmScanner:
    """The tokenizer read_pgm used before its one-regex header parser."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def skip_separators(self):
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


def _reference_read_pgm(path) -> np.ndarray:
    """The reference decode of the file at path, its error led by the path."""
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        return _reference_decode(buf)
    except FormatError as exc:
        named = FormatError(f"{path}: {exc}")
        named.offset = exc.offset
        raise named from None


def _reference_decode(buf: bytes) -> np.ndarray:
    sc = _ReferencePgmScanner(buf)
    if buf[:2] != b"P5":
        raise FormatError(f"not a binary PGM (magic {buf[:2]!r})", offset=0)
    sc.pos = 2
    width = sc.int_token("width")
    height = sc.int_token("height")
    maxval_at = sc.pos
    maxval = sc.int_token("maxval")
    if width < 1 or height < 1:
        raise FormatError(f"zero or negative dimension {width}x{height}", offset=3)
    if maxval != 65535:
        raise FormatError(f"unsupported maxval {maxval}, expected 65535", offset=maxval_at)
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
    if len(buf) > payload_at + need:
        raise FormatError(
            f"trailing bytes after the last pixel: need {need} bytes, have {len(buf) - payload_at}",
            offset=payload_at + need,
        )
    raw = np.frombuffer(payload, dtype=">u2").reshape(height, width)
    return raw.astype(np.float64) / 65535


def _outcome(read, path):
    try:
        img = read(path)
    except FormatError as exc:
        return type(exc), str(exc), exc.offset
    return img.shape, img.tobytes()


_HEADERS = (
    b"P5\n4 3\n65535\n" + bytes(range(24)),
    b"P5 # made by hand\n2\t3\r\n# rows\n65535\r" + bytes(range(100, 112)),
    b"P5\n\n 3  2 65535\t" + bytes(range(200, 212)),
)
_ALPHABET = b"P5 \t\r\n#0123456789x-"


def _mutate(rng, buf: bytes) -> bytes:
    """One to three flips, inserts, deletes or truncations inside the first 24 bytes."""
    for _ in range(rng.integers(1, 4)):
        at = int(rng.integers(min(24, len(buf)) + 1))
        op = rng.integers(4)
        byte = _ALPHABET[rng.integers(len(_ALPHABET))] if rng.integers(4) else rng.integers(256)
        if op == 0 and at < len(buf):
            buf = buf[:at] + bytes([buf[at] ^ (1 << int(rng.integers(8)))]) + buf[at + 1 :]
        elif op == 1:
            buf = buf[:at] + bytes([int(byte)]) + buf[at:]
        elif op == 2:
            buf = buf[:at] + buf[at + 1 :]
        else:
            buf = buf[:at]
    return buf


def test_read_pgm_matches_the_reference_tokenizer_on_mutated_headers(tmp_path):
    rng = np.random.default_rng(2024)
    path = tmp_path / "m.pgm"
    seen = set()
    for case in range(3000):
        path.write_bytes(_mutate(rng, _HEADERS[case % 3]))
        got = _outcome(read_pgm, path)
        assert got == _outcome(_reference_read_pgm, path), path.read_bytes()
        if len(got) == 3:
            assert got[1].startswith(f"{path}: ")
        seen.add(" ".join(got[1].removeprefix(f"{path}: ").split()[:2]) if len(got) == 3
                 else "ok")
    # every branch of the reader: each error message's first two words after the
    # path, and success
    assert seen == {"not a", "unexpected end", "invalid width", "invalid height",
                    "invalid maxval", "zero or", "unsupported maxval", "missing separator",
                    "truncated payload:", "trailing bytes", "ok"}
