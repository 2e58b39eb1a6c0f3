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
