import numpy as np
import pytest

from lungfuse.errors import ContractError
from lungfuse.wavelet import WaveletPyramid, dwt2, idwt2, max_levels


def test_haar_constant_image():
    pyr = dwt2(np.full((2, 2), 3.0), "haar", 1)
    np.testing.assert_allclose(pyr.ll, [[6.0]], atol=1e-12)
    for band in pyr.details[0]:
        np.testing.assert_allclose(band, [[0.0]], atol=1e-12)


def test_haar_2x2_hand_values():
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    pyr = dwt2(np.array([[a, b], [c, d]]), "haar", 1)
    lh, lv, ld = pyr.details[0]
    np.testing.assert_allclose(pyr.ll, [[(a + b + c + d) / 2]], atol=1e-12)
    np.testing.assert_allclose(lh, [[(a - c + b - d) / 2]], atol=1e-12)
    np.testing.assert_allclose(lv, [[(a - b + c - d) / 2]], atol=1e-12)
    np.testing.assert_allclose(ld, [[(a - b - c + d) / 2]], atol=1e-12)


def test_haar_2x2_energy_preserved():
    rng = np.random.default_rng(0)
    img = rng.normal(size=(2, 2))
    pyr = dwt2(img, "haar", 1)
    coef_energy = pyr.ll[0, 0] ** 2 + sum(b[0, 0] ** 2 for b in pyr.details[0])
    np.testing.assert_allclose(coef_energy, np.sum(img**2), rtol=1e-12)


def test_too_small_image_errors():
    with pytest.raises(ContractError):
        dwt2(np.ones((1, 1)), "haar", 1)
    with pytest.raises(ContractError, match="at most 1"):
        dwt2(np.ones((2, 2)), "haar", 2)


def test_max_levels():
    assert max_levels(64, 64) == 6
    assert max_levels(1, 64) == 0
    assert max_levels(3, 3) == 2


@pytest.mark.parametrize("family", ["haar", "db2"])
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_perfect_reconstruction_random(family, levels):
    rng = np.random.default_rng(42)
    for _ in range(10):
        img = rng.random((64, 64))
        rec = idwt2(dwt2(img, family, levels))
        assert np.max(np.abs(rec - img)) < 1e-8


@pytest.mark.parametrize("family", ["haar", "db2"])
@pytest.mark.parametrize("shape", [(5, 7), (6, 6), (9, 4), (33, 65)])
def test_perfect_reconstruction_odd_dims(family, shape):
    rng = np.random.default_rng(1)
    img = rng.random(shape)
    levels = min(2, max_levels(shape[1], shape[0]))
    rec = idwt2(dwt2(img, family, levels))
    assert rec.shape == shape
    assert np.max(np.abs(rec - img)) < 1e-8


def test_dim_halving_chain():
    pyr = dwt2(np.zeros((13, 21)), "db2", 2)
    lh1, _, _ = pyr.details[0]
    lh2, _, _ = pyr.details[1]
    assert lh1.shape == (7, 11)
    assert lh2.shape == (4, 6)
    assert pyr.ll.shape == (4, 6)


def test_parseval_haar_even_dims():
    rng = np.random.default_rng(3)
    img = rng.normal(size=(64, 64))
    pyr = dwt2(img, "haar", 3)
    energy = np.sum(pyr.ll**2)
    for lh, lv, ld in pyr.details:
        energy += np.sum(lh**2) + np.sum(lv**2) + np.sum(ld**2)
    np.testing.assert_allclose(energy, np.sum(img**2), rtol=1e-6)


def test_linearity_of_forward():
    rng = np.random.default_rng(4)
    x = rng.random((16, 16))
    y = rng.random((16, 16))
    alpha, beta = 2.5, -0.7
    p_mix = dwt2(alpha * x + beta * y, "db2", 2)
    p_x = dwt2(x, "db2", 2)
    p_y = dwt2(y, "db2", 2)
    np.testing.assert_allclose(p_mix.ll, alpha * p_x.ll + beta * p_y.ll, atol=1e-10)
    for lev in range(2):
        for bm, bx, by in zip(p_mix.details[lev], p_x.details[lev], p_y.details[lev]):
            np.testing.assert_allclose(bm, alpha * bx + beta * by, atol=1e-10)


def test_linearity_of_inverse_scaling():
    rng = np.random.default_rng(5)
    img = rng.random((32, 32))
    pyr = dwt2(img, "haar", 2)
    scaled = WaveletPyramid(
        family=pyr.family,
        levels=pyr.levels,
        ll=2.5 * pyr.ll,
        details=[tuple(2.5 * b for b in t) for t in pyr.details],
        original_dims=pyr.original_dims,
    )
    np.testing.assert_allclose(idwt2(scaled), 2.5 * img, atol=1e-10)


def test_zero_pyramid_reconstructs_zero():
    pyr = dwt2(np.zeros((8, 8)), "haar", 2)
    np.testing.assert_array_equal(idwt2(pyr), np.zeros((8, 8)))


def test_idwt2_rejects_inconsistent_bands():
    pyr = dwt2(np.ones((8, 8)), "haar", 1)
    lh, lv, ld = pyr.details[0]
    bad = WaveletPyramid(
        family="haar",
        levels=1,
        ll=pyr.ll,
        details=[(lh[:2, :], lv, ld)],
        original_dims=pyr.original_dims,
    )
    with pytest.raises(ContractError, match="dims"):
        idwt2(bad)


def test_unknown_family_rejected():
    with pytest.raises(ContractError):
        dwt2(np.ones((4, 4)), "sym4", 1)
