import math

import numpy as np
import pytest

from lungfuse.errors import ContractError, NumericalError
from lungfuse.fusion import (
    FusionRule,
    RigidTransform,
    SearchBudget,
    _coarse_axes,
    _coarse_pick,
    _fft_coarse_scores,
    _masked_ncc,
    _resample,
    _shift_zero_fill,
    entropy,
    fuse_wavelet,
    fusion_quality,
    mutual_information,
    ncc,
    psnr,
    register_rigid,
    resample_bilinear,
    ssim,
)
from lungfuse.images import gradient_magnitude
from lungfuse.phantom import PhantomConfig, render_ct, render_pet, sample_patient
from lungfuse.wavelet import dwt2, idwt2, WaveletPyramid


def _ct_like(size=64, seed=0):
    """Body ellipse, two dark lungs, one bright tumor blob; soft edges."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    cx = size / 2 + rng.uniform(-2, 2)
    cy = size / 2 + rng.uniform(-2, 2)
    r = np.hypot((xx - cx) / (size * 0.42), (yy - cy) / (size * 0.36))
    img = 0.05 + 0.80 / (1.0 + np.exp((r - 1.0) / 0.035))
    for sx in (-1, 1):
        lx = cx + sx * size * 0.17
        ly = cy - size * 0.02 + sx * size * 0.01
        rl = np.hypot((xx - lx) / (size * 0.11), (yy - ly) / (size * 0.20))
        img -= 0.62 / (1.0 + np.exp((rl - 1.0) / 0.056))
    tx, ty = cx + size * 0.17, cy + size * 0.06
    img += 0.35 * np.exp(-((xx - tx) ** 2 + (yy - ty) ** 2) / (2 * 6.0))
    img += rng.normal(0, 0.01, img.shape)
    return np.clip(img, 0.0, 1.0)


def _pet_like(size=64, seed=0):
    """Smooth body glow plus a Gaussian hotspot."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    cx = size / 2 + rng.uniform(-2, 2)
    cy = size / 2 + rng.uniform(-2, 2)
    r = np.hypot((xx - cx) / (size * 0.40), (yy - cy) / (size * 0.34))
    img = 0.06 + 0.34 / (1.0 + np.exp((r - 1.0) / 0.06))
    hx, hy = cx + size * 0.15, cy + size * 0.05
    img += 0.45 * np.exp(-((xx - hx) ** 2 + (yy - hy) ** 2) / (2 * 12.0))
    img += rng.normal(0, 0.01, img.shape)
    return np.clip(img, 0.0, 1.0)


# --- resampling ---


def test_resample_identity():
    img = _ct_like(32)
    out = resample_bilinear(img, RigidTransform())
    np.testing.assert_array_equal(out, img)


def test_resample_integer_shift_moves_impulse():
    img = np.zeros((9, 9))
    img[4, 4] = 1.0
    out = resample_bilinear(img, RigidTransform(tx=1.0))
    assert out[4, 5] == 1.0
    assert out.sum() == 1.0


def test_resample_half_pixel_shift_splits_impulse():
    img = np.zeros((9, 9))
    img[4, 4] = 1.0
    out = resample_bilinear(img, RigidTransform(tx=0.5))
    np.testing.assert_allclose(out[4, 4], 0.5)
    np.testing.assert_allclose(out[4, 5], 0.5)
    np.testing.assert_allclose(out.sum(), 1.0)


def test_resample_out_of_bounds_zero():
    img = np.ones((8, 8))
    out = resample_bilinear(img, RigidTransform(tx=5.0))
    assert np.all(out[:, :5] == 0.0)
    assert np.all(out[:, 5:] == 1.0)


def test_resample_rotation_pivots_at_center():
    img = np.zeros((11, 11))
    img[5, 5] = 1.0
    out = resample_bilinear(img, RigidTransform(theta=math.radians(37.0)))
    assert out[5, 5] == pytest.approx(1.0)


def _reference_resample(arr, t, out_w, out_h):
    """Per-tap masked-gather resampler and valid mask, the reference for _resample."""
    h, w = arr.shape
    cx_in, cy_in = (w - 1) / 2.0, (h - 1) / 2.0
    qx, qy = np.meshgrid(np.arange(out_w, dtype=np.float64), np.arange(out_h, dtype=np.float64))
    dx = qx - (out_w - 1) / 2.0 - t.tx
    dy = qy - (out_h - 1) / 2.0 - t.ty
    c, s = math.cos(-t.theta), math.sin(-t.theta)
    px = (c * dx - s * dy) / t.scale + cx_in
    py = (s * dx + c * dy) / t.scale + cy_in
    x0 = np.floor(px).astype(np.intp)
    y0 = np.floor(py).astype(np.intp)
    fx = px - x0
    fy = py - y0
    out = np.zeros((out_h, out_w))
    for ddy, ddx, wgt in (
        (0, 0, (1 - fx) * (1 - fy)),
        (0, 1, fx * (1 - fy)),
        (1, 0, (1 - fx) * fy),
        (1, 1, fx * fy),
    ):
        xs = x0 + ddx
        ys = y0 + ddy
        ok = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
        vals = np.zeros_like(out)
        vals[ok] = arr[ys[ok], xs[ok]]
        out += wgt * vals
    valid = (px >= 0) & (px <= w - 1) & (py >= 0) & (py <= h - 1)
    return out, valid


@pytest.mark.parametrize(
    "t,out_dims",
    [
        (RigidTransform(), (40, 30)),
        (RigidTransform(1.3, -0.7, 0.03, 1.01), (40, 30)),
        (RigidTransform(-6.25, 3.5, math.radians(-5.0), 0.9), (40, 30)),
        (RigidTransform(25.0, -31.0, math.radians(70.0), 0.4), (40, 30)),  # mostly outside
        (RigidTransform(0.5, 0.5, math.radians(12.0), 1.7), (23, 51)),
    ],
)
def test_resample_matches_reference_bit_for_bit(t, out_dims):
    img = np.random.default_rng(11).uniform(-1.0, 1.0, (30, 40))
    out, valid = _resample(img, t, *out_dims)
    ref, ref_valid = _reference_resample(img, t, *out_dims)
    assert out.tobytes() == ref.tobytes()
    np.testing.assert_array_equal(valid, ref_valid)
    assert resample_bilinear(img, t, out_dims).tobytes() == ref.tobytes()


def test_transform_inverse_round_trip():
    t = RigidTransform(tx=3.0, ty=-2.0, theta=math.radians(5.0), scale=1.04)
    inv = t.inverse()
    img = _ct_like(64)
    back = resample_bilinear(resample_bilinear(img, t), inv)
    core = (slice(10, -10),) * 2  # borders lose content to zero fill
    assert np.max(np.abs(back[core] - img[core])) < 0.08


def test_rigid_transform_rejects_nonpositive_scale():
    with pytest.raises(ContractError):
        RigidTransform(scale=0.0)


# --- registration ---


def test_register_self_is_identity():
    img = _ct_like(64, seed=1)
    t = register_rigid(img, img)
    assert t.tx == 0.0 and t.ty == 0.0 and t.theta == 0.0 and t.scale == 1.0
    assert ncc(img, resample_bilinear(img, t)) == pytest.approx(1.0)


def test_register_recovers_pure_shift():
    img = _ct_like(64, seed=2)
    moving = resample_bilinear(img, RigidTransform(tx=3.0, ty=-2.0))
    t = register_rigid(img, moving)
    assert abs(t.tx - (-3.0)) <= 0.5
    assert abs(t.ty - 2.0) <= 0.5
    assert abs(math.degrees(t.theta)) <= 0.5


def test_register_constant_image_errors():
    img = _ct_like(32)
    with pytest.raises(NumericalError, match="no correlation signal"):
        register_rigid(np.full((32, 32), 0.5), img)
    with pytest.raises(NumericalError, match="no correlation signal"):
        register_rigid(img, np.full((32, 32), 0.5))


def test_register_recovery_randomized():
    rng = np.random.default_rng(7)
    for i in range(5):
        img = _ct_like(64, seed=100 + i)
        true = RigidTransform(
            tx=float(rng.uniform(-8, 8)),
            ty=float(rng.uniform(-8, 8)),
            theta=float(np.deg2rad(rng.uniform(-4, 4))),
            scale=float(rng.uniform(0.95, 1.05)),
        )
        moving = resample_bilinear(img, true)
        rec = register_rigid(img, moving)
        inv = true.inverse()
        assert abs(rec.tx - inv.tx) <= 0.5
        assert abs(rec.ty - inv.ty) <= 0.5
        assert abs(math.degrees(rec.theta - inv.theta)) <= 0.5
        assert abs(rec.scale - inv.scale) <= 0.02


def test_register_deterministic():
    img = _ct_like(64, seed=4)
    moving = resample_bilinear(img, RigidTransform(tx=2.0, ty=1.0))
    t1 = register_rigid(img, moving)
    t2 = register_rigid(img, moving)
    assert t1 == t2


def test_register_respects_custom_budget():
    img = _ct_like(48, seed=5)
    moving = resample_bilinear(img, RigidTransform(tx=2.0))
    sb = SearchBudget(t_max=4.0, theta_max_deg=0.0, scale_min=1.0, scale_max=1.0)
    t = register_rigid(img, moving, search=sb)
    assert abs(t.tx - (-2.0)) <= 0.5


def _phantom_pair(seed, size, subtype):
    """Noisy CT and PET of one phantom patient, as `phantom.generate` draws them."""
    rng = np.random.default_rng(seed)
    geom = sample_patient(rng, PhantomConfig(image_size=size), subtype)["geometry"]
    ct = np.clip(render_ct(geom, size) + rng.normal(0.0, 0.02, (size, size)), 0.0, 1.0)
    pet = np.clip(render_pet(geom, size) + rng.normal(0.0, 0.02, (size, size)), 0.0, 1.0)
    return ct, pet


def _direct_coarse_scores(fixed, moving, shifts, thetas, scales):
    """Reference grid: one masked NCC per (tx, ty, theta, scale) cell."""
    h, w = fixed.shape
    out = np.empty((len(shifts), len(shifts), len(thetas), len(scales)))
    for it, theta in enumerate(thetas):
        for isc, scale in enumerate(scales):
            base, valid = _resample(moving, RigidTransform(0.0, 0.0, theta, scale), w, h)
            for ix, tx in enumerate(shifts):
                for iy, ty in enumerate(shifts):
                    out[ix, iy, it, isc] = _masked_ncc(
                        fixed,
                        _shift_zero_fill(base, int(tx), int(ty)),
                        _shift_zero_fill(valid, int(tx), int(ty)),
                    )
    return out


def _check_against_direct_grid(fixed, moving):
    """FFT scores equal the direct ones on every cell not flagged degenerate,
    and the coarse pick is the direct grid's first maximum, bit for bit."""
    sb = SearchBudget()
    shifts, thetas, scales = axes = _coarse_axes(sb)
    scores, degenerate = _fft_coarse_scores(fixed, moving, *axes)
    direct = _direct_coarse_scores(fixed, moving, *axes)
    trusted = ~degenerate
    finite = np.isfinite(direct)
    np.testing.assert_array_equal(np.isfinite(scores)[trusted], finite[trusted])
    assert np.all(scores[trusted & ~finite] == -np.inf)
    assert np.all(direct[~finite] == -np.inf)
    both = trusted & finite
    assert np.max(np.abs(scores[both] - direct[both])) <= 1e-12
    ix, iy, it, isc = np.unravel_index(int(np.argmax(direct)), direct.shape)
    cur, best = _coarse_pick(fixed, moving, sb)
    assert cur == [float(shifts[ix]), float(shifts[iy]), float(thetas[it]), float(scales[isc])]
    assert best == direct[ix, iy, it, isc]
    return degenerate, finite


@pytest.mark.parametrize("size", [24, 48])
def test_fft_coarse_scores_match_direct_masked_ncc(size):
    # at 24 px the default 16 px shift range pushes many cells under the
    # overlap floor, so the -inf pattern is exercised as well
    ct, pet = _phantom_pair(5, size, "squamous")
    degenerate, finite = _check_against_direct_grid(
        gradient_magnitude(ct), gradient_magnitude(pet)
    )
    assert not degenerate.any()
    if size == 24:
        assert 0 < np.count_nonzero(~finite) < finite.size


def _flat_scene(seed):
    """Texture only in the left columns: many shifts overlap a constant region."""
    rng = np.random.default_rng(seed)
    fixed = np.full((32, 32), 0.5)
    fixed[:, :6] = rng.random((32, 6))
    moving = resample_bilinear(fixed, RigidTransform(2.0, 1.0, 0.02, 1.0))
    moving[:, 10:] = 0.5
    return fixed, moving


def test_fft_coarse_scores_flag_flat_overlaps_as_degenerate():
    # the direct score is -inf on a zero-variance overlap, while the FFT
    # sums leave rounding residue there; such cells must be flagged
    degenerate, _ = _check_against_direct_grid(*_flat_scene(2))
    assert degenerate.any()


def test_register_flat_scene_keeps_direct_pick():
    fixed, moving = _flat_scene(2)
    assert repr(register_rigid(fixed, moving)) == (
        "RigidTransform(tx=-2.0625, ty=-1.0, theta=-0.0021816615649929223, "
        "scale=0.9975000000000003)"
    )


# exact transforms of the per-cell masked-NCC grid search; any change in
# a coarse pick or a refinement move changes these digits
_GOLDEN = [
    ((0, 64, "adenocarcinoma"),
     "RigidTransform(tx=2.8125, ty=-1.3125, theta=0.033815754257390127, scale=0.98)"),
    ((1, 64, "squamous"),
     "RigidTransform(tx=-1.75, ty=1.1875, theta=0.027270769562411402, scale=1.025)"),
    ((2, 48, "adenocarcinoma"),
     "RigidTransform(tx=-1.125, ty=0.5, theta=0.005454153912482272, scale=0.975)"),
]


@pytest.mark.parametrize("pair,expected", _GOLDEN)
def test_register_golden_transforms(pair, expected):
    ct, pet = _phantom_pair(*pair)
    assert repr(register_rigid(gradient_magnitude(ct), gradient_magnitude(pet))) == expected


@pytest.mark.parametrize(
    "kwargs", [{"t_step": 1.5}, {"t_max": 2.5}, {"t_step": 0.0}, {"t_step": -2.0}, {"t_max": -4.0}]
)
def test_search_budget_rejects_non_integral_or_empty_shift_grid(kwargs):
    with pytest.raises(ContractError):
        SearchBudget(**kwargs)


# --- fusion ---


def test_fuse_identical_inputs_is_identity():
    img = _ct_like(64, seed=6)
    for rule in (FusionRule(), FusionRule(ll_rule="weighted", ll_weight_ct=0.3)):
        fused = fuse_wavelet(img, img, rule=rule)
        assert np.max(np.abs(fused - img)) < 1e-6


def test_fuse_zero_pet_halves_ll_keeps_details():
    ct = _ct_like(32, seed=8)
    pet = np.zeros_like(ct)
    fused = fuse_wavelet(ct, pet, family="haar", levels=1)
    p_ct = dwt2(ct, "haar", 1)
    expected = idwt2(
        WaveletPyramid(
            family="haar",
            levels=1,
            ll=p_ct.ll / 2.0,
            details=p_ct.details,
            original_dims=p_ct.original_dims,
        )
    )
    np.testing.assert_allclose(fused, np.clip(expected, 0, 1), atol=1e-10)


def test_fuse_max_abs_picks_a_source_everywhere():
    ct = _ct_like(32, seed=9)
    pet = _pet_like(32, seed=10)
    p_ct = dwt2(ct, "haar", 2)
    p_pet = dwt2(pet, "haar", 2)
    for lev in range(2):
        for cb, pb in zip(p_ct.details[lev], p_pet.details[lev]):
            chosen = np.where(np.abs(cb) >= np.abs(pb), cb, pb)
            assert np.all(np.isclose(chosen, cb) | np.isclose(chosen, pb))


def test_fuse_ties_go_to_ct():
    ct = np.full((4, 4), 0.5)
    pet = np.full((4, 4), 0.5)
    fused = fuse_wavelet(ct, pet, rule=FusionRule(detail_rule="max_abs"))
    np.testing.assert_allclose(fused, ct, atol=1e-12)


def test_fuse_dimension_mismatch():
    with pytest.raises(ContractError):
        fuse_wavelet(np.zeros((8, 8)), np.zeros((8, 10)))


def test_fuse_rejects_bad_rule():
    with pytest.raises(ContractError):
        FusionRule(ll_rule="median")
    with pytest.raises(ContractError):
        FusionRule(ll_weight_ct=1.5)


def test_fused_mi_exceeds_cross_mi():
    ct = _ct_like(64, seed=11)
    pet = _pet_like(64, seed=12)
    fused = fuse_wavelet(ct, pet)
    cross = mutual_information(ct, pet)
    assert mutual_information(fused, ct) > cross
    assert mutual_information(fused, pet) > cross


def test_fused_ssim_vs_ct_beats_pet():
    ct = _ct_like(64, seed=13)
    pet = _pet_like(64, seed=14)
    fused = fuse_wavelet(ct, pet)
    assert ssim(fused, ct) >= ssim(pet, ct)


# --- quality metrics ---


def test_entropy_constant_zero():
    assert entropy(np.full((16, 16), 0.4)) == 0.0


def test_entropy_two_level_one_bit():
    img = np.zeros((4, 4))
    img[:, 2:] = 0.9
    assert entropy(img) == pytest.approx(1.0)


def test_mi_self_identity_matched_bins():
    rng = np.random.default_rng(15)
    img = rng.random((32, 32))
    assert abs(mutual_information(img, img, bins=64) - entropy(img, bins=64)) < 1e-9


def test_mi_independent_near_zero():
    rng = np.random.default_rng(16)
    a = rng.random((64, 64))
    b = rng.random((64, 64))
    assert mutual_information(a, b) < entropy(a, bins=64) * 0.5


def test_psnr_identical_infinite():
    img = _ct_like(16)
    assert psnr(img, img) == float("inf")


def test_psnr_known_offset():
    a = np.zeros((8, 8))
    b = np.full((8, 8), 0.1)
    assert psnr(a, b) == pytest.approx(20.0)


def test_ssim_self_is_exactly_one():
    img = _ct_like(32, seed=17)
    assert ssim(img, img) == 1.0


def test_ssim_degrades_with_noise():
    rng = np.random.default_rng(18)
    img = _ct_like(32, seed=19)
    noisy = np.clip(img + rng.normal(0, 0.2, img.shape), 0, 1)
    assert ssim(img, noisy) < 0.9


def test_fusion_quality_report_keys():
    ct = _ct_like(32, seed=20)
    pet = _pet_like(32, seed=21)
    fused = fuse_wavelet(ct, pet)
    rep = fusion_quality(fused, ct, pet)
    assert set(rep) == {"entropy_f", "mi_f_ct", "mi_f_pet", "psnr_vs_ct", "ssim_vs_ct"}
    assert all(np.isfinite(v) for v in rep.values())


def test_ncc_bounds_and_self():
    img = _ct_like(16, seed=22)
    assert ncc(img, img) == pytest.approx(1.0)
    assert ncc(img, 1.0 - img) == pytest.approx(-1.0)
