"""Rigid PET-to-CT registration, wavelet coefficient fusion, quality metrics.

A RigidTransform acts in centered pixel coordinates: with c the image
center ((w-1)/2, (h-1)/2), a point p maps to

    p' = scale * R(theta) * (p - c) + c + (tx, ty)

so rotation and scaling pivot about the image center and tx/ty are
read directly as pixel displacements of the content. Registration
maximizes normalized cross-correlation over the overlap of the two
images (masked NCC) on a fixed coarse grid, then hill-climbs with step
halving. The coarse grid shifts by whole pixels (SearchBudget.t_max and
t_step are integral), so for each (theta, scale) the scores at all
shifts come from zero-padded FFT cross-correlations (Padfield, "Masked
object registration in the Fourier domain", IEEE TIP 21(5), 2012).
Cells whose FFT score lies within 1e-9 of the FFT maximum, and cells
whose variance is too small for the FFT sums to resolve, are scored
again directly, so the coarse pick and its score are exactly those of
a per-cell scan. All tie-breaks are deterministic: the coarse stage
takes the first maximum in lexicographic (tx, ty, theta, scale) scan
order, the refinement accepts only strict improvements in a fixed
candidate order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ContractError, NumericalError
from .images import as_image
from .wavelet import WaveletPyramid, dwt2, idwt2


# fixed scan order makes pattern-search tie-breaks deterministic
_NEIGHBOR_DIRS = tuple(d for d in product((-1, 0, 1), repeat=4) if any(d))


@dataclass(frozen=True)
class RigidTransform:
    tx: float = 0.0
    ty: float = 0.0
    theta: float = 0.0  # radians
    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ContractError(f"scale must be positive, got {self.scale}")

    def inverse(self) -> "RigidTransform":
        """Inverse in the centered frame (valid when in/out dims agree)."""
        c, s = math.cos(-self.theta), math.sin(-self.theta)
        inv_s = 1.0 / self.scale
        tx = -inv_s * (c * self.tx - s * self.ty)
        ty = -inv_s * (s * self.tx + c * self.ty)
        return RigidTransform(tx=tx, ty=ty, theta=-self.theta, scale=inv_s)


@dataclass(frozen=True)
class FusionRule:
    ll_rule: str = "average"  # "average" | "weighted"
    ll_weight_ct: float = 0.5  # used by "weighted"
    detail_rule: str = "max_abs"  # "max_abs" | "average"

    def __post_init__(self):
        if self.ll_rule not in ("average", "weighted"):
            raise ContractError(f"unknown ll_rule {self.ll_rule!r}")
        if self.detail_rule not in ("max_abs", "average"):
            raise ContractError(f"unknown detail_rule {self.detail_rule!r}")
        if not 0.0 <= self.ll_weight_ct <= 1.0:
            raise ContractError(f"ll_weight_ct must be in [0,1], got {self.ll_weight_ct}")


@dataclass(frozen=True)
class SearchBudget:
    """Coarse grid extents/steps and refinement resolutions.

    The refinement halves steps down to the stated resolutions, then
    runs `polish_halvings` further rounds below them: rotation errors
    couple with sub-resolution translation compensation (0.25 deg of
    rotation displaces off-center structure by under 0.1 px), and
    stopping exactly at the nominal resolution leaves theta stuck up
    to ~0.7 deg from the objective's maximizer on lung-like slices.
    """

    t_max: float = 16.0
    t_step: float = 2.0
    theta_max_deg: float = 6.0
    theta_step_deg: float = 2.0
    scale_min: float = 0.9
    scale_max: float = 1.1
    scale_step: float = 0.05
    t_resolution: float = 0.25
    theta_resolution_deg: float = 0.25
    scale_resolution: float = 0.01
    polish_halvings: int = 2

    def __post_init__(self):
        # the coarse grid shifts by whole pixels, which the FFT scores need
        for name in ("t_max", "t_step"):
            value = float(getattr(self, name))
            if not value.is_integer():
                raise ContractError(f"{name} must be a whole number of pixels, got {value}")
        if self.t_step <= 0 or self.t_max < 0:
            raise ContractError(
                f"t_step must be positive and t_max non-negative, got {self.t_step}, {self.t_max}"
            )


def _resample(arr: np.ndarray, t: RigidTransform, out_w: int, out_h: int):
    """Bilinear resample of arr and the mask of in-bounds source points.

    Returns (image, valid): image samples outside the input are 0;
    valid marks output pixels whose inverse-mapped source lies within
    [0, w-1] x [0, h-1].
    """
    h, w = arr.shape
    cx_in, cy_in = (w - 1) / 2.0, (h - 1) / 2.0
    cx_out, cy_out = (out_w - 1) / 2.0, (out_h - 1) / 2.0
    # p = R(-theta) (q - c_out - t) / scale + c_in, as outer differences
    # of 1-D terms; in-place steps keep the IEEE operation order
    dx = np.arange(out_w, dtype=np.float64) - cx_out - t.tx
    dy = np.arange(out_h, dtype=np.float64) - cy_out - t.ty
    c, s = math.cos(-t.theta), math.sin(-t.theta)
    px = (c * dx)[None, :] - (s * dy)[:, None]
    px /= t.scale
    px += cx_in
    py = (s * dx)[None, :] + (c * dy)[:, None]
    py /= t.scale
    py += cy_in
    valid = (px >= 0) & (px <= w - 1) & (py >= 0) & (py <= h - 1)
    x0 = np.floor(px)
    y0 = np.floor(py)
    fx = np.subtract(px, x0, out=px)
    fy = np.subtract(py, y0, out=py)
    # a 2 px zero border turns every out-of-bounds tap into a read of 0
    padded = np.zeros((h + 4, w + 4))
    padded[2:-2, 2:-2] = arr
    row = w + 4
    idx = np.clip(y0, -2, h, out=y0)
    idx *= row
    idx += np.clip(x0, -2, w, out=x0)
    idx = idx.astype(np.intp)
    idx += 2 * row + 2
    gx = 1 - fx
    gy = 1 - fy
    out = np.zeros((out_h, out_w))
    for offset, wx, wy in ((0, gx, gy), (1, fx, gy), (row, gx, fy), (row + 1, fx, fy)):
        tap = padded.take(idx + offset)
        tap *= wx * wy
        out += tap
    return out, valid


def resample_bilinear(img, t: RigidTransform, out_dims=None) -> np.ndarray:
    """Inverse-mapping bilinear resampling; out-of-bounds samples are 0.

    out_dims is (width, height); defaults to the input dims.
    """
    arr = as_image(img)
    h, w = arr.shape
    if out_dims is None:
        out_w, out_h = w, h
    else:
        out_w, out_h = int(out_dims[0]), int(out_dims[1])
        if out_w < 1 or out_h < 1:
            raise ContractError(f"bad out_dims {out_dims}")
    return _resample(arr, t, out_w, out_h)[0]


def ncc(a, b) -> float:
    """Normalized cross-correlation of two equal-sized images."""
    a = as_image(a)
    b = as_image(b)
    if a.shape != b.shape:
        raise ContractError(f"dimension mismatch {a.shape} vs {b.shape}")
    az = a - a.mean()
    bz = b - b.mean()
    na = np.sqrt(np.sum(az * az))
    nb = np.sqrt(np.sum(bz * bz))
    if na == 0.0 or nb == 0.0:
        raise NumericalError("no correlation signal")
    return float(np.sum(az * bz) / (na * nb))


def _shift_zero_fill(img: np.ndarray, tx: int, ty: int) -> np.ndarray:
    """Integer-pixel content shift with zero fill; exact, no interpolation."""
    h, w = img.shape
    out = np.zeros_like(img)
    xs0, xs1 = max(0, tx), min(w, w + tx)
    ys0, ys1 = max(0, ty), min(h, h + ty)
    if xs0 >= xs1 or ys0 >= ys1:
        return out
    out[ys0:ys1, xs0:xs1] = img[ys0 - ty : ys1 - ty, xs0 - tx : xs1 - tx]
    return out


_MIN_VALID_FRACTION = 0.25


def _masked_ncc(fixed: np.ndarray, cand: np.ndarray, valid: np.ndarray) -> float:
    """NCC restricted to the valid resample support.

    Zero-filled out-of-bounds regions otherwise act as false structure
    and bias the registration optimum; candidates with too little valid
    overlap score -inf.
    """
    n = int(valid.sum())
    if n < _MIN_VALID_FRACTION * fixed.size:
        return -np.inf
    f = fixed[valid]
    m = cand[valid]
    fz = f - f.mean()
    mz = m - m.mean()
    nf = float(np.sqrt(np.sum(fz * fz)))
    nm = float(np.sqrt(np.sum(mz * mz)))
    if nf == 0.0 or nm == 0.0:
        return -np.inf
    return float(np.sum(fz * mz)) / (nf * nm)


# FFT scores this close to the grid maximum are re-scored directly; the
# FFT sums differ from the direct ones by ~1e-15 on non-degenerate cells
_RESCORE_WINDOW = 1e-9
# a windowed variance below this fraction of the image energy has lost
# that many digits to cancellation in the FFT sums; score it directly
_DEGENERATE_VARIANCE = 1e-4


def _coarse_axes(sb: SearchBudget):
    """Integer shifts, angles (rad) and scales of the coarse grid."""
    shifts = np.arange(-int(sb.t_max), int(sb.t_max) + 1, int(sb.t_step))
    # round away arange drift so e.g. scale 1.0 is evaluated exactly
    thetas = np.deg2rad(
        np.round(np.arange(-sb.theta_max_deg, sb.theta_max_deg + 1e-9, sb.theta_step_deg), 10)
    )
    scales = np.round(np.arange(sb.scale_min, sb.scale_max + 1e-9, sb.scale_step), 10)
    return shifts, thetas, scales


def _fft_coarse_scores(fixed: np.ndarray, moving: np.ndarray, shifts, thetas, scales):
    """Masked NCC of every coarse cell from FFT correlations.

    For each (theta, scale), moving is resampled once into base with
    valid mask bv; shifting both by an integer (tx, ty) is then a
    correlation, so the overlap count and the five sums of masked NCC
    at all shifts come from six zero-padded FFT cross-correlations
    (Padfield, "Masked object registration in the Fourier domain",
    IEEE TIP 21(5), 2012). Returns scores indexed [tx, ty, theta,
    scale], -inf below the overlap floor, and a mask of the cells whose
    variances are too small to trust the FFT score.
    """
    h, w = fixed.shape
    reach = int(np.max(np.abs(shifts)))
    dims = (h + reach, w + reach)  # no circular wrap within the shift range
    rows, cols = shifts % dims[0], shifts % dims[1]

    def corr(a_hat, b_hat):
        # 2-D inverse done axis by axis, keeping only the grid's rows
        # before the second pass
        part = np.fft.ifft(a_hat * b_hat, axis=0)[rows]
        return np.fft.irfft(part, n=dims[1], axis=1)[:, cols].T  # [tx, ty]

    floor = _MIN_VALID_FRACTION * fixed.size
    f_energy = float(np.sum(fixed * fixed))
    # fixed side, shared by every (theta, scale)
    ones_hat, f_hat, ff_hat = (
        np.fft.rfft2(x, s=dims) for x in (np.ones_like(fixed), fixed, fixed * fixed)
    )
    scores = np.full((len(shifts), len(shifts), len(thetas), len(scales)), -np.inf)
    degenerate = np.zeros(scores.shape, dtype=bool)
    for it, theta in enumerate(thetas):
        for isc, scale in enumerate(scales):
            base, valid = _resample(moving, RigidTransform(0.0, 0.0, theta, scale), w, h)
            bv = valid.astype(np.float64)
            bm = base * bv
            m_energy = float(np.sum(bm * bm))
            # conjugate spectra of the moving side turn products into correlations
            bv_hat, bm_hat, mm_hat = (
                np.conj(np.fft.rfft2(x, s=dims)) for x in (bv, bm, bm * bm)
            )
            n = np.rint(corr(ones_hat, bv_hat))
            sf = corr(f_hat, bv_hat)
            sff = corr(ff_hat, bv_hat)
            sm = corr(ones_hat, bm_hat)
            smm = corr(ones_hat, mm_hat)
            sfm = corr(f_hat, bm_hat)
            ok = n >= floor
            n = np.where(ok, n, 1.0)
            var_f = sff - sf * sf / n
            var_m = smm - sm * sm / n
            weak = ok & (
                (var_f <= _DEGENERATE_VARIANCE * f_energy)
                | (var_m <= _DEGENERATE_VARIANCE * m_energy)
            )
            good = ok & ~weak
            cov = sfm - sf * sm / n
            cell = scores[:, :, it, isc]
            cell[good] = cov[good] / np.sqrt(var_f[good] * var_m[good])
            degenerate[:, :, it, isc] = weak
    return scores, degenerate


def _coarse_pick(fixed: np.ndarray, moving: np.ndarray, sb: SearchBudget):
    """First maximum of the direct masked-NCC grid and its direct score.

    Cells are ranked by their FFT scores; every cell the FFT rounding
    could have misranked against the maximum (within _RESCORE_WINDOW of
    it, or flagged degenerate) is re-scored directly, so the pick and
    its score are those of the per-cell search. Ties go to the first
    cell in lexicographic (tx, ty, theta, scale) order.
    """
    h, w = fixed.shape
    shifts, thetas, scales = _coarse_axes(sb)
    scores, recheck = _fft_coarse_scores(fixed, moving, shifts, thetas, scales)
    recheck |= np.isfinite(scores) & (scores >= np.max(scores) - _RESCORE_WINDOW)
    bases = {}
    for ix, iy, it, isc in np.argwhere(recheck):
        if (it, isc) not in bases:
            t0 = RigidTransform(0.0, 0.0, thetas[it], scales[isc])
            bases[it, isc] = _resample(moving, t0, w, h)
        base, base_valid = bases[it, isc]
        tx, ty = int(shifts[ix]), int(shifts[iy])
        scores[ix, iy, it, isc] = _masked_ncc(
            fixed, _shift_zero_fill(base, tx, ty), _shift_zero_fill(base_valid, tx, ty)
        )
    ix, iy, it, isc = np.unravel_index(int(np.argmax(scores)), scores.shape)
    cur = [float(shifts[ix]), float(shifts[iy]), float(thetas[it]), float(scales[isc])]
    return cur, float(scores[ix, iy, it, isc])


def register_rigid(fixed, moving, search: SearchBudget | None = None) -> RigidTransform:
    """Find the rigid transform maximizing NCC(fixed, resample(moving, T))."""
    fixed = as_image(fixed)
    moving = as_image(moving)
    if fixed.shape != moving.shape:
        raise ContractError(f"dimension mismatch {fixed.shape} vs {moving.shape}")
    if np.ptp(fixed) == 0.0 or np.ptp(moving) == 0.0:
        raise NumericalError("no correlation signal")
    sb = search or SearchBudget()
    h, w = fixed.shape
    cur, best = _coarse_pick(fixed, moving, sb)

    def evaluate(params) -> float:
        if params[3] <= 0:
            return -np.inf
        t = RigidTransform(params[0], params[1], params[2], params[3])
        return _masked_ncc(fixed, *_resample(moving, t, w, h))

    # pattern search: the NCC landscape couples rotation/scale with
    # translation, so explore all +-step combinations, not just axis moves
    def sweep(step_t: float, step_theta: float, step_s: float):
        nonlocal cur, best
        while True:
            move = None
            move_score = best
            for d in _NEIGHBOR_DIRS:
                cand = (
                    cur[0] + d[0] * step_t,
                    cur[1] + d[1] * step_t,
                    cur[2] + d[2] * step_theta,
                    cur[3] + d[3] * step_s,
                )
                score = evaluate(cand)
                if score > move_score:
                    move_score = score
                    move = cand
            if move is None:
                return
            cur = list(move)
            best = move_score

    step_t = sb.t_step / 2.0
    step_theta = math.radians(sb.theta_step_deg) / 2.0
    step_s = sb.scale_step / 2.0
    res_theta = math.radians(sb.theta_resolution_deg)
    while True:
        step_t = max(step_t, sb.t_resolution)
        step_theta = max(step_theta, res_theta)
        step_s = max(step_s, sb.scale_resolution)
        sweep(step_t, step_theta, step_s)
        at_res = (
            step_t <= sb.t_resolution
            and step_theta <= res_theta
            and step_s <= sb.scale_resolution
        )
        if at_res:
            break
        step_t /= 2.0
        step_theta /= 2.0
        step_s /= 2.0
    for _ in range(sb.polish_halvings):
        step_t /= 2.0
        step_theta /= 2.0
        step_s /= 2.0
        sweep(step_t, step_theta, step_s)
    return RigidTransform(cur[0], cur[1], cur[2], cur[3])


def fuse_wavelet(
    ct, pet_registered, family: str = "haar", levels: int = 1, rule: FusionRule | None = None
) -> np.ndarray:
    """Per-band wavelet fusion: decompose both, combine bands, reconstruct.

    LL combines per rule.ll_rule; detail coefficients per rule.detail_rule
    (max_abs picks the operand with the larger magnitude, ties go to CT).
    Output is clamped to [0, 1] since band mixing can overshoot.
    """
    ct = as_image(ct)
    pet = as_image(pet_registered)
    if ct.shape != pet.shape:
        raise ContractError(f"dimension mismatch {ct.shape} vs {pet.shape}")
    rule = rule or FusionRule()
    p_ct = dwt2(ct, family, levels)
    p_pet = dwt2(pet, family, levels)
    if rule.ll_rule == "average":
        ll = (p_ct.ll + p_pet.ll) / 2.0
    else:
        w = rule.ll_weight_ct
        ll = w * p_ct.ll + (1.0 - w) * p_pet.ll
    details = []
    for (clh, clv, cld), (plh, plv, pld) in zip(p_ct.details, p_pet.details):
        triple = []
        for cb, pb in ((clh, plh), (clv, plv), (cld, pld)):
            if rule.detail_rule == "max_abs":
                triple.append(np.where(np.abs(cb) >= np.abs(pb), cb, pb))
            else:
                triple.append((cb + pb) / 2.0)
        details.append(tuple(triple))
    fused = WaveletPyramid(
        family=family,
        levels=levels,
        ll=ll,
        details=details,
        original_dims=p_ct.original_dims,
    )
    return np.clip(idwt2(fused), 0.0, 1.0)


def entropy(img, bins: int = 256) -> float:
    """Shannon entropy in bits of the binned intensity histogram."""
    arr = as_image(img)
    if bins < 2:
        raise ContractError(f"bins must be >= 2, got {bins}")
    idx = np.minimum((np.clip(arr, 0.0, 1.0) * bins).astype(np.intp), bins - 1)
    p = np.bincount(idx.ravel(), minlength=bins) / arr.size
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def mutual_information(a, b, bins: int = 64) -> float:
    """MI in bits from the joint (bins x bins) intensity histogram."""
    a = as_image(a)
    b = as_image(b)
    if a.shape != b.shape:
        raise ContractError(f"dimension mismatch {a.shape} vs {b.shape}")
    ia = np.minimum((np.clip(a, 0.0, 1.0) * bins).astype(np.intp), bins - 1)
    ib = np.minimum((np.clip(b, 0.0, 1.0) * bins).astype(np.intp), bins - 1)
    joint = np.bincount((ia * bins + ib).ravel(), minlength=bins * bins).reshape(bins, bins)
    pj = joint / a.size
    pa = pj.sum(axis=1)
    pb = pj.sum(axis=0)
    nz = pj > 0
    outer = pa[:, None] * pb[None, :]
    return float(np.sum(pj[nz] * np.log2(pj[nz] / outer[nz])))


def psnr(a, b, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical images."""
    a = as_image(a)
    b = as_image(b)
    if a.shape != b.shape:
        raise ContractError(f"dimension mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / mse))


def ssim(a, b, window: int = 8) -> float:
    """Mean SSIM over sliding uniform windows, C1=0.01^2, C2=0.03^2."""
    a = as_image(a)
    b = as_image(b)
    if a.shape != b.shape:
        raise ContractError(f"dimension mismatch {a.shape} vs {b.shape}")
    if min(a.shape) < window:
        raise ContractError(f"image smaller than {window}x{window} SSIM window")
    c1 = 0.01**2
    c2 = 0.03**2
    wa = np.lib.stride_tricks.sliding_window_view(a, (window, window))
    wb = np.lib.stride_tricks.sliding_window_view(b, (window, window))
    mu_a = wa.mean(axis=(2, 3))
    mu_b = wb.mean(axis=(2, 3))
    var_a = (wa**2).mean(axis=(2, 3)) - mu_a**2
    var_b = (wb**2).mean(axis=(2, 3)) - mu_b**2
    cov = (wa * wb).mean(axis=(2, 3)) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def fusion_quality(fused, ct, pet) -> dict:
    """Quality report for a fused image against its two sources."""
    return {
        "entropy_f": entropy(fused),
        "mi_f_ct": mutual_information(fused, ct),
        "mi_f_pet": mutual_information(fused, pet),
        "psnr_vs_ct": psnr(fused, ct),
        "ssim_vs_ct": ssim(fused, ct),
    }
