"""Rigid PET-to-CT registration, wavelet coefficient fusion, quality metrics.

A RigidTransform acts in centered pixel coordinates: with c the image
center ((w-1)/2, (h-1)/2), a point p maps to

    p' = scale * R(theta) * (p - c) + c + (tx, ty)

so rotation and scaling pivot about the image center and tx/ty are
read directly as pixel displacements of the content. Registration
maximizes normalized cross-correlation over the overlap of the two
images (masked NCC) on a fixed coarse grid, then hill-climbs with step
halving. The coarse grid shifts by whole pixels, so for each
(theta, scale) the scores at all shifts come from zero-padded FFT
cross-correlations (Padfield, "Masked object registration in the
Fourier domain", IEEE TIP 21(5), 2012).
Cells whose FFT score lies within 1e-9 of the FFT maximum, and cells
whose variance is too small for the FFT sums to resolve, are scored
again directly, so the coarse pick and its score are exactly those of
a per-cell scan. The refinement scores candidates in the resampler's
kept buffers (_Resampler.score), bit for bit as resampling them would.
All tie-breaks are deterministic: the coarse stage
takes the first maximum in lexicographic (tx, ty, theta, scale) scan
order, the refinement accepts only strict improvements in a fixed
candidate order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ContractError, NumericalError
from .images import as_image, as_image_pair
from .settings import check_fields
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
        """Inverse in the centered frame."""
        c, s = math.cos(-self.theta), math.sin(-self.theta)
        inv_s = 1.0 / self.scale
        tx = -inv_s * (c * self.tx - s * self.ty)
        ty = -inv_s * (s * self.tx + c * self.ty)
        return RigidTransform(tx=tx, ty=ty, theta=-self.theta, scale=inv_s)


@dataclass(frozen=True)
class FusionRule:
    ll_weight_ct: float = 0.5  # LL = w * CT + (1 - w) * PET
    detail_rule: str = "max_abs"  # "max_abs" | "average"

    def __post_init__(self):
        check_fields(self, ContractError, "fusion")


class _Resampler:
    """Bilinear resampling of one image, at its own size, under many transforms.

    The zero-padded copy of the image, the centred coordinates and the
    image-sized work buffers are built once; of the image-sized arrays a
    call allocates only the image and mask it returns, so results kept
    by the caller stay valid across later calls. The rotated outer
    differences are rebuilt only when the bits of (tx, ty, theta) change,
    so transforms that differ in scale alone share them. score() samples
    into kept buffers and skips the index clamps: take(mode="clip")
    keeps every read in range, and a clamp changes only pixels outside
    the valid mask, which the score never reads.
    """

    def __init__(self, arr: np.ndarray):
        h, w = arr.shape
        self.cx, self.cy = (w - 1) / 2.0, (h - 1) / 2.0
        self.xc = np.arange(w, dtype=np.float64) - self.cx
        self.yc = np.arange(h, dtype=np.float64) - self.cy
        # a 2 px zero border turns every out-of-bounds tap into a read of 0
        padded = np.zeros((h + 4, w + 4))
        padded[2:-2, 2:-2] = arr
        self.flat = padded.ravel()
        (self.rx, self.ry, self.px, self.py, self.x0, self.y0, self.gx, self.gy,
         self.wgt, self.tap, self.sampled) = (np.empty((h, w)) for _ in range(11))
        self.idx = np.empty((h, w), dtype=np.intp)
        self.inside, self.valid = np.empty((h, w), dtype=bool), np.empty((h, w), dtype=bool)
        self.key = None

    def _locate(self, t: RigidTransform, valid: np.ndarray) -> np.ndarray:
        """Fills valid; leaves each source point's floor in x0, y0 and its
        fraction in px, py."""
        h, w = self.idx.shape
        px, py, x0, y0 = self.px, self.py, self.x0, self.y0
        # p = R(-theta) (q - c - t) / scale + c, as outer differences of 1-D
        # terms; the out= and in-place steps keep the IEEE operation order
        key = struct.pack("3d", t.tx, t.ty, t.theta)
        if key != self.key:
            dx = self.xc - t.tx
            dy = self.yc - t.ty
            c, s = math.cos(-t.theta), math.sin(-t.theta)
            np.subtract((c * dx)[None, :], (s * dy)[:, None], out=self.rx)
            np.add((s * dx)[None, :], (c * dy)[:, None], out=self.ry)
            self.key = key
        np.divide(self.rx, t.scale, out=px)
        px += self.cx
        np.divide(self.ry, t.scale, out=py)
        py += self.cy
        inside = self.inside
        np.greater_equal(px, 0, out=valid)
        valid &= np.less_equal(px, w - 1, out=inside)
        valid &= np.greater_equal(py, 0, out=inside)
        valid &= np.less_equal(py, h - 1, out=inside)
        np.floor(px, out=x0)
        np.floor(py, out=y0)
        np.subtract(px, x0, out=px)
        np.subtract(py, y0, out=py)
        return valid

    def _sample(self, out: np.ndarray) -> np.ndarray:
        """Adds the four bilinear taps at the floor in x0, y0 into out."""
        w = self.idx.shape[1]
        row = w + 4
        y0, fx, fy, idx = self.y0, self.px, self.py, self.idx
        y0 *= row
        y0 += self.x0
        np.copyto(idx, y0, casting="unsafe")
        idx += 2 * row + 2
        gx = np.subtract(1, fx, out=self.gx)
        gy = np.subtract(1, fy, out=self.gy)
        tap, wgt = self.tap, self.wgt
        for offset, wx, wy in ((0, gx, gy), (1, fx, gy), (row, gx, fy), (row + 1, fx, fy)):
            # "clip" keeps every read in range; "raise" would copy through
            # a temporary instead of writing into tap
            self.flat[offset:].take(idx, out=tap, mode="clip")
            tap *= np.multiply(wx, wy, out=wgt)
            out += tap
        return out

    def __call__(self, t: RigidTransform):
        """Returns (image, valid): image samples outside the input are 0;
        valid marks output pixels whose inverse-mapped source lies within
        [0, w-1] x [0, h-1]."""
        h, w = self.idx.shape
        valid = self._locate(t, np.empty((h, w), dtype=bool))
        # clamped, every tap outside the input reads the zero border;
        # np.minimum(np.maximum(...)) is np.clip without its Python wrapper
        np.minimum(np.maximum(self.y0, -2, out=self.y0), h, out=self.y0)
        np.minimum(np.maximum(self.x0, -2, out=self.x0), w, out=self.x0)
        return self._sample(np.zeros((h, w))), valid

    def score(self, fixed: np.ndarray, t: RigidTransform) -> float:
        """_masked_ncc(fixed, *self(t)), bit for bit, from the kept buffers."""
        valid = self._locate(t, self.valid)
        self.sampled.fill(0.0)
        return _masked_ncc(fixed, self._sample(self.sampled), valid)


def resample_bilinear(img, t: RigidTransform) -> np.ndarray:
    """Inverse-mapping bilinear resampling at the input's size; out-of-bounds
    samples are 0."""
    return _Resampler(as_image(img))(t)[0]


def ncc(a, b) -> float:
    """Normalized cross-correlation of two equal-sized images."""
    a, b = as_image_pair(a, b)
    score = _masked_ncc(a, b, np.ones(a.shape, dtype=bool))
    if score == -np.inf:
        raise NumericalError("no correlation signal")
    return score


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
    n = np.count_nonzero(valid)
    if n < _MIN_VALID_FRACTION * fixed.size:
        return -np.inf
    # np.add.reduce is the pairwise sum that .mean() and np.sum take,
    # called without their Python wrappers; the gathers are fresh copies
    fz = fixed[valid]
    fz -= np.add.reduce(fz) / n
    mz = cand[valid]
    mz -= np.add.reduce(mz) / n
    nf = float(np.sqrt(np.add.reduce(fz * fz)))
    nm = float(np.sqrt(np.add.reduce(mz * mz)))
    if nf == 0.0 or nm == 0.0:
        return -np.inf
    return float(np.add.reduce(fz * mz)) / (nf * nm)


# FFT scores this close to the grid maximum are re-scored directly; the
# FFT sums differ from the direct ones by ~1e-15 on non-degenerate cells
_RESCORE_WINDOW = 1e-9
# a windowed variance below this fraction of the image energy has lost
# that many digits to cancellation in the FFT sums; score it directly
_DEGENERATE_VARIANCE = 1e-4

# the coarse grid: whole-pixel shifts of +-16 px in 2 px steps (the FFT
# scores need integral shifts), +-6 deg in 2 deg steps and scale 0.9-1.1
# in 0.05 steps; rounding removes arange drift so e.g. scale 1.0 is exact
_SHIFTS = np.arange(-16, 17, 2)
_THETAS = np.deg2rad(np.round(np.arange(-6.0, 6.0 + 1e-9, 2.0), 10))
_SCALES = np.round(np.arange(0.9, 1.1 + 1e-9, 0.05), 10)
# the refinement's (translation, rotation, scale) steps: half the coarse
# steps, halved down to 0.25 px, 0.25 deg and 0.01 (scale holds there),
# then two further halvings below them: rotation errors couple with
# sub-resolution translation compensation (0.25 deg of rotation displaces
# off-center structure by under 0.1 px), and stopping exactly at the
# nominal resolution leaves theta stuck up to ~0.7 deg from the
# objective's maximizer on lung-like slices
_STEPS = tuple(
    (2.0 / 2**i, math.radians(2.0) / 2**i, s)
    for i, s in enumerate((0.05 / 2, 0.05 / 4, 0.01, 0.01 / 2, 0.01 / 4), 1)
)


def _fft_coarse_scores(fixed: np.ndarray, resample: _Resampler):
    """Masked NCC of every coarse cell (_SHIFTS^2 x _THETAS x _SCALES)
    from FFT correlations.

    For each (theta, scale), the moving image is resampled once into
    base with valid mask bv; shifting both by an integer (tx, ty) is then a
    correlation, so the overlap count and the five sums of masked NCC
    at all shifts come from six zero-padded FFT cross-correlations
    (Padfield, "Masked object registration in the Fourier domain",
    IEEE TIP 21(5), 2012). Returns scores indexed [tx, ty, theta,
    scale], -inf below the overlap floor, a mask of the cells whose
    variances are too small to trust the FFT score, and the (base,
    valid) pair of every (theta, scale) slice, keyed by slice index, so
    that a cell re-scored directly costs no second resample.
    """
    shifts, thetas, scales = _SHIFTS, _THETAS, _SCALES
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
    slices = {}
    for it, theta in enumerate(thetas):
        for isc, scale in enumerate(scales):
            base, valid = slices[it, isc] = resample(RigidTransform(0.0, 0.0, theta, scale))
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
    return scores, degenerate, slices


def _coarse_pick(fixed: np.ndarray, resample: _Resampler):
    """First maximum of the direct masked-NCC grid and its direct score.

    Cells are ranked by their FFT scores; every cell the FFT rounding
    could have misranked against the maximum (within _RESCORE_WINDOW of
    it, or flagged degenerate) is re-scored directly, so the pick and
    its score are those of the per-cell search. Ties go to the first
    cell in lexicographic (tx, ty, theta, scale) order.
    """
    shifts, thetas, scales = _SHIFTS, _THETAS, _SCALES
    scores, recheck, slices = _fft_coarse_scores(fixed, resample)
    recheck |= np.isfinite(scores) & (scores >= np.max(scores) - _RESCORE_WINDOW)
    for ix, iy, it, isc in np.argwhere(recheck):
        base, base_valid = slices[it, isc]
        tx, ty = int(shifts[ix]), int(shifts[iy])
        scores[ix, iy, it, isc] = _masked_ncc(
            fixed, _shift_zero_fill(base, tx, ty), _shift_zero_fill(base_valid, tx, ty)
        )
    ix, iy, it, isc = np.unravel_index(int(np.argmax(scores)), scores.shape)
    cur = [float(shifts[ix]), float(shifts[iy]), float(thetas[it]), float(scales[isc])]
    return cur, float(scores[ix, iy, it, isc])


def register_rigid(fixed, moving) -> RigidTransform:
    """Find the rigid transform maximizing NCC(fixed, resample(moving, T))."""
    fixed, moving = as_image_pair(fixed, moving)
    if np.ptp(fixed) == 0.0 or np.ptp(moving) == 0.0:
        raise NumericalError("no correlation signal")
    resample = _Resampler(moving)
    cur, best = _coarse_pick(fixed, resample)
    # the search revisits about a quarter of its candidates; each distinct
    # one is scored once per call, keyed on its exact bits so that 0.0 and
    # -0.0 stay apart
    scored = {}

    def evaluate(params) -> float:
        if params[3] <= 0:
            return -np.inf
        key = struct.pack("4d", *params)
        if key not in scored:
            t = RigidTransform(params[0], params[1], params[2], params[3])
            scored[key] = resample.score(fixed, t)
        return scored[key]

    # pattern search: the NCC landscape couples rotation/scale with
    # translation, so explore all +-step combinations, not just axis moves
    for step_t, step_theta, step_s in _STEPS:
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
                break
            cur, best = move, move_score
    return RigidTransform(cur[0], cur[1], cur[2], cur[3])


def fuse_wavelet(
    ct, pet_registered, family: str = "haar", levels: int = 1, rule: FusionRule | None = None
) -> np.ndarray:
    """Per-band wavelet fusion: decompose both, combine bands, reconstruct.

    LL is w * CT + (1 - w) * PET, w = rule.ll_weight_ct; detail coefficients per rule.detail_rule
    (max_abs picks the operand with the larger magnitude, ties go to CT).
    Output is clamped to [0, 1] since band mixing can overshoot.
    """
    ct, pet = as_image_pair(ct, pet_registered)
    rule = rule or FusionRule()
    p_ct = dwt2(ct, family, levels)
    p_pet = dwt2(pet, family, levels)
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


def mutual_information(a, b) -> float:
    """MI in bits from the joint 64 x 64 intensity histogram."""
    a, b = as_image_pair(a, b)
    bins = 64
    ia = np.minimum((np.clip(a, 0.0, 1.0) * bins).astype(np.intp), bins - 1)
    ib = np.minimum((np.clip(b, 0.0, 1.0) * bins).astype(np.intp), bins - 1)
    joint = np.bincount((ia * bins + ib).ravel(), minlength=bins * bins).reshape(bins, bins)
    pj = joint / a.size
    pa = pj.sum(axis=1)
    pb = pj.sum(axis=0)
    nz = pj > 0
    outer = pa[:, None] * pb[None, :]
    return float(np.sum(pj[nz] * np.log2(pj[nz] / outer[nz])))


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB against a peak of 1; +inf for identical images."""
    a, b = as_image_pair(a, b)
    mse = float(np.mean((a - b) ** 2))
    return float("inf") if mse == 0.0 else float(10.0 * np.log10(1.0 / mse))


def ssim(a, b) -> float:
    """Mean SSIM over sliding uniform 8x8 windows, C1=0.01^2, C2=0.03^2."""
    a, b = as_image_pair(a, b)
    if min(a.shape) < 8:
        raise ContractError("image smaller than 8x8 SSIM window")
    c1 = 0.01**2
    c2 = 0.03**2
    wa = np.lib.stride_tricks.sliding_window_view(a, (8, 8))
    wb = np.lib.stride_tricks.sliding_window_view(b, (8, 8))
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
