"""2D separable discrete wavelet transform with an exact inverse.

Conventions, fixed so that two images decompose identically:

- Families: orthonormal haar (lowpass (1,1)/sqrt2, highpass (1,-1)/sqrt2)
  and db2 (standard 4-tap orthonormal coefficients). Highpass is the
  quadrature mirror hi[n] = (-1)^n lo[L-1-n].
- Boundary rule: half-sample symmetric (mirror) extension. Odd-length
  axes are first mirror-extended by one sample to even length.
- Downsampling keeps even output indices: output k windows the input
  starting at sample 2k - (L/2 - 1).
- One 2D level filters rows (x axis) first, then columns (y axis).
  Band naming follows edge response: lh (horizontal detail) is lowpass
  in x / highpass in y, lv (vertical detail) is highpass in x.
- Recursion applies to the ll band only.

Under mirror extension with critical sampling the transposed filter
bank is not an exact inverse for db2, so each axis transform is built
as an n-by-n matrix (cached per length and family) and synthesis is a
linear solve. The analysis matrices are well conditioned (haar exactly
orthogonal; db2 condition number 3.73 independent of n), giving
reconstruction at machine precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .images import as_image

_SQRT3 = math.sqrt(3.0)
_FILTERS = {
    "haar": np.array([1.0, 1.0]) / math.sqrt(2.0),
    "db2": np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3])
    / (4.0 * math.sqrt(2.0)),
}


def _fold_index(i: int, n: int) -> int:
    # half-sample mirror: ... x1 x0 | x0 x1 ... xn-1 | xn-1 xn-2 ...
    while i < 0 or i >= n:
        i = -1 - i if i < 0 else 2 * n - 1 - i
    return i


@functools.cache
def _matrices(family: str, n: int):
    """Analysis matrix and its inverse for an even-length axis."""
    lo = _FILTERS[family]
    taps = len(lo)
    hi = ((-1.0) ** np.arange(taps)) * lo[::-1]
    half = n // 2
    a = np.zeros((n, n))
    for k in range(half):
        start = 2 * k - (taps // 2 - 1)
        for j in range(taps):
            src = _fold_index(start + j, n)
            a[k, src] += lo[j]
            a[half + k, src] += hi[j]
    return a, np.linalg.inv(a)


@dataclass
class WaveletPyramid:
    """Multi-level DWT coefficient set.

    details[k] is the (lh, lv, ld) triple of level k+1, finest first.
    original_dims is (width, height) of the analyzed image.
    """

    family: str
    levels: int
    ll: np.ndarray
    details: list
    original_dims: tuple


def max_levels(width: int, height: int) -> int:
    """Number of halvings possible before an axis drops below 2 samples."""
    count = 0
    w, h = width, height
    while min(w, h) >= 2:
        w = (w + 1) // 2
        h = (h + 1) // 2
        count += 1
    return count


def _pad_even(x: np.ndarray) -> np.ndarray:
    h, w = x.shape
    if h % 2:
        x = np.vstack([x, x[-1:, :]])
    if w % 2:
        x = np.hstack([x, x[:, -1:]])
    return x


def _dwt_level(x: np.ndarray, family: str):
    x = _pad_even(x)
    h, w = x.shape
    ah, _ = _matrices(family, h)
    aw, _ = _matrices(family, w)
    t = ah @ x @ aw.T
    mh, mw = h // 2, w // 2
    ll = t[:mh, :mw]
    lv = t[:mh, mw:]  # highpass along x: vertical edges
    lh = t[mh:, :mw]  # highpass along y: horizontal edges
    ld = t[mh:, mw:]
    return ll, lh, lv, ld


def _idwt_level(ll, lh, lv, ld, out_h: int, out_w: int, family: str):
    t = np.block([[ll, lv], [lh, ld]])
    h, w = t.shape
    _, inv_h = _matrices(family, h)
    _, inv_w = _matrices(family, w)
    x = inv_h @ t @ inv_w.T
    return x[:out_h, :out_w]


def _dim_chain(width: int, height: int, levels: int):
    """Per-level (h, w) before each decomposition, then the final ll dims."""
    dims = [(height, width)]
    for _ in range(levels):
        h, w = dims[-1]
        dims.append(((h + 1) // 2, (w + 1) // 2))
    return dims


def dwt2(img, family: str = "haar", levels: int = 1) -> WaveletPyramid:
    """Forward transform; recursion on ll only."""
    arr = as_image(img)
    if family not in _FILTERS:
        raise ContractError(f"unknown wavelet family {family!r}")
    if not isinstance(levels, int) or levels < 1:
        raise ContractError(f"levels must be a positive integer, got {levels!r}")
    h, w = arr.shape
    feasible = max_levels(w, h)
    if levels > feasible:
        raise ContractError(
            f"{w}x{h} image supports at most {feasible} level(s), requested {levels}"
        )
    cur = arr
    details = []
    for _ in range(levels):
        cur, lh, lv, ld = _dwt_level(cur, family)
        details.append((lh, lv, ld))
    return WaveletPyramid(
        family=family, levels=levels, ll=cur, details=details, original_dims=(w, h)
    )


def idwt2(pyr: WaveletPyramid) -> np.ndarray:
    """Exact synthesis; output dims = original_dims."""
    if pyr.family not in _FILTERS:
        raise ContractError(f"unknown wavelet family {pyr.family!r}")
    if len(pyr.details) != pyr.levels:
        raise ContractError(
            f"details length {len(pyr.details)} != levels {pyr.levels}"
        )
    w0, h0 = pyr.original_dims
    dims = _dim_chain(w0, h0, pyr.levels)
    if tuple(pyr.ll.shape) != dims[-1]:
        raise ContractError(
            f"ll dims {pyr.ll.shape} inconsistent with original dims {pyr.original_dims}"
        )
    cur = pyr.ll
    for lev in range(pyr.levels - 1, -1, -1):
        lh, lv, ld = pyr.details[lev]
        expect = dims[lev + 1]
        for name, band in (("lh", lh), ("lv", lv), ("ld", ld)):
            if tuple(band.shape) != expect:
                raise ContractError(
                    f"level {lev + 1} band {name} dims {band.shape}, expected {expect}"
                )
        out_h, out_w = dims[lev]
        cur = _idwt_level(cur, lh, lv, ld, out_h, out_w, pyr.family)
    return cur
