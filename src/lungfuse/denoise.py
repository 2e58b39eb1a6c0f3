"""Convolutional denoising auto-encoder, implemented directly on ndarrays.

Architecture (fixed topology and channel widths, 1 -> 8 -> 16 -> 16 -> 8 -> 1):

    conv 3x3 -> relu -> meanpool 2x2
    conv 3x3 -> relu -> meanpool 2x2
    conv 3x3 -> relu -> nearest-upsample 2x
    conv 3x3 -> relu -> nearest-upsample 2x
    conv 3x3 -> sigmoid

Convolutions are stride 1 with one pixel of whole-sample mirror padding,
so every layer preserves spatial dims and the pool/upsample pairs cancel.
Inputs must have height and width divisible by 4 (two pooling stages) and
at least 8 (mirror padding needs 2 pixels per axis at the bottleneck).

Inside a batch the activations are channel-major, (c, n, h, w); the
public (n, 1, h, w) layout is a free transpose at the two ends because
the network's input and output have one channel.  A convolution is an
implicit GEMM (Chetlur et al., cuDNN, 2014): the mirror-padded input is
flattened to (c, n*(h+2)*(w+2)), where tap (dy, dx) of every output
pixel lies at the fixed offset dy*(w+2) + dx.  The nine shifted slices
of a column tile are copied into a tap-major (9*c, T) block, im2col
(Chellapilla et al., 2006) a tile at a time, with T = `_TILE` // c.  The
forward pass, the kernel gradient and the input gradient, which reads
the output gradient behind a zero margin, are each one GEMM per tile
with the kernel as a (., 9*c) matrix.  The im2col matrix, nine times the
input, is never built, only one block of at most 9*`_TILE` values at a
time; backward reads the padded input again.

Training runs each batch as two halves, the first ceil(b/2) images and
the rest, and steps on the sum of their gradients, each taken against
the whole batch's MSE (Goyal et al., arXiv:1706.02677).  The second half
runs in a partner process that `parallel.partner` forks when two CPUs
are usable and numpy's BLAS is an OpenBLAS (a thread would pass the GIL
between each half's hundreds of small numpy calls), which reads the
weights and batches from shared mappings and writes its gradient to one.
The split is made on one CPU too, so results do not depend on the CPU
count.  Each half runs in its own
workspace (`_Workspace`), allocated once, where that half runs, for half
the largest batch and freed when training returns, like cuDNN's
caller-owned workspace; `forward`, `backward` and `denoise` make one per
call.  Ops write through `out=` and in place, so no step after the first
allocates an image-sized array.  As in Chen et
al. (arXiv:1604.06174), backward keeps only what it needs: each layer's
padded input, and each ReLU's mask as bool rather than the float
pre-activation.  Pooled and upsampled activations go straight into the
interior of the next padded buffer, whose 1 px mirror border is filled
in place; the mirror fold-back of the input gradient is in place too.
Layer 0's output is also layer 4's padded input, then layer 4's input
gradient, then layer 0's padded output gradient.  A workspace that holds
an earlier step's data gives the same bits as a fresh one.

All math is float64.  The backward pass is the exact adjoint of the
forward pass, including the fold-back of the mirror padding, so finite
difference checks agree to near machine precision.
"""

from __future__ import annotations

import base64
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, FormatError, NumericalError
from .images import as_image, as_image_pair, read_json
from .nnet import Adam, glorot_uniform, relu, sigmoid, views
from .parallel import partner, shared_array
from .settings import check, check_fields, noise_param_rule, rules

__all__ = [
    "CHANNELS",
    "NetWeights",
    "TrainConfig",
    "init_weights",
    "forward",
    "backward",
    "loss_mse",
    "check_dims",
    "add_noise",
    "train_denoiser",
    "denoise",
    "save_weights",
    "load_weights",
]

# the (in, out) channels of the five conv layers, encoder to decoder order:
# the one plan every network and weights file has
CHANNELS = ((1, 8), (8, 16), (16, 16), (16, 8), (8, 1))


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 96  # clamped to dataset size
    epochs: int = 30
    rng_seed: int = 0
    noise_kind: str = "gaussian"  # gaussian | poisson
    noise_param: float = 0.1  # sigma for gaussian, count scale for poisson

    def __post_init__(self):
        check_fields(self, ContractError, "denoise")
        check("noise_param", self.noise_param, [noise_param_rule(self.noise_kind)], ContractError)


def _layers(flat, channels) -> list:
    """(kernel, bias) views per layer of a parameter buffer that holds each
    layer's (cout, cin, 3, 3) kernel, then its (cout,) bias."""
    a = views(flat, [s for cin, cout in channels for s in ((cout, cin, 3, 3), (cout,))])
    return list(zip(a[::2], a[1::2]))


def _size(channels) -> int:
    return sum(cout * (cin * 9 + 1) for cin, cout in channels)


@dataclass
class NetWeights:
    flat: np.ndarray  # every parameter, float64; kernels and biases are its _layers views
    channels: tuple = CHANNELS
    rng_seed: int | None = None
    epochs_trained: int = 0

    def __post_init__(self):
        layers = _layers(self.flat, self.channels)
        self.kernels, self.biases = [k for k, _ in layers], [b for _, b in layers]


def init_weights(seed=0, channels=CHANNELS) -> NetWeights:
    rng = np.random.default_rng(seed)
    seed_val = seed if isinstance(seed, (int, np.integer)) else None
    weights = NetWeights(np.zeros(_size(channels)), channels, rng_seed=seed_val)
    for k in weights.kernels:
        cout, cin = k.shape[:2]
        k[...] = glorot_uniform(rng, k.shape, cin * 9, cout * 9)
    return weights


# low-level layers on channel-major (c, n, h, w) batches

_TILE = 8192  # values per tap in a tap block of any channel count, so it stays in cache


def _taps(w: int, length: int):
    """(dy, dx, flat offset) per tap, and how many positions every tap can read."""
    taps = [(dy, dx, dy * (w + 2) + dx) for dy in range(3) for dx in range(3)]
    return taps, length - taps[-1][2]


def _mirror(xp):
    """Fill the 1 px border of (c, n, h+2, w+2) from its interior, as np.pad's reflect mode."""
    xp[:, :, 0, 1:-1] = xp[:, :, 2, 1:-1]
    xp[:, :, -1, 1:-1] = xp[:, :, -3, 1:-1]
    xp[:, :, :, 0] = xp[:, :, :, 2]
    xp[:, :, :, -1] = xp[:, :, :, -3]


def _fold_mirror(gxp):
    """Add the border of a padded gradient onto the pixels the mirror copied
    it from, in place; returns the (c, n, h, w) interior view."""
    gx = gxp[:, :, 1:-1, 1:-1]
    gx[:, :, 1, :] += gxp[:, :, 0, 1:-1]
    gx[:, :, -2, :] += gxp[:, :, -1, 1:-1]
    gx[:, :, :, 1] += gxp[:, :, 1:-1, 0]
    gx[:, :, :, -2] += gxp[:, :, 1:-1, -1]
    gx[:, :, 1, 1] += gxp[:, :, 0, 0]
    gx[:, :, 1, -2] += gxp[:, :, 0, -1]
    gx[:, :, -2, 1] += gxp[:, :, -1, 0]
    gx[:, :, -2, -2] += gxp[:, :, -1, -1]
    return gx


def _tap_blocks(src, taps, length: int, tmp):
    """(a, b, block) per column tile [a, b) of [0, length) of the (c, L) src,
    where the tap-major (9 * c, b - a) block in flat tmp holds
    src[:, a + o : b + o] for each tap's offset o in turn.  A tile has
    _TILE // c columns, so every block holds at most 9 * _TILE values."""
    c = len(src)
    for a in range(0, length, _TILE // c):
        b = min(a + _TILE // c, length)
        block = tmp[: 9 * c * (b - a)].reshape(9, c, b - a)
        for rows, (*_, o) in zip(block, taps):
            rows[...] = src[:, a + o : b + o]
        yield a, b, block.reshape(9 * c, b - a)


def _scratch_size(cin: int, cout: int, cells: int, w: int) -> int:
    """Flat scratch a conv layer needs over cells padded pixels of rows
    w + 2 wide: the larger of an input tap block and the output gradient
    behind its margin of 2 * (w + 2) + 2 per channel with an output tap
    block after it."""
    return max(9 * cin * min(_TILE // cin, cells),
               cout * (cells + 2 * w + 6) + 9 * cout * min(_TILE // cout, cells))


def _conv3_taps(xp, k, acc, tmp):
    """Write a 3x3 conv of the mirror-padded input xp into acc, both
    (c, n, h+2, w+2) and contiguous; output pixel (y, x) lands at acc[..., y, x].

    Flattened, the output pixel at index p reads tap (dy, dx) at
    p + dy*(w+2) + dx, so a column tile of output is one (cout, 9 * cin)
    @ (9 * cin, T) product with the tile's tap block, built in flat tmp.
    Positions that straddle a row or image edge are computed and dropped.
    """
    cout, cin = k.shape[:2]
    xf, af = xp.reshape(cin, -1), acc.reshape(cout, -1)
    taps, span = _taps(xp.shape[3] - 2, xf.shape[1])
    k9 = k.transpose(0, 2, 3, 1).reshape(cout, 9 * cin)
    for a, b, block in _tap_blocks(xf, taps, span, tmp):
        np.matmul(k9, block, out=af[:, a:b])
    return acc


def _conv3_back(gout, xp, k, gk, gb, need_gx=True, *, gpad, gxp, tmp):
    """Gradients of the conv that _conv3_taps computes from xp, the padded
    input flattened to (cin, n*(h+2)*(w+2)): writes the kernel and bias
    gradients into gk and gb and returns gx, or None unless need_gx.

    gpad (cout, n, h+2, w+2), gxp (cin, n, h+2, w+2) and flat tmp are work
    buffers; gx is a view of gxp.  gxp may be xp's buffer and tmp may hold
    gout: each is read before it is overwritten.
    """
    cout, n, h, w = gout.shape
    cin = k.shape[1]
    gpad[:, :, h:] = 0.0
    gpad[:, :, :h, w:] = 0.0
    gpad[:, :, :h, :w] = gout
    gb[...] = gout.sum(axis=(1, 2, 3))
    gf = gpad.reshape(cout, -1)
    taps, span = _taps(w, gf.shape[1])
    g2 = gf[:, :span]
    gk9 = sum(g2[:, a:b] @ block.T for a, b, block in _tap_blocks(xp, taps, span, tmp))
    gk.reshape(cout, cin, 9)[...] = gk9.reshape(cout, 9, cin).transpose(0, 2, 1)
    if not need_gx:
        return None
    # gx[:, q] sums k[:, :, t].T @ g[:, q - o_t] over the taps t.  Behind a
    # zero margin of m = o_8 (gf is zero past span, which gives the right
    # one), g[q - o_t] lies m - o_t = o_(8 - t) past q: the taps in reverse.
    m = taps[-1][2]
    g = tmp[: cout * (m + gf.shape[1])].reshape(cout, -1)
    g[:, :m] = 0.0
    g[:, m:] = gf
    gxf = gxp.reshape(cin, -1)
    kt = k.reshape(cout, cin, 9).transpose(1, 2, 0).reshape(cin, 9 * cout)
    for a, b, block in _tap_blocks(g, taps[::-1], gxf.shape[1], tmp[g.size :]):
        np.matmul(kt, block, out=gxf[:, a:b])
    return _fold_mirror(gxp)


def _up2_back(g, out):
    """Sum of every 2x2 block, written to out; g's odd rows are overwritten
    with partial sums."""
    a, b = g[..., ::2, ::2], g[..., ::2, 1::2]
    c, d = g[..., 1::2, ::2], g[..., 1::2, 1::2]
    np.add(a, b, out=out)
    out += np.add(c, d, out=c)
    return out


def _pool2(x, out):
    """Mean of every 2x2 block, written to out; x's odd rows are overwritten."""
    s = _up2_back(x, out)
    return np.divide(s, 4.0, out=s)


def _up2(x, out):
    """Nearest-neighbour 2x upsampling into out."""
    for dy in range(2):
        for dx in range(2):
            out[..., dy::2, dx::2] = x
    return out


def _pool2_back(g, out):
    """Gradient of _pool2, written to out; g is divided by 4 in place."""
    return _up2(np.divide(g, 4.0, out=g), out)


def _view(buf, shape):
    """The contiguous leading part of a flat buffer, shaped."""
    return buf[: math.prod(shape)].reshape(shape)


def check_dims(h: int, w: int) -> None:
    """Refuse dims the two pooling stages and the bottleneck's mirror padding cannot take."""
    if h % 4 or w % 4:
        raise ContractError(f"image dims must be divisible by 4, got {h}x{w}")
    if h < 8 or w < 8:
        raise ContractError(f"image dims must be at least 8, got {h}x{w}")


class _Workspace:
    """Every array a training step needs, for batches of up to n h x w images.

    Layer i reads its padded input from xp[i] and writes its output into
    acc[i], where its bias and ReLU are applied in place.  Backward reuses
    acc[i] as layer i's padded output gradient and xp[i], once its kernel
    gradient is taken, as the padded input gradient.  Output gradients,
    the margined output gradient and tap blocks go through the flat
    scratch.  A smaller batch runs in the leading part of each buffer.
    The gradient is one buffer, laid out as NetWeights.flat; grads holds
    its (kernel, bias) views.
    """

    def __init__(self, channels, n: int, h: int, w: int):
        check_dims(h, w)
        self.channels, self.h, self.w = channels, h, w
        self.dims = [(h, w), (h // 2, w // 2), (h // 4, w // 4), (h // 2, w // 2), (h, w)]
        ch = self.channels
        sizes = [n * (hh + 2) * (ww + 2) for hh, ww in self.dims]
        big = np.empty(max(ch[0][1], ch[4][0]) * sizes[0])
        self._xp = [np.empty(c[0] * s) for c, s in zip(ch[:4], sizes)] + [big]
        self._acc = [big] + [np.empty(c[1] * s) for c, s in zip(ch[1:], sizes[1:])]
        self._mask = [np.empty(c[1] * n * hh * ww, bool) for c, (hh, ww) in zip(ch, self.dims)]
        self._y = np.empty(n * h * w)
        need = [2 * n * h * w]
        for (cin, cout), s, (hh, ww) in zip(ch, sizes, self.dims):
            need += [cout * n * hh * ww, _scratch_size(cin, cout, s, ww)]
        self._scratch = np.empty(max(need))
        self.grad = np.empty(_size(ch))
        self.grads = _layers(self.grad, ch)

    def _views(self, n: int):
        pads = [(n, hh + 2, ww + 2) for hh, ww in self.dims]
        xp = [_view(buf, (c[0],) + p) for buf, c, p in zip(self._xp, self.channels, pads)]
        acc = [_view(buf, (c[1],) + p) for buf, c, p in zip(self._acc, self.channels, pads)]
        return xp, acc

    def forward(self, weights: NetWeights, x):
        """Network output on a (n, 1, h, w) batch, as (1, n, h, w) in the workspace."""
        n = x.shape[0]
        xp, acc = self._views(n)
        xp[0][0, :, 1:-1, 1:-1] = x[:, 0]
        for i, (k, b) in enumerate(zip(weights.kernels, weights.biases)):
            _mirror(xp[i])
            hh, ww = self.dims[i]
            z = _conv3_taps(xp[i], k, acc[i], self._scratch)[:, :, :hh, :ww]
            if i < 4:
                z += b[:, None, None, None]
                np.greater(z, 0.0, out=_view(self._mask[i], z.shape))
                relu(z, out=z)
                (_pool2 if i < 2 else _up2)(z, out=xp[i + 1][:, :, 1:-1, 1:-1])
        z4 = np.add(z, b[:, None, None, None], out=_view(self._scratch, z.shape))
        y = _view(self._y, z.shape)
        zf, yf = z4.reshape(-1), y.reshape(-1)
        for a in range(0, zf.size, _TILE):
            yf[a : a + _TILE] = sigmoid(zf[a : a + _TILE])
        return y

    def loss(self, target) -> float:
        """Mean squared error of the last forward output against (n, 1, h, w) target."""
        y = _view(self._y, (1, len(target), self.h, self.w))
        d = np.subtract(y, target.transpose(1, 0, 2, 3), out=_view(self._scratch, y.shape))
        return float(np.mean(np.square(d, out=d)))

    def backward(self, weights: NetWeights, target, size: int | None = None) -> np.ndarray:
        """Fill grad with the gradient of the last forward pass's part of an
        MSE over size pixels (by default, over this batch's own); returns grad."""
        n = len(target)
        xp, acc = self._views(n)
        y = _view(self._y, (1, n, self.h, self.w))
        # 2.0 * (y - t) / size * y * (1.0 - y), one op at a time in that order
        gz = np.subtract(y, target.transpose(1, 0, 2, 3), out=_view(self._scratch, y.shape))
        np.multiply(2.0, gz, out=gz)
        np.divide(gz, size or y.size, out=gz)
        np.multiply(gz, y, out=gz)
        gz *= np.subtract(1.0, y, out=_view(self._scratch[y.size :], y.shape))
        for i in range(4, -1, -1):
            k = weights.kernels[i]
            gx = _conv3_back(
                gz, xp[i].reshape(k.shape[1], -1), k, *self.grads[i], need_gx=i > 0,
                gpad=acc[i], gxp=xp[i], tmp=self._scratch,
            )
            if i:
                gz = _view(self._scratch, (k.shape[1], n) + self.dims[i - 1])
                (_up2_back if i > 2 else _pool2_back)(gx, out=gz)
                gz *= _view(self._mask[i - 1], gz.shape)
        return self.grad


def forward(weights: NetWeights, img) -> np.ndarray:
    """Run the network on one image.  Dims must be divisible by 4."""
    x = as_image(img)[None, None]
    return _Workspace(weights.channels, 1, *x.shape[2:]).forward(weights, x)[0, 0]


def backward(weights: NetWeights, img, target) -> list:
    """Per-layer (kernel, bias) gradients of the MSE against target."""
    img, target = as_image_pair(img, target)
    ws = _Workspace(weights.channels, 1, *img.shape)
    ws.forward(weights, img[None, None])
    ws.backward(weights, target[None, None])
    return ws.grads


def loss_mse(pred, target) -> float:
    p, t = as_image_pair(pred, target)
    return float(np.mean((p - t) ** 2))


def add_noise(img, kind: str = "gaussian", param: float = 0.1, rng=None) -> np.ndarray:
    """Corrupt a unit-range image.

    gaussian: additive N(0, param^2).  poisson: photon counting at
    param expected counts per unit intensity.  Output is clipped to [0, 1].
    """
    check("kind", kind, rules("denoise", "noise_kind"), ContractError)
    check("param", param, (*rules("denoise", "noise_param"), noise_param_rule(kind)), ContractError)
    a = np.asarray(img, dtype=np.float64)
    rng = np.random.default_rng(rng)
    if kind == "gaussian":
        noisy = a + rng.normal(0.0, 1.0, a.shape) * param if param > 0 else a.copy()
    else:
        noisy = rng.poisson(np.clip(a, 0.0, None) * param) / param
    return np.clip(noisy, 0.0, 1.0)


def _half_step(ws: _Workspace, weights: NetWeights, x, t, size: int):
    """(MSE, gradient buffer of its part of an MSE over size pixels) of one
    half batch; a non-finite MSE gives no gradient."""
    ws.forward(weights, x)
    loss = ws.loss(t)
    return loss, ws.backward(weights, t, size) if np.isfinite(loss) else None


def train_denoiser(clean_images, cfg: TrainConfig | None = None):
    """Train on clean images with fresh noise drawn every epoch.

    Returns (weights, log) where log[e] is the mean per-sample MSE of
    epoch e.  Requires at least 8 images of a common size.
    """
    cfg = cfg or TrainConfig()
    imgs = [as_image(im) for im in clean_images]
    if len(imgs) < 8:
        raise DataError(f"need at least 8 clean images, got {len(imgs)}")
    shape = imgs[0].shape
    for i, im in enumerate(imgs):
        if im.shape != shape:
            raise ContractError(f"image {i} has shape {im.shape}, expected {shape}")
    n = len(imgs)
    batch = min(cfg.batch_size, n)
    new_ws = functools.partial(_Workspace, CHANNELS, -(-batch // 2), *shape)
    ws, second = new_ws(), functools.cache(new_ws)  # the second is made where its half runs

    rng = np.random.default_rng(cfg.rng_seed)
    # what the second half reads and writes, on mappings its partner shares:
    # the weights, which Adam updates in place, the epoch's batches and its gradient
    flat, grad_b = shared_array((_size(CHANNELS),)), shared_array((_size(CHANNELS),))
    noisy, target = shared_array((n, 1) + shape), shared_array((n, 1) + shape)
    flat[:] = init_weights(rng).flat
    weights = NetWeights(flat)
    opt = Adam(flat, lr=cfg.learning_rate)

    def second_half(mid, stop, size):
        loss, g = _half_step(second(), weights, noisy[mid:stop], target[mid:stop], size)
        if g is not None:
            grad_b[:] = g
        return loss

    log = []
    with partner(second_half) as pair:
        for epoch in range(cfg.epochs):
            # noise is drawn in image order; each image is stored at its place
            # in this epoch's order, so every batch is a contiguous slice
            slot = np.argsort(rng.permutation(n))
            for i, im in enumerate(imgs):
                target[slot[i], 0] = im
                noisy[slot[i], 0] = add_noise(im, cfg.noise_kind, cfg.noise_param, rng)
            total = 0.0
            for start in range(0, n, batch):
                stop = min(start + batch, n)
                mid = start + -(-(stop - start) // 2)
                size = (stop - start) * shape[0] * shape[1]
                first = functools.partial(_half_step, ws, weights, noisy[start:mid],
                                          target[start:mid], size)
                (la, ga), lb = pair(first, mid, stop, size) if stop > mid else (first(), 0.0)
                loss = (la * (mid - start) + lb * (stop - mid)) / (stop - start)
                if not np.isfinite(loss):
                    raise NumericalError(
                        f"non-finite training loss {loss} at epoch {epoch} batch {start // batch}"
                    )
                if stop > mid:
                    ga += grad_b
                opt.step(flat, ga)
                total += loss * (stop - start)
            log.append(total / n)
    return NetWeights(flat.copy(), rng_seed=cfg.rng_seed, epochs_trained=cfg.epochs), log


def denoise(weights: NetWeights, img) -> np.ndarray:
    """Denoise an image of any size by mirror-padding to a valid shape."""
    a = as_image(img)
    h, w = a.shape
    ht = max(-(-h // 4) * 4, 8)
    wt = max(-(-w // 4) * 4, 8)
    padded = np.pad(a, ((0, ht - h), (0, wt - w)), mode="symmetric")
    out = forward(weights, padded)
    return np.ascontiguousarray(out[:h, :w])


# weights file: single JSON document, float32 little-endian base64 payloads

_WEIGHTS_FORMAT = "denoiser-weights"
_WEIGHTS_VERSION = 1


def _encode(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f4").tobytes()).decode("ascii")


def _decode(s, shape, what: str) -> np.ndarray:
    if not isinstance(s, str):
        raise FormatError(f"{what}: expected a base64 string, got {type(s).__name__}")
    try:
        raw = base64.b64decode(s, validate=True)
    except Exception as exc:
        raise FormatError(f"bad base64 payload for {what}: {exc}") from None
    expect = int(np.prod(shape)) * 4
    if len(raw) != expect:
        raise FormatError(f"{what}: expected {expect} bytes, got {len(raw)}")
    a = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)
    if not np.all(np.isfinite(a)):
        raise FormatError(f"{what} contains NaN or Inf")
    return a


def save_weights(path, weights: NetWeights) -> None:
    doc = {
        "format": _WEIGHTS_FORMAT,
        "format_version": _WEIGHTS_VERSION,
        "dtype": "float32",
        "byte_order": "little",
        "channels": [list(p) for p in weights.channels],
        "rng_seed": weights.rng_seed,
        "epochs_trained": weights.epochs_trained,
        "layers": [
            {
                "kernel_shape": list(k.shape),
                "kernel": _encode(k),
                "bias_shape": list(b.shape),
                "bias": _encode(b),
            }
            for k, b in zip(weights.kernels, weights.biases)
        ],
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_weights(path) -> NetWeights:
    doc = read_json(path, "weights file", encoding="ascii")  # the writer's encoding
    if not isinstance(doc, dict) or doc.get("format") != _WEIGHTS_FORMAT:
        raise FormatError("not a denoiser weights file")
    if doc.get("format_version") != _WEIGHTS_VERSION:
        raise FormatError(f"unsupported weights version {doc.get('format_version')!r}")
    layers = doc.get("layers")
    if not isinstance(layers, list) or not all(isinstance(layer, dict) for layer in layers):
        raise FormatError("weights file: layers must be a list of objects")
    found, plan = json.dumps(doc.get("channels")), json.dumps(CHANNELS)  # 1.0 is not 1
    if found != plan:
        raise FormatError(f"weights file declares an invalid network: channels {found} "
                          f"are not the channel width plan {plan}")
    if len(layers) != len(CHANNELS):
        raise FormatError(f"expected {len(CHANNELS)} layers, got {len(layers)}")
    epochs = doc.get("epochs_trained", 0)
    if type(epochs) is not int or epochs < 0:
        raise FormatError(f"epochs_trained must be a non-negative integer, got {epochs!r}")
    arrays = []
    for i, ((cin, cout), layer) in enumerate(zip(CHANNELS, layers)):
        for part, shape in (("kernel", (cout, cin, 3, 3)), ("bias", (cout,))):
            got = layer.get(f"{part}_shape")
            if got != list(shape):
                raise FormatError(f"layer {i}: {part} shape {got} does not match channels")
            arrays.append(_decode(layer.get(part), shape, f"layer {i} {part}"))
    seed = doc.get("rng_seed")
    return NetWeights(
        np.concatenate([a.ravel() for a in arrays]),
        rng_seed=seed if isinstance(seed, int) else None,
        epochs_trained=epochs,
    )
