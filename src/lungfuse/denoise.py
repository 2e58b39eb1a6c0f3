"""Convolutional denoising auto-encoder, implemented directly on ndarrays.

Architecture (fixed topology, configurable channel widths):

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
flattened to (cin, n*(h+2)*(w+2)), where tap (dy, dx) of every output
pixel lies at the fixed offset dy*(w+2) + dx, so each of the nine taps
is one (cout, cin) @ (cin, span) product over a shifted slice.  The
im2col matrix, nine times the input, is never built; backward reads the
padded input again.

All math is float64.  The backward pass is the exact adjoint of the
forward pass, including the fold-back of the mirror padding, so finite
difference checks agree to near machine precision.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, FormatError, NumericalError
from .nnet import Adam, TrainConfig, glorot_uniform, layer_width, relu, sigmoid

__all__ = [
    "ConvNetSpec",
    "NetWeights",
    "TrainConfig",
    "init_weights",
    "forward",
    "backward",
    "loss_mse",
    "add_noise",
    "train_denoiser",
    "denoise",
    "save_weights",
    "load_weights",
]

_DEFAULT_CHANNELS = ((1, 8), (8, 16), (16, 16), (16, 8), (8, 1))


@dataclass(frozen=True)
class ConvNetSpec:
    """Channel plan for the five conv layers, encoder to decoder order."""

    channels: tuple = _DEFAULT_CHANNELS

    def __post_init__(self):
        ch = tuple(tuple(layer_width(c, "channel width") for c in pair) for pair in self.channels)
        object.__setattr__(self, "channels", ch)
        if len(ch) != 5:
            raise ContractError(f"expected 5 conv layers, got {len(ch)}")
        for pair in ch:
            if len(pair) != 2 or pair[0] < 1 or pair[1] < 1:
                raise ContractError(f"bad channel pair {pair}")
        if ch[0][0] != 1 or ch[-1][1] != 1:
            raise ContractError("network must map 1 channel to 1 channel")
        for a, b in zip(ch[:-1], ch[1:]):
            if a[1] != b[0]:
                raise ContractError(f"channel chain breaks between {a} and {b}")


@dataclass
class NetWeights:
    spec: ConvNetSpec
    kernels: list  # (cout, cin, 3, 3) float64 per layer
    biases: list  # (cout,) float64 per layer
    rng_seed: int | None = None
    epochs_trained: int = 0

    def params(self) -> list:
        """Flat parameter list, kernel then bias per layer; shared memory."""
        out = []
        for k, b in zip(self.kernels, self.biases):
            out.append(k)
            out.append(b)
        return out


def init_weights(spec: ConvNetSpec, seed=0) -> NetWeights:
    rng = np.random.default_rng(seed)
    kernels, biases = [], []
    for cin, cout in spec.channels:
        k = glorot_uniform(rng, (cout, cin, 3, 3), cin * 9, cout * 9)
        kernels.append(k)
        biases.append(np.zeros(cout))
    seed_val = seed if isinstance(seed, (int, np.integer)) else None
    return NetWeights(spec, kernels, biases, rng_seed=seed_val)


# low-level layers on channel-major (c, n, h, w) batches


def _reflect_pad(x):
    return np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect")


def _taps(w: int, length: int):
    """(dy, dx, flat offset) per tap, and how many positions every tap can read."""
    taps = [(dy, dx, dy * (w + 2) + dx) for dy in range(3) for dx in range(3)]
    return taps, length - taps[-1][2]


def _conv3(x, k, b):
    """3x3 stride-1 conv with mirror padding.  Returns (out, xp).

    xp is the padded input flattened to (cin, n*(h+2)*(w+2)); _conv3_back
    reads it.  The output pixel at flat padded index p reads tap (dy, dx)
    at p + dy*(w+2) + dx, so each tap is one matmul over a shifted slice.
    Positions that straddle a row or image edge are computed and dropped.
    """
    cin, n, h, w = x.shape
    cout = k.shape[0]
    xp = _reflect_pad(x).reshape(cin, -1)
    taps, span = _taps(w, xp.shape[1])
    acc = np.zeros((cout, xp.shape[1]))
    for dy, dx, o in taps:
        if cin == 1:  # inner dimension 1: broadcasting beats a BLAS call
            acc[:, :span] += k[:, 0, dy, dx, None] * xp[0, o : o + span]
        else:
            acc[:, :span] += k[:, :, dy, dx] @ xp[:, o : o + span]
    out = acc.reshape(cout, n, h + 2, w + 2)[:, :, :h, :w] + b[:, None, None, None]
    return out, xp


def _conv3_back(gout, xp, k, need_gx=True):
    """Gradients of _conv3: returns (gk, gb, gx), gx None unless need_gx."""
    cout, n, h, w = gout.shape
    cin = k.shape[1]
    gpad = np.zeros((cout, n, h + 2, w + 2))
    gpad[:, :, :h, :w] = gout
    gpad = gpad.reshape(cout, -1)
    taps, span = _taps(w, gpad.shape[1])
    g2 = gpad[:, :span]
    gk = np.empty(k.shape)
    for dy, dx, o in taps:
        gk[:, :, dy, dx] = g2 @ xp[:, o : o + span].T
    gb = gout.sum(axis=(1, 2, 3))
    if not need_gx:
        return gk, gb, None
    gxp = np.zeros((cin, gpad.shape[1]))
    for dy, dx, o in taps:
        if cout == 1:
            gxp[:, o : o + span] += k[0, :, dy, dx, None] * g2[0]
        else:
            gxp[:, o : o + span] += k[:, :, dy, dx].T @ g2
    gxp = gxp.reshape(cin, n, h + 2, w + 2)
    # fold the padded border back where the mirror read from
    gx = gxp[:, :, 1:-1, 1:-1].copy()
    gx[:, :, 1, :] += gxp[:, :, 0, 1:-1]
    gx[:, :, -2, :] += gxp[:, :, -1, 1:-1]
    gx[:, :, :, 1] += gxp[:, :, 1:-1, 0]
    gx[:, :, :, -2] += gxp[:, :, 1:-1, -1]
    gx[:, :, 1, 1] += gxp[:, :, 0, 0]
    gx[:, :, 1, -2] += gxp[:, :, 0, -1]
    gx[:, :, -2, 1] += gxp[:, :, -1, 0]
    gx[:, :, -2, -2] += gxp[:, :, -1, -1]
    return gk, gb, gx


def _up2_back(g):
    """Sum of every 2x2 block."""
    return (g[..., ::2, ::2] + g[..., ::2, 1::2]) + (g[..., 1::2, ::2] + g[..., 1::2, 1::2])


def _pool2(x):
    return _up2_back(x) / 4.0


def _up2(x):
    c, n, h, w = x.shape
    wide = np.broadcast_to(x[:, :, :, None, :, None], (c, n, h, 2, w, 2))
    return wide.reshape(c, n, 2 * h, 2 * w)


def _pool2_back(g):
    return _up2(g / 4.0)


def _check_batch_dims(h: int, w: int) -> None:
    if h % 4 or w % 4:
        raise ContractError(f"image dims must be divisible by 4, got {h}x{w}")
    if h < 8 or w < 8:
        raise ContractError(f"image dims must be at least 8, got {h}x{w}")


def _forward_batch(weights: NetWeights, x):
    """Forward pass on a (n, 1, h, w) batch; returns (y, cache)."""
    _check_batch_dims(x.shape[2], x.shape[3])
    k, b = weights.kernels, weights.biases
    z0, xp0 = _conv3(x.transpose(1, 0, 2, 3), k[0], b[0])
    z1, xp1 = _conv3(_pool2(relu(z0)), k[1], b[1])
    z2, xp2 = _conv3(_pool2(relu(z1)), k[2], b[2])
    z3, xp3 = _conv3(_up2(relu(z2)), k[3], b[3])
    z4, xp4 = _conv3(_up2(relu(z3)), k[4], b[4])
    y = sigmoid(z4)
    return y.transpose(1, 0, 2, 3), (z0, xp0, z1, xp1, z2, xp2, z3, xp3, xp4, y)


def _backward_batch(weights: NetWeights, cache, target):
    """Gradient of mean squared error wrt every kernel and bias."""
    z0, xp0, z1, xp1, z2, xp2, z3, xp3, xp4, y = cache
    k = weights.kernels
    gy = 2.0 * (y - target.transpose(1, 0, 2, 3)) / y.size
    gz4 = gy * y * (1.0 - y)
    gk4, gb4, gu3 = _conv3_back(gz4, xp4, k[4])
    gz3 = _up2_back(gu3) * (z3 > 0)
    gk3, gb3, gu2 = _conv3_back(gz3, xp3, k[3])
    gz2 = _up2_back(gu2) * (z2 > 0)
    gk2, gb2, gp1 = _conv3_back(gz2, xp2, k[2])
    gz1 = _pool2_back(gp1) * (z1 > 0)
    gk1, gb1, gp0 = _conv3_back(gz1, xp1, k[1])
    gz0 = _pool2_back(gp0) * (z0 > 0)
    gk0, gb0, _ = _conv3_back(gz0, xp0, k[0], need_gx=False)
    return [(gk0, gb0), (gk1, gb1), (gk2, gb2), (gk3, gb3), (gk4, gb4)]


def _as_batch(img) -> np.ndarray:
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2:
        raise ContractError(f"expected a 2D image, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ContractError("image contains non-finite values")
    return a[None, None]


def forward(weights: NetWeights, img) -> np.ndarray:
    """Run the network on one image.  Dims must be divisible by 4."""
    y, _ = _forward_batch(weights, _as_batch(img))
    return y[0, 0]


def backward(weights: NetWeights, img, target) -> list:
    """Per-layer (kernel, bias) gradients of the MSE against target."""
    x = _as_batch(img)
    t = _as_batch(target)
    if x.shape != t.shape:
        raise ContractError(f"image and target shapes differ: {x.shape[2:]} vs {t.shape[2:]}")
    y, cache = _forward_batch(weights, x)
    return _backward_batch(weights, cache, t)


def loss_mse(pred, target) -> float:
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ContractError(f"shape mismatch {p.shape} vs {t.shape}")
    return float(np.mean((p - t) ** 2))


def add_noise(img, kind: str = "gaussian", param: float = 0.1, rng=None) -> np.ndarray:
    """Corrupt a unit-range image.

    gaussian: additive N(0, param^2).  poisson: photon counting at
    param expected counts per unit intensity.  Output is clipped to [0, 1].
    """
    a = np.asarray(img, dtype=np.float64)
    rng = np.random.default_rng(rng)
    if kind == "gaussian":
        if param < 0:
            raise ContractError(f"gaussian sigma must be >= 0, got {param}")
        noisy = a + rng.normal(0.0, 1.0, a.shape) * param if param > 0 else a.copy()
    elif kind == "poisson":
        if param <= 0:
            raise ContractError(f"poisson scale must be > 0, got {param}")
        noisy = rng.poisson(np.clip(a, 0.0, None) * param) / param
    else:
        raise ContractError(f"unknown noise kind {kind!r}")
    return np.clip(noisy, 0.0, 1.0)


def train_denoiser(clean_images, cfg: TrainConfig | None = None):
    """Train on clean images with fresh noise drawn every epoch.

    Returns (weights, log) where log[e] is the mean per-sample MSE of
    epoch e.  Requires at least 8 images of a common size.
    """
    cfg = cfg or TrainConfig()
    imgs = [np.asarray(im, dtype=np.float64) for im in clean_images]
    if len(imgs) < 8:
        raise DataError(f"need at least 8 clean images, got {len(imgs)}")
    shape = imgs[0].shape
    for i, im in enumerate(imgs):
        if im.ndim != 2:
            raise ContractError(f"image {i} is not 2D (shape {im.shape})")
        if im.shape != shape:
            raise ContractError(f"image {i} has shape {im.shape}, expected {shape}")
        if not np.all(np.isfinite(im)):
            raise ContractError(f"image {i} contains non-finite values")
    _check_batch_dims(*shape)
    clean = np.stack(imgs)[:, None]  # (n, 1, h, w)
    n = clean.shape[0]
    batch = min(cfg.batch_size, n)

    rng = np.random.default_rng(cfg.rng_seed)
    weights = init_weights(ConvNetSpec(), rng)
    weights.rng_seed = cfg.rng_seed
    params = weights.params()
    opt = Adam(params, lr=cfg.learning_rate)

    log = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        noisy = np.empty_like(clean)
        for i in range(n):
            noisy[i, 0] = add_noise(clean[i, 0], cfg.noise_kind, cfg.noise_param, rng)
        total = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            xb, tb = noisy[idx], clean[idx]
            y, cache = _forward_batch(weights, xb)
            loss = float(np.mean((y - tb) ** 2))
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite training loss {loss} at epoch {epoch} batch {start // batch}"
                )
            grads = _backward_batch(weights, cache, tb)
            flat = [g for pair in grads for g in pair]
            opt.step(params, flat)
            total += loss * len(idx)
        log.append(total / n)
    weights.epochs_trained += cfg.epochs
    return weights, log


def denoise(weights: NetWeights, img) -> np.ndarray:
    """Denoise an image of any size by mirror-padding to a valid shape."""
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2:
        raise ContractError(f"expected a 2D image, got shape {a.shape}")
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
        "channels": [list(p) for p in weights.spec.channels],
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
    try:
        with open(path, encoding="ascii") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"weights file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != _WEIGHTS_FORMAT:
        raise FormatError("not a denoiser weights file")
    if doc.get("format_version") != _WEIGHTS_VERSION:
        raise FormatError(f"unsupported weights version {doc.get('format_version')!r}")
    for field in ("channels", "layers"):
        if field not in doc:
            raise FormatError(f"weights file is missing field {field!r}")
    layers = doc["layers"]
    if not isinstance(layers, list) or not all(isinstance(layer, dict) for layer in layers):
        raise FormatError("weights file: layers must be a list of objects")
    try:
        spec = ConvNetSpec(tuple(tuple(p) for p in doc["channels"]))
    except (ContractError, TypeError, ValueError) as exc:
        raise FormatError(f"weights file declares an invalid network: {exc}") from None
    if len(layers) != len(spec.channels):
        raise FormatError(f"expected {len(spec.channels)} layers, got {len(layers)}")
    epochs = doc.get("epochs_trained", 0)
    if type(epochs) is not int or epochs < 0:
        raise FormatError(f"epochs_trained must be a non-negative integer, got {epochs!r}")
    kernels, biases = [], []
    for i, ((cin, cout), layer) in enumerate(zip(spec.channels, layers)):
        kshape, bshape = (cout, cin, 3, 3), (cout,)
        if layer.get("kernel_shape") != list(kshape):
            raise FormatError(
                f"layer {i}: kernel shape {layer.get('kernel_shape')} does not match channels"
            )
        if layer.get("bias_shape") != list(bshape):
            raise FormatError(
                f"layer {i}: bias shape {layer.get('bias_shape')} does not match channels"
            )
        kernels.append(_decode(layer.get("kernel"), kshape, f"layer {i} kernel"))
        biases.append(_decode(layer.get("bias"), bshape, f"layer {i} bias"))
    seed = doc.get("rng_seed")
    return NetWeights(
        spec,
        kernels,
        biases,
        rng_seed=seed if isinstance(seed, int) else None,
        epochs_trained=epochs,
    )
