import hashlib
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from lungfuse import denoise as dn
from lungfuse import nnet
from lungfuse import parallel
from lungfuse import pipeline as pl
from lungfuse.cli import main
from lungfuse.errors import ContractError, DataError, FormatError, NumericalError
from lungfuse.pipeline import denoiser_scenes


def _blobs(n, size, seed):
    """Smooth unit-range test images: a few gaussian bumps each."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size] / (size - 1)
    imgs = []
    for _ in range(n):
        img = np.zeros((size, size))
        for _ in range(3):
            cx, cy = rng.uniform(0.2, 0.8, 2)
            amp = rng.uniform(0.3, 0.7)
            s2 = rng.uniform(0.01, 0.05)
            img += amp * np.exp(-(((xx - cx) ** 2) + (yy - cy) ** 2) / (2 * s2))
        imgs.append(np.clip(img, 0.0, 1.0))
    return imgs


def _loss(w, img, target):
    return dn.loss_mse(dn.forward(w, img), target)


# --- nnet pieces ---


def test_adam_first_step_matches_hand_calc():
    # after one step the bias-corrected update is lr * g / (|g| + eps)
    p = np.array([1.0])
    opt = nnet.Adam(p, lr=0.001)
    opt.step(p, np.array([0.5]))
    assert abs(p[0] - 0.999) < 1e-8


def test_adam_updates_in_place_and_counts_steps():
    p = np.zeros((2, 3))
    opt = nnet.Adam(p, lr=0.01)
    for _ in range(5):
        opt.step(p, np.ones((2, 3)))
    assert opt.t == 5
    assert np.all(p < 0)
    assert opt.m.shape == opt.v.shape == (2, 3)


def test_softmax_rows_normalized():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 7)) * 30
    s = nnet.softmax(z)
    assert np.allclose(s.sum(axis=1), 1.0)
    assert np.all(s > 0)


def test_glorot_bounds():
    rng = np.random.default_rng(0)
    w = nnet.glorot_uniform(rng, (100, 100), 100, 100)
    s = np.sqrt(6.0 / 200)
    assert np.all(np.abs(w) <= s)
    assert np.abs(w).max() > 0.8 * s


def test_train_config_validation():
    with pytest.raises(ContractError):
        dn.TrainConfig(learning_rate=0.0)
    with pytest.raises(ContractError):
        dn.TrainConfig(batch_size=0)
    with pytest.raises(ContractError):
        dn.TrainConfig(epochs=0)
    with pytest.raises(ContractError):
        dn.TrainConfig(noise_kind="salt")
    with pytest.raises(ContractError, match="noise_param"):
        dn.TrainConfig(noise_param=-0.1)
    with pytest.raises(ContractError, match="noise_param"):
        dn.TrainConfig(noise_kind="poisson", noise_param=0.0)
    dn.TrainConfig(noise_param=0.0)
    dn.TrainConfig(noise_kind="poisson", noise_param=50.0)


# --- channel plan / weights plumbing ---


def test_channels_is_the_fixed_plan():
    assert dn.CHANNELS == ((1, 8), (8, 16), (16, 16), (16, 8), (8, 1))
    assert dn.init_weights().channels == dn.CHANNELS


def test_init_weights_shapes_and_determinism():
    w1 = dn.init_weights(seed=7)
    w2 = dn.init_weights(seed=7)
    assert [k.shape for k in w1.kernels] == [
        (8, 1, 3, 3),
        (16, 8, 3, 3),
        (16, 16, 3, 3),
        (8, 16, 3, 3),
        (1, 8, 3, 3),
    ]
    for a, b in zip(w1.kernels, w2.kernels):
        assert np.array_equal(a, b)
    for b in w1.biases:
        assert np.all(b == 0)


def test_zero_weights_give_half_output():
    w = dn.init_weights(seed=0)
    for k in w.kernels:
        k[:] = 0
    y = dn.forward(w, np.random.default_rng(1).uniform(size=(16, 16)))
    assert np.allclose(y, 0.5)


def test_forward_shape_contract():
    w = dn.init_weights(seed=0)
    y = dn.forward(w, np.zeros((16, 24)))
    assert y.shape == (16, 24)
    with pytest.raises(ContractError):
        dn.forward(w, np.zeros((10, 12)))
    with pytest.raises(ContractError):
        dn.forward(w, np.zeros((4, 4)))
    with pytest.raises(ContractError):
        dn.forward(w, np.zeros((16, 16, 1)))


def test_loss_mse_hand_value():
    pred = np.array([[0.0, 0.5], [1.0, 0.0]])
    assert dn.loss_mse(pred, np.zeros((2, 2))) == pytest.approx(0.3125)
    with pytest.raises(ContractError):
        dn.loss_mse(pred, np.zeros(3))


# --- gradients ---


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(42)
    w = dn.init_weights(seed=5)
    img = rng.uniform(0.1, 0.9, (8, 8))
    target = rng.uniform(0.1, 0.9, (8, 8))
    grads = dn.backward(w, img, target)
    # h small enough that no relu pre-activation crosses zero inside the
    # central-difference interval; at 1e-4 a few coords straddle a kink
    h = 1e-5
    worst = 0.0
    for li in range(5):
        for arr, g in ((w.kernels[li], grads[li][0]), (w.biases[li], grads[li][1])):
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            take = min(50, flat.size)
            for ix in rng.choice(flat.size, size=take, replace=False):
                old = flat[ix]
                flat[ix] = old + h
                lp = _loss(w, img, target)
                flat[ix] = old - h
                lm = _loss(w, img, target)
                flat[ix] = old
                fd = (lp - lm) / (2 * h)
                rel = abs(gflat[ix] - fd) / max(abs(gflat[ix]), abs(fd), 1e-6)
                worst = max(worst, rel)
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"


def test_backward_rejects_shape_mismatch():
    w = dn.init_weights(seed=0)
    with pytest.raises(ContractError):
        dn.backward(w, np.zeros((8, 8)), np.zeros((8, 12)))


# --- noise ---


def test_add_noise_gaussian_zero_sigma_is_identity():
    img = np.random.default_rng(0).uniform(size=(9, 9))
    assert np.array_equal(dn.add_noise(img, "gaussian", 0.0, rng=1), img)


def test_add_noise_clips_and_is_seeded():
    img = np.full((32, 32), 0.95)
    a = dn.add_noise(img, "gaussian", 0.3, rng=7)
    b = dn.add_noise(img, "gaussian", 0.3, rng=7)
    assert np.array_equal(a, b)
    assert a.max() <= 1.0 and a.min() >= 0.0
    assert not np.array_equal(a, img)


def test_add_noise_poisson_scale():
    img = np.full((64, 64), 0.5)
    heavy = dn.add_noise(img, "poisson", 10.0, rng=0)
    light = dn.add_noise(img, "poisson", 10000.0, rng=0)
    assert np.std(heavy) > np.std(light)
    assert abs(np.mean(light) - 0.5) < 0.01
    with pytest.raises(ContractError):
        dn.add_noise(img, "poisson", 0.0)
    with pytest.raises(ContractError):
        dn.add_noise(img, "speckle", 0.1)


# --- training ---


def test_train_requires_enough_images():
    imgs = _blobs(5, 8, 0)
    with pytest.raises(DataError):
        dn.train_denoiser(imgs, dn.TrainConfig(epochs=1))


def test_train_rejects_mixed_shapes():
    imgs = _blobs(8, 8, 0)
    imgs[3] = np.zeros((12, 8))
    with pytest.raises(ContractError):
        dn.train_denoiser(imgs, dn.TrainConfig(epochs=1))


def test_train_is_bit_deterministic():
    imgs = _blobs(8, 8, 1)
    cfg = dn.TrainConfig(epochs=2, batch_size=4, rng_seed=11)
    w1, log1 = dn.train_denoiser(imgs, cfg)
    w2, log2 = dn.train_denoiser(imgs, cfg)
    assert log1 == log2
    for a, b in zip(w1.kernels + w1.biases, w2.kernels + w2.biases):
        assert np.array_equal(a, b)


def test_train_loss_decreases():
    imgs = _blobs(16, 16, 2)
    cfg = dn.TrainConfig(epochs=30, batch_size=4, rng_seed=3, noise_param=0.08)
    w, log = dn.train_denoiser(imgs, cfg)
    assert len(log) == 30
    assert log[-1] < 0.7 * log[0]
    assert w.epochs_trained == 30


def test_autoencode_noiseless_converges():
    # sigma 0 turns the task into plain reconstruction
    imgs = _blobs(16, 16, 4)
    cfg = dn.TrainConfig(epochs=50, batch_size=4, rng_seed=0, noise_param=0.0)
    _, log = dn.train_denoiser(imgs, cfg)
    assert log[-1] < 0.01
    assert log[-1] < log[0]


# --- denoise wrapper ---


def test_denoise_preserves_arbitrary_shape():
    w = dn.init_weights(seed=2)
    for shape in ((13, 9), (8, 8), (5, 31), (1, 1)):
        out = dn.denoise(w, np.random.default_rng(0).uniform(size=shape))
        assert out.shape == shape
        assert out.min() > 0.0 and out.max() < 1.0


def test_denoise_matches_forward_on_valid_dims():
    w = dn.init_weights(seed=2)
    img = np.random.default_rng(5).uniform(size=(16, 16))
    assert np.array_equal(dn.denoise(w, img), dn.forward(w, img))


# --- weights file ---


def test_weights_round_trip(tmp_path):
    w = dn.init_weights(seed=9)
    w.epochs_trained = 17
    w.rng_seed = 9
    path = tmp_path / "w.json"
    dn.save_weights(path, w)
    w2 = dn.load_weights(path)
    assert w2.channels == w.channels == dn.CHANNELS
    # kernels and biases are views of the one parameter buffer
    for a in w2.kernels + w2.biases:
        assert np.shares_memory(a, w2.flat)
    assert w2.epochs_trained == 17
    assert w2.rng_seed == 9
    img = np.random.default_rng(1).uniform(size=(16, 16))
    # float32 storage perturbs weights slightly but not meaningfully
    assert np.allclose(dn.forward(w, img), dn.forward(w2, img), atol=1e-5)
    # a second save of the loaded weights is byte identical
    path2 = tmp_path / "w2.json"
    dn.save_weights(path2, w2)
    path3 = tmp_path / "w3.json"
    dn.save_weights(path3, dn.load_weights(path2))
    assert path2.read_bytes() == path3.read_bytes()


def test_load_weights_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json at all {")
    with pytest.raises(FormatError):
        dn.load_weights(p)
    p.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(FormatError):
        dn.load_weights(p)


def test_load_weights_rejects_wrong_payload(tmp_path):
    w = dn.init_weights(seed=0)
    path = tmp_path / "w.json"
    dn.save_weights(path, w)
    doc = json.loads(path.read_text())
    doc["layers"][2]["kernel"] = doc["layers"][2]["kernel"][:-8]
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        dn.load_weights(path)
    doc = json.loads(path.read_text())
    doc["layers"][0]["kernel_shape"] = [8, 2, 3, 3]
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        dn.load_weights(path)
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        dn.load_weights(path)


# --- convolution layers against the im2col reference ---


_OFFSETS = tuple((dy, dx) for dy in range(3) for dx in range(3))


def _ref_conv3(x, k, b):
    """im2col + einsum 3x3 conv on (n, c, h, w); returns (out, cols)."""
    n, cin, h, w = x.shape
    cout = k.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect")
    cols = np.empty((n, cin, 9, h, w))
    for i, (dy, dx) in enumerate(_OFFSETS):
        cols[:, :, i] = xp[:, :, dy : dy + h, dx : dx + w]
    cols2 = cols.reshape(n, cin * 9, h * w)
    out = np.einsum("oc,ncp->nop", k.reshape(cout, cin * 9), cols2).reshape(n, cout, h, w)
    return out + b[None, :, None, None], cols2


def _ref_conv3_back(gout, cols2, k, xshape):
    n, cin, h, w = xshape
    cout = k.shape[0]
    gout2 = gout.reshape(n, cout, h * w)
    gk = np.einsum("nop,ncp->oc", gout2, cols2).reshape(k.shape)
    gb = gout.sum(axis=(0, 2, 3))
    gcols = np.einsum("oc,nop->ncp", k.reshape(cout, cin * 9), gout2).reshape(n, cin, 9, h, w)
    gxp = np.zeros((n, cin, h + 2, w + 2))
    for i, (dy, dx) in enumerate(_OFFSETS):
        gxp[:, :, dy : dy + h, dx : dx + w] += gcols[:, :, i]
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


def _cm(a):
    """(n, c, h, w) <-> (c, n, h, w)."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3))


def _scratch(k, cells, w):
    """Flat scratch for kernel k over cells padded pixels of rows w + 2 wide,
    sized by the rule dn._Workspace sizes its own by."""
    cout, cin = k.shape[:2]
    return np.empty(dn._scratch_size(cin, cout, cells, w))


def _conv3(x, k, b):
    """3x3 conv of a (c, n, h, w) batch through dn._conv3_taps, with its
    buffers allocated here.  Returns (out, xp), xp the flat padded input."""
    cin, n, h, w = x.shape
    xp = np.empty((cin, n, h + 2, w + 2))
    xp[:, :, 1:-1, 1:-1] = x
    dn._mirror(xp)
    acc = dn._conv3_taps(xp, k, np.empty((k.shape[0], n, h + 2, w + 2)), _scratch(k, xp[0].size, w))
    return acc[:, :, :h, :w] + b[:, None, None, None], xp.reshape(cin, -1)


def _conv3_back(gout, xp, k, need_gx=True):
    """dn._conv3_back with its gradient and work buffers allocated here, the
    gradients NaN so that a gradient left unwritten shows; returns (gk, gb, gx)."""
    cout, n, h, w = gout.shape
    pad = (n, h + 2, w + 2)
    gk, gb = np.full(k.shape, np.nan), np.full(cout, np.nan)
    gx = dn._conv3_back(
        gout, xp, k, gk, gb, need_gx, gpad=np.empty((cout,) + pad),
        gxp=np.empty((k.shape[1],) + pad), tmp=_scratch(k, math.prod(pad), w),
    )
    return gk, gb, gx


def _into(op, x, shape):
    """A pool or upsample op on a copy of x, which it may overwrite, into a new (shape) array."""
    return op(x.copy(), np.empty(shape))


_CONV_SHAPES = [  # (n, cin, cout, h, w)
    (1, 1, 8, 8, 12),
    (3, 1, 8, 16, 24),
    (2, 8, 16, 16, 24),
    (1, 16, 16, 8, 8),
    (2, 8, 1, 12, 8),
    (1, 1, 1, 8, 12),
    (2, 3, 5, 24, 16),
    (2, 1, 8, 64, 64),  # padded cells just past _TILE: a full tile and a short one
    # the default half batch's multi-channel layers: many _TILE // cin tiles, a short last one
    (12, 8, 16, 32, 32),
    (12, 16, 16, 16, 16),
    (12, 16, 8, 32, 32),
]


@pytest.mark.parametrize("n,cin,cout,h,w", _CONV_SHAPES)
def test_conv3_matches_im2col_reference(n, cin, cout, h, w):
    rng = np.random.default_rng(n * 1000 + cin * 100 + cout * 10 + h + w)
    x = rng.normal(size=(n, cin, h, w))
    k = rng.normal(size=(cout, cin, 3, 3))
    b = rng.normal(size=cout)
    g = rng.normal(size=(n, cout, h, w))
    ref_out, cols = _ref_conv3(x, k, b)
    out, xp = _conv3(_cm(x), k, b)
    assert out.shape == (cout, n, h, w)
    assert np.max(np.abs(_cm(out) - ref_out)) < 1e-12
    rgk, rgb, rgx = _ref_conv3_back(g, cols, k, x.shape)
    gk, gb, gx = _conv3_back(_cm(g), xp, k)
    assert np.max(np.abs(gk - rgk)) < 1e-12
    assert np.max(np.abs(gb - rgb)) < 1e-12
    assert np.max(np.abs(_cm(gx) - rgx)) < 1e-12
    gk2, gb2, gx2 = _conv3_back(_cm(g), xp, k, need_gx=False)
    assert gx2 is None
    assert np.array_equal(gk2, gk) and np.array_equal(gb2, gb)


@pytest.mark.parametrize("n,cin,cout,h,w", _CONV_SHAPES)
def test_conv3_back_is_the_adjoint(n, cin, cout, h, w):
    # with zero bias the conv is linear in x and in k:
    # <conv(x), g> = <x, gx> = <k, gk>
    rng = np.random.default_rng(7 + n + cin + cout + h * w)
    x = rng.normal(size=(cin, n, h, w))
    k = rng.normal(size=(cout, cin, 3, 3))
    g = rng.normal(size=(cout, n, h, w))
    out, xp = _conv3(x, k, np.zeros(cout))
    gk, gb, gx = _conv3_back(g, xp, k)
    lhs = np.vdot(out, g)
    scale = np.abs(out).sum() * np.abs(g).max()
    assert abs(lhs - np.vdot(x, gx)) < 1e-12 * scale
    assert abs(lhs - np.vdot(k, gk)) < 1e-12 * scale
    assert np.allclose(gb, g.sum(axis=(1, 2, 3)))


def test_pool_and_upsample_match_reshape_forms():
    x = np.random.default_rng(8).normal(size=(3, 2, 8, 12))
    blocks = x.reshape(3, 2, 4, 2, 6, 2)
    assert np.array_equal(_into(dn._pool2, x, (3, 2, 4, 6)), blocks.mean(axis=(3, 5)))
    assert np.array_equal(_into(dn._up2_back, x, (3, 2, 4, 6)), blocks.sum(axis=(3, 5)))
    up = np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)
    assert np.array_equal(_into(dn._up2, x, up.shape), up)
    assert np.array_equal(_into(dn._pool2_back, x, up.shape), up / 4.0)


def test_trained_weights_file_is_pinned(tmp_path):
    # sha256 of the weights file for a small fixed config, recorded from
    # the im2col implementation; float32 storage hides last-bit float64
    # differences in the summation order
    clean = denoiser_scenes(8, 32, 7)
    w, _ = dn.train_denoiser(clean, dn.TrainConfig(epochs=5, rng_seed=0))
    path = tmp_path / "w.json"
    dn.save_weights(path, w)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "aed4667247516cb9e0fb15522c97b252b733ce7e5ba6b3831a77ec56b1e0658a"


def test_default_weights_file_is_pinned(tmp_path):
    # sha256 of the weights file the default config trains (24 images of
    # 64 px, 30 epochs), recorded from the allocating implementation; the
    # fused F1 values perfbench's study workload checks depend on it
    pl._train_denoiser_stage(pl.resolve_config(None), tmp_path / "weights.json")
    digest = hashlib.sha256((tmp_path / "weights.json").read_bytes()).hexdigest()
    assert digest == "19faf56d8fc9a2ea11b48fbc0de13394c31ae54e595a1f04e6af4e8fe1472e72"


def test_training_peak_memory_is_bounded(monkeypatch):
    # one workspace for every step keeps this near 32 MB; fresh arrays per
    # step would need about 63 MB.  On one CPU both halves' workspaces are
    # made in this process, where tracemalloc sees them
    _on_cpus(monkeypatch, {0})
    clean = denoiser_scenes(24, 64, 7)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dn.train_denoiser(clean, dn.TrainConfig(epochs=3))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 45e6


# --- each batch as two halves, in one process or two ---


def _on_cpus(monkeypatch, cpus):
    # the CPU count parallel.partner sees: {0} runs both halves in the
    # caller, {0, 1} the second in a forked partner process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


def _default_training():
    doc = pl.resolve_config(None)
    d = doc["denoise"]
    clean = denoiser_scenes(d["train_images"], d["train_size"], d["train_seed"])
    return clean, pl._config_from(dn.TrainConfig, d)


@pytest.mark.parametrize(
    "case",
    [
        "default",
        (16, 32, dn.TrainConfig(batch_size=7, epochs=3)),
        (8, 32, dn.TrainConfig(batch_size=1, epochs=2)),
    ],
    ids=["default", "batch7", "batch1"],
)
def test_training_is_bit_identical_on_one_cpu_and_two(monkeypatch, case):
    clean, cfg = _default_training() if case == "default" else (denoiser_scenes(*case[:2], 7), case[2])
    runs = []
    for cpus in ({0}, {0, 1}):
        _on_cpus(monkeypatch, cpus)
        runs.append(dn.train_denoiser(clean, cfg))
    (one, log1), (two, log2) = runs
    assert log1 == log2
    assert np.array_equal(one.flat, two.flat)


_TRAIN_AT_TWO_BLAS_THREADS = """
import hashlib, json, os, pathlib, sys
from lungfuse import denoise as dn, parallel, pipeline as pl

get = parallel._blas()[0]
caller, half_step = os.getpid(), dn._half_step
seen = parallel.shared_array((2,))  # the BLAS count seen by the caller's halves and the partner's


def recording(*args):
    seen[int(os.getpid() != caller)] = get()
    return half_step(*args)


dn._half_step = recording
loaded = get()
pl._train_denoiser_stage(pl.resolve_config(None), pathlib.Path(sys.argv[1]))
print(json.dumps({"loaded": loaded, "halves": seen.tolist(), "after": get(),
                  "sha256": hashlib.sha256(pathlib.Path(sys.argv[1]).read_bytes()).hexdigest()}))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_a_library_caller_with_blas_at_two_threads_trains_with_the_partner(tmp_path):
    # BLAS loads at two threads, as in a library caller that sets no variable:
    # training still forks the partner, holds BLAS at one thread for both
    # halves, writes the default weights file and gives the caller its count back
    if parallel._blas() is None:
        pytest.skip("numpy's BLAS here is not an OpenBLAS")
    src = pathlib.Path(dn.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _TRAIN_AT_TWO_BLAS_THREADS, str(tmp_path / "w.json")],
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "2"},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == {
        "loaded": 2, "halves": [1.0, 1.0], "after": 2,
        "sha256": "19faf56d8fc9a2ea11b48fbc0de13394c31ae54e595a1f04e6af4e8fe1472e72",
    }


def test_training_leaves_no_process_behind(monkeypatch, children):
    _on_cpus(monkeypatch, {0, 1})
    clean = denoiser_scenes(8, 32, 7)
    before = children(os.getpid())
    dn.train_denoiser(clean, dn.TrainConfig(epochs=1))
    assert children(os.getpid()) == before
    monkeypatch.setattr(dn._Workspace, "loss", lambda ws, t: float("nan"))
    with pytest.raises(NumericalError, match="non-finite training loss nan at epoch 0 batch 0"):
        dn.train_denoiser(clean, dn.TrainConfig(epochs=1))
    assert children(os.getpid()) == before


def test_killed_partner_exits_3_with_one_error_line(monkeypatch, capsys, tmp_path):
    _on_cpus(monkeypatch, {0, 1})
    caller, half_step = os.getpid(), dn._half_step

    def killed(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)  # as the out-of-memory killer would
        return half_step(*args)

    monkeypatch.setattr(dn, "_half_step", killed)
    rc = main(["denoise-train", "--out", str(tmp_path / "w.json"), "--set", "denoise.epochs=2",
               "--set", "denoise.train_images=8", "--set", "denoise.train_size=32"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "error: the partner process died before its half finished\n"
    assert not (tmp_path / "w.json").exists()


@pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(), reason="needs /proc")
def test_killed_training_leaves_no_partner_running(tmp_path, children):
    cpus = sorted(os.sched_getaffinity(0))[:2]
    if len(cpus) < 2:
        pytest.skip("one CPU: training forks no partner")
    src = pathlib.Path(dn.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "lungfuse.cli", "denoise-train", "--out", str(tmp_path / "w.json"),
         "--set", "denoise.epochs=1000"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus),
    )
    try:
        partners, deadline = set(), time.monotonic() + 30
        while not partners and time.monotonic() < deadline:
            time.sleep(0.05)
            partners = children(proc.pid)
        assert partners, "training started no partner"
        proc.kill()
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    # the partner sees its pipe's EOF and exits; init may leave it a zombie
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(_running(pid) for pid in partners):
        time.sleep(0.05)
    assert not any(_running(pid) for pid in partners)


def _running(pid: int) -> bool:
    try:
        state = pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


# --- the workspace against the allocating batch passes it replaced ---


def _ref_cm_conv3(x, k, b):
    cin, n, h, w = x.shape
    cout = k.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect").reshape(cin, -1)
    taps, span = dn._taps(w, xp.shape[1])
    acc = np.zeros((cout, xp.shape[1]))
    for dy, dx, o in taps:
        if cin == 1:
            acc[:, :span] += k[:, 0, dy, dx, None] * xp[0, o : o + span]
        else:
            acc[:, :span] += k[:, :, dy, dx] @ xp[:, o : o + span]
    out = acc.reshape(cout, n, h + 2, w + 2)[:, :, :h, :w] + b[:, None, None, None]
    return out, xp


def _ref_cm_conv3_back(gout, xp, k, need_gx=True):
    cout, n, h, w = gout.shape
    cin = k.shape[1]
    gpad = np.zeros((cout, n, h + 2, w + 2))
    gpad[:, :, :h, :w] = gout
    gpad = gpad.reshape(cout, -1)
    taps, span = dn._taps(w, gpad.shape[1])
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


def _ref_up2_back(g):
    return (g[..., ::2, ::2] + g[..., ::2, 1::2]) + (g[..., 1::2, ::2] + g[..., 1::2, 1::2])


def _ref_up2(x):
    c, n, h, w = x.shape
    wide = np.broadcast_to(x[:, :, :, None, :, None], (c, n, h, 2, w, 2))
    return wide.reshape(c, n, 2 * h, 2 * w)


def _ref_forward_batch(weights, x):
    k, b = weights.kernels, weights.biases
    z0, xp0 = _ref_cm_conv3(x.transpose(1, 0, 2, 3), k[0], b[0])
    z1, xp1 = _ref_cm_conv3(_ref_up2_back(nnet.relu(z0)) / 4.0, k[1], b[1])
    z2, xp2 = _ref_cm_conv3(_ref_up2_back(nnet.relu(z1)) / 4.0, k[2], b[2])
    z3, xp3 = _ref_cm_conv3(_ref_up2(nnet.relu(z2)), k[3], b[3])
    z4, xp4 = _ref_cm_conv3(_ref_up2(nnet.relu(z3)), k[4], b[4])
    y = nnet.sigmoid(z4)
    return y.transpose(1, 0, 2, 3), (z0, xp0, z1, xp1, z2, xp2, z3, xp3, xp4, y)


def _ref_backward_batch(weights, cache, target):
    z0, xp0, z1, xp1, z2, xp2, z3, xp3, xp4, y = cache
    k = weights.kernels
    gy = 2.0 * (y - target.transpose(1, 0, 2, 3)) / y.size
    gz4 = gy * y * (1.0 - y)
    gk4, gb4, gu3 = _ref_cm_conv3_back(gz4, xp4, k[4])
    gz3 = _ref_up2_back(gu3) * (z3 > 0)
    gk3, gb3, gu2 = _ref_cm_conv3_back(gz3, xp3, k[3])
    gz2 = _ref_up2_back(gu2) * (z2 > 0)
    gk2, gb2, gp1 = _ref_cm_conv3_back(gz2, xp2, k[2])
    gz1 = _ref_up2(gp1 / 4.0) * (z1 > 0)
    gk1, gb1, gp0 = _ref_cm_conv3_back(gz1, xp1, k[1])
    gz0 = _ref_up2(gp0 / 4.0) * (z0 > 0)
    gk0, gb0, _ = _ref_cm_conv3_back(gz0, xp0, k[0], need_gx=False)
    return [(gk0, gb0), (gk1, gb1), (gk2, gb2), (gk3, gb3), (gk4, gb4)]


# a plan with unequal widths checks that no buffer is sized by the wrong one
_ODD_CHANNELS = ((1, 4), (4, 6), (6, 5), (5, 3), (3, 1))


def _random_net(channels, seed):
    # nonzero biases so every layer has ReLUs both on and off
    w = dn.init_weights(seed, channels)
    rng = np.random.default_rng(seed + 1)
    for b in w.biases:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    return w


def _step(ws, w, x, t):
    y = ws.forward(w, x).copy()
    loss = ws.loss(t)
    assert ws.backward(w, t) is ws.grad
    return y, loss, [(gk.copy(), gb.copy()) for gk, gb in ws.grads]


@pytest.mark.parametrize(
    "channels,batches,h,w",
    [
        (dn.CHANNELS, (1,), 8, 8),
        (dn.CHANNELS, (4, 4, 2), 16, 16),
        (dn.CHANNELS, (3,), 12, 20),
        (dn.CHANNELS, (2,), 16, 16),
        (_ODD_CHANNELS, (3, 1), 16, 12),
    ],
    ids=["n1", "partial-last-batch", "h-ne-w", "16x16", "unequal-widths"],
)
def test_workspace_matches_allocating_reference(channels, batches, h, w):
    # one workspace sized for the largest batch serves every batch
    net = _random_net(channels, h + w)
    rng = np.random.default_rng(len(batches))
    ws = dn._Workspace(channels, max(batches), h, w)
    for m in batches:
        x = rng.uniform(size=(m, 1, h, w))
        t = rng.uniform(size=(m, 1, h, w))
        y, loss, grads = _step(ws, net, x, t)
        ref_y, cache = _ref_forward_batch(net, x)
        assert y.shape == (1, m, h, w)
        assert np.max(np.abs(y.transpose(1, 0, 2, 3) - ref_y)) < 1e-12
        assert abs(loss - float(np.mean((ref_y - t) ** 2))) < 1e-12
        for (gk, gb), (rk, rb) in zip(grads, _ref_backward_batch(net, cache, t)):
            assert np.max(np.abs(gk - rk)) < 1e-12
            assert np.max(np.abs(gb - rb)) < 1e-12


def test_workspace_holding_earlier_data_matches_a_fresh_one():
    # a reused workspace still holds the last step's values, borders
    # included; a NaN-filled one holds nothing valid at all
    net = _random_net(dn.CHANNELS, 3)
    rng = np.random.default_rng(4)
    x, t = rng.uniform(size=(2, 2, 1, 16, 12))
    fresh = _step(dn._Workspace(net.channels, 2, 16, 12), net, x, t)
    used = dn._Workspace(net.channels, 3, 16, 12)
    _step(used, net, *rng.uniform(size=(2, 3, 1, 16, 12)))
    poisoned = dn._Workspace(net.channels, 2, 16, 12)
    for buf in poisoned._xp + poisoned._acc + poisoned._mask + [poisoned._y, poisoned._scratch,
                                                                poisoned.grad]:
        buf.fill(np.nan)
    for ws in (used, poisoned):
        y, loss, grads = _step(ws, net, x, t)
        assert np.array_equal(y, fresh[0]) and loss == fresh[1]
        for (gk, gb), (fk, fb) in zip(grads, fresh[2]):
            assert np.array_equal(gk, fk) and np.array_equal(gb, fb)


# --- the one-channel layers against broadcast taps ---


def _add_outer(acc, col, row, tmp):
    """acc += col[:, None] * row, one column tile at a time through flat tmp."""
    for a in range(0, row.size, dn._TILE):
        b = min(a + dn._TILE, row.size)
        t = tmp[: col.size * (b - a)].reshape(col.size, b - a)
        acc[:, a:b] += np.multiply(col[:, None], row[a:b], out=t)


def _broadcast_conv3(xp, k):
    """A one-input-channel conv of the padded (1, n, h+2, w+2) xp as nine
    broadcast taps; returns the flat (cout, L) accumulator."""
    taps, span = dn._taps(xp.shape[3] - 2, xp[0].size)
    af = np.zeros((k.shape[0], xp[0].size))
    tmp = np.empty(k.shape[0] * dn._TILE)
    for dy, dx, o in taps:
        _add_outer(af[:, :span], k[:, 0, dy, dx], xp.reshape(-1)[o : o + span], tmp)
    return af


def _broadcast_back(g, xpf, k):
    """(kernel gradient, padded input gradient) of a conv with one input
    channel (nine GEMVs) or one output channel (nine broadcast taps)."""
    cout, n, h, w = g.shape
    cin = k.shape[1]
    gf = np.zeros((cout, n, h + 2, w + 2))
    gf[:, :, :h, :w] = g
    gf = gf.reshape(cout, -1)
    taps, span = dn._taps(w, gf.shape[1])
    g2 = gf[:, :span]
    gk = np.empty(k.shape)
    for dy, dx, o in taps:
        gk[:, :, dy, dx] = g2 @ xpf[:, o : o + span].T
    gxf = np.zeros((cin, gf.shape[1]))
    if cout == 1:
        tmp = np.empty(cin * dn._TILE)
        for dy, dx, o in taps:
            _add_outer(gxf[:, o : o + span], k[0, :, dy, dx], g2[0], tmp)
    return gk, gxf.reshape(cin, n, h + 2, w + 2)


@pytest.mark.parametrize(
    "n,h,w",
    [(12, 64, 64), (1, 8, 12), (2, 64, 64)],
    ids=["default-half-batch", "span-below-tile", "span-just-past-tile"],
)
@pytest.mark.parametrize("cin,cout", [(1, 8), (8, 1)], ids=["layer0", "layer4"])
def test_one_channel_tap_blocks_match_broadcast_taps(n, h, w, cin, cout):
    rng = np.random.default_rng(n + h + w + cin)
    x = rng.normal(size=(cin, n, h, w))
    k = rng.normal(size=(cout, cin, 3, 3))
    g = rng.normal(size=(cout, n, h, w))
    xp = np.empty((cin, n, h + 2, w + 2))
    xp[:, :, 1:-1, 1:-1] = x
    dn._mirror(xp)
    xpf = xp.reshape(cin, -1)
    # room for the tap blocks and the margined gradient, NaN so no path
    # can read what it did not write
    tmp = np.full(9 * dn._TILE + 9 * xpf.shape[1], np.nan)
    acc = np.empty((cout, n, h + 2, w + 2))
    out = dn._conv3_taps(xp, k, acc, tmp)[:, :, :h, :w]
    gk = np.full(k.shape, np.nan)
    gx = dn._conv3_back(
        g, xpf, k, gk, np.empty(cout), gpad=np.empty(acc.shape), gxp=np.empty(xp.shape), tmp=tmp
    )
    ref_gk, ref_gxp = _broadcast_back(g, xpf, k)
    gscale = np.abs(g).sum() * np.abs(xpf).max()
    assert np.max(np.abs(gk - ref_gk)) <= 1e-12 * gscale
    if cin == 1:
        ref = _broadcast_conv3(xp, k).reshape(cout, n, h + 2, w + 2)[:, :, :h, :w]
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.abs(k).sum() * np.abs(xpf).max()
    else:
        ref_gx = dn._fold_mirror(ref_gxp)
        assert np.max(np.abs(gx - ref_gx)) <= 1e-12 * np.abs(k).sum() * np.abs(g).max()
