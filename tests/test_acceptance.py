"""Eleven end-to-end acceptance checks, one property per test.

Run with -v to get one pass/fail line per check.  Each test states its
tolerance inline and carries the measured value in the assertion
message, so a failure line is self-explanatory.
"""

import hashlib
import json
import pathlib
import time

import numpy as np

from lungfuse.classify import (
    MMDataset,
    binary_metrics,
    kfold_evaluate,
    mlp_loss_grad,
    stratified_folds,
)
from lungfuse.denoise import (
    TrainConfig,
    add_noise,
    backward,
    denoise,
    forward,
    init_weights,
    loss_mse,
    train_denoiser,
)
from lungfuse.fusion import RigidTransform, fuse_wavelet, psnr, register_rigid, resample_bilinear
from lungfuse.nnet import glorot_uniform
from lungfuse.phantom import PhantomConfig, SUBTYPES, render_ct, render_pet, sample_patient
from lungfuse.pipeline import resolve_config, run_pipeline
from lungfuse.tabular import boosted_importance, smote
from lungfuse.wavelet import dwt2, idwt2


def _scenes(n, seed, size=64):
    rng = np.random.default_rng(seed)
    cfg = PhantomConfig(n_patients=2, image_size=size, noise_sigma=0.0, seed=0)
    return [
        sample_patient(rng, cfg, SUBTYPES[i % 2])["geometry"] for i in range(n)
    ]


def test_01_wavelet_perfect_reconstruction():
    """100 random 64x64 images, haar and db2, levels 1-3: err < 1e-8, < 10 s."""
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        img = rng.uniform(0.0, 1.0, (64, 64))
        for family in ("haar", "db2"):
            for levels in (1, 2, 3):
                back = idwt2(dwt2(img, family=family, levels=levels))
                worst = max(worst, float(np.max(np.abs(back - img))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8, f"max reconstruction error {worst:.3e} >= 1e-8"
    assert elapsed < 10.0, f"took {elapsed:.1f}s >= 10s"


def test_02_fusion_idempotence():
    """fuse_wavelet(x, x) = x within 1e-6 on 50 random images."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        img = rng.uniform(0.0, 1.0, (64, 64))
        worst = max(worst, float(np.max(np.abs(fuse_wavelet(img, img) - img))))
    assert worst < 1e-6, f"max |fuse(x,x) - x| = {worst:.3e} >= 1e-6"


def test_03_registration_recovery():
    """20 perturbations (|t|<=8px, |theta|<=4deg, s in [0.95,1.05]) recovered
    within (0.5px, 0.5deg, 0.02) in under 60 s."""
    rng = np.random.default_rng(13)
    scenes = _scenes(5, seed=13)
    t0 = time.perf_counter()
    for trial in range(20):
        ct = render_ct(scenes[trial % len(scenes)], 64)
        truth = RigidTransform(
            tx=float(rng.uniform(-8, 8)),
            ty=float(rng.uniform(-8, 8)),
            theta=float(np.deg2rad(rng.uniform(-4, 4))),
            scale=float(rng.uniform(0.95, 1.05)),
        )
        moved = resample_bilinear(ct, truth)
        est = register_rigid(moved, ct)
        dt = max(abs(est.tx - truth.tx), abs(est.ty - truth.ty))
        dth = abs(np.rad2deg(est.theta - truth.theta))
        ds = abs(est.scale - truth.scale)
        assert dt <= 0.5, f"trial {trial}: translation error {dt:.3f}px > 0.5px"
        assert dth <= 0.5, f"trial {trial}: rotation error {dth:.3f}deg > 0.5deg"
        assert ds <= 0.02, f"trial {trial}: scale error {ds:.4f} > 0.02"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s >= 60s"


def _fd_check(params, loss_of_params, sample_sizes, h=1e-5):
    """Worst relative error between analytic and central-difference grads.

    h is small enough that no relu pre-activation crosses zero inside
    the central-difference interval on these seeded problems.
    """
    analytic = loss_of_params(params, want_grads=True)
    rng = np.random.default_rng(99)
    worst = 0.0
    for arr, grad, n in zip(params, analytic, sample_sizes):
        flat_idx = rng.choice(arr.size, size=min(n, arr.size), replace=False)
        for fi in flat_idx:
            idx = np.unravel_index(fi, arr.shape)
            keep = arr[idx]
            arr[idx] = keep + h
            up = loss_of_params(params, want_grads=False)
            arr[idx] = keep - h
            down = loss_of_params(params, want_grads=False)
            arr[idx] = keep
            fd = (up - down) / (2 * h)
            a = grad[idx]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst


def test_04_gradient_correctness():
    """Analytic vs central-difference gradients, >=50 coords per layer type,
    relative error < 1e-4, for both the denoiser and the MLP head."""
    # denoiser: conv kernels and biases across all five layers
    rng = np.random.default_rng(42)
    weights = init_weights(seed=5)
    x = rng.uniform(0.1, 0.9, (8, 8))
    target = rng.uniform(0.1, 0.9, (8, 8))

    def dn_loss(_params, want_grads):
        if want_grads:
            pairs = backward(weights, x, target)  # [(gk, gb)] per layer
            return [p[0] for p in pairs] + [p[1] for p in pairs]
        return loss_mse(forward(weights, x), target)

    params = list(weights.kernels) + list(weights.biases)
    # 12 coords per kernel plus every bias: >= 50 for the conv layer type
    sizes = [12] * len(weights.kernels) + [99] * len(weights.biases)
    worst = _fd_check(params, dn_loss, sizes)
    assert worst < 1e-4, f"denoiser worst relative gradient error {worst:.3e} >= 1e-4"

    # MLP: three weight matrices and three biases, dropout off
    rng = np.random.default_rng(15)
    xb = rng.normal(size=(20, 6))
    yb = rng.integers(0, 3, size=20)
    shapes = [(6, 7), (7,), (7, 5), (5,), (5, 3), (3,)]
    mlp_params = []
    for shape in shapes:
        if len(shape) == 2:
            mlp_params.append(glorot_uniform(rng, shape, shape[0], shape[1]))
        else:
            mlp_params.append(rng.normal(scale=0.1, size=shape))

    def mlp_loss(params, want_grads):
        loss, grads = mlp_loss_grad(params, xb, yb, 3)
        return grads if want_grads else loss

    worst = _fd_check(mlp_params, mlp_loss, [20, 20, 20, 20, 20, 20])
    assert worst < 1e-4, f"MLP worst relative gradient error {worst:.3e} >= 1e-4"


def test_05_denoising_efficacy():
    """Train on 24 images (sigma=0.1 gaussian, seed 42, <=100 epochs); on 8
    held-out images mean PSNR gain >= 2 dB; < 5 min."""
    t0 = time.perf_counter()
    geoms = _scenes(32, seed=42)
    images = [render_pet(g, 64) for g in geoms]
    train, held = images[:24], images[24:]
    cfg = TrainConfig(
        learning_rate=0.001,
        batch_size=4,
        epochs=100,
        rng_seed=42,
        noise_kind="gaussian",
        noise_param=0.1,
    )
    weights, _log = train_denoiser(train, cfg)
    gains_noisy, gains_dn = [], []
    for i, clean in enumerate(held):
        noisy = add_noise(clean, "gaussian", 0.1, np.random.default_rng(1000 + i))
        gains_noisy.append(psnr(noisy, clean))
        gains_dn.append(psnr(denoise(weights, noisy), clean))
    improvement = float(np.mean(gains_dn) - np.mean(gains_noisy))
    elapsed = time.perf_counter() - t0
    assert improvement >= 2.0, f"PSNR improvement {improvement:.2f} dB < 2 dB"
    assert elapsed < 300.0, f"took {elapsed:.1f}s >= 300s"


def test_06_smote_contract():
    """Counts {A:40, B:12} -> {40,40}; every synthetic row is a convex
    combination of two minority originals within 1e-9."""
    rng = np.random.default_rng(16)
    x = np.vstack([rng.normal(0, 1, (40, 5)), rng.normal(3, 1, (12, 5))])
    labels = np.array(["A"] * 40 + ["B"] * 12)
    xb, yb = smote(x, labels, k=5, seed=16)
    assert int(np.sum(yb == "A")) == 40 and int(np.sum(yb == "B")) == 40
    assert np.array_equal(xb[:52], x)  # originals verbatim, first
    minority = x[40:]
    for s in xb[52:]:
        ok = False
        for i in range(len(minority)):
            for j in range(len(minority)):
                if i == j:
                    continue
                p, q = minority[i], minority[j]
                d = q - p
                denom = float(d @ d)
                if denom == 0.0:
                    continue
                t = float((s - p) @ d) / denom
                if -1e-9 <= t <= 1 + 1e-9 and np.linalg.norm(p + t * d - s) < 1e-9:
                    ok = True
                    break
            if ok:
                break
        assert ok, f"synthetic row {s} is not on a segment between minority originals"


def _stump_oracle(x, labels):
    """Exhaustive best first split under the boosting objective."""
    y = (labels == np.unique(labels)[1]).astype(float)
    g = 0.5 - y  # sigmoid(0) - y
    h = np.full(len(y), 0.25)
    lam, mcw = 1.0, 1.0
    best = (-np.inf, None, None)
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        xs, gs, hs = x[order, f], g[order], h[order]
        gl = np.cumsum(gs)[:-1]
        hl = np.cumsum(hs)[:-1]
        gt, ht = gs.sum(), hs.sum()
        for i in range(len(xs) - 1):
            if xs[i + 1] <= xs[i] or hl[i] < mcw or ht - hl[i] < mcw:
                continue
            gain = 0.5 * (
                gl[i] ** 2 / (hl[i] + lam)
                + (gt - gl[i]) ** 2 / (ht - hl[i] + lam)
                - gt**2 / (ht + lam)
            )
            if gain > best[0]:
                best = (gain, f, (xs[i] + xs[i + 1]) / 2.0)
    return best


def test_07_boosted_importance_planted_signal():
    """Feature 0 = label + noise among 9 noise features, 200 rows: ranked
    first in 10/10 seeds; exhaustive stump scan agrees on the first split."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=200)
        x = rng.normal(0.0, 1.0, (200, 10))
        x[:, 0] = y + rng.normal(0.0, 0.25, 200)
        report = boosted_importance(x, y)
        assert report.ranking[0] == 0, f"seed {seed}: ranking {report.ranking[:3]}"
        gain, feat, thr = _stump_oracle(x, y)
        f0, t0_, g0 = report.first_split
        assert f0 == feat, f"seed {seed}: first split on feature {f0}, oracle {feat}"
        assert abs(t0_ - thr) < 1e-9, f"seed {seed}: threshold {t0_} vs oracle {thr}"
        assert abs(g0 - gain) < 1e-9, f"seed {seed}: gain {g0} vs oracle {gain}"


def test_08_metric_arithmetic():
    """TP=5 FP=1 FN=2 TN=12 -> 0.8500 / 0.8333 / 0.7143 / 0.7692 at 4 d.p."""
    m = binary_metrics(tp=5, fp=1, fn=2, tn=12)
    assert round(m["accuracy"], 4) == 0.8500
    assert round(m["precision"], 4) == 0.8333
    assert round(m["recall"], 4) == 0.7143
    assert round(m["f1"], 4) == 0.7692


def test_09_modality_ordering(tmp_path):
    """Default benchmark (n=60, size 64, seed 42, stratified 5 folds shared
    across configurations): macro-F1 multimodal >= fused >= CT-only and
    multimodal - CT-only >= 0.05; < 10 min."""
    t0 = time.perf_counter()
    summary = run_pipeline(resolve_config(None), tmp_path / "bench")
    report = json.loads(
        (pathlib.Path(summary["report_dir"]) / "metrics.json").read_text()
    )
    f1 = {name: r["summary"]["f1_macro"]["mean"] for name, r in report["results"].items()}
    hashes = {name: r["fold_hash"] for name, r in report["results"].items()}
    elapsed = time.perf_counter() - t0
    assert len(set(hashes.values())) == 1, f"fold assignments differ: {hashes}"
    assert f1["multimodal"] >= f1["fused"], f"multimodal {f1['multimodal']:.3f} < fused {f1['fused']:.3f}"
    assert f1["fused"] >= f1["ct-only"], f"fused {f1['fused']:.3f} < ct-only {f1['ct-only']:.3f}"
    gap = f1["multimodal"] - f1["ct-only"]
    assert gap >= 0.05, f"multimodal - ct-only = {gap:.3f} < 0.05"
    assert elapsed < 600.0, f"took {elapsed:.1f}s >= 600s"


def test_10_leakage_audit():
    """Perturbing any test-fold row leaves that fold's fitted statistics,
    SMOTE output, selected features and weights bit-identical (hash check)."""
    rng = np.random.default_rng(20)
    n = 40
    y = np.array(["pos", "neg"] * (n // 2))
    margin = (y == "pos").astype(float) * 2.0
    fused = rng.normal(size=(n, 24))
    fused[:, 0] += margin
    ds = MMDataset(labels=y, tabular=None, images={"fused": fused})
    base = kfold_evaluate(ds, inputs=("fused",), k=5, seed=20)
    folds = stratified_folds(y, 5, seed=20)
    folds_seen = 0
    for fold in range(5):
        # pick a row living in this fold's test split
        row = int(folds[fold][0])
        mutated = fused.copy()
        mutated[row] += 37.0
        ds2 = MMDataset(labels=y, tabular=None, images={"fused": mutated})
        again = kfold_evaluate(ds2, inputs=("fused",), k=5, seed=20)
        assert (
            again.fold_fingerprints[fold] == base.fold_fingerprints[fold]
        ), f"fold {fold}: fingerprint changed when test row {row} mutated"
        folds_seen += 1
    assert folds_seen == 5


def test_11_end_to_end_determinism(tmp_path):
    """Two pipeline runs with an identical config produce byte-identical
    report bundles."""
    doc = resolve_config(
        {
            "phantom": {"n_patients": 24},
            "denoise": {"epochs": 10},
            "classify": {"model": "logreg"},
            "evaluate": {"k": 2},
        }
    )
    run_pipeline(doc, tmp_path / "a")
    run_pipeline(doc, tmp_path / "b")

    def tree_hash(root):
        h = hashlib.sha256()
        root = pathlib.Path(root)
        for p in sorted(root.rglob("*")):
            if p.is_file():
                h.update(p.relative_to(root).as_posix().encode())
                h.update(p.read_bytes())
        return h.hexdigest()

    ha = tree_hash(tmp_path / "a" / "report")
    hb = tree_hash(tmp_path / "b" / "report")
    assert ha == hb, f"report bundles differ: {ha[:12]} vs {hb[:12]}"
