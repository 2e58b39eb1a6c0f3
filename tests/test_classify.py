import hashlib
import json

import numpy as np
import pytest

from lungfuse import classify as cl
from lungfuse import pipeline as pl
from lungfuse import tabular as tb
from lungfuse.errors import ConfigError, ContractError, DataError
from lungfuse.nnet import glorot_uniform, softmax, views
from lungfuse.phantom import PhantomConfig, generate
from lungfuse.tabular import BoostConfig
from tabular_cells import encode


# --- image features ---


def test_feature_length_formula():
    img = np.random.default_rng(0).uniform(size=(32, 32))
    assert cl.extract_image_features(img, levels=2).shape == (2 * (3 * 2 + 1) + 64,)
    assert cl.extract_image_features(img, levels=1).shape == (2 * (3 * 1 + 1) + 64,)


def test_features_constant_image():
    v = cl.extract_image_features(np.full((16, 16), 0.3), levels=2)
    # all detail means and energies vanish
    assert np.allclose(v[:12], 0.0)
    # ll retains the DC value; the pooled grid is flat
    assert np.allclose(v[14:], 0.3)


def test_features_scale_linearly_and_quadratically():
    img = np.random.default_rng(1).uniform(0.2, 1.0, (32, 32))
    v1 = cl.extract_image_features(img)
    v2 = cl.extract_image_features(0.5 * img)
    means = slice(0, 14, 2)
    energies = slice(1, 14, 2)
    assert np.allclose(v2[means], 0.5 * v1[means])
    assert np.allclose(v2[energies], 0.25 * v1[energies])


def _reference_grid(img):
    """The 8x8 block-mean grid as one mean per np.array_split cell."""
    grid = np.empty((8, 8))
    for i, strip in enumerate(np.array_split(img, 8, axis=0)):
        for j, cell in enumerate(np.array_split(strip, 8, axis=1)):
            grid[i, j] = cell.mean()
    return grid


def test_feature_grid_equals_array_split_cell_means():
    rng = np.random.default_rng(22)
    sizes = [(h, h) for h in range(16, 141)]
    sizes += [(h, w) for h, w in rng.integers(16, 141, size=(40, 2))]
    sizes += [(16, 140), (140, 16), (17, 23), (64, 71)]
    for h, w in sizes:
        img = rng.uniform(size=(h, w))
        got = cl.extract_image_features(img, levels=1)[-64:]
        assert got.tobytes() == _reference_grid(img).tobytes(), (h, w)


def test_features_validate_input():
    with pytest.raises(ContractError):
        cl.extract_image_features(np.zeros((8, 8)))
    with pytest.raises(ContractError):
        cl.extract_image_features(np.full((16, 16), 1.5))
    with pytest.raises(ContractError):
        cl.extract_image_features(np.zeros((16, 16)) - 0.1)


# --- logistic regression ---


def test_logreg_initial_loss_is_ln2():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 3))
    y = np.array([0, 1] * 10)
    _, losses = cl.train_logreg(x, y, lr=0.1, epochs=3)
    assert abs(losses[0] - np.log(2.0)) < 1e-9


def test_logreg_separable_toy_trains_to_100pct():
    x = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]] * 5)
    y = np.array([0, 0, 0, 1, 1, 1] * 5)
    model, losses = cl.train_logreg(x, y, lr=0.5, epochs=200)
    assert np.array_equal(cl.predict(model, x), y)
    assert losses[-1] < losses[0]


def test_logreg_gradient_vs_finite_difference():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(12, 4))
    yi = rng.integers(0, 3, 12)
    w = rng.normal(scale=0.5, size=(5, 3))
    _, grad = cl.logreg_loss_grad(w, x, yi, 3)
    h = 1e-6
    for ix in range(w.size):
        flat = w.reshape(-1)
        old = flat[ix]
        flat[ix] = old + h
        lp, _ = cl.logreg_loss_grad(w, x, yi, 3)
        flat[ix] = old - h
        lm, _ = cl.logreg_loss_grad(w, x, yi, 3)
        flat[ix] = old
        fd = (lp - lm) / (2 * h)
        a = grad.reshape(-1)[ix]
        assert abs(a - fd) / max(abs(a), abs(fd), 1e-6) < 1e-6


def test_logreg_needs_two_classes():
    with pytest.raises(DataError):
        cl.train_logreg(np.zeros((4, 2)), np.zeros(4), epochs=1)


# --- MLP ---


def test_mlp_same_seed_identical_weights():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(30, 5))
    y = rng.integers(0, 2, 30)
    cfg = cl.ClassifyConfig(epochs=5, batch_size=8, rng_seed=3)
    m1 = cl.train_mlp(x, y, cfg=cfg)
    m2 = cl.train_mlp(x, y, cfg=cfg)
    for a, b in zip(m1.params, m2.params):
        assert np.array_equal(a, b)


def test_mlp_params_are_pinned():
    # recorded while Adam still stepped the six arrays one by one; the
    # flat parameter buffer must not move a bit
    rng = np.random.default_rng(7)
    x = rng.normal(size=(70, 6))
    y = np.array(["a", "b", "c"])[rng.integers(0, 3, 70)]
    m = cl.train_mlp(x, y, cl.ClassifyConfig(epochs=15, batch_size=32))
    assert [p.shape for p in m.params] == [(6, 32), (32,), (32, 16), (16,), (16, 3), (3,)]
    h = hashlib.sha256()
    for p in m.params:
        h.update(p.tobytes())
    assert h.hexdigest() == "57b5382e66a3fddee9b8525ddca7ca49ea7ab1f9bc042dbe9595976fb2da2e34"


def _reference_train_mlp(x, labels, cfg):
    """train_mlp's parameters from the same draws, with a fresh array per
    operation and Adam's step written out (lr 0.001 is ClassifyConfig's)."""
    classes, yi = np.unique(labels, return_inverse=True)
    (n, d), (h1, h2), c = x.shape, cfg.hidden, len(classes)
    rng = np.random.default_rng(cfg.rng_seed)
    shapes = [(d, h1), (h1,), (h1, h2), (h2,), (h2, c), (c,)]
    flat = np.zeros(sum(int(np.prod(s)) for s in shapes))
    params = views(flat, shapes)
    for w in params[::2]:
        w[...] = glorot_uniform(rng, w.shape, *w.shape)
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    batch, keep, target = min(cfg.batch_size, n), 1.0 - cfg.dropout, np.eye(c)[yi]
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            mask = None
            if cfg.dropout > 0:
                mask = (rng.uniform(size=(len(idx), h1)) < keep) / keep
            w1, b1, w2, b2, w3, b3 = params
            xb = x[idx]
            a1 = xb @ w1 + b1
            r1 = np.maximum(a1, 0.0)
            r1d = r1 if mask is None else r1 * mask
            a2 = r1d @ w2 + b2
            r2 = np.maximum(a2, 0.0)
            z = r2 @ w3 + b3
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            gz = (e / e.sum(axis=-1, keepdims=True) - target[idx]) / len(idx)
            ga2 = (gz @ w3.T) * (a2 > 0)
            gh1 = ga2 @ w2.T
            if mask is not None:
                gh1 *= mask
            gh1 *= a1 > 0
            g = np.concatenate([(xb.T @ gh1).ravel(), gh1.sum(axis=0), (r1d.T @ ga2).ravel(),
                                ga2.sum(axis=0), (r2.T @ gz).ravel(), gz.sum(axis=0)])
            t += 1
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            flat -= cfg.learning_rate * (m / (1.0 - 0.9**t)) / (
                np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
    return params


@pytest.mark.parametrize("n,batch,n_classes,dropout", [
    (40, 16, 2, 0.5),  # a ragged last batch of 8
    (40, 16, 3, 0.0),
    (30, 64, 3, 0.5),  # one batch of every row
    (33, 32, 3, 0.5),  # a last batch of one row
    (48, 48, 2, 0.0),
])
def test_train_mlp_equals_the_step_written_out(n, batch, n_classes, dropout):
    rng = np.random.default_rng(n + batch)
    x = rng.normal(size=(n, 7))
    y = np.array(["a", "b", "c"][:n_classes])[np.arange(n) % n_classes]
    cfg = cl.ClassifyConfig(hidden=(12, 5), dropout=dropout, epochs=4, batch_size=batch)
    model = cl.train_mlp(x, y, cfg)
    ref = _reference_train_mlp(x, y, cfg)
    assert [p.tobytes() for p in model.params] == [p.tobytes() for p in ref]


@pytest.mark.parametrize("dropout", [0.5, 0.0])
@pytest.mark.parametrize("s", [1, 3, 8])
def test_a_stack_trains_each_head_as_it_trains_alone(s, dropout):
    # 40 rows in batches of 16: a ragged last batch of 8; each head its own labels
    rng = np.random.default_rng(s)
    x = rng.normal(size=(s, 40, 7))
    ys = [np.array(["a", "b", "c"])[rng.permutation(np.arange(40) % 3)] for _ in range(s)]
    cfg = cl.ClassifyConfig(hidden=(12, 5), dropout=dropout, epochs=4, batch_size=16)
    models = cl.train_mlp(x, ys, cfg)
    assert len(models) == s
    for model, xi, yi in zip(models, x, ys):
        assert model.classes == ["a", "b", "c"]
        ref = _reference_train_mlp(xi, yi, cfg)
        assert [p.tobytes() for p in model.params] == [p.tobytes() for p in ref]


def test_a_stack_needs_one_class_count_and_one_label_row_per_head():
    x = np.zeros((2, 6, 3))
    two, three = np.arange(6) % 2, np.arange(6) % 3
    with pytest.raises(ContractError, match="same number of classes"):
        cl.train_mlp(x, [two, three], cl.ClassifyConfig(epochs=1))
    with pytest.raises(ContractError, match="1 label rows for a stack of 2"):
        cl.train_mlp(x, [two], cl.ClassifyConfig(epochs=1))


@pytest.mark.parametrize("shape", [(50, 2), (50, 3), (4, 50, 2), (4, 50, 3)])
def test_softmax_row_max_by_columns_is_the_reduce_bit_for_bit(shape):
    z = np.random.default_rng(len(shape) * 10 + shape[-1]).normal(scale=30.0, size=shape)
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    ref = e / np.add.reduce(e, axis=-1, keepdims=True)
    assert softmax(z).tobytes() == ref.tobytes()
    softmax(z, out=z)
    assert z.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dropout", [0.5, 0.0])
def test_mlp_loss_grad_is_the_training_steps_gradient(monkeypatch, dropout):
    rng = np.random.default_rng(3)
    n, batch = 40, 16
    x = rng.normal(size=(n, 5))
    y = np.array(["a", "b", "c"])[rng.integers(0, 3, n)]
    cfg = cl.ClassifyConfig(epochs=2, batch_size=batch, rng_seed=4, hidden=(8, 6), dropout=dropout)
    steps = []

    class Recording(cl.Adam):
        def step(self, params, grads):
            steps.append((params[0].copy(), grads[0].copy()))
            super().step(params, grads)

    monkeypatch.setattr(cl, "Adam", Recording)
    cl.train_mlp(x, y, cfg)
    # replay train_mlp's draws: initial weights, then per epoch an order
    # and per batch a dropout mask
    replay = np.random.default_rng(cfg.rng_seed)
    shapes = [(5, 8), (8,), (8, 6), (6,), (6, 3), (3,)]
    for shape in shapes[::2]:
        glorot_uniform(replay, shape, *shape)
    yi = np.unique(y, return_inverse=True)[1]
    recorded = iter(steps)
    for _ in range(cfg.epochs):
        order = replay.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            mask = None
            if dropout > 0:
                mask = (replay.uniform(size=(len(idx), 8)) < 1.0 - dropout) / (1.0 - dropout)
            flat, gflat = next(recorded)
            _, grads = cl.mlp_loss_grad(views(flat, shapes), x[idx], yi[idx], 3, mask)
            assert np.concatenate([g.ravel() for g in grads]).tobytes() == gflat.tobytes()
    assert next(recorded, None) is None


def test_mlp_gradcheck_dropout_off():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(7, 4))
    yi = rng.integers(0, 3, 7)
    params = [
        glorot_uniform(rng, (4, 6), 4, 6),
        rng.normal(scale=0.1, size=6),
        glorot_uniform(rng, (6, 5), 6, 5),
        rng.normal(scale=0.1, size=5),
        glorot_uniform(rng, (5, 3), 5, 3),
        rng.normal(scale=0.1, size=3),
    ]
    _, grads = cl.mlp_loss_grad(params, x, yi, 3)
    h = 1e-5
    worst = 0.0
    for arr, g in zip(params, grads):
        flat = arr.reshape(-1)
        take = min(50, flat.size)
        for ix in rng.choice(flat.size, size=take, replace=False):
            old = flat[ix]
            flat[ix] = old + h
            lp, _ = cl.mlp_loss_grad(params, x, yi, 3)
            flat[ix] = old - h
            lm, _ = cl.mlp_loss_grad(params, x, yi, 3)
            flat[ix] = old
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(g.reshape(-1)[ix] - fd) / max(abs(g.reshape(-1)[ix]), abs(fd), 1e-6))
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"


def test_mlp_beats_logreg_on_xor():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 50)
    y = np.array([0, 1, 1, 0] * 50)
    lin, _ = cl.train_logreg(x, y, lr=0.5, epochs=300)
    lin_acc = float(np.mean(cl.predict(lin, x) == y))
    assert lin_acc <= 0.75
    cfg = cl.ClassifyConfig(epochs=300, batch_size=32, rng_seed=0)
    mlp = cl.train_mlp(x, y, cfg=cfg)
    mlp_acc = float(np.mean(cl.predict(mlp, x) == y))
    assert mlp_acc >= 0.95


def test_mlp_eval_has_no_dropout():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 4))
    y = rng.integers(0, 2, 20)
    m = cl.train_mlp(x, y, cl.ClassifyConfig(epochs=3, rng_seed=1))
    p1 = cl.predict_proba(m, x)
    p2 = cl.predict_proba(m, x)
    assert np.array_equal(p1, p2)
    assert np.allclose(p1.sum(axis=1), 1.0)


def test_mlp_spec_validation():
    with pytest.raises(ConfigError):
        cl.ClassifyConfig(hidden=(32,))
    with pytest.raises(ConfigError):
        cl.ClassifyConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        cl.ClassifyConfig(hidden=(0, 4))
    with pytest.raises(ConfigError):
        cl.ClassifyConfig(hidden=(7.9, 3))


def test_predict_rejects_wrong_width():
    x = np.random.default_rng(0).normal(size=(10, 3))
    y = np.array([0, 1] * 5)
    m, _ = cl.train_logreg(x, y, epochs=2)
    with pytest.raises(ContractError):
        cl.predict(m, np.zeros((2, 5)))


# --- metrics ---


def test_binary_metrics_hand_confusion():
    m = cl.binary_metrics(tp=5, fp=1, fn=2, tn=12)
    assert round(m["accuracy"], 4) == 0.85
    assert round(m["precision"], 4) == 0.8333
    assert round(m["recall"], 4) == 0.7143
    assert round(m["f1"], 4) == 0.7692


def test_confusion_matrix_and_accuracy_identity():
    t = [0, 0, 1, 1, 2, 2, 2]
    p = [0, 1, 1, 1, 2, 0, 2]
    cm = cl.confusion_matrix(t, p, 3)
    assert cm.sum() == 7
    assert list(cm.sum(axis=1)) == [2, 2, 3]  # per-class test counts
    m = cl.metrics_from_confusion(cm)
    assert m["accuracy"] == pytest.approx(np.trace(cm) / 7)


def test_macro_f1_invariant_under_class_permutation():
    cm = np.array([[8, 2, 0], [1, 5, 3], [0, 2, 9]])
    m1 = cl.metrics_from_confusion(cm)
    perm = [2, 0, 1]
    m2 = cl.metrics_from_confusion(cm[np.ix_(perm, perm)])
    assert m1["f1_macro"] == pytest.approx(m2["f1_macro"])
    assert m1["accuracy"] == pytest.approx(m2["accuracy"])


def test_metrics_zero_denominator_convention():
    # class 1 never predicted and never present
    cm = np.array([[4, 0], [0, 0]])
    m = cl.metrics_from_confusion(cm)
    assert m["accuracy"] == 1.0
    assert m["precision_macro"] == 0.5  # (1 + 0) / 2


# --- folds ---


def test_stratified_folds_partition():
    labels = np.array(["a"] * 50 + ["b"] * 50)
    folds = cl.stratified_folds(labels, 5, seed=0)
    assert [len(f) for f in folds] == [20] * 5
    seen = np.concatenate(folds)
    assert sorted(seen.tolist()) == list(range(100))
    for f in folds:
        assert int(np.sum(labels[f] == "a")) == 10


def test_stratified_folds_seeded():
    labels = np.array([0, 1] * 20)
    a = cl.stratified_folds(labels, 4, seed=1)
    b = cl.stratified_folds(labels, 4, seed=1)
    c = cl.stratified_folds(labels, 4, seed=2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_stratified_folds_names_the_short_class_as_the_data_holds_it():
    with pytest.raises(DataError) as exc:
        cl.stratified_folds(np.array(["adenocarcinoma"] * 4 + ["squamous"] * 5), 5)
    assert str(exc.value) == "class 'adenocarcinoma' has 4 rows; stratified 5-fold needs >= 5"
    with pytest.raises(DataError, match=r"^class 1 has 2 rows;"):
        cl.stratified_folds(np.array([0, 0, 0, 1, 1]), 3)


def test_stratified_folds_errors():
    with pytest.raises(DataError):
        cl.stratified_folds(np.array(["a"] * 10 + ["b"] * 3), 5, seed=0)
    with pytest.raises(ContractError):
        cl.stratified_folds(np.array(["a", "b"] * 5), 1, seed=0)


# --- harness ---


def _mm_dataset(n=40, seed=0, margin=4.0):
    rng = np.random.default_rng(seed)
    y = np.array([0, 1] * (n // 2))
    labels = ["adeno" if v == 0 else "squam" for v in y]
    fused = rng.normal(0, 1, (n, 6))
    fused[:, 0] += y * margin
    ct = rng.normal(0, 1, (n, 6))
    ct[:, 0] += y * (margin / 4)
    cols = [
        tb.ColumnSpec("age", "numeric"),
        tb.ColumnSpec("stage", "categorical", ("early", "late")),
    ]
    rows = [
        [55.0 + 8.0 * y[i] + rng.normal(), "early" if y[i] == 0 else "late"]
        for i in range(n)
    ]
    tab = encode(cols, rows, labels)
    return cl.MMDataset(labels, tab, {"ct": ct, "fused": fused})


def _fast_cfg(model="logreg"):
    return cl.ClassifyConfig(
        model=model,
        top_k=8,
        boost=BoostConfig(n_estimators=15),
        epochs=40,
        batch_size=16,
        rng_seed=0,
    )


def test_kfold_separable_dataset_is_perfect():
    ds = _mm_dataset(margin=6.0)
    rep = cl.kfold_evaluate(ds, inputs=("fused", "tabular"), k=5, cfg=_fast_cfg(), seed=42)
    assert rep.pooled["accuracy"] == 1.0
    assert rep.summary["accuracy"]["mean"] == 1.0
    assert rep.summary["accuracy"]["std"] == 0.0
    assert rep.confusion.sum() == 40  # every row tested exactly once
    assert len(rep.fold_metrics) == 5
    assert len(rep.fold_fingerprints) == 5


def test_kfold_report_dict_schema():
    ds = _mm_dataset(n=20)
    rep = cl.kfold_evaluate(ds, inputs=("fused",), k=2, cfg=_fast_cfg(), seed=1)
    doc = rep.to_dict()
    assert doc["schema_version"] == 1
    assert doc["kind"] == "metrics-report"
    assert doc["classes"] == ["adeno", "squam"]
    assert np.array(doc["confusion_matrix"]).sum() == 20
    for key in ("accuracy", "precision_macro", "recall_macro", "f1_macro"):
        assert key in doc["pooled"]
        assert "mean" in doc["summary"][key] and "std" in doc["summary"][key]
    assert doc["inputs"] == ["fused"]
    assert doc["fold_hash"]
    assert doc["notes"]


def test_kfold_works_with_mlp_head():
    ds = _mm_dataset(n=30, margin=6.0)
    cfg = cl.ClassifyConfig(
        model="mlp",
        top_k=8,
        boost=BoostConfig(n_estimators=15),
        epochs=150,
        batch_size=16,
        rng_seed=0,
    )
    rep = cl.kfold_evaluate(ds, inputs=("fused",), k=3, cfg=cfg, seed=0)
    assert rep.pooled["accuracy"] >= 0.9


def test_kfold_no_test_fold_leakage():
    ds = _mm_dataset(n=30)
    cfg = _fast_cfg()
    rep1 = cl.kfold_evaluate(ds, inputs=("fused",), k=3, cfg=cfg, seed=5)
    folds = cl.stratified_folds(np.asarray(ds.labels), 3, seed=5)
    victim = int(folds[0][0])
    ds2 = _mm_dataset(n=30)
    ds2.images["fused"][victim, 2] += 9.0
    rep2 = cl.kfold_evaluate(ds2, inputs=("fused",), k=3, cfg=cfg, seed=5)
    # the row sits in fold 0's test split: training state there is untouched
    assert rep1.fold_fingerprints[0] == rep2.fold_fingerprints[0]
    # but it trains folds 1 and 2, whose state must change
    assert rep1.fold_fingerprints[1] != rep2.fold_fingerprints[1]
    assert rep1.fold_fingerprints[2] != rep2.fold_fingerprints[2]


def test_kfold_deterministic():
    ds = _mm_dataset(n=24)
    cfg = _fast_cfg("mlp")
    r1 = cl.kfold_evaluate(ds, inputs=("fused", "tabular"), k=3, cfg=cfg, seed=9)
    r2 = cl.kfold_evaluate(ds, inputs=("fused", "tabular"), k=3, cfg=cfg, seed=9)
    assert r1.fold_fingerprints == r2.fold_fingerprints
    assert np.array_equal(r1.confusion, r2.confusion)


def test_kfold_input_validation():
    ds = _mm_dataset(n=20)
    with pytest.raises(ConfigError):
        cl.kfold_evaluate(ds, inputs=(), k=2, cfg=_fast_cfg())
    with pytest.raises(ConfigError):
        cl.kfold_evaluate(ds, inputs=("pet",), k=2, cfg=_fast_cfg())
    bare = cl.MMDataset(ds.labels, None, ds.images)
    with pytest.raises(ConfigError):
        cl.kfold_evaluate(bare, inputs=("tabular",), k=2, cfg=_fast_cfg())


def test_compare_modalities_shares_folds():
    ds = _mm_dataset(n=30, margin=5.0)
    comp = cl.compare_modalities(ds, seed=3, k=3, cfg=_fast_cfg())
    assert set(comp) == {"tabular-only", "ct-only", "fused", "multimodal"}
    hashes = {rep.fold_hash for rep in comp.values()}
    assert len(hashes) == 1
    text = cl.comparison_to_text(comp)
    for name in comp:
        assert name in text
    assert "+/-" in text and "sample std" in text


_ONE_LABEL = "every label is 'a'; the classifiers need 2 classes"
_ONE_ROW = "class 'b' has 1 training rows; SMOTE needs at least 2"


def _relabelled(labels):
    ds = _mm_dataset(n=len(labels))
    return cl.MMDataset(labels, ds.tabular, ds.images)


@pytest.mark.parametrize("call,message", [
    (lambda x: cl.train_mlp(x, ["a"] * 12, _fast_cfg("mlp")), _ONE_LABEL),
    (lambda x: cl.train_logreg(x, ["a"] * 12, epochs=1), _ONE_LABEL),
    (lambda x: tb.boosted_importance(x, ["a"] * 12), _ONE_LABEL),
    (lambda x: cl.compare_modalities(_relabelled(["a"] * 12), k=2, cfg=_fast_cfg()), _ONE_LABEL),
    (lambda x: tb.smote(x, ["a"] * 11 + ["b"]), _ONE_ROW),
    # 2-fold: each training fold holds one of the two b rows
    (lambda x: cl.compare_modalities(_relabelled(["a"] * 10 + ["b"] * 2), k=2, cfg=_fast_cfg()),
     _ONE_ROW),
], ids=["train_mlp", "train_logreg", "boosted_importance", "compare_modalities",
        "smote", "compare_modalities-smote"])
def test_the_library_refuses_untrainable_data_with_the_cli_words(monkeypatch, call, message):
    def no_workers(*args, **kwargs):
        raise AssertionError("parallel_map ran on data the caller can refuse")

    monkeypatch.setattr(cl, "parallel_map", no_workers)
    x = np.random.default_rng(8).normal(size=(12, 3))
    with pytest.raises(DataError) as info:
        call(x)
    assert str(info.value) == message


def test_compare_modalities_reports_are_pinned(tmp_path):
    # mixed numeric and categorical columns, missing cells and SMOTE, from
    # the phantom through the fused images to the four reports
    from lungfuse import pipeline as pl
    from lungfuse.phantom import PhantomConfig, generate

    generate(PhantomConfig(n_patients=18, image_size=32, missing_rate=0.2, class_balance=0.4,
                           seed=5), tmp_path / "d")
    (tmp_path / "f").mkdir()
    doc = pl.resolve_config({"fusion": {"register": False}})
    pl.compute_fused_dir(tmp_path / "d", tmp_path / "f", doc)
    ds = pl.build_mmdataset(tmp_path / "d", tmp_path / "f", 2)
    cfg = cl.ClassifyConfig(model="mlp", top_k=8, boost=BoostConfig(n_estimators=10),
                            epochs=20, batch_size=16, rng_seed=0)
    comp = cl.compare_modalities(ds, seed=1, k=3, cfg=cfg)
    blob = json.dumps({name: rep.to_dict() for name, rep in comp.items()}, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "562a5f631fd1a3f7b7c22f38614c07949fc9bb3055d56cf5638ffa421b9d6a5f"
    )


def test_mm_dataset_validation():
    with pytest.raises(ContractError):
        cl.MMDataset(["a", "b"], None, {"ct": np.zeros((3, 2))})
    with pytest.raises(ConfigError):
        cl.ClassifyConfig(model="svm")
