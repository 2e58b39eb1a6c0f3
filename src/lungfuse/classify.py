"""Multi-modal classifier head and cross-validated evaluation.

Image features are hand crafted (wavelet band statistics plus a pooled
intensity grid) rather than taken from a pretrained backbone, which
keeps every number reproducible from this repository alone.  The heads
are a multinomial logistic regression baseline and a small MLP.  The
k-fold harness runs the full leakage-safe pipeline inside each fold:
preprocessing statistics, SMOTE, feature selection and the model are
all fitted on the training split only.  In `kfold_evaluate` and
`compare_modalities` alike, the caller plans each head's shape from the
fold labels and the input columns, and one parallel_map task per stack of
heads of one shape fits each head once and trains the stack as one batched
network.  Heads of one shape share every random draw, so each gets the
weights it would get alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .images import as_image
from .nnet import Adam, glorot_uniform, relu, softmax, views
from .parallel import parallel_map
from .settings import DEFAULTS, check_fields
from .tabular import (
    BoostConfig,
    ColumnSpec,
    TabularDataset,
    apply_preprocess,
    as_rows,
    boosted_importance,
    class_index,
    encoded_names,
    fit_preprocess,
    select_features,
    smote,
    smote_rows,
    take_rows,
)
from .wavelet import dwt2

__all__ = [
    "ClassifyConfig",
    "MMDataset",
    "MetricsReport",
    "LinearModel",
    "MLPModel",
    "extract_image_features",
    "train_logreg",
    "logreg_loss_grad",
    "train_mlp",
    "mlp_loss_grad",
    "predict",
    "predict_proba",
    "confusion_matrix",
    "metrics_from_confusion",
    "binary_metrics",
    "stratified_folds",
    "kfold_evaluate",
    "COMPARISON",
    "compare_modalities",
    "comparison_to_text",
    "fingerprint",
]

REPORT_SCHEMA_VERSION = 1
FEATURE_MIN_SIDE = 16  # the shortest image side extract_image_features takes

_NOTES = (
    "image features: wavelet band statistics + 8x8 pooled grid (hand crafted, "
    "no pretrained backbone); folds: stratified by class from a seeded shuffle; "
    "spread figures: sample std over fold metrics"
)


# --- image features ---


def extract_image_features(fused, levels: int = 2) -> np.ndarray:
    """Fixed-length feature vector from a fused image.

    Layout: for each decomposition level, (mean |c|, mean c^2) for the
    lh, lv, ld bands; then the same pair for the final ll band; then a
    flattened 8x8 block-mean grid.  Length = 2 (3 levels + 1) + 64.
    """
    img = as_image(fused)
    if min(img.shape) < FEATURE_MIN_SIDE:
        raise ContractError(f"image must be at least {FEATURE_MIN_SIDE}x{FEATURE_MIN_SIDE}, "
                            f"got {img.shape}")
    if img.min() < 0.0 or img.max() > 1.0:
        raise ContractError("image values must lie in [0, 1]")
    if levels < 1:
        raise ContractError(f"levels must be >= 1, got {levels}")
    pyr = dwt2(img, "haar", levels)
    feats = []
    for lh, lv, ld in pyr.details:
        for band in (lh, lv, ld):
            feats.append(float(np.mean(np.abs(band))))
            feats.append(float(np.mean(band**2)))
    feats.append(float(np.mean(np.abs(pyr.ll))))
    feats.append(float(np.mean(pyr.ll**2)))
    return np.concatenate([feats, _block_means(img).ravel()])


def _block_means(img) -> np.ndarray:
    """The 8x8 grid of cell means over np.array_split's cells.

    Along each axis the first n % 8 cells are one pixel longer than the
    rest, so the grid is up to four blocks of equal cells.  Each block's
    cells are copied to contiguous rows and reduced on their own, which
    sums each cell in the order cell.mean() does.
    """
    grid = np.empty((8, 8))
    # per axis: (first cell, end cell, first pixel, cell length) of each run
    runs = [((0, n % 8, 0, n // 8 + 1), (n % 8, 8, n % 8 * (n // 8 + 1), n // 8))
            for n in img.shape]
    for i0, i1, y, sa in runs[0]:
        for j0, j1, x, sb in runs[1]:
            na, nb = i1 - i0, j1 - j0
            if na and nb:
                blk = img[y : y + na * sa, x : x + nb * sb].reshape(na, sa, nb, sb)
                grid[i0:i1, j0:j1] = blk.transpose(0, 2, 1, 3).reshape(na, nb, sa * sb).mean(axis=2)
    return grid


# --- logistic regression baseline ---


@dataclass
class LinearModel:
    classes: list
    w: np.ndarray  # (d + 1, n_classes), last row is the bias


def _one_hot(idx, n):
    out = np.zeros((len(idx), n))
    out[np.arange(len(idx)), idx] = 1.0
    return out


def _with_bias(x):
    return np.hstack([x, np.ones((x.shape[0], 1))])


def logreg_loss_grad(w, x, label_idx, n_classes):
    """Cross-entropy loss and gradient for a (d+1, C) weight matrix."""
    xb = _with_bias(np.asarray(x, dtype=np.float64))
    p = softmax(xb @ w)
    n = xb.shape[0]
    loss = float(-np.mean(np.log(p[np.arange(n), label_idx] + 1e-300)))
    grad = xb.T @ (p - _one_hot(label_idx, n_classes)) / n
    return loss, grad


def train_logreg(x, labels, lr: float = 0.5, epochs: int = 200):
    """Full-batch gradient descent from zero weights.

    Returns (model, losses); losses[0] is evaluated before any update,
    so with balanced binary labels it equals ln 2.  Deterministic: zero
    init needs no randomness.
    """
    x, labels = as_rows(x, labels)
    classes, yi = class_index(labels)
    w = np.zeros((x.shape[1] + 1, len(classes)))
    losses = []
    for _ in range(epochs):
        loss, grad = logreg_loss_grad(w, x, yi, len(classes))
        losses.append(loss)
        w -= lr * grad
    return LinearModel(classes, w), losses


# --- MLP ---


@dataclass
class MLPModel:
    classes: list
    params: list  # [w1, b1, w2, b2, w3, b3]


def _shapes(d: int, hidden, c: int, stack: bool = False) -> list:
    """The six parameter shapes.  In a stack each bias is a (1, width) row,
    which broadcasts over the batch and lies in the buffer as the vector does."""
    (h1, h2), row = hidden, (1,) if stack else ()
    return [(d, h1), row + (h1,), (h1, h2), row + (h2,), (h2, c), row + (c,)]


def mlp_loss_grad(params, x, label_idx, n_classes, mask=None):
    """Loss and per-parameter gradients; mask is the (already scaled)
    dropout multiplier for the first hidden layer, or None for off."""
    x = np.asarray(x, dtype=np.float64)
    (d, h1), (h2, c) = np.shape(params[0]), np.shape(params[4])
    flat = np.concatenate([np.ravel(p) for p in params])[None]
    gflat = np.empty_like(flat)
    shapes = _shapes(d, (h1, h2), c, stack=True)
    stack = views(flat, shapes)
    p = _mlp_grads(stack, x[None], _one_hot(label_idx, n_classes)[None], mask,
                   views(gflat, shapes), _MLPWork(x.shape[0], stack))[0]
    loss = float(-np.mean(np.log(p[np.arange(x.shape[0]), label_idx] + 1e-300)))
    return loss, views(gflat[0], _shapes(d, (h1, h2), c))


class _MLPWork:
    """The arrays of one MLP step of a stack of heads on n rows each: the
    batches and the dropout mask the heads share, filled by train_mlp, and
    the activations _mlp_grads writes.  They are for speed only: the step
    written with fresh temporaries gives bit-identical weights but took 36 ms
    instead of 34 for one head, 75 instead of 68 for 4 and 153 instead of 92
    for _STACK = 6 heads (116 x 16 inputs, 300 epochs, one CPU)."""

    def __init__(self, n: int, params):
        (s, d, h1), (h2, c) = params[0].shape, params[4].shape[1:]
        self.x, self.target = np.empty((s, n, d)), np.empty((s, n, c))
        self.mask, self.kept = np.empty((n, h1)), np.empty((n, h1), bool)
        self.a1, self.h1, self.gh1 = (np.empty((s, n, h1)) for _ in range(3))
        self.a2, self.h2, self.ga2 = (np.empty((s, n, h2)) for _ in range(3))
        self.p, self.gz = np.empty((s, n, c)), np.empty((s, n, c))
        self.on1, self.on2 = np.empty((s, n, h1), bool), np.empty((s, n, h2), bool)


def _mlp_grads(params, x, target, mask, grads, work: _MLPWork) -> np.ndarray:
    """Write the six gradients of each head's mean cross-entropy against its
    one-hot `target` rows into `grads`; returns the class probabilities,
    which live in `work`.  Every array has the stack on its leading axis,
    and each head's slice is the matrix a lone head would use, so each
    matmul is the same BLAS call per head; the shared mask broadcasts."""
    w1, b1, w2, b2, w3, b3 = params
    gw1, gb1, gw2, gb2, gw3, gb3 = grads
    a1 = np.matmul(x, w1, out=work.a1)
    a1 += b1
    h1 = relu(a1, out=work.h1)
    if mask is not None:
        h1 *= mask
    a2 = np.matmul(h1, w2, out=work.a2)
    a2 += b2
    h2 = relu(a2, out=work.h2)
    p = np.matmul(h2, w3, out=work.p)
    p += b3
    softmax(p, out=p)
    gz = np.subtract(p, target, out=work.gz)
    gz /= x.shape[1]
    np.matmul(h2.swapaxes(1, 2), gz, out=gw3)
    np.add.reduce(gz, axis=1, keepdims=True, out=gb3)
    ga2 = np.matmul(gz, w3.swapaxes(1, 2), out=work.ga2)
    ga2 *= np.greater(a2, 0, out=work.on2)
    np.matmul(h1.swapaxes(1, 2), ga2, out=gw2)
    np.add.reduce(ga2, axis=1, keepdims=True, out=gb2)
    gh1 = np.matmul(ga2, w2.swapaxes(1, 2), out=work.gh1)
    if mask is not None:
        gh1 *= mask
    gh1 *= np.greater(a1, 0, out=work.on1)
    np.matmul(x.swapaxes(1, 2), gh1, out=gw1)
    np.add.reduce(gh1, axis=1, keepdims=True, out=gb1)
    return p


def train_mlp(x, labels, cfg: ClassifyConfig | None = None):
    """Minibatch Adam with inverted dropout on the first hidden layer.

    x may also be a stack (S, n, d) with one row of labels per head, all
    with the same number of classes: the S heads then train as one batched
    network and a list of S models comes back, each bit for bit what
    train_mlp(x[i], labels[i], cfg) returns.  Every random draw (initial
    weights, row orders, dropout masks) depends on the seed and the shapes
    only, so the heads share them.
    """
    cfg = cfg or ClassifyConfig()
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim != 3
    if single:
        x, labels = x[None], [labels]
    if len(labels) != len(x):
        raise ContractError(f"{len(labels)} label rows for a stack of {len(x)} heads")
    heads = [class_index(as_rows(xi, yi)[1]) for xi, yi in zip(x, labels)]
    c = len(heads[0][0])
    if any(len(classes) != c for classes, _ in heads):
        raise ContractError("the heads of a stack must have the same number of classes")
    s, n, d = x.shape
    rng = np.random.default_rng(cfg.rng_seed)
    # every head's six parameters (and their gradients) are views of one
    # buffer, so each Adam step is one pass of elementwise ops
    shapes = _shapes(d, cfg.hidden, c, stack=True)
    flat = np.zeros((s, sum(int(np.prod(shape)) for shape in shapes)))
    gflat = np.empty_like(flat)
    params, grads = views(flat, shapes), views(gflat, shapes)
    for w in params[::2]:
        w[...] = glorot_uniform(rng, w.shape[1:], *w.shape[1:])
    opt = Adam(flat, lr=cfg.learning_rate)
    batch = min(cfg.batch_size, n)
    keep = 1.0 - cfg.dropout
    target = np.stack([_one_hot(yi, c) for _, yi in heads])
    # one work set per batch length: the full batches and a shorter last one
    works = {m: _MLPWork(m, params) for m in {batch, n - (n - 1) // batch * batch}}
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            work = works[len(idx)]
            x.take(idx, axis=1, out=work.x)
            target.take(idx, axis=1, out=work.target)
            mask = None
            if cfg.dropout > 0:
                # uniform(0, 1) draws are 0 + 1 * random(), the same doubles
                mask = rng.random(out=work.mask)
                np.divide(np.less(mask, keep, out=work.kept), keep, out=mask)
            _mlp_grads(params, work.x, work.target, mask, grads, work)
            opt.step(flat, gflat)
    models = [MLPModel(classes, views(row, _shapes(d, cfg.hidden, c)))
              for row, (classes, _) in zip(flat, heads)]
    return models[0] if single else models


def predict_proba(model, x) -> np.ndarray:
    """Class probabilities; dropout is never applied here."""
    x = np.asarray(x, dtype=np.float64)
    if isinstance(model, LinearModel):
        if x.shape[1] + 1 != model.w.shape[0]:
            raise ContractError(f"model expects {model.w.shape[0] - 1} features, got {x.shape[1]}")
        return softmax(_with_bias(x) @ model.w)
    if isinstance(model, MLPModel):
        w1, b1, w2, b2, w3, b3 = model.params
        if x.shape[1] != w1.shape[0]:
            raise ContractError(f"model expects {w1.shape[0]} features, got {x.shape[1]}")
        h = relu(relu(x @ w1 + b1) @ w2 + b2)
        return softmax(h @ w3 + b3)
    raise ContractError(f"unknown model type {type(model).__name__}")


def predict(model, x):
    idx = np.argmax(predict_proba(model, x), axis=1)
    return np.array([model.classes[i] for i in idx])


# --- metrics ---


def confusion_matrix(true_idx, pred_idx, n_classes: int) -> np.ndarray:
    """Counts indexed [true, predicted]."""
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(true_idx, pred_idx):
        cm[t, p] += 1
    return cm


def _safe_div(a, b):
    return a / b if b > 0 else 0.0


def metrics_from_confusion(cm) -> dict:
    """Accuracy plus macro precision/recall/F1 (zero denominators score 0)."""
    cm = np.asarray(cm, dtype=np.float64)
    total = cm.sum()
    if total <= 0:
        raise ContractError("empty confusion matrix")
    precs, recs, f1s = [], [], []
    for c in range(cm.shape[0]):
        tp = cm[c, c]
        prec = _safe_div(tp, cm[:, c].sum())
        rec = _safe_div(tp, cm[c, :].sum())
        precs.append(prec)
        recs.append(rec)
        f1s.append(_safe_div(2 * prec * rec, prec + rec))
    return {
        "accuracy": float(np.trace(cm) / total),
        "precision_macro": float(np.mean(precs)),
        "recall_macro": float(np.mean(recs)),
        "f1_macro": float(np.mean(f1s)),
    }


def binary_metrics(tp: int, fp: int, fn: int, tn: int) -> dict:
    """Positive-class metrics from the four binary confusion counts."""
    if min(tp, fp, fn, tn) < 0 or tp + fp + fn + tn == 0:
        raise ContractError("counts must be non-negative and not all zero")
    prec = _safe_div(tp, tp + fp)
    rec = _safe_div(tp, tp + fn)
    return {
        "accuracy": _safe_div(tp + tn, tp + fp + fn + tn),
        "precision": prec,
        "recall": rec,
        "f1": _safe_div(2 * prec * rec, prec + rec),
    }


_METRIC_KEYS = ("accuracy", "precision_macro", "recall_macro", "f1_macro")


@dataclass
class MetricsReport:
    classes: list
    confusion: np.ndarray  # pooled over folds, rows = true class
    pooled: dict  # metric -> value over the pooled confusion
    fold_metrics: list  # per fold dicts
    summary: dict  # metric -> {"mean": m, "std": s}; sample std over folds
    k: int
    seed: int
    inputs: tuple
    fold_hash: str
    fold_fingerprints: list
    notes: str = _NOTES

    def to_dict(self) -> dict:
        doc = {"schema_version": REPORT_SCHEMA_VERSION, "kind": "metrics-report"}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "confusion":
                doc["confusion_matrix"] = value.tolist()
            else:
                doc[f.name] = list(value) if isinstance(value, tuple) else value
        return doc


# --- folds ---


def stratified_folds(labels, k: int, seed: int = 0) -> list:
    """Test-index arrays, one per fold; each row appears exactly once.

    Rows are shuffled within each class and dealt round robin, so fold
    class mixes match the dataset to within one row per class.
    """
    if k < 2:
        raise ContractError(f"k must be >= 2, got {k}")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    # np.unique's order, as plain values: its first call imports numpy.ma, which would
    # then count in the peak memory of every run (pipeline checks the folds first)
    for c in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == c)
        if len(idx) < k:
            raise DataError(f"class {c!r} has {len(idx)} rows; stratified {k}-fold needs >= {k}")
        idx = idx[rng.permutation(len(idx))]
        for i, row in enumerate(idx):
            folds[i % k].append(int(row))
    return [np.array(sorted(f)) for f in folds]


# --- the multi-modal dataset and harness ---


@dataclass
class MMDataset:
    labels: list
    tabular: TabularDataset | None = None
    images: dict = field(default_factory=dict)  # modality -> (n, d) features

    def __post_init__(self):
        n = len(self.labels)
        if self.tabular is not None and self.tabular.n_rows != n:
            raise ContractError(
                f"tabular has {self.tabular.n_rows} rows, labels have {n}"
            )
        for name, m in self.images.items():
            m = np.asarray(m, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != n:
                raise ContractError(f"modality {name!r}: expected ({n}, d) matrix, got {m.shape}")
            self.images[name] = m


@dataclass
class ClassifyConfig:
    model: str = "mlp"  # mlp | logreg
    top_k: int = 16
    smote_k: int = 5
    boost: BoostConfig = field(default_factory=BoostConfig)
    logreg_lr: float = 0.5
    logreg_epochs: int = 200
    # the MLP head
    learning_rate: float = 0.001
    batch_size: int = 96  # clamped to dataset size
    epochs: int = 300
    rng_seed: int = 0
    hidden: tuple = (32, 16)
    dropout: float = 0.5  # first hidden layer only, training time only

    def __post_init__(self):
        check_fields(self, ConfigError, "classify", "tabular")
        self.hidden = tuple(self.hidden)


def _assemble(ds: MMDataset, inputs) -> TabularDataset:
    """One flat table: selected tabular columns plus image feature columns."""
    columns, blocks = [], []
    for name in inputs:
        if name == "tabular":
            columns.extend(ds.tabular.columns)
            blocks.append(ds.tabular.values)
        else:
            m = ds.images[name]
            columns.extend(ColumnSpec(f"img_{name}_{j}", "numeric") for j in range(m.shape[1]))
            blocks.append(m)
    return TabularDataset(columns, np.hstack(blocks), list(ds.labels))


def fingerprint(parts) -> str:
    """sha256[:16] of parts in order, arrays as raw bytes and the rest as sorted-key
    JSON: the one hash of stage keys, fold hashes and fold fingerprints."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(json.dumps(p, sort_keys=True, default=str).encode())
    return h.hexdigest()[:16]


# most heads in one stack.  A lone head's steps are mostly per-call cost;
# per head, a stack of 6 trains in under half the time (116 x 16 inputs,
# one CPU: 39 ms alone, 17 ms in a 6-stack) and larger stacks gain no more,
# while smaller chunks spread over more workers
_STACK = 6


def _stacks(shapes) -> list:
    """Head indices in chunks of one shape and at most _STACK heads; each
    shape's heads are split as evenly as the cap allows.  Largest first, so
    that the workers of a map run out of work at about the same time."""
    groups = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    chunks = []
    for idx in groups.values():
        parts = -(-len(idx) // _STACK)
        chunks += [idx[len(idx) * j // parts : len(idx) * (j + 1) // parts] for j in range(parts)]
    return sorted(chunks, key=len, reverse=True)


def _fit_heads(ds: MMDataset, heads, classes, cfg: ClassifyConfig, seed: int) -> list:
    """(confusion matrix, fingerprint) of each head, given as (inputs, test
    rows).  Each head's preprocessing, SMOTE and booster are fitted once, on
    its training rows; the MLP heads then train as one stack, so they must
    share their balanced row count and their selected column count."""
    labels = np.asarray(ds.labels)
    lut = {c: i for i, c in enumerate(classes)}
    folds, xs, ys = [], [], []
    for inputs, test_idx in heads:
        table = _assemble(ds, inputs)
        train_ds = take_rows(table, np.delete(np.arange(table.n_rows), test_idx))
        prep = fit_preprocess(train_ds)
        xb, yb = smote(apply_preprocess(prep, train_ds), train_ds.labels, k=cfg.smote_k, seed=seed)
        sel = select_features(boosted_importance(xb, yb, cfg.boost), min(cfg.top_k, xb.shape[1]))
        folds.append((prep, xb, sel, apply_preprocess(prep, take_rows(table, test_idx))))
        xs.append(xb[:, sel])
        ys.append(yb)
    if cfg.model == "logreg":
        models = [train_logreg(x, y, lr=cfg.logreg_lr, epochs=cfg.logreg_epochs)[0]
                  for x, y in zip(xs, ys)]
    else:
        models = train_mlp(np.stack(xs), ys, cfg)
    out = []
    for (prep, xb, sel, x_test), yb, (_, test_idx), model in zip(folds, ys, heads, models):
        pred = predict(model, x_test[:, sel])
        cm = confusion_matrix([lut[v] for v in labels[test_idx]], [lut[v] for v in pred],
                              len(classes))
        stats_doc = {"numeric": {k_: list(v) for k_, v in prep.numeric_stats.items()},
                     "modes": dict(prep.modes)}
        weight_arrays = [model.w] if isinstance(model, LinearModel) else list(model.params)
        out.append((cm, fingerprint(
            [stats_doc, xb, np.asarray(yb, dtype="U16"), list(map(int, sel))] + weight_arrays
        )))
    return out


COMPARISON = (
    ("tabular-only", ("tabular",)),
    ("ct-only", ("ct",)),
    ("fused", ("fused",)),
    ("multimodal", ("fused", "tabular")),
)


def compare_modalities(ds: MMDataset, seed: int = DEFAULTS["evaluate"]["seed"], k: int = 5,
                       cfg: ClassifyConfig | None = None, rows=COMPARISON) -> dict:
    """name -> MetricsReport for each row (name, input set: a tuple of
    modality names), all on the same folds, from one parallel_map.  Each
    head (input set, fold) is planned here by its shape: SMOTE's row count
    for the fold's training labels, and top_k of the encoded columns.  One
    task per stack of same-shape heads (_stacks) fits and trains them
    (_fit_heads), so a warning about a head's test rows comes once, in
    task order."""
    cfg = cfg or ClassifyConfig()
    for _, inputs in rows:
        if not inputs:
            raise ConfigError("inputs is empty; select at least one modality")
        for name in inputs:
            if name == "tabular":
                if ds.tabular is None:
                    raise ConfigError("inputs include 'tabular' but the dataset has none")
            elif name not in ds.images:
                known = sorted(ds.images) + ["tabular"]
                raise ConfigError(f"unknown modality {name!r}; dataset has {known}")
    labels = np.asarray(ds.labels)
    classes, _ = class_index(labels)
    folds = stratified_folds(labels, k, seed)
    fold_hash = fingerprint([[f.tolist() for f in folds]])
    heads = [(inputs, f) for _, inputs in rows for f in folds]
    width = {inputs: len(encoded_names(_assemble(ds, inputs).columns)) for _, inputs in rows}
    stacks = _stacks([(smote_rows(np.delete(labels, f)), min(cfg.top_k, width[inputs]))
                      for inputs, f in heads])
    fitted = parallel_map(
        lambda chunk: _fit_heads(ds, [heads[i] for i in chunk], classes, cfg, seed), stacks
    )
    results = dict(zip(sum(stacks, []), sum(fitted, [])))  # head -> (confusion, fingerprint)
    reports = {}
    for i, (name, inputs) in enumerate(rows):
        cms, fingerprints = zip(*(results[i * k + j] for j in range(k)))
        fold_metrics = [metrics_from_confusion(cm) for cm in cms]
        pooled_cm = np.sum(cms, axis=0)
        summary = {}
        for key in _METRIC_KEYS:
            vals = np.array([m[key] for m in fold_metrics])
            summary[key] = {"mean": float(vals.mean()), "std": float(vals.std(ddof=1))}
        reports[name] = MetricsReport(
            classes=classes, confusion=pooled_cm, pooled=metrics_from_confusion(pooled_cm),
            fold_metrics=fold_metrics, summary=summary, k=k, seed=seed, inputs=inputs,
            fold_hash=fold_hash, fold_fingerprints=list(fingerprints),
        )
    return reports


def kfold_evaluate(
    ds: MMDataset,
    inputs=("fused", "tabular"),
    k: int = 5,
    cfg: ClassifyConfig | None = None,
    seed: int = DEFAULTS["evaluate"]["seed"],
) -> MetricsReport:
    """Stratified k-fold evaluation of the full in-fold pipeline.

    Inside each fold, on training rows only: fit preprocessing, SMOTE
    balance, rank features with the booster, keep top_k, train the
    configured head.  Test rows see only the fitted transforms.  The
    folds are compare_modalities's, for one row.
    """
    return compare_modalities(ds, seed, k, cfg, rows=[("", tuple(inputs))])[""]


def comparison_to_text(comparison: dict) -> str:
    """Plain-text comparison table, one row per input configuration."""
    lines = []
    first = next(iter(comparison.values()))
    lines.append("model comparison: accuracy / macro precision / macro recall / macro F1")
    lines.append(f"k={first.k} seed={first.seed} (mean +/- sample std over folds)")
    lines.append(f"note: {first.notes}")
    lines.append("")
    header = f"{'input':<14}" + "".join(f"{h:>20}" for h in ("accuracy", "precision", "recall", "f1"))
    lines.append(header)
    lines.append("-" * len(header))
    for name, rep in comparison.items():
        cells = []
        for key in _METRIC_KEYS:
            s = rep.summary[key]
            cells.append(f"{s['mean']:.3f} +/- {s['std']:.3f}")
        lines.append(f"{name:<14}" + "".join(f"{c:>20}" for c in cells))
    return "\n".join(lines) + "\n"
