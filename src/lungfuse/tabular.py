"""Clinical and genomic table handling.

Covers the tabular half of the pipeline: CSV + schema JSON input,
mean/mode imputation with z-scoring and one-hot encoding (statistics
always come from the fitting split alone), classic SMOTE balancing, and
feature importance from a small second-order gradient booster with
exact greedy splits.

The split search is XGBoost's exact greedy algorithm (Chen & Guestrin,
KDD 2016) over presorted columns: each fit argsorts every feature once,
stably, and a split partitions that order between its children, so no
node sorts again.  Filtering a stable order gives the order a stable
sort of the node's rows would, so the gains match a per-node sort bit
for bit.
"""

from __future__ import annotations

import collections
import csv
import io
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError, FormatError, in_file
from .images import read_json
from .nnet import sigmoid
from .settings import check_fields

__all__ = [
    "ColumnSpec",
    "TabularDataset",
    "FittedPreprocessor",
    "ImportanceReport",
    "BoostConfig",
    "read_table",
    "write_table",
    "take_rows",
    "encoded_names",
    "fit_preprocess",
    "apply_preprocess",
    "as_rows",
    "class_index",
    "smote_rows",
    "smote",
    "boosted_importance",
    "select_features",
]

_KINDS = ("numeric", "categorical")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    categories: tuple = ()

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ContractError(f"column {self.name!r}: name must be a string")
        if self.kind not in _KINDS:
            raise ContractError(f"column {self.name!r}: unknown kind {self.kind!r}")
        object.__setattr__(self, "categories", tuple(self.categories))
        if self.kind == "categorical" and not self.categories:
            raise ContractError(f"column {self.name!r}: categorical needs a category set")
        if self.kind == "numeric" and self.categories:
            raise ContractError(f"column {self.name!r}: numeric column declares categories")
        if len(set(self.categories)) != len(self.categories):
            raise ContractError(f"column {self.name!r}: duplicate categories")


@dataclass
class TabularDataset:
    """One float64 matrix, a column per ColumnSpec: a numeric cell holds
    its value, a categorical cell the index of its value in the column's
    categories, and NaN marks a missing cell."""

    columns: list
    values: np.ndarray
    labels: list
    ids: list | None = None

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ContractError("duplicate column names")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.columns):
            raise ContractError(
                f"values have shape {self.values.shape}, expected (rows, {len(self.columns)})"
            )
        if len(self.labels) != self.n_rows:
            raise ContractError(f"{len(self.labels)} labels for {self.n_rows} rows")
        if self.ids is not None and len(self.ids) != self.n_rows:
            raise ContractError(f"{len(self.ids)} ids for {self.n_rows} rows")
        for col, v in zip(self.columns, self.values.T):
            if col.kind == "numeric":
                bad, what = np.isinf(v), "non-finite value"
            else:
                bad = ~np.isnan(v) & ~np.isin(v, np.arange(len(col.categories)))
                what = f"category index not in [0, {len(col.categories)})"
            if bad.any():
                raise DataError(f"row {int(np.argmax(bad))}, column {col.name!r}: {what}")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


def take_rows(ds: TabularDataset, indices) -> TabularDataset:
    idx = [int(i) for i in indices]
    return TabularDataset(
        columns=list(ds.columns),
        values=ds.values[idx],
        labels=[ds.labels[i] for i in idx],
        ids=None if ds.ids is None else [ds.ids[i] for i in idx],
    )


# --- CSV + schema JSON ---


def _load_schema(schema_path):
    doc = read_json(schema_path, "schema")
    if not isinstance(doc, dict) or "columns" not in doc or "label_column" not in doc:
        raise FormatError("schema must declare 'columns' and 'label_column'")
    try:
        cols = [
            ColumnSpec(c["name"], c["kind"], tuple(c.get("categories", ())))
            for c in doc["columns"]
        ]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad column declaration in schema: {exc}") from None
    except ContractError as exc:
        raise FormatError(str(exc)) from None
    label_col, missing, id_col = doc["label_column"], doc.get("missing", ""), doc.get("id_column")
    if not (isinstance(label_col, str) and isinstance(missing, str)
            and isinstance(id_col, (str, type(None)))):
        raise FormatError("schema: label_column, missing and id_column must be strings")
    names = [c.name for c in cols]
    for i, name in enumerate(names):  # a label or id read as a feature leaks into the folds
        clash = ("the label_column" if name == label_col else "the id_column" if name == id_col
                 else "repeated" if name in names[:i] else None)
        if clash:
            raise FormatError(f"column {name!r} is {clash}")
    return cols, label_col, missing, id_col


def read_table(csv_path, schema_path) -> TabularDataset:
    """Load a CSV with a header row against a schema JSON."""
    with in_file(schema_path):  # each schema fault names the schema
        cols, label_col, missing, id_col = _load_schema(schema_path)
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{csv_path}: not valid UTF-8: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError(f"{csv_path}: empty CSV") from None
    expected = {c.name for c in cols} | {label_col} | ({id_col} if id_col else set())
    unknown = [h for h in header if h not in expected]
    if unknown:
        raise FormatError(f"{csv_path}: unexpected columns {unknown}")
    pos = {h: i for i, h in enumerate(header)}
    for name in sorted(expected):
        if name not in pos:
            raise FormatError(f"{csv_path}: missing column {name!r}")
    # a categorical cell parses to its category's index
    codes = [{c: float(j) for j, c in enumerate(col.categories)} for col in cols]
    rows, labels, ids = [], [], {}  # id -> its row
    for ri, rec in enumerate(reader, 1):
        if len(rec) != len(header):
            raise FormatError(f"{csv_path}: row {ri} has {len(rec)} fields")
        row = []
        for col, code in zip(cols, codes):
            raw = rec[pos[col.name]]
            where = f"{csv_path}: row {ri}, column {col.name!r}"
            if raw == missing:
                row.append(np.nan)
            elif col.kind == "categorical":
                if raw not in code:
                    raise FormatError(f"{where}: value {raw!r} not in declared categories")
                row.append(code[raw])
            else:
                try:
                    v = float(raw)
                except ValueError:
                    raise FormatError(f"{where}: not numeric: {raw!r}") from None
                if not np.isfinite(v):  # NaN is how a missing cell is held
                    raise FormatError(f"{where}: non-finite value {raw!r}")
                row.append(v)
        label = rec[pos[label_col]]
        if label == missing:
            raise FormatError(f"{csv_path}: row {ri}: missing label")
        rows.append(row)
        labels.append(label)
        if id_col:
            pid = rec[pos[id_col]]
            if pid in ids:
                raise FormatError(f"{csv_path}: row {ri} repeats id {pid!r} of row {ids[pid]}")
            ids[pid] = ri
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(cols))
    return TabularDataset(cols, values, labels, list(ids) if id_col else None)


def write_table(csv_path, ds: TabularDataset, schema_path, label_column: str,
                id_column: str) -> None:
    """The table as CSV (ids first, labels last, missing cells empty) and its schema JSON."""
    if ds.ids is None:
        raise ContractError("the dataset has no ids to write")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([id_column] + [c.name for c in ds.columns] + [label_column])
        for ri, row in enumerate(ds.values):
            rec = [ds.ids[ri]]
            for col, v in zip(ds.columns, row):
                if np.isnan(v):
                    rec.append("")
                elif col.kind == "numeric":
                    rec.append(repr(float(v)))
                else:
                    rec.append(col.categories[int(v)])
            rec.append(ds.labels[ri])
            writer.writerow(rec)
    doc = {
        "label_column": label_column,
        "missing": "",
        "columns": [
            {"name": c.name, "kind": c.kind}
            | ({"categories": list(c.categories)} if c.kind == "categorical" else {})
            for c in ds.columns
        ],
        "id_column": id_column,
    }
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# --- preprocessing ---


@dataclass
class FittedPreprocessor:
    columns: list  # fit-time schema
    numeric_stats: dict  # name -> (mean, std_used)
    modes: dict  # categorical name -> mode value
    feature_names: list = field(default_factory=list)

    @property
    def width(self) -> int:
        return len(self.feature_names)


def encoded_names(columns) -> list:
    """The features apply_preprocess makes: `name`, or `name=category` per category."""
    return [name for col in columns for name in (
        [col.name] if col.kind == "numeric" else [f"{col.name}={c}" for c in col.categories])]


def fit_preprocess(train: TabularDataset) -> FittedPreprocessor:
    """Learn imputation and scaling statistics from one split only."""
    if train.n_rows < 2:
        raise ContractError(f"need at least 2 rows to fit, got {train.n_rows}")
    if not train.columns:
        raise ContractError("need at least 1 column")
    numeric_stats, modes = {}, {}
    for col, v in zip(train.columns, train.values.T):
        seen = ~np.isnan(v)
        if not seen.any():
            raise DataError(f"column {col.name!r} is entirely missing")
        if col.kind == "numeric":
            mean = float(np.mean(v[seen]))
            # imputing with the mean leaves the mean unchanged, so the
            # z stats are those of the imputed column
            std = float(np.std(np.where(seen, v, mean)))
            numeric_stats[col.name] = (mean, std if std > 0 else 1.0)
        else:
            counts = np.bincount(v[seen].astype(np.intp), minlength=len(col.categories))
            # argmax takes the first maximum: ties go to the earliest declared category
            modes[col.name] = col.categories[int(np.argmax(counts))]
    return FittedPreprocessor(list(train.columns), numeric_stats, modes,
                              encoded_names(train.columns))


def apply_preprocess(p: FittedPreprocessor, ds: TabularDataset) -> np.ndarray:
    """Impute, scale and encode; returns a float matrix.

    Column names and kinds must match fit time.  A categorical value
    outside the fit-time category set encodes as an all-zero block and
    raises a warning.
    """
    if [c.name for c in ds.columns] != [c.name for c in p.columns] or [
        c.kind for c in ds.columns
    ] != [c.kind for c in p.columns]:
        raise ContractError("dataset schema does not match the fitted schema")
    out = np.zeros((ds.n_rows, p.width))
    unseen = []  # (row, column index, value), warned in row order below
    fi = 0
    for ci, (col, v) in enumerate(zip(p.columns, ds.values.T)):
        missing = np.isnan(v)
        if col.kind == "numeric":
            mean, std = p.numeric_stats[col.name]
            out[:, fi] = (np.where(missing, mean, v) - mean) / std
            fi += 1
        else:
            # this table's codes, then a missing cell's, -> fit-time slots (-1: unseen)
            cats = ds.columns[ci].categories
            slot = {c: j for j, c in enumerate(col.categories)}
            lut = np.array([slot.get(c, -1) for c in cats] + [slot[p.modes[col.name]]])
            j = lut[np.where(missing, len(cats), v).astype(np.intp)]
            hit = np.flatnonzero(j >= 0)
            out[hit, fi + j[hit]] = 1.0
            unseen.extend((ri, ci, cats[int(v[ri])]) for ri in np.flatnonzero(j < 0))
            fi += len(slot)
    for ri, ci, val in sorted(unseen, key=lambda u: u[:2]):
        warnings.warn(
            f"row {ri}, column {p.columns[ci].name!r}: unseen category {val!r} "
            "encoded as zeros",
            stacklevel=2,
        )
    return out


def as_rows(x, labels):
    """x as a 2D float64 matrix and labels as an array with one label per row."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    if x.ndim != 2:
        raise ContractError(f"expected a 2D matrix, got shape {x.shape}")
    if len(labels) != x.shape[0]:
        raise ContractError(f"{len(labels)} labels for {x.shape[0]} rows")
    return x, labels


def class_index(labels):
    """The sorted classes as a list, and each label's index among them."""
    classes, idx = np.unique(labels, return_inverse=True)
    if len(classes) < 2:
        what = f"every label is {classes.tolist()[0]!r}" if len(classes) else "there are no labels"
        raise DataError(f"{what}; the classifiers need 2 classes")
    return classes.tolist(), idx


# --- SMOTE ---


def smote_rows(labels) -> int:
    """The number of rows smote returns: every class at the majority count,
    each grown from at least 2 rows (a synthetic row lies between two)."""
    counts = collections.Counter(np.asarray(labels).tolist())
    most = max(counts.values())
    for c, n in sorted(counts.items()):
        if n < 2 and n < most:
            raise DataError(f"class {c!r} has {n} training rows; SMOTE needs at least 2")
    return len(counts) * most


def smote(x, labels, k: int = 5, seed: int = 0):
    """Classic SMOTE: balance every class up to the majority count.

    Originals are preserved verbatim and first; each synthetic sample is
    p + u (q - p) for a random minority point p, one of its k nearest
    same-class neighbours q, and u ~ Uniform(0, 1).
    """
    x, labels = as_rows(x, labels)
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    smote_rows(labels)
    counts = collections.Counter(labels.tolist())  # first-appearance order
    majority = max(counts.values())
    rng = np.random.default_rng(seed)
    new_x, new_y = [x], [labels]
    for c, n in counts.items():
        need = majority - n
        if need == 0:
            continue
        pts = x[labels == c]
        k_eff = min(k, len(pts) - 1)
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        nbr = np.argsort(d2, axis=1, kind="stable")[:, :k_eff]
        synth = np.empty((need, x.shape[1]))
        for s in range(need):
            pi = rng.integers(len(pts))
            q = pts[nbr[pi, rng.integers(k_eff)]]
            u = rng.uniform()
            synth[s] = pts[pi] + u * (q - pts[pi])
        new_x.append(synth)
        new_y.append(np.full(need, c, dtype=labels.dtype))
    return np.concatenate(new_x), np.concatenate(new_y)


# --- boosted feature importance ---

# XGBoost's fixed defaults: L2 penalty on leaf weights, and the least
# hessian a child may carry
_LAMBDA = 1.0
_MIN_CHILD_WEIGHT = 1.0
# A child whose hessian sum is below this becomes a leaf without a
# _best_split scan; the test is a sum with slack.  h >= 0, and any order
# of summing n terms errs by at most about n * 2**-53 relative, far below
# the 1e-6 slack, so each feature's cumulative total htot is then below
# 2 * _MIN_CHILD_WEIGHT.  A prefix hl >= _MIN_CHILD_WEIGHT is at most htot
# (prefix sums of h never decrease), so htot - hl is exact (Sterbenz) and
# below the minimum: the scan would find no valid split.
_SPLITTABLE_HESS = 2 * _MIN_CHILD_WEIGHT * (1 - 1e-6)


@dataclass(frozen=True)
class BoostConfig:
    learning_rate: float = 0.1
    max_depth: int = 5
    n_estimators: int = 100

    def __post_init__(self):
        check_fields(self, ContractError, "classify", prefix="boost_")


@dataclass
class ImportanceReport:
    gains: np.ndarray  # total split gain per feature
    ranking: list  # feature indices, best first, ties to lower index
    first_split: tuple | None = None  # (feature, threshold, gain) of first root


def _best_split(xt, offsets, order, gh):
    """Exact greedy scan over all features at one node; None if no gain.

    xt is the feature matrix transposed and flattened, so xt[offsets[f] + r]
    is feature f of row r, and gh is g + 1j*h.  order is the node's
    (features, rows) index array, each row sorted by that feature's value,
    ties by row index.
    """
    nf, n = order.shape
    if n < 2:
        return None
    cols = order.T
    xs = xt.take(cols + offsets)
    # complex addition adds the real and the imaginary parts apart, so one
    # complex cumsum has the bits of a cumsum of g and of a cumsum of h
    ghs = np.cumsum(gh.take(cols), axis=0)
    gs, hs = ghs.real, ghs.imag
    gtot, htot = gs[-1], hs[-1]
    gl, hl = gs[:-1], hs[:-1]
    hr = htot - hl
    valid = (xs[1:] > xs[:-1]) & (hl >= _MIN_CHILD_WEIGHT) & (hr >= _MIN_CHILD_WEIGHT)
    if not valid.any():
        return None
    # 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - gtot**2 / (htot + lam)), in place
    lam = _LAMBDA
    gain = np.square(gl)
    gain /= hl + lam
    gr = np.subtract(gtot, gl)
    gr *= gr
    hr += lam
    gr /= hr
    gain += gr
    gain -= gtot**2 / (htot + lam)
    gain *= 0.5
    np.copyto(gain, -np.inf, where=~valid)
    flat = int(np.argmax(gain))
    i, f = divmod(flat, nf)
    best = float(gain[i, f])
    if not best > 0.0:
        return None
    thr = 0.5 * (xs[i, f] + xs[i + 1, f])
    return f, float(thr), best


def _boost_binary(x, order0, y, cfg: BoostConfig, gains: np.ndarray, record_first):
    """One-vs-rest boosting run; accumulates split gains into `gains`.

    order0 is the stable per-feature argsort of all rows.  Each node
    carries it filtered to the node's rows, so no node sorts again.
    """
    n, nf = x.shape
    xt, offsets = x.T.ravel(), np.arange(nf) * n
    f = np.zeros(n)
    first = record_first
    for _ in range(cfg.n_estimators):
        p = sigmoid(f)
        g = p - y
        h = p * (1.0 - p)
        gh = g + 1j * h
        update = np.zeros(n)

        def leaf(idx):
            gsum, hsum = g[idx].sum(), h[idx].sum()
            update[idx] = -gsum / (hsum + _LAMBDA)

        def grow(idx, order, depth):
            split = _best_split(xt, offsets, order, gh)
            if split is None:
                leaf(idx)
                return False
            fi, thr, gain = split
            gains[fi] += gain
            if first[0] is None:
                first[0] = (fi, thr, gain)
            goes_left = x[:, fi] <= thr
            sorted_left = goes_left.take(order)
            for side, sorted_side in ((goes_left, sorted_left), (~goes_left, ~sorted_left)):
                child = idx[side[idx]]
                if depth + 1 < cfg.max_depth and h[child].sum() >= _SPLITTABLE_HESS:
                    grow(child, np.compress(sorted_side.ravel(), order).reshape(nf, -1), depth + 1)
                else:
                    leaf(child)
            return True

        if not grow(np.arange(n), order0, 0):
            break  # even the root cannot split; nothing more to learn
        f += cfg.learning_rate * update


BOOST_MIN_ROWS = 10  # the fewest rows boosted_importance ranks features on


def boosted_importance(x, labels, cfg: BoostConfig | None = None) -> ImportanceReport:
    """Total second-order split gain per feature, XGBoost style.

    Logistic loss, exact greedy splits, lambda 1, min child hessian 1,
    no subsampling.  Multi-class labels run one-vs-rest with gains
    summed across the runs.
    """
    cfg = cfg or BoostConfig()
    x, labels = as_rows(x, labels)
    if x.shape[0] < BOOST_MIN_ROWS:
        raise DataError(f"need at least {BOOST_MIN_ROWS} rows, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise DataError("feature matrix contains non-finite values")
    classes, _ = class_index(labels)
    gains = np.zeros(x.shape[1])
    first = [None]
    order0 = np.argsort(x.T, axis=1, kind="stable")
    for c in classes[1:] if len(classes) == 2 else classes:
        _boost_binary(x, order0, (labels == c).astype(np.float64), cfg, gains, first)
    ranking = list(np.argsort(-gains, kind="stable"))
    return ImportanceReport(gains=gains, ranking=[int(i) for i in ranking], first_split=first[0])


def select_features(report: ImportanceReport, top_k: int) -> list:
    """Indices of the top_k features by gain, ties to the lower index."""
    n = len(report.gains)
    if not 1 <= top_k <= n:
        raise ContractError(f"top_k must be in [1, {n}], got {top_k}")
    return report.ranking[:top_k]
