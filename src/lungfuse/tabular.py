"""Clinical and genomic table handling.

Covers the tabular half of the pipeline: CSV + schema JSON input,
mean/mode imputation with z-scoring and one-hot encoding (statistics
always come from the fitting split alone), classic SMOTE balancing, and
feature importance from a small second-order gradient booster with
exact greedy splits.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError, FormatError
from .nnet import sigmoid

__all__ = [
    "ColumnSpec",
    "TabularDataset",
    "FittedPreprocessor",
    "ImportanceReport",
    "BoostConfig",
    "read_table",
    "write_table",
    "take_rows",
    "fit_preprocess",
    "apply_preprocess",
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
    """Rows of mixed numeric/categorical values; None marks missing."""

    columns: list
    rows: list
    labels: list
    ids: list | None = None

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ContractError("duplicate column names")
        if len(self.labels) != len(self.rows):
            raise ContractError(
                f"{len(self.labels)} labels for {len(self.rows)} rows"
            )
        if self.ids is not None and len(self.ids) != len(self.rows):
            raise ContractError(f"{len(self.ids)} ids for {len(self.rows)} rows")
        for ri, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ContractError(
                    f"row {ri} has {len(row)} values, expected {len(self.columns)}"
                )
            for col, v in zip(self.columns, row):
                if v is None:
                    continue
                if col.kind == "numeric":
                    if not np.isfinite(v):
                        raise DataError(f"row {ri}, column {col.name!r}: non-finite value")
                elif v not in col.categories:
                    raise DataError(
                        f"row {ri}, column {col.name!r}: value {v!r} not in declared categories"
                    )

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def take_rows(ds: TabularDataset, indices) -> TabularDataset:
    idx = [int(i) for i in indices]
    return TabularDataset(
        columns=list(ds.columns),
        rows=[list(ds.rows[i]) for i in idx],
        labels=[ds.labels[i] for i in idx],
        ids=None if ds.ids is None else [ds.ids[i] for i in idx],
    )


# --- CSV + schema JSON ---


def _load_schema(schema_path):
    try:
        with open(schema_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"schema is not valid JSON: {exc}") from None
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
    return cols, doc["label_column"], doc.get("missing", ""), doc.get("id_column")


def read_table(csv_path, schema_path) -> TabularDataset:
    """Load a CSV with a header row against a schema JSON."""
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
    rows, labels, ids = [], [], []
    for ri, rec in enumerate(reader):
        if len(rec) != len(header):
            raise FormatError(f"{csv_path}: row {ri + 1} has {len(rec)} fields")
        row = []
        for col in cols:
            raw = rec[pos[col.name]]
            if raw == missing:
                row.append(None)
            elif col.kind == "numeric":
                try:
                    row.append(float(raw))
                except ValueError:
                    raise FormatError(
                        f"{csv_path}: row {ri + 1}, column {col.name!r}: "
                        f"not numeric: {raw!r}"
                    ) from None
            else:
                row.append(raw)
        label = rec[pos[label_col]]
        if label == missing:
            raise FormatError(f"{csv_path}: row {ri + 1}: missing label")
        rows.append(row)
        labels.append(label)
        if id_col:
            ids.append(rec[pos[id_col]])
    try:
        return TabularDataset(cols, rows, labels, ids if id_col else None)
    except DataError as exc:
        raise FormatError(f"{csv_path}: {exc}") from None


def write_table(csv_path, ds: TabularDataset, schema_path=None, label_column="label",
                missing="", id_column=None) -> None:
    if id_column and ds.ids is None:
        raise ContractError("id_column given but dataset has no ids")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ([id_column] if id_column else []) + [c.name for c in ds.columns] + [label_column]
        writer.writerow(header)
        for ri, row in enumerate(ds.rows):
            rec = [ds.ids[ri]] if id_column else []
            for col, v in zip(ds.columns, row):
                if v is None:
                    rec.append(missing)
                elif col.kind == "numeric":
                    rec.append(repr(float(v)))
                else:
                    rec.append(v)
            rec.append(ds.labels[ri])
            writer.writerow(rec)
    if schema_path is not None:
        doc = {
            "label_column": label_column,
            "missing": missing,
            "columns": [
                {"name": c.name, "kind": c.kind}
                | ({"categories": list(c.categories)} if c.kind == "categorical" else {})
                for c in ds.columns
            ],
        }
        if id_column:
            doc["id_column"] = id_column
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


def fit_preprocess(train: TabularDataset) -> FittedPreprocessor:
    """Learn imputation and scaling statistics from one split only."""
    if train.n_rows < 2:
        raise ContractError(f"need at least 2 rows to fit, got {train.n_rows}")
    if not train.columns:
        raise ContractError("need at least 1 column")
    numeric_stats, modes, feature_names = {}, {}, []
    for ci, col in enumerate(train.columns):
        observed = [row[ci] for row in train.rows if row[ci] is not None]
        if not observed:
            raise DataError(f"column {col.name!r} is entirely missing")
        if col.kind == "numeric":
            mean = float(np.mean(observed))
            # imputing with the mean leaves the mean unchanged, so the
            # z stats are those of the imputed column
            filled = [row[ci] if row[ci] is not None else mean for row in train.rows]
            std = float(np.std(filled))
            numeric_stats[col.name] = (mean, std if std > 0 else 1.0)
            feature_names.append(col.name)
        else:
            counts = {c: 0 for c in col.categories}
            for v in observed:
                counts[v] += 1
            # ties resolve to the earliest declared category
            modes[col.name] = max(col.categories, key=lambda c: counts[c])
            feature_names.extend(f"{col.name}={c}" for c in col.categories)
    return FittedPreprocessor(list(train.columns), numeric_stats, modes, feature_names)


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
    for ri, row in enumerate(ds.rows):
        fi = 0
        for ci, col in enumerate(p.columns):
            v = row[ci]
            if col.kind == "numeric":
                mean, std = p.numeric_stats[col.name]
                x = mean if v is None else float(v)
                out[ri, fi] = (x - mean) / std
                fi += 1
            else:
                cats = col.categories
                val = p.modes[col.name] if v is None else v
                if val in cats:
                    out[ri, fi + cats.index(val)] = 1.0
                else:
                    warnings.warn(
                        f"row {ri}, column {col.name!r}: unseen category {val!r} "
                        "encoded as zeros",
                        stacklevel=2,
                    )
                fi += len(cats)
    return out


# --- SMOTE ---


def smote(x, labels, k: int = 5, seed: int = 0):
    """Classic SMOTE: balance every class up to the majority count.

    Originals are preserved verbatim and first; each synthetic sample is
    p + u (q - p) for a random minority point p, one of its k nearest
    same-class neighbours q, and u ~ Uniform(0, 1).
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    if x.ndim != 2:
        raise ContractError(f"expected a 2D matrix, got shape {x.shape}")
    if len(labels) != x.shape[0]:
        raise ContractError(f"{len(labels)} labels for {x.shape[0]} rows")
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    classes = list(dict.fromkeys(labels.tolist()))  # first-appearance order
    counts = {c: int(np.sum(labels == c)) for c in classes}
    majority = max(counts.values())
    rng = np.random.default_rng(seed)
    new_x, new_y = [x], [labels]
    for c in classes:
        need = majority - counts[c]
        if need == 0:
            continue
        if counts[c] < 2:
            raise DataError(f"class {c!r} has {counts[c]} rows; SMOTE needs at least 2")
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


@dataclass(frozen=True)
class BoostConfig:
    learning_rate: float = 0.1
    max_depth: int = 5
    n_estimators: int = 100
    reg_lambda: float = 1.0
    min_child_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ContractError("learning_rate must be > 0")
        if self.max_depth < 1 or self.n_estimators < 1:
            raise ContractError("max_depth and n_estimators must be >= 1")


@dataclass
class ImportanceReport:
    gains: np.ndarray  # total split gain per feature
    ranking: list  # feature indices, best first, ties to lower index
    first_split: tuple | None = None  # (feature, threshold, gain) of first root


def _best_split(xn, g, h, lam, mcw):
    """Exact greedy scan over all features at one node; None if no gain."""
    n, nf = xn.shape
    if n < 2:
        return None
    order = np.argsort(xn, axis=0, kind="stable")
    xs = np.take_along_axis(xn, order, axis=0)
    gs = np.cumsum(g[order], axis=0)
    hs = np.cumsum(h[order], axis=0)
    gtot, htot = gs[-1], hs[-1]
    gl, hl = gs[:-1], hs[:-1]
    gr, hr = gtot - gl, htot - hl
    valid = (xs[1:] > xs[:-1]) & (hl >= mcw) & (hr >= mcw)
    if not valid.any():
        return None
    gain = 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - gtot**2 / (htot + lam))
    gain[~valid] = -np.inf
    flat = int(np.argmax(gain))
    i, f = divmod(flat, nf)
    best = float(gain[i, f])
    if not best > 0.0:
        return None
    thr = 0.5 * (xs[i, f] + xs[i + 1, f])
    return f, float(thr), best


def _boost_binary(x, y, cfg: BoostConfig, gains: np.ndarray, record_first):
    """One-vs-rest boosting run; accumulates split gains into `gains`."""
    n = x.shape[0]
    f = np.zeros(n)
    first = record_first
    for _ in range(cfg.n_estimators):
        p = sigmoid(f)
        g = p - y
        h = p * (1.0 - p)
        update = np.zeros(n)

        def grow(idx, depth):
            split = (
                _best_split(x[idx], g[idx], h[idx], cfg.reg_lambda, cfg.min_child_weight)
                if depth < cfg.max_depth
                else None
            )
            if split is None:
                gsum, hsum = g[idx].sum(), h[idx].sum()
                update[idx] = -gsum / (hsum + cfg.reg_lambda)
                return False
            fi, thr, gain = split
            gains[fi] += gain
            if first[0] is None:
                first[0] = (fi, thr, gain)
            left = x[idx, fi] <= thr
            grow(idx[left], depth + 1)
            grow(idx[~left], depth + 1)
            return True

        if not grow(np.arange(n), 0):
            break  # even the root cannot split; nothing more to learn
        f += cfg.learning_rate * update


def boosted_importance(x, labels, cfg: BoostConfig | None = None) -> ImportanceReport:
    """Total second-order split gain per feature, XGBoost style.

    Logistic loss, exact greedy splits, lambda 1, min child hessian 1,
    no subsampling.  Multi-class labels run one-vs-rest with gains
    summed across the runs.
    """
    cfg = cfg or BoostConfig()
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    if x.ndim != 2:
        raise ContractError(f"expected a 2D matrix, got shape {x.shape}")
    if len(labels) != x.shape[0]:
        raise ContractError(f"{len(labels)} labels for {x.shape[0]} rows")
    if x.shape[0] < 10:
        raise DataError(f"need at least 10 rows, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise DataError("feature matrix contains non-finite values")
    classes = np.unique(labels)
    if len(classes) < 2:
        raise DataError("labels contain a single class")
    gains = np.zeros(x.shape[1])
    first = [None]
    if len(classes) == 2:
        _boost_binary(x, (labels == classes[1]).astype(np.float64), cfg, gains, first)
    else:
        for c in classes:
            _boost_binary(x, (labels == c).astype(np.float64), cfg, gains, first)
    ranking = list(np.argsort(-gains, kind="stable"))
    return ImportanceReport(gains=gains, ranking=[int(i) for i in ranking], first_split=first[0])


def select_features(report: ImportanceReport, top_k: int) -> list:
    """Indices of the top_k features by gain, ties to the lower index."""
    n = len(report.gains)
    if not 1 <= top_k <= n:
        raise ContractError(f"top_k must be in [1, {n}], got {top_k}")
    return report.ranking[:top_k]
