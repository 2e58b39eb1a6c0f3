import hashlib
import json
import warnings

import numpy as np
import pytest

from lungfuse import tabular as tb
from lungfuse.errors import ContractError, DataError, FormatError
from lungfuse.nnet import sigmoid
from tabular_cells import decode, encode


def _toy():
    cols = [
        tb.ColumnSpec("age", "numeric"),
        tb.ColumnSpec("smoking", "categorical", ("never", "former", "current")),
        tb.ColumnSpec("gene", "numeric"),
    ]
    rows = [
        [1.0, "never", 0.5],
        [None, "never", 0.5],
        [3.0, "former", 0.5],
        [2.0, None, 0.5],
    ]
    return encode(cols, rows, ["a", "b", "a", "b"], ids=["p0", "p1", "p2", "p3"])


# --- dataset invariants ---


def test_dataset_validates_arity_and_labels():
    cols = [tb.ColumnSpec("x", "numeric")]
    with pytest.raises(ContractError):
        encode(cols, [[1.0, 2.0]], ["a"])
    with pytest.raises(ContractError):
        encode(cols, [[1.0]], ["a", "b"])
    with pytest.raises(DataError):
        encode(
            [tb.ColumnSpec("c", "categorical", ("x",))], [["y"]], ["a"]
        )
    with pytest.raises(DataError):
        encode(cols, [[float("inf")]], ["a"])
    # NaN is a missing cell; a category is held as an integer index in range
    assert np.isnan(tb.TabularDataset(cols, [[np.nan]], ["a"]).values[0, 0])
    cat = [tb.ColumnSpec("c", "categorical", ("x", "y"))]
    for code in (0.5, -1.0, 2.0, np.inf):
        with pytest.raises(DataError, match="category index"):
            tb.TabularDataset(cat, [[code]], ["a"])


def test_column_spec_validation():
    with pytest.raises(ContractError):
        tb.ColumnSpec("x", "ordinal")
    with pytest.raises(ContractError):
        tb.ColumnSpec("x", "categorical")
    with pytest.raises(ContractError):
        tb.ColumnSpec("x", "numeric", ("a",))
    with pytest.raises(ContractError):
        tb.ColumnSpec("x", "categorical", ("a", "a"))


def test_take_rows():
    ds = _toy()
    sub = tb.take_rows(ds, [2, 0])
    assert sub.n_rows == 2
    assert sub.labels == ["a", "a"]
    assert sub.ids == ["p2", "p0"]
    assert decode(sub)[0][0] == 3.0


# --- fit / apply ---


def test_fit_mean_imputation_population_std():
    ds = _toy()
    p = tb.fit_preprocess(ds)
    mean, std = p.numeric_stats["age"]
    assert mean == pytest.approx(2.0)  # observed mean of [1, 3, 2]
    # imputed column is [1, 2, 3, 2]; population std
    assert std == pytest.approx(float(np.std([1.0, 2.0, 3.0, 2.0])))


def test_fit_three_value_example():
    cols = [tb.ColumnSpec("v", "numeric")]
    ds = encode(cols, [[1.0], [None], [3.0]], ["a", "a", "b"])
    p = tb.fit_preprocess(ds)
    mean, std = p.numeric_stats["v"]
    assert mean == 2.0
    assert std == pytest.approx(np.sqrt(2.0 / 3.0))


def test_fit_mode_and_onehot_layout():
    ds = _toy()
    p = tb.fit_preprocess(ds)
    assert p.modes["smoking"] == "never"
    assert p.feature_names == [
        "age",
        "smoking=never",
        "smoking=former",
        "smoking=current",
        "gene",
    ]
    x = tb.apply_preprocess(p, ds)
    assert x.shape == (4, 5)
    # row 2 is a 'former' smoker
    assert list(x[2, 1:4]) == [0.0, 1.0, 0.0]
    # row 3 had a missing value, imputed to the mode 'never'
    assert list(x[3, 1:4]) == [1.0, 0.0, 0.0]


def test_encoded_names_are_the_fitted_feature_names():
    # "current" is declared but no row holds it: it still gets its column
    cols = [
        tb.ColumnSpec("smoking", "categorical", ("never", "former", "current")),
        tb.ColumnSpec("age", "numeric"),
        tb.ColumnSpec("site", "categorical", ("upper", "lower")),
    ]
    ds = encode(cols, [["never", 60.0, "upper"], ["former", None, "lower"],
                       [None, 71.0, "upper"]], ["a", "b", "a"])
    names = tb.encoded_names(ds.columns)
    assert names == tb.fit_preprocess(ds).feature_names
    assert names == ["smoking=never", "smoking=former", "smoking=current", "age",
                     "site=upper", "site=lower"]


def test_mode_tie_breaks_to_declared_order():
    cols = [tb.ColumnSpec("c", "categorical", ("b", "a"))]
    ds = encode(cols, [["a"], ["b"], [None]], ["x", "y", "x"])
    p = tb.fit_preprocess(ds)
    assert p.modes["c"] == "b"


def test_constant_column_scales_to_zero():
    cols = [tb.ColumnSpec("k", "numeric")]
    ds = encode(cols, [[7.0], [7.0], [7.0]], ["a", "a", "b"])
    p = tb.fit_preprocess(ds)
    assert p.numeric_stats["k"] == (7.0, 1.0)
    assert np.all(tb.apply_preprocess(p, ds) == 0.0)


def test_apply_on_training_set_is_standardized():
    rng = np.random.default_rng(0)
    cols = [tb.ColumnSpec(f"n{i}", "numeric") for i in range(3)]
    rows = [[float(v) for v in rng.normal(5, 3, 3)] for _ in range(50)]
    ds = encode(cols, rows, ["a"] * 50)
    x = tb.apply_preprocess(tb.fit_preprocess(ds), ds)
    assert np.all(np.abs(x.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(x.std(axis=0) - 1.0) < 1e-9)


def test_row_of_means_maps_to_zeros():
    ds = _toy()
    p = tb.fit_preprocess(ds)
    probe = encode(
        ds.columns, [[2.0, "never", 0.5]], ["a"]
    )
    x = tb.apply_preprocess(p, probe)
    assert x[0, 0] == 0.0
    assert x[0, 4] == 0.0


def test_all_missing_column_errors_by_name():
    cols = [tb.ColumnSpec("ok", "numeric"), tb.ColumnSpec("gone", "numeric")]
    ds = encode(cols, [[1.0, None], [2.0, None]], ["a", "b"])
    with pytest.raises(DataError, match="gone"):
        tb.fit_preprocess(ds)


def test_fit_needs_two_rows():
    cols = [tb.ColumnSpec("x", "numeric")]
    with pytest.raises(ContractError):
        tb.fit_preprocess(encode(cols, [[1.0]], ["a"]))


def test_unseen_category_zero_block_one_warning():
    fit_cols = [tb.ColumnSpec("c", "categorical", ("a", "b"))]
    train = encode(fit_cols, [["a"], ["b"], ["a"]], ["x", "y", "x"])
    p = tb.fit_preprocess(train)
    wide = [tb.ColumnSpec("c", "categorical", ("a", "b", "c"))]
    probe = encode(wide, [["c"]], ["x"])
    with pytest.warns(UserWarning) as rec:
        x = tb.apply_preprocess(p, probe)
    assert len(rec) == 1
    assert np.all(x == 0.0)


def _reference_apply(p, ds):
    """The per-cell loop that apply_preprocess replaced."""
    out = np.zeros((ds.n_rows, p.width))
    for ri, row in enumerate(decode(ds)):
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
                        "encoded as zeros"
                    )
                fi += len(cats)
    return out


def test_apply_preprocess_equals_per_cell_loop():
    rng = np.random.default_rng(11)
    fit_cols = [
        tb.ColumnSpec("a", "numeric"),
        tb.ColumnSpec("smoke", "categorical", ("never", "former")),
        tb.ColumnSpec("b", "numeric"),
        tb.ColumnSpec("stage", "categorical", ("I", "II")),
    ]
    wide = [
        fit_cols[0],
        tb.ColumnSpec("smoke", "categorical", ("never", "former", "current")),
        fit_cols[2],
        tb.ColumnSpec("stage", "categorical", ("I", "II", "III")),
    ]

    def rows(n, cats1, cats2):
        out = []
        for _ in range(n):
            row = [float(rng.normal(3, 2)), str(rng.choice(cats1)),
                   float(rng.normal()), str(rng.choice(cats2))]
            out.append([None if rng.uniform() < 0.2 else v for v in row])
        return out

    train = encode(fit_cols, rows(30, ["never", "former"], ["I", "II"]), ["x"] * 30)
    test = encode(wide, rows(25, ["never", "current"], ["II", "III"]), ["x"] * 25)
    p = tb.fit_preprocess(train)
    results = []
    for fn in (tb.apply_preprocess, _reference_apply):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            out = fn(p, test)
        results.append((out.tobytes(), [str(w.message) for w in rec]))
    assert results[0] == results[1]
    assert len(results[0][1]) > 2  # unseen values in both categorical columns


def test_apply_rejects_schema_mismatch():
    p = tb.fit_preprocess(_toy())
    other = encode(
        [tb.ColumnSpec("x", "numeric")], [[1.0]], ["a"]
    )
    with pytest.raises(ContractError):
        tb.apply_preprocess(p, other)


def test_fit_statistics_ignore_other_rows():
    ds = _toy()
    train = tb.take_rows(ds, [0, 1, 2])
    p1 = tb.fit_preprocess(train)
    # mutate the held-out row; fitted statistics must be unaffected
    ds.values[3, 0] = 999.0
    p2 = tb.fit_preprocess(tb.take_rows(ds, [0, 1, 2]))
    assert p1.numeric_stats == p2.numeric_stats
    assert p1.modes == p2.modes


# --- SMOTE ---


def test_smote_balances_counts_originals_first():
    rng = np.random.default_rng(1)
    x = np.vstack([rng.normal(0, 1, (10, 3)), rng.normal(5, 1, (4, 3))])
    y = np.array(["A"] * 10 + ["B"] * 4)
    xo, yo = tb.smote(x, y, k=3, seed=0)
    assert xo.shape == (20, 3)
    assert int(np.sum(yo == "A")) == 10 and int(np.sum(yo == "B")) == 10
    assert np.array_equal(xo[:14], x)
    assert np.array_equal(yo[:14], y)
    assert np.all(yo[14:] == "B")


def test_smote_synthetics_lie_on_minority_segments():
    rng = np.random.default_rng(2)
    x = np.vstack([rng.normal(0, 1, (12, 4)), rng.normal(3, 1, (5, 4))])
    y = np.array([0] * 12 + [1] * 5)
    xo, yo = tb.smote(x, y, k=3, seed=7)
    minority = x[y == 1]
    for s in xo[17:]:
        ok = False
        for i in range(len(minority)):
            for j in range(len(minority)):
                if i == j:
                    continue
                p, q = minority[i], minority[j]
                d = q - p
                t = float(np.dot(s - p, d) / np.dot(d, d))
                if -1e-9 <= t <= 1 + 1e-9 and np.linalg.norm(p + t * d - s) < 1e-9:
                    ok = True
        assert ok, f"synthetic {s} is not on any minority segment"


def test_smote_balanced_input_is_identity():
    x = np.arange(12.0).reshape(6, 2)
    y = np.array(["a", "b"] * 3)
    xo, yo = tb.smote(x, y, k=1, seed=0)
    assert np.array_equal(xo, x)
    assert np.array_equal(yo, y)


def test_smote_caps_k_and_rejects_tiny_minority():
    x = np.vstack([np.zeros((5, 2)), [[1.0, 1.0], [1.1, 1.0]]])
    y = np.array([0] * 5 + [1] * 2)
    xo, yo = tb.smote(x, y, k=5, seed=3)  # k capped at 1
    assert int(np.sum(yo == 1)) == 5
    x2 = np.vstack([np.zeros((5, 2)), [[1.0, 1.0]]])
    y2 = np.array([0] * 5 + [1])
    with pytest.raises(DataError):
        tb.smote(x2, y2, k=3, seed=0)
    with pytest.raises(ContractError):
        tb.smote(x, y, k=0, seed=0)


def test_smote_deterministic_and_multiclass():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(24, 3))
    y = np.array([0] * 12 + [1] * 8 + [2] * 4)
    a = tb.smote(x, y, k=3, seed=9)
    b = tb.smote(x, y, k=3, seed=9)
    assert np.array_equal(a[0], b[0])
    counts = {c: int(np.sum(a[1] == c)) for c in (0, 1, 2)}
    assert counts == {0: 12, 1: 12, 2: 12}


@pytest.mark.parametrize("labels", [
    ["a", "b"] * 5,  # balanced
    ["a"] * 9 + ["b"] * 3,
    ["b"] * 3 + ["a"] * 9,  # the minority appears first
    [0, 1, 1, 2, 1, 0, 1, 2, 1, 1],
    [2, 2, 0, 1, 0, 1],  # three balanced classes
    ["x"] * 2 + ["y"] * 7 + ["z"] * 4,
])
def test_smote_rows_is_the_number_of_rows_smote_returns(labels):
    x = np.random.default_rng(6).normal(size=(len(labels), 3))
    assert tb.smote_rows(labels) == len(tb.smote(x, labels, k=3, seed=1)[0])
    assert tb.smote_rows(np.array(labels)) == tb.smote_rows(labels)


# --- boosted importance ---


def _stump_oracle(x, y, lam=1.0, mcw=1.0):
    """Exhaustive best first split from a zero model, brute force."""
    p = 0.5
    g = p - y
    h = np.full(len(y), p * (1 - p))
    best = (None, -np.inf)
    for f in range(x.shape[1]):
        xs = np.sort(np.unique(x[:, f]))
        for lo, hi in zip(xs[:-1], xs[1:]):
            thr = (lo + hi) / 2
            left = x[:, f] <= thr
            hl, hr = h[left].sum(), h[~left].sum()
            if hl < mcw or hr < mcw:
                continue
            gl, gr = g[left].sum(), g[~left].sum()
            gain = 0.5 * (
                gl**2 / (hl + lam) + gr**2 / (hr + lam) - (gl + gr) ** 2 / (h.sum() + lam)
            )
            if gain > best[1]:
                best = (f, gain)
    return best


def _label_plus_noise(n=40, extra=4, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n).astype(np.float64)
    x = np.column_stack([y] + [rng.normal(size=n) for _ in range(extra)])
    return x, y


def test_importance_finds_label_feature():
    x, y = _label_plus_noise()
    rep = tb.boosted_importance(x, y)
    assert rep.ranking[0] == 0
    assert np.all(rep.gains >= 0)
    f, gain = _stump_oracle(x, y)
    assert rep.first_split[0] == f == 0
    assert rep.first_split[2] == pytest.approx(gain)


def test_importance_constant_features_all_zero():
    x = np.ones((12, 3))
    y = np.array([0, 1] * 6)
    rep = tb.boosted_importance(x, y)
    assert np.all(rep.gains == 0.0)
    assert rep.first_split is None
    assert sorted(rep.ranking) == [0, 1, 2]


def test_importance_stable_under_duplicated_noise():
    x, y = _label_plus_noise(seed=5)
    x2 = np.column_stack([x, x[:, 2]])
    rep = tb.boosted_importance(x2, y)
    assert rep.ranking[0] == 0
    f, _ = _stump_oracle(x2, y)
    assert rep.first_split[0] == f


def test_importance_row_permutation_invariant():
    x, y = _label_plus_noise(seed=6)
    rep1 = tb.boosted_importance(x, y)
    perm = np.random.default_rng(3).permutation(len(y))
    rep2 = tb.boosted_importance(x[perm], y[perm])
    assert np.allclose(rep1.gains, rep2.gains)
    assert rep1.ranking == rep2.ranking


def test_importance_multiclass_runs_one_vs_rest():
    rng = np.random.default_rng(8)
    y = np.array([0] * 8 + [1] * 8 + [2] * 8)
    x = np.column_stack([y == 0, y == 2, rng.normal(size=24)]).astype(np.float64)
    rep = tb.boosted_importance(x, y)
    assert set(rep.ranking[:2]) == {0, 1}


def test_importance_preconditions():
    x = np.random.default_rng(0).normal(size=(9, 2))
    with pytest.raises(DataError):
        tb.boosted_importance(x, np.array([0, 1] * 4 + [0]))
    x = np.random.default_rng(0).normal(size=(12, 2))
    with pytest.raises(DataError):
        tb.boosted_importance(x, np.zeros(12))
    with pytest.raises(ContractError):
        tb.boosted_importance(x, np.zeros(5))


# The booster sorts once per fit and partitions the sorted rows down the
# tree.  The functions below are the search it replaced, which sorted every
# node's rows again; the two must agree bit for bit.


def _reference_best_split(xn, g, h, lam, mcw):
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


def _reference_boost_binary(x, y, cfg, gains, first):
    n = x.shape[0]
    f = np.zeros(n)
    for _ in range(cfg.n_estimators):
        p = sigmoid(f)
        g = p - y
        h = p * (1.0 - p)
        update = np.zeros(n)

        def grow(idx, depth):
            split = (
                # XGBoost's lambda 1 and min child hessian 1
                _reference_best_split(x[idx], g[idx], h[idx], 1.0, 1.0)
                if depth < cfg.max_depth
                else None
            )
            if split is None:
                update[idx] = -g[idx].sum() / (h[idx].sum() + 1.0)
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
            break
        f += cfg.learning_rate * update


def _reference_importance(x, labels, cfg):
    classes = np.unique(labels)
    gains, first = np.zeros(x.shape[1]), [None]
    for c in classes[1:] if len(classes) == 2 else classes:
        _reference_boost_binary(x, (labels == c).astype(np.float64), cfg, gains, first)
    return gains, [int(i) for i in np.argsort(-gains, kind="stable")], first[0]


def _random_input(rng):
    x = rng.normal(size=(70, 6))
    y = (x[:, 1] - x[:, 4] + 0.5 * rng.normal(size=70) > 0).astype(int)
    return x, y


def _tied_input(rng):
    x = rng.integers(0, 4, size=(80, 5)).astype(np.float64)
    x[:, 2] = 1.5  # constant column
    x = np.column_stack([x, x[:, 0]])  # duplicated column
    y = (x[:, 0] + x[:, 3] + rng.integers(0, 2, 80) > 3).astype(int)
    return x, y


def _three_class_input(rng):
    y = rng.integers(0, 3, 90)
    x = np.column_stack([y + rng.normal(size=90), rng.normal(size=(90, 3))])
    x[:, 2] = np.round(x[:, 2])
    return x, np.array(["a", "b", "c"])[y]


@pytest.mark.parametrize("max_depth", [1, 5, 6])
@pytest.mark.parametrize("make", [_random_input, _tied_input, _three_class_input],
                         ids=["random", "ties", "three-class"])
def test_presorted_booster_equals_per_node_sort(make, max_depth):
    x, labels = make(np.random.default_rng(max_depth))
    cfg = tb.BoostConfig(max_depth=max_depth, n_estimators=25)
    rep = tb.boosted_importance(x, labels, cfg)
    gains, ranking, first = _reference_importance(x, labels, cfg)
    assert rep.gains.tobytes() == gains.tobytes()
    assert rep.ranking == ranking
    assert rep.first_split == first


def _wide_input(rng, nf, labels=("a",) * 58 + ("b",) * 12):
    """The shape of an evaluate fold's booster input: SMOTE balances the
    rows, so the interpolated ones sit between same-class neighbours."""
    y = np.array(labels)
    x = rng.normal(size=(len(y), nf)) + (y == "b")[:, None] * np.linspace(1.0, 0.0, nf)
    x[:, ::4] = np.round(x[:, ::4], 1)  # ties inside a column
    return tb.smote(x, y, seed=nf)


def _wide_duplicated_input(rng):
    x, y = _wide_input(rng, 19)
    n = len(y)
    # copies of columns 4..0 come first, in reversed order, between constant columns
    return np.column_stack([np.full(n, 1.5), x[:, 4::-1], x, np.zeros(n)]), y


@pytest.mark.parametrize("make", [
    lambda rng: _wide_input(rng, 19),
    lambda rng: _wide_input(rng, 78),
    lambda rng: _wide_input(rng, 97),
    _wide_duplicated_input,
    lambda rng: _wide_input(rng, 40, ("a",) * 40 + ("b",) * 24 + ("c",) * 12),
], ids=["n116-f19", "n116-f78", "n116-f97", "duplicated-reversed-constant", "three-class"])
def test_booster_on_wide_inputs_equals_per_node_sort(make):
    x, labels = make(np.random.default_rng(22))
    assert x.shape[0] in (116, 120)
    cfg = tb.BoostConfig()
    rep = tb.boosted_importance(x, labels, cfg)
    gains, ranking, first = _reference_importance(x, labels, cfg)
    assert rep.gains.tobytes() == gains.tobytes()
    assert rep.ranking == ranking
    assert rep.first_split == first


def test_boosted_importance_gains_are_pinned():
    # recorded before the presorted search replaced the per-node sort
    rng = np.random.default_rng(2024)
    x = rng.normal(size=(90, 10))
    x[:, 3] = np.round(x[:, 3], 1)
    x[:, 7] = x[:, 3]
    y = np.where(x[:, 0] + 0.5 * x[:, 3] + 0.3 * rng.normal(size=90) > 0, "pos", "neg")
    rep = tb.boosted_importance(x, y, tb.BoostConfig(n_estimators=40))
    digest = hashlib.sha256(rep.gains.tobytes()).hexdigest()
    assert digest == "7c2f49094490636e19db609e9e7a8f5433c41e69f63baa34ad34ccf01db16512"
    assert rep.ranking == [0, 3, 5, 8, 1, 6, 2, 9, 4, 7]


def test_select_features_examples():
    rep = tb.ImportanceReport(
        gains=np.array([0.5, 0.9, 0.1]), ranking=[1, 0, 2]
    )
    assert tb.select_features(rep, 2) == [1, 0]
    assert tb.select_features(rep, 3) == [1, 0, 2]
    flat = tb.ImportanceReport(gains=np.ones(4), ranking=[0, 1, 2, 3])
    assert tb.select_features(flat, 1) == [0]
    with pytest.raises(ContractError):
        tb.select_features(rep, 0)
    with pytest.raises(ContractError):
        tb.select_features(rep, 4)


# --- CSV + schema I/O ---


def test_csv_round_trip(tmp_path):
    ds = _toy()
    csv_path = tmp_path / "t.csv"
    schema_path = tmp_path / "t.schema.json"
    tb.write_table(csv_path, ds, schema_path, label_column="subtype", id_column="patient")
    back = tb.read_table(csv_path, schema_path)
    assert [c.name for c in back.columns] == [c.name for c in ds.columns]
    assert back.labels == ds.labels
    assert back.ids == ds.ids
    assert decode(back) == decode(ds)


def test_read_table_errors(tmp_path):
    schema = tmp_path / "s.json"
    data = tmp_path / "d.csv"
    schema.write_text(
        json.dumps(
            {
                "label_column": "y",
                "columns": [
                    {"name": "a", "kind": "numeric"},
                    {"name": "c", "kind": "categorical", "categories": ["u", "v"]},
                ],
            }
        )
    )
    data.write_text("a,c,y\n1.5,u,pos\n")
    ds = tb.read_table(data, schema)
    assert decode(ds) == [[1.5, "u"]]
    assert ds.labels == ["pos"]

    data.write_text("a,c\n1.5,u\n")
    with pytest.raises(FormatError, match="y"):
        tb.read_table(data, schema)
    data.write_text("a,c,y,zz\n1.5,u,pos,9\n")
    with pytest.raises(FormatError, match="zz"):
        tb.read_table(data, schema)
    data.write_text("a,c,y\nnope,u,pos\n")
    with pytest.raises(FormatError, match="not numeric"):
        tb.read_table(data, schema)
    data.write_text("a,c,y\n1.5,w,pos\n")
    with pytest.raises(FormatError):
        tb.read_table(data, schema)
    data.write_text("a,c,y\n1.5,u,\n")
    with pytest.raises(FormatError, match="label"):
        tb.read_table(data, schema)
    doc = json.loads(schema.read_text())
    schema.write_text(json.dumps(doc | {"id_column": "id"}))
    data.write_text("id,a,c,y\npt0000,1.5,u,pos\npt0001,2.5,v,neg\npt0000,99,u,neg\n")
    with pytest.raises(FormatError) as info:
        tb.read_table(data, schema)
    assert str(info.value) == f"{data}: row 3 repeats id 'pt0000' of row 1"
    schema.write_text("{broken")
    with pytest.raises(FormatError):
        tb.read_table(data, schema)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
def test_read_table_rejects_non_finite_numbers(tmp_path, cell):
    # NaN holds a missing cell, so a number that reads as one is refused
    schema, data = tmp_path / "s.json", tmp_path / "d.csv"
    schema.write_text(
        json.dumps({"label_column": "y", "columns": [{"name": "a", "kind": "numeric"}]})
    )
    data.write_text(f"a,y\n1.5,pos\n{cell},neg\n")
    with pytest.raises(FormatError, match="column 'a': non-finite value"):
        tb.read_table(data, schema)


def test_missing_marker_round_trip(tmp_path):
    schema = tmp_path / "s.json"
    data = tmp_path / "d.csv"
    schema.write_text(
        json.dumps(
            {
                "label_column": "y",
                "missing": "NA",
                "columns": [{"name": "a", "kind": "numeric"}],
            }
        )
    )
    data.write_text("a,y\nNA,pos\n2.0,neg\n")
    ds = tb.read_table(data, schema)
    assert decode(ds) == [[None], [2.0]]
