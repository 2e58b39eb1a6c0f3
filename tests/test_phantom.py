import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

from lungfuse import phantom as ph
from lungfuse import pipeline as pl
from lungfuse.errors import ConfigError, DataError, FormatError
from lungfuse.fusion import RigidTransform, resample_bilinear
from lungfuse.images import read_pgm
from lungfuse.tabular import read_table
from tabular_cells import decode


def _tree_hash(root) -> str:
    h = hashlib.sha256()
    for p in sorted(pathlib.Path(root).rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _truth(out_dir) -> dict:
    with open(os.path.join(out_dir, "truth.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_patients": 1},
        {"image_size": 62},
        {"image_size": 12},
        {"class_balance": 0.0},
        {"class_balance": 1.0},
        {"noise_sigma": -0.1},
        {"registration_jitter": -1.0},
        {"signal_strength": -0.5},
        {"missing_rate": 1.0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        ph.PhantomConfig(**kwargs)


def test_generate_layout_and_counts(tmp_path):
    summary = ph.generate(ph.PhantomConfig(n_patients=12, seed=3), tmp_path)
    assert summary["classes"] == {"adenocarcinoma": 6, "squamous": 6}
    with open(tmp_path / "manifest.json", encoding="utf-8") as fh:
        man = json.load(fh)
    assert man["kind"] == "phantom-manifest"
    assert man["image_size"] == 64
    assert len(man["rows"]) == 12
    for row in man["rows"]:
        assert set(row) == {"id", "ct", "pet", "tabular_row_id", "label"}
        assert (tmp_path / row["ct"]).exists()
        assert (tmp_path / row["pet"]).exists()
        assert row["label"] in ph.SUBTYPES
    for rec in _truth(tmp_path)["patients"]:
        assert (tmp_path / rec["pet_clean"]).exists()
        assert (tmp_path / rec["lung_mask"]).exists()
        assert set(rec["jitter"]) == {"tx", "ty", "theta_deg", "scale"}


def test_class_balance_quarter(tmp_path):
    summary = ph.generate(ph.PhantomConfig(n_patients=12, class_balance=0.25, seed=1), tmp_path)
    assert summary["classes"] == {"adenocarcinoma": 3, "squamous": 9}


def test_extreme_balance_keeps_both_classes(tmp_path):
    summary = ph.generate(ph.PhantomConfig(n_patients=12, class_balance=0.02, seed=1), tmp_path)
    assert summary["classes"]["adenocarcinoma"] == 1
    assert summary["classes"]["squamous"] == 11


def test_generate_is_byte_deterministic(tmp_path):
    cfg = ph.PhantomConfig(n_patients=8, image_size=48, seed=9)
    ph.generate(cfg, tmp_path / "a")
    ph.generate(cfg, tmp_path / "b")
    assert _tree_hash(tmp_path / "a") == _tree_hash(tmp_path / "b")


def test_different_seed_changes_bytes(tmp_path):
    ph.generate(ph.PhantomConfig(n_patients=8, seed=1), tmp_path / "a")
    ph.generate(ph.PhantomConfig(n_patients=8, seed=2), tmp_path / "b")
    assert _tree_hash(tmp_path / "a") != _tree_hash(tmp_path / "b")


def test_segmenter_recovers_truth_masks(tmp_path):
    """The 0.35 threshold inside the body sits on the geometric lung boundary."""
    ph.generate(ph.PhantomConfig(n_patients=8, seed=42), tmp_path)
    for rec in _truth(tmp_path)["patients"]:
        ct = read_pgm(tmp_path / f"images/{rec['id']}_ct.pgm")
        (cx, cy), (ax, ay) = rec["geometry"]["body_center"], rec["geometry"]["body_axes"]
        yy, xx = np.mgrid[0 : ct.shape[0], 0 : ct.shape[1]]
        body = np.hypot((xx - cx) / ax, (yy - cy) / ay) <= 1.0
        est = (ct < 0.35) & body
        tru = read_pgm(tmp_path / rec["lung_mask"]) > 0.5
        inter = np.logical_and(est, tru).sum()
        union = np.logical_or(est, tru).sum()
        assert inter / union >= 0.95


def test_masks_are_binary_and_plausible(tmp_path):
    ph.generate(ph.PhantomConfig(n_patients=4, seed=2), tmp_path)
    for rec in _truth(tmp_path)["patients"]:
        m = read_pgm(tmp_path / rec["lung_mask"])
        assert set(np.unique(m)) <= {0.0, 1.0}
        frac = m.mean()
        assert 0.05 < frac < 0.35  # two lungs, not the whole frame


def test_apply_point_matches_resampler_motion():
    # a smooth bump's centroid must move exactly where apply_point says
    rng = np.random.default_rng(7)
    size = 64
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    img = np.exp(-((xx - 20.0) ** 2 + (yy - 28.0) ** 2) / 8.0)
    for _ in range(4):
        t = RigidTransform(
            tx=rng.uniform(-4, 4),
            ty=rng.uniform(-4, 4),
            theta=np.deg2rad(rng.uniform(-3, 3)),
            scale=rng.uniform(0.96, 1.04),
        )
        out = resample_bilinear(img, t)
        cx = (out * xx).sum() / out.sum()
        cy = (out * yy).sum() / out.sum()
        ex, ey = ph.apply_point(t, size, [20.0, 28.0])
        assert np.hypot(cx - ex, cy - ey) < 0.05


def test_recorded_jitter_aligns_hotspot_with_tumor(tmp_path):
    """Inverse of the recorded jitter maps the PET hotspot onto the CT tumor."""
    ph.generate(ph.PhantomConfig(n_patients=10, seed=42), tmp_path)
    size = 64
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    for rec in _truth(tmp_path)["patients"]:
        geom = rec["geometry"]
        clean = read_pgm(tmp_path / rec["pet_clean"])
        base = ph.render_pet(geom, size, hotspot=False)
        diff = np.clip(clean - base, 0.0, None)
        hx = (diff * xx).sum() / diff.sum()
        hy = (diff * yy).sum() / diff.sum()
        j = rec["jitter"]
        inv = RigidTransform(j["tx"], j["ty"], np.deg2rad(j["theta_deg"]), j["scale"]).inverse()
        bx, by = ph.apply_point(inv, size, [hx, hy])
        ex, ey = geom["tumor_center"]
        assert np.hypot(bx - ex, by - ey) < 0.5


def test_render_matches_written_images_when_noiseless(tmp_path):
    ph.generate(ph.PhantomConfig(n_patients=4, noise_sigma=0.0, seed=5), tmp_path)
    rec = _truth(tmp_path)["patients"][0]
    ct = read_pgm(tmp_path / f"images/{rec['id']}_ct.pgm")
    again = ph.render_ct(rec["geometry"], 64)
    # only 16-bit quantization separates the file from the render
    assert np.max(np.abs(ct - again)) < 1.0 / 65535.0


def test_signal_strength_zero_removes_subtype_contrast(tmp_path):
    ph.generate(ph.PhantomConfig(n_patients=8, signal_strength=0.0, seed=4), tmp_path)
    for rec in _truth(tmp_path)["patients"]:
        assert rec["geometry"]["texture"]["wavelength"] == 7.0
        assert rec["geometry"]["pet"]["hotspot_amp"] == 0.45


def test_signal_strength_one_separates_subtypes(tmp_path):
    ph.generate(ph.PhantomConfig(n_patients=8, signal_strength=1.0, seed=4), tmp_path)
    for rec in _truth(tmp_path)["patients"]:
        wl = rec["geometry"]["texture"]["wavelength"]
        amp = rec["geometry"]["pet"]["hotspot_amp"]
        if rec["subtype"] == "squamous":
            assert wl == pytest.approx(3.0) and amp > 0.45
        else:
            assert wl == 7.0 and amp == 0.45


def test_nearest_centroid_on_genes_beats_chance(tmp_path):
    ph.generate(ph.PhantomConfig(n_patients=40, seed=5), tmp_path)
    table = read_table(tmp_path / "tabular.csv", tmp_path / "tabular.schema.json")
    idx = [i for i, c in enumerate(table.columns) if c.name.startswith("gene_")]
    x = np.array([[row[i] for i in idx] for row in decode(table)])
    y = np.array(table.labels)
    train, test = np.arange(0, 40, 2), np.arange(1, 40, 2)
    cents = {lab: x[train][y[train] == lab].mean(axis=0) for lab in np.unique(y)}
    pred = [min(cents, key=lambda lab: np.linalg.norm(r - cents[lab])) for r in x[test]]
    acc = np.mean([p == t for p, t in zip(pred, y[test])])
    assert acc > 0.6


def test_tabular_round_trips_with_ids(tmp_path):
    ph.generate(ph.PhantomConfig(n_patients=6, seed=8), tmp_path)
    table = read_table(tmp_path / "tabular.csv", tmp_path / "tabular.schema.json")
    assert list(table.ids) == [f"pt{i:04d}" for i in range(6)]
    assert len(table.columns) == 16
    names = [c.name for c in table.columns]
    assert names[:6] == ["age", "sex", "smoking", "pack_years", "ecog", "bmi"]
    assert all(n.startswith("gene_") for n in names[6:])
    assert set(table.labels) == set(ph.SUBTYPES)


def test_missing_rate_injects_missing_cells(tmp_path):
    ph.generate(ph.PhantomConfig(n_patients=20, missing_rate=0.3, seed=6), tmp_path)
    desc = pl.describe(tmp_path)
    assert desc["total_missing"] > 0
    table = read_table(tmp_path / "tabular.csv", tmp_path / "tabular.schema.json")
    assert any(v is None for row in decode(table) for v in row)


def test_tabular_csv_with_missing_cells_is_pinned(tmp_path):
    ph.generate(ph.PhantomConfig(n_patients=20, image_size=16, missing_rate=0.3, seed=6), tmp_path)
    assert hashlib.sha256((tmp_path / "tabular.csv").read_bytes()).hexdigest() == (
        "e3a6353c813253d1040e0cff3c373957c9352e93160ff39a1424f0be1da77efe"
    )


def test_describe_summary(tmp_path):
    ph.generate(ph.PhantomConfig(n_patients=10, seed=11), tmp_path)
    desc = pl.describe(tmp_path)
    assert desc["kind"] == "phantom-summary"
    assert desc["n_patients"] == 10
    assert desc["classes"] == {"adenocarcinoma": 5, "squamous": 5}
    assert desc["image_size"] == 64
    assert desc["total_missing"] == 0
    assert 0.1 < desc["ct_mean_intensity"] < 0.6
    assert 0.1 < desc["pet_mean_intensity"] < 0.6
    assert pl.describe(tmp_path) == desc


def test_describe_rejects_bad_directories(tmp_path):
    with pytest.raises(DataError):
        pl.describe(tmp_path / "nowhere")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text("{not json")
    with pytest.raises(FormatError):
        pl.describe(bad)
    wrong = tmp_path / "wrong"
    wrong.mkdir()
    (wrong / "manifest.json").write_text(json.dumps({"kind": "other"}))
    with pytest.raises(FormatError):
        pl.describe(wrong)
