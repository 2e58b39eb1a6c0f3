import base64
import csv
import hashlib
import io
import json
import os
import pathlib
import platform
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import lungfuse
from lungfuse import pipeline as pl
from lungfuse.cli import cli, main
from lungfuse.denoise import init_weights, save_weights
from lungfuse.errors import ConfigError, DataError
from lungfuse.fusion import RigidTransform, resample_bilinear
from lungfuse.images import read_pgm, write_pgm
from lungfuse.phantom import PhantomConfig, generate


def _run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def _tree_hash(root) -> str:
    h = hashlib.sha256()
    root = pathlib.Path(root)
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _differing_files(a, b) -> list:
    """Each relative path whose file differs between two trees or is in one only."""
    def files(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in pathlib.Path(root).rglob("*") if p.is_file()}

    fa, fb = files(a), files(b)
    return [f"{p}: " + ("differs" if p in fa and p in fb else f"only in {a if p in fa else b}")
            for p in sorted(fa.keys() | fb.keys()) if fa.get(p) != fb.get(p)]


# fast settings reused by the pipeline-level tests
_FAST = [
    "--set", "phantom.n_patients=24",
    "--set", "denoise.enabled=false",
    "--set", "fusion.register=false",
    "--set", "classify.model=logreg",
    "--set", "evaluate.k=2",
]


def test_version_reports_defaults_and_schema(capsys):
    rc, out, _ = _run(capsys, "version")
    assert rc == 0
    doc = json.loads(out)
    booster = doc["defaults"]["classify"]
    assert booster["boost_learning_rate"] == 0.1
    assert booster["boost_max_depth"] == 5
    assert booster["boost_n_estimators"] == 100
    assert doc["config_schema_version"] == doc["report_schema_version"]
    rc2, out2, _ = _run(capsys, "version")
    assert out2 == out  # stable across invocations


def test_unknown_config_key_rejected_by_name(capsys, tmp_path):
    rc, _, err = _run(
        capsys, "run", "--out", str(tmp_path / "w"), "--set", "denoise.learning_rat=0.01"
    )
    assert rc == 2
    assert "learning_rat" in err


def test_unknown_config_section_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"denois": {}}))
    rc, _, err = _run(capsys, "run", "--config", str(cfg), "--out", str(tmp_path / "w"))
    assert rc == 2
    assert "denois" in err


def test_config_file_not_json(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{nope")
    rc, _, err = _run(capsys, "run", "--config", str(cfg), "--out", str(tmp_path / "w"))
    assert rc == 2
    assert "not valid JSON" in err


def test_phantom_then_describe(capsys, tmp_path):
    ds = tmp_path / "ds"
    rc, out, _ = _run(
        capsys, "phantom", "--set", "phantom.n_patients=8", "--set", "phantom.seed=3",
        "--out", str(ds),
    )
    assert rc == 0
    assert json.loads(out)["classes"] == {"adenocarcinoma": 4, "squamous": 4}
    rc, out, _ = _run(capsys, "describe", "--dataset", str(ds))
    assert rc == 0
    doc = json.loads(out)
    assert doc["n_patients"] == 8
    assert doc["total_missing"] == 0


def test_fuse_writes_image_and_report(capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=2, seed=1), ds)
    fused = tmp_path / "fused.pgm"
    report = tmp_path / "quality.json"
    rc, _, _ = _run(
        capsys, "fuse",
        "--ct", str(ds / "images/pt0000_ct.pgm"),
        "--pet", str(ds / "images/pt0000_pet.pgm"),
        "--out", str(fused), "--set", "fusion.register=false",
        "--set", "fusion.ll_weight_ct=0.7", "--set", "fusion.detail_rule=average",
        "--report", str(report),
    )
    assert rc == 0
    img = read_pgm(fused)
    assert img.shape == (64, 64)
    doc = json.loads(report.read_text())
    assert set(doc) >= {"entropy_f", "mi_f_ct", "mi_f_pet", "psnr_vs_ct", "ssim_vs_ct"}


_FUSION = ["fusion.family=db2", "fusion.levels=2", "fusion.ll_weight_ct=0.7",
           "fusion.detail_rule=average"]


@pytest.mark.parametrize(
    "sets",
    [[], [*_FUSION, "fusion.register=true"], [*_FUSION, "fusion.register=false"]],
    ids=["default", "non-default-registered", "non-default-unregistered"],
)
def test_fuse_default_matches_pipeline_fused_image(capsys, tmp_path, sets):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=2, seed=1), ds)
    fused = tmp_path / "fused.pgm"
    rc, _, _ = _run(
        capsys, "fuse",
        "--ct", str(ds / "images/pt0000_ct.pgm"),
        "--pet", str(ds / "images/pt0000_pet.pgm"),
        "--out", str(fused), *(a for s in sets for a in ("--set", s)),
    )
    assert rc == 0
    pl.compute_fused_dir(ds, tmp_path, pl.load_config(None, sets))
    assert fused.read_bytes() == (tmp_path / "pt0000_fused.pgm").read_bytes()


def test_fuse_into_missing_directory_exits_3(capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=2, seed=1), ds)
    rc, _, err = _run(
        capsys, "fuse",
        "--ct", str(ds / "images/pt0000_ct.pgm"),
        "--pet", str(ds / "images/pt0000_pet.pgm"),
        "--out", str(tmp_path / "missing" / "f.pgm"), "--set", "fusion.register=false",
    )
    assert rc == 3
    assert err.startswith("error:") and err.count("\n") == 1


def test_fuse_rejects_bad_ll_weight(capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=2, seed=1), ds)
    for weight in ("heavy", "1.5"):
        rc, _, err = _run(
            capsys, "fuse",
            "--ct", str(ds / "images/pt0000_ct.pgm"),
            "--pet", str(ds / "images/pt0000_pet.pgm"),
            "--out", str(tmp_path / "f.pgm"),
            "--set", f"fusion.ll_weight_ct={weight}",
        )
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "fusion.ll_weight_ct" in err
        assert not (tmp_path / "f.pgm").exists()


def test_register_recovers_known_shift(capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=2, noise_sigma=0.0, seed=5), ds)
    ct = read_pgm(ds / "images/pt0000_ct.pgm")
    moved = resample_bilinear(ct, RigidTransform(3.0, -2.0, 0.0, 1.0))
    write_pgm(moved, tmp_path / "moved.pgm")
    out = tmp_path / "t.json"
    rc, _, _ = _run(
        capsys, "register",
        "--fixed", str(ds / "images/pt0000_ct.pgm"),
        "--moving", str(tmp_path / "moved.pgm"),
        "--out", str(out), "--features", "raw",
        "--resampled", str(tmp_path / "aligned.pgm"),
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    # aligning the shifted copy back means undoing (+3, -2)
    assert abs(doc["tx"] + 3.0) <= 0.5
    assert abs(doc["ty"] - 2.0) <= 0.5
    assert abs(doc["theta_deg"]) <= 0.5
    assert abs(doc["scale"] - 1.0) <= 0.02
    assert doc["ncc"] > 0.98
    assert read_pgm(tmp_path / "aligned.pgm").shape == ct.shape


def test_denoise_train_apply_round_trip(capsys, tmp_path):
    w = tmp_path / "w.json"
    rc, out, _ = _run(
        capsys, "denoise-train", "--out", str(w),
        "--set", "denoise.train_images=8", "--set", "denoise.train_size=32",
        "--set", "denoise.epochs=2", "--set", "denoise.batch_size=4",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["epochs"] == 2 and w.exists()
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=2, seed=1), ds)
    dn = tmp_path / "dn.pgm"
    rc, _, _ = _run(
        capsys, "denoise-apply", "--weights", str(w),
        "--in", str(ds / "images/pt0000_pet.pgm"), "--out", str(dn),
    )
    assert rc == 0
    assert read_pgm(dn).shape == (64, 64)


@pytest.mark.parametrize("sizes,needle", [
    ([32, 32, 32, 16, 32, 32, 32, 32], "{d}/img3.pgm is (16, 16), {d}/img0.pgm is (32, 32)"),
    ([30] * 8, "{d}/img0.pgm: image dims must be divisible by 4, got 30x30"),
])
def test_denoise_train_on_images_it_cannot_use_exits_3_naming_the_file(capsys, tmp_path, sizes,
                                                                        needle):
    images = tmp_path / "imgs"
    images.mkdir()
    for i, n in enumerate(sizes):
        write_pgm(np.full((n, n), 0.5), images / f"img{i}.pgm")
    w = tmp_path / "w.json"
    rc, _, err = _run(capsys, "denoise-train", "--out", str(w), "--images", str(images),
                      "--set", "denoise.epochs=1")
    assert rc == 3
    assert err.count("\n") == 1 and needle.format(d=images) in err
    assert not w.exists()


@pytest.mark.parametrize("folder", ["missing", "file"])
def test_denoise_train_into_a_folder_that_is_not_one_exits_3_before_training(capsys, tmp_path,
                                                                             monkeypatch, folder):
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(pl, "train_denoiser", lambda *a, **k: pytest.fail("trained"))
    w = tmp_path / folder / "w.json"
    rc, out, err = _run(capsys, "denoise-train", "--out", str(w), "--set", "denoise.epochs=1")
    assert rc == 3 and out == ""
    assert err == f"error: cannot write --out {w}: {tmp_path / folder} is not a directory\n"


@pytest.mark.parametrize("command,outputs,bad", [
    ("fuse", {"--out": "missing/f.pgm"}, "--out"),
    ("fuse", {"--out": "f.pgm", "--report": "missing/r.json"}, "--report"),
    ("register", {"--out": "missing/t.json"}, "--out"),
    ("register", {"--out": "t.json", "--resampled": "missing/r.pgm"}, "--resampled"),
    ("preprocess", {"--out-matrix": "x.csv", "--out-stats": "missing/s.json"}, "--out-stats"),
    ("denoise-apply", {"--out": "missing/d.pgm"}, "--out"),
], ids=["fuse-out", "fuse-report", "register-out", "register-resampled", "preprocess-stats",
        "denoise-apply-out"])
def test_an_output_in_a_missing_folder_exits_3_before_any_work(capsys, tmp_path, monkeypatch,
                                                               command, outputs, bad):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=6, image_size=32, seed=2), ds)
    save_weights(tmp_path / "w.json", init_weights(seed=0))
    before = _tree_hash(tmp_path)
    monkeypatch.setattr(pl, "align", lambda *a, **k: pytest.fail("registered"))
    a, b = ds / "images/pt0000_ct.pgm", ds / "images/pt0000_pet.pgm"
    inputs = {"fuse": ["--ct", a, "--pet", b],
              "register": ["--fixed", a, "--moving", b],
              "preprocess": ["--csv", ds / "tabular.csv", "--schema", ds / "tabular.schema.json"],
              "denoise-apply": ["--weights", tmp_path / "w.json", "--in", b]}
    paths = {option: tmp_path / name for option, name in outputs.items()}
    rc, out, err = _run(capsys, command, *map(str, inputs[command]),
                        *(str(x) for option, path in paths.items() for x in (option, path)))
    assert rc == 3 and out == ""
    assert err == (f"error: cannot write {bad} {paths[bad]}: {tmp_path / 'missing'} "
                   "is not a directory\n")
    assert _tree_hash(tmp_path) == before  # nothing written


def _stage_dir(out_dir, stage):
    (d,) = (out_dir / "cache").glob(f"{stage}-*")
    return d


def test_phantom_writes_the_run_phantom_stage_tree(capsys, tmp_path):
    # 24 patients, as in _FAST: fewer cannot feed the run's evaluate stage
    phantom = ["--set", "phantom.n_patients=24", "--set", "phantom.seed=3",
               "--set", "phantom.image_size=32",
               "--set", "phantom.missing_rate=0.1", "--set", "phantom.noise_sigma=0.05"]
    rc, _, _ = _run(capsys, "phantom", *phantom, "--out", str(tmp_path / "ds"))
    assert rc == 0
    rc, _, _ = _run(capsys, "run", "--out", str(tmp_path / "w"), *_FAST, *phantom)
    assert rc == 0
    stage = _stage_dir(tmp_path / "w", "phantom")
    (stage / ".complete").unlink()
    assert _tree_hash(tmp_path / "ds") == _tree_hash(stage)


def test_denoise_train_writes_the_run_stage_weights(capsys, tmp_path):
    denoise = ["--set", "denoise.epochs=2", "--set", "denoise.train_images=8",
               "--set", "denoise.train_size=16", "--set", "denoise.batch_size=4",
               "--set", "denoise.noise_kind=poisson", "--set", "denoise.train_seed=3"]
    w = tmp_path / "w.json"
    rc, _, _ = _run(capsys, "denoise-train", "--out", str(w), *denoise)
    assert rc == 0
    rc, _, _ = _run(capsys, "run", "--out", str(tmp_path / "w"), *_FAST,
                    "--set", "denoise.enabled=true", *denoise)
    assert rc == 0
    stage = _stage_dir(tmp_path / "w", "denoise-train")
    assert w.read_bytes() == (stage / "weights.json").read_bytes()


def test_preprocess_writes_matrix_and_stats(capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=6, seed=2), ds)
    mat, stats = tmp_path / "X.csv", tmp_path / "S.json"
    rc, out, _ = _run(
        capsys, "preprocess", "--csv", str(ds / "tabular.csv"),
        "--schema", str(ds / "tabular.schema.json"),
        "--out-matrix", str(mat), "--out-stats", str(stats),
    )
    assert rc == 0
    lines = mat.read_text().strip().splitlines()
    header = lines[0].split(",")
    # 4 numeric clinical + 2 + 3 one-hot + 10 genes
    assert len(header) == 19 and len(lines) == 7
    assert "smoking=never" in header
    doc = json.loads(stats.read_text())
    assert doc["feature_names"] == header
    assert "age" in doc["numeric_stats"]


def _one_error_line_naming(err, *paths):
    assert err.startswith("error:") and err.count("\n") == 1
    assert all(str(p) in err for p in paths), err


@pytest.mark.parametrize("command", ["fuse", "register"])
def test_a_pair_of_two_sizes_exits_3_naming_both_files(capsys, tmp_path, command):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(np.random.default_rng(0).uniform(size=(32, 32)), a)
    write_pgm(np.random.default_rng(1).uniform(size=(16, 16)), b)
    argv = {"fuse": ["--ct", a, "--pet", b, "--report", tmp_path / "q.json"],
            "register": ["--fixed", a, "--moving", b, "--resampled", tmp_path / "r.pgm"]}
    rc, _, err = _run(capsys, command, *map(str, argv[command]), "--out", str(tmp_path / "o"))
    assert rc == 3
    _one_error_line_naming(err, a, b)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "b.pgm"]


def test_fuse_report_on_images_below_the_ssim_window_exits_3_writing_nothing(capsys, tmp_path):
    ct, pet = tmp_path / "ct.pgm", tmp_path / "pet.pgm"
    write_pgm(np.random.default_rng(0).uniform(size=(6, 6)), ct)
    write_pgm(np.random.default_rng(1).uniform(size=(6, 6)), pet)
    rc, _, err = _run(capsys, "fuse", "--ct", str(ct), "--pet", str(pet),
                      "--out", str(tmp_path / "f.pgm"), "--report", str(tmp_path / "q.json"),
                      "--set", "fusion.register=false")
    assert rc == 3
    _one_error_line_naming(err, ct, pet)
    assert "SSIM window" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ct.pgm", "pet.pgm"]


@pytest.mark.parametrize("rows", [0, 1])
def test_preprocess_on_fewer_than_2_rows_exits_3_naming_the_csv(capsys, tmp_path, rows):
    schema, csv_path = tmp_path / "s.json", tmp_path / "t.csv"
    schema.write_text(json.dumps({"label_column": "y",
                                  "columns": [{"name": "a", "kind": "numeric"}]}))
    csv_path.write_text("a,y\n" + "1.5,p\n" * rows)
    rc, _, err = _run(capsys, "preprocess", "--csv", str(csv_path), "--schema", str(schema),
                      "--out-matrix", str(tmp_path / "X.csv"), "--out-stats", str(tmp_path / "S.json"))
    assert rc == 3
    _one_error_line_naming(err, csv_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json", "t.csv"]


def test_exit_code_for_data_errors(capsys, tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"garbage")
    rc, _, err = _run(
        capsys, "denoise-apply", "--weights", str(bad), "--in", str(bad), "--out", str(bad)
    )
    assert rc == 3
    assert "error:" in err


def test_exit_code_for_numerical_failure(capsys, tmp_path):
    flat = np.full((32, 32), 0.5)
    write_pgm(flat, tmp_path / "a.pgm")
    write_pgm(flat, tmp_path / "b.pgm")
    rc, _, err = _run(
        capsys, "register", "--fixed", str(tmp_path / "a.pgm"),
        "--moving", str(tmp_path / "b.pgm"), "--out", str(tmp_path / "t.json"),
    )
    assert rc == 4
    assert "error:" in err


def test_run_reruns_as_cache_hits(capsys, tmp_path):
    out_dir = tmp_path / "w"
    rc, out, _ = _run(capsys, "run", "--out", str(out_dir), *_FAST)
    assert rc == 0
    first = json.loads(out)
    assert first["cache_hits"] == 0
    report_hash = _tree_hash(out_dir / "report")
    rc, out, _ = _run(capsys, "run", "--out", str(out_dir), *_FAST)
    assert rc == 0
    again = json.loads(out)
    assert again["cache_hits"] == len(again["stages"]) == 3  # phantom, fuse, evaluate
    assert _tree_hash(out_dir / "report") == report_hash


@pytest.mark.parametrize("command,change", [("run", "denoise.learning_rate=0.01"),
                                            ("compare", "phantom.seed=7")])
def test_metrics_json_carries_the_runs_own_config_on_a_cache_hit(capsys, tmp_path, command,
                                                                   change):
    # neither change reaches a stage key here: the rerun is all cache hits
    if command == "run":
        argv = ["run", "--out", str(tmp_path / "w")]
    else:
        generate(PhantomConfig(n_patients=24, seed=42), tmp_path / "ds")
        argv = ["compare", "--dataset", str(tmp_path / "ds"), "--out-dir", str(tmp_path / "w")]
    assert _run(capsys, *argv, *_FAST)[0] == 0
    rc, out, err = _run(capsys, *argv, *_FAST, "--set", change)
    assert rc == 0
    assert "built" not in err
    report = tmp_path / "w" / "report"
    resolved = json.loads((report / "resolved_config.json").read_text())
    path, value = change.split("=")
    section, key = path.split(".")
    assert resolved[section][key] == json.loads(value)
    assert json.loads((report / "metrics.json").read_text())["resolved_config"] == resolved


@pytest.mark.parametrize("model,change,status", [
    ("mlp", "classify.logreg_lr=0.9", "cache hit"),
    ("logreg", "classify.dropout=0.1", "cache hit"),
    ("mlp", "classify.epochs=10", "built"),
    ("logreg", "classify.logreg_lr=0.9", "built"),
])
def test_the_evaluate_key_holds_only_the_classify_settings_its_head_reads(capsys, tmp_path,
                                                                          model, change, status):
    argv = ["run", "--out", str(tmp_path / "w"), *_FAST, "--set", f"classify.model={model}",
            "--set", "classify.epochs=20"]
    assert _run(capsys, *argv)[0] == 0
    rc, _, err = _run(capsys, *argv, "--set", change)
    assert rc == 0
    assert re.findall(r"^\[evaluate\] (cache hit|built) key=", err, re.M) == [status]
    path, value = change.split("=")
    section, key = path.split(".")
    metrics = json.loads((tmp_path / "w" / "report" / "metrics.json").read_text())
    assert metrics["resolved_config"][section][key] == json.loads(value)


def test_run_bundles_are_byte_identical_across_directories(capsys, tmp_path):
    rc, _, _ = _run(capsys, "run", "--out", str(tmp_path / "a"), *_FAST)
    assert rc == 0
    rc, _, _ = _run(capsys, "run", "--out", str(tmp_path / "b"), *_FAST)
    assert rc == 0
    assert _tree_hash(tmp_path / "a" / "report") == _tree_hash(tmp_path / "b" / "report")


def test_run_report_bundle_contents(capsys, tmp_path):
    out_dir = tmp_path / "w"
    rc, _, _ = _run(capsys, "run", "--out", str(out_dir), *_FAST)
    assert rc == 0
    report = out_dir / "report"
    metrics = json.loads((report / "metrics.json").read_text())
    assert metrics["kind"] == "pipeline-report"
    assert set(metrics["results"]) == {"tabular-only", "ct-only", "fused", "multimodal"}
    # the full resolved config rides inside the report
    resolved = json.loads((report / "resolved_config.json").read_text())
    assert resolved == metrics["resolved_config"]
    assert resolved["classify"]["dropout"] == 0.5
    assert resolved["denoise"]["batch_size"] == 96
    assert sorted(resolved) == ["classify", "denoise", "evaluate", "fusion", "phantom", "tabular"]
    text = (report / "comparison.txt").read_text()
    assert "multimodal" in text and "+/-" in text
    fused = sorted((report / "fused").glob("*_fused.pgm"))
    assert len(fused) == 24
    log = json.loads((report / "pipeline_log.json").read_text())
    assert [s["stage"] for s in log["stages"]] == ["phantom", "fuse", "evaluate"]
    assert all(set(s) == {"stage", "key", "output_hash"} for s in log["stages"])
    assert "cache_hit" not in json.dumps(log)  # nothing run-specific in the bundle


def test_run_stage_error_names_stage_and_hints(capsys, tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise DataError("no comparison")

    monkeypatch.setattr(pl, "compare_modalities", fail)
    rc, _, err = _run(capsys, "run", "--out", str(tmp_path / "w"), *_FAST)
    assert rc == 3
    assert "stage evaluate" in err
    assert "hint" in err


@pytest.mark.parametrize("sets,reason", [
    (["phantom.n_patients=12", "denoise.enabled=false"], "a training fold to 8 rows"),
    (["phantom.class_balance=0.05", "denoise.enabled=false", "fusion.register=false"],
     "class 'adenocarcinoma' has 3 rows; stratified 5-fold needs >= 5"),
    (["phantom.n_patients=10", "phantom.class_balance=0.3", "evaluate.k=2",
      "denoise.enabled=false", "fusion.register=false"],
     "class 'adenocarcinoma' has 1 training rows; SMOTE needs at least 2"),
    (["phantom.n_patients=24", "evaluate.k=13"], "stratified 13-fold needs >= 13"),
])
def test_run_refuses_folds_the_evaluate_stage_cannot_train_before_any_stage(capsys, tmp_path,
                                                                            sets, reason):
    argv = ["run", "--out", str(tmp_path / "w")]
    for s in sets:
        argv += ["--set", s]
    rc, _, err = _run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error: phantom.n_patients=") and err.count("\n") == 1
    assert "phantom.class_balance=" in err and "evaluate.k=" in err and reason in err
    assert not (tmp_path / "w").exists()  # no [phantom] or [fuse] stage ran


def test_run_on_folds_smote_just_balances_to_the_booster_minimum(capsys, tmp_path):
    # 5 + 11 patients, 2 folds: 2 + 5 training rows, balanced to 5 + 5 = 10
    rc, _, err = _run(capsys, "run", "--out", str(tmp_path / "w"),
                      "--set", "phantom.n_patients=16", "--set", "phantom.class_balance=0.3",
                      "--set", "evaluate.k=2", "--set", "denoise.enabled=false",
                      "--set", "fusion.register=false")
    assert rc == 0, err


@pytest.mark.parametrize("argv", [
    ["compare", "--out-dir", "{tmp}/cmp"],
    ["evaluate", "--out", "{tmp}/ev/m.json", "--inputs", "fused,tabular"],
    ["evaluate", "--out", "{tmp}/ev/m.json", "--inputs", "ct"],
    ["evaluate", "--out", "{tmp}/ev/m.json", "--inputs", "tabular"],
])
def test_a_dataset_too_small_for_the_folds_exits_3_before_any_stage(capsys, tmp_path, argv):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=12, image_size=32, seed=1), ds)
    argv = [a.format(tmp=tmp_path) for a in argv]
    rc, _, err = _run(capsys, *argv, "--dataset", str(ds), "--set", "fusion.register=false")
    assert rc == 3
    assert err == (f"error: evaluate.k=5 on dataset {ds} leaves folds the evaluate stage cannot "
                   "train on: SMOTE balances a training fold to 8 rows; the booster needs at "
                   "least 10\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


def test_a_one_label_dataset_exits_3_before_any_stage(capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=24, image_size=32, seed=1), ds)
    doc = json.loads((ds / "manifest.json").read_text())
    for row in doc["rows"]:
        row["label"] = "squamous"
    (ds / "manifest.json").write_text(json.dumps(doc))
    rc, _, err = _run(capsys, "compare", "--dataset", str(ds), "--out-dir", str(tmp_path / "cmp"),
                      "--set", "fusion.register=false", "--set", "denoise.enabled=false",
                      "--set", "evaluate.k=2")
    assert rc == 3
    assert err == (f"error: evaluate.k=2 on dataset {ds} leaves folds the evaluate stage cannot "
                   "train on: every label is 'squamous'; the classifiers need 2 classes\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


def test_a_dataset_image_off_the_manifest_size_exits_3_naming_it(capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=24, image_size=16, seed=4), ds)
    ct = ds / "images" / "pt0000_ct.pgm"
    write_pgm(read_pgm(ct)[:, :11], ct)
    rc, _, err = _run(capsys, "evaluate", "--dataset", str(ds), "--out", str(tmp_path / "m.json"),
                      "--inputs", "ct,tabular", "--set", "evaluate.k=2",
                      "--set", "classify.model=logreg")
    assert rc == 3
    assert err == f"error: {ct} has shape (16, 11), not the manifest's image_size (16, 16)\n"


def test_describe_refuses_a_dataset_image_off_the_manifest_size_as_evaluate_does(
        capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=24, image_size=16, seed=4), ds)
    ct = ds / "images" / "pt0000_ct.pgm"
    write_pgm(read_pgm(ct)[:, :11], ct)
    rc, out, err = _run(capsys, "describe", "--dataset", str(ds))
    assert (rc, out) == (3, "")
    assert err == f"error: {ct} has shape (16, 11), not the manifest's image_size (16, 16)\n"


def test_stage_error_outside_taxonomy_keeps_its_type(tmp_path):
    def build(_outdir):
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    with pytest.raises(UnicodeDecodeError):
        pl._Stages(tmp_path).run("boom", {}, "no hint", build)


def test_compare_on_non_utf8_manifest_exits_3(capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=2, seed=1), ds)
    (ds / "manifest.json").write_bytes(b'{"kind": "\xff\xfe"}')
    rc, _, err = _run(
        capsys, "compare", "--dataset", str(ds), "--out-dir", str(tmp_path / "cmp"),
        "--set", "fusion.register=false",
    )
    assert rc == 3
    assert err.startswith("error:") and err.count("\n") == 1


_MANIFEST_FAULTS = {
    "not-json": None,  # the file cut to its first 40 bytes
    "object-label": lambda d, ds: d["rows"][0].__setitem__("label", {"x": 1}),
    "string-rows": lambda d, ds: d.__setitem__("rows", "pt0000"),
    "row-without-ct": lambda d, ds: d["rows"][0].pop("ct"),
    "absolute-pet": lambda d, ds: d["rows"][0].__setitem__(
        "pet", str(ds.parent / "outside" / "pet.pgm")),
    "dotdot-pet": lambda d, ds: d["rows"][0].__setitem__("pet", "../outside/pet.pgm"),
    "repeated-id": lambda d, ds: d["rows"][1].__setitem__("id", "pt0000"),
    "repeated-tabular-row-id": lambda d, ds: d["rows"][1].__setitem__("tabular_row_id", "pt0000"),
    "number-tabular": lambda d, ds: d.__setitem__("tabular", 5),
    "unknown-tabular-row-id": lambda d, ds: d["rows"][0].__setitem__("tabular_row_id", "nobody"),
    "zero-image-size": lambda d, ds: d.__setitem__("image_size", 0),
    "dotdot-id": lambda d, ds: d["rows"][0].__setitem__("id", "../x"),
    "slash-id": lambda d, ds: d["rows"][0].__setitem__("id", "a/b"),
    "empty-id": lambda d, ds: d["rows"][0].__setitem__("id", ""),
    "nul-id": lambda d, ds: d["rows"][0].__setitem__("id", "pt\0"),
    "nul-pet": lambda d, ds: d["rows"][0].__setitem__("pet", "images/pt0000_pet.pgm\0"),
}
# the message a fault's one line must carry, where it is pinned
_MANIFEST_FAULT_TEXT = {
    "not-json": "manifest is not valid JSON: ",
    "repeated-id": "manifest rows[1] repeats id 'pt0000' of rows[0]",
    "repeated-tabular-row-id": "manifest rows[1] repeats tabular_row_id 'pt0000' of rows[0]",
    "zero-image-size": "manifest image_size must be an integer >= 1, got 0",
}


@pytest.mark.parametrize(
    "fault,command",
    [(None, "describe"), (None, "evaluate")]
    + [(f, c) for f in _MANIFEST_FAULTS for c in ("describe", "evaluate")],
)
def test_malformed_manifest_exits_3_with_one_line(capsys, tmp_path, fault, command):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=24, image_size=32, seed=1), ds)
    (tmp_path / "outside").mkdir()
    (tmp_path / "outside" / "pet.pgm").write_bytes((ds / "images/pt0000_pet.pgm").read_bytes())
    if fault == "not-json":
        (ds / "manifest.json").write_bytes((ds / "manifest.json").read_bytes()[:40])
    elif fault is not None:
        doc = json.loads((ds / "manifest.json").read_text())
        _MANIFEST_FAULTS[fault](doc, ds)
        (ds / "manifest.json").write_text(json.dumps(doc))
    argv = ["describe", "--dataset", str(ds)]
    if command == "evaluate":
        argv = ["evaluate", "--dataset", str(ds), "--out", str(tmp_path / "ev" / "m.json"),
                "--inputs", "tabular", "--set", "classify.model=logreg", "--set", "evaluate.k=2"]
    rc, _, err = _run(capsys, *argv)
    if fault is None:
        assert rc == 0
    else:
        # each fault names its file: the table for a row id it lacks, else the manifest
        named = ds / ("tabular.csv" if fault == "unknown-tabular-row-id" else "manifest.json")
        assert rc == 3
        assert err.startswith(f"error: {named}: ") and err.count("\n") == 1
        assert _MANIFEST_FAULT_TEXT.get(fault, "") in err


def _csv_rows(edit):
    """A table mutation: edit applied to the CSV's rows, the header first."""
    def mutate(ds):
        path = ds / "tabular.csv"
        rows = list(csv.reader(io.StringIO(path.read_text())))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(edit(rows))
    return mutate


def _cut_id_column_and_last_row(ds):
    schema = json.loads((ds / "tabular.schema.json").read_text())
    del schema["id_column"]
    (ds / "tabular.schema.json").write_text(json.dumps(schema))
    _csv_rows(lambda rows: [row[1:] for row in rows[:-1]])(ds)


def _relabel_first_row(rows):
    rows[1][-1] = "squamous" if rows[1][-1] == "adenocarcinoma" else "adenocarcinoma"
    return rows


# each mutation of a 24-patient dataset's table, and the text its one line carries
_TABLE_FAULTS = {
    "header-only": (_csv_rows(lambda rows: rows[:1]),
                    "tabular_row_id 'pt0000' is not in the table"),
    "no-id-column-and-short": (_cut_id_column_and_last_row,
                               "has 23 rows and no id column for the manifest's 24 rows"),
    "label-off-the-manifest": (_csv_rows(_relabel_first_row), "row 1 is labelled"),
    "empty-column": (_csv_rows(lambda rows: rows[:1] + [[r[0], ""] + r[2:] for r in rows[1:]]),
                     "column 'age' has no value in the manifest's rows"),
}


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    ds = tmp_path_factory.mktemp("small") / "ds"
    generate(PhantomConfig(n_patients=24, image_size=32, seed=1), ds)
    return ds


@pytest.mark.parametrize("fault", _TABLE_FAULTS)
@pytest.mark.parametrize("command", ["describe", "evaluate-tabular", "evaluate-ct", "compare"])
def test_a_table_fault_exits_3_naming_the_table_before_any_directory(
        capsys, tmp_path, small_dataset, fault, command):
    ds = tmp_path / "ds"
    shutil.copytree(small_dataset, ds)
    mutate, text = _TABLE_FAULTS[fault]
    mutate(ds)
    evaluate = ["evaluate", "--dataset", str(ds), "--out", str(tmp_path / "ev" / "m.json")]
    argv = {
        "describe": ["describe", "--dataset", str(ds)],
        "evaluate-tabular": evaluate + ["--inputs", "tabular"] + _FAST[2:],
        "evaluate-ct": evaluate + ["--inputs", "ct"] + _FAST[2:],
        "compare": ["compare", "--dataset", str(ds), "--out-dir", str(tmp_path / "cmp")]
                   + _FAST[2:],
    }[command]
    rc, out, err = _run(capsys, *argv)
    assert (rc, out) == (3, "")
    assert err.startswith(f"error: {ds / 'tabular.csv'}") and err.count("\n") == 1
    assert text in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


_SCHEMA_FAULTS = {
    "not-json": (None, "schema is not valid JSON: "),  # the file cut to its first 40 bytes
    "list-column-name": (lambda d: d["columns"][0].__setitem__("name", ["age"]), "['age']"),
    "list-label-column": (lambda d: d.__setitem__("label_column", ["subtype"]), "label_column"),
    "list-id-column": (lambda d: d.__setitem__("id_column", ["id"]), "id_column"),
    "label-as-feature": (lambda d: d["columns"].append(
        {"name": "subtype", "kind": "categorical", "categories": ["adenocarcinoma", "squamous"]}),
        "tabular.schema.json: column 'subtype' is the label_column"),
    "id-as-feature": (lambda d: d["columns"].append(
        {"name": "patient", "kind": "categorical", "categories": [f"pt{i:04d}" for i in range(6)]}),
        "tabular.schema.json: column 'patient' is the id_column"),
    "repeated-column": (lambda d: d["columns"].append(dict(d["columns"][0])),
                        "tabular.schema.json: column 'age' is repeated"),
}


@pytest.mark.parametrize("fault", _SCHEMA_FAULTS)
def test_schema_name_not_a_string_exits_3_naming_it(capsys, tmp_path, fault):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=6, image_size=32, seed=1), ds)
    schema = ds / "tabular.schema.json"
    mutate, named = _SCHEMA_FAULTS[fault]
    if mutate is None:
        schema.write_bytes(schema.read_bytes()[:40])
    else:
        doc = json.loads(schema.read_text())
        mutate(doc)
        schema.write_text(json.dumps(doc))
    rc, _, err = _run(capsys, "describe", "--dataset", str(ds))
    assert rc == 3
    assert err.startswith(f"error: {schema}: ") and err.count("\n") == 1
    assert named in err


def _cut_last_10_bytes(path):
    path.write_bytes(path.read_bytes()[:-10])


def _append_junk(path):
    path.write_bytes(path.read_bytes() + b"junk\n")


def _cut_to_24_columns(path):
    write_pgm(read_pgm(path)[:, :24], path)


def _spoil_the_magic(path):
    path.write_bytes(b"P6" + path.read_bytes()[2:])


def _keep_age_in_the_first_row(path):
    _csv_rows(lambda rows: rows[:2] + [[r[0], ""] + r[2:] for r in rows[2:]])(path.parent)


# the commands that read a dataset's CTs, its PETs and its table's columns
_READ_BY = {"ct": ("describe", "evaluate:ct", "evaluate:fused,tabular", "compare"),
            "pet": ("describe", "evaluate:fused,tabular", "compare"),
            "table": ("evaluate:tabular", "evaluate:ct,tabular", "compare")}
# each mutation of the 24-patient, 32 px dataset: the file it breaks, what of the
# dataset that is, and the text of the one line that refuses it
_DATASET_FAULTS = {
    "truncated-ct": ("images/pt0000_ct.pgm", _cut_last_10_bytes, "ct",
                     "truncated payload: need 2048 bytes, have 2038"),
    "ct-trailing-bytes": ("images/pt0000_ct.pgm", _append_junk, "ct",
                          "trailing bytes after the last pixel: need 2048 bytes, have 2053"),
    "ct-off-the-manifest-size": ("images/pt0000_ct.pgm", _cut_to_24_columns, "ct",
                                 "has shape (32, 24), not the manifest's image_size (32, 32)"),
    "pet-bad-magic": ("images/pt0000_pet.pgm", _spoil_the_magic, "pet",
                      "not a binary PGM (magic b'P6')"),
    # at evaluate.k=2 one fold's training rows hold no age
    "age-in-one-row": ("tabular.csv", _keep_age_in_the_first_row, "table",
                       "column 'age' has no value in fold "),
}


# the refusal of an image off the manifest's size by describe and by evaluate without
# fused is pinned above
@pytest.mark.parametrize("fault,command", [
    (f, c) for f in _DATASET_FAULTS for c in _READ_BY[_DATASET_FAULTS[f][2]]
    if (f, c) not in {("ct-off-the-manifest-size", "describe"),
                      ("ct-off-the-manifest-size", "evaluate:ct")}
] + [("pet-bad-magic", "evaluate:ct"), ("age-in-one-row", "evaluate:ct"),
     ("age-in-one-row", "describe")])
def test_a_dataset_fault_exits_3_naming_its_file_before_any_directory(
        capsys, tmp_path, small_dataset, fault, command):
    ds = tmp_path / "ds"
    shutil.copytree(small_dataset, ds)
    name, mutate, kind, text = _DATASET_FAULTS[fault]
    mutate(ds / name)
    if command == "describe":
        argv = ["describe", "--dataset", str(ds)]
    elif command == "compare":
        argv = ["compare", "--dataset", str(ds), "--out-dir", str(tmp_path / "cmp"), *_FAST[2:]]
    else:
        argv = ["evaluate", "--dataset", str(ds), "--out", str(tmp_path / "ev" / "m.json"),
                "--inputs", command.partition(":")[2], *_FAST[2:]]
    rc, out, err = _run(capsys, *argv)
    if command not in _READ_BY[kind]:  # a command that does not read the fault runs
        assert rc == 0, err
        return
    assert (rc, out) == (3, "")
    assert err.startswith(f"error: {ds / name}") and err.count("\n") == 1
    assert text in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


@pytest.mark.parametrize("mutate,text", [
    (_cut_last_10_bytes, "truncated payload: need 2048 bytes, have 2038"),
    (_append_junk, "trailing bytes after the last pixel: need 2048 bytes, have 2053"),
], ids=["truncated", "trailing-bytes"])
@pytest.mark.parametrize("command", ["fuse", "register", "denoise-apply", "denoise-train"])
def test_a_command_given_a_broken_pgm_exits_3_naming_it(capsys, tmp_path, small_dataset,
                                                        command, mutate, text):
    images = tmp_path / "images"
    shutil.copytree(small_dataset / "images", images)
    bad, good = images / "pt0000_ct.pgm", images / "pt0000_pet.pgm"  # bad is read first
    mutate(bad)
    save_weights(tmp_path / "w.json", init_weights(seed=0))
    argv = {
        "fuse": ["--ct", bad, "--pet", good, "--out", tmp_path / "f.pgm"],
        "register": ["--fixed", bad, "--moving", good, "--out", tmp_path / "t.json"],
        "denoise-apply": ["--weights", tmp_path / "w.json", "--in", bad,
                          "--out", tmp_path / "d.pgm"],
        "denoise-train": ["--images", images, "--out", tmp_path / "trained.json"],
    }[command]
    rc, out, err = _run(capsys, command, *map(str, argv))
    assert (rc, out) == (3, "")
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert text in err


@pytest.mark.parametrize("fault", [f for f in _DATASET_FAULTS if _DATASET_FAULTS[f][2] != "table"])
def test_an_image_fault_gives_every_command_that_reads_it_the_same_line(capsys, tmp_path,
                                                                       small_dataset, fault):
    ds = tmp_path / "ds"
    shutil.copytree(small_dataset, ds)
    name, mutate, kind, text = _DATASET_FAULTS[fault]
    mutate(ds / name)
    evaluate = ["evaluate", "--dataset", str(ds), "--out", str(tmp_path / "ev" / "m.json"),
                *_FAST[2:], "--inputs"]
    argv = {"describe": ["describe", "--dataset", str(ds)],
            "evaluate:ct": evaluate + ["ct"],
            "evaluate:fused,tabular": evaluate + ["fused,tabular"],
            "compare": ["compare", "--dataset", str(ds), "--out-dir", str(tmp_path / "cmp"),
                        *_FAST[2:]]}
    seen = {command: _run(capsys, *argv[command]) for command in _READ_BY[kind]}
    assert set(seen.values()) == {(3, "", seen["describe"][2])}, seen
    assert seen["describe"][2].startswith(f"error: {ds / name}") and text in seen["describe"][2]


@pytest.mark.parametrize("rows,error,text", [
    ([("pet-only", ("pet",))], DataError, "{pet}: truncated payload: need 2048 bytes, have 2038"),
    ([("x", ("CT",))], ConfigError, "input set 'x' must name one or more of "
                                    "ct, pet, fused, tabular, got ['CT']"),
    ([("x", ())], ConfigError, "input set 'x' must name one or more of "
                               "ct, pet, fused, tabular, got []"),
], ids=["pet-only-row-truncated-pet", "unknown-input", "empty-row"])
def test_the_preflight_refuses_a_row_or_an_image_it_reads_before_any_directory(
        tmp_path, small_dataset, rows, error, text):
    ds = tmp_path / "ds"
    shutil.copytree(small_dataset, ds)
    pet = ds / "images" / "pt0000_pet.pgm"
    _cut_last_10_bytes(pet)
    doc = pl.resolve_config(None, _FAST[1::2])
    out = tmp_path / "out"
    with pytest.raises(error) as caught:
        pl.evaluate_stages(pl._Stages(out), doc, ds, rows)
    assert str(caught.value).startswith(text.format(pet=pet))
    assert not out.exists()


@pytest.mark.parametrize("argv,option,path", [
    (["run", "--out", "{f}"], "--out", "{f}"),
    (["compare", "--dataset", "{ds}", "--out-dir", "{f}/cmp"], "--out-dir", "{f}/cmp"),
    (["evaluate", "--dataset", "{ds}", "--out", "{f}/m.json", "--inputs", "tabular"],
     "--out", "{f}/m.json"),
    (["phantom", "--out", "{f}/deeper/x"], "--out", "{f}/deeper/x"),
], ids=["run", "compare", "evaluate", "phantom"])
def test_an_output_directory_under_a_file_exits_3_naming_the_option_before_any_work(
        capsys, tmp_path, small_dataset, argv, option, path):
    afile = tmp_path / "afile"
    afile.write_text("")
    before = _tree_hash(tmp_path)
    fill = {"f": afile, "ds": small_dataset}
    rc, out, err = _run(capsys, *(a.format(**fill) for a in argv), *_FAST)
    assert (rc, out) == (3, "")
    path = path.format(**fill)
    assert err == f"error: cannot write {option} {path}: {afile} is not a directory\n"
    assert _tree_hash(tmp_path) == before


def test_a_repeated_evaluate_is_a_cache_hit_with_the_same_report(capsys, tmp_path,
                                                                 small_dataset):
    out = tmp_path / "ev" / "m.json"
    argv = ["evaluate", "--dataset", str(small_dataset), "--out", str(out),
            "--inputs", "ct,tabular", *_FAST[2:]]
    assert _run(capsys, *argv)[0] == 0
    first = out.read_bytes()
    out.unlink()
    rc, _, err = _run(capsys, *argv)
    assert rc == 0
    assert re.findall(r"^\[evaluate\] (cache hit|built) key=", err, re.M) == ["cache hit"]
    assert out.read_bytes() == first


# the import leaves the environment, a preset BLAS variable included, as it
# is; BLAS runs at one thread in the forked regions and at its loaded count after
_IMPORT_CLI = """
import json, os
env = dict(os.environ)
import lungfuse.cli
from lungfuse import parallel

seen = {"environment kept": dict(os.environ) == env}
if parallel._blas() is not None:
    get = parallel._blas()[0]
    loaded = get()
    seen["map"] = parallel.parallel_map(lambda _: get(), range(2))
    seen["after map is loaded"] = get() == loaded
print(json.dumps(seen))
"""


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_import_runs_blas_at_one_thread_unless_set(preset):
    src = pathlib.Path(lungfuse.__file__).resolve().parents[1]
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_CLI], cwd=src, env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    seen = json.loads(out.stdout)
    assert seen.pop("environment kept")
    if len(os.sched_getaffinity(0)) >= 2 and seen:
        assert seen == {"map": [1, 1], "after map is loaded": True}


def test_cli_import_loads_no_scipy():
    src = pathlib.Path(lungfuse.__file__).resolve().parents[1]
    code = "import sys, lungfuse.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_evaluate_subcommand_writes_metrics_report(capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=24, seed=42), ds)
    out = tmp_path / "m.json"
    rc, _, _ = _run(
        capsys, "evaluate", "--dataset", str(ds), "--out", str(out),
        "--set", "fusion.register=false", "--set", "classify.model=logreg",
        "--set", "evaluate.k=2", "--inputs", "fused,tabular",
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["kind"] == "metrics-report"
    assert doc["inputs"] == ["fused", "tabular"]
    assert doc["k"] == 2


def test_compare_subcommand_writes_table_and_metrics(capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=24, seed=42), ds)
    out_dir = tmp_path / "cmp"
    rc, out, _ = _run(
        capsys, "compare", "--dataset", str(ds), "--out-dir", str(out_dir),
        "--set", "fusion.register=false", "--set", "classify.model=logreg",
        "--set", "evaluate.k=2",
    )
    assert rc == 0
    assert "tabular-only" in out and "multimodal" in out
    assert (out_dir / "report" / "comparison.txt").exists()
    doc = json.loads((out_dir / "report" / "metrics.json").read_text())
    assert set(doc["results"]) == {"tabular-only", "ct-only", "fused", "multimodal"}


def test_compare_matches_run_report(capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=24, seed=42), ds)
    rc, _, _ = _run(capsys, "compare", "--dataset", str(ds), "--out-dir", str(tmp_path / "cmp"),
                    *_FAST)
    assert rc == 0
    rc, _, _ = _run(capsys, "run", "--out", str(tmp_path / "run"), *_FAST)
    assert rc == 0
    cmp, report = tmp_path / "cmp" / "report", tmp_path / "run" / "report"
    for name in ("metrics.json", "comparison.txt"):
        assert (cmp / name).read_bytes() == (report / name).read_bytes()
    assert _tree_hash(cmp / "fused") == _tree_hash(report / "fused")


@pytest.mark.parametrize(
    "argv,key",
    [
        (["phantom", "--set", "phantom.seed=-1"], "phantom.seed"),
        (["denoise-train", "--set", "denoise.rng_seed=-1"], "denoise.rng_seed"),
        (["denoise-train", "--set", "denoise.train_seed=-1"], "denoise.train_seed"),
    ],
)
def test_standalone_commands_validate_like_run(capsys, tmp_path, argv, key):
    out = tmp_path / "out"
    rc, _, err = _run(capsys, *argv, "--out", str(out))
    assert rc == 2
    assert err == f"error: {key} must be an integer >= 0, got -1\n"
    assert not out.exists()
    rc, _, run_err = _run(capsys, "run", "--out", str(tmp_path / "w"), "--set", f"{key}=-1")
    assert rc == 2 and run_err == err


def test_describe_on_non_utf8_csv_exits_3(capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=2, seed=1), ds)
    (ds / "tabular.csv").write_bytes(b"\xff\xfe" + (ds / "tabular.csv").read_bytes())
    rc, _, err = _run(capsys, "describe", "--dataset", str(ds))
    assert rc == 3
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "content",
    [b"[1]", b'{"phantom": 3}', b'\xff\xfe{"phantom": {}}'],
    ids=["list-document", "scalar-section", "non-utf8"],
)
def test_malformed_config_with_override_exits_2(capsys, tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    rc, _, err = _run(
        capsys, "run", "--config", str(cfg), "--out", str(tmp_path / "w"),
        "--set", "phantom.seed=1",
    )
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize(
    "override",
    [
        "classify.hidden=7",
        "classify.hidden=[8,true]",
        "tabular.top_k=2.5",
        "classify.epochs=1.5",
        "tabular.smote_k=0",
        'classify.boost_n_estimators="7"',
        "classify.boost_learning_rate=x",
        "classify.boost_max_depth=2.5",
        'classify.dropout="0.5"',
        "classify.rng_seed=-3",
        "evaluate.seed=-1",
        "phantom.seed=-1",
        "denoise.train_seed=-2",
        "denoise.rng_seed=-1",
        "phantom.n_patients=abc",
        "phantom.n_patients=4.5",
        "phantom.noise_sigma=abc",
        "denoise.train_images=abc",
        "denoise.learning_rate=abc",
        "denoise.noise_param=abc",
        "fusion.ll_weight_ct=abc",
    ],
)
def test_bad_classify_or_tabular_value_exits_2_before_any_stage(capsys, tmp_path, override):
    rc, _, err = _run(
        capsys, "run", "--out", str(tmp_path / "w"),
        "--set", "phantom.n_patients=30", "--set", "denoise.enabled=false",
        "--set", "fusion.register=false", "--set", override,
    )
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert override.split("=")[0] in err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize(
    "overrides",
    [["denoise.noise_param=-0.1"], ["denoise.noise_kind=poisson", "denoise.noise_param=0"]],
    ids=["gaussian-negative-sigma", "poisson-zero-scale"],
)
def test_bad_noise_param_exits_2_before_any_stage(capsys, tmp_path, overrides):
    argv = ["run", "--out", str(tmp_path / "w"), "--set", "phantom.n_patients=8"]
    for o in overrides:
        argv += ["--set", o]
    rc, _, err = _run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "noise_param" in err
    assert "[phantom] built" not in err
    assert not list((tmp_path / "w").glob("cache/phantom-*"))


def _nan_payload(n: int) -> str:
    return base64.b64encode(np.full(n, np.nan, dtype="<f4").tobytes()).decode("ascii")


@pytest.mark.parametrize(
    "edit,needle",
    [
        (lambda d: d["layers"][2].pop("kernel"), "layer 2 kernel"),
        (lambda d: d["layers"].__setitem__(1, 5), "layers"),
        (lambda d: d.__setitem__("channels", [1, 2]), "invalid network"),
        (lambda d: d.__setitem__("layers", 3), "layers"),
        (lambda d: d.__setitem__("epochs_trained", "x"), "epochs_trained"),
        (lambda d: d["layers"][4].__setitem__("bias", _nan_payload(1)), "layer 4 bias"),
        (lambda d: d["layers"][0].__setitem__("kernel", _nan_payload(72)), "layer 0 kernel"),
        (lambda d: d["channels"].__setitem__(4, [8, 1.5]), "channel width"),
        (lambda d: d.__setitem__("channels", [[1, 4], [4, 16], [16, 16], [16, 8], [8, 1]]),
         "channel width plan"),
    ],
    ids=[
        "missing-kernel", "scalar-layer", "scalar-channels", "scalar-layers",
        "string-epochs", "nan-bias", "nan-kernel", "fractional-width", "other-plan",
    ],
)
def test_denoise_apply_on_malformed_weights_exits_3(capsys, tmp_path, edit, needle):
    w = tmp_path / "w.json"
    save_weights(w, init_weights(seed=0))
    doc = json.loads(w.read_text())
    edit(doc)
    w.write_text(json.dumps(doc))
    write_pgm(np.random.default_rng(0).uniform(size=(16, 16)), tmp_path / "in.pgm")
    rc, _, err = _run(
        capsys, "denoise-apply", "--weights", str(w),
        "--in", str(tmp_path / "in.pgm"), "--out", str(tmp_path / "out.pgm"),
    )
    assert rc == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err
    assert not (tmp_path / "out.pgm").exists()


def test_denoise_apply_rejects_a_weights_file_that_is_not_ascii(capsys, tmp_path):
    # the writer emits ASCII, and the reader accepts only that: this file is valid UTF-8 JSON
    w = tmp_path / "w.json"
    save_weights(w, init_weights(seed=0))
    doc = json.loads(w.read_text())
    doc["\u00e9"] = 0
    w.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    write_pgm(np.random.default_rng(0).uniform(size=(16, 16)), tmp_path / "in.pgm")
    rc, _, err = _run(
        capsys, "denoise-apply", "--weights", str(w),
        "--in", str(tmp_path / "in.pgm"), "--out", str(tmp_path / "out.pgm"),
    )
    assert rc == 3
    assert err.startswith("error: weights file is not valid JSON") and err.count("\n") == 1
    assert not (tmp_path / "out.pgm").exists()


@pytest.mark.parametrize("damage", ["flipped-bytes", "empty-marker"])
def test_run_rebuilds_a_damaged_cache_entry(capsys, tmp_path, damage):
    out_dir = tmp_path / "w"
    rc, _, _ = _run(capsys, "run", "--out", str(out_dir), *_FAST)
    assert rc == 0
    report_hash = _tree_hash(out_dir / "report")
    (fuse_dir,) = (out_dir / "cache").glob("fuse-*")
    pgm = sorted(fuse_dir.glob("*_fused.pgm"))[0]
    good = pgm.read_bytes()
    if damage == "flipped-bytes":
        pgm.write_bytes(good[:-4] + bytes(b ^ 0xFF for b in good[-4:]))
    else:  # the marker an older version wrote
        (fuse_dir / ".complete").write_text("")
    rc, out, err = _run(capsys, "run", "--out", str(out_dir), *_FAST)
    assert rc == 0
    hits = {s["stage"]: s["cache_hit"] for s in json.loads(out)["stages"]}
    assert hits == {"phantom": True, "fuse": False, "evaluate": True}
    assert "[fuse] cache entry" in err and "fails its hash check" in err
    assert pgm.read_bytes() == good
    assert _tree_hash(out_dir / "report") == report_hash
    rc, out, _ = _run(capsys, "run", "--out", str(out_dir), *_FAST)
    assert json.loads(out)["cache_hits"] == 3


def test_run_reports_denoiser_loss_on_stderr_only(capsys, tmp_path):
    out_dir = tmp_path / "w"
    rc, _, err = _run(
        capsys, "run", "--out", str(out_dir), *_FAST,
        "--set", "denoise.enabled=true", "--set", "denoise.epochs=3",
        "--set", "denoise.train_images=8", "--set", "denoise.train_size=16",
    )
    assert rc == 0
    lines = [ln for ln in err.splitlines() if " epochs, loss " in ln]
    assert len(lines) == 1
    assert re.fullmatch(r"\[denoise-train\] 3 epochs, loss \d\.\d{4} -> \d\.\d{4}", lines[0])
    for p in (out_dir / "report").rglob("*"):
        assert not p.is_file() or b" epochs, loss " not in p.read_bytes()


def test_run_rebuilds_every_stage_when_the_code_changes(capsys, tmp_path, monkeypatch):
    out_dir = tmp_path / "w"
    argv = [
        "run", "--out", str(out_dir), *_FAST,
        "--set", "denoise.enabled=true", "--set", "denoise.epochs=2",
        "--set", "denoise.train_images=8", "--set", "denoise.train_size=16",
    ]
    rc, out, _ = _run(capsys, *argv)
    assert rc == 0
    metrics = (out_dir / "report" / "metrics.json").read_bytes()
    rc, out, _ = _run(capsys, *argv)
    assert json.loads(out)["cache_hits"] == 5
    monkeypatch.setattr(pl, "_source_hash", lambda: "0" * 64)
    rc, out, _ = _run(capsys, *argv)
    assert rc == 0
    stages = json.loads(out)["stages"]
    assert len(stages) == 5 and not any(s["cache_hit"] for s in stages)
    assert (out_dir / "report" / "metrics.json").read_bytes() == metrics


def test_run_rebuilds_every_stage_when_the_numpy_version_changes(capsys, tmp_path,
                                                                   monkeypatch):
    argv = ["run", "--out", str(tmp_path / "w"), *_FAST]
    assert _run(capsys, *argv)[0] == 0
    keys = _stage_keys(tmp_path / "w" / "report")
    monkeypatch.setattr(np, "__version__", f"{np.__version__}.post1")
    rc, out, _ = _run(capsys, *argv)
    assert rc == 0
    stages = json.loads(out)["stages"]
    assert len(stages) == len(keys) and not any(s["cache_hit"] for s in stages)
    assert not set(keys.values()) & {s["key"] for s in stages}


# small denoiser settings that still train and apply it
_DENOISE = [
    "--set", "denoise.enabled=true", "--set", "denoise.epochs=2",
    "--set", "denoise.train_images=8", "--set", "denoise.train_size=16",
]


def _stage_keys(report_dir) -> dict:
    log = json.loads((pathlib.Path(report_dir) / "pipeline_log.json").read_text())
    return {s["stage"]: s["key"] for s in log["stages"]}


def test_compare_is_run_with_the_dataset_in_the_phantom_stage_place(capsys, tmp_path):
    ds = tmp_path / "ds"
    assert _run(capsys, "phantom", "--out", str(ds), *_FAST, *_DENOISE)[0] == 0
    compare = ["compare", "--dataset", str(ds), "--out-dir", str(tmp_path / "cmp"),
               *_FAST, *_DENOISE]
    rc, out, _ = _run(capsys, *compare)
    assert rc == 0
    rc, _, _ = _run(capsys, "run", "--out", str(tmp_path / "run"), *_FAST, *_DENOISE)
    assert rc == 0
    cmp, report = tmp_path / "cmp" / "report", tmp_path / "run" / "report"
    for name in ("metrics.json", "comparison.txt"):
        assert (cmp / name).read_bytes() == (report / name).read_bytes()
    assert _tree_hash(cmp / "fused") == _tree_hash(report / "fused")
    assert out == (report / "comparison.txt").read_text(encoding="utf-8") + "\n"
    run_keys = _stage_keys(report)
    assert list(run_keys) == ["phantom", "denoise-train", "denoise-apply", "fuse", "evaluate"]
    del run_keys["phantom"]
    assert _stage_keys(cmp) == run_keys
    rc, _, err = _run(capsys, *compare)
    assert rc == 0
    status = re.findall(r"^\[([a-z-]+)\] (cache hit|built) key=", err, re.M)
    assert status == [(stage, "cache hit") for stage in run_keys]


def test_evaluate_reports_run_multimodal_result(capsys, tmp_path):
    ds = tmp_path / "ds"
    assert _run(capsys, "phantom", "--out", str(ds), *_FAST, *_DENOISE)[0] == 0
    out = tmp_path / "ev" / "m.json"
    out.parent.mkdir()
    rc, _, _ = _run(capsys, "evaluate", "--dataset", str(ds), "--out", str(out),
                    "--inputs", "fused,tabular", *_FAST, *_DENOISE)
    assert rc == 0
    assert sorted(p.name for p in out.parent.iterdir()) == ["cache", "m.json"]
    rc, _, _ = _run(capsys, "run", "--out", str(tmp_path / "run"), *_FAST, *_DENOISE)
    assert rc == 0
    metrics = json.loads((tmp_path / "run" / "report" / "metrics.json").read_text())
    assert json.loads(out.read_text()) == metrics["results"]["multimodal"]


def test_evaluate_without_fused_runs_no_stage(capsys, tmp_path):
    ds = tmp_path / "ds"
    assert _run(capsys, "phantom", "--out", str(ds), *_FAST, *_DENOISE)[0] == 0
    out = tmp_path / "ev" / "m.json"
    rc, _, err = _run(capsys, "evaluate", "--dataset", str(ds), "--out", str(out),
                      "--inputs", "tabular", *_FAST, *_DENOISE)
    assert rc == 0
    assert not re.search(r"^\[(denoise|fuse)", err, re.M)
    assert [p.name.split("-")[0] for p in (out.parent / "cache").iterdir()] == ["evaluate"]
    rc, _, _ = _run(capsys, "run", "--out", str(tmp_path / "run"), *_FAST, *_DENOISE)
    assert rc == 0
    metrics = json.loads((tmp_path / "run" / "report" / "metrics.json").read_text())
    assert json.loads(out.read_text()) == metrics["results"]["tabular-only"]


@pytest.mark.parametrize("argv", [
    ["evaluate", "--out", "{ds}/m.json"],
    ["evaluate", "--out", "{ds}/sub/m.json", "--inputs", "tabular"],
    ["compare", "--out-dir", "{ds}"],
    ["compare", "--out-dir", "{ds}/cmp"],
])
def test_output_inside_the_dataset_is_refused(capsys, tmp_path, argv):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=8, image_size=32, seed=1), ds)
    before = _tree_hash(ds)
    argv = [a.format(ds=ds) for a in argv]
    rc, _, err = _run(capsys, argv[0], "--dataset", str(ds), *argv[1:], *_FAST)
    assert rc == 2
    assert err == f"error: {argv[1]} {argv[2]} lies inside --dataset {ds}; write it elsewhere\n"
    assert _tree_hash(ds) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


def test_pipeline_log_names_the_dataset_hash(capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=24, seed=42), ds)
    rc, _, _ = _run(capsys, "compare", "--dataset", str(ds), "--out-dir", str(tmp_path / "cmp"),
                    *_FAST)
    assert rc == 0
    log = json.loads((tmp_path / "cmp" / "report" / "pipeline_log.json").read_text())
    assert log["dataset"] == pl._hash_tree(ds)
    assert _run(capsys, "run", "--out", str(tmp_path / "run"), *_FAST)[0] == 0
    log = json.loads((tmp_path / "run" / "report" / "pipeline_log.json").read_text())
    assert log["dataset"] == log["stages"][0]["output_hash"]
    assert log["stages"][0]["stage"] == "phantom"


@pytest.mark.parametrize("inputs", ["bogus", "fused,bogus", "", " , "])
def test_evaluate_rejects_bad_inputs_before_any_stage(capsys, tmp_path, inputs):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=8, seed=1), ds)
    out = tmp_path / "m.json"
    rc, _, err = _run(capsys, "evaluate", "--dataset", str(ds), "--out", str(out),
                      "--inputs", inputs)
    assert rc == 2
    assert err.startswith("error: --inputs ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


def test_runs_into_one_out_at_once_all_succeed(capsys, tmp_path):
    # three runs, more than a 2-CPU host has cores, each racing the others for every
    # cache entry and for report/
    argv = ["run", "--set", "phantom.n_patients=24", "--set", "denoise.epochs=2",
            "--set", "fusion.register=false", "--set", "classify.model=logreg",
            "--set", "evaluate.k=2"]
    src = pathlib.Path(lungfuse.__file__).resolve().parents[1]
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "lungfuse.cli", *argv, "--out", str(tmp_path / "w")],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(3)
    ]
    errs = [p.communicate(timeout=120)[1] for p in procs]
    assert [p.returncode for p in procs] == [0, 0, 0], errs
    assert _run(capsys, *argv, "--out", str(tmp_path / "solo"))[0] == 0
    raced, solo = tmp_path / "w" / "report", tmp_path / "solo" / "report"
    # stage by stage first, so that a difference names the first stage that made it
    raced_log, solo_log = (json.loads((d / "pipeline_log.json").read_text())["stages"]
                           for d in (raced, solo))
    first = next((r["stage"] for r, s in zip(raced_log, solo_log) if r != s), None)
    assert raced_log == solo_log, f"stage {first} differs first: {raced_log} vs {solo_log}"
    assert _tree_hash(raced) == _tree_hash(solo), _differing_files(raced, solo)
    # each run built in a directory of its own, and none is left behind
    assert not list((tmp_path / "w").glob(".*")) and not list((tmp_path / "w").glob("cache/.*"))


# BLAS loads at the given thread count; then the CPUs are narrowed, since OpenBLAS
# loaded on one CPU would cap its count at one
_RUN_ON_CPUS = """
import os, sys
from lungfuse import parallel
from lungfuse.cli import main
os.sched_setaffinity(0, {cpus})
assert parallel._blas() is None or parallel._blas()[0]() == {threads}
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_run_gives_one_report_on_one_cpu_and_two_with_blas_at_one_thread_and_two(tmp_path):
    # workers, the partner and BLAS's own threads must not change a result
    src = pathlib.Path(lungfuse.__file__).resolve().parents[1]
    argv = ["run", "--set", "phantom.n_patients=24", "--set", "phantom.image_size=32",
            "--set", "denoise.epochs=2", "--set", "denoise.train_images=8",
            "--set", "denoise.train_size=32", "--set", "classify.model=logreg",
            "--set", "evaluate.k=2"]
    hashes = {}
    for cpus in sorted(os.sched_getaffinity(0))[:1], sorted(os.sched_getaffinity(0))[:2]:
        for threads in 1, 2:
            out = tmp_path / f"{len(cpus)}cpu-{threads}blas"
            proc = subprocess.run(
                [sys.executable, "-c", _RUN_ON_CPUS.format(cpus=set(cpus), threads=threads),
                 *argv, "--out", str(out)],
                env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": str(threads)},
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            hashes[out.name] = _tree_hash(out / "report")
    assert len(set(hashes.values())) == 1, hashes


def test_a_killed_runs_build_directory_goes_with_the_next_run(capsys, tmp_path):
    argv = ["run", "--out", str(tmp_path / "w"), "--set", "phantom.n_patients=24",
            "--set", "fusion.register=false", "--set", "classify.model=logreg",
            "--set", "evaluate.k=2"]
    cache = tmp_path / "w" / "cache"
    src = pathlib.Path(lungfuse.__file__).resolve().parents[1]
    proc = subprocess.Popen([sys.executable, "-m", "lungfuse.cli", *argv],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(cache.glob(".denoise-train-*")) and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        proc.kill()  # SIGKILL: the run cleans nothing up
        proc.wait(timeout=10)
    assert [p.name.split("@")[2] for p in cache.glob(".denoise-train-*")] == [str(proc.pid)]
    host = platform.node()
    live = cache / f".fuse-0@{host}@{os.getpid()}@00"  # this test's own process
    elsewhere = cache / f".fuse-0@not-{host}@{proc.pid}@00"
    live.mkdir()
    elsewhere.mkdir()
    assert _run(capsys, *argv)[0] == 0
    assert sorted(cache.glob(".*")) == sorted([live, elsewhere])


def test_ll_rule_is_an_unknown_key_and_ll_weight_ct_always_applies(capsys, tmp_path):
    rc, _, err = _run(capsys, "run", "--out", str(tmp_path / "w"),
                      "--set", "fusion.ll_rule=average")
    assert rc == 2
    assert err.startswith('error: unknown config key "ll_rule" in section "fusion"')
    assert not (tmp_path / "w").exists()
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=2, seed=1), ds)
    images = []
    for sets in ([], ["--set", "fusion.ll_weight_ct=0.9"]):
        out = tmp_path / f"f{len(sets)}.pgm"
        assert _run(capsys, "fuse", "--ct", str(ds / "images/pt0000_ct.pgm"),
                    "--pet", str(ds / "images/pt0000_pet.pgm"), "--out", str(out), *sets)[0] == 0
        images.append(out.read_bytes())
    assert images[0] != images[1]


def test_warm_run_hashes_each_stage_tree_once(capsys, tmp_path, monkeypatch):
    argv = ["run", "--out", str(tmp_path / "w"), *_FAST, *_DENOISE]
    assert _run(capsys, *argv)[0] == 0
    hashed = []
    real = pl._hash_tree

    def counting(root):
        hashed.append(pathlib.Path(root).name)
        return real(root)

    monkeypatch.setattr(pl, "_hash_tree", counting)
    rc, out, _ = _run(capsys, *argv)
    assert rc == 0
    stages = json.loads(out)["stages"]
    assert len(stages) == 5 and all(s["cache_hit"] for s in stages)
    assert hashed == [f"{s['stage']}-{s['key']}" for s in stages]


@pytest.mark.parametrize(
    "override,message",
    [
        ("fusion.detail_rule=bogus", "must be \"max_abs\" or \"average\", got 'bogus'"),
        ("denoise.noise_kind=bogus", "must be \"gaussian\" or \"poisson\", got 'bogus'"),
        ("classify.model=bogus", "must be \"mlp\" or \"logreg\", got 'bogus'"),
        ("classify.dropout=1.5", "must be in [0, 1), got 1.5"),
        ("phantom.image_size=18", "must be divisible by 4, got 18"),
        ("phantom.class_balance=1.5", "must be in (0, 1), got 1.5"),
        ("phantom.noise_sigma=-1", "must be >= 0, got -1"),
        ("phantom.missing_rate=1", "must be in [0, 1), got 1"),
        ("phantom.registration_jitter=-1", "must be >= 0, got -1"),
        ("phantom.signal_strength=-1", "must be >= 0, got -1"),
        ("denoise.learning_rate=0", "must be > 0, got 0"),
        ("classify.learning_rate=0", "must be > 0, got 0"),
        ("classify.boost_learning_rate=0", "must be > 0, got 0"),
    ],
)
def test_bad_config_value_error_names_its_key(capsys, tmp_path, override, message):
    rc, _, err = _run(capsys, "run", "--out", str(tmp_path / "w"), "--set", override)
    assert rc == 2
    assert err == f"error: {override.split('=')[0]} {message}\n"
    assert not (tmp_path / "w").exists()


def _readme_cli_rows() -> dict:
    """command -> the text of its row in the README's CLI table."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^\| `([a-z-]+)` \|(.*)\|$", section, re.M))


def test_readme_cli_table_matches_the_commands_and_their_options(capsys):
    rc, out, _ = _run(capsys, "--help")
    assert rc == 0
    listed = re.findall(r"^  ([a-z-]+)  ", out.split("Commands:\n", 1)[1], re.M)
    rows = _readme_cli_rows()
    assert sorted(rows) == sorted(listed)
    for name, text in rows.items():
        options = {o for p in cli.commands[name].params for o in p.opts}
        for option in re.findall(r"--[a-z][a-z-]*", text):
            assert option in options, f"README names {option} for {name}, which lacks it"


def test_readme_default_table_matches_the_defaults():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("\n## Pipeline configuration\n", 1)[1].split("\n## ", 1)[0]

    def value(raw):
        try:
            return json.loads(raw)
        except json.JSONDecodeError:
            return raw  # a bare string, e.g. haar

    table = {
        name: {key: value(raw) for key, raw in re.findall(r"(\w+) (\[[^\]]*\]|[^,]+)", keys)}
        for name, keys in re.findall(r"^\| `([a-z]+)` \| (.*) \|$", section, re.M)
    }
    assert table == pl.DEFAULTS


@pytest.mark.parametrize("inputs,ct_reads,fused_reads",
                         [("tabular", 0, 0), ("fused,tabular", 48, 24), ("ct", 48, 0)],
                         ids=["tabular-0", "fused,tabular-48", "ct-48"])
def test_evaluate_reads_ct_images_only_for_its_inputs(capsys, tmp_path, monkeypatch,
                                                      inputs, ct_reads, fused_reads):
    # the pre-flight reads each CT once for ct and for fused; then, with _FAST fusing
    # in this process without registration, the fuse stage reads it once for fused
    # and the dataset's features once for ct; the fused images are read only for fused
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=24, image_size=32, seed=3), ds)
    reads = []
    real = pl.read_pgm

    def counting(path):
        reads.append(pathlib.Path(path).name)
        return real(path)

    monkeypatch.setattr(pl, "read_pgm", counting)
    rc, _, err = _run(capsys, "evaluate", "--dataset", str(ds), "--out", str(tmp_path / "m.json"),
                    "--inputs", inputs, *_FAST)
    assert rc == 0, err
    assert sum(name.endswith("_ct.pgm") for name in reads) == ct_reads
    assert sum(name.endswith("_fused.pgm") for name in reads) == fused_reads


@pytest.mark.parametrize("key", ["fusion.levels", "classify.feature_levels"])
def test_run_refuses_a_wavelet_depth_the_phantom_cannot_take(capsys, tmp_path, key):
    rc, _, err = _run(capsys, "run", "--out", str(tmp_path / "w"),
                      "--set", "phantom.n_patients=10", "--set", "phantom.image_size=16",
                      "--set", f"{key}=5")
    assert rc == 2
    assert err == f"error: {key} must be at most 4 for 16x16 images, got 5\n"
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("argv,key", [
    (["evaluate", "--out", "{tmp}/ev/m.json", "--inputs", "ct"], "classify.feature_levels"),
    (["evaluate", "--out", "{tmp}/ev/m.json", "--inputs", "fused"], "fusion.levels"),
    (["compare", "--out-dir", "{tmp}/cmp"], "classify.feature_levels"),
])
def test_a_wavelet_depth_the_dataset_cannot_take_exits_2_before_any_stage(capsys, tmp_path,
                                                                          argv, key):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=8, image_size=16, seed=1), ds)
    argv = [a.format(tmp=tmp_path) for a in argv]
    rc, _, err = _run(capsys, *argv, "--dataset", str(ds), *_FAST, "--set", f"{key}=5")
    assert rc == 2
    assert err == f"error: {key} must be at most 4 for 16x16 images, got 5\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


def _dataset_of_8px_images(ds):
    """A 24-patient 16 px phantom whose CT and PET images are cut to 8x8."""
    generate(PhantomConfig(n_patients=24, image_size=16, seed=1), ds)
    doc = json.loads((ds / "manifest.json").read_text())
    for row in doc["rows"]:
        for key in ("ct", "pet"):
            write_pgm(read_pgm(ds / row[key])[:8, :8], ds / row[key])
    doc["image_size"] = 8
    (ds / "manifest.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("argv", [
    ["evaluate", "--out", "{tmp}/ev/m.json", "--inputs", "ct"],
    ["evaluate", "--out", "{tmp}/ev/m.json", "--inputs", "fused"],
    ["compare", "--out-dir", "{tmp}/cmp"],
])
def test_a_dataset_of_images_below_the_feature_minimum_exits_3_before_any_stage(capsys, tmp_path,
                                                                               argv):
    ds = tmp_path / "ds"
    _dataset_of_8px_images(ds)
    argv = [a.format(tmp=tmp_path) for a in argv]
    rc, _, err = _run(capsys, *argv, "--dataset", str(ds), *_FAST)
    assert rc == 3
    assert err == f"error: dataset {ds} has 8x8 images; the image features need at least 16x16\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


def test_evaluate_tabular_runs_on_a_dataset_of_images_below_the_feature_minimum(capsys,
                                                                                tmp_path):
    ds = tmp_path / "ds"
    _dataset_of_8px_images(ds)
    rc, _, err = _run(capsys, "evaluate", "--dataset", str(ds), "--out", str(tmp_path / "m.json"),
                      "--inputs", "tabular", *_FAST)
    assert rc == 0, err


@pytest.mark.parametrize("argv", [
    ["evaluate", "--out", "{tmp}/ev/m.json", "--inputs", "fused,tabular"],
    ["compare", "--out-dir", "{tmp}/cmp"],
])
def test_a_table_without_a_manifest_row_exits_3_before_any_stage(capsys, tmp_path, argv):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=24, image_size=16, seed=1), ds)
    lines = (ds / "tabular.csv").read_text().splitlines(keepends=True)
    (ds / "tabular.csv").write_text("".join(lines[:-1]))  # pt0023's row dropped
    argv = [a.format(tmp=tmp_path) for a in argv]
    rc, _, err = _run(capsys, *argv, "--dataset", str(ds), *_FAST, *_DENOISE)
    assert rc == 3
    assert err == f"error: {ds}/tabular.csv: tabular_row_id 'pt0023' is not in the table\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]  # no cache/ entry


@pytest.mark.parametrize("shape,named", [((1, 64), "64x1"), ((64, 1), "1x64")])
def test_register_refuses_a_one_pixel_side_for_gradient_features_before_registering(
        capsys, monkeypatch, tmp_path, shape, named):
    for name in ("a", "b"):
        write_pgm(np.random.default_rng(0).random(shape), tmp_path / f"{name}.pgm")
    monkeypatch.setattr(pl, "align", lambda *a: pytest.fail("registered before the size check"))
    fixed, moving = str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")
    rc, _, err = _run(capsys, "register", "--fixed", fixed, "--moving", moving,
                      "--out", str(tmp_path / "t.json"), "--resampled", str(tmp_path / "r.pgm"))
    assert rc == 3
    assert err == (f"error: {fixed} and {moving} are {named} images; "
                   "--features gradient needs at least 2 px in each direction\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "b.pgm"]


@pytest.mark.parametrize("shape,named", [((64, 64), "64x64"), ((48, 64), "64x48")])
def test_fuse_refuses_a_wavelet_depth_the_images_cannot_take_before_registering(
        capsys, monkeypatch, tmp_path, shape, named):
    for name in ("ct", "pet"):
        write_pgm(np.random.default_rng(0).random(shape), tmp_path / f"{name}.pgm")
    monkeypatch.setattr(pl, "align", lambda *a: pytest.fail("registered before the depth check"))
    rc, _, err = _run(capsys, "fuse", "--ct", str(tmp_path / "ct.pgm"),
                      "--pet", str(tmp_path / "pet.pgm"), "--out", str(tmp_path / "f.pgm"),
                      "--set", "fusion.levels=9")
    assert rc == 2
    assert err == f"error: fusion.levels must be at most 6 for {named} images, got 9\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ct.pgm", "pet.pgm"]


@pytest.mark.parametrize("inputs", ["fused,fused", "tabular, ct,tabular"])
def test_evaluate_refuses_a_repeated_input_before_any_stage(capsys, tmp_path, inputs):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=8, seed=1), ds)
    rc, _, err = _run(capsys, "evaluate", "--dataset", str(ds),
                      "--out", str(tmp_path / "ev" / "m.json"), "--inputs", inputs)
    assert rc == 2
    assert err == ("error: --inputs must name one or more of ct, fused, tabular, each once, "
                   f"got {inputs!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


# seeded faults in every file a dataset command reads
_BAD_VALUES = [None, True, -1, 0, 2.5, 1e308, float("nan"), "", "x", "../x", "/abs", [], [1], {},
               {"x": 1}]
_BAD_CELLS = ["", "nan", "inf", "x", "1e999", "-3", "squamous", "male", '"', "pt0000", "a,b"]


def _json_nodes(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        for k, v in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _json_nodes(v, path + (k,))


def _mutate_json(rng, text: str) -> str:
    """One value of the document replaced, or one key or item deleted."""
    doc = json.loads(text)
    paths = list(_json_nodes(doc))
    path = paths[rng.integers(len(paths))]
    value = _BAD_VALUES[rng.integers(len(_BAD_VALUES))]
    if not path:
        return json.dumps(value)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if rng.integers(4) == 0:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


def _mutate_csv(rng, text: str) -> str:
    """One cell replaced, one line dropped, or the file cut short."""
    lines = text.split("\n")
    i = int(rng.integers(len(lines)))
    op = rng.integers(4)
    if op == 0:
        del lines[i]
    elif op == 1:
        return text[: rng.integers(len(text))]
    else:
        cells = lines[i].split(",")
        cells[rng.integers(len(cells))] = _BAD_CELLS[rng.integers(len(_BAD_CELLS))]
        lines[i] = ",".join(cells)
    return "\n".join(lines)


def _mutate_header(rng, data: bytes) -> bytes:
    """One byte of the PGM header replaced."""
    at = int(rng.integers(data.index(b"65535") + 6))
    byte = b"P5 \n#0123456789x"[rng.integers(16)] if rng.integers(2) else int(rng.integers(256))
    return data[:at] + bytes([byte]) + data[at + 1 :]


def test_seeded_malformed_inputs_exit_with_a_code_and_one_line(capsys, tmp_path):
    ds, w = tmp_path / "ds", tmp_path / "w.json"
    generate(PhantomConfig(n_patients=24, image_size=16, seed=4), ds)
    save_weights(w, init_weights(seed=0))
    ct = ds / "images" / "pt0000_ct.pgm"
    commands = {
        "describe": ["describe", "--dataset", str(ds)],
        "evaluate": ["evaluate", "--dataset", str(ds), "--out", str(tmp_path / "ev" / "m.json"),
                     "--inputs", "ct,tabular", "--set", "evaluate.k=2",
                     "--set", "classify.model=logreg", "--set", "classify.logreg_epochs=5",
                     "--set", "classify.boost_n_estimators=2",
                     "--set", "classify.boost_max_depth=2"],
        "preprocess": ["preprocess", "--csv", str(ds / "tabular.csv"),
                       "--schema", str(ds / "tabular.schema.json"),
                       "--out-matrix", str(tmp_path / "x.csv")],
        "fuse": ["fuse", "--ct", str(ct), "--pet", str(ds / "images" / "pt0000_pet.pgm"),
                 "--out", str(tmp_path / "f.pgm"), "--set", "fusion.register=false"],
        "denoise-apply": ["denoise-apply", "--weights", str(w), "--in", str(ct),
                          "--out", str(tmp_path / "d.pgm")],
    }
    # each file, its mutation and the commands that read it
    targets = [
        (ds / "manifest.json", _mutate_json, ["describe", "evaluate"]),
        (ds / "tabular.schema.json", _mutate_json, ["describe", "evaluate", "preprocess"]),
        (ds / "tabular.csv", _mutate_csv, ["describe", "evaluate", "preprocess"]),
        (ct, _mutate_header, ["describe", "evaluate", "fuse", "denoise-apply"]),
        (w, _mutate_json, ["denoise-apply"]),
    ]
    rng = np.random.default_rng(19)
    codes = []
    for case in range(600):
        path, mutate, readers = targets[case % len(targets)]
        original = path.read_bytes()
        if path.suffix == ".pgm":
            path.write_bytes(mutate(rng, original))
        else:
            path.write_text(mutate(rng, original.decode()))
        command = readers[rng.integers(len(readers))]
        rc, _, err = _run(capsys, *commands[command])
        path.write_bytes(original)
        assert rc in (0, 2, 3, 4), (case, command, err)
        if rc:
            assert err.startswith("error:") and err.count("\n") == 1, (case, command, err)
        else:
            assert "error:" not in err, (case, command, err)
        codes.append(rc)
    assert {0, 3} <= set(codes)
