import hashlib
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import lungfuse
from lungfuse import pipeline as pl
from lungfuse.cli import main
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
    rc, out, _ = _run(capsys, "phantom", "--n", "8", "--seed", "3", "--out", str(ds))
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
        "--out", str(fused), "--register", "off",
        "--ll-rule", "weighted:0.7", "--detail-rule", "average",
        "--report", str(report),
    )
    assert rc == 0
    img = read_pgm(fused)
    assert img.shape == (64, 64)
    doc = json.loads(report.read_text())
    assert set(doc) >= {"entropy_f", "mi_f_ct", "mi_f_pet", "psnr_vs_ct", "ssim_vs_ct"}


def test_fuse_default_matches_pipeline_fused_image(capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=2, seed=1), ds)
    fused = tmp_path / "fused.pgm"
    rc, _, _ = _run(
        capsys, "fuse",
        "--ct", str(ds / "images/pt0000_ct.pgm"),
        "--pet", str(ds / "images/pt0000_pet.pgm"),
        "--out", str(fused),
    )
    assert rc == 0
    pl.compute_fused_dir(ds, tmp_path, pl.resolve_config(None))
    assert fused.read_bytes() == (tmp_path / "pt0000_fused.pgm").read_bytes()


def test_fuse_into_missing_directory_exits_3(capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=2, seed=1), ds)
    rc, _, err = _run(
        capsys, "fuse",
        "--ct", str(ds / "images/pt0000_ct.pgm"),
        "--pet", str(ds / "images/pt0000_pet.pgm"),
        "--out", str(tmp_path / "missing" / "f.pgm"), "--register", "off",
    )
    assert rc == 3
    assert err.startswith("error:") and err.count("\n") == 1


def test_fuse_rejects_bad_ll_rule(capsys, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=2, seed=1), ds)
    rc, _, err = _run(
        capsys, "fuse",
        "--ct", str(ds / "images/pt0000_ct.pgm"),
        "--pet", str(ds / "images/pt0000_pet.pgm"),
        "--out", str(tmp_path / "f.pgm"), "--ll-rule", "weighted:heavy",
    )
    assert rc == 2
    assert "ll-rule" in err


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
        "--n-images", "8", "--size", "32", "--epochs", "2", "--batch-size", "4",
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


def test_run_stage_error_names_stage_and_hints(capsys, tmp_path):
    rc, _, err = _run(
        capsys, "run", "--out", str(tmp_path / "w"), *_FAST, "--set", "evaluate.k=13"
    )
    assert rc == 3  # 24 patients cannot stratify into 13 folds
    assert "stage evaluate" in err
    assert "hint" in err


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
    assert (out_dir / "comparison.txt").exists()
    doc = json.loads((out_dir / "metrics.json").read_text())
    assert set(doc["results"]) == {"tabular-only", "ct-only", "fused", "multimodal"}


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
