"""End-to-end orchestration: dataset, denoising, fusion, evaluation, report.

Stage outputs live under <out>/cache in directories keyed by a content
hash of the stage's configuration and its inputs' bytes.  A rerun with
an unchanged config is therefore a sequence of cache hits that rebuilds
the report bundle byte for byte.  Nothing time-dependent is written to
the bundle; wall-clock timing and hit/miss status go to stderr only.

The report bundle contains metrics.json (all modality comparisons plus
the fully resolved config), comparison.txt, resolved_config.json, the
fused images, and pipeline_log.json (stage keys and output hashes).
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pathlib
import shutil
import sys
import time

import numpy as np

from . import __version__
from .classify import (
    REPORT_SCHEMA_VERSION,
    ClassifyConfig,
    MMDataset,
    compare_modalities,
    comparison_to_text,
    extract_image_features,
)
from .denoise import TrainConfig, denoise, load_weights, save_weights, train_denoiser
from .errors import ConfigError, LungFuseError
from .fusion import FusionRule, RigidTransform, fuse_wavelet, register_rigid, resample_bilinear
from .images import gradient_magnitude, read_pgm, write_json, write_pgm
from .phantom import PhantomConfig, SUBTYPES, generate, load_manifest, render_pet, sample_patient
from .tabular import BoostConfig, read_table, take_rows

__all__ = [
    "DEFAULTS",
    "CONFIG_SCHEMA_VERSION",
    "load_config",
    "resolve_config",
    "apply_overrides",
    "run_pipeline",
    "version_info",
    "align",
    "denoiser_scenes",
    "compute_fused_dir",
    "evaluate_dataset",
    "classify_config_from",
    "build_mmdataset",
]

CONFIG_SCHEMA_VERSION = 1

DEFAULTS = {
    "phantom": {
        "n_patients": 60,
        "image_size": 64,
        "class_balance": 0.5,
        "noise_sigma": 0.02,
        "registration_jitter": 3.0,
        "signal_strength": 1.0,
        "missing_rate": 0.0,
        "seed": 42,
    },
    "denoise": {
        "enabled": True,
        "learning_rate": 0.001,
        "batch_size": 96,
        "epochs": 30,
        "rng_seed": 0,
        "noise_kind": "gaussian",
        "noise_param": 0.1,
        "train_images": 24,
        "train_size": 64,
        "train_seed": 7,
    },
    "fusion": {
        "family": "haar",
        "levels": 1,
        "ll_rule": "average",
        "ll_weight_ct": 0.5,
        "detail_rule": "max_abs",
        "register": True,
    },
    "tabular": {
        "smote_k": 5,
        "top_k": 16,
    },
    "classify": {
        "model": "mlp",
        "feature_levels": 2,
        "learning_rate": 0.001,
        "batch_size": 96,
        "epochs": 300,
        "rng_seed": 0,
        "dropout": 0.5,
        "hidden": [32, 16],
        "boost_learning_rate": 0.1,
        "boost_max_depth": 5,
        "boost_n_estimators": 100,
        "logreg_lr": 0.5,
        "logreg_epochs": 200,
    },
    "evaluate": {
        "k": 5,
        "seed": 42,
    },
}


def resolve_config(user: dict | None) -> dict:
    """Defaults overlaid with the user document; unknown keys rejected."""
    doc = copy.deepcopy(DEFAULTS)
    if user is None:
        return doc
    if not isinstance(user, dict):
        raise ConfigError(f"config must be a JSON object, got {type(user).__name__}")
    for section, body in user.items():
        if section not in doc:
            raise ConfigError(
                f'unknown config section "{section}"; expected one of {sorted(doc)}'
            )
        if not isinstance(body, dict):
            raise ConfigError(f'config section "{section}" must be an object')
        for key, value in body.items():
            if key not in doc[section]:
                raise ConfigError(
                    f'unknown config key "{key}" in section "{section}"; '
                    f"expected one of {sorted(doc[section])}"
                )
            doc[section][key] = value
    _validate(doc)
    return doc


def load_config(path=None, sets=()) -> dict:
    """Resolve the JSON config at path (defaults when None), then the overrides."""
    user = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if sets:
        user = apply_overrides(user, sets)
    return resolve_config(user)


def apply_overrides(user: dict, pairs) -> dict:
    """Apply `section.key=value` strings on top of a raw config document."""
    if not isinstance(user, dict):
        raise ConfigError(f"config must be a JSON object, got {type(user).__name__}")
    out = copy.deepcopy(user)
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f'override {pair!r} is not of the form section.key=value')
        path, raw = pair.split("=", 1)
        parts = path.split(".")
        if len(parts) != 2 or not all(parts):
            raise ConfigError(f'override path {path!r} is not of the form section.key')
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings allowed, e.g. model=logreg
        section = out.setdefault(parts[0], {})
        if not isinstance(section, dict):
            raise ConfigError(f'config section "{parts[0]}" must be an object')
        section[parts[1]] = value
    return out


def _phantom_config(doc: dict) -> PhantomConfig:
    return PhantomConfig(**doc["phantom"])


def _train_config(doc: dict) -> TrainConfig:
    d = doc["denoise"]
    return TrainConfig(
        learning_rate=d["learning_rate"],
        batch_size=d["batch_size"],
        epochs=d["epochs"],
        rng_seed=d["rng_seed"],
        noise_kind=d["noise_kind"],
        noise_param=d["noise_param"],
    )


def _fusion_rule(doc: dict) -> FusionRule:
    f = doc["fusion"]
    return FusionRule(
        ll_rule=f["ll_rule"], ll_weight_ct=f["ll_weight_ct"], detail_rule=f["detail_rule"]
    )


def classify_config_from(doc: dict) -> ClassifyConfig:
    c, t = doc["classify"], doc["tabular"]
    return ClassifyConfig(
        model=c["model"],
        top_k=t["top_k"],
        smote_k=t["smote_k"],
        levels=c["feature_levels"],
        boost=BoostConfig(
            learning_rate=c["boost_learning_rate"],
            max_depth=c["boost_max_depth"],
            n_estimators=c["boost_n_estimators"],
        ),
        train=TrainConfig(
            learning_rate=c["learning_rate"],
            batch_size=c["batch_size"],
            epochs=c["epochs"],
            rng_seed=c["rng_seed"],
        ),
        mlp_hidden=tuple(c["hidden"]),
        mlp_dropout=c["dropout"],
        logreg_lr=c["logreg_lr"],
        logreg_epochs=c["logreg_epochs"],
    )


def _validate(doc: dict) -> None:
    """Construct every stage config once so bad values fail before any work."""
    _phantom_config(doc)
    d = doc["denoise"]
    if not isinstance(d["enabled"], bool):
        raise ConfigError(f'denoise.enabled must be true or false, got {d["enabled"]!r}')
    if d["train_images"] < 8:
        raise ConfigError(f'denoise.train_images must be >= 8, got {d["train_images"]}')
    if d["train_size"] % 4 or d["train_size"] < 16:
        raise ConfigError(
            f'denoise.train_size must be >= 16 and divisible by 4, got {d["train_size"]}'
        )
    _train_config(doc)
    f = doc["fusion"]
    if f["family"] not in ("haar", "db2"):
        raise ConfigError(f'fusion.family must be "haar" or "db2", got {f["family"]!r}')
    if not isinstance(f["levels"], int) or f["levels"] < 1:
        raise ConfigError(f'fusion.levels must be a positive integer, got {f["levels"]!r}')
    if not isinstance(f["register"], bool):
        raise ConfigError(f'fusion.register must be true or false, got {f["register"]!r}')
    _fusion_rule(doc)
    classify_config_from(doc)
    e = doc["evaluate"]
    if not isinstance(e["k"], int) or e["k"] < 2:
        raise ConfigError(f'evaluate.k must be an integer >= 2, got {e["k"]!r}')
    if not isinstance(e["seed"], int):
        raise ConfigError(f'evaluate.seed must be an integer, got {e["seed"]!r}')


def version_info() -> dict:
    return {
        "version": __version__,
        "config_schema_version": CONFIG_SCHEMA_VERSION,
        "report_schema_version": REPORT_SCHEMA_VERSION,
        "defaults": copy.deepcopy(DEFAULTS),
    }


# ---------------------------------------------------------------- caching


def _hash_doc(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _hash_tree(root) -> str:
    h = hashlib.sha256()
    root = pathlib.Path(root)
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != ".complete":
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


class _Stages:
    """Content-addressed stage cache under <out>/cache."""

    def __init__(self, out_dir):
        self.cache = pathlib.Path(out_dir) / "cache"
        self.cache.mkdir(parents=True, exist_ok=True)
        self.log: list = []

    def run(self, name: str, key_doc: dict, hint: str, build):
        key = _hash_doc({"stage": name, "inputs": key_doc})
        outdir = self.cache / f"{name}-{key}"
        started = time.perf_counter()
        if (outdir / ".complete").exists():
            hit = True
        else:
            hit = False
            tmp = self.cache / f"{name}-{key}.tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            tmp.mkdir()
            try:
                build(tmp)
            except Exception as exc:
                shutil.rmtree(tmp, ignore_errors=True)
                if isinstance(exc, LungFuseError):
                    raise type(exc)(f"stage {name}: {exc} (hint: {hint})") from exc
                raise
            shutil.rmtree(outdir, ignore_errors=True)
            tmp.rename(outdir)
            (outdir / ".complete").write_text("")
        out_hash = _hash_tree(outdir)
        self.log.append({"stage": name, "key": key, "output_hash": out_hash, "cache_hit": hit})
        _say(
            f"[{name}] {'cache hit' if hit else 'built'} key={key} "
            f"({time.perf_counter() - started:.1f}s)"
        )
        return outdir


# ------------------------------------------------------------- stage work


def denoiser_scenes(n_images: int, size: int, seed: int) -> list:
    """Noise-free synthetic PET scenes for denoiser training, subtypes alternating."""
    rng = np.random.default_rng(seed)
    scene_cfg = PhantomConfig(n_patients=2, image_size=size, seed=0, noise_sigma=0.0)
    return [
        render_pet(sample_patient(rng, scene_cfg, SUBTYPES[i % 2])["geometry"], size)
        for i in range(n_images)
    ]


def _train_denoiser_stage(doc: dict, outdir) -> None:
    d = doc["denoise"]
    clean = denoiser_scenes(d["train_images"], d["train_size"], d["train_seed"])
    weights, _log = train_denoiser(clean, _train_config(doc))
    save_weights(os.path.join(outdir, "weights.json"), weights)


def _denoise_stage(dataset_dir, weights_path, outdir) -> None:
    weights = load_weights(weights_path)
    manifest = load_manifest(dataset_dir)
    for row in manifest["rows"]:
        pet = read_pgm(os.path.join(dataset_dir, row["pet"]))
        write_pgm(denoise(weights, pet), os.path.join(outdir, f"{row['id']}_pet.pgm"))


def align(fixed, moving, features: str = "gradient"):
    """Rigidly register moving onto fixed; returns (resampled moving, transform).

    The default matches gradient magnitude: CT and PET intensities do not
    correspond, but tissue boundaries do.  features="raw" matches the
    intensities themselves, for same-modality pairs.
    """
    if features == "gradient":
        t = register_rigid(gradient_magnitude(fixed), gradient_magnitude(moving))
    else:
        t = register_rigid(fixed, moving)
    return resample_bilinear(moving, t), t


def compute_fused_dir(dataset_dir, outdir, doc: dict, pet_dir=None) -> None:
    """Register (optional) and fuse every patient pair into <outdir>.

    pet_dir overrides where PET images are read from (the denoise stage
    output); default is the dataset's own noisy PET images.
    """
    f = doc["fusion"]
    rule = _fusion_rule(doc)
    manifest = load_manifest(dataset_dir)
    transforms = []
    for row in manifest["rows"]:
        ct = read_pgm(os.path.join(dataset_dir, row["ct"]))
        if pet_dir is None:
            pet = read_pgm(os.path.join(dataset_dir, row["pet"]))
        else:
            pet = read_pgm(os.path.join(pet_dir, f"{row['id']}_pet.pgm"))
        if f["register"]:
            pet, t = align(ct, pet)
        else:
            t = RigidTransform(0.0, 0.0, 0.0, 1.0)
        fused = fuse_wavelet(ct, pet, family=f["family"], levels=f["levels"], rule=rule)
        write_pgm(fused, os.path.join(outdir, f"{row['id']}_fused.pgm"))
        transforms.append(
            {
                "id": row["id"],
                "tx": t.tx,
                "ty": t.ty,
                "theta_deg": float(np.rad2deg(t.theta)),
                "scale": t.scale,
            }
        )
    write_json(os.path.join(outdir, "transforms.json"), {"rows": transforms})


def build_mmdataset(dataset_dir, fused_dir, levels: int) -> MMDataset:
    manifest = load_manifest(dataset_dir)
    table = read_table(
        os.path.join(dataset_dir, manifest["tabular"]),
        os.path.join(dataset_dir, manifest["tabular_schema"]),
    )
    by_id = {pid: i for i, pid in enumerate(table.ids)} if table.ids else None
    feats_ct, feats_fused, labels, order = [], [], [], []
    for row in manifest["rows"]:
        ct = read_pgm(os.path.join(dataset_dir, row["ct"]))
        fused = read_pgm(os.path.join(fused_dir, f"{row['id']}_fused.pgm"))
        feats_ct.append(extract_image_features(ct, levels=levels))
        feats_fused.append(extract_image_features(fused, levels=levels))
        labels.append(row["label"])
        order.append(by_id[row["tabular_row_id"]] if by_id else len(order))
    return MMDataset(
        labels=np.array(labels),
        tabular=take_rows(table, order),
        images={"ct": np.array(feats_ct), "fused": np.array(feats_fused)},
    )


def evaluate_dataset(dataset_dir, fused_dir, doc: dict) -> dict:
    """Modality comparison on one dataset; returns name -> MetricsReport."""
    cfg = classify_config_from(doc)
    ds = build_mmdataset(dataset_dir, fused_dir, cfg.levels)
    return compare_modalities(ds, seed=doc["evaluate"]["seed"], k=doc["evaluate"]["k"], cfg=cfg)


def _evaluate_stage(dataset_dir, fused_dir, doc: dict, outdir) -> None:
    results = evaluate_dataset(dataset_dir, fused_dir, doc)
    write_json(
        os.path.join(outdir, "metrics.json"),
        {
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": "pipeline-report",
            "resolved_config": doc,
            "results": {name: rep.to_dict() for name, rep in results.items()},
        },
    )
    with open(os.path.join(outdir, "comparison.txt"), "w", encoding="utf-8") as fh:
        fh.write(comparison_to_text(results))


# ------------------------------------------------------------------ runs


def run_pipeline(doc: dict, out_dir) -> dict:
    """Execute all stages into <out_dir>; returns a run summary.

    The summary's "stages" list reports cache hits for this invocation;
    the bundle written to <out_dir>/report is independent of them.
    """
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stages = _Stages(out_dir)
    t0 = time.perf_counter()

    phantom_dir = stages.run(
        "phantom",
        {"phantom": doc["phantom"]},
        "check the phantom section of the config",
        lambda d: generate(_phantom_config(doc), d),
    )
    dataset_hash = _hash_tree(phantom_dir)

    pet_dir = None
    if doc["denoise"]["enabled"]:
        weights_dir = stages.run(
            "denoise-train",
            {"denoise": doc["denoise"]},
            "check the denoise section; lower epochs or learning_rate if unstable",
            lambda d: _train_denoiser_stage(doc, d),
        )
        weights_path = weights_dir / "weights.json"
        pet_dir = stages.run(
            "denoise-apply",
            {"weights": _hash_tree(weights_dir), "dataset": dataset_hash},
            "check the denoiser weights and the dataset images",
            lambda d: _denoise_stage(phantom_dir, weights_path, d),
        )

    fused_dir = stages.run(
        "fuse",
        {
            "dataset": dataset_hash,
            "pet": None if pet_dir is None else _hash_tree(pet_dir),
            "fusion": doc["fusion"],
        },
        "check the fusion section; input images must share dimensions",
        lambda d: compute_fused_dir(phantom_dir, d, doc, pet_dir=pet_dir),
    )

    eval_dir = stages.run(
        "evaluate",
        {
            "dataset": dataset_hash,
            "fused": _hash_tree(fused_dir),
            "tabular": doc["tabular"],
            "classify": doc["classify"],
            "evaluate": doc["evaluate"],
        },
        "check the tabular/classify/evaluate sections",
        lambda d: _evaluate_stage(phantom_dir, fused_dir, doc, d),
    )

    report_dir = out_dir / "report"
    shutil.rmtree(report_dir, ignore_errors=True)
    report_dir.mkdir()
    shutil.copy2(eval_dir / "metrics.json", report_dir / "metrics.json")
    shutil.copy2(eval_dir / "comparison.txt", report_dir / "comparison.txt")
    write_json(report_dir / "resolved_config.json", doc)
    fused_out = report_dir / "fused"
    fused_out.mkdir()
    for p in sorted(pathlib.Path(fused_dir).glob("*.pgm")):
        shutil.copy2(p, fused_out / p.name)
    shutil.copy2(fused_dir / "transforms.json", fused_out / "transforms.json")
    write_json(
        report_dir / "pipeline_log.json",
        {
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": "pipeline-log",
            "stages": [
                {k: s[k] for k in ("stage", "key", "output_hash")} for s in stages.log
            ],
        },
    )
    _say(f"[report] bundle at {report_dir} ({time.perf_counter() - t0:.1f}s total)")
    return {
        "report_dir": str(report_dir),
        "stages": stages.log,
        "cache_hits": sum(1 for s in stages.log if s["cache_hit"]),
    }
