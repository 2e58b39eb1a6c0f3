"""End-to-end orchestration: dataset, denoising, fusion, evaluation, report.

Stage outputs live under <out>/cache in directories keyed by a content
hash of the stage's configuration, its inputs' bytes, the package version
and source code, and the numpy and BLAS builds.  A rerun of the same code
with an unchanged config is all cache hits, which rebuild the report bundle
byte for byte, and changed code rebuilds every stage.  Each entry's
.complete marker holds the hash of its outputs, and an entry whose files
no longer match it is rebuilt.  Entries and the bundle are built apart and
published by one rename, so runs may share <out> at the same time.  Nothing
time-dependent is written to the bundle; wall-clock timing, hit/miss status
and the denoiser's loss go to stderr only.

The report bundle contains metrics.json (all modality comparisons plus
the fully resolved config), comparison.txt, resolved_config.json, the
fused images, and pipeline_log.json (the dataset's tree hash, stage keys
and output hashes).
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import platform
import shutil
import sys
import time

import numpy as np

from . import __version__
from .classify import (
    COMPARISON,
    FEATURE_MIN_SIDE,
    REPORT_SCHEMA_VERSION,
    ClassifyConfig,
    MMDataset,
    compare_modalities,
    comparison_to_text,
    extract_image_features,
    fingerprint,
    stratified_folds,
)
from .denoise import TrainConfig, denoise, load_weights, save_weights, train_denoiser
from .errors import ConfigError, DataError, LungFuseError, WorkerError
from .fusion import FusionRule, RigidTransform, fuse_wavelet, register_rigid, resample_bilinear
from .images import gradient_magnitude, read_json, read_pgm, write_json, write_pgm
from .parallel import parallel_map
from .phantom import (
    PhantomConfig, SUBTYPES, class_labels, generate, load_manifest, render_pet, sample_patient,
)
from .settings import DEFAULTS, check, noise_param_rule, rules
from .tabular import BOOST_MIN_ROWS, BoostConfig, class_index, read_table, smote_rows, take_rows
from .wavelet import max_levels

__all__ = [
    "DEFAULTS",
    "CONFIG_SCHEMA_VERSION",
    "load_config",
    "resolve_config",
    "run_pipeline",
    "version_info",
    "align",
    "fuse_pair",
    "transform_doc",
    "denoiser_scenes",
    "compute_fused_dir",
    "evaluate_stages",
    "evaluate_dataset",
    "classify_config_from",
    "build_mmdataset",
    "describe",
]

CONFIG_SCHEMA_VERSION = 1
# the BLAS numpy calls, which with numpy's version keys every stage: another build can
# change an output's last bits
_BLAS = [np.show_config(mode="dicts")["Build Dependencies"]["blas"].get(key)
         for key in ("name", "version")]


def _override(pair: str) -> tuple:
    """`section.key=value` as (section, {key: value}); the value is JSON, or else the string."""
    if "=" not in pair:
        raise ConfigError(f'override {pair!r} is not of the form section.key=value')
    path, raw = pair.split("=", 1)
    parts = path.split(".")
    if len(parts) != 2 or not all(parts):
        raise ConfigError(f'override path {path!r} is not of the form section.key')
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return parts[0], {parts[1]: value}


def resolve_config(user: dict | None, sets=()) -> dict:
    """Defaults overlaid with the user document's sections, then with each of sets
    (`section.key=value` strings); unknown sections and keys rejected, then every value
    checked against its rules."""
    if not isinstance(user, (dict, type(None))):
        raise ConfigError(f"config must be a JSON object, got {type(user).__name__}")
    doc = copy.deepcopy(DEFAULTS)
    for section, body in [*(user or {}).items(), *map(_override, sets)]:
        if section not in doc:
            raise ConfigError(f'unknown config section "{section}"; expected one of {sorted(doc)}')
        if not isinstance(body, dict):
            raise ConfigError(f'config section "{section}" must be an object')
        for key, value in body.items():
            if key not in doc[section]:
                raise ConfigError(f'unknown config key "{key}" in section "{section}"; '
                                  f"expected one of {sorted(doc[section])}")
            doc[section][key] = value
    _validate(doc)
    return doc


def load_config(path=None, sets=()) -> dict:
    """resolve_config of the JSON document at path (the defaults when None) and of sets."""
    user = {}
    if path is not None:
        try:
            user = read_json(path, f"config {path}", ConfigError)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
    return resolve_config(user, sets)


def _config_from(cls, section: dict, prefix: str = ""):
    """The stage config whose fields are the section's settings prefix + field name."""
    return cls(**{f.name: section[prefix + f.name] for f in dataclasses.fields(cls)})


def classify_config_from(doc: dict) -> ClassifyConfig:
    c = doc["classify"]
    boost = _config_from(BoostConfig, c, "boost_")
    return _config_from(ClassifyConfig, {**doc["tabular"], **c, "boost": boost})


def _validate(doc: dict) -> None:
    """Check every value against its settings rules, naming its section.key, so bad values
    fail before any work.  The stage configs check their fields against the same rules."""
    for section, keys in DEFAULTS.items():
        for key in keys:
            check(f"{section}.{key}", doc[section][key], rules(section, key), ConfigError)
    d = doc["denoise"]
    check("denoise.noise_param", d["noise_param"], [noise_param_rule(d["noise_kind"])], ConfigError)


def _check_depths(doc: dict, keys, width: int, height: int) -> None:
    """Refuse a wavelet depth, each of keys a section.key, that width x height images
    cannot take."""
    most = max_levels(width, height)
    for name in keys:
        section, key = name.split(".")
        if doc[section][key] > most:
            raise ConfigError(f"{name} must be at most {most} for {width}x{height} images, "
                              f"got {doc[section][key]}")


# the dataset images each input reads
_IMAGES = {"ct": ("ct",), "pet": ("pet",), "fused": ("ct", "pet"), "tabular": ()}


def _preflight(doc: dict, dataset, rows) -> set:
    """Refuse, before any stage runs, rows (compare_modalities's (name, input set) pairs)
    that name no input or one _IMAGES lacks, then what their inputs cannot be evaluated on,
    of phantom.* or a given dataset: its images under FEATURE_MIN_SIDE, a wavelet depth
    the images cannot take, folds the classifiers cannot train on (2 classes by
    class_index, SMOTE's rule by smote_rows and the booster's BOOST_MIN_ROWS on a
    balanced fold), then a table that _manifest_table refuses, given the folds when
    tabular is an input, and an image the inputs read that _dataset_image refuses.
    Returns the rows' inputs."""
    for name, chosen in rows:
        if not chosen or not set(chosen) <= _IMAGES.keys():
            raise ConfigError(f"input set {name!r} must name one or more of "
                              f"{', '.join(_IMAGES)}, got {list(chosen)}")
    inputs = {m for _, chosen in rows for m in chosen}
    keys = sorted({key for m in inputs for key in _IMAGES[m]})  # ct before pet
    images = bool(keys)
    k = doc["evaluate"]["k"]
    if dataset is None:
        p = doc["phantom"]
        size, labels = p["image_size"], class_labels(p["n_patients"], p["class_balance"])
        error, names = ConfigError, (f"phantom.n_patients={p['n_patients']}, phantom.class_balance"
                                     f"={p['class_balance']} and evaluate.k={k} leave")
    else:
        manifest = load_manifest(dataset)
        size, labels = manifest["image_size"], [row["label"] for row in manifest["rows"]]
        error, names = DataError, f"evaluate.k={k} on dataset {dataset} leaves"
        if images and size < FEATURE_MIN_SIDE:
            raise DataError(f"dataset {dataset} has {size}x{size} images; the image features "
                            f"need at least {FEATURE_MIN_SIDE}x{FEATURE_MIN_SIDE}")
    _check_depths(doc, ["fusion.levels"] * ("fused" in inputs)
                  + ["classify.feature_levels"] * images, size, size)
    try:
        class_index(labels)
        folds = stratified_folds(labels, k, doc["evaluate"]["seed"])
        for test in folds:
            balanced = smote_rows(np.delete(labels, test))
            if balanced < BOOST_MIN_ROWS:
                raise DataError(f"SMOTE balances a training fold to {balanced} rows; "
                                f"the booster needs at least {BOOST_MIN_ROWS}")
    except DataError as exc:
        raise error(f"{names} folds the evaluate stage cannot train on: {exc}") from None
    if dataset is not None:
        _manifest_table(dataset, manifest, folds if "tabular" in inputs else ())
        for row in manifest["rows"]:
            for key in keys:
                _dataset_image(dataset, manifest, row, key)
    return inputs


def version_info() -> dict:
    return {
        "version": __version__,
        "config_schema_version": CONFIG_SCHEMA_VERSION,
        "report_schema_version": REPORT_SCHEMA_VERSION,
        "defaults": copy.deepcopy(DEFAULTS),
    }


# ---------------------------------------------------------------- caching


def _hash_tree(root, pattern: str = "*") -> str:
    """sha256 of the files under root matching pattern, .complete aside, in path order."""
    h = hashlib.sha256()
    root = pathlib.Path(root)
    for p in sorted(root.rglob(pattern)):
        if p.is_file() and p.name != ".complete":
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


@functools.cache
def _source_hash() -> str:
    return _hash_tree(pathlib.Path(__file__).parent, "*.py")


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _intact(entry) -> bool:
    """Whether a cache entry's .complete marker holds the hash of its tree."""
    try:
        return (entry / ".complete").read_bytes() == _hash_tree(entry).encode()
    except OSError:
        return False


def _gone(host: str, pid: str) -> bool:
    """Whether the process that named a build directory has ended: known only
    for this host's, and only on POSIX, where signal 0 tests a pid."""
    try:
        if os.name == "posix" and host == platform.node():
            os.kill(int(pid), 0)
    except ProcessLookupError:
        return True
    except (ValueError, OverflowError, OSError):  # no pid, or alive under another user
        pass
    return False


def _build_apart(dest: pathlib.Path, build, keep=lambda: False) -> bool:
    """Build in a directory of this process's own, then rename it to dest, so runs
    sharing a directory never see half-built trees.  What dest held is deleted
    first, unless keep() chooses it: then the new tree is dropped and this returns False.
    The build directories that killed runs left beside dest are deleted first."""
    for old in dest.parent.glob(".*@*@*@*"):  # no entry's name starts with "." or holds "@"
        if _gone(*old.name.split("@")[1:3]):
            shutil.rmtree(old, ignore_errors=True)
    tmp = dest.with_name(f".{dest.name}@{platform.node()}@{os.getpid()}@{os.urandom(4).hex()}")
    tmp.mkdir(parents=True)
    try:
        build(tmp)
        while True:
            try:
                tmp.rename(dest)
                return True
            except OSError:
                if not dest.exists():
                    raise
            if keep():
                return False
            with contextlib.suppress(FileNotFoundError):  # another run may move it first
                shutil.rmtree(dest.rename(tmp.with_name(tmp.name + "-old")))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


class _Stages:
    """Content-addressed stage cache under <out>/cache, made when a stage first builds."""

    def __init__(self, out_dir):
        self.cache = pathlib.Path(out_dir) / "cache"
        self.log: list = []

    def run(self, name: str, key_doc: dict, hint: str, build):
        """The stage's output directory and the hash of its tree, built unless cached."""
        code = {"version": __version__, "sources": _source_hash(), "numpy": np.__version__,
                "blas": _BLAS}
        key = fingerprint([{"stage": name, "inputs": key_doc, "code": code}])
        outdir = self.cache / f"{name}-{key}"
        started = time.perf_counter()
        hit = _intact(outdir)
        if not hit:
            if (outdir / ".complete").exists():
                _say(f"[{name}] cache entry {outdir.name} fails its hash check; rebuilding")

            def build_marked(d):
                build(d)
                (d / ".complete").write_text(_hash_tree(d))

            try:  # another run may publish the same entry first; then it is a hit
                hit = not _build_apart(outdir, build_marked, keep=lambda: _intact(outdir))
            except Exception as exc:
                if isinstance(exc, LungFuseError):
                    # a dead worker is not about the stage's settings
                    tail = "" if isinstance(exc, WorkerError) else f" (hint: {hint})"
                    raise type(exc)(f"stage {name}: {exc}{tail}") from exc
                raise
        out_hash = (outdir / ".complete").read_text()
        self.log.append({"stage": name, "key": key, "output_hash": out_hash, "cache_hit": hit})
        status = "cache hit" if hit else "built"
        _say(f"[{name}] {status} key={key} ({time.perf_counter() - started:.1f}s)")
        return outdir, out_hash


# ------------------------------------------------------------- stage work


def denoiser_scenes(n_images: int, size: int, seed: int) -> list:
    """Noise-free synthetic PET scenes for denoiser training, subtypes alternating."""
    rng = np.random.default_rng(seed)
    scene_cfg = PhantomConfig(n_patients=2, image_size=size, seed=0, noise_sigma=0.0)
    return [
        render_pet(sample_patient(rng, scene_cfg, SUBTYPES[i % 2])["geometry"], size)
        for i in range(n_images)
    ]


def _train_denoiser_stage(doc: dict, weights_path, clean=None) -> list:
    """Train on clean (default: the config's synthetic scenes), save the
    weights to weights_path and return the per-epoch loss."""
    d = doc["denoise"]
    if clean is None:
        clean = denoiser_scenes(d["train_images"], d["train_size"], d["train_seed"])
    weights, log = train_denoiser(clean, _config_from(TrainConfig, d))
    _say(f"[denoise-train] {len(log)} epochs, loss {log[0]:.4f} -> {log[-1]:.4f}")
    save_weights(weights_path, weights)
    return log


def _dataset_image(dataset_dir, manifest: dict, row: dict, key: str):
    """A manifest row's "ct" or "pet" image, refused, naming its file, unless it is a
    PGM of the manifest's image_size square."""
    path = os.path.join(dataset_dir, row[key])
    img, want = read_pgm(path), (manifest["image_size"],) * 2
    if img.shape != want:
        raise DataError(f"{path} has shape {img.shape}, not the manifest's image_size {want}")
    return img


def _denoise_stage(dataset_dir, weights_path, outdir) -> None:
    weights = load_weights(weights_path)
    manifest = load_manifest(dataset_dir)
    for row in manifest["rows"]:
        pet = _dataset_image(dataset_dir, manifest, row, "pet")
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


def fuse_pair(ct, pet, fusion: dict):
    """Align pet onto ct when fusion["register"] is on, then fuse them by the
    section's wavelet and rules.

    Returns (fused image, the PET that was fused, transform).
    """
    if fusion["register"]:
        pet, t = align(ct, pet)
    else:
        t = RigidTransform(0.0, 0.0, 0.0, 1.0)
    rule = _config_from(FusionRule, fusion)
    fused = fuse_wavelet(ct, pet, family=fusion["family"], levels=fusion["levels"], rule=rule)
    return fused, pet, t


def transform_doc(t: RigidTransform) -> dict:
    """A transform as written to JSON, with its angle in degrees."""
    return {"tx": t.tx, "ty": t.ty, "theta_deg": float(np.rad2deg(t.theta)), "scale": t.scale}


def compute_fused_dir(dataset_dir, outdir, doc: dict, pet_dir=None) -> None:
    """Register (optional) and fuse every patient pair into <outdir>.

    pet_dir overrides where PET images are read from (the denoise stage
    output); default is the dataset's own noisy PET images.  With
    registration on, the pairs are shared out over worker processes.
    """
    f = doc["fusion"]
    manifest = load_manifest(dataset_dir)

    def fuse_row(row):
        ct = _dataset_image(dataset_dir, manifest, row, "ct")
        if pet_dir is None:
            pet = _dataset_image(dataset_dir, manifest, row, "pet")
        else:
            pet = read_pgm(os.path.join(pet_dir, f"{row['id']}_pet.pgm"))
        fused, _, t = fuse_pair(ct, pet, f)
        write_pgm(fused, os.path.join(outdir, f"{row['id']}_fused.pgm"))
        return {"id": row["id"], **transform_doc(t)}

    # an unregistered pair takes about a millisecond, less than a worker costs
    rows = manifest["rows"]
    transforms = parallel_map(fuse_row, rows) if f["register"] else [fuse_row(r) for r in rows]
    write_json(os.path.join(outdir, "transforms.json"), {"rows": transforms})


def _manifest_table(dataset_dir, manifest: dict, folds=()):
    """The dataset's table as read and, for each manifest row, the index of its
    row in it (the row's own index when the table has no id column), refused
    unless each row has the manifest row's label and each column a value in them
    and in the training rows of each of folds (test indices into the manifest's rows)."""
    path = os.path.join(dataset_dir, manifest["tabular"])
    table = read_table(path, os.path.join(dataset_dir, manifest["tabular_schema"]))
    rows = manifest["rows"]
    if table.ids is None and table.n_rows < len(rows):
        raise DataError(f"{path} has {table.n_rows} rows and no id column for the manifest's "
                        f"{len(rows)} rows")
    ids = [row["tabular_row_id"] for row in rows] if table.ids is None else table.ids
    by_id = {pid: i for i, pid in enumerate(ids)}
    index = [by_id.get(row["tabular_row_id"]) for row in rows]
    for row, i in zip(rows, index):
        if i is None:
            raise DataError(f"{path}: tabular_row_id {row['tabular_row_id']!r} is not in the table")
        if table.labels[i] != row["label"]:
            raise DataError(f"{path}: row {i + 1} is labelled {table.labels[i]!r}, but its "
                            f"manifest row {row['id']!r} says {row['label']!r}")
    trains = [("the manifest's rows", index)] + [
        (f"fold {j + 1}'s training rows", np.delete(index, test)) for j, test in enumerate(folds)]
    for where, train in trains:
        for col, seen in zip(table.columns, ~np.isnan(table.values[train]).all(axis=0)):
            if not seen:
                raise DataError(f"{path}: column {col.name!r} has no value in {where}")
    return table, index


def describe(dataset_dir) -> dict:
    """Deterministic summary of a dataset directory, read as the stages read it;
    the table's counts are of the file's own rows."""
    manifest = load_manifest(dataset_dir)
    rows = manifest["rows"]
    labels = [r["label"] for r in rows]
    ct_means, pet_means = zip(*([float(np.mean(_dataset_image(dataset_dir, manifest, r, key)))
                                 for key in ("ct", "pet")] for r in rows))
    table, _ = _manifest_table(dataset_dir, manifest)
    missing = {c.name: int(n) for c, n in zip(table.columns, np.isnan(table.values).sum(axis=0))}
    return {
        "kind": "phantom-summary",
        "n_patients": len(rows),
        "classes": {label: labels.count(label) for label in dict.fromkeys(labels)},
        "image_size": manifest["image_size"],
        "ct_mean_intensity": float(np.mean(ct_means)),
        "pet_mean_intensity": float(np.mean(pet_means)),
        "tabular_rows": table.n_rows,
        "tabular_columns": len(table.columns),
        "missing_values": missing,
        "total_missing": int(sum(missing.values())),
    }


def build_mmdataset(dataset_dir, fused_dir, levels: int, images=("ct", "fused")) -> MMDataset:
    """The dataset's table and the features of the named images: "fused"
    from fused_dir, any other name from the manifest's rows."""
    manifest = load_manifest(dataset_dir)
    table = take_rows(*_manifest_table(dataset_dir, manifest))
    feats = {name: [] for name in images}
    for row in manifest["rows"]:
        for name in images:
            img = (read_pgm(os.path.join(fused_dir, f"{row['id']}_fused.pgm")) if name == "fused"
                   else _dataset_image(dataset_dir, manifest, row, name))
            feats[name].append(extract_image_features(img, levels=levels))
    return MMDataset(labels=np.array([row["label"] for row in manifest["rows"]]),
                     tabular=table,
                     images={name: np.array(f) for name, f in feats.items()})


def evaluate_dataset(dataset_dir, fused_dir, doc: dict, rows=COMPARISON) -> dict:
    """compare_modalities's rows on one dataset, reading only the images they
    name; returns name -> MetricsReport."""
    images = dict.fromkeys(m for _, inputs in rows for m in inputs if m != "tabular")
    ds = build_mmdataset(dataset_dir, fused_dir, doc["classify"]["feature_levels"], images)
    return compare_modalities(ds, doc["evaluate"]["seed"], doc["evaluate"]["k"],
                              classify_config_from(doc), rows)


def _evaluate_stage(dataset_dir, fused_dir, doc: dict, rows, outdir) -> None:
    """The rows' results.json and comparison.txt; the bundle's metrics.json adds the config."""
    results = evaluate_dataset(dataset_dir, fused_dir, doc, rows)
    write_json(os.path.join(outdir, "results.json"),
               {name: rep.to_dict() for name, rep in results.items()})
    with open(os.path.join(outdir, "comparison.txt"), "w", encoding="utf-8") as fh:
        fh.write(comparison_to_text(results))


# ------------------------------------------------------------------ runs


# the classify settings each head does not read, which its evaluate stage key leaves out
_UNREAD = {"mlp": ("logreg_lr", "logreg_epochs"),
           "logreg": ("learning_rate", "batch_size", "epochs", "rng_seed", "hidden", "dropout")}


def evaluate_stages(stages: _Stages, doc: dict, dataset=None, rows=COMPARISON):
    """The phantom stage, or the given dataset keyed by its tree hash in its place; when
    a row (compare_modalities's (name, input set) pairs) names "fused", denoise-train and
    denoise-apply (when denoise.enabled) and fuse; then evaluate.  _preflight refuses
    first, before any directory, what the rows' inputs cannot be evaluated on.
    Returns (evaluate dir, dataset hash, fused dir), the last None without "fused"."""
    inputs = _preflight(doc, dataset, rows)
    if dataset is None:
        dataset, dataset_hash = stages.run(
            "phantom",
            {"phantom": doc["phantom"]},
            "check the phantom section of the config",
            lambda d: generate(PhantomConfig(**doc["phantom"]), d),
        )
    else:
        dataset_hash = _hash_tree(dataset)

    fused_dir = fused_hash = pet_dir = pet_hash = None
    if "fused" in inputs:
        if doc["denoise"]["enabled"]:
            weights_dir, weights_hash = stages.run(
                "denoise-train",
                {"denoise": doc["denoise"]},
                "check the denoise section; lower epochs or learning_rate if unstable",
                lambda d: _train_denoiser_stage(doc, d / "weights.json"),
            )
            pet_dir, pet_hash = stages.run(
                "denoise-apply",
                {"weights": weights_hash, "dataset": dataset_hash},
                "check the denoiser weights and the dataset images",
                lambda d: _denoise_stage(dataset, weights_dir / "weights.json", d),
            )
        fused_dir, fused_hash = stages.run(
            "fuse",
            {"dataset": dataset_hash, "pet": pet_hash, "fusion": doc["fusion"]},
            "check the fusion section; a flat CT or PET image has no correlation signal",
            lambda d: compute_fused_dir(dataset, d, doc, pet_dir=pet_dir),
        )
    c = doc["classify"]
    eval_dir, _ = stages.run(
        "evaluate",
        {"dataset": dataset_hash, "fused": fused_hash, "rows": rows, "tabular": doc["tabular"],
         "classify": {k: v for k, v in c.items() if k not in _UNREAD[c["model"]]},
         "evaluate": doc["evaluate"]},
        "check the tabular/classify/evaluate sections",
        lambda d: _evaluate_stage(dataset, fused_dir, doc, rows, d),
    )
    return eval_dir, dataset_hash, fused_dir


def run_pipeline(doc: dict, out_dir, dataset=None) -> dict:
    """Execute all stages into <out_dir>; returns a run summary.

    With dataset, that directory takes the phantom stage's place.  The
    summary's "stages" list reports cache hits for this invocation; the
    bundle written to <out_dir>/report is independent of them.
    """
    t0 = time.perf_counter()
    out_dir = pathlib.Path(out_dir)
    stages = _Stages(out_dir)
    eval_dir, dataset_hash, fused_dir = evaluate_stages(stages, doc, dataset)
    unmarked = shutil.ignore_patterns(".complete")

    def assemble(d):
        shutil.copyfile(eval_dir / "comparison.txt", d / "comparison.txt")
        results = read_json(eval_dir / "results.json", "evaluate stage results")
        write_json(d / "metrics.json", {"schema_version": REPORT_SCHEMA_VERSION,
                                        "kind": "pipeline-report", "resolved_config": doc,
                                        "results": results})
        write_json(d / "resolved_config.json", doc)
        shutil.copytree(fused_dir, d / "fused", ignore=unmarked)
        log = [{k: s[k] for k in ("stage", "key", "output_hash")} for s in stages.log]
        write_json(d / "pipeline_log.json", {"schema_version": REPORT_SCHEMA_VERSION,
                                             "kind": "pipeline-log", "dataset": dataset_hash,
                                             "stages": log})

    report_dir = out_dir / "report"
    _build_apart(report_dir, assemble)
    _say(f"[report] bundle at {report_dir} ({time.perf_counter() - t0:.1f}s total)")
    return {
        "report_dir": str(report_dir),
        "stages": stages.log,
        "cache_hits": sum(1 for s in stages.log if s["cache_hit"]),
    }
