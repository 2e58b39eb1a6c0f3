"""Synthetic paired CT/PET dataset generator with exact ground truth.

Each patient is an analytic scene: a bright body ellipse with two dark
lung ellipses and one tumor blob in the CT; a smooth metabolic glow
with a hotspot over the tumor in the PET.  The PET scene is rendered at
a recorded rigid jitter of the CT geometry, so registration has a known
answer without any resampling error.  Subtype signal is planted in the
tumor texture (CT), the hotspot intensity and extent (PET), and a
subset of the tabular columns; signal_strength scales all three.

The lung edge is shaped so that the clean CT crosses 0.35 exactly on
the geometric lung boundary: the truth masks match that threshold
applied inside the body, as test_segmenter_recovers_truth_masks checks.

A dataset directory contains:
    images/<id>_ct.pgm, images/<id>_pet.pgm      noisy inputs
    truth/<id>_pet_clean.pgm, truth/<id>_lungs.pgm
    tabular.csv, tabular.schema.json
    manifest.json   rows {id, ct, pet, tabular_row_id, label}
    truth.json      per-patient geometry, jitter, plant parameters
    meta.json       resolved config echo
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError, in_file
from .fusion import RigidTransform
from .images import read_json, write_json, write_pgm
from .nnet import sigmoid
from .settings import check_fields
from .tabular import ColumnSpec, TabularDataset, write_table

__all__ = [
    "PhantomConfig",
    "SUBTYPES",
    "class_labels",
    "generate",
    "render_ct",
    "render_pet",
    "mask_from_geometry",
    "apply_point",
    "sample_patient",
    "load_manifest",
]

SUBTYPES = ("adenocarcinoma", "squamous")

_MANIFEST_VERSION = 1


@dataclass(frozen=True)
class PhantomConfig:
    n_patients: int = 60
    image_size: int = 64  # divisible by 4
    class_balance: float = 0.5  # fraction of adenocarcinoma
    noise_sigma: float = 0.02
    registration_jitter: float = 3.0  # max |tx|, |ty| in px
    signal_strength: float = 1.0
    missing_rate: float = 0.0
    seed: int = 42

    def __post_init__(self):
        check_fields(self, ConfigError, "phantom")


def _grid(size):
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    return xx, yy


def _edist(xx, yy, center, axes, phi=0.0):
    """Normalized radial distance to a rotated ellipse (1.0 = boundary)."""
    dx, dy = xx - center[0], yy - center[1]
    ca, sa = math.cos(phi), math.sin(phi)
    u = (ca * dx + sa * dy) / axes[0]
    v = (-sa * dx + ca * dy) / axes[1]
    return np.hypot(u, v)


def apply_point(t: RigidTransform, size: int, p):
    """Forward-map a point the way resampling moves image content."""
    c = (size - 1) / 2.0
    dx, dy = p[0] - c, p[1] - c
    ca, sa = math.cos(t.theta), math.sin(t.theta)
    return [
        t.scale * (ca * dx - sa * dy) + c + t.tx,
        t.scale * (sa * dx + ca * dy) + c + t.ty,
    ]


def render_ct(geom: dict, size: int) -> np.ndarray:
    """Noise-free CT scene from a truth geometry record."""
    xx, yy = _grid(size)
    body = _edist(xx, yy, geom["body_center"], geom["body_axes"])
    img = 0.05 + 0.80 * sigmoid((1.0 - body) / 0.035)
    for lung in geom["lungs"]:
        d = _edist(xx, yy, lung["center"], lung["axes"])
        # depth 1.0 puts the 0.35 threshold crossing exactly at d = 1
        img -= 1.0 * sigmoid((1.0 - d) / 0.056)
    tx, ty = geom["tumor_center"]
    sig2 = geom["tumor_sigma"] ** 2
    tex = geom["texture"]
    ux, uy = tex["direction"]
    grating = 1.0 + tex["amp"] * np.cos(
        2.0 * math.pi * (ux * (xx - tx) + uy * (yy - ty)) / tex["wavelength"] + tex["phase"]
    )
    img += geom["tumor_amp"] * np.exp(-((xx - tx) ** 2 + (yy - ty) ** 2) / (2.0 * sig2)) * grating
    return np.clip(img, 0.0, 1.0)


def render_pet(geom: dict, size: int, hotspot: bool = True) -> np.ndarray:
    """Noise-free PET scene (jitter already baked into the geometry)."""
    xx, yy = _grid(size)
    pet = geom["pet"]
    d = _edist(xx, yy, pet["glow_center"], pet["glow_axes"], pet["glow_phi"])
    # edge slope matches the CT body edge so cross-modal registration
    # sees the same boundary profile in both images
    img = 0.06 + pet["glow_amp"] * sigmoid((1.0 - d) / 0.035)
    for lung in pet["lungs"]:
        # air-filled lung takes up less tracer; also anchors rotation
        dl = _edist(xx, yy, lung["center"], lung["axes"], pet["glow_phi"])
        img -= 0.12 * sigmoid((1.0 - dl) / 0.056)
    if hotspot:
        hx, hy = pet["hotspot_center"]
        img += pet["hotspot_amp"] * np.exp(
            -((xx - hx) ** 2 + (yy - hy) ** 2) / (2.0 * pet["hotspot_sigma2"])
        )
    return np.clip(img, 0.0, 1.0)


def mask_from_geometry(geom: dict, size: int) -> np.ndarray:
    """Boolean lung mask: interiors of the two lung ellipses."""
    xx, yy = _grid(size)
    mask = np.zeros((size, size), dtype=bool)
    for lung in geom["lungs"]:
        mask |= _edist(xx, yy, lung["center"], lung["axes"]) <= 1.0
    return mask


def sample_patient(rng, cfg: PhantomConfig, subtype: str) -> dict:
    """Draw one patient's geometry, jitter and plant parameters."""
    size = cfg.image_size
    s = cfg.signal_strength
    is_squamous = subtype == "squamous"
    cx = size / 2.0 + rng.uniform(-2.0, 2.0)
    cy = size / 2.0 + rng.uniform(-2.0, 2.0)
    body_axes = [size * 0.42 * rng.uniform(0.97, 1.03), size * 0.36 * rng.uniform(0.97, 1.03)]
    lungs = []
    for side in (-1, 1):
        lungs.append(
            {
                "center": [
                    cx + side * size * 0.17,
                    cy - size * 0.02 + side * size * 0.01,
                ],
                "axes": [
                    size * 0.11 * rng.uniform(0.95, 1.05),
                    size * 0.20 * rng.uniform(0.95, 1.05),
                ],
            }
        )
    lung = lungs[int(rng.integers(2))]
    tumor_center = [
        lung["center"][0] + rng.uniform(-0.15, 0.15) * lung["axes"][0],
        lung["center"][1] + rng.uniform(-0.30, 0.30) * lung["axes"][1],
    ]
    tumor_sigma = max(1.8, 0.034 * size)
    angle = rng.uniform(0.0, math.pi)
    blend = min(s, 1.0)
    texture = {
        # the grating frequency carries the CT subtype signal
        "wavelength": 7.0 - 4.0 * blend if is_squamous else 7.0,
        "amp": 0.45,
        "direction": [math.cos(angle), math.sin(angle)],
        "phase": rng.uniform(0.0, 2.0 * math.pi),
    }
    jitter = {
        "tx": rng.uniform(-cfg.registration_jitter, cfg.registration_jitter),
        "ty": rng.uniform(-cfg.registration_jitter, cfg.registration_jitter),
        "theta_deg": rng.uniform(-2.0, 2.0),
        "scale": rng.uniform(0.97, 1.03),
    }
    t = RigidTransform(jitter["tx"], jitter["ty"], math.radians(jitter["theta_deg"]),
                       jitter["scale"])
    glow_center = apply_point(t, size, [cx, cy])
    hotspot_center = apply_point(t, size, tumor_center)
    boost = s if is_squamous else 0.0
    pet = {
        "glow_center": glow_center,
        "glow_axes": [body_axes[0] * t.scale, body_axes[1] * t.scale],
        "glow_phi": t.theta,
        "lungs": [
            {
                "center": apply_point(t, size, lung["center"]),
                "axes": [lung["axes"][0] * t.scale, lung["axes"][1] * t.scale],
            }
            for lung in lungs
        ],
        # higher overall uptake for squamous: the subtype signal that
        # survives low-pass fusion into every region of the fused image
        "glow_amp": 0.34 * (1.0 + 0.08 * boost),
        "hotspot_center": hotspot_center,
        "hotspot_amp": 0.45 * (1.0 + 0.20 * boost),
        "hotspot_sigma2": 12.0 * (size / 64.0) ** 2 * (1.0 + 0.40 * boost),
    }
    return {
        "subtype": subtype,
        "jitter": jitter,
        "geometry": {
            "body_center": [cx, cy],
            "body_axes": body_axes,
            "lungs": lungs,
            "tumor_center": tumor_center,
            "tumor_sigma": tumor_sigma,
            "tumor_amp": 0.35,
            "texture": texture,
            "pet": pet,
        },
    }


_GENE_SHIFTS = (1.6, 1.2, 0.9)  # applied to gene_00..gene_02 for squamous

_SMOKING = ("never", "former", "current")
_SEX = ("female", "male")


def _patient_tabular(rng, cfg: PhantomConfig, subtype: str):
    """One clinical + genomic row, categories as their indices."""
    s = cfg.signal_strength
    y = 1.0 if subtype == "squamous" else 0.0
    blend = min(s, 1.0)
    base = np.array([0.45, 0.35, 0.20]) if y == 0 else np.array([0.15, 0.35, 0.50])
    probs = (1.0 - blend) * np.full(3, 1.0 / 3.0) + blend * base
    probs = probs / probs.sum()
    row = [
        float(rng.normal(63.0, 9.0) + 3.0 * s * y),  # age
        float(rng.integers(2)),  # sex
        float(rng.choice(3, p=probs)),  # smoking
        float(max(0.0, rng.normal(18.0, 9.0) + 16.0 * s * y)),  # pack_years
        float(rng.integers(0, 3)),  # ecog
        float(rng.normal(26.0, 4.0)),  # bmi
    ]
    for gi in range(10):
        shift = _GENE_SHIFTS[gi] * s * y if gi < len(_GENE_SHIFTS) else 0.0
        row.append(float(rng.normal(0.0, 1.0) + shift))
    return row


def _tabular_columns():
    cols = [
        ColumnSpec("age", "numeric"),
        ColumnSpec("sex", "categorical", _SEX),
        ColumnSpec("smoking", "categorical", _SMOKING),
        ColumnSpec("pack_years", "numeric"),
        ColumnSpec("ecog", "numeric"),
        ColumnSpec("bmi", "numeric"),
    ]
    cols.extend(ColumnSpec(f"gene_{gi:02d}", "numeric") for gi in range(10))
    return cols


def class_labels(n_patients: int, class_balance: float) -> list:
    """The patients' subtypes before generate shuffles them: a class_balance
    share of adenocarcinoma, rounded, and at least one patient of each."""
    n_adeno = min(max(round(n_patients * class_balance), 1), n_patients - 1)
    return [SUBTYPES[0]] * n_adeno + [SUBTYPES[1]] * (n_patients - n_adeno)


def generate(cfg: PhantomConfig, out_dir) -> dict:
    """Write a complete dataset directory; returns a small summary.

    Fully deterministic: one RNG stream in a fixed draw order, so the
    same config reproduces every byte.
    """
    rng = np.random.default_rng(cfg.seed)
    size = cfg.image_size
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "truth"), exist_ok=True)

    subtypes = class_labels(cfg.n_patients, cfg.class_balance)
    rng.shuffle(subtypes)

    rows, labels, ids, patients, manifest_rows = [], [], [], [], []
    for i, subtype in enumerate(subtypes):
        pid = f"pt{i:04d}"
        truth = sample_patient(rng, cfg, subtype)
        geom = truth["geometry"]
        ct = np.clip(render_ct(geom, size) + rng.normal(0.0, cfg.noise_sigma, (size, size)), 0.0, 1.0)
        pet_clean = render_pet(geom, size)
        pet = np.clip(pet_clean + rng.normal(0.0, cfg.noise_sigma, (size, size)), 0.0, 1.0)
        ct_rel = f"images/{pid}_ct.pgm"
        pet_rel = f"images/{pid}_pet.pgm"
        clean_rel = f"truth/{pid}_pet_clean.pgm"
        mask_rel = f"truth/{pid}_lungs.pgm"
        write_pgm(ct, os.path.join(out_dir, ct_rel))
        write_pgm(pet, os.path.join(out_dir, pet_rel))
        write_pgm(pet_clean, os.path.join(out_dir, clean_rel))
        write_pgm(mask_from_geometry(geom, size).astype(np.float64), os.path.join(out_dir, mask_rel))
        rows.append(_patient_tabular(rng, cfg, subtype))
        labels.append(subtype)
        ids.append(pid)
        truth.update({"id": pid, "pet_clean": clean_rel, "lung_mask": mask_rel})
        patients.append(truth)
        manifest_rows.append(
            {"id": pid, "ct": ct_rel, "pet": pet_rel, "tabular_row_id": pid, "label": subtype}
        )

    if cfg.missing_rate > 0:
        for row in rows:
            for j in range(len(row)):
                if rng.uniform() < cfg.missing_rate:
                    row[j] = np.nan

    table = TabularDataset(_tabular_columns(), np.array(rows), labels, ids)
    write_table(
        os.path.join(out_dir, "tabular.csv"),
        table,
        os.path.join(out_dir, "tabular.schema.json"),
        label_column="subtype",
        id_column="patient",
    )
    write_json(
        os.path.join(out_dir, "manifest.json"),
        {
            "schema_version": _MANIFEST_VERSION,
            "kind": "phantom-manifest",
            "image_size": size,
            "tabular": "tabular.csv",
            "tabular_schema": "tabular.schema.json",
            "rows": manifest_rows,
        },
    )
    write_json(
        os.path.join(out_dir, "truth.json"),
        {
            "schema_version": _MANIFEST_VERSION,
            "kind": "phantom-truth",
            "patients": patients,
        },
    )
    write_json(
        os.path.join(out_dir, "meta.json"),
        {
            "schema_version": _MANIFEST_VERSION,
            "kind": "phantom-meta",
            "config": asdict(cfg),
        },
    )
    counts = {s: subtypes.count(s) for s in SUBTYPES}
    return {"dir": str(out_dir), "n_patients": cfg.n_patients, "classes": counts}


_STRING = (lambda v: isinstance(v, str), "a string")
# relative, with no '..' part: the dataset's tree hash, which keys every stage, covers the file
_PATH = (lambda v: isinstance(v, str) and v != "" and "\0" not in v and not os.path.isabs(v)
         and ".." not in re.split(r"[/\\]", v), "a relative path with no '..' part or NUL")
# the stages write <id>_pet.pgm and <id>_fused.pgm into their own entries
_ID = (lambda v: isinstance(v, str) and re.fullmatch(r"[^/\\\0]+", v) is not None,
       "a non-empty file name with no '/', '\\' or NUL")
_FIELDS = {"tabular": _PATH, "tabular_schema": _PATH,
           "image_size": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
           "rows": (lambda v: isinstance(v, list) and v and all(isinstance(r, dict) for r in v),
                    "a non-empty list of objects")}
_ROW_FIELDS = {"id": _ID, "label": _STRING, "ct": _PATH, "pet": _PATH,
               "tabular_row_id": _STRING}


def _check_fields(obj: dict, fields: dict, where: str) -> None:
    for key, (test, what) in fields.items():
        if key not in obj or not test(obj[key]):
            got = f"{obj[key]!r:.60}" if key in obj else "nothing"
            raise FormatError(f"manifest {where}{key} must be {what}, got {got}")


def load_manifest(dataset_dir) -> dict:
    """The dataset's manifest, every field that a reader uses checked; a fault names it."""
    path = os.path.join(dataset_dir, "manifest.json")
    if not os.path.exists(path):
        raise DataError(f"manifest not found: {path}")
    with in_file(path):
        doc = read_json(path, "manifest")
        if not isinstance(doc, dict) or doc.get("kind") != "phantom-manifest":
            raise FormatError("not a phantom manifest")
        _check_fields(doc, _FIELDS, "")
        first = {}  # (key, value) -> the first row that names it
        for i, row in enumerate(doc["rows"]):
            _check_fields(row, _ROW_FIELDS, f"rows[{i}].")
            for key in ("id", "tabular_row_id"):
                j = first.setdefault((key, row[key]), i)
                if j != i:
                    raise FormatError(f"manifest rows[{i}] repeats {key} {row[key]!r} "
                                      f"of rows[{j}]")
    return doc
