"""The three workloads: inputs from a seed, one timed pass, output checks.

Each workload class has
  setup(work_dir)      builds the inputs the library receives (timed as set-up),
  run_pass(work_dir)   one timed unit of work, returning what it produced,
  check(produced)      verifies the outputs; returns (attempted, failed).
Quality numbers found while checking are kept in `self.quality`.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import re

import numpy as np

from summary import MODALITIES, median

F1_TOL = 1e-9  # F1 is built from ratios of counts; only float rounding may differ


def sub_seeds(seed: int, n: int) -> list[int]:
    """n independent generator seeds derived from the workload seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def read_pgm(path) -> np.ndarray:
    """Independent reader for the P5, maxval-65535, big-endian files lungfuse writes."""
    data = pathlib.Path(path).read_bytes()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+65535\s", data)
    if m is None:
        raise ValueError(f"{path}: not a 16-bit binary PGM")
    w, h = int(m.group(1)), int(m.group(2))
    payload = data[m.end() : m.end() + 2 * w * h]
    return np.frombuffer(payload, dtype=">u2").reshape(h, w) / 65535.0


def tree_hash(root) -> str:
    h = hashlib.sha256()
    root = pathlib.Path(root)
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def registration_errors(transforms: list, truth: dict) -> list:
    """(px, deg, signed scale) error of each transform against the inverse recorded jitter.

    The pipeline resamples PET with the estimated transform to bring it onto
    CT, so the ideal estimate is the inverse of the jitter that moved PET
    off CT (the convention the phantom tests fix).
    """
    from lungfuse.fusion import RigidTransform

    by_id = {p["id"]: p["jitter"] for p in truth["patients"]}
    out = []
    for t in transforms:
        j = by_id[t["id"]]
        ideal = RigidTransform(j["tx"], j["ty"], math.radians(j["theta_deg"]), j["scale"]).inverse()
        out.append(
            (
                math.hypot(t["tx"] - ideal.tx, t["ty"] - ideal.ty),
                abs(t["theta_deg"] - math.degrees(ideal.theta)),
                t["scale"] - ideal.scale,
            )
        )
    return out


def fused_pair_ok(fused_path, ct_path, transform: dict) -> bool:
    """Fused image finite, in [0, 1], of the CT's shape; transform finite."""
    fused = read_pgm(fused_path)
    ct = read_pgm(ct_path)
    return (
        fused.shape == ct.shape
        and bool(np.all(np.isfinite(fused)))
        and float(fused.min()) >= 0.0
        and float(fused.max()) <= 1.0
        and all(math.isfinite(transform[k]) for k in ("tx", "ty", "theta_deg", "scale"))
        and transform["scale"] > 0.0
    )


def check_fused_dir(dataset_dir, fused_dir) -> tuple[int, list]:
    """Returns (pairs failing the checks, transforms) for one fused directory."""
    dataset_dir, fused_dir = pathlib.Path(dataset_dir), pathlib.Path(fused_dir)
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    transforms = json.loads((fused_dir / "transforms.json").read_text())["rows"]
    by_id = {t["id"]: t for t in transforms}
    bad = 0
    for row in manifest["rows"]:
        t = by_id.get(row["id"])
        path = fused_dir / f"{row['id']}_fused.pgm"
        if t is None or not path.exists() or not fused_pair_ok(path, dataset_dir / row["ct"], t):
            bad += 1
    return bad, transforms


def registration_quality(pairs) -> dict:
    """Median errors over every (transforms, truth.json path) pair given."""
    errs = []
    for transforms, truth_path in pairs:
        errs += registration_errors(transforms, json.loads(pathlib.Path(truth_path).read_text()))
    return {
        "reg_err_px_p50": median([e[0] for e in errs]),
        "reg_err_deg_p50": median([e[1] for e in errs]),
        "reg_scale_err_p50": median([abs(e[2]) for e in errs]),
    }


def f1_check(f1: dict, fold_hashes: dict, expected: dict | None, first: dict | None) -> int:
    """Number of the four k-fold runs whose F1 or fold hash is wrong.

    A run is wrong if its F1 is not a finite value in [0, 1], if the four
    runs did not share one fold assignment, if it differs from the value
    recorded for this seed, or if it differs from the first pass of this
    benchmark run (the computation is deterministic).
    """
    shared = len(set(fold_hashes.values())) == 1
    failed = 0
    for m in MODALITIES:
        ok = m in f1 and math.isfinite(f1[m]) and 0.0 <= f1[m] <= 1.0 and shared
        if ok and expected is not None:
            ok = abs(f1[m] - expected["f1"][m]) <= F1_TOL and fold_hashes[m] == expected["fold_hash"]
        if ok and first is not None:
            ok = f1[m] == first["f1"][m] and fold_hashes[m] == first["fold_hash"]
        failed += not ok
    return failed


def f1_of_report(results: dict) -> tuple[dict, dict]:
    """(F1 per modality, fold hash per modality) from a report's results section."""
    f1 = {m: r["summary"]["f1_macro"]["mean"] for m, r in results.items()}
    return f1, {m: r["fold_hash"] for m, r in results.items()}


class Fuse:
    """compute_fused_dir with registration on: 64 px pairs plus some 96 px pairs."""

    name = "fuse"
    sizes = ((64, 4), (96, 2))  # (image size, pairs)

    def __init__(self, seed: int, expected: dict):
        self.seeds = sub_seeds(seed, len(self.sizes))
        self.quality: dict = {}
        self.first = None  # no recorded values: registration error is reported, not gated
        self.first_digest = None

    def setup(self, work_dir) -> None:
        from lungfuse import phantom, pipeline

        self.doc = pipeline.resolve_config(None)  # default fusion section: register on
        self.datasets = []
        for (size, n), s in zip(self.sizes, self.seeds):
            d = pathlib.Path(work_dir) / f"phantom{size}"
            phantom.generate(phantom.PhantomConfig(n_patients=n, image_size=size, seed=s), d)
            self.datasets.append(d)

    def run_pass(self, work_dir) -> list:
        from lungfuse import pipeline

        outs = []
        for d in self.datasets:
            out = pathlib.Path(work_dir) / f"fused-{d.name}"
            out.mkdir()
            pipeline.compute_fused_dir(d, out, self.doc)
            outs.append(out)
        return outs

    def ops_per_pass(self) -> int:
        return sum(n for _, n in self.sizes)

    def check(self, outs) -> tuple[int, int]:
        failed, transforms = 0, []
        for d, out in zip(self.datasets, outs):
            bad, rows = check_fused_dir(d, out)
            failed += bad
            transforms.append((rows, d / "truth.json"))
        digest = "".join(tree_hash(o) for o in outs)
        if self.first_digest is None:
            self.first_digest = digest
            self.quality = registration_quality(transforms)
        elif digest != self.first_digest:
            failed = self.ops_per_pass()  # a repeat pass must reproduce every byte
        return self.ops_per_pass(), failed


class Evaluate:
    """evaluate_dataset: the four-modality 5-fold comparison on unregistered fusions."""

    name = "evaluate"
    n_patients = 120
    missing_rate = 0.1  # imputation does real work
    class_balance = 0.4  # SMOTE does real work

    def __init__(self, seed: int, expected: dict):
        self.seed = seed
        self.expected = expected.get(str(seed))
        self.first = None
        self.quality: dict = {}

    def setup(self, work_dir) -> None:
        from lungfuse import phantom, pipeline

        work_dir = pathlib.Path(work_dir)
        self.doc = pipeline.resolve_config(
            {
                "phantom": {
                    "n_patients": self.n_patients,
                    "missing_rate": self.missing_rate,
                    "class_balance": self.class_balance,
                    "seed": self.seed,
                },
                "fusion": {"register": False},
            }
        )
        self.dataset = work_dir / "phantom"
        self.fused = work_dir / "fused"
        self.fused.mkdir()
        phantom.generate(phantom.PhantomConfig(**self.doc["phantom"]), self.dataset)
        pipeline.compute_fused_dir(self.dataset, self.fused, self.doc)

    def run_pass(self, work_dir) -> dict:
        from lungfuse import pipeline

        return pipeline.evaluate_dataset(self.dataset, self.fused, self.doc)

    def ops_per_pass(self) -> int:
        return len(MODALITIES)

    def check(self, results) -> tuple[int, int]:
        f1, hashes = f1_of_report({m: r.to_dict() for m, r in results.items()})
        failed = f1_check(f1, hashes, self.expected, self.first)
        if self.first is None:
            bad, transforms = check_fused_dir(self.dataset, self.fused)
            failed += bad
            self.first = {"f1": f1, "fold_hash": hashes[MODALITIES[0]]}
            self.quality = {
                "f1_macro.multimodal": f1["multimodal"],
                "f1_macro.fused": f1["fused"],
                **registration_quality([(transforms, self.dataset / "truth.json")]),
            }
            return self.ops_per_pass() + len(transforms), failed
        return self.ops_per_pass(), failed


class Study:
    """A cold run_pipeline of the default config, then warm reruns into the same directory."""

    name = "study"
    n_patients = 16
    stages = 5

    def __init__(self, seed: int, expected: dict):
        self.seed = seed
        self.expected = expected.get(str(seed))
        self.quality: dict = {}
        self.first = None
        self.cold_report = None

    def setup(self, work_dir) -> None:
        from lungfuse import pipeline

        self.doc = pipeline.resolve_config(
            {"phantom": {"n_patients": self.n_patients, "seed": self.seed}}
        )
        self.out = pathlib.Path(work_dir) / "study"
        self.out.mkdir()

    def run_pass(self, work_dir) -> dict:
        from lungfuse import pipeline

        return pipeline.run_pipeline(self.doc, self.out)

    def ops_per_pass(self) -> int:
        return self.stages

    def check(self, summary) -> tuple[int, int]:
        """Cold run: each stage's output checked; warm rerun: each stage a hit, same bundle."""
        report = self.out / "report"
        if self.cold_report is None:
            self.cold_report = tree_hash(report)
            phantom_key = next(s["key"] for s in summary["stages"] if s["stage"] == "phantom")
            phantom_dir = self.out / "cache" / f"phantom-{phantom_key}"
            bad_pairs, transforms = check_fused_dir(phantom_dir, report / "fused")
            metrics = json.loads((report / "metrics.json").read_text())
            f1, hashes = f1_of_report(metrics["results"])
            bad_f1 = f1_check(f1, hashes, self.expected, None)
            self.first = {"f1": f1, "fold_hash": hashes[MODALITIES[0]]}
            self.quality = {
                "f1_macro.multimodal": f1["multimodal"],
                "f1_macro.fused": f1["fused"],
                **registration_quality([(transforms, phantom_dir / "truth.json")]),
            }
            stages_built = sum(not s["cache_hit"] for s in summary["stages"])
            failed = (self.stages - stages_built) + (bad_pairs > 0) + (bad_f1 > 0)
            return self.stages, min(failed, self.stages)
        if tree_hash(report) != self.cold_report:
            return self.stages, self.stages
        return self.stages, self.stages - summary["cache_hits"]


WORKLOADS = {w.name: w for w in (Fuse, Evaluate, Study)}
