"""Command-line entry points.

Exit codes: 0 ok, 2 configuration or contract error, 3 data, file
format, operating-system (file access) or dead-worker error, 4 numerical failure.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import sys

import click

from . import pipeline as pl
from .denoise import check_dims, denoise as run_denoise, load_weights
from .errors import ConfigError, ContractError, DataError, NumericalError, WorkerError
from .fusion import fusion_quality, ncc
from .images import read_json, read_pgm, write_json, write_pgm
from .phantom import PhantomConfig, generate
from .tabular import apply_preprocess, fit_preprocess, read_table


def _emit(doc) -> None:
    click.echo(json.dumps(doc, indent=1, sort_keys=True))


def _config_options(fn):
    """--config and --set, resolved into the pipeline config passed as fn's first argument."""

    @click.option("--config", default=None, type=click.Path(exists=True),
                  help="pipeline config JSON (defaults used when omitted)")
    @click.option("--set", "sets", multiple=True, metavar="SECTION.KEY=VALUE",
                  help="override one config key, e.g. phantom.seed=7")
    @functools.wraps(fn)
    def wrapper(config, sets, **kwargs):
        return fn(pl.load_config(config, sets), **kwargs)

    return wrapper


@click.group()
def cli():
    """Multi-modal CT/PET fusion and classification toolkit."""


@cli.command("version")
def version_cmd():
    """Print build metadata and the default-parameter table as JSON."""
    _emit(pl.version_info())


@cli.command("phantom")
@click.option("--out", required=True, type=click.Path(), help="output dataset directory")
@_config_options
def phantom_cmd(doc, out):
    """Generate a synthetic paired CT/PET dataset with ground truth (phantom.* keys)."""
    _directory("--out", out)
    _emit(generate(PhantomConfig(**doc["phantom"]), out))


@cli.command("describe")
@click.option("--dataset", required=True, type=click.Path(exists=True))
def describe_cmd(dataset):
    """Summarize a generated dataset directory."""
    _emit(pl.describe(dataset))


def _directory(option, path, folder=None, made=True) -> None:
    """Refuse, before any work, the output path of option unless the nearest existing path
    of folder (default: path) is a directory; unless made, folder itself must be one."""
    folder = os.path.abspath(path if folder is None else folder)
    while made and not os.path.exists(folder):  # the command makes the folders it lacks
        folder = os.path.dirname(folder)
    if not os.path.isdir(folder):
        raise DataError(f"cannot write {option} {path}: {folder} is not a directory")


def _writable(*outputs) -> None:
    """_directory of the folder of each (option, path); a path of None is an output not
    asked for."""
    for option, path in outputs:
        if path is not None:
            _directory(option, path, os.path.dirname(os.path.abspath(path)), made=False)


def _image_pair(first, second):
    """The images in two files, refused unless they have one shape."""
    a, b = read_pgm(first), read_pgm(second)
    if a.shape != b.shape:
        raise DataError(f"dimension mismatch: {first} is {a.shape}, {second} is {b.shape}")
    return a, b


@cli.command("fuse")
@click.option("--ct", "ct_path", required=True, type=click.Path(exists=True))
@click.option("--pet", "pet_path", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.option("--report", "report_path", default=None, type=click.Path(),
              help="write fusion quality metrics JSON here")
@_config_options
def fuse_cmd(doc, ct_path, pet_path, out, report_path):
    """Fuse a CT image and a PET image into one image, as the fuse stage does (fusion.* keys)."""
    _writable(("--out", out), ("--report", report_path))
    ct, pet = _image_pair(ct_path, pet_path)
    pl._check_depths(doc, ("fusion.levels",), *ct.shape[::-1])
    fused, pet, _ = pl.fuse_pair(ct, pet, doc["fusion"])
    try:  # the report is made before either file is written
        quality = fusion_quality(fused, ct, pet) if report_path is not None else None
    except ContractError as exc:
        raise DataError(f"{ct_path} and {pet_path}: {exc}") from None
    write_pgm(fused, out)
    if report_path is not None:
        write_json(report_path, {**quality, "out": os.path.basename(out)})
    click.echo(f"fused image written to {out}")


@cli.command("register")
@click.option("--fixed", required=True, type=click.Path(exists=True), help="reference image")
@click.option("--moving", required=True, type=click.Path(exists=True), help="image to align")
@click.option("--out", required=True, type=click.Path(), help="transform JSON path")
@click.option("--resampled", default=None, type=click.Path(), help="write aligned image here")
@click.option("--features", default="gradient", show_default=True,
              type=click.Choice(["raw", "gradient"]),
              help="match intensities or edge strength (robust across modalities)")
def register_cmd(fixed, moving, out, resampled, features):
    """Estimate the rigid transform aligning one image to another."""
    _writable(("--out", out), ("--resampled", resampled))
    fixed_img, moving_img = _image_pair(fixed, moving)
    if features == "gradient" and min(fixed_img.shape) < 2:  # no central difference
        h, w = fixed_img.shape
        raise DataError(f"{fixed} and {moving} are {w}x{h} images; "
                        "--features gradient needs at least 2 px in each direction")
    aligned, t = pl.align(fixed_img, moving_img, features)
    doc = {"kind": "rigid-transform", **pl.transform_doc(t), "ncc": ncc(fixed_img, aligned)}
    write_json(out, doc)
    if resampled is not None:
        write_pgm(aligned, resampled)
    _emit(doc)


@cli.command("denoise-train")
@click.option("--out", required=True, type=click.Path(), help="weights JSON path")
@click.option("--images", default=None, type=click.Path(exists=True),
              help="directory of clean PGM training images (default: synthetic scenes)")
@_config_options
def denoise_train_cmd(doc, out, images):
    """Train the denoising auto-encoder (denoise.* keys) and save its weights."""
    _writable(("--out", out))
    clean = None
    if images is not None:
        paths = sorted(os.path.join(images, f) for f in os.listdir(images) if f.endswith(".pgm"))
        if not paths:
            raise DataError(f"no .pgm files in {images}")
        clean = [read_pgm(p) for p in paths]
        for p, img in zip(paths, clean):  # refused before training, naming the file
            try:
                check_dims(*img.shape)
            except ContractError as exc:
                raise DataError(f"{p}: {exc}") from None
            if img.shape != clean[0].shape:
                raise DataError(f"dimension mismatch: {p} is {img.shape}, {paths[0]} is "
                                f"{clean[0].shape}; the training images need one shape")
    log = pl._train_denoiser_stage(doc, out, clean)
    _emit({"weights": out, "epochs": len(log), "first_loss": log[0], "last_loss": log[-1]})


@cli.command("denoise-apply")
@click.option("--weights", required=True, type=click.Path(exists=True))
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
def denoise_apply_cmd(weights, in_path, out):
    """Run a trained denoiser over one image."""
    _writable(("--out", out))
    w = load_weights(weights)
    write_pgm(run_denoise(w, read_pgm(in_path)), out)
    click.echo(f"denoised image written to {out}")


@cli.command("preprocess")
@click.option("--csv", "csv_path", required=True, type=click.Path(exists=True))
@click.option("--schema", required=True, type=click.Path(exists=True))
@click.option("--out-matrix", required=True, type=click.Path(),
              help="standardized/encoded feature matrix CSV")
@click.option("--out-stats", default=None, type=click.Path(),
              help="fitted statistics JSON")
def preprocess_cmd(csv_path, schema, out_matrix, out_stats):
    """Impute, standardize and one-hot encode a clinical/genomic table."""
    _writable(("--out-matrix", out_matrix), ("--out-stats", out_stats))
    table = read_table(csv_path, schema)
    try:
        fitted = fit_preprocess(table)
    except (ContractError, DataError) as exc:  # too few rows, or a column left empty
        raise DataError(f"{csv_path}: {exc}") from None
    x = apply_preprocess(fitted, table)
    with open(out_matrix, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(fitted.feature_names) + "\n")
        for row in x:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    if out_stats is not None:
        doc = {
            "kind": "preprocess-stats",
            "feature_names": list(fitted.feature_names),
            "numeric_stats": {k: list(v) for k, v in fitted.numeric_stats.items()},
            "modes": dict(fitted.modes),
        }
        write_json(out_stats, doc)
    click.echo(f"{x.shape[0]} rows x {x.shape[1]} features written to {out_matrix}")


def _outside(dataset, out, option) -> None:
    """Refuse an output at or under the dataset, whose tree hash keys every stage."""
    root, path = pathlib.Path(dataset).resolve(), pathlib.Path(out).resolve()
    if path == root or root in path.parents:
        raise ConfigError(f"{option} {out} lies inside --dataset {dataset}; write it elsewhere")


@cli.command("evaluate")
@click.option("--dataset", required=True, type=click.Path(exists=True),
              help="dataset directory with manifest.json")
@click.option("--out", required=True, type=click.Path(),
              help="metrics report JSON path; the stage cache goes beside it")
@click.option("--inputs", default="fused,tabular", show_default=True,
              help="comma-separated modalities: ct, fused, tabular")
@_config_options
def evaluate_cmd(doc, dataset, out, inputs):
    """Cross-validated evaluation of one modality combination: run's evaluate stage on one
    input set, after its stages up to fuse if fused is one of the inputs."""
    chosen = tuple(s.strip() for s in inputs.split(",") if s.strip())
    unique = set(chosen)
    if not chosen or len(unique) < len(chosen) or not unique <= {"ct", "fused", "tabular"}:
        raise ConfigError(
            f"--inputs must name one or more of ct, fused, tabular, each once, got {inputs!r}"
        )
    _outside(dataset, out, "--out")
    folder = os.path.dirname(os.path.abspath(out))
    _directory("--out", out, folder)
    name = ",".join(chosen)
    stages = pl._Stages(folder)
    eval_dir, _, _ = pl.evaluate_stages(stages, doc, dataset, [(name, chosen)])
    report = read_json(eval_dir / "results.json", "evaluate stage results")[name]
    write_json(out, report)
    _emit({"out": out, "summary": report["summary"]})


@cli.command("compare")
@click.option("--dataset", required=True, type=click.Path(exists=True))
@click.option("--out-dir", required=True, type=click.Path(),
              help="working directory: report/ and cache/, as run writes them")
@_config_options
def compare_cmd(doc, dataset, out_dir):
    """Compare tabular-only, CT-only, fused and multimodal classifiers: run on a given dataset."""
    _outside(dataset, out_dir, "--out-dir")
    _directory("--out-dir", out_dir)
    summary = pl.run_pipeline(doc, out_dir, dataset=dataset)
    click.echo(pathlib.Path(summary["report_dir"], "comparison.txt").read_text(encoding="utf-8"))


@cli.command("run")
@click.option("--out", required=True, type=click.Path(), help="working/output directory")
@_config_options
def run_cmd(doc, out):
    """Run the full pipeline and write a report bundle."""
    _directory("--out", out)
    _emit(pl.run_pipeline(doc, out))


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        return 2
    except click.ClickException as exc:
        exc.show()
        return 2
    except (ConfigError, ContractError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (DataError, OSError, WorkerError) as exc:  # DataError includes FormatError
        click.echo(f"error: {exc}", err=True)
        return 3
    except NumericalError as exc:
        click.echo(f"error: {exc}", err=True)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
