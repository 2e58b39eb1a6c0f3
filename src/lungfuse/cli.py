"""Command-line entry points.

Exit codes: 0 ok, 2 configuration or contract error, 3 data, file
format, operating-system (file access) or dead-worker error, 4 numerical failure.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

import click
import numpy as np

from . import pipeline as pl
from .classify import kfold_evaluate
from .denoise import denoise as run_denoise, load_weights, save_weights, train_denoiser
from .errors import ConfigError, ContractError, DataError, NumericalError, WorkerError
from .fusion import FusionRule, fuse_wavelet, fusion_quality, ncc
from .images import read_pgm, write_json, write_pgm
from .phantom import describe, generate
from .tabular import apply_preprocess, fit_preprocess, read_table


def _emit(doc) -> None:
    click.echo(json.dumps(doc, indent=1, sort_keys=True))


@click.group()
def cli():
    """Multi-modal CT/PET fusion and classification toolkit."""


@cli.command("version")
def version_cmd():
    """Print build metadata and the default-parameter table as JSON."""
    _emit(pl.version_info())


@cli.command("phantom")
@click.option("--n", default=60, show_default=True, help="number of patients")
@click.option("--size", default=64, show_default=True, help="image size in pixels")
@click.option("--seed", default=42, show_default=True)
@click.option("--out", required=True, type=click.Path(), help="output dataset directory")
@click.option("--balance", default=0.5, show_default=True, help="fraction of adenocarcinoma")
@click.option("--noise-sigma", default=0.02, show_default=True)
@click.option("--jitter", default=3.0, show_default=True, help="max CT/PET offset in px")
@click.option("--signal", default=1.0, show_default=True, help="subtype signal strength")
@click.option("--missing-rate", default=0.0, show_default=True)
def phantom_cmd(n, size, seed, out, balance, noise_sigma, jitter, signal, missing_rate):
    """Generate a synthetic paired CT/PET dataset with ground truth."""
    phantom = dict(
        n_patients=n, image_size=size, class_balance=balance, noise_sigma=noise_sigma,
        registration_jitter=jitter, signal_strength=signal, missing_rate=missing_rate, seed=seed,
    )
    doc = pl.resolve_config({"phantom": phantom})
    _emit(generate(pl._phantom_config(doc), out))


@cli.command("describe")
@click.option("--dataset", required=True, type=click.Path(exists=True))
def describe_cmd(dataset):
    """Summarize a generated dataset directory."""
    _emit(describe(dataset))


def _parse_ll_rule(text: str):
    if text == "average":
        return "average", 0.5
    if text.startswith("weighted:"):
        try:
            return "weighted", float(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad --ll-rule weight in {text!r}") from None
    raise ConfigError(f'--ll-rule must be "average" or "weighted:W", got {text!r}')


_DETAIL_RULES = {"maxabs": "max_abs", "average": "average"}


@cli.command("fuse")
@click.option("--ct", "ct_path", required=True, type=click.Path(exists=True))
@click.option("--pet", "pet_path", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.option("--family", default="haar", show_default=True, type=click.Choice(["haar", "db2"]))
@click.option("--levels", default=1, show_default=True)
@click.option("--ll-rule", default="average", show_default=True, help='"average" or "weighted:W"')
@click.option(
    "--detail-rule",
    default="maxabs",
    show_default=True,
    type=click.Choice(sorted(_DETAIL_RULES)),
)
@click.option("--register", "do_register", default="on", show_default=True,
              type=click.Choice(["on", "off"]), help="rigidly align PET to CT first")
@click.option("--report", "report_path", default=None, type=click.Path(),
              help="write fusion quality metrics JSON here")
def fuse_cmd(ct_path, pet_path, out, family, levels, ll_rule, detail_rule, do_register, report_path):
    """Fuse a CT image and a PET image into one image."""
    ct = read_pgm(ct_path)
    pet = read_pgm(pet_path)
    ll, weight = _parse_ll_rule(ll_rule)
    rule = FusionRule(ll_rule=ll, ll_weight_ct=weight, detail_rule=_DETAIL_RULES[detail_rule])
    if do_register == "on":
        pet, _ = pl.align(ct, pet)
    fused = fuse_wavelet(ct, pet, family=family, levels=levels, rule=rule)
    write_pgm(fused, out)
    if report_path is not None:
        doc = fusion_quality(fused, ct, pet)
        doc["out"] = os.path.basename(out)
        write_json(report_path, doc)
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
    fixed_img = read_pgm(fixed)
    aligned, t = pl.align(fixed_img, read_pgm(moving), features)
    doc = {
        "kind": "rigid-transform",
        "tx": t.tx,
        "ty": t.ty,
        "theta_deg": float(np.rad2deg(t.theta)),
        "scale": t.scale,
        "ncc": ncc(fixed_img, aligned),
    }
    write_json(out, doc)
    if resampled is not None:
        write_pgm(aligned, resampled)
    _emit(doc)


@cli.command("denoise-train")
@click.option("--out", required=True, type=click.Path(), help="weights JSON path")
@click.option("--images", default=None, type=click.Path(exists=True),
              help="directory of clean PGM training images (default: synthetic scenes)")
@click.option("--n-images", default=24, show_default=True)
@click.option("--size", default=64, show_default=True)
@click.option("--train-seed", default=7, show_default=True, help="seed for synthetic scenes")
@click.option("--lr", default=0.001, show_default=True)
@click.option("--batch-size", default=96, show_default=True)
@click.option("--epochs", default=30, show_default=True)
@click.option("--seed", default=0, show_default=True, help="weight init / shuffling seed")
@click.option("--noise-kind", default="gaussian", show_default=True,
              type=click.Choice(["gaussian", "poisson"]))
@click.option("--noise-param", default=0.1, show_default=True)
def denoise_train_cmd(out, images, n_images, size, train_seed, lr, batch_size, epochs, seed,
                      noise_kind, noise_param):
    """Train the denoising auto-encoder and save its weights."""
    denoise = dict(
        learning_rate=lr, batch_size=batch_size, epochs=epochs, rng_seed=seed,
        noise_kind=noise_kind, noise_param=noise_param, train_images=n_images, train_size=size,
        train_seed=train_seed,
    )
    doc = pl.resolve_config({"denoise": denoise})
    if images is not None:
        paths = sorted(
            os.path.join(images, f) for f in os.listdir(images) if f.endswith(".pgm")
        )
        if not paths:
            raise DataError(f"no .pgm files in {images}")
        clean = [read_pgm(p) for p in paths]
    else:
        clean = pl.denoiser_scenes(n_images, size, train_seed)
    weights, log = train_denoiser(clean, pl._train_config(doc))
    save_weights(out, weights)
    _emit({"weights": out, "epochs": len(log), "first_loss": log[0], "last_loss": log[-1]})


@cli.command("denoise-apply")
@click.option("--weights", required=True, type=click.Path(exists=True))
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
def denoise_apply_cmd(weights, in_path, out):
    """Run a trained denoiser over one image."""
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
    table = read_table(csv_path, schema)
    fitted = fit_preprocess(table)
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


def _fused_dir(dataset, fused_dir, work_dir, doc) -> str:
    """The given --fused-dir, or <work_dir>/fused computed now by the pipeline."""
    if fused_dir is None:
        fused_dir = os.path.join(work_dir, "fused")
        os.makedirs(fused_dir, exist_ok=True)
        pl.compute_fused_dir(dataset, fused_dir, doc)
    return fused_dir


@cli.command("evaluate")
@click.option("--dataset", required=True, type=click.Path(exists=True),
              help="dataset directory with manifest.json")
@click.option("--out", required=True, type=click.Path(), help="metrics report JSON path")
@click.option("--fused-dir", default=None, type=click.Path(exists=True),
              help="reuse precomputed fused images (default: register+fuse now)")
@click.option("--config", default=None, type=click.Path(exists=True))
@click.option("--set", "sets", multiple=True, help="override, e.g. classify.model=logreg")
@click.option("--inputs", default="fused,tabular", show_default=True,
              help="comma-separated modalities: ct, fused, tabular")
def evaluate_cmd(dataset, out, fused_dir, config, sets, inputs):
    """Cross-validated evaluation of one modality combination."""
    doc = pl.load_config(config, sets)
    fused_dir = _fused_dir(dataset, fused_dir, os.path.dirname(os.path.abspath(out)), doc)
    cfg = pl.classify_config_from(doc)
    ds = pl.build_mmdataset(dataset, fused_dir, cfg.levels)
    chosen = tuple(s.strip() for s in inputs.split(",") if s.strip())
    report = kfold_evaluate(
        ds, inputs=chosen, k=doc["evaluate"]["k"], cfg=cfg, seed=doc["evaluate"]["seed"]
    )
    write_json(out, report.to_dict())
    _emit({"out": out, "summary": report.to_dict()["summary"]})


@cli.command("compare")
@click.option("--dataset", required=True, type=click.Path(exists=True))
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--fused-dir", default=None, type=click.Path(exists=True))
@click.option("--config", default=None, type=click.Path(exists=True))
@click.option("--set", "sets", multiple=True)
def compare_cmd(dataset, out_dir, fused_dir, config, sets):
    """Compare tabular-only, CT-only, fused and multimodal classifiers."""
    doc = pl.load_config(config, sets)
    os.makedirs(out_dir, exist_ok=True)
    fused_dir = _fused_dir(dataset, fused_dir, out_dir, doc)
    pl._evaluate_stage(dataset, fused_dir, doc, out_dir)
    click.echo(pathlib.Path(out_dir, "comparison.txt").read_text(encoding="utf-8"))


@cli.command("run")
@click.option("--config", default=None, type=click.Path(exists=True),
              help="pipeline config JSON (defaults used when omitted)")
@click.option("--out", required=True, type=click.Path(), help="working/output directory")
@click.option("--set", "sets", multiple=True, help="override, e.g. phantom.seed=7")
def run_cmd(config, out, sets):
    """Run the full pipeline and write a report bundle."""
    summary = pl.run_pipeline(pl.load_config(config, sets), out)
    _emit(summary)


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
