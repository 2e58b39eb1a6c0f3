import ast
import dataclasses
import inspect
import itertools
import pathlib

import numpy as np
import pytest

from lungfuse import classify, denoise, nnet
from lungfuse import pipeline as pl
from lungfuse import settings
from lungfuse.classify import ClassifyConfig, compare_modalities, kfold_evaluate, train_mlp
from lungfuse.denoise import TrainConfig, add_noise
from lungfuse.errors import ConfigError, ContractError
from lungfuse.fusion import FusionRule, mutual_information, psnr, ssim
from lungfuse.phantom import PhantomConfig, generate
from lungfuse.tabular import BoostConfig, write_table

# values of every JSON type, on and around each setting's bounds
_BATTERY = (
    [-1, 0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 20, 64, 100, 10**6]
    + [-1.0, -0.5, -1e-9, 0.0, 1e-9, 0.001, 0.05, 0.5, 0.7, 0.999, 1.0, 1.5, 2.0, 64.0,
       float("nan"), float("inf"), float("-inf")]
    + [True, False, None, "", "x", "haar", "db2", "average", "weighted", "max_abs", "mlp",
       "logreg", "gaussian", "poisson"]
    + [[], [32, 16], [1, 1], [0, 4], [1.5, 2], [True, 2], [32, 16, 8], {}]
)
_KEYS = [(section, key) for section, keys in pl.DEFAULTS.items() for key in keys]


@pytest.mark.parametrize("kind", ["gaussian", "poisson"])
def test_every_value_resolve_config_accepts_builds_every_stage_config(kind):
    accepted = 0
    for (section, key), value in itertools.product(_KEYS, _BATTERY):
        user = {"denoise": {"noise_kind": kind}}
        user.setdefault(section, {})[key] = value
        try:
            doc = pl.resolve_config(user)
        except ConfigError:
            continue
        accepted += 1
        PhantomConfig(**doc["phantom"])
        pl._config_from(TrainConfig, doc["denoise"])
        pl._config_from(FusionRule, doc["fusion"])
        pl.classify_config_from(doc)
    assert accepted > len(_KEYS)  # each key takes several of the values


_TRAIN_KEYS = ("learning_rate", "batch_size", "epochs", "rng_seed")
# (stage config, its error, field, section, key): the setting each field is checked against
_FIELDS = (
    [(PhantomConfig, ConfigError, k, "phantom", k) for k in pl.DEFAULTS["phantom"]]
    + [(TrainConfig, ContractError, k, "denoise", k)
       for k in (*_TRAIN_KEYS, "noise_kind", "noise_param")]
    + [(BoostConfig, ContractError, k, "classify", "boost_" + k)
       for k in ("learning_rate", "max_depth", "n_estimators")]
    + [(FusionRule, ContractError, k, "fusion", k) for k in ("ll_weight_ct", "detail_rule")]
    + [(ClassifyConfig, ConfigError, k, "classify", k)
       for k in ("model", "logreg_lr", "logreg_epochs", *_TRAIN_KEYS, "hidden", "dropout")]
    + [(ClassifyConfig, ConfigError, k, "tabular", k) for k in ("top_k", "smote_k")]
)


def _accepts(call, error) -> bool:
    try:
        call()
    except error:
        return False
    return True


@pytest.mark.parametrize("cls,error,name,section,key", _FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, _, n, _, _ in _FIELDS])
def test_stage_configs_accept_what_resolve_config_accepts(cls, error, name, section, key):
    for value in _BATTERY:
        cli = _accepts(lambda: pl.resolve_config({section: {key: value}}), ConfigError)
        lib = _accepts(lambda: cls(**{name: value}), error)
        assert lib == cli, f"{cls.__name__}({name}={value!r}) against {section}.{key}"


@pytest.mark.parametrize("kind", ["gaussian", "poisson"])
def test_noise_param_follows_noise_kind_in_the_library_as_in_the_config(kind):
    img = np.full((8, 8), 0.5)
    for value in _BATTERY:
        cli = _accepts(lambda: pl.resolve_config(
            {"denoise": {"noise_kind": kind, "noise_param": value}}), ConfigError)
        assert _accepts(lambda: TrainConfig(noise_kind=kind, noise_param=value),
                        ContractError) == cli, value
        assert _accepts(lambda: add_noise(img, kind, value, rng=0), ContractError) == cli, value


def test_every_stage_config_field_is_mapped_or_a_sub_config():
    mapped = {(cls, name) for cls, _, name, _, _ in _FIELDS}
    sub_configs = {"boost"}
    for cls in {cls for cls, *_ in _FIELDS}:
        names = {f.name for f in dataclasses.fields(cls)} - sub_configs
        assert {(cls, n) for n in names} <= mapped, cls.__name__


def test_a_float_patient_count_is_a_config_error_naming_it(tmp_path):
    with pytest.raises(ConfigError) as exc:
        generate(PhantomConfig(n_patients=3.0), tmp_path)
    assert str(exc.value) == "n_patients must be an integer >= 2, got 3.0"


def test_settings_imports_no_lungfuse_module():
    tree = ast.parse(pathlib.Path(settings.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("lungfuse")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("lungfuse") for a in node.names)


def test_library_defaults_are_the_pipeline_defaults():
    # a Python caller that builds a stage config with no arguments computes
    # what the pipeline computes under the default settings
    doc = pl.resolve_config(None)
    assert PhantomConfig(**doc["phantom"]) == PhantomConfig()
    assert pl._config_from(TrainConfig, doc["denoise"]) == TrainConfig()
    assert pl._config_from(FusionRule, doc["fusion"]) == FusionRule()
    assert pl.classify_config_from(doc) == ClassifyConfig()
    for fn in (compare_modalities, kfold_evaluate):
        params = inspect.signature(fn).parameters
        assert params["seed"].default == doc["evaluate"]["seed"], fn.__name__
        assert params["k"].default == doc["evaluate"]["k"], fn.__name__


def test_removed_library_options_are_gone():
    img = np.full((8, 8), 0.5)
    assert not hasattr(classify, "MLPSpec")
    assert not hasattr(classify, "_views")
    assert not hasattr(denoise, "ConvNetSpec")
    assert not hasattr(denoise.NetWeights, "params")
    assert not hasattr(denoise.init_weights(), "spec")
    assert not hasattr(nnet, "TrainConfig")
    for call in (lambda: ClassifyConfig(levels=2),
                 lambda: ClassifyConfig(train=TrainConfig()),
                 lambda: ClassifyConfig(mlp=None),
                 lambda: train_mlp(np.eye(4), ["a", "b", "a", "b"], spec=None),
                 lambda: denoise.init_weights(None, seed=0),  # the spec argument is gone
                 lambda: nnet.Adam([img]).step([img], [img]),  # one array, not lists
                 lambda: FusionRule(ll_rule="average"),
                 lambda: psnr(img, img, peak=2.0),
                 lambda: ssim(img, img, window=4),
                 lambda: mutual_information(img, img, bins=32),
                 lambda: write_table("t.csv", None)):  # schema, label and id column required
        with pytest.raises(TypeError):
            call()
    model = train_mlp(np.eye(4), ["a", "b", "a", "b"], ClassifyConfig(epochs=1))
    assert not hasattr(model, "spec")


def test_train_mlp_with_no_config_trains_the_classify_defaults():
    # ClassifyConfig's 300 epochs, not the denoiser's 30
    x = np.random.default_rng(3).normal(size=(12, 3))
    y = ["a", "b"] * 6
    alone, default = train_mlp(x, y), train_mlp(x, y, ClassifyConfig())
    assert [p.tobytes() for p in alone.params] == [p.tobytes() for p in default.params]
    assert [p.tobytes() for p in alone.params] != [
        p.tobytes() for p in train_mlp(x, y, ClassifyConfig(epochs=30)).params]
