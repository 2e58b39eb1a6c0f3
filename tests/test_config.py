import itertools

import numpy as np
import pytest

from lungfuse import pipeline as pl
from lungfuse.classify import ClassifyConfig, train_mlp
from lungfuse.denoise import ConvNetSpec
from lungfuse.errors import ConfigError
from lungfuse.fusion import FusionRule, mutual_information, psnr, ssim
from lungfuse.nnet import TrainConfig
from lungfuse.phantom import PhantomConfig
from lungfuse.tabular import write_table

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
        d, f = doc["denoise"], doc["fusion"]
        PhantomConfig(**doc["phantom"])
        TrainConfig(**{k: d[k] for k in ("learning_rate", "batch_size", "epochs", "rng_seed",
                                         "noise_kind", "noise_param")})
        FusionRule(ll_weight_ct=f["ll_weight_ct"], detail_rule=f["detail_rule"])
        pl.classify_config_from(doc)
    assert accepted > len(_KEYS)  # each key takes several of the values


def test_library_defaults_are_the_pipeline_defaults():
    # a Python caller that builds a stage config with no arguments computes
    # what the pipeline computes under the default settings
    doc = pl.resolve_config(None)
    f = doc["fusion"]
    assert PhantomConfig(**doc["phantom"]) == PhantomConfig()
    assert pl._train_config(doc["denoise"]) == TrainConfig()
    assert FusionRule(f["ll_weight_ct"], f["detail_rule"]) == FusionRule()
    assert pl.classify_config_from(doc) == ClassifyConfig()


def test_removed_library_options_are_gone():
    img = np.full((8, 8), 0.5)
    for call in (lambda: ClassifyConfig(levels=2),
                 lambda: ConvNetSpec(channels=((1, 8), (8, 16), (16, 16), (16, 8), (8, 1))),
                 lambda: FusionRule(ll_rule="average"),
                 lambda: psnr(img, img, peak=2.0),
                 lambda: ssim(img, img, window=4),
                 lambda: mutual_information(img, img, bins=32),
                 lambda: write_table("t.csv", None)):  # schema, label and id column required
        with pytest.raises(TypeError):
            call()
    model = train_mlp(np.eye(4), ["a", "b", "a", "b"], cfg=TrainConfig(epochs=1))
    assert not hasattr(model, "spec")
