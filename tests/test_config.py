import itertools

import pytest

from lungfuse import pipeline as pl
from lungfuse.errors import ConfigError
from lungfuse.fusion import FusionRule
from lungfuse.nnet import TrainConfig
from lungfuse.phantom import PhantomConfig

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
        FusionRule(ll_rule=f["ll_rule"], ll_weight_ct=f["ll_weight_ct"],
                   detail_rule=f["detail_rule"])
        pl.classify_config_from(doc)
    assert accepted > len(_KEYS)  # each key takes several of the values
