"""The pipeline settings: each one's default and the rules its value must keep.

`pipeline.resolve_config` checks a config against them naming `section.key`, and
each stage config its fields naming the field.  It imports no lungfuse module.
"""

from __future__ import annotations

import dataclasses
import math


# a rule is a test and its description
def _one_of(*names):
    return (lambda v: v in names, " or ".join(f'"{n}"' for n in names))


def _integer(least):
    return (lambda v: not isinstance(v, bool) and isinstance(v, int) and v >= least,
            f"an integer >= {least}")


_NUMBER = (lambda v: not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v),
           "a finite number")
_POSITIVE = (lambda v: v > 0, "> 0")
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
_BY_FOUR = (lambda v: v % 4 == 0, "divisible by 4")
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_SEED = _integer(0)  # numpy seeds are non-negative

# section -> key -> (default, rule, ...); the rules run in order, type first
_SETTINGS = {
    "phantom": {
        "n_patients": (60, _integer(2)),
        "image_size": (64, _integer(16), _BY_FOUR),
        "class_balance": (0.5, _NUMBER, (lambda v: 0 < v < 1, "in (0, 1)")),
        "noise_sigma": (0.02, _NUMBER, _NON_NEGATIVE),
        "registration_jitter": (3.0, _NUMBER, _NON_NEGATIVE),
        "signal_strength": (1.0, _NUMBER, _NON_NEGATIVE),
        "missing_rate": (0.0, _NUMBER, (lambda v: 0 <= v < 1, "in [0, 1)")),
        "seed": (42, _SEED),
    },
    "denoise": {
        "enabled": (True, _BOOL),
        "learning_rate": (0.001, _NUMBER, _POSITIVE),
        "batch_size": (96, _integer(1)),
        "epochs": (30, _integer(1)),
        "rng_seed": (0, _SEED),
        "noise_kind": ("gaussian", _one_of("gaussian", "poisson")),
        "noise_param": (0.1, _NUMBER),  # and noise_param_rule(noise_kind)
        "train_images": (24, _integer(8)),
        "train_size": (64, _integer(16), _BY_FOUR),
        "train_seed": (7, _SEED),
    },
    "fusion": {
        "family": ("haar", _one_of("haar", "db2")),
        "levels": (1, _integer(1)),
        "ll_weight_ct": (0.5, _NUMBER, (lambda v: 0 <= v <= 1, "in [0, 1]")),
        "detail_rule": ("max_abs", _one_of("max_abs", "average")),
        "register": (True, _BOOL),
    },
    "tabular": {
        "smote_k": (5, _integer(1)),
        "top_k": (16, _integer(1)),
    },
    "classify": {
        "model": ("mlp", _one_of("mlp", "logreg")),
        "feature_levels": (2, _integer(1)),
        "learning_rate": (0.001, _NUMBER, _POSITIVE),
        "batch_size": (96, _integer(1)),
        "epochs": (300, _integer(1)),
        "rng_seed": (0, _SEED),
        "dropout": (0.5, _NUMBER, (lambda v: 0 <= v < 1, "in [0, 1)")),
        "hidden": ([32, 16], (lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                              and all(type(w) is int and w >= 1 for w in v),
                              "a list of two positive integers")),
        "boost_learning_rate": (0.1, _NUMBER, _POSITIVE),
        "boost_max_depth": (5, _integer(1)),
        "boost_n_estimators": (100, _integer(1)),
        "logreg_lr": (0.5, _NUMBER),
        "logreg_epochs": (200, _integer(1)),
    },
    "evaluate": {
        "k": (5, _integer(2)),
        "seed": (42, _SEED),
    },
}
DEFAULTS = {s: {key: row[0] for key, row in keys.items()} for s, keys in _SETTINGS.items()}


def rules(section: str, key: str) -> tuple:
    """The rules a value of section.key must keep, in order."""
    return _SETTINGS[section][key][1:]


def noise_param_rule(kind: str) -> tuple:
    """The rule denoise.noise_param keeps under a noise kind: a count scale or a sigma."""
    test, what = _POSITIVE if kind == "poisson" else _NON_NEGATIVE
    return test, f"{what} for {kind} noise"


def check(name: str, value, rules, error) -> None:
    """Raise error, naming name, at the first rule that value breaks."""
    for test, what in rules:
        if not test(value):
            raise error(f"{name} must be {what}, got {value!r}")


def check_fields(config, error, *sections, prefix: str = "") -> None:
    """Check each field of a stage config against the setting prefix + field name of
    the sections; fields that name no setting (sub-configs) check themselves."""
    for f in dataclasses.fields(config):
        for section in (s for s in sections if prefix + f.name in _SETTINGS[s]):
            check(f.name, getattr(config, f.name), rules(section, prefix + f.name), error)
