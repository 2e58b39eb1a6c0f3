"""Shared network plumbing: activations, init, Adam, training config."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .settings import check, check_fields, noise_param_rule

# Adam's moment decay rates and denominator guard (Kingma & Ba, ICLR 2015)
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 96  # clamped to dataset size
    epochs: int = 30
    rng_seed: int = 0
    noise_kind: str = "gaussian"  # gaussian | poisson
    noise_param: float = 0.1  # sigma for gaussian, count scale for poisson

    def __post_init__(self):
        check_fields(self, ContractError, "denoise")
        check("noise_param", self.noise_param, [noise_param_rule(self.noise_kind)], ContractError)


def relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


def sigmoid(x):
    """Logistic function, split by sign so exp never overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(z, out=None):
    """Softmax over the last axis; out, which may be z, receives it if given.

    The row max is taken column by column: over a few classes np.maximum on
    whole columns vectorises across rows where a reduce does not, and a max
    is exact in any order.
    """
    top = z[..., :1]
    for j in range(1, z.shape[-1]):
        top = np.maximum(top, z[..., j : j + 1])
    e = np.subtract(z, top, out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def glorot_uniform(rng, shape, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, shape)


class Adam:
    """Adam with bias correction; updates parameters in place."""

    def __init__(self, params, lr=0.001):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self._tmp = [(np.empty_like(p), np.empty_like(p)) for p in params]

    def step(self, params, grads) -> None:
        if len(params) != len(self.m):
            raise ContractError("parameter count changed between Adam steps")
        self.t += 1
        c1 = 1.0 - _BETA1**self.t
        c2 = 1.0 - _BETA2**self.t
        for p, g, m, v, (a, b) in zip(params, grads, self.m, self.v, self._tmp):
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps) after the moment
            # updates, each operation as written and in that order
            m *= _BETA1
            m += np.multiply(1.0 - _BETA1, g, out=a)
            v *= _BETA2
            np.multiply(1.0 - _BETA2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.multiply(self.lr, np.divide(m, c1, out=a), out=a)
            np.sqrt(np.divide(v, c2, out=b), out=b)
            b += _EPS
            p -= np.divide(a, b, out=a)
