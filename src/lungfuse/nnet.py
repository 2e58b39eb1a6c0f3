"""The math both networks share: activations, Glorot init, Adam on one
parameter array, and the layout of parameter views in that array."""

from __future__ import annotations

import numpy as np

# Adam's moment decay rates and denominator guard (Kingma & Ba, ICLR 2015)
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


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


def views(buf, shapes) -> list:
    """Consecutive reshaped views of a buffer's last axis, one per shape,
    each keeping the buffer's leading axes."""
    out, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(buf[..., start : start + size].reshape(buf.shape[:-1] + tuple(shape)))
        start += size
    return out


class Adam:
    """Adam with bias correction on one parameter array of any shape, which
    it updates in place; a network keeps its parameters as views of it."""

    def __init__(self, p, lr=0.001):
        self.lr = lr
        self.t = 0
        self.m, self.v = np.zeros_like(p), np.zeros_like(p)
        self._tmp = np.empty_like(p), np.empty_like(p)

    def step(self, p, g) -> None:
        self.t += 1
        c1 = 1.0 - _BETA1**self.t
        c2 = 1.0 - _BETA2**self.t
        m, v, (a, b) = self.m, self.v, self._tmp
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
        np.subtract(p, np.divide(a, b, out=a), out=p)  # a list p is refused, not rebound
