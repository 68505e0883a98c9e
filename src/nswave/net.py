"""From-scratch differentiable layers: strided 1D/2D convolutions with
periodic or zero padding, average pooling, activations, and the Nadam
optimizer.

Data layout is channel-last with an explicit batch axis: (B, N, C) in 1D
and (B, N1, N2, C) in 2D, float64 throughout.  Layers hold parameters and
gradient accumulators; per-call intermediates travel in explicit cache
objects so a layer instance can appear at several points of a model and
stays safe for concurrent forward passes over shared parameters.

Convolution semantics (1D):

    z[b, i, c'] = sum_{j<w} sum_c W[j, c, c'] x[b, (i*s + off + j) mod N, c] + b[c']

with zero fill instead of the modulus in zero-padding mode, and output
length N' = N // s.  `off` (base_offset) lets the inverse-transform layer
look backward without negative-index bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, StateError, TrainingError

PERIODIC = "periodic"
ZERO = "zero"

_ACTIVATIONS = ("linear", "relu", "sigmoid")


def _act_forward(z: np.ndarray, kind: str):
    if kind == "linear":
        return z, None
    if kind == "relu":
        mask = z > 0
        return np.where(mask, z, 0.0), mask
    if kind == "sigmoid":
        y = 1.0 / (1.0 + np.exp(-z))
        return y, y
    raise ConfigError(f"unknown activation {kind!r}")


def _act_backward(gy: np.ndarray, kind: str, saved) -> np.ndarray:
    if kind == "linear":
        return gy
    if kind == "relu":
        return np.where(saved, gy, 0.0)
    return gy * saved * (1.0 - saved)  # sigmoid


class Conv1d:
    """Strided 1D convolution, optionally biased and activated."""

    def __init__(self, in_channels: int, out_channels: int, width: int,
                 stride: int = 1, padding: str = PERIODIC,
                 activation: str = "linear", bias: bool = True,
                 base_offset: int = 0, rng: np.random.Generator | None = None):
        if width < 1 or stride < 1:
            raise ConfigError(f"bad conv geometry w={width}, s={stride}")
        if padding not in (PERIODIC, ZERO):
            raise ConfigError(f"unknown padding {padding!r}")
        if activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        self.stride = stride
        self.padding = padding
        self.activation = activation
        self.base_offset = base_offset
        rng = rng or np.random.default_rng()
        scale = 1.0 / np.sqrt(width * in_channels)
        self.weight = rng.normal(0.0, scale, (width, in_channels, out_channels))
        self.bias = np.zeros(out_channels) if bias else None
        self.gw = np.zeros_like(self.weight)
        self.gb = np.zeros_like(self.bias) if bias else None

    @property
    def width(self) -> int:
        return self.weight.shape[0]

    def _taps(self, x: np.ndarray):
        n = x.shape[1]
        if n % self.stride:
            raise ShapeError(f"length {n} not divisible by stride {self.stride}")
        n_out = n // self.stride
        idx = (self.stride * np.arange(n_out)[:, None] + self.base_offset
               + np.arange(self.width)[None, :])
        if self.padding == PERIODIC:
            return x[:, idx % n, :], idx, None
        valid = (idx >= 0) & (idx < n)
        taps = x[:, np.clip(idx, 0, n - 1), :]
        taps = np.where(valid[None, :, :, None], taps, 0.0)
        return taps, idx, valid

    def forward(self, x: np.ndarray):
        if x.ndim != 3 or x.shape[2] != self.weight.shape[1]:
            raise ShapeError(
                f"expected (B, N, {self.weight.shape[1]}), got {x.shape}")
        taps, idx, valid = self._taps(x)
        z = np.tensordot(taps, self.weight, axes=([2, 3], [0, 1]))
        if self.bias is not None:
            z = z + self.bias
        y, saved = _act_forward(z, self.activation)
        return y, (taps, idx, valid, saved, x.shape)

    def backward(self, gy: np.ndarray, cache):
        if cache is None:
            raise StateError("backward called without a forward cache")
        taps, idx, valid, saved, x_shape = cache
        gz = _act_backward(gy, self.activation, saved)
        self.gw += np.tensordot(taps, gz, axes=([0, 1], [0, 1]))
        if self.bias is not None:
            self.gb += gz.sum(axis=(0, 1))
        gtaps = np.tensordot(gz, self.weight, axes=(2, 2))  # (B, N', w, Cin)
        gx = np.zeros(x_shape)
        n = x_shape[1]
        for j in range(self.width):
            if self.padding == PERIODIC:
                gx[:, idx[:, j] % n, :] += gtaps[:, :, j, :]
            else:
                keep = valid[:, j]
                gx[:, idx[keep, j], :] += gtaps[:, keep, j, :]
        return gx

    def params(self, prefix: str) -> dict[str, np.ndarray]:
        out = {f"{prefix}.weight": self.weight}
        if self.bias is not None:
            out[f"{prefix}.bias"] = self.bias
        return out

    def grads(self, prefix: str) -> dict[str, np.ndarray]:
        out = {f"{prefix}.weight": self.gw}
        if self.bias is not None:
            out[f"{prefix}.bias"] = self.gb
        return out

    def zero_grads(self) -> None:
        self.gw[...] = 0.0
        if self.gb is not None:
            self.gb[...] = 0.0


class Conv2d:
    """Strided 2D convolution; same window and stride in both dimensions."""

    def __init__(self, in_channels: int, out_channels: int, width: int,
                 stride: int = 1, padding: str = PERIODIC,
                 activation: str = "linear", bias: bool = True,
                 base_offset: int = 0, rng: np.random.Generator | None = None):
        if padding not in (PERIODIC, ZERO):
            raise ConfigError(f"unknown padding {padding!r}")
        if activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        self.stride = stride
        self.padding = padding
        self.activation = activation
        self.base_offset = base_offset
        rng = rng or np.random.default_rng()
        scale = 1.0 / np.sqrt(width * width * in_channels)
        self.weight = rng.normal(
            0.0, scale, (width, width, in_channels, out_channels))
        self.bias = np.zeros(out_channels) if bias else None
        self.gw = np.zeros_like(self.weight)
        self.gb = np.zeros_like(self.bias) if bias else None

    @property
    def width(self) -> int:
        return self.weight.shape[0]

    def _axis_idx(self, n: int):
        if n % self.stride:
            raise ShapeError(f"length {n} not divisible by stride {self.stride}")
        return (self.stride * np.arange(n // self.stride)[:, None]
                + self.base_offset + np.arange(self.width)[None, :])

    def _flat_taps(self, i1: np.ndarray, i2: np.ndarray, n1: int, n2: int):
        """Flat (N1', N2', w, w) indices into the N1*N2 grid, and the mask
        of taps that fall outside it (None when periodic)."""
        i1 = i1[:, None, :, None]
        i2 = i2[None, :, None, :]
        if self.padding == PERIODIC:
            return (i1 % n1) * n2 + i2 % n2, None
        outside = (i1 < 0) | (i1 >= n1) | (i2 < 0) | (i2 >= n2)
        flat = np.clip(i1, 0, n1 - 1) * n2 + np.clip(i2, 0, n2 - 1)
        return flat, outside

    def forward(self, x: np.ndarray):
        if x.ndim != 4 or x.shape[3] != self.weight.shape[2]:
            raise ShapeError(
                f"expected (B, N1, N2, {self.weight.shape[2]}), got {x.shape}")
        b, n1, n2, cin = x.shape
        i1 = self._axis_idx(n1)
        i2 = self._axis_idx(n2)
        flat, outside = self._flat_taps(i1, i2, n1, n2)
        # one gather gives C-contiguous (B, N1', N2', w, w, Cin) taps, so
        # the conv is one matmul with no copy of the tap tensor
        taps = np.take(x.reshape(b, n1 * n2, cin), flat, axis=1)
        if outside is not None:
            taps[:, outside] = 0.0
        cout = self.weight.shape[3]
        z = taps.reshape(-1, self.width ** 2 * cin) \
            @ self.weight.reshape(-1, cout)
        z = z.reshape(taps.shape[:3] + (cout,))
        if self.bias is not None:
            z = z + self.bias
        y, saved = _act_forward(z, self.activation)
        return y, (taps, i1, i2, saved, x.shape)

    def backward(self, gy: np.ndarray, cache):
        if cache is None:
            raise StateError("backward called without a forward cache")
        taps, i1, i2, saved, x_shape = cache
        gz = _act_backward(gy, self.activation, saved)
        self.gw += np.tensordot(taps, gz, axes=([0, 1, 2], [0, 1, 2]))
        if self.bias is not None:
            self.gb += gz.sum(axis=(0, 1, 2))
        gtaps = np.tensordot(gz, self.weight, axes=(3, 3))  # (B,N1',N2',w,w,Cin)
        gx = np.zeros(x_shape)
        n1, n2 = x_shape[1], x_shape[2]
        for j1 in range(self.width):
            for j2 in range(self.width):
                if self.padding == PERIODIC:
                    gx[:, (i1[:, j1] % n1)[:, None], i2[:, j2] % n2, :] += \
                        gtaps[:, :, :, j1, j2, :]
                else:
                    k1 = (i1[:, j1] >= 0) & (i1[:, j1] < n1)
                    k2 = (i2[:, j2] >= 0) & (i2[:, j2] < n2)
                    if not (k1.any() and k2.any()):
                        continue
                    sub = gtaps[:, :, :, j1, j2, :][:, k1][:, :, k2]
                    gx[:, i1[k1, j1][:, None], i2[k2, j2], :] += sub
        return gx

    params = Conv1d.params
    grads = Conv1d.grads
    zero_grads = Conv1d.zero_grads


class AvgPool1d:
    """Window-2, stride-2 average pooling (no parameters)."""

    def forward(self, x: np.ndarray):
        if x.shape[1] % 2:
            raise ShapeError(f"odd length {x.shape[1]} cannot be pooled")
        return 0.5 * (x[:, ::2, :] + x[:, 1::2, :]), x.shape

    def backward(self, gy: np.ndarray, cache):
        gx = np.zeros(cache)
        gx[:, ::2, :] = 0.5 * gy
        gx[:, 1::2, :] = 0.5 * gy
        return gx


class AvgPool2d:
    """2x2, stride-2 average pooling."""

    def forward(self, x: np.ndarray):
        if x.shape[1] % 2 or x.shape[2] % 2:
            raise ShapeError(f"odd grid {x.shape[1:3]} cannot be pooled")
        y = 0.25 * (x[:, ::2, ::2, :] + x[:, 1::2, ::2, :]
                    + x[:, ::2, 1::2, :] + x[:, 1::2, 1::2, :])
        return y, x.shape

    def backward(self, gy: np.ndarray, cache):
        gx = np.zeros(cache)
        g = 0.25 * gy
        gx[:, ::2, ::2, :] = g
        gx[:, 1::2, ::2, :] = g
        gx[:, ::2, 1::2, :] = g
        gx[:, 1::2, 1::2, :] = g
        return gx


# -- optimizer ----------------------------------------------------------------

@dataclass
class NadamState:
    """Nesterov-accelerated adaptive moments with bias correction."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def nadam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: NadamState) -> dict[str, np.ndarray]:
    """One in-place Nadam update; deterministic given the state."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_bar = b1 * (m / c1) + (1.0 - b1) * g / c1
        p -= state.learning_rate * m_bar / (np.sqrt(v / c2) + state.eps)
    return params


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             learning_rate: float) -> dict[str, np.ndarray]:
    """Plain gradient descent, kept as a debugging fallback."""
    for name, p in params.items():
        p -= learning_rate * grads[name]
    return params


# -- finite-difference gradient checking -------------------------------------

def finite_difference_check(loss_fn, params: dict[str, np.ndarray],
                            grads: dict[str, np.ndarray],
                            eps: float = 1e-5) -> dict[str, float]:
    """Relative error per parameter block between `grads` and central
    finite differences of `loss_fn` (a zero-argument callable reading the
    live parameter arrays)."""
    errors = {}
    for name, p in params.items():
        g_fd = np.zeros_like(p)
        flat = p.reshape(-1)
        fd = g_fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_fn()
            flat[i] = orig - eps
            lm = loss_fn()
            flat[i] = orig
            fd[i] = (lp - lm) / (2.0 * eps)
        denom = np.linalg.norm(g_fd)
        err = np.linalg.norm(grads[name] - g_fd)
        errors[name] = err / denom if denom > 0 else err
    return errors
