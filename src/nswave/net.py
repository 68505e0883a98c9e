"""From-scratch differentiable layers: strided convolutions with periodic
or zero padding and average pooling over any number `dim` of spatial axes,
activations, and the Nadam optimizer.

Data layout is channel-last with an explicit batch axis, (B, N.., C) with
`dim` grid axes, float64 throughout.  Layers hold parameters and gradient
accumulators; per-call intermediates travel in explicit cache objects so a
layer instance can appear at several points of a model and stays safe for
concurrent forward passes over shared parameters.

Convolution semantics, per grid axis the same window w, stride s and base
offset off:

    z[b, i.., c'] = sum_{j..<w} sum_c W[j.., c, c'] x[b, (i*s + off + j) mod N.., c] + b[c']

with zero fill instead of the modulus in zero-padding mode, and output
length N' = N // s per axis.  `off` (base_offset) lets the
inverse-transform layer look backward without negative-index bookkeeping.
The tap reads follow the banded blocks' one shift rule,
`nsform.shift_index`: tap j of output cell i reads cell i*s + off + j,
and a zero-fill read off the grid reads one zero cell past it.  The
forward gathers the taps with one `np.take`; the backward scatters the
tap gradients back with one cached `nsform.scatter_matrix` per geometry,
whose rows keep their terms in tap order, so every cell sums its terms
in tap order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, ShapeError, StateError, TrainingError,
                     frozen_cache)
from .nsform import scatter_matrix, shift_index
from .wavelets import PERIODIC, ZERO

_ACTIVATIONS = ("linear", "relu")


def _act_forward(z: np.ndarray, kind: str):
    if kind == "linear":
        return z, None
    if kind == "relu":
        mask = z > 0
        return np.where(mask, z, 0.0), mask
    raise ConfigError(f"unknown activation {kind!r}")


def _act_backward(gy: np.ndarray, kind: str, saved) -> np.ndarray:
    if kind == "linear":
        return gy
    return np.where(saved, gy, 0.0)  # relu


@frozen_cache
def _tap_layout(grid: tuple, width: int, stride: int, base_offset: int,
                padding: str):
    """(flat, scatter) of one conv geometry.  flat (N', w**dim) is
    `nsform.shift_index` of every output cell's taps, the window offsets
    in row-major order: the flat grid cell each tap reads, wrapped when
    periodic, and under zero fill the zero cell past the grid, index
    prod(grid), for a tap that leaves it.  scatter, the backward's, is
    `nsform.scatter_matrix` of those reads listed tap-major: row c of the
    (grid cells, N' * w**dim) matrix holds a 1 for every (output cell,
    tap) that reads cell c, in tap order, and none for the zero cell.  A
    tap reaches a cell from at most one output cell, so the product sums
    every cell's terms in tap order, as a loop adding tap after tap would
    (a halo padded and folded afterwards would reorder the periodic wrap
    sums and change the rounding).  Shared by every layer of the
    geometry."""
    for n in grid:
        if n % stride:
            raise ShapeError(f"length {n} not divisible by stride {stride}")
    taps = np.indices((width,) * len(grid)).reshape(len(grid), -1).T
    flat = shift_index(grid, taps, padding, stride, base_offset)
    cols = np.arange(flat.size).reshape(flat.shape).T.reshape(-1)
    return flat, scatter_matrix(flat.T.reshape(-1), cols, math.prod(grid))


class Conv:
    """Strided convolution over `dim` spatial axes, optionally biased and
    activated; the same window, stride and base offset on every axis.

    The taps of every output cell are gathered from the flattened grid
    with one `np.take`, so the forward pass is one matmul of a
    C-contiguous (B, N', w**dim * Cin) tap matrix with the weights; the
    input gradient is that gather's transpose, `_tap_layout`'s scatter
    applied to the tap gradients, the batch folded into its columns.
    The initial weights are drawn from `rng`, which has no unseeded
    default.
    """

    def __init__(self, dim: int, in_channels: int, out_channels: int,
                 width: int, stride: int = 1, padding: str = PERIODIC,
                 activation: str = "linear", bias: bool = True,
                 base_offset: int = 0, *, rng: np.random.Generator):
        if width < 1 or stride < 1:
            raise ConfigError(f"bad conv geometry w={width}, s={stride}")
        if padding not in (PERIODIC, ZERO):
            raise ConfigError(f"unknown padding {padding!r}")
        if activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        self.dim = dim
        self.stride = stride
        self.padding = padding
        self.activation = activation
        self.base_offset = base_offset
        scale = 1.0 / np.sqrt(width ** dim * in_channels)
        self.weight = rng.normal(
            0.0, scale, (width,) * dim + (in_channels, out_channels))
        self.bias = np.zeros(out_channels) if bias else None
        self.gw = np.zeros_like(self.weight)
        self.gb = np.zeros_like(self.bias) if bias else None

    @property
    def width(self) -> int:
        return self.weight.shape[0]

    def forward(self, x: np.ndarray):
        d = self.dim
        cin, cout = self.weight.shape[-2:]
        if x.ndim != d + 2 or x.shape[-1] != cin:
            raise ShapeError(f"expected (B, {d} grid axes, {cin}), "
                             f"got {x.shape}")
        b, grid = x.shape[0], x.shape[1:-1]
        flat = _tap_layout(grid, self.width, self.stride, self.base_offset,
                           self.padding)[0]
        cells = x.reshape(b, -1, cin)
        if self.padding == ZERO:  # one zero cell past the grid
            cells = np.concatenate((cells, np.zeros((b, 1, cin))), axis=1)
        taps = np.take(cells, flat, axis=1)
        z = taps.reshape(-1, flat.shape[1] * cin) \
            @ self.weight.reshape(-1, cout)
        z = z.reshape((b,) + tuple(n // self.stride for n in grid) + (cout,))
        if self.bias is not None:
            z = z + self.bias
        y, saved = _act_forward(z, self.activation)
        return y, (taps, saved, x.shape)

    def backward(self, gy: np.ndarray, cache):
        return self.backward_input(self.backward_params(gy, cache), cache)

    def backward_params(self, gy: np.ndarray, cache) -> np.ndarray:
        """Parameter half of `backward`: accumulate the weight and bias
        gradients and return gz, the gradient before the activation, as
        (B * N', Cout) rows."""
        if cache is None:
            raise StateError("backward called without a forward cache")
        taps, saved, _ = cache
        cout = self.weight.shape[-1]
        gz = _act_backward(gy, self.activation, saved).reshape(-1, cout)
        self.gw += (taps.reshape(len(gz), -1).T @ gz).reshape(
            self.weight.shape)
        if self.bias is not None:
            self.gb += gz.sum(axis=0)
        return gz

    def backward_input(self, gz: np.ndarray, cache) -> np.ndarray:
        """Input half of `backward`: the gradient with respect to x, from
        `backward_params`' gz."""
        x_shape = cache[2]
        b, cin = x_shape[0], x_shape[-1]
        scatter = _tap_layout(x_shape[1:-1], self.width, self.stride,
                              self.base_offset, self.padding)[1]
        gtaps = (gz @ self.weight.reshape(-1, gz.shape[1]).T).reshape(
            b, -1, cin).transpose(1, 0, 2)  # (N' * w**dim, B, Cin)
        gx = scatter @ gtaps.reshape(len(gtaps), b * cin)
        return np.ascontiguousarray(
            gx.reshape(-1, b, cin).transpose(1, 0, 2)).reshape(x_shape)

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


class AvgPool:
    """Window-2, stride-2 average pooling on each of `dim` grid axes."""

    def __init__(self, dim: int):
        self.dim = dim

    def forward(self, x: np.ndarray):
        grid = x.shape[1:-1]
        if any(n % 2 for n in grid):
            raise ShapeError(f"odd grid {grid} cannot be pooled")
        # the window's cells, summed with the first axis varying fastest
        halves = (slice(0, None, 2), slice(1, None, 2))
        cells = (x[(slice(None),) + cell[::-1]]
                 for cell in itertools.product(halves, repeat=self.dim))
        return 0.5 ** self.dim * functools.reduce(np.add, cells), x.shape

    def backward(self, gy: np.ndarray, cache):
        g = 0.5 ** self.dim * gy
        for ax in range(1, 1 + self.dim):
            g = g.repeat(2, axis=ax)
        return g


# -- optimizer ----------------------------------------------------------------

@dataclass
class NadamState:
    """Nesterov-accelerated adaptive moments with bias correction; the
    moments of all parameters are one flat pair, in parameter order."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def nadam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: NadamState) -> dict[str, np.ndarray]:
    """One in-place Nadam update; deterministic given the state.

    The gradients are concatenated in parameter order and updated as one
    vector, and each parameter subtracts its slice of the step: per
    element the same arithmetic as one update per tensor."""
    g = np.concatenate([grads[name].reshape(-1) for name in params])
    if not np.all(np.isfinite(g)):
        bad = next(name for name in params
                   if not np.all(np.isfinite(grads[name])))
        raise TrainingError(f"non-finite gradient in {bad}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    if state.m is None:
        state.m, state.v = np.zeros_like(g), np.zeros_like(g)
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    m_bar = b1 * (m / c1) + (1.0 - b1) * g / c1
    step = state.learning_rate * m_bar / (np.sqrt(v / c2) + state.eps)
    lo = 0
    for p in params.values():
        p -= step[lo:lo + p.size].reshape(p.shape)
        lo += p.size
    return params


# -- finite-difference gradient checking -------------------------------------

FD_EPS = 1e-5


def finite_difference_check(loss_fn, params: dict[str, np.ndarray],
                            grads: dict[str, np.ndarray]) -> dict[str, float]:
    """Relative error per parameter block between `grads` and central
    finite differences (step `FD_EPS`) of `loss_fn`, a zero-argument
    callable reading the live parameter arrays."""
    errors = {}
    for name, p in params.items():
        g_fd = np.zeros_like(p)
        flat = p.reshape(-1)
        fd = g_fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_EPS
            lp = loss_fn()
            flat[i] = orig - FD_EPS
            lm = loss_fn()
            flat[i] = orig
            fd[i] = (lp - lm) / (2.0 * FD_EPS)
        denom = np.linalg.norm(g_fd)
        err = np.linalg.norm(grads[name] - g_fd)
        errors[name] = err / denom if denom > 0 else err
    return errors
