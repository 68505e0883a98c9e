"""Daubechies filters and periodic multiresolution transforms (1D and 2D).

Conventions
-----------
The low-pass filter h of a Daubechies family with half-support p has 2p
taps, indexed 0..2p-1, normalized so that sum(h) = sqrt(2) and
sum(h^2) = 1.  The high-pass filter g_i = (-1)^(1-i) h_(1-i) is nonzero
for i = -2p+2..1; it is stored shifted to 0..2p-1 together with the
integer offset (g_offset = -(2p-2)) relating stored to true indices.

All pyramid steps below use the *stored* index range 0..2p-1, i.e.

    s_k = sum_j h[j]      x[(2k+j) mod n]
    w_k = sum_j g_store[j] x[(2k+j) mod n]

so every consumer (nonstandard form, network layers) convolves over the
same window.  Relative to the unshifted textbook indexing this rotates
the wavelet coefficients by a fixed amount per level, which is invisible
to reconstruction, orthogonality and vanishing-moment properties.

All operations are pure functions; periodic indexing is `mod n` with
correct behavior for negative arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigError, ShapeError, frozen_cache

SQRT2 = math.sqrt(2.0)

#: padding modes shared with nsform and the network layers
PERIODIC = "periodic"
ZERO = "zero"


@dataclass(frozen=True)
class WaveletFilter:
    """Orthonormal filter pair (h, g) with g stored on the 0..2p-1 window."""

    p: int
    h: np.ndarray
    g: np.ndarray
    g_offset: int

    @property
    def width(self) -> int:
        return 2 * self.p


@dataclass
class Pyramid:
    """Multi-level coefficients: w[l] for l = l0..l_max-1 plus s at l0."""

    l_max: int
    l0: int
    w: dict[int, np.ndarray]
    s: np.ndarray


def _high_from_low(h: np.ndarray) -> np.ndarray:
    # stored index j maps to true index i = j - (2p-2); g_i = (-1)^(1-i) h_(1-i)
    # gives g_store[j] = (-1)^(j+1) h[2p-1-j]
    n = h.shape[0]
    j = np.arange(n)
    return ((-1.0) ** (j + 1)) * h[n - 1 - j]


def _daubechies_start(p: int) -> np.ndarray:
    """Min-phase spectral factorization of the Daubechies product filter."""
    # P(y) = sum_k C(p-1+k, k) y^k evaluated at y = (2 - z - 1/z)/4;
    # multiply by z^(p-1) to clear the pole, factor the z-polynomial.
    base = np.array([-0.25, 0.5, -0.25])  # -(z-1)^2 / 4, ascending powers
    acc = np.zeros(2 * p - 1)
    term = np.array([1.0])
    for k in range(p):
        c = math.comb(p - 1 + k, k)
        shifted = np.zeros(2 * p - 1)
        lo = p - 1 - k  # remaining z^(p-1-k) factor
        shifted[lo:lo + term.shape[0]] = c * term
        acc += shifted
        term = np.convolve(term, base)
    roots = np.roots(acc[::-1])
    inside = roots[np.abs(roots) < 1.0]
    q = npoly.polyfromroots(inside).real
    q = q / q.sum()  # q(1) = 1
    binom = np.array([1.0])
    for _ in range(p):
        binom = np.convolve(binom, [0.5, 0.5])  # (1+z)/2
    return SQRT2 * np.convolve(binom, q)


def _polish(h: np.ndarray, p: int) -> np.ndarray:
    """Newton (least squares) on orthogonality + normalization + moments."""
    n = 2 * p
    jj = np.arange(n)
    sign = (-1.0) ** (jj + 1)
    for _ in range(25):
        res = []
        jac = []
        for m in range(p):
            shift = 2 * m
            r = float(h[: n - shift] @ h[shift:]) - (1.0 if m == 0 else 0.0)
            row = np.zeros(n)
            row[: n - shift] += h[shift:]
            row[shift:] += h[: n - shift]
            res.append(r)
            jac.append(row)
        res.append(float(h.sum()) - SQRT2)
        jac.append(np.ones(n))
        g = sign * h[n - 1 - jj]
        for m in range(p):
            res.append(float(g @ (jj.astype(float) ** m)))
            row = np.zeros(n)
            row[n - 1 - jj] = sign * (jj.astype(float) ** m)
            jac.append(row)
        res_v = np.asarray(res)
        jac_m = np.asarray(jac)
        scale = np.maximum(np.max(np.abs(jac_m), axis=1), 1.0)
        if np.max(np.abs(res_v) / scale) < 1e-15:
            break
        step, *_ = np.linalg.lstsq(jac_m / scale[:, None],
                                   res_v / scale, rcond=None)
        h = h - step
    return h


@frozen_cache
def daubechies_filter(p: int) -> WaveletFilter:
    """Build the minimum-phase Daubechies filter pair with p vanishing moments.

    Coefficients are computed from the defining equations (spectral
    factorization followed by a Newton polish of the orthogonality and
    vanishing-moment system); no literal tables are used.
    """
    if not isinstance(p, int) or not 1 <= p <= 5:
        raise ConfigError(f"unsupported filter half-support p={p!r} (need 1..5)")
    if p == 1:
        h = np.array([1.0, 1.0]) / SQRT2
    else:
        h = _polish(_daubechies_start(p), p)
        if h[: p] @ h[: p] < h[p:] @ h[p:]:  # minimum-phase: energy up front
            h = h[::-1].copy()
    return WaveletFilter(p=p, h=h, g=_high_from_low(h), g_offset=-(2 * p - 2))


def min_coarse_level(p: int) -> int:
    """Smallest admissible l0: coarse length must not wrap the filter."""
    return 0 if p == 1 else math.ceil(math.log2(2 * p))


def _check_pow2(n: int) -> int:
    if n < 2 or n & (n - 1):
        raise ShapeError(f"length {n} is not a power of two >= 2")
    return int(round(math.log2(n)))


def _gather(x: np.ndarray, idx: np.ndarray, padding: str) -> np.ndarray:
    """Tap matrix x[idx] with periodic wrap or zero fill; idx entries >= 0."""
    n = x.shape[0]
    if padding == PERIODIC:
        return x[idx % n]
    taps = x[np.minimum(idx, n - 1)]
    return np.where((idx < n)[(...,) + (None,) * (x.ndim - 1)], taps, 0.0)


def forward_step(s_in: np.ndarray, filt: WaveletFilter,
                 padding: str = PERIODIC) -> tuple[np.ndarray, np.ndarray]:
    """One pyramid step: length-2n input -> (w, s) of length n.

    Extra trailing axes are carried along (columns transform independently).
    """
    n2 = s_in.shape[0]
    if n2 % 2 or n2 < 2:
        raise ShapeError(f"forward_step needs even length >= 2, got {n2}")
    w = filt.width
    idx = 2 * np.arange(n2 // 2)[:, None] + np.arange(w)[None, :]
    taps = _gather(s_in, idx, padding)  # (n, w, ...)
    s = np.einsum("kw...,w->k...", taps, filt.h)
    wv = np.einsum("kw...,w->k...", taps, filt.g)
    return wv, s


def inverse_step(w: np.ndarray, s: np.ndarray, filt: WaveletFilter,
                 padding: str = PERIODIC) -> np.ndarray:
    """Exact adjoint (= inverse, periodic case) of :func:`forward_step`."""
    if w.shape != s.shape:
        raise ShapeError(f"w/s shape mismatch: {w.shape} vs {s.shape}")
    n = w.shape[0]
    n2 = 2 * n
    out = np.zeros((n2,) + w.shape[1:])
    base = 2 * np.arange(n)
    for j in range(filt.width):
        pos = base + j
        if padding == PERIODIC:
            out[pos % n2] += filt.h[j] * s + filt.g[j] * w
        else:
            keep = pos < n2
            out[pos[keep]] += filt.h[j] * s[keep] + filt.g[j] * w[keep]
    return out


def _check_levels(l_max: int, l0: int, p: int) -> None:
    if not 0 <= l0 < l_max:
        raise ConfigError(f"need 0 <= l0 < L, got l0={l0}, L={l_max}")
    if l0 < min_coarse_level(p):
        raise ConfigError(
            f"l0={l0} too small for filter support 2p={2 * p}"
            f" (need l0 >= {min_coarse_level(p)})")


def forward_transform(v: np.ndarray, filt: WaveletFilter, l0: int) -> Pyramid:
    """Full pyramid from level L = log2(len(v)) down to l0."""
    l_max = _check_pow2(v.shape[0])
    _check_levels(l_max, l0, filt.p)
    w: dict[int, np.ndarray] = {}
    s = v
    for level in range(l_max - 1, l0 - 1, -1):
        w[level], s = forward_step(s, filt)
    return Pyramid(l_max=l_max, l0=l0, w=w, s=s)


def inverse_transform(pyr: Pyramid, filt: WaveletFilter) -> np.ndarray:
    s = pyr.s
    for level in range(pyr.l0, pyr.l_max):
        s = inverse_step(pyr.w[level], s, filt)
    return s


#: a step's parts on a dim-D grid, named by their filter per axis (axis 0
#: first; g wavelet, h scaling): the wavelet parts first, the scaling last
PARTS = {1: ("g", "h"), 2: ("hg", "gh", "gg", "hh")}


def forward_parts(x: np.ndarray, filt: WaveletFilter, dim: int,
                  padding: str = PERIODIC) -> list[np.ndarray]:
    """Separable pyramid step on a (2n,)*dim grid: `forward_step` along
    each axis, the last axis first, giving the (n,)*dim parts in
    `PARTS[dim]` order.  Extra trailing axes are carried along."""
    parts = {"": x}
    for ax in reversed(range(dim)):
        step = {}
        for name, arr in parts.items():
            hi, lo = forward_step(np.moveaxis(arr, ax, 0), filt, padding)
            step["g" + name] = np.moveaxis(hi, 0, ax)
            step["h" + name] = np.moveaxis(lo, 0, ax)
        parts = step
    return [parts[name] for name in PARTS[dim]]


def inverse_parts(parts: list[np.ndarray], filt: WaveletFilter, dim: int,
                  padding: str = PERIODIC) -> np.ndarray:
    """Exact adjoint (= inverse, periodic case) of :func:`forward_parts`:
    `inverse_step` along each axis, the first axis first."""
    named = dict(zip(PARTS[dim], parts))
    for ax in range(dim):
        step = {}
        for rest in dict.fromkeys(name[1:] for name in named):
            out = inverse_step(np.moveaxis(named["g" + rest], ax, 0),
                               np.moveaxis(named["h" + rest], ax, 0),
                               filt, padding)
            step[rest] = np.moveaxis(out, 0, ax)
        named = step
    return named[""]


def transform_matrix(n2: int, filt: WaveletFilter) -> np.ndarray:
    """Dense one-level transform [W_w | W_s] of size 2n x 2n (orthogonal)."""
    n = n2 // 2
    mat = np.zeros((n2, n2))
    base = 2 * np.arange(n)
    for j in range(filt.width):
        rows = (base + j) % n2
        mat[rows, np.arange(n)] += filt.g[j]
        mat[rows, n + np.arange(n)] += filt.h[j]
    return mat
