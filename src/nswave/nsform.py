"""Nonstandard form of a dense operator on a 1D or 2D grid: build,
truncate, apply.

A dense A acting on (2^L,)*dim grid functions (grid points in row-major
order) is conjugated level by level with the orthogonal one-level
transform, which splits a grid function into 2^dim parts: the wavelet
parts first, the scaling part last (`wavelets.PARTS`).  Block slot
(i, j) of a level maps input part j to output part i.  Every level keeps
all slots except (last, last); the (last, last) block of the coarsest
level is the dense coarse block.  In 1D, slot (0, 0) is wavelet x
wavelet, (0, 1) wavelet x scaling and (1, 0) scaling x wavelet.

Blocks are stored as periodic diagonals: canonical signed offsets o, one
per axis, with data[k.., t] = block[k.., (k + o_t) mod n..].  Truncation
keeps max |o| <= nb in circular distance; the coarse block is never
truncated (it is tiny).

`apply` implements the four-step fast matvec (pyramid transform, banded
block multiply with the (last, last) block zero except at the coarsest
level, inverse pyramid).  With `padding="zero"` every periodic wrap is
replaced by zero extension; this variant exists as the oracle for the
zero-padded network architecture and is *not* a factorization of A.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeError
from .wavelets import (
    PARTS,
    PERIODIC,
    WaveletFilter,
    _check_pow2,
    forward_parts,
    inverse_parts,
    min_coarse_level,
    transform_matrix,
)


def canonical_offset(o: int, n: int) -> int:
    """Signed representative of o mod n in [-((n-1)//2), n//2]."""
    if n == 1:
        return 0
    lo = -((n - 1) // 2)
    return (o - lo) % n + lo


def band_offsets(n: int, nb: int | None) -> np.ndarray:
    """Distinct periodic-diagonal offsets for an n x n block, |o| <= nb."""
    if nb is None or 2 * nb + 1 >= n:
        return np.arange(-((n - 1) // 2) if n > 1 else 0, n // 2 + 1)
    return np.arange(-nb, nb + 1)


def _shift(v: np.ndarray, offs, padding: str) -> np.ndarray:
    """shift_o(v)[k..] = v[k + o..] over the leading len(o) axes, periodic
    wrap or zero fill."""
    if padding == PERIODIC:
        return np.roll(v, [-int(o) for o in offs],
                       axis=tuple(range(len(offs))))
    out = np.zeros_like(v)
    src, dst = [], []
    for o, n in zip(offs, v.shape):
        src.append(slice(max(o, 0), n + min(o, 0)))
        dst.append(slice(max(-o, 0), n - max(o, 0)))
    out[tuple(dst)] = v[tuple(src)]
    return out


def _diagonal_index(n: int, offsets: np.ndarray):
    """Flat (row, column) in the dense block of each stored entry:
    data[k.., t] sits at row k.. and column (k + o_t) mod n.."""
    dim = offsets.shape[1]
    k = np.indices((n,) * dim)[..., None]               # (dim, n.., 1)
    o = offsets.T.reshape((dim,) + (1,) * dim + (-1,))  # (dim, 1.., n_off)
    return (np.ravel_multi_index(tuple(k), (n,) * dim),
            np.ravel_multi_index(tuple((k + o) % n), (n,) * dim))


@dataclass
class BandedBlock:
    """Periodic band matrix on vectorized (n,)*dim grids, stored as
    per-diagonal grid functions."""

    offsets: np.ndarray  # (n_off, dim)
    data: np.ndarray     # (n,)*dim + (n_off,)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @classmethod
    def from_dense(cls, a: np.ndarray, dim: int = 1,
                   nb: int | None = None) -> "BandedBlock":
        n = round(a.shape[0] ** (1 / dim))
        offsets = np.array(list(itertools.product(band_offsets(n, nb),
                                                  repeat=dim)))
        rows, cols = _diagonal_index(n, offsets)
        return cls(offsets=offsets, data=a[rows, cols])

    def to_dense(self) -> np.ndarray:
        rows, cols = _diagonal_index(self.n, self.offsets)
        a = np.zeros((rows.size, rows.size))
        a[rows, cols] = self.data
        return a

    def matvec(self, v: np.ndarray, padding: str = PERIODIC) -> np.ndarray:
        dim = self.offsets.shape[1]
        out = np.zeros_like(v, dtype=float)
        shape = self.data.shape[:dim] + (1,) * (v.ndim - dim)
        for t, o in enumerate(self.offsets):
            out += self.data[..., t].reshape(shape) * _shift(v, o, padding)
        return out

    def truncated(self, nb: int) -> "BandedBlock":
        n = self.n
        circ = np.minimum(np.abs(self.offsets) % n,
                          n - np.abs(self.offsets) % n)
        keep = np.max(circ, axis=1) <= nb
        return BandedBlock(offsets=self.offsets[keep],
                           data=self.data[..., keep])


@dataclass
class NonstandardForm:
    dim: int
    l_max: int
    l0: int
    levels: list[dict]  # l0 .. l_max-1, each block slot -> BandedBlock
    coarse: np.ndarray  # dense, on vectorized (2^l0,)*dim grids
    nb: int | None      # None = untruncated


def build_nonstandard(a: np.ndarray, filt: WaveletFilter, l0: int,
                      dim: int = 1) -> NonstandardForm:
    """Exact (untruncated) nonstandard form of a dense operator on
    vectorized (2^L,)*dim grids."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected square matrix, got {a.shape}")
    side = round(a.shape[0] ** (1 / dim))
    if side ** dim != a.shape[0]:
        raise ShapeError(f"size {a.shape[0]} is not a {dim}D grid size")
    l_max = _check_pow2(side)
    if not min_coarse_level(filt.p) <= l0 < l_max:
        raise ShapeError(f"l0={l0} invalid for grid side {side}, p={filt.p}")
    last = (1 << dim) - 1
    levels = []
    cur = a
    for level in range(l_max - 1, l0 - 1, -1):
        n = 1 << level
        w1d = transform_matrix(2 * n, filt)
        halves = {"g": w1d[:, :n], "h": w1d[:, n:]}
        # the part order of `wavelets.forward_parts`, as a dense matrix
        w = np.hstack([functools.reduce(np.kron, [halves[c] for c in name])
                       for name in PARTS[dim]])
        m = w.T @ cur @ w
        size = n ** dim
        levels.append({
            (i, j): BandedBlock.from_dense(
                m[i * size:(i + 1) * size, j * size:(j + 1) * size], dim)
            for i in range(last + 1) for j in range(last + 1)
            if (i, j) != (last, last)})
        cur = m[last * size:, last * size:]
    levels.reverse()
    return NonstandardForm(dim=dim, l_max=l_max, l0=l0, levels=levels,
                           coarse=cur, nb=None)


def truncate(ns: NonstandardForm, nb: int) -> NonstandardForm:
    """Keep periodic diagonals max |o| <= nb in every level block; coarse
    untouched."""
    levels = [{slot: blk.truncated(nb) for slot, blk in blocks.items()}
              for blocks in ns.levels]
    return replace(ns, levels=levels, coarse=ns.coarse.copy(), nb=nb)


def apply(ns: NonstandardForm, v: np.ndarray, filt: WaveletFilter,
          padding: str = PERIODIC) -> np.ndarray:
    """Fast matvec u = W S W^T v on a (2^L,)*dim grid function v; v may
    carry trailing column axes."""
    dim, last = ns.dim, (1 << ns.dim) - 1
    grid = (1 << ns.l_max,) * dim
    if v.shape[:dim] != grid:
        raise ShapeError(f"grid shape {v.shape[:dim]} != {grid}")
    parts: dict[int, list[np.ndarray]] = {}
    s = v
    for level in range(ns.l_max - 1, ns.l0 - 1, -1):
        parts[level] = forward_parts(s, filt, dim, padding)
        s = parts[level][last]
    u = np.zeros_like(s)
    for level, blocks in enumerate(ns.levels, ns.l0):
        xs = parts[level]
        outs = [np.zeros_like(x) for x in xs]
        for (i, j), blk in blocks.items():
            outs[i] += blk.matvec(xs[j], padding)
        if level == ns.l0 and padding == PERIODIC:
            flat = xs[last].reshape((-1,) + xs[last].shape[dim:])
            outs[last] = outs[last] + np.tensordot(
                ns.coarse, flat, axes=(1, 0)).reshape(outs[last].shape)
        elif level == ns.l0:
            # zero mode follows the architecture: the dense block acts
            # through its periodic diagonals with zero-filled shifts
            outs[last] = outs[last] + BandedBlock.from_dense(
                ns.coarse, dim).matvec(xs[last], padding)
        outs[last] = outs[last] + u
        u = inverse_parts(outs, filt, dim, padding)
    return u


def assemble_dense(ns: NonstandardForm, filt: WaveletFilter) -> np.ndarray:
    """Dense matrix whose column j is apply(ns, e_j), grid points in
    row-major order."""
    nn = 1 << (ns.dim * ns.l_max)
    grid = (1 << ns.l_max,) * ns.dim
    return apply(ns, np.eye(nn).reshape(grid + (nn,)), filt).reshape(nn, nn)


# The benchmark harness (bench/) selects the 2D entry points by these names
# and patches `apply_2d` alone, so they are functions, not aliases.

def build_nonstandard_2d(a: np.ndarray, filt: WaveletFilter,
                         l0: int) -> NonstandardForm:
    return build_nonstandard(a, filt, l0, dim=2)


def truncate_2d(ns: NonstandardForm, nb: int) -> NonstandardForm:
    return truncate(ns, nb)


def apply_2d(ns: NonstandardForm, v: np.ndarray, filt: WaveletFilter,
             padding: str = PERIODIC) -> np.ndarray:
    return apply(ns, v, filt, padding)
