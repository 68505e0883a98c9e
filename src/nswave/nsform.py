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

`apply` implements the four-step fast product (pyramid transform, banded
block multiply with the (last, last) block zero except at the coarsest
level, where the coarse block acts through its periodic diagonals like
every other block, inverse pyramid).  With `padding="zero"` every
periodic wrap is replaced by zero extension; this variant exists as the
oracle for the zero-padded network architecture and is *not* a
factorization of A.

One shift rule serves every shifted read, here, in the model's conv
taps (`net`) and in export's gather of the residue classes' parts
(`model._class_parts`): `shift_index` gives the flat grid cell
stride*k + base + o that output cell k reads through offset o, wrapped
when periodic; under zero fill a read that leaves the grid gives the
index of one zero cell past it.  `scatter_matrix` is the one order-keeping scatter: a 0/1 CSR
matrix whose rows keep their entries in listed order, so a product with
it sums in a loop's order.

The model's f path shares this module's periodic-diagonal convention:
`band_multiply` reads every shift as a view of its input padded once by a
halo; `band_multiply_adjoint`, its adjoint, gathers every shifted window
of a term at once and scatters the products into the halo-padded parts
through one cached `scatter_matrix` per geometry, summing in the loop's
order; and `transpose_index` is the gather of a block's banded
transpose.
`band_matrix` compiles one block into a CSR matrix whose rows hold their
entries in offset order, so its product sums every row as `band_multiply`
does (the learned operator at a fixed eta applies its blocks this way).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sparse

from .errors import ShapeError, freeze, frozen_cache
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
    lo = -((n - 1) // 2)
    return (o - lo) % n + lo


def band_offsets(n: int, nb: int | None, dim: int) -> np.ndarray:
    """Distinct periodic-diagonal offsets (n_off, dim) of an (n,)*dim
    block, max |o| <= nb, in row-major order."""
    if nb is None or 2 * nb + 1 >= n:
        axis = np.arange(-((n - 1) // 2), n // 2 + 1)
    else:
        axis = np.arange(-nb, nb + 1)
    return np.array(list(itertools.product(axis, repeat=dim)))


def shift_index(grid: tuple, offsets: np.ndarray, padding: str,
                stride: int = 1, base: int = 0) -> np.ndarray:
    """(prod(grid) // stride**dim, n_off) flat row-major index of the cell
    stride*k + base + o_t that output cell k reads through offset o_t,
    wrapped onto the grid when periodic; under zero fill a read that
    leaves the grid gives prod(grid), one zero cell past the grid."""
    offsets, dim = np.asarray(offsets), len(grid)
    flat, inside = 0, True
    for ax, n in enumerate(grid):
        shape = [1] * (dim + 1)
        shape[ax] = -1  # output cells on axes 0..dim-1, offsets last
        idx = (stride * np.arange(n // stride).reshape(shape) + base
               + offsets[:, ax])
        inside = inside & (idx >= 0) & (idx < n)
        flat = flat * n + idx % n
    if padding != PERIODIC:
        flat = np.where(inside, flat, math.prod(grid))
    return flat.reshape(-1, len(offsets))


def scatter_matrix(rows: np.ndarray, cols: np.ndarray,
                   size: int) -> sparse.csr_array:
    """(size, len(cols)) 0/1 CSR matrix with a one at (rows[e], cols[e])
    for every listed entry e, the entries with rows[e] >= size (reads of
    the zero cell past the grid) dropped.  A stable sort keeps every row's
    entries in the order they are listed, so the product sums each row in
    that order.  Read-only."""
    keep = rows < size
    rows, kept = rows[keep], cols[keep]
    return freeze(sparse.csr_array(
        (np.ones(len(rows)), kept[np.argsort(rows, kind="stable")],
         np.append(0, np.cumsum(np.bincount(rows, minlength=size)))),
        shape=(size, len(cols))))


def transpose_index(offsets: np.ndarray, n: int):
    """(cols, neg): diagonal o of B^T is diagonal -o of B shifted by o, so
    B^T's data[k.., t] is B's at flat grid point cols[k, t] = (k + o_t)
    mod n.. (`shift_index`, periodic; k flat) and diagonal neg[t], the
    index of -o_t (canonical) in offsets."""
    index = {tuple(o): t for t, o in enumerate(offsets.tolist())}
    neg = np.array([index[tuple(canonical_offset(-c, n) for c in o)]
                    for o in index])
    return shift_index((n,) * offsets.shape[1], offsets, PERIODIC), neg


def _grid_side(a: np.ndarray, dim: int) -> int:
    """Side n of the (n,)*dim grid that the square matrix a acts on."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected square matrix, got {a.shape}")
    side = round(a.shape[0] ** (1 / dim))
    if side ** dim != a.shape[0]:
        raise ShapeError(f"size {a.shape[0]} is not a {dim}D grid size")
    return side


# -- halo-padded shifts --------------------------------------------------------
#
# An array padded once along its spatial axes by a halo as wide as the widest
# offset (periodic wrap or zeros) serves every shift as a sliced view:
# shift_o(x)[k] = x[k + o] = xp[k + o + width].  The adjoint accumulates into
# a padded buffer the same way and folds the halo back.

def _axis_slice(x: np.ndarray, axis: int, lo: int, hi: int) -> np.ndarray:
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(lo, hi)
    return x[tuple(sl)]


def _pad_halo(x: np.ndarray, width: int, axes, padding: str) -> np.ndarray:
    for ax in axes:
        n = x.shape[ax]
        if padding == PERIODIC:
            lo = _axis_slice(x, ax, n - width, n)
            hi = _axis_slice(x, ax, 0, width)
        else:
            shape = list(x.shape)
            shape[ax] = width
            lo = hi = np.zeros(shape)
        x = np.concatenate((lo, x, hi), axis=ax)
    return x


def _halo_view(xp: np.ndarray, off, width: int, axes) -> np.ndarray:
    """View of a halo-padded array shifted by `off` (one entry per axis)."""
    sl = [slice(None)] * xp.ndim
    for o, ax in zip(off, axes):
        sl[ax] = slice(width + o, width + o + xp.shape[ax] - 2 * width)
    return xp[tuple(sl)]


def _fold_halo(gp: np.ndarray, width: int, axes, padding: str) -> np.ndarray:
    """Adjoint of `_pad_halo`: periodic halos add into the cells they wrap
    (width <= n, which canonical offsets guarantee); zero halos drop."""
    for ax in axes:
        n = gp.shape[ax] - 2 * width
        core = _axis_slice(gp, ax, width, width + n)
        if padding == PERIODIC and width:
            _axis_slice(core, ax, n - width, n)[...] += \
                _axis_slice(gp, ax, 0, width)
            _axis_slice(core, ax, 0, width)[...] += \
                _axis_slice(gp, ax, width + n, 2 * width + n)
        gp = core
    return gp


def band_multiply(terms, parts: list, axes, padding: str) -> list:
    """outs[i] = sum of coef[.., t] * shift_o_t(parts[j]) over the terms
    ((i, j), offsets (n_off, len(axes)), coef) and their offsets o_t.

    coef[.., t] broadcasts against parts[j]; shifts act on `axes` with
    periodic wrap or zero fill and need |o| <= n (canonical offsets do).
    """
    width = max(int(np.abs(offs).max()) for _, offs, _ in terms)
    padded = [_pad_halo(x, width, axes, padding) for x in parts]
    outs = [0.0] * len(parts)
    for (i, j), offs, coef in terms:
        offs, xp = offs.tolist(), padded[j]
        acc = coef[..., 0] * _halo_view(xp, offs[0], width, axes)
        tmp = np.empty_like(acc)
        for t in range(1, len(offs)):
            np.multiply(coef[..., t], _halo_view(xp, offs[t], width, axes),
                        out=tmp)
            acc += tmp
        outs[i] = outs[i] + acc
    return outs


@frozen_cache
def _shift_index(offsets: tuple, n: int, padding: str) -> np.ndarray:
    """`shift_index` on the (n,)*dim grid as (n_off, n**dim) rows, one per
    offset."""
    return shift_index((n,) * len(offsets[0]), np.array(offsets), padding).T


@frozen_cache
def _adjoint_scatter(terms: tuple, n: int, n_parts: int) -> sparse.csr_array:
    """The part-gradient scatter of one `band_multiply_adjoint` call with
    the terms ((j, offsets), ..), on (n,)*dim parts halo-padded by the
    widest offset: column (term, t, k) is the product coef[k.., t] *
    gout[k..] of a term, row (j, cell k + o_t) a padded cell of part j.
    A term's offset reaches a padded cell from exactly one cell, and every
    row keeps its entries in (term, offset) order (`scatter_matrix`), so
    the product sums each padded cell as the offset loop adds into it."""
    width = max(abs(c) for _, offs in terms for o in offs for c in o)
    dim = len(terms[0][1][0])
    padded = (n + 2 * width,) * dim
    k = np.indices((n,) * dim).reshape(dim, 1, -1)
    rows = np.concatenate([
        j * math.prod(padded) + np.ravel_multi_index(
            tuple(k + np.array(offs).T[:, :, None] + width), padded)
        for j, offs in terms], axis=None)
    return scatter_matrix(rows, np.arange(len(rows)),
                          n_parts * math.prod(padded))


def band_multiply_adjoint(terms, parts: list, gouts: list, axes,
                          padding: str):
    """(coef_grads, part_grads) of `band_multiply` at output gradients
    `gouts`: coef_grads[slot] is summed over the axes along which coef[..,
    t] broadcasts against its part (never `axes`, which coef spans).

    A term's coefficient gradients are one gather of all its shifted
    windows (`_shift_index`) times gouts[i], each a single product as in
    a loop over the offsets, then the same reduction.  The part gradients
    are every term's products coef[.., t] * gouts[i], laid out (term,
    offset, cell) by (the remaining axes), through one scatter
    (`_adjoint_scatter`) into halo-padded parts, whose halos then fold
    back; every sum runs in the loop's order, so the bits are the loop's.
    """
    dim, lo = len(axes), axes[0]
    n = parts[0].shape[lo]
    keys = [tuple(map(tuple, offs.tolist())) for _, offs, _ in terms]

    def flat(x):  # the spatial axes as one
        return x.reshape(x.shape[:lo] + (-1,) + x.shape[lo + dim:])
    windows = [flat(x) for x in parts]
    if padding != PERIODIC:  # one zero cell past the grid
        windows = [np.concatenate((x, np.zeros_like(np.take(x, [0], lo))),
                                  axis=lo) for x in windows]
    coef_grads = {}
    for ((i, j), _, coef), key in zip(terms, keys):
        go = gouts[i]
        summed = tuple(ax if ax < lo else ax + 2 - dim
                       for ax, g in enumerate(go.shape)
                       if coef.shape[ax] == 1 != g)
        g = np.take(windows[j], _shift_index(key, n, padding), axis=lo)
        np.multiply(g, np.expand_dims(flat(go), lo), out=g)
        if summed:
            g = np.sum(g, axis=summed, keepdims=True)
        else:  # as a sum over no axes does: 0.0 in place of -0.0
            g += 0.0
        coef_grads[i, j] = np.moveaxis(g, lo, -1).reshape(coef.shape)

    # products as (term, offset, cell) rows, the other axes as columns
    front = range(dim)
    gos = [np.moveaxis(go, axes, front) for go in gouts]
    rest = gos[0].shape[dim:]
    products = np.empty((sum(map(len, keys)) * n ** dim, math.prod(rest)))
    start = 0
    for (i, _), offs, coef in terms:
        rows = products[start:start + len(offs) * n ** dim]
        np.multiply(np.moveaxis(coef, (-1, *axes), range(dim + 1)), gos[i],
                    out=rows.reshape((len(offs),) + gos[i].shape))
        start += len(rows)
    scatter = _adjoint_scatter(
        tuple((j, key) for ((_, j), _, _), key in zip(terms, keys)), n,
        len(parts))
    width = max(abs(c) for key in keys for o in key for c in o)
    side = (n + 2 * width,) * dim
    return coef_grads, [
        np.moveaxis(_fold_halo(gp.reshape(side + rest), width, front,
                               padding), front, axes)
        for gp in (scatter @ products).reshape((len(parts), -1) + rest)]


@frozen_cache
def _band_pattern(offsets: tuple, n: int, channels: int, padding: str):
    """(indices, indptr, keep) of `band_matrix`'s CSR pattern: row (k..,
    c) holds, in offset order, column ((k + o_t) mod n.., c) of every
    offset (`_shift_index`); under zero fill `keep` masks out the entries
    that read the zero cell past the grid (None when periodic)."""
    n_off, dim = len(offsets), len(offsets[0])
    cols = _shift_index(offsets, n, padding).T
    indices = cols[:, None, :] * channels + np.arange(channels)[:, None]
    itype = np.int32 if indices.size < 2 ** 31 else np.int64
    keep = None
    if padding == PERIODIC:
        indptr = np.arange(0, indices.size + 1, n_off)
    else:
        keep = np.broadcast_to((cols < n ** dim)[:, None, :],
                               indices.shape).reshape(-1)
        indptr = np.append(0, np.cumsum(keep.reshape(-1, n_off).sum(axis=1)))
        indices = indices.reshape(-1)[keep]
    return indices.reshape(-1).astype(itype), indptr.astype(itype), keep


def band_matrix(offsets: np.ndarray, coef: np.ndarray, n: int,
                padding: str) -> sparse.csr_array:
    """One `band_multiply` term as a CSR matrix on (n,)*dim grid functions
    with trailing channel axes, flattened row-major: row (k.., c) holds
    coef[k.., c, t] at column (k + o_t.., c), its entries in offset order,
    so `band_matrix(..) @ x` sums every row as `band_multiply` does.  coef
    is (n,)*dim + channel axes + (n_off,); a zero-fill shift drops the
    entries that leave the grid."""
    channels = coef.size // (n ** offsets.shape[1] * len(offsets))
    indices, indptr, keep = _band_pattern(
        tuple(map(tuple, offsets.tolist())), n, channels, padding)
    data = coef.reshape(-1)
    size = len(indptr) - 1
    return sparse.csr_array((data if keep is None else data[keep], indices,
                             indptr), shape=(size, size))


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
    def from_dense(cls, a: np.ndarray, dim: int = 1) -> "BandedBlock":
        n = _grid_side(a, dim)
        offsets = band_offsets(n, None, dim)
        cols = shift_index((n,) * dim, offsets, PERIODIC)
        return cls(offsets=offsets, data=a[np.arange(n ** dim)[:, None],
                                           cols].reshape((n,) * dim + (-1,)))

    def truncated(self, nb: int) -> "BandedBlock":
        # canonical offsets: |o| is the circular distance
        keep = np.max(np.abs(self.offsets), axis=1) <= nb
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
    side = _grid_side(a, dim)
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
    """Fast product u = W S W^T v on a (2^L,)*dim grid function v; v may
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
    cols = (1,) * (v.ndim - dim)
    u = np.zeros_like(s)
    for level, blocks in enumerate(ns.levels, ns.l0):
        if level == ns.l0:
            blocks = {**blocks,
                      (last, last): BandedBlock.from_dense(ns.coarse, dim)}
        outs = band_multiply(
            [(slot, blk.offsets,
              blk.data.reshape(blk.data.shape[:dim] + cols + (-1,)))
             for slot, blk in blocks.items()], parts[level],
            tuple(range(dim)), padding)
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
