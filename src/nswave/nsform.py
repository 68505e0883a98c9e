"""Nonstandard form of a dense operator: build, truncate, apply.

A dense A of size 2^L x 2^L is conjugated level by level with the
orthogonal one-level transforms, leaving per-level blocks D1 (wavelet x
wavelet), D2 (wavelet x scaling), D3 (scaling x wavelet) and a dense
coarsest block.  Blocks are stored as periodic diagonals: canonical
signed offsets o with data[k, t] = block[k, (k + o_t) mod n].  Truncation
keeps |o| <= nb in circular distance; the coarsest block is never
truncated (it is tiny).

`apply` implements the four-step fast matvec (pyramid transform, banded
block multiply with the zero fourth block except at the coarsest level,
inverse pyramid).  With `padding="zero"` every periodic wrap is replaced
by zero extension; this variant exists as the oracle for the
zero-padded network architecture and is *not* a factorization of A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .wavelets import (
    PERIODIC,
    WaveletFilter,
    _check_pow2,
    forward_step,
    forward_step_2d,
    inverse_step,
    inverse_step_2d,
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


def _shift(v: np.ndarray, o: int, padding: str) -> np.ndarray:
    """shift_o(v)[k] = v[k + o], periodic wrap or zero fill."""
    if padding == PERIODIC:
        return np.roll(v, -o, axis=0)
    out = np.zeros_like(v)
    n = v.shape[0]
    if o >= 0:
        out[: n - o] = v[o:]
    else:
        out[-o:] = v[: n + o]
    return out


def _shift2(v: np.ndarray, o1: int, o2: int, padding: str) -> np.ndarray:
    return _shift(np.moveaxis(_shift(v, o1, padding), 1, 0), o2,
                  padding).swapaxes(0, 1)


@dataclass
class BandedBlock:
    """Square periodic band matrix stored as per-diagonal vectors."""

    offsets: np.ndarray  # (n_off,)
    data: np.ndarray     # (n, n_off)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @classmethod
    def from_dense(cls, a: np.ndarray, nb: int | None = None) -> "BandedBlock":
        n = a.shape[0]
        offsets = band_offsets(n, nb)
        rows = np.arange(n)
        data = np.stack([a[rows, (rows + o) % n] for o in offsets], axis=1)
        return cls(offsets=offsets, data=data)

    def to_dense(self) -> np.ndarray:
        n = self.n
        a = np.zeros((n, n))
        rows = np.arange(n)
        for t, o in enumerate(self.offsets):
            a[rows, (rows + o) % n] = self.data[:, t]
        return a

    def matvec(self, v: np.ndarray, padding: str = PERIODIC) -> np.ndarray:
        out = np.zeros_like(v, dtype=float)
        shape = (self.n,) + (1,) * (v.ndim - 1)
        for t, o in enumerate(self.offsets):
            out += self.data[:, t].reshape(shape) * _shift(v, int(o), padding)
        return out

    def truncated(self, nb: int) -> "BandedBlock":
        n = self.n
        circ = np.minimum(np.abs(self.offsets) % n, n - np.abs(self.offsets) % n)
        keep = circ <= nb
        return BandedBlock(offsets=self.offsets[keep], data=self.data[:, keep])


@dataclass
class LevelBlocks:
    level: int
    d1: BandedBlock
    d2: BandedBlock
    d3: BandedBlock


@dataclass
class NonstandardForm:
    l_max: int
    l0: int
    levels: list[LevelBlocks]  # ordered l0 .. l_max-1
    coarse: np.ndarray         # dense 2^l0 x 2^l0
    nb: int | None             # None = untruncated


def build_nonstandard(a: np.ndarray, filt: WaveletFilter,
                      l0: int) -> NonstandardForm:
    """Exact (untruncated) nonstandard form of a dense square matrix."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected square matrix, got {a.shape}")
    l_max = _check_pow2(a.shape[0])
    if not min_coarse_level(filt.p) <= l0 < l_max:
        raise ShapeError(f"l0={l0} invalid for N={a.shape[0]}, p={filt.p}")
    levels = []
    cur = a
    for level in range(l_max - 1, l0 - 1, -1):
        wmat = transform_matrix(1 << (level + 1), filt)
        m = wmat.T @ cur @ wmat
        n = 1 << level
        levels.append(LevelBlocks(
            level=level,
            d1=BandedBlock.from_dense(m[:n, :n]),
            d2=BandedBlock.from_dense(m[:n, n:]),
            d3=BandedBlock.from_dense(m[n:, :n]),
        ))
        cur = m[n:, n:]
    levels.reverse()
    return NonstandardForm(l_max=l_max, l0=l0, levels=levels,
                           coarse=cur, nb=None)


def truncate(ns: NonstandardForm, nb: int) -> NonstandardForm:
    """Keep periodic diagonals |o| <= nb in every D block; coarse untouched."""
    levels = [LevelBlocks(level=lb.level, d1=lb.d1.truncated(nb),
                          d2=lb.d2.truncated(nb), d3=lb.d3.truncated(nb))
              for lb in ns.levels]
    return NonstandardForm(l_max=ns.l_max, l0=ns.l0, levels=levels,
                           coarse=ns.coarse.copy(), nb=nb)


def apply(ns: NonstandardForm, v: np.ndarray, filt: WaveletFilter,
          padding: str = PERIODIC) -> np.ndarray:
    """Fast matvec u = W S W^T v; v may carry trailing column axes."""
    if v.shape[0] != 1 << ns.l_max:
        raise ShapeError(f"length {v.shape[0]} != 2^{ns.l_max}")
    d: dict[int, np.ndarray] = {}
    vv: dict[int, np.ndarray] = {}
    s = v
    for level in range(ns.l_max - 1, ns.l0 - 1, -1):
        d[level], s = forward_step(s, filt, padding)
        vv[level] = s
    u = np.zeros_like(vv[ns.l0])
    for lb in ns.levels:
        level = lb.level
        w = lb.d1.matvec(d[level], padding) + lb.d2.matvec(vv[level], padding)
        s = lb.d3.matvec(d[level], padding)
        if level == ns.l0:
            if padding == PERIODIC:
                s = s + np.tensordot(ns.coarse, vv[level], axes=(1, 0))
            else:
                # zero mode follows the architecture: the dense block acts
                # through its periodic diagonals with zero-filled shifts
                s = s + BandedBlock.from_dense(ns.coarse).matvec(
                    vv[level], padding)
        u = inverse_step(w, s + u, filt, padding)
    return u


def assemble_dense(ns: NonstandardForm, filt: WaveletFilter) -> np.ndarray:
    """Dense matrix whose column j is apply(ns, e_j)."""
    n = 1 << ns.l_max
    return apply(ns, np.eye(n), filt)


# -- 2D ----------------------------------------------------------------------

@dataclass
class BandedBlock2D:
    """Band matrix on vectorized n x n grids; diagonals indexed (o1, o2)."""

    offsets: np.ndarray  # (n_off, 2)
    data: np.ndarray     # (n, n, n_off)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @classmethod
    def from_dense(cls, a: np.ndarray, n: int,
                   nb: int | None = None) -> "BandedBlock2D":
        off1 = band_offsets(n, nb)
        offsets = np.array([(o1, o2) for o1 in off1 for o2 in off1])
        k = np.arange(n)
        k1 = np.repeat(k, n)
        k2 = np.tile(k, n)
        cols = []
        for o1, o2 in offsets:
            j1 = (k1 + o1) % n
            j2 = (k2 + o2) % n
            cols.append(a[k1 * n + k2, j1 * n + j2].reshape(n, n))
        return cls(offsets=offsets, data=np.stack(cols, axis=2))

    def to_dense(self) -> np.ndarray:
        n = self.n
        a = np.zeros((n * n, n * n))
        k = np.arange(n)
        k1 = np.repeat(k, n)
        k2 = np.tile(k, n)
        for t, (o1, o2) in enumerate(self.offsets):
            j1 = (k1 + o1) % n
            j2 = (k2 + o2) % n
            a[k1 * n + k2, j1 * n + j2] = self.data[:, :, t].reshape(-1)
        return a

    def matvec(self, v: np.ndarray, padding: str = PERIODIC) -> np.ndarray:
        out = np.zeros_like(v, dtype=float)
        shape = (self.n, self.n) + (1,) * (v.ndim - 2)
        for t, (o1, o2) in enumerate(self.offsets):
            out += (self.data[:, :, t].reshape(shape)
                    * _shift2(v, int(o1), int(o2), padding))
        return out

    def truncated(self, nb: int) -> "BandedBlock2D":
        n = self.n
        circ = np.minimum(np.abs(self.offsets) % n,
                          n - np.abs(self.offsets) % n)
        keep = np.max(circ, axis=1) <= nb
        return BandedBlock2D(offsets=self.offsets[keep],
                             data=self.data[:, :, keep])


#: block slot (i, j) of the 4x4 level matrix, in D1..D15 order
BLOCK_SLOTS_2D = [((t - 1) // 4, (t - 1) % 4) for t in range(1, 16)]


@dataclass
class LevelBlocks2D:
    level: int
    blocks: dict[tuple[int, int], BandedBlock2D]  # 15 slots, (3,3) excluded


@dataclass
class NonstandardForm2D:
    l_max: int
    l0: int
    levels: list[LevelBlocks2D]
    coarse: np.ndarray  # dense 4^l0 x 4^l0 on vectorized grids
    nb: int | None


def build_nonstandard_2d(a: np.ndarray, filt: WaveletFilter,
                         l0: int) -> NonstandardForm2D:
    """Nonstandard form of a dense operator on vectorized 2^L x 2^L grids."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected square matrix, got {a.shape}")
    nn = a.shape[0]
    n_side = int(round(np.sqrt(nn)))
    if n_side * n_side != nn:
        raise ShapeError(f"size {nn} is not a squared grid size")
    l_max = _check_pow2(n_side)
    if not min_coarse_level(filt.p) <= l0 < l_max:
        raise ShapeError(f"l0={l0} invalid for grid {n_side}, p={filt.p}")
    levels = []
    cur = a
    for level in range(l_max - 1, l0 - 1, -1):
        n2 = 1 << (level + 1)
        n = 1 << level
        w1d = transform_matrix(n2, filt)
        ww, ws = w1d[:, :n], w1d[:, n:]
        w2d = np.hstack([np.kron(ws, ww), np.kron(ww, ws),
                         np.kron(ww, ww), np.kron(ws, ws)])
        m = w2d.T @ cur @ w2d
        nsq = n * n
        blocks = {}
        for (i, j) in BLOCK_SLOTS_2D:
            blocks[(i, j)] = BandedBlock2D.from_dense(
                m[i * nsq:(i + 1) * nsq, j * nsq:(j + 1) * nsq], n)
        levels.append(LevelBlocks2D(level=level, blocks=blocks))
        cur = m[3 * nsq:, 3 * nsq:]
    levels.reverse()
    return NonstandardForm2D(l_max=l_max, l0=l0, levels=levels,
                             coarse=cur, nb=None)


def truncate_2d(ns: NonstandardForm2D, nb: int) -> NonstandardForm2D:
    levels = [LevelBlocks2D(level=lb.level,
                            blocks={k: b.truncated(nb)
                                    for k, b in lb.blocks.items()})
              for lb in ns.levels]
    return NonstandardForm2D(l_max=ns.l_max, l0=ns.l0, levels=levels,
                             coarse=ns.coarse.copy(), nb=nb)


def apply_2d(ns: NonstandardForm2D, v: np.ndarray, filt: WaveletFilter,
             padding: str = PERIODIC) -> np.ndarray:
    """Fast 2D matvec on a grid function v (n x n, trailing axes allowed)."""
    n = 1 << ns.l_max
    if v.shape[:2] != (n, n):
        raise ShapeError(f"grid shape {v.shape[:2]} != ({n}, {n})")
    d: dict[int, tuple] = {}
    vv: dict[int, np.ndarray] = {}
    s = v
    for level in range(ns.l_max - 1, ns.l0 - 1, -1):
        w1, w2, w3, s = forward_step_2d(s, filt, padding)
        d[level] = (w1, w2, w3)
        vv[level] = s
    u = np.zeros_like(vv[ns.l0])
    for lb in ns.levels:
        level = lb.level
        parts = list(d[level]) + [vv[level]]
        outs = []
        for i in range(4):
            acc = np.zeros_like(parts[0])
            for j in range(4):
                if (i, j) == (3, 3):
                    continue
                acc += lb.blocks[(i, j)].matvec(parts[j], padding)
            outs.append(acc)
        if level == ns.l0:
            if padding == PERIODIC:
                nc = 1 << ns.l0
                flat = vv[level].reshape((nc * nc,) + vv[level].shape[2:])
                outs[3] = outs[3] + np.tensordot(
                    ns.coarse, flat, axes=(1, 0)).reshape(outs[3].shape)
            else:
                outs[3] = outs[3] + BandedBlock2D.from_dense(
                    ns.coarse, 1 << ns.l0).matvec(vv[level], padding)
        u = inverse_step_2d(outs[0], outs[1], outs[2], outs[3] + u,
                            filt, padding)
    return u
