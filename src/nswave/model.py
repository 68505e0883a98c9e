"""Meta-model: parameter field eta -> compressed operator acting on f.

Four stages, mirroring the fast nonstandard-form matvec:

1. per-level ConvNets map eta to raw columns, and one precomputed sparse
   gather per level (`LevelLayout.gather`) turns them into the
   banded-block diagonal vectors (the channel collection), with the dense
   coarsest block emitted as the full set of periodic diagonals by the
   coarsest-level ConvNet; the gather's transpose is its backward;
2. learnable forward-transform convolutions (window 2p, stride 2, linear,
   no bias) split each scale into detail and smooth channels;
3. per-channel banded multiplication in coefficient space, summing the
   blocks in the gather's slot order, with the scaling-to-scaling block
   zero except at the coarsest level: the oracle's own
   `nsform.band_multiply` (the offset loop) in training, with its
   adjoint `band_multiply_adjoint` (one gather per block and one cached
   scatter per level, summing in the offset loop's order), and at a
   fixed eta one CSR product per block (`nsform.band_matrix`), which
   sums exactly as the loop does;
4. learnable inverse-transform convolutions (window p, stride 1) with the
   interleaving reshape, followed by a channel average.

The f path is linear in f for every parameter value (no biases, no
activations).  In symmetric mode the inverse-transform weights are tied
to the adjoint of the forward-transform weights and the gather makes the
collection symmetric (D3 read as the banded transpose of D2, D1 and the
coarse block averaged with their own banded transposes), which makes
the learned operator symmetric for arbitrary parameters under either
padding; under zero fill the layout leaves out the one diagonal that has
no transpose there (offset n/2 of an even block).

`learned_operator` is the one apply of the learned operator at a fixed
eta: it computes the collection and compiles its blocks once; its
transpose is the same apply of `MetaModel.transposed`.  The transform
convs still run as in training.  `export_operator` applies the same
compiled blocks to unit sources; under a periodic wrap it runs the
forward transform only on the 2**(levels*dim) residue classes of the
sources and shifts their coefficients.

With the transform convs initialized to the exact Daubechies filters and
the collection taken from a truncated nonstandard form, the forward pass
reproduces `nsform.apply` to rounding accuracy; that equivalence is the
structural anchor of the design.

One code path serves 1D and 2D: grids are (n,)*dim, offsets dim-tuples,
and a level has 2**dim parts (2D is 1D applied per axis, as in BCR 1991).
Grid sizes need not be powers of two: any n divisible by 2**levels
works, which is how the 320-point and 80x80 configurations run.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from . import nsform
from .errors import (ConfigError, InferenceError, ShapeError, check_fields,
                     frozen_cache, rule)
from .net import AvgPool, Conv
from .wavelets import PARTS, PERIODIC, ZERO, WaveletFilter, daubechies_filter


@dataclass(frozen=True)
class ModelConfig:
    n: int = rule(low=1)        # finest grid size per dimension
    levels: int = rule(low=1)   # number of wavelet levels
    alpha: int = rule(low=1)    # channel width
    depth: int = rule(low=1)    # conv layers per eta ConvNet
    nb: int = rule(low=0)       # band half-width of the D blocks
    p: int = rule(choices=(1, 2, 3, 4, 5))  # filter half-support (window 2p)
    padding: str = rule(PERIODIC, kind=str, choices=(PERIODIC, ZERO))
    symmetric: bool = rule(False, kind=bool)
    dim: int = rule(1, choices=(1, 2))
    init_noise: float = rule(1e-2, kind=float, low=0)
    seed: int = rule(0, low=0)

    def __post_init__(self):
        check_fields(self, "model")
        # a levels that fails the bit-length test would make 1 << levels huge
        if self.levels >= self.n.bit_length() or self.n % (1 << self.levels):
            raise ConfigError(f"model.n={self.n} is not divisible by "
                              f"2^levels, levels={self.levels}")


# -- layout --------------------------------------------------------------------
#
# A level of the f path has 2**dim parts: the wavelet parts first, then the
# scaling part (1D: d, v; 2D: d1, d2, d3, v).  Blocks are keyed by their slot
# (i, j), which maps input part j to output part i; slot (last, last) is the
# dense coarse block, which only the coarsest level carries.


@dataclass(frozen=True)
class LevelLayout:
    """One level of the collection.  The head emits `n_columns` raw
    columns per grid point; `gather` maps one eta's raw output,
    (spatial.., n_columns) flattened, to every block's (spatial.., alpha,
    n_off) entries, block after block in slot order, each at its `slices`
    rows.  A row reads one raw entry with weight 1, or, for a block forced
    symmetric, its own entry and its banded transpose's with weight 0.5
    each.  `gather_t` is `gather.T` in CSR, the backward, built once (a
    `.T` per call reruns scipy's format checks), its rows summing in
    gather order.  Shared by every model of its geometry; read-only."""

    size: int
    offsets: dict       # block slot -> (n_off, dim) offset array
    slices: dict        # block slot -> its rows of `gather`
    n_columns: int
    gather: sparse.csr_array
    gather_t: sparse.csr_array


@frozen_cache
def _level_layout(dim: int, size: int, alpha: int, nb: int, top: int | None,
                  symmetric: bool, coarsest: bool) -> LevelLayout:
    """One level's layout."""
    last = (1 << dim) - 1
    pairs = [(i, j) for i in range(last + 1) for j in range(last + 1)
             if (i, j) != (last, last)]
    # the head emits these slots, in column order; in symmetric mode slot
    # (j, i) is then derived as the banded transpose of (i, j) (BCR 1991)
    emitted = [(i, j) for i, j in pairs if i <= j or not symmetric] \
        + [(last, last)] * coarsest
    derived = [(j, i) for i, j in emitted if i < j and symmetric]
    band, full = (nsform.band_offsets(size, w, dim) for w in (nb, top))
    offsets = {s: full if s == (last, last) else band
               for s in emitted + derived}
    col = alpha * sum(len(offsets[s]) for s in emitted)  # per grid point
    # numpy raises ValueError, which the CLI does not map, for an array
    # whose byte size overflows: refuse a width whose raw output per eta
    # would, before any allocation
    if 8 * size ** dim * col > np.iinfo(np.intp).max:
        raise OverflowError(f"{size ** dim * col} raw head outputs per eta")
    # raw index of each grid point's first column
    points = np.arange(size ** dim)[:, None, None] * col
    first, start = {}, 0  # a block's (alpha, n_off) columns at point 0
    for s in emitted:
        first[s] = start + np.arange(alpha * len(offsets[s])).reshape(
            alpha, -1)
        start += first[s].size

    @functools.cache
    def flip(coarse: bool):
        return nsform.transpose_index(full if coarse else band, size)

    def transposed(s):
        """Raw entries of the banded transpose of emitted block s."""
        src, neg = flip(s == (last, last))
        return src.reshape(-1, 1, len(neg)) * col + first[s][:, neg]

    def reads(s):
        """(rows, entries per row) raw indices of block s."""
        if s in derived:
            r = [transposed((s[1], s[0]))]
        elif symmetric and s[0] == s[1]:
            r = [points + first[s], transposed(s)]
        else:
            r = [points + first[s]]
        return np.stack(r, axis=-1).reshape(-1, len(r))

    rows = [reads(s) for s in offsets]
    counts = np.repeat([r.shape[1] for r in rows], [len(r) for r in rows])
    gather = sparse.csr_array(
        (np.repeat(1 / counts, counts),
         np.concatenate([r.reshape(-1) for r in rows]),
         np.append(0, np.cumsum(counts))),
        shape=(len(counts), size ** dim * col))
    bounds = np.cumsum([0] + [len(r) for r in rows])
    return LevelLayout(size=size, offsets=offsets, n_columns=col,
                       gather=gather, gather_t=gather.T.tocsr(),
                       slices={s: slice(lo, hi) for s, lo, hi
                               in zip(offsets, bounds, bounds[1:])})


def build_layout(cfg: ModelConfig) -> list[LevelLayout]:
    layouts = []
    for i in range(cfg.levels):
        size = cfg.n >> (cfg.levels - i)
        # an even block stores offset size/2 as its own negation, which
        # holds only with a periodic wrap: under zero fill that diagonal's
        # transpose has no diagonal, so a symmetric layout stops short
        top = (size - 1) // 2 if cfg.symmetric and cfg.padding == ZERO \
            else None
        nb = cfg.nb if top is None else min(cfg.nb, top)
        layouts.append(_level_layout(cfg.dim, size, cfg.alpha, nb, top,
                                     cfg.symmetric, i == 0))
    return layouts


# -- transform kernels ---------------------------------------------------------

def _fwt_kernel(filt: WaveletFilter, alpha: int, dim: int) -> np.ndarray:
    """Exact forward-transform kernel (2p,)*dim + (alpha, 2**dim * alpha):
    channel c of part q carries the outer product of q's axis filters."""
    f = {"g": filt.g, "h": filt.h}
    k = np.zeros((filt.width,) * dim + (alpha, len(PARTS[dim]) * alpha))
    for q, axes in enumerate(PARTS[dim]):
        outer = functools.reduce(np.multiply.outer, [f[a] for a in axes])
        for c in range(alpha):
            k[..., c, q * alpha + c] = outer
    return k


def _tie_axes(dim: int):
    """The tap axes of (p, 2)*dim + (alpha, m), and the order `tie` takes
    that array's axes in: (j.., m, r.., alpha)."""
    taps = tuple(range(0, 2 * dim, 2))
    return taps, taps + (2 * dim + 1,) + tuple(range(1, 2 * dim, 2)) \
        + (2 * dim,)


def tie(fw: np.ndarray) -> np.ndarray:
    """Adjoint of a forward-transform conv, as an inverse-transform kernel.

    Per axis, tap 2(p-1-j) + r of the forward conv becomes tap j of the
    inverse conv writing interleave slot r: with fw of shape (2p,)*dim +
    (alpha, m), tie(fw)[j.., o, r..*alpha + c] = fw[2(p-1-j) + r.., c, o].
    A pure permutation, so `untie` is both its adjoint and its inverse.
    """
    dim, p, (alpha, m) = fw.ndim - 2, fw.shape[0] // 2, fw.shape[-2:]
    taps, order = _tie_axes(dim)
    x = np.flip(fw.reshape((p, 2) * dim + (alpha, m)), axis=taps)
    return x.transpose(order).reshape((p,) * dim + (m, m))


def untie(gk: np.ndarray) -> np.ndarray:
    """Adjoint (and inverse) of `tie`: an inverse-transform kernel gradient
    folded back onto the forward-transform weights."""
    dim, p, m = gk.ndim - 2, gk.shape[0], gk.shape[-1]
    taps, order = _tie_axes(dim)
    x = gk.reshape((p,) * dim + (m,) + (2,) * dim + (m >> dim,))
    x = np.flip(x.transpose(np.argsort(order)), axis=taps)
    return x.reshape((2 * p,) * dim + x.shape[-2:])


def _split_parts(y: np.ndarray, alpha: int) -> list:
    """(.., 2**dim * alpha) f-path channels -> the level's parts."""
    return [y[..., q:q + alpha] for q in range(0, y.shape[-1], alpha)]


def _interleave_axes(dim: int) -> tuple:
    """Axes of (Be, Bf, m.., 2.., a) in (Be, Bf, m, 2, m, 2, .., a) order."""
    return (0, 1) + sum(((2 + ax, 2 + dim + ax) for ax in range(dim)), ()) \
        + (2 + 2 * dim,)


def _interleave(z: np.ndarray) -> np.ndarray:
    """(Be, Bf, m.., 2**dim * a) -> (Be, Bf, 2m.., a): channel slot r of
    each axis becomes grid row 2k + r."""
    dim, lead, m = z.ndim - 3, z.shape[:2], z.shape[2:-1]
    z = z.reshape(lead + m + (2,) * dim + (z.shape[-1] >> dim,))
    return z.transpose(_interleave_axes(dim)).reshape(
        lead + tuple(2 * k for k in m) + z.shape[-1:])


def _interleave_backward(gu: np.ndarray) -> np.ndarray:
    dim, lead, m = gu.ndim - 3, gu.shape[:2], gu.shape[2:-1]
    g = gu.reshape(lead + sum(((k // 2, 2) for k in m), ()) + gu.shape[-1:])
    g = g.transpose(np.argsort(_interleave_axes(dim)))
    return g.reshape(lead + tuple(k // 2 for k in m) + (gu.shape[-1] << dim,))


# -- the model -----------------------------------------------------------------

def _transform_convs(cfg: ModelConfig, rng: np.random.Generator | None):
    """The f path's forward- and inverse-transform convs, one of each per
    level: linear, no bias, weights drawn from `rng` (zeros if None)."""
    m = cfg.alpha << cfg.dim  # a level's 2**dim parts of alpha channels
    conv = functools.partial(Conv, cfg.dim, padding=cfg.padding, bias=False,
                             rng=rng)
    fwt = [conv(cfg.alpha, m, 2 * cfg.p, stride=2) for _ in range(cfg.levels)]
    iwt = [conv(m, m, cfg.p, base_offset=-(cfg.p - 1))
           for _ in range(cfg.levels)]
    return fwt, iwt


class MetaModel:
    """Learnable map (eta, f) -> u through the compressed-operator pipeline."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.layouts = build_layout(cfg)
        rng = np.random.default_rng(cfg.seed)
        dim = cfg.dim
        center = -(cfg.p - 1)

        # eta path: one ConvNet per level, pooling down to that level's size
        self.convnets = []
        for i, lay in enumerate(self.layouts):
            pools_needed = cfg.levels - i
            seq = []
            for k in range(cfg.depth):
                cin = 1 if k == 0 else cfg.alpha
                seq.append(Conv(dim, cin, cfg.alpha, 2 * cfg.p, stride=1,
                                padding=cfg.padding, activation="relu",
                                base_offset=center, rng=rng))
                if k < pools_needed:
                    seq.append(AvgPool(dim))
            seq += [AvgPool(dim) for _ in range(pools_needed - cfg.depth)]
            head = Conv(dim, cfg.alpha, lay.n_columns, 1, stride=1,
                        padding=cfg.padding, activation="linear", rng=rng)
            # damp the emitted collection at init: an O(1) random collection
            # amplifies the operator ~100x and stalls the first training phase
            head.weight *= 1e-2
            seq.append(head)
            self.convnets.append(seq)

        self.fwt, self.iwt = _transform_convs(cfg, rng)
        self.init_filters(daubechies_filter(cfg.p), noise=cfg.init_noise,
                          rng=rng)

    # -- parameter bookkeeping ----------------------------------------------

    def _named_convs(self):
        """(name prefix, conv) of every trained conv, in checkpoint order;
        symmetric mode ties the inverse-transform convs to the forward."""
        for i, seq in enumerate(self.convnets):
            for k, layer in enumerate(seq):
                if isinstance(layer, Conv):
                    yield f"convnet{i}.{k}", layer
        yield from ((f"fwt{i}", layer) for i, layer in enumerate(self.fwt))
        if not self.cfg.symmetric:
            yield from ((f"iwt{i}", layer) for i, layer in enumerate(self.iwt))

    def parameters(self) -> dict[str, np.ndarray]:
        return {k: v for prefix, layer in self._named_convs()
                for k, v in layer.params(prefix).items()}

    def gradients(self) -> dict[str, np.ndarray]:
        return {k: v for prefix, layer in self._named_convs()
                for k, v in layer.grads(prefix).items()}

    def zero_grads(self) -> None:
        for layer in itertools.chain(*self.convnets, self.fwt, self.iwt):
            if isinstance(layer, Conv):
                layer.zero_grads()

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters().values())

    def describe(self) -> dict:
        return dict(vars(self.cfg), parameter_count=self.parameter_count(),
                    iwt_tied=self.cfg.symmetric)

    def init_filters(self, filt: WaveletFilter, noise: float = 0.0,
                     rng: np.random.Generator | None = None) -> None:
        """Set the transform convs to the exact filter pair plus optional
        Gaussian perturbation (the warm start used everywhere)."""
        if filt.p != self.cfg.p:
            raise ConfigError(f"filter p={filt.p} != model p={self.cfg.p}")
        rng = rng or np.random.default_rng(self.cfg.seed + 1)
        fk = _fwt_kernel(filt, self.cfg.alpha, self.cfg.dim)
        ik = tie(fk)
        for layer in self.fwt:
            layer.weight[...] = fk
            if noise:
                layer.weight += noise * rng.standard_normal(layer.weight.shape)
        for layer in self.iwt:
            layer.weight[...] = ik
            if noise and not self.cfg.symmetric:
                layer.weight += noise * rng.standard_normal(layer.weight.shape)

    def transposed(self) -> MetaModel:
        """This model with transform convs `untie(iwt)` and `tie(fwt)`: on
        the transposed collection (blocks transposed, slot (i, j) moved to
        (j, i)) its forward is this model's adjoint.  Not for symmetric
        models, which are their own transpose and tie `iwt` per forward."""
        t = copy.copy(self)
        t.fwt, t.iwt = _transform_convs(self.cfg, None)  # no draw
        for fl, il, tf, ti in zip(self.fwt, self.iwt, t.fwt, t.iwt):
            tf.weight[...] = untie(il.weight)
            ti.weight[...] = tie(fl.weight)
        return t

    # -- eta path -------------------------------------------------------------

    def _expect_spatial(self) -> tuple:
        return (self.cfg.n,) * self.cfg.dim

    def eta_to_C(self, eta: np.ndarray, with_caches: bool = False):
        """Raw per-level collection arrays (B, spatial.., n_columns),
        coarsest level first."""
        spatial = self._expect_spatial()
        eta = np.asarray(eta, dtype=float)
        if eta.shape == spatial:
            eta = eta[None]
        if eta.shape[1:] != spatial:
            raise ShapeError(f"eta shape {eta.shape[1:]} != {spatial}")
        x0 = eta[..., None]
        outs, caches = [], []
        for seq in self.convnets:
            x = x0
            seq_cache = []
            for layer in seq:
                x, c = layer.forward(x)
                seq_cache.append(c)
            outs.append(x)
            caches.append(seq_cache)
        if with_caches:
            return outs, caches
        return outs

    def _eta_backward(self, g_raw: list, caches: list) -> None:
        for seq, g, seq_cache in zip(self.convnets, g_raw, caches):
            for layer, cache in zip(seq[:0:-1], seq_cache[:0:-1]):
                g = layer.backward(g, cache)
            # the first conv's input gradient is eta's: nothing reads it
            seq[0].backward_params(g, seq_cache[0])

    # -- collection handling --------------------------------------------------

    def _materialize(self, raw: list) -> list:
        """Raw head outputs (B, spatial.., n_columns) -> per-level block
        dicts (B, spatial.., alpha, n_off): each level's `gather` applied
        to every eta's raw output.  The blocks are views of one (rows, B)
        product, so with B > 1 the batch axis is the fastest."""
        blocks = []
        for lay, c in zip(self.layouts, raw):
            flat = lay.gather @ c.reshape(len(c), -1).T
            shape = c.shape[:-1] + (self.cfg.alpha, -1)
            blocks.append({slot: flat[sl].T.reshape(shape)
                           for slot, sl in lay.slices.items()})
        return blocks

    def _materialize_backward(self, gblocks: list) -> list:
        """Adjoint of `_materialize`: `gather.T` applied to every eta's
        block gradients."""
        g_raw = []
        for lay, g in zip(self.layouts, gblocks):
            lead = next(iter(g.values())).shape[:-2]
            flat = np.concatenate([g[slot].reshape(lead[0], -1).T
                                   for slot in lay.slices])  # (rows, B)
            g_raw.append((lay.gather_t @ flat).T.reshape(
                lead + (lay.n_columns,)))
        return g_raw

    def collection(self, eta: np.ndarray) -> list[dict]:
        """Materialized per-level block dicts for a given eta."""
        return self._materialize(self.eta_to_C(eta))

    def _band_terms(self, blocks: dict, lay: LevelLayout) -> list:
        """`nsform.band_multiply` terms of a level: block arrays (Be,
        spatial.., alpha, n_off) broadcast over the parts' Bf axis."""
        return [(slot, lay.offsets[slot], arr[:, None])
                for slot, arr in blocks.items()]

    def _band_stage(self, blocks: dict, lay: LevelLayout,
                    parts: list) -> list:
        """A level's banded multiply: the offset loop of
        `nsform.band_multiply` over block arrays, or one CSR product per
        slot when the collection holds `learned_operator`'s compiled
        blocks (one eta, so Be = 1)."""
        if not sparse.issparse(next(iter(blocks.values()))):
            return nsform.band_multiply(
                self._band_terms(blocks, lay), parts,
                tuple(range(2, 2 + self.cfg.dim)), self.cfg.padding)
        # (1, Bf, spatial.., alpha) -> (spatial.. x alpha, Bf) columns
        bf = parts[0].shape[1]
        cols = [np.moveaxis(x[0], 0, -1).reshape(-1, bf) for x in parts]
        outs = [0.0] * len(parts)
        for (i, j), mat in blocks.items():  # slot order, as the loop sums
            outs[i] = outs[i] + mat @ cols[j]
        return [np.moveaxis(y.reshape(x.shape[2:] + (bf,)), -1, 0)[None]
                for y, x in zip(outs, parts)]

    # -- forward / backward ----------------------------------------------------

    def _flatten_bf(self, x: np.ndarray) -> np.ndarray:
        be, bf = x.shape[:2]
        return x.reshape((be * bf,) + x.shape[2:])

    def _unflatten_bf(self, x: np.ndarray, be: int, bf: int) -> np.ndarray:
        return x.reshape((be, bf) + x.shape[1:])

    def forward_with_tape(self, eta: np.ndarray, f: np.ndarray,
                          collection: list | None = None, keep: bool = True):
        """Forward pass keeping the intermediates `backward` needs.

        eta: (spatial) or (Be, spatial); f: (spatial), (Bf, spatial) or
        (Be, Bf, spatial).  Returns (u, tape), u of shape (Be, Bf, spatial).
        When `collection` is given (materialized or compiled block dicts)
        the eta path is skipped.  `keep=False` drops each layer's cache as
        soon as the next layer has run, so the tape holds no intermediates
        and the pass's working set is one layer's.  `backward` needs the
        eta path and `keep=True`.
        """
        spatial = self._expect_spatial()
        sdim = len(spatial)
        eta = np.asarray(eta, dtype=float)
        eta_b = eta[None] if eta.shape == spatial else eta
        be = eta_b.shape[0]
        f = np.asarray(f, dtype=float)
        if f.shape == spatial:
            f_b = np.broadcast_to(f, (be, 1) + spatial)
        elif f.ndim == sdim + 1:
            f_b = np.broadcast_to(f[None], (be,) + f.shape)
        elif f.ndim == sdim + 2 and f.shape[0] == be:
            f_b = f
        else:
            raise ShapeError(f"f shape {f.shape} incompatible with eta batch")
        if f_b.shape[2:] != spatial:
            raise ShapeError(f"f spatial shape {f_b.shape[2:]} != {spatial}")
        bf = f_b.shape[1]

        tape: dict = {"be": be, "bf": bf}
        if collection is None:
            if keep:
                raw, tape["eta_caches"] = self.eta_to_C(eta_b,
                                                        with_caches=True)
            else:
                raw = self.eta_to_C(eta_b)
            blocks = self._materialize(raw)
        else:
            blocks = collection
        tape["blocks"] = blocks
        tape["parts"], tape["fwt_caches"] = self._analyse(f_b, keep)
        out, tape["iwt_caches"] = self._synthesise(blocks, tape["parts"], keep)
        return out, tape

    def _analyse(self, f_b: np.ndarray, keep: bool):
        """The f path's analysis: sources (Be, Bf, spatial..) repeated over
        alpha channels, then the forward-transform convs, finest level
        first, each reading the next-finer level's scaling part.  Returns
        every level's parts (coarsest level first) and the convs' caches
        (None unless `keep`)."""
        cfg = self.cfg
        be, bf = f_b.shape[:2]
        cur = np.repeat(f_b[..., None], cfg.alpha, axis=-1)
        parts, caches = [None] * cfg.levels, [None] * cfg.levels
        for i in range(cfg.levels - 1, -1, -1):
            y, cache = self.fwt[i].forward(self._flatten_bf(cur))
            caches[i] = cache if keep else None
            parts[i] = _split_parts(self._unflatten_bf(y, be, bf), cfg.alpha)
            cur = parts[i][-1]
        return parts, caches

    def _synthesise(self, blocks: list, parts: list, keep: bool):
        """The f path's synthesis from every level's parts: the banded stage,
        coarsest level first, the next-coarser level's output added into
        the scaling part, then the inverse-transform conv and the interleave;
        last the channel mean.  Returns u (Be, Bf, spatial..) and the
        convs' caches (None unless `keep`)."""
        cfg = self.cfg
        if cfg.symmetric:
            for fl, il in zip(self.fwt, self.iwt):
                il.weight[...] = tie(fl.weight)
        be, bf = parts[0][0].shape[:2]
        caches = [None] * cfg.levels
        u = None
        for i in range(cfg.levels):
            outs = self._band_stage(blocks[i], self.layouts[i], parts[i])
            last = outs[-1] if u is None else outs[-1] + u
            stacked = np.concatenate(outs[:-1] + [last], axis=-1)
            z, cache = self.iwt[i].forward(self._flatten_bf(stacked))
            caches[i] = cache if keep else None
            u = _interleave(self._unflatten_bf(z, be, bf))
        out = u.mean(axis=-1)
        if not np.all(np.isfinite(out)):
            raise InferenceError("non-finite values in model output")
        return out, caches

    def forward(self, eta: np.ndarray, f: np.ndarray,
                collection: list | None = None) -> np.ndarray:
        """Model output with the batch axes squeezed to match the inputs."""
        f_arr = np.asarray(f, dtype=float)
        eta_arr = np.asarray(eta, dtype=float)
        u, _ = self.forward_with_tape(eta_arr, f_arr, collection=collection,
                                      keep=False)
        sdim = len(self._expect_spatial())
        if eta_arr.ndim == sdim:
            if f_arr.ndim == sdim:
                return u[0, 0]
            if f_arr.ndim == sdim + 1:
                return u[0]
        return u

    def backward(self, tape: dict, gu: np.ndarray) -> None:
        """Accumulate parameter gradients; gu matches the (Be, Bf,
        spatial..) output of forward_with_tape."""
        cfg = self.cfg
        be, bf = tape["be"], tape["bf"]
        a = cfg.alpha
        g = np.repeat(gu[..., None] / a, a, axis=-1)

        g_blocks_all = [None] * cfg.levels
        g_parts = [None] * cfg.levels
        for i in range(cfg.levels - 1, -1, -1):
            gz = self._flatten_bf(_interleave_backward(g))
            gs = self.iwt[i].backward(gz, tape["iwt_caches"][i])
            gouts = _split_parts(self._unflatten_bf(gs, be, bf), a)
            g_blocks, g_parts[i] = nsform.band_multiply_adjoint(
                self._band_terms(tape["blocks"][i], self.layouts[i]),
                tape["parts"][i], gouts, tuple(range(2, 2 + cfg.dim)),
                cfg.padding)
            g_blocks_all[i] = {slot: g[:, 0] for slot, g in g_blocks.items()}
            g = gouts[-1]  # gradient into u from the next-finer level

        g_v = None  # gradient into the next-finer level's scaling part
        for i in range(cfg.levels):
            gp = g_parts[i]
            gv = gp[-1] if g_v is None else gp[-1] + g_v
            gy = np.concatenate(gp[:-1] + [gv], axis=-1)
            gz = self.fwt[i].backward_params(self._flatten_bf(gy),
                                             tape["fwt_caches"][i])
            if i < cfg.levels - 1:  # nothing reads the sources' gradient
                g_v = self._unflatten_bf(self.fwt[i].backward_input(
                    gz, tape["fwt_caches"][i]), be, bf)

        if self.cfg.symmetric:
            for fl, il in zip(self.fwt, self.iwt):
                fl.gw += untie(il.gw)
                il.gw[...] = 0.0

        self._eta_backward(self._materialize_backward(g_blocks_all),
                           tape["eta_caches"])


# -- bridging from true nonstandard forms ---------------------------------------

def collection_from_nsform(ns, cfg: ModelConfig) -> list[dict]:
    """Materialized per-level blocks reproducing a (truncated) nonstandard
    form.  Every channel carries the same diagonals, so under exact-filter
    initialization the channel average returns exactly the nsform matvec.
    A form with a nonzero diagonal outside the model's layout (a band
    wider than `cfg.nb`) is a ShapeError."""
    layouts = build_layout(cfg)
    if (ns.dim, len(ns.levels)) != (cfg.dim, cfg.levels):
        raise ShapeError(
            f"nsform has {len(ns.levels)} levels in {ns.dim}D, model "
            f"{cfg.levels} in {cfg.dim}D")
    last = (1 << cfg.dim) - 1
    # both key blocks by slot (i, j); the model's coarse slot (last, last)
    # is the oracle's dense coarse block, read as periodic diagonals
    out = []
    for i, (lay, level_blocks) in enumerate(zip(layouts, ns.levels)):
        blocks = {}
        for slot in sorted(lay.offsets):
            blk = level_blocks[slot] if slot != (last, last) \
                else nsform.BandedBlock.from_dense(ns.coarse, cfg.dim)
            have = dict(zip(map(tuple, blk.offsets.tolist()),
                            np.moveaxis(blk.data, -1, 0)))
            want = list(map(tuple, lay.offsets[slot].tolist()))
            for o in have.keys() - set(want):
                if np.any(have[o]):
                    raise ShapeError(
                        f"nsform level {i} (size {lay.size}), slot {slot}: "
                        f"diagonal {o} is nonzero but outside the model's "
                        f"band (nb={cfg.nb})")
            zero = np.zeros((lay.size,) * cfg.dim)
            arr = np.stack([have.get(o, zero) for o in want], axis=-1)
            # (spatial.., n_off) -> (1, spatial.., alpha, n_off)
            blocks[slot] = np.repeat(arr[..., None, :], cfg.alpha,
                                     axis=-2)[None]
        out.append(blocks)
    return out


#: bytes one transform conv's tap matrix may take in an export pass: a
#: pass of w unit sources holds two of them, w * N * p**dim * alpha
#: floats each, so this sets the pass width (and with it the BLAS kernel
#: of the convs' matmuls, hence the export's bits); the residue classes'
#: parts must fit it too, or export analyses every source
EXPORT_TAP_BYTES = 4 << 20


def _export_plan(mdl: MetaModel) -> tuple:
    """(w, table): the unit sources per export pass under
    `EXPORT_TAP_BYTES`, and the bytes of the residue classes' parts."""
    cfg = mdl.cfg
    nn = cfg.n ** cfg.dim
    tap = 8 * nn * cfg.p ** cfg.dim * cfg.alpha  # per source
    cells = sum(lay.size ** cfg.dim for lay in mdl.layouts)
    return (max(1, min(nn, EXPORT_TAP_BYTES // tap)),
            8 * (1 << cfg.levels * cfg.dim) * cells * (cfg.alpha << cfg.dim))


def _unit_sources(ks: np.ndarray, spatial: tuple) -> np.ndarray:
    """(1, len(ks), spatial..): one unit source at each flat index."""
    f = np.zeros((len(ks), int(np.prod(spatial))))
    f[np.arange(len(ks)), ks] = 1.0
    return f.reshape((1, len(ks)) + spatial)


def export_operator(mdl: MetaModel, eta: np.ndarray) -> np.ndarray:
    """Dense matrix of the learned operator at eta: `learned_operator`'s
    compiled blocks applied to unit sources (exact, because the f path is
    linear), in passes of `_export_plan`'s width written into the
    preallocated (N, N) result.

    Under a periodic wrap the forward transform is a strided convolution
    that commutes with shifts by whole coarsest cells: with q =
    2**levels, source c + q*a (per axis, c in [0, q)) has at level i the
    parts of source c shifted by a * 2**i cells.  So the q**dim residue
    classes are analysed once, and each pass gathers its parts from that
    table (one `np.take` per level) and runs only the synthesis.  Zero
    fill, where shifts do not commute with the convs, and a table larger
    than `EXPORT_TAP_BYTES` analyse every pass's sources instead.
    """
    cfg = mdl.cfg
    spatial = mdl._expect_spatial()
    nn = int(np.prod(spatial))
    compiled = _compile(mdl, eta)
    width, table = _export_plan(mdl)

    def analyse(ks):
        return mdl._analyse(_unit_sources(ks, spatial), False)[0]

    classes = None
    if cfg.padding == PERIODIC and table <= EXPORT_TAP_BYTES:
        # the q**dim class sources, in passes of `width`; per level one
        # row of all parts' channels per (class, cell)
        q = 1 << cfg.levels
        ks = np.ravel_multi_index(np.indices((q,) * cfg.dim).reshape(
            cfg.dim, -1), spatial)
        passes = [analyse(ks[lo:lo + width])
                  for lo in range(0, len(ks), width)]
        classes = [np.concatenate([np.concatenate(p[i], axis=-1)
                                   for p in passes], axis=1).reshape(
                                       -1, cfg.alpha << cfg.dim)
                   for i in range(cfg.levels)]
    g = np.empty((nn, nn))
    for lo in range(0, nn, width):
        ks = np.arange(lo, min(lo + width, nn))
        parts = analyse(ks) if classes is None \
            else _class_parts(classes, ks, mdl)
        u = mdl._synthesise(compiled, parts, False)[0]
        g[:, lo:lo + len(ks)] = u.reshape(len(ks), nn).T
    return g


def _class_parts(classes: list, ks: np.ndarray, mdl: MetaModel) -> list:
    """Every level's parts of the unit sources at flat indices ks, read
    from the residue classes' (class, cell) rows: per axis, source c +
    q*a at level i's cell x is class c at cell x - a * 2**i, wrapped
    (`nsform.shift_index`)."""
    dim, q = mdl.cfg.dim, 1 << mdl.cfg.levels
    a, r = np.divmod(np.stack(np.unravel_index(ks, (mdl.cfg.n,) * dim)), q)
    c = np.ravel_multi_index(r, (q,) * dim)
    parts = []
    for i, (table, lay) in enumerate(zip(classes, mdl.layouts)):
        grid = (lay.size,) * dim
        rows = c * lay.size ** dim + nsform.shift_index(
            grid, -(a.T << i), PERIODIC)
        parts.append(_split_parts(np.take(table, rows.T.reshape(
            (-1,) + grid), axis=0)[None], mdl.cfg.alpha))
    return parts


def _compile(mdl: MetaModel, eta: np.ndarray) -> list:
    """The collection at eta with each banded block compiled into its CSR
    matrix (`nsform.band_matrix`)."""
    return [{slot: nsform.band_matrix(lay.offsets[slot], arr[0], lay.size,
                                      mdl.cfg.padding)
             for slot, arr in blocks.items()}
            for blocks, lay in zip(mdl.collection(eta), mdl.layouts)]


def learned_operator(mdl: MetaModel, eta: np.ndarray) -> spla.LinearOperator:
    """The learned operator at eta on flattened grids, applied without
    forming it.  The collection is computed once and each banded block
    compiled once into a CSR matrix (`nsform.band_matrix`); `matvec` (and
    `matmat`, on (N, k) blocks) is `MetaModel.forward` with those
    matrices, bit-identical to the offset loop.  A symmetric model's
    operator is symmetric by construction, so there `rmatvec` (and
    `rmatmat`) is the same product; otherwise it is the forward of
    `mdl.transposed()` with each compiled block transposed (`.T`, exact
    also under zero fill) and moved from slot (i, j) to (j, i)."""
    compiled = _compile(mdl, eta)
    spatial = mdl._expect_spatial()
    nn = int(np.prod(spatial))

    def product(model, collection, v):
        f = np.asarray(v, dtype=float).reshape(nn, -1).T
        u = model.forward(eta, f.reshape((-1,) + spatial),
                          collection=collection)
        return u.reshape(-1, nn).T.reshape(np.shape(v))

    @functools.cache  # on first use: matvec-only callers need none
    def transpose():
        return mdl.transposed(), [
            {(j, i): mat.T for (i, j), mat in blocks.items()}
            for blocks in compiled]

    matvec = rmatvec = functools.partial(product, mdl, compiled)
    if not mdl.cfg.symmetric:
        def rmatvec(v):
            return product(*transpose(), v)
    return spla.LinearOperator((nn, nn), matvec=matvec, matmat=matvec,
                               rmatvec=rmatvec, rmatmat=rmatvec, dtype=float)
