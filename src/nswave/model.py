"""Meta-model: parameter field eta -> compressed operator acting on f.

Four stages, mirroring the fast nonstandard-form matvec:

1. per-level ConvNets map eta to the banded-block diagonal vectors (the
   channel collection), with the dense coarsest block emitted as the full
   set of periodic diagonals by the coarsest-level ConvNet;
2. learnable forward-transform convolutions (window 2p, stride 2, linear,
   no bias) split each scale into detail and smooth channels;
3. per-channel banded multiplication in coefficient space, with the
   fourth block zero except at the coarsest level;
4. learnable inverse-transform convolutions (window p, stride 1) with the
   interleaving reshape, followed by a channel average.

The f path is linear in f for every parameter value (no biases, no
activations).  In symmetric mode the inverse-transform weights are tied
to the adjoint of the forward-transform weights and the collection is
symmetrized (D1 and coarse block symmetric, D3 the banded transpose of
D2), which makes the exported operator symmetric for arbitrary
parameters.

With the transform convs initialized to the exact Daubechies filters and
the collection taken from a truncated nonstandard form, the forward pass
reproduces `nsform.apply` to rounding accuracy; that equivalence is the
structural anchor of the design.

Grid sizes need not be powers of two: any n divisible by 2**levels
works, which is how the 320-point and 80x80 configurations run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import nsform
from .errors import ConfigError, InferenceError, ShapeError
from .net import PERIODIC, ZERO, AvgPool1d, AvgPool2d, Conv1d, Conv2d
from .wavelets import WaveletFilter, daubechies_filter


@dataclass(frozen=True)
class ModelConfig:
    n: int                  # finest grid size per dimension
    levels: int             # number of wavelet levels
    alpha: int              # channel width
    depth: int              # conv layers per eta ConvNet
    nb: int                 # band half-width of the D blocks
    p: int                  # filter half-support (window = 2p)
    padding: str = PERIODIC
    symmetric: bool = False
    dim: int = 1
    init_noise: float = 1e-2
    seed: int = 0

    def validate(self) -> "ModelConfig":
        for name in ("n", "levels", "alpha", "depth", "nb", "p", "dim",
                     "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.symmetric, bool):
            raise ConfigError(f"symmetric must be true or false, "
                              f"got {self.symmetric!r}")
        if (not isinstance(self.init_noise, (int, float))
                or isinstance(self.init_noise, bool)):
            raise ConfigError(f"init_noise must be a number, "
                              f"got {self.init_noise!r}")
        if self.n < 1:
            raise ConfigError(f"n must be positive, got {self.n}")
        if self.dim not in (1, 2):
            raise ConfigError(f"dim must be 1 or 2, got {self.dim}")
        if self.levels < 1:
            raise ConfigError("need at least one level")
        if self.n % (1 << self.levels):
            raise ConfigError(
                f"n={self.n} not divisible by 2^levels={1 << self.levels}")
        if self.padding not in (PERIODIC, ZERO):
            raise ConfigError(f"unknown padding {self.padding!r}")
        if not 1 <= self.p <= 5:
            raise ConfigError(f"p={self.p} outside 1..5")
        if self.alpha < 1 or self.depth < 1 or self.nb < 0:
            raise ConfigError("alpha, depth must be >= 1 and nb >= 0")
        return self


# -- halo-padded shifts and their adjoint --------------------------------------
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


def _offset_rows(offsets: np.ndarray):
    """Offsets as rows of Python ints (one per axis), and the widest."""
    rows = offsets.reshape(len(offsets), -1)
    return rows.tolist(), int(np.abs(rows).max())


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


def _neg_index(offsets: np.ndarray, size: int) -> np.ndarray:
    """Index of the canonically negated offset within `offsets`."""
    canon = {tuple(np.atleast_1d(o)): t for t, o in enumerate(offsets)}
    neg = []
    for o in offsets:
        o_arr = np.atleast_1d(o)
        key = tuple(nsform.canonical_offset(int(-c), size) for c in o_arr)
        neg.append(canon[key])
    return np.asarray(neg)


# -- layout --------------------------------------------------------------------

#: 1D block keys -> (output part, input part) of the 2x2 level matrix
_BLOCKS_1D = {"d1": (0, 0), "d2": (0, 1), "d3": (1, 0), "d4": (1, 1)}


def _block_keys(dim: int, symmetric: bool, coarsest: bool):
    """(emitted, derived) block keys; `derived` maps key -> transpose source."""
    if dim == 1:
        emitted = ["d1", "d2"] if symmetric else ["d1", "d2", "d3"]
        derived = {"d3": "d2"} if symmetric else {}
        if coarsest:
            emitted.append("d4")
    else:
        if symmetric:
            emitted = [(i, j) for i in range(4) for j in range(i, 4)
                       if (i, j) != (3, 3)]
            derived = {(j, i): (i, j) for i in range(4)
                       for j in range(i + 1, 4)}
        else:
            emitted = list(nsform.BLOCK_SLOTS_2D)
            derived = {}
        if coarsest:
            emitted.append((3, 3))
    return tuple(emitted), derived


@dataclass
class LevelLayout:
    """Column layout of one level's collection array."""

    size: int
    emitted: tuple
    derived: dict
    offsets: dict       # block key -> (n_off,) or (n_off, 2) offset array
    neg: dict           # block key -> offset-negation permutation
    starts: dict        # emitted block key -> first column
    n_columns: int
    alpha: int
    sym_self: tuple = ()  # blocks forced symmetric in symmetric mode


def build_layout(cfg: ModelConfig) -> list[LevelLayout]:
    layouts = []
    for i in range(cfg.levels):
        size = cfg.n >> (cfg.levels - i)
        coarsest = i == 0
        emitted, derived = _block_keys(cfg.dim, cfg.symmetric, coarsest)
        band = nsform.band_offsets(size, cfg.nb)
        full = nsform.band_offsets(size, None)
        if cfg.dim == 2:
            band = np.array([(a, b) for a in band for b in band])
            full = np.array([(a, b) for a in full for b in full])
        offsets, neg, starts = {}, {}, {}
        for key in list(emitted) + list(derived):
            is_coarse = key in ("d4", (3, 3))
            offsets[key] = full if is_coarse else band
            neg[key] = _neg_index(offsets[key], size)
        col = 0
        for key in emitted:
            starts[key] = col
            col += cfg.alpha * len(offsets[key])
        if cfg.symmetric:
            cands = ("d1", "d4") if cfg.dim == 1 \
                else ((0, 0), (1, 1), (2, 2), (3, 3))
            sym_self = tuple(k for k in cands if k in offsets)
        else:
            sym_self = ()
        layouts.append(LevelLayout(size=size, emitted=emitted, derived=derived,
                                   offsets=offsets, neg=neg, starts=starts,
                                   n_columns=col, alpha=cfg.alpha,
                                   sym_self=sym_self))
    return layouts


def _split_columns(layout: LevelLayout, c_raw: np.ndarray) -> dict:
    """Raw ConvNet output (B, spatial.., n_columns) -> emitted block arrays
    (B, spatial.., alpha, n_off)."""
    blocks = {}
    lead = c_raw.shape[:-1]
    for key in layout.emitted:
        n_off = len(layout.offsets[key])
        s = layout.starts[key]
        width = layout.alpha * n_off
        blocks[key] = c_raw[..., s:s + width].reshape(
            lead + (layout.alpha, n_off))
    return blocks


def _join_columns(layout: LevelLayout, grads: dict, lead: tuple) -> np.ndarray:
    g = np.zeros(lead + (layout.n_columns,))
    for key in layout.emitted:
        if key not in grads:
            continue
        n_off = len(layout.offsets[key])
        s = layout.starts[key]
        width = layout.alpha * n_off
        g[..., s:s + width] = np.asarray(grads[key]).reshape(lead + (width,))
    return g


def _transpose_block(arr: np.ndarray, layout: LevelLayout, key,
                     spatial_axes) -> np.ndarray:
    """Banded transpose reindex: diag o of B^T is diag -o of B shifted by o."""
    offs, width = _offset_rows(layout.offsets[key])
    xp = _pad_halo(arr[..., layout.neg[key]], width, spatial_axes, PERIODIC)
    out = np.empty_like(arr)
    for t, o in enumerate(offs):
        out[..., t] = _halo_view(xp, o, width, spatial_axes)[..., t]
    return out


def symmetrize_blocks(blocks: dict, layout: LevelLayout,
                      spatial_axes) -> dict:
    """S-block symmetry enforcement: self-symmetric blocks averaged with
    their banded transpose, derived blocks regenerated.  Idempotent."""
    out = dict(blocks)
    for key in layout.sym_self:
        if key in out:
            out[key] = 0.5 * (out[key] + _transpose_block(
                out[key], layout, key, spatial_axes))
    for key, src in layout.derived.items():
        out[key] = _transpose_block(out[src], layout, src, spatial_axes)
    return out


def _symmetrize_backward(gblocks: dict, layout: LevelLayout,
                         spatial_axes) -> dict:
    """Adjoint of symmetrize_blocks, mapping grads back to emitted blocks."""
    g = {k: gblocks[k].copy() for k in layout.emitted if k in gblocks}
    for key, src in layout.derived.items():
        if key not in gblocks:
            continue
        gt = _transpose_block(gblocks[key], layout, key, spatial_axes)
        g[src] = g.get(src, 0.0) + gt
    for key in layout.sym_self:
        if key in g:
            g[key] = 0.5 * (g[key] + _transpose_block(
                g[key], layout, key, spatial_axes))
    return g


# -- exact-filter kernels -------------------------------------------------------

def _fwt_kernel_1d(filt: WaveletFilter, alpha: int) -> np.ndarray:
    w = filt.width
    k = np.zeros((w, alpha, 2 * alpha))
    for c in range(alpha):
        k[:, c, c] = filt.g
        k[:, c, alpha + c] = filt.h
    return k


def _iwt_kernel_1d(filt: WaveletFilter, alpha: int) -> np.ndarray:
    p = filt.p
    k = np.zeros((p, 2 * alpha, 2 * alpha))
    for j in range(p):
        for r in range(2):
            tap = 2 * (p - 1 - j) + r
            for c in range(alpha):
                k[j, c, r * alpha + c] = filt.g[tap]
                k[j, alpha + c, r * alpha + c] = filt.h[tap]
    return k


_PAIR_2D = ("hg", "gh", "gg", "hh")  # d1, d2, d3, v filter products (x, y)


def _filters_2d(filt: WaveletFilter):
    f = {"h": filt.h, "g": filt.g}
    return [(f[a], f[b]) for a, b in _PAIR_2D]


def _fwt_kernel_2d(filt: WaveletFilter, alpha: int) -> np.ndarray:
    w = filt.width
    k = np.zeros((w, w, alpha, 4 * alpha))
    for typ, (fx, fy) in enumerate(_filters_2d(filt)):
        outer = np.outer(fx, fy)
        for c in range(alpha):
            k[:, :, c, typ * alpha + c] = outer
    return k


def _iwt_kernel_2d(filt: WaveletFilter, alpha: int) -> np.ndarray:
    p = filt.p
    k = np.zeros((p, p, 4 * alpha, 4 * alpha))
    prods = _filters_2d(filt)
    for j1 in range(p):
        for j2 in range(p):
            for r1 in range(2):
                for r2 in range(2):
                    t1 = 2 * (p - 1 - j1) + r1
                    t2 = 2 * (p - 1 - j2) + r2
                    base = (r1 * 2 + r2) * alpha
                    for typ, (fx, fy) in enumerate(prods):
                        coeff = fx[t1] * fy[t2]
                        for c in range(alpha):
                            k[j1, j2, typ * alpha + c, base + c] = coeff
    return k


def _tie_iwt_1d(fw: np.ndarray) -> np.ndarray:
    """Adjoint of a forward-transform conv, as an inverse-transform kernel."""
    w2p, alpha, two_a = fw.shape
    p = w2p // 2
    k = np.zeros((p, two_a, two_a))
    for j in range(p):
        for r in range(2):
            k[j, :, r * alpha:(r + 1) * alpha] = fw[2 * (p - 1 - j) + r].T
    return k


def _tie_iwt_1d_grad(gk: np.ndarray, alpha: int) -> np.ndarray:
    p = gk.shape[0]
    gf = np.zeros((2 * p, alpha, 2 * alpha))
    for j in range(p):
        for r in range(2):
            gf[2 * (p - 1 - j) + r] += gk[j, :, r * alpha:(r + 1) * alpha].T
    return gf


def _tie_iwt_2d(fw: np.ndarray) -> np.ndarray:
    w2p, _, alpha, four_a = fw.shape
    p = w2p // 2
    k = np.zeros((p, p, four_a, four_a))
    for j1 in range(p):
        for j2 in range(p):
            for r1 in range(2):
                for r2 in range(2):
                    q = (r1 * 2 + r2) * alpha
                    k[j1, j2, :, q:q + alpha] = \
                        fw[2 * (p - 1 - j1) + r1, 2 * (p - 1 - j2) + r2].T
    return k


def _tie_iwt_2d_grad(gk: np.ndarray, alpha: int) -> np.ndarray:
    p = gk.shape[0]
    gf = np.zeros((2 * p, 2 * p, alpha, 4 * alpha))
    for j1 in range(p):
        for j2 in range(p):
            for r1 in range(2):
                for r2 in range(2):
                    q = (r1 * 2 + r2) * alpha
                    gf[2 * (p - 1 - j1) + r1, 2 * (p - 1 - j2) + r2] += \
                        gk[j1, j2, :, q:q + alpha].T
    return gf


# -- the model -----------------------------------------------------------------

class MetaModel:
    """Learnable map (eta, f) -> u through the compressed-operator pipeline."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg.validate()
        self.layouts = build_layout(cfg)
        rng = np.random.default_rng(cfg.seed)
        conv_cls = Conv1d if cfg.dim == 1 else Conv2d
        pool_cls = AvgPool1d if cfg.dim == 1 else AvgPool2d
        w = 2 * cfg.p
        center = -(cfg.p - 1)

        # eta path: one ConvNet per level, pooling down to that level's size
        self.convnets = []
        for i, lay in enumerate(self.layouts):
            pools_needed = cfg.levels - i
            seq = []
            placed = 0
            for k in range(cfg.depth):
                cin = 1 if k == 0 else cfg.alpha
                seq.append(conv_cls(cin, cfg.alpha, w, stride=1,
                                    padding=cfg.padding, activation="relu",
                                    base_offset=center, rng=rng))
                if placed < pools_needed:
                    seq.append(pool_cls())
                    placed += 1
            while placed < pools_needed:
                seq.append(pool_cls())
                placed += 1
            head = conv_cls(cfg.alpha, lay.n_columns, 1, stride=1,
                            padding=cfg.padding, activation="linear",
                            rng=rng)
            # damp the emitted collection at init: an O(1) random collection
            # amplifies the operator ~100x and stalls the first training phase
            head.weight *= 1e-2
            seq.append(head)
            self.convnets.append(seq)

        # f path: forward/inverse transform convs per level, linear, no bias
        ch_mult = 2 if cfg.dim == 1 else 4
        self.fwt = [conv_cls(cfg.alpha, ch_mult * cfg.alpha, w, stride=2,
                             padding=cfg.padding, bias=False, rng=rng)
                    for _ in range(cfg.levels)]
        self.iwt = [conv_cls(ch_mult * cfg.alpha, ch_mult * cfg.alpha, cfg.p,
                             stride=1, padding=cfg.padding, bias=False,
                             base_offset=center, rng=rng)
                    for _ in range(cfg.levels)]
        self.init_filters(daubechies_filter(cfg.p), noise=cfg.init_noise,
                          rng=rng)

    # -- parameter bookkeeping ----------------------------------------------

    def _iwt_tied(self) -> bool:
        return self.cfg.symmetric

    def parameters(self) -> dict[str, np.ndarray]:
        out = {}
        for i, seq in enumerate(self.convnets):
            for k, layer in enumerate(seq):
                if hasattr(layer, "params"):
                    out.update(layer.params(f"convnet{i}.{k}"))
        for i, layer in enumerate(self.fwt):
            out.update(layer.params(f"fwt{i}"))
        if not self._iwt_tied():
            for i, layer in enumerate(self.iwt):
                out.update(layer.params(f"iwt{i}"))
        return out

    def gradients(self) -> dict[str, np.ndarray]:
        out = {}
        for i, seq in enumerate(self.convnets):
            for k, layer in enumerate(seq):
                if hasattr(layer, "grads"):
                    out.update(layer.grads(f"convnet{i}.{k}"))
        for i, layer in enumerate(self.fwt):
            out.update(layer.grads(f"fwt{i}"))
        if not self._iwt_tied():
            for i, layer in enumerate(self.iwt):
                out.update(layer.grads(f"iwt{i}"))
        return out

    def zero_grads(self) -> None:
        for seq in self.convnets:
            for layer in seq:
                if hasattr(layer, "zero_grads"):
                    layer.zero_grads()
        for layer in self.fwt + self.iwt:
            layer.zero_grads()

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters().values())

    def describe(self) -> dict:
        d = asdict(self.cfg)
        d["parameter_count"] = self.parameter_count()
        d["iwt_tied"] = self._iwt_tied()
        return d

    def init_filters(self, filt: WaveletFilter, noise: float = 0.0,
                     rng: np.random.Generator | None = None) -> None:
        """Set the transform convs to the exact filter pair plus optional
        Gaussian perturbation (the warm start used everywhere)."""
        if filt.p != self.cfg.p:
            raise ConfigError(f"filter p={filt.p} != model p={self.cfg.p}")
        rng = rng or np.random.default_rng(self.cfg.seed + 1)
        a = self.cfg.alpha
        fk = _fwt_kernel_1d(filt, a) if self.cfg.dim == 1 \
            else _fwt_kernel_2d(filt, a)
        ik = _iwt_kernel_1d(filt, a) if self.cfg.dim == 1 \
            else _iwt_kernel_2d(filt, a)
        for layer in self.fwt:
            layer.weight[...] = fk
            if noise:
                layer.weight += noise * rng.standard_normal(layer.weight.shape)
        for layer in self.iwt:
            layer.weight[...] = ik
            if noise and not self._iwt_tied():
                layer.weight += noise * rng.standard_normal(layer.weight.shape)

    # -- eta path -------------------------------------------------------------

    def _expect_spatial(self) -> tuple:
        n = self.cfg.n
        return (n,) if self.cfg.dim == 1 else (n, n)

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

    def _eta_backward(self, g_raw: list, caches: list) -> np.ndarray:
        g_eta = 0.0
        for seq, g, seq_cache in zip(self.convnets, g_raw, caches):
            gx = g
            for layer, cache in zip(reversed(seq), reversed(seq_cache)):
                gx = layer.backward(gx, cache)
            g_eta = g_eta + gx
        return g_eta[..., 0]

    # -- collection handling --------------------------------------------------

    def _spatial_axes(self) -> tuple:
        return (1,) if self.cfg.dim == 1 else (1, 2)

    def _materialize(self, raw: list) -> tuple[list, list]:
        axes = self._spatial_axes()
        blocks = []
        for lay, c in zip(self.layouts, raw):
            b = _split_columns(lay, c)
            if self.cfg.symmetric:
                b = symmetrize_blocks(b, lay, axes)
            blocks.append(b)
        return blocks, [c.shape[:-1] for c in raw]

    def _materialize_backward(self, gblocks: list, leads: list) -> list:
        axes = self._spatial_axes()
        out = []
        for lay, g, lead in zip(self.layouts, gblocks, leads):
            if self.cfg.symmetric:
                g_emit = _symmetrize_backward(g, lay, axes)
            else:
                g_emit = g
            out.append(_join_columns(lay, g_emit, lead))
        return out

    def collection(self, eta: np.ndarray) -> list[dict]:
        """Materialized per-level block dicts for a given eta."""
        return self._materialize(self.eta_to_C(eta))[0]

    # -- band multiply ----------------------------------------------------------

    def _band_terms(self, blocks: dict, lay: LevelLayout, coarsest: bool):
        """(key, output part, input part, offsets, block array) of each
        block the level applies, and the halo width its offsets need."""
        terms, width = [], 0
        for key, arr in blocks.items():
            if key in ("d4", (3, 3)) and not coarsest:
                continue
            i, j = _BLOCKS_1D[key] if self.cfg.dim == 1 else key
            offs, w = _offset_rows(lay.offsets[key])
            terms.append((key, i, j, offs, arr))
            width = max(width, w)
        return terms, width

    def _band_matvec(self, blocks: dict, lay: LevelLayout, d, v,
                     coarsest: bool):
        """(w parts, s) from (d parts, v) via the per-channel banded blocks.

        f-path parts are (Be, Bf, spatial.., alpha); block arrays are
        (Be, spatial.., alpha, n_off) and broadcast over Bf.
        """
        dim = self.cfg.dim
        axes = (2,) if dim == 1 else (2, 3)
        parts_in = (d, v) if dim == 1 else tuple(d) + (v,)
        terms, width = self._band_terms(blocks, lay, coarsest)
        padded = [_pad_halo(x, width, axes, self.cfg.padding)
                  for x in parts_in]
        outs = [0.0] * len(parts_in)
        for _, i, j, offs, arr in terms:
            xp = padded[j]
            acc = arr[:, None, ..., 0] * _halo_view(xp, offs[0], width, axes)
            tmp = np.empty_like(acc)
            for t in range(1, len(offs)):
                np.multiply(arr[:, None, ..., t],
                            _halo_view(xp, offs[t], width, axes), out=tmp)
                acc += tmp
            outs[i] = outs[i] + acc
        return outs

    def _band_matvec_backward(self, blocks, lay, d, v, gouts, coarsest):
        dim = self.cfg.dim
        axes = (2,) if dim == 1 else (2, 3)
        pad = self.cfg.padding
        parts_in = (d, v) if dim == 1 else tuple(d) + (v,)
        terms, width = self._band_terms(blocks, lay, coarsest)
        padded = [_pad_halo(x, width, axes, pad) for x in parts_in]
        g_padded = [np.zeros_like(xp) for xp in padded]
        g_blocks = {}
        for key, i, j, offs, arr in terms:
            xp, gp = padded[j], g_padded[j]
            go = gouts[i]
            g_arr = np.empty_like(arr)
            tmp = np.empty(go.shape)
            for t, o in enumerate(offs):
                xs = _halo_view(xp, o, width, axes)
                g_arr[..., t] = np.sum(np.multiply(go, xs, out=tmp), axis=1)
                _halo_view(gp, o, width, axes)[...] += np.multiply(
                    arr[:, None, ..., t], go, out=tmp)
            g_blocks[key] = g_arr
        g_parts = [_fold_halo(gp, width, axes, pad) for gp in g_padded]
        if dim == 1:
            return g_blocks, g_parts[0], g_parts[1]
        return g_blocks, g_parts[:3], g_parts[3]

    # -- forward / backward ----------------------------------------------------

    def _flatten_bf(self, x: np.ndarray) -> np.ndarray:
        be, bf = x.shape[:2]
        return x.reshape((be * bf,) + x.shape[2:])

    def _unflatten_bf(self, x: np.ndarray, be: int, bf: int) -> np.ndarray:
        return x.reshape((be, bf) + x.shape[1:])

    def _interleave(self, z: np.ndarray) -> np.ndarray:
        """(.., m, 2a) -> (.., 2m, a) row-interleaved; in 2D the 5-tensor
        split / permute / merge."""
        a = self.cfg.alpha
        be, bf, m = z.shape[:3]
        if self.cfg.dim == 1:
            return z.reshape(be, bf, m, 2, a).reshape(be, bf, 2 * m, a)
        z5 = z.reshape(be, bf, m, m, 2, 2, a)
        z5 = z5.transpose(0, 1, 2, 4, 3, 5, 6)
        return z5.reshape(be, bf, 2 * m, 2 * m, a)

    def _interleave_backward(self, gu: np.ndarray) -> np.ndarray:
        a = self.cfg.alpha
        be, bf, m2 = gu.shape[:3]
        m = m2 // 2
        if self.cfg.dim == 1:
            return gu.reshape(be, bf, m, 2, a).reshape(be, bf, m, 2 * a)
        g5 = gu.reshape(be, bf, m, 2, m, 2, a)
        g5 = g5.transpose(0, 1, 2, 4, 3, 5, 6)
        return g5.reshape(be, bf, m, m, 4 * a)

    def forward_with_tape(self, eta: np.ndarray, f: np.ndarray,
                          collection: list | None = None):
        """Forward pass keeping the intermediates `backward` needs.

        eta: (spatial) or (Be, spatial); f: (spatial), (Bf, spatial) or
        (Be, Bf, spatial).  Returns (u, tape), u of shape (Be, Bf, spatial).
        When `collection` is given (materialized block dicts) the eta path
        is skipped entirely.
        """
        cfg = self.cfg
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
            raw, eta_caches = self.eta_to_C(eta_b, with_caches=True)
            blocks, leads = self._materialize(raw)
            tape["eta_caches"] = eta_caches
            tape["leads"] = leads
        else:
            blocks = collection
        tape["blocks"] = blocks
        tape["ext_collection"] = collection is not None

        if self._iwt_tied():
            tie = _tie_iwt_1d if cfg.dim == 1 else _tie_iwt_2d
            for fl, il in zip(self.fwt, self.iwt):
                il.weight[...] = tie(fl.weight)

        x = np.repeat(f_b[..., None], cfg.alpha, axis=-1)

        fwt_caches = [None] * cfg.levels
        d_parts = [None] * cfg.levels
        v_parts = [None] * cfg.levels
        cur = x
        for i in range(cfg.levels - 1, -1, -1):
            y, cache = self.fwt[i].forward(self._flatten_bf(cur))
            y = self._unflatten_bf(y, be, bf)
            fwt_caches[i] = cache
            if cfg.dim == 1:
                d_parts[i] = y[..., :cfg.alpha]
                v_parts[i] = y[..., cfg.alpha:]
            else:
                d_parts[i] = (y[..., :cfg.alpha],
                              y[..., cfg.alpha:2 * cfg.alpha],
                              y[..., 2 * cfg.alpha:3 * cfg.alpha])
                v_parts[i] = y[..., 3 * cfg.alpha:]
            cur = v_parts[i]
        tape["fwt_caches"] = fwt_caches
        tape["d"] = d_parts
        tape["v"] = v_parts

        iwt_caches = [None] * cfg.levels
        u = None
        for i in range(cfg.levels):
            lay = self.layouts[i]
            outs = self._band_matvec(blocks[i], lay, d_parts[i], v_parts[i],
                                     coarsest=(i == 0))
            last = outs[-1] if u is None else outs[-1] + u
            stacked = np.concatenate(list(outs[:-1]) + [last], axis=-1)
            z, cache = self.iwt[i].forward(self._flatten_bf(stacked))
            iwt_caches[i] = cache
            u = self._interleave(self._unflatten_bf(z, be, bf))
        tape["iwt_caches"] = iwt_caches

        out = u.mean(axis=-1)
        if not np.all(np.isfinite(out)):
            raise InferenceError("non-finite values in model output")
        return out, tape

    def forward(self, eta: np.ndarray, f: np.ndarray,
                collection: list | None = None) -> np.ndarray:
        """Model output with the batch axes squeezed to match the inputs."""
        f_arr = np.asarray(f, dtype=float)
        eta_arr = np.asarray(eta, dtype=float)
        u, _ = self.forward_with_tape(eta_arr, f_arr, collection=collection)
        sdim = len(self._expect_spatial())
        if eta_arr.ndim == sdim:
            if f_arr.ndim == sdim:
                return u[0, 0]
            if f_arr.ndim == sdim + 1:
                return u[0]
        return u

    def backward(self, tape: dict, gu: np.ndarray):
        """Accumulate parameter gradients; returns (g_eta, g_f).

        gu matches the (Be, Bf, spatial..) output of forward_with_tape.
        """
        cfg = self.cfg
        be, bf = tape["be"], tape["bf"]
        a = cfg.alpha
        g = np.repeat(gu[..., None] / a, a, axis=-1)

        g_blocks_all = [None] * cfg.levels
        g_d = [None] * cfg.levels
        g_v = [None] * cfg.levels
        for i in range(cfg.levels - 1, -1, -1):
            gz = self._interleave_backward(g)
            gs = self.iwt[i].backward(self._flatten_bf(gz),
                                      tape["iwt_caches"][i])
            gs = self._unflatten_bf(gs, be, bf)
            if cfg.dim == 1:
                gouts = [gs[..., :a], gs[..., a:]]
            else:
                gouts = [gs[..., :a], gs[..., a:2 * a], gs[..., 2 * a:3 * a],
                         gs[..., 3 * a:]]
            gb, gdi, gvi = self._band_matvec_backward(
                tape["blocks"][i], self.layouts[i], tape["d"][i],
                tape["v"][i], gouts, coarsest=(i == 0))
            g_blocks_all[i] = gb
            g_d[i] = gdi
            g_v[i] = gvi
            g = gouts[-1]  # gradient into u from the next-finer level

        g_f_chan = None
        for i in range(cfg.levels):
            gv = g_v[i] if g_f_chan is None else g_v[i] + g_f_chan
            if cfg.dim == 1:
                gy = np.concatenate([g_d[i], gv], axis=-1)
            else:
                gy = np.concatenate(list(g_d[i]) + [gv], axis=-1)
            gx = self.fwt[i].backward(self._flatten_bf(gy),
                                      tape["fwt_caches"][i])
            g_f_chan = self._unflatten_bf(gx, be, bf)
        g_f = g_f_chan.sum(axis=-1)

        if self._iwt_tied():
            fold = _tie_iwt_1d_grad if cfg.dim == 1 else _tie_iwt_2d_grad
            for fl, il in zip(self.fwt, self.iwt):
                fl.gw += fold(il.gw, a)
                il.gw[...] = 0.0

        g_eta = None
        if not tape["ext_collection"]:
            g_raw = self._materialize_backward(g_blocks_all, tape["leads"])
            g_eta = self._eta_backward(g_raw, tape["eta_caches"])
        return g_eta, g_f


# -- bridging from true nonstandard forms ---------------------------------------

def collection_from_nsform(ns, cfg: ModelConfig) -> list[dict]:
    """Materialized per-level blocks reproducing a (truncated) nonstandard
    form.  Every channel carries the same diagonals, so under exact-filter
    initialization the channel average returns exactly the nsform matvec."""
    layouts = build_layout(cfg)
    if len(ns.levels) != cfg.levels:
        raise ShapeError(
            f"nsform has {len(ns.levels)} levels, model {cfg.levels}")
    out = []
    for i, (lay, lb) in enumerate(zip(layouts, ns.levels)):
        blocks = {}
        if cfg.dim == 1:
            srcs = {"d1": lb.d1, "d2": lb.d2, "d3": lb.d3}
        else:
            srcs = dict(lb.blocks)
        for key, blk in srcs.items():
            arr = _lookup_diags(blk, lay.offsets[key], lay.size, cfg.dim)
            blocks[key] = _tile_channels(arr, cfg.alpha)
        if i == 0:
            coarse_key = "d4" if cfg.dim == 1 else (3, 3)
            if cfg.dim == 1:
                cb = nsform.BandedBlock.from_dense(ns.coarse)
            else:
                cb = nsform.BandedBlock2D.from_dense(ns.coarse, lay.size)
            arr = _lookup_diags(cb, lay.offsets[coarse_key], lay.size, cfg.dim)
            blocks[coarse_key] = _tile_channels(arr, cfg.alpha)
        out.append(blocks)
    return out


def _lookup_diags(blk, offsets: np.ndarray, size: int, dim: int) -> np.ndarray:
    """Diagonal data of a banded block re-ordered to a layout's offsets."""
    have = {tuple(np.atleast_1d(o)): t for t, o in enumerate(blk.offsets)}
    cols = []
    for o in offsets:
        key = tuple(np.atleast_1d(o))
        if key in have:
            cols.append(blk.data[..., have[key]])
        else:
            cols.append(np.zeros((size,) if dim == 1 else (size, size)))
    return np.stack(cols, axis=-1)


def _tile_channels(arr: np.ndarray, alpha: int) -> np.ndarray:
    # (spatial.., n_off) -> (1, spatial.., alpha, n_off)
    return np.repeat(arr[..., None, :], alpha, axis=-2)[None]


#: unit sources pushed through the f path per export pass; it bounds the
#: pass's working set, which grows linearly with it
EXPORT_PASS = 64


def export_operator(mdl: MetaModel, eta: np.ndarray,
                    collection: list | None = None) -> np.ndarray:
    """Dense matrix of the learned operator at eta: columns are responses
    to unit sources (exact, because the f path is linear).

    The collection is computed once (unless given), and the unit sources
    run through the f path in passes of `EXPORT_PASS`, each writing its
    columns into the preallocated (N, N) result; memory stays bounded by
    one pass whatever the grid size.
    """
    if collection is None:
        collection = mdl.collection(eta)
    spatial = mdl._expect_spatial()
    nn = int(np.prod(spatial))
    g = np.empty((nn, nn))
    for lo in range(0, nn, EXPORT_PASS):
        hi = min(lo + EXPORT_PASS, nn)
        basis = np.zeros((hi - lo, nn))
        basis[np.arange(hi - lo), np.arange(lo, hi)] = 1.0
        u = mdl.forward(eta, basis.reshape((hi - lo,) + spatial),
                        collection=collection)
        g[:, lo:hi] = u.reshape(hi - lo, nn).T
    return g
