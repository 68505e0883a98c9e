"""Meta-model: parameter field eta -> compressed operator acting on f.

Four stages, mirroring the fast nonstandard-form matvec:

1. per-level ConvNets map eta to the banded-block diagonal vectors (the
   channel collection), with the dense coarsest block emitted as the full
   set of periodic diagonals by the coarsest-level ConvNet;
2. learnable forward-transform convolutions (window 2p, stride 2, linear,
   no bias) split each scale into detail and smooth channels;
3. per-channel banded multiplication in coefficient space, with the
   scaling-to-scaling block zero except at the coarsest level;
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

One code path serves 1D and 2D: grids are (n,)*dim, offsets dim-tuples,
and a level has 2**dim parts (2D is 1D applied per axis, as in BCR 1991).
Grid sizes need not be powers of two: any n divisible by 2**levels
works, which is how the 320-point and 80x80 configurations run.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass

import numpy as np

from . import nsform
from .errors import ConfigError, InferenceError, ShapeError
from .net import PERIODIC, ZERO, AvgPool, Conv
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
                or isinstance(self.init_noise, bool)
                or not 0 <= self.init_noise < np.inf):
            raise ConfigError(f"init_noise must be a finite number >= 0, "
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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


def _transpose_index(offsets: np.ndarray, size: int,
                     alpha: int) -> np.ndarray:
    """Flat gather index of the banded transpose over one block array
    (spatial.., alpha, n_off): diagonal o of B^T is diagonal -o of B
    shifted by o, out[k.., c, t] = arr[(k + o_t) mod size.., c, neg(t)]
    with neg(t) the index of the canonically negated offset."""
    rows = [tuple(o) for o in offsets.tolist()]
    index = {o: t for t, o in enumerate(rows)}
    neg = [index[tuple(nsform.canonical_offset(-c, size) for c in o)]
           for o in rows]
    dim = offsets.shape[1]
    flat = 0
    for ax in range(dim):
        k = np.arange(size).reshape(
            tuple(size if a == ax else 1 for a in range(dim)) + (1, 1))
        flat = flat * size + (k + offsets[:, ax]) % size
    return (flat * alpha + np.arange(alpha)[:, None]) * len(rows) + neg


# -- layout --------------------------------------------------------------------
#
# A level of the f path has 2**dim parts: the wavelet parts first, then the
# scaling part (1D: d, v; 2D: d1, d2, d3, v).  Blocks are keyed by their slot
# (i, j), which maps input part j to output part i; slot (last, last) is the
# dense coarse block, which only the coarsest level carries.


def _block_slots(dim: int, symmetric: bool, coarsest: bool):
    """(emitted, derived) slots in column order; `derived` maps a slot to
    its transpose source."""
    last = (1 << dim) - 1
    pairs = [(i, j) for i in range(last + 1) for j in range(last + 1)
             if (i, j) != (last, last)]
    if symmetric:
        emitted = [(i, j) for i, j in pairs if i <= j]
        derived = {(j, i): (i, j) for i, j in pairs if i < j}
    else:
        emitted, derived = pairs, {}
    if coarsest:
        emitted.append((last, last))
    return emitted, derived


@dataclass
class LevelLayout:
    """Column layout of one level's collection array."""

    size: int
    emitted: tuple
    derived: dict
    offsets: dict       # block slot -> (n_off, dim) offset array
    transpose: dict     # block slot -> `_transpose_index` of its offsets
    columns: dict       # emitted block slot -> its slice of columns
    n_columns: int
    alpha: int
    sym_self: tuple = ()  # blocks forced symmetric in symmetric mode


def build_layout(cfg: ModelConfig) -> list[LevelLayout]:
    layouts = []
    last = (1 << cfg.dim) - 1
    for i in range(cfg.levels):
        size = cfg.n >> (cfg.levels - i)
        emitted, derived = _block_slots(cfg.dim, cfg.symmetric, i == 0)
        band, full = (np.array(list(itertools.product(offs, repeat=cfg.dim)))
                      for offs in (nsform.band_offsets(size, cfg.nb),
                                   nsform.band_offsets(size, None)))
        offsets, transpose, columns = {}, {}, {}
        band_t = _transpose_index(band, size, cfg.alpha)
        for slot in emitted + list(derived):
            if slot == (last, last):
                offsets[slot] = full
                transpose[slot] = _transpose_index(full, size, cfg.alpha)
            else:
                offsets[slot], transpose[slot] = band, band_t
        col = 0
        for slot in emitted:
            width = cfg.alpha * len(offsets[slot])
            columns[slot] = slice(col, col + width)
            col += width
        layouts.append(LevelLayout(
            size=size, emitted=tuple(emitted), derived=derived,
            offsets=offsets, transpose=transpose, columns=columns,
            n_columns=col, alpha=cfg.alpha,
            sym_self=tuple(s for s in emitted
                           if cfg.symmetric and s[0] == s[1])))
    return layouts


def _split_columns(layout: LevelLayout, c_raw: np.ndarray) -> dict:
    """Raw ConvNet output (B, spatial.., n_columns) -> emitted block arrays
    (B, spatial.., alpha, n_off)."""
    lead = c_raw.shape[:-1]
    return {key: c_raw[..., sl].reshape(
        lead + (layout.alpha, len(layout.offsets[key])))
        for key, sl in layout.columns.items()}


def _join_columns(layout: LevelLayout, grads: dict, lead: tuple) -> np.ndarray:
    g = np.zeros(lead + (layout.n_columns,))
    for key, sl in layout.columns.items():
        if key in grads:
            g[..., sl] = np.asarray(grads[key]).reshape(
                lead + (sl.stop - sl.start,))
    return g


def _transpose_block(arr: np.ndarray, layout: LevelLayout, key,
                     spatial_axes) -> np.ndarray:
    """Banded transpose reindex (a pure gather, so exact): one `np.take`
    of the layout's flat index over each leading (batch) entry."""
    lead = arr.shape[:spatial_axes[0]]
    return np.take(arr.reshape(lead + (-1,)), layout.transpose[key],
                   axis=len(lead))


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


# -- transform kernels ---------------------------------------------------------

#: per-axis filters of each f-path part, wavelet parts first
_PARTS = {1: ("g", "h"), 2: ("hg", "gh", "gg", "hh")}


def _fwt_kernel(filt: WaveletFilter, alpha: int, dim: int) -> np.ndarray:
    """Exact forward-transform kernel (2p,)*dim + (alpha, 2**dim * alpha):
    channel c of part q carries the outer product of q's axis filters."""
    f = {"g": filt.g, "h": filt.h}
    k = np.zeros((filt.width,) * dim + (alpha, len(_PARTS[dim]) * alpha))
    for q, axes in enumerate(_PARTS[dim]):
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

class MetaModel:
    """Learnable map (eta, f) -> u through the compressed-operator pipeline."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg.validate()
        self.layouts = build_layout(cfg)
        rng = np.random.default_rng(cfg.seed)
        dim = cfg.dim
        w = 2 * cfg.p
        center = -(cfg.p - 1)

        # eta path: one ConvNet per level, pooling down to that level's size
        self.convnets = []
        for i, lay in enumerate(self.layouts):
            pools_needed = cfg.levels - i
            seq = []
            for k in range(cfg.depth):
                cin = 1 if k == 0 else cfg.alpha
                seq.append(Conv(dim, cin, cfg.alpha, w, stride=1,
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

        # f path: forward/inverse transform convs per level, linear, no bias
        m = cfg.alpha << dim  # a level's 2**dim parts of alpha channels
        self.fwt = [Conv(dim, cfg.alpha, m, w, stride=2, padding=cfg.padding,
                         bias=False, rng=rng)
                    for _ in range(cfg.levels)]
        self.iwt = [Conv(dim, m, m, cfg.p, stride=1, padding=cfg.padding,
                         bias=False, base_offset=center, rng=rng)
                    for _ in range(cfg.levels)]
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
        d = asdict(self.cfg)
        d["parameter_count"] = self.parameter_count()
        d["iwt_tied"] = self.cfg.symmetric
        return d

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
        return tuple(range(1, 1 + self.cfg.dim))

    def _materialize(self, raw: list) -> tuple[list, list]:
        blocks = [_split_columns(lay, c) for lay, c in zip(self.layouts, raw)]
        if self.cfg.symmetric:
            blocks = [symmetrize_blocks(b, lay, self._spatial_axes())
                      for b, lay in zip(blocks, self.layouts)]
        return blocks, [c.shape[:-1] for c in raw]

    def _materialize_backward(self, gblocks: list, leads: list) -> list:
        if self.cfg.symmetric:
            gblocks = [_symmetrize_backward(g, lay, self._spatial_axes())
                       for g, lay in zip(gblocks, self.layouts)]
        return [_join_columns(lay, g, lead)
                for lay, g, lead in zip(self.layouts, gblocks, leads)]

    def collection(self, eta: np.ndarray) -> list[dict]:
        """Materialized per-level block dicts for a given eta."""
        return self._materialize(self.eta_to_C(eta))[0]

    # -- band multiply ----------------------------------------------------------

    def _band_terms(self, blocks: dict, lay: LevelLayout):
        """(slot, offsets, block array) of each block the level applies,
        and the halo width its offsets need."""
        terms, width = [], 0
        for slot, arr in blocks.items():
            offs = lay.offsets[slot]
            terms.append((slot, offs.tolist(), arr))
            width = max(width, int(np.abs(offs).max()))
        return terms, width

    def _band_matvec(self, blocks: dict, lay: LevelLayout, parts: list):
        """Output parts from the level's input parts via the per-channel
        banded blocks.

        f-path parts are (Be, Bf, spatial.., alpha); block arrays are
        (Be, spatial.., alpha, n_off) and broadcast over Bf.
        """
        axes = tuple(range(2, 2 + self.cfg.dim))
        terms, width = self._band_terms(blocks, lay)
        padded = [_pad_halo(x, width, axes, self.cfg.padding)
                  for x in parts]
        outs = [0.0] * len(parts)
        for (i, j), offs, arr in terms:
            xp = padded[j]
            acc = arr[:, None, ..., 0] * _halo_view(xp, offs[0], width, axes)
            tmp = np.empty_like(acc)
            for t in range(1, len(offs)):
                np.multiply(arr[:, None, ..., t],
                            _halo_view(xp, offs[t], width, axes), out=tmp)
                acc += tmp
            outs[i] = outs[i] + acc
        return outs

    def _band_matvec_backward(self, blocks, lay, parts, gouts):
        """(block grads, input-part grads) of `_band_matvec`."""
        axes = tuple(range(2, 2 + self.cfg.dim))
        pad = self.cfg.padding
        terms, width = self._band_terms(blocks, lay)
        padded = [_pad_halo(x, width, axes, pad) for x in parts]
        g_padded = [np.zeros_like(xp) for xp in padded]
        g_blocks = {}
        for (i, j), offs, arr in terms:
            xp, gp = padded[j], g_padded[j]
            go = gouts[i]
            g_arr = np.empty_like(arr)
            tmp = np.empty(go.shape)
            for t, o in enumerate(offs):
                xs = _halo_view(xp, o, width, axes)
                g_arr[..., t] = np.sum(np.multiply(go, xs, out=tmp), axis=1)
                _halo_view(gp, o, width, axes)[...] += np.multiply(
                    arr[:, None, ..., t], go, out=tmp)
            g_blocks[i, j] = g_arr
        return g_blocks, [_fold_halo(gp, width, axes, pad) for gp in g_padded]

    # -- forward / backward ----------------------------------------------------

    def _flatten_bf(self, x: np.ndarray) -> np.ndarray:
        be, bf = x.shape[:2]
        return x.reshape((be * bf,) + x.shape[2:])

    def _unflatten_bf(self, x: np.ndarray, be: int, bf: int) -> np.ndarray:
        return x.reshape((be, bf) + x.shape[1:])

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

        if self.cfg.symmetric:
            for fl, il in zip(self.fwt, self.iwt):
                il.weight[...] = tie(fl.weight)

        x = np.repeat(f_b[..., None], cfg.alpha, axis=-1)

        fwt_caches = [None] * cfg.levels
        parts = [None] * cfg.levels
        cur = x
        for i in range(cfg.levels - 1, -1, -1):
            y, cache = self.fwt[i].forward(self._flatten_bf(cur))
            fwt_caches[i] = cache
            parts[i] = _split_parts(self._unflatten_bf(y, be, bf), cfg.alpha)
            cur = parts[i][-1]
        tape["fwt_caches"] = fwt_caches
        tape["parts"] = parts

        iwt_caches = [None] * cfg.levels
        u = None
        for i in range(cfg.levels):
            outs = self._band_matvec(blocks[i], self.layouts[i], parts[i])
            last = outs[-1] if u is None else outs[-1] + u
            stacked = np.concatenate(outs[:-1] + [last], axis=-1)
            z, cache = self.iwt[i].forward(self._flatten_bf(stacked))
            iwt_caches[i] = cache
            u = _interleave(self._unflatten_bf(z, be, bf))
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
        g_parts = [None] * cfg.levels
        for i in range(cfg.levels - 1, -1, -1):
            gz = self._flatten_bf(_interleave_backward(g))
            gs = self.iwt[i].backward(gz, tape["iwt_caches"][i])
            gouts = _split_parts(self._unflatten_bf(gs, be, bf), a)
            g_blocks_all[i], g_parts[i] = self._band_matvec_backward(
                tape["blocks"][i], self.layouts[i], tape["parts"][i], gouts)
            g = gouts[-1]  # gradient into u from the next-finer level

        g_f_chan = None
        for i in range(cfg.levels):
            gp = g_parts[i]
            gv = gp[-1] if g_f_chan is None else gp[-1] + g_f_chan
            gy = np.concatenate(gp[:-1] + [gv], axis=-1)
            gx = self.fwt[i].backward(self._flatten_bf(gy),
                                      tape["fwt_caches"][i])
            g_f_chan = self._unflatten_bf(gx, be, bf)
        g_f = g_f_chan.sum(axis=-1)

        if self.cfg.symmetric:
            for fl, il in zip(self.fwt, self.iwt):
                fl.gw += untie(il.gw)
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
    if (ns.dim, len(ns.levels)) != (cfg.dim, cfg.levels):
        raise ShapeError(
            f"nsform has {len(ns.levels)} levels in {ns.dim}D, model "
            f"{cfg.levels} in {cfg.dim}D")
    last = (1 << cfg.dim) - 1
    # both key blocks by slot (i, j); the model's coarse slot (last, last)
    # is the oracle's dense coarse block, read as periodic diagonals
    out = []
    for lay, level_blocks in zip(layouts, ns.levels):
        blocks = {}
        for slot in sorted(lay.offsets):
            blk = level_blocks[slot] if slot != (last, last) \
                else nsform.BandedBlock.from_dense(ns.coarse, cfg.dim)
            arr = _lookup_diags(blk, lay.offsets[slot], lay.size)
            blocks[slot] = _tile_channels(arr, cfg.alpha)
        out.append(blocks)
    return out


def _lookup_diags(blk, offsets: np.ndarray, size: int) -> np.ndarray:
    """Diagonal data of a banded block re-ordered to a layout's offsets."""
    have = {tuple(o): t for t, o in enumerate(blk.offsets)}
    grid = (size,) * offsets.shape[1]
    cols = [blk.data[..., have[tuple(o)]] if tuple(o) in have
            else np.zeros(grid) for o in offsets]
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
