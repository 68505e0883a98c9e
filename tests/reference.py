"""Independent references shared by the test modules."""

from functools import reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nswave import nsform, solvers, wavelets


def to_dense(blk):
    """The dense matrix of an `nsform.BandedBlock`, one diagonal at a
    time: the value of diagonal o at grid point k sits in row k and
    column (k + o) mod n, both raveled row-major."""
    n, dim = blk.n, blk.offsets.shape[1]
    grid = np.indices((n,) * dim).reshape(dim, -1)
    rows = np.arange(grid.shape[1])
    a = np.zeros((rows.size, rows.size))
    for t, off in enumerate(blk.offsets):
        cols = np.ravel_multi_index(tuple((grid + off[:, None]) % n),
                                    (n,) * dim)
        a[rows, cols] = blk.data[..., t].reshape(-1)
    return a


def band_multiply(terms, parts, axes, padding):
    """`nsform.band_multiply` written out per offset with np.roll and a
    zero mask: outs[i] = sum over terms (i, j) of sum_t coef[.., t] *
    shift_o_t(parts[j])."""
    outs = [0.0] * len(parts)
    for (i, j), offsets, coef in terms:
        for t, off in enumerate(np.asarray(offsets)):
            x = parts[j]
            for o, ax in zip(off, axes):
                x = np.roll(x, -int(o), axis=ax)
                if padding == "zero" and o:
                    m = x.shape[ax]
                    idx = np.arange(m) + int(o)
                    keep = ((idx >= 0) & (idx < m)).reshape(
                        [m if a == ax else 1 for a in range(x.ndim)])
                    x = np.where(keep, x, 0.0)
            outs[i] = outs[i] + coef[..., t] * x
    return outs


def band_multiply_adjoint(terms, parts, gouts, axes, padding):
    """The offset loop `nsform.band_multiply_adjoint` ran before its
    scatters, kept verbatim: per term and offset, the coefficient
    gradient of one shifted window and one halo-view update, then the
    halo folded back."""
    width = max(int(np.abs(offs).max()) for _, offs, _ in terms)
    padded = [nsform._pad_halo(x, width, axes, padding) for x in parts]
    g_padded = [np.zeros_like(xp) for xp in padded]
    coef_grads = {}
    for (i, j), offs, coef in terms:
        xp, gp, go = padded[j], g_padded[j], gouts[i]
        summed = tuple(ax for ax, g in enumerate(go.shape)
                       if coef.shape[ax] == 1 != g)
        g_coef = np.empty_like(coef)
        tmp = np.empty(go.shape)
        for t, o in enumerate(offs.tolist()):
            xs = nsform._halo_view(xp, o, width, axes)
            g_coef[..., t] = np.sum(np.multiply(go, xs, out=tmp), axis=summed,
                                    keepdims=True)
            nsform._halo_view(gp, o, width, axes)[...] += np.multiply(
                coef[..., t], go, out=tmp)
        coef_grads[i, j] = g_coef
    return coef_grads, [nsform._fold_halo(gp, width, axes, padding)
                        for gp in g_padded]


def zero_padded_apply(ns, v, filt):
    """The zero-padding fast matvec of `nsform.apply`, one vector at a time:
    pyramid transform, the blocks (the coarse one as its periodic
    diagonals) through `band_multiply` above, inverse pyramid."""
    dim, last = ns.dim, (1 << ns.dim) - 1
    axes = tuple(range(dim))
    parts, s = {}, v
    for level in range(ns.l_max - 1, ns.l0 - 1, -1):
        parts[level] = wavelets.forward_parts(s, filt, dim, "zero")
        s = parts[level][last]
    u = 0.0
    for level, blocks in enumerate(ns.levels, ns.l0):
        blocks = dict(blocks)
        if level == ns.l0:
            blocks[last, last] = nsform.BandedBlock.from_dense(ns.coarse, dim)
        outs = band_multiply(
            [(slot, blk.offsets, blk.data) for slot, blk in blocks.items()],
            parts[level], axes, "zero")
        outs[last] = outs[last] + u
        u = wavelets.inverse_parts(outs, filt, dim, "zero")
    return u


# The elliptic operator as assembled before the cached CSC pattern: a COO
# list summed into CSR, copied to CSC for SuperLU, and bordered by
# `scipy.sparse.bmat`.  Tests hold the production matrices to these bit
# for bit, and generation run through them to the same file bytes.

def periodic_stencil(center, neighbours):
    """`solvers._periodic_stencil` by COO -> CSR construction, which sums
    coincident entries (n = 2)."""
    nn = center.size
    idx = np.arange(nn).reshape(center.shape)
    cols = [idx] + [np.roll(idx, -step, axis=ax)
                    for ax in range(center.ndim) for step in (1, -1)]
    vals = [center] + list(neighbours)
    return sp.csr_matrix(
        (np.concatenate([v.reshape(-1) for v in vals]),
         (np.tile(idx.reshape(-1), len(cols)),
          np.concatenate([c.reshape(-1) for c in cols]))),
        shape=(nn, nn))


def sparse_factor(op):
    """`solvers._sparse_factor` on a copy of `op` in CSC, its SuperLU
    options written out here so that a change to them shows."""
    lu = spla.splu(op.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1,
                   panel_size=2)
    return lu.solve, lambda b: lu.solve(b, trans="T")


def divergence_factor(op, shape):
    """`solvers._divergence_factor` with the bordered system built by
    `scipy.sparse.bmat`, under the SuperLU options of `sparse_factor`."""
    nn = op.shape[0]
    one = np.ones((nn, 1))
    lu = spla.splu(sp.bmat([[op, one], [one.T, None]], format="csc"),
                   permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=2)

    def bordered(b, trans):
        rhs = np.concatenate([b, np.zeros((1,) + b.shape[1:])])
        return lu.solve(rhs, trans=trans)[:nn]
    return (lambda b: bordered(b - b.mean(axis=0), "N"),
            lambda b: bordered(b, "T"))


def far_field(eta, spec, kernel):
    """The transfer kernel's midpoint rule as assembled before the
    fine-grid table: every ordered pair's path average sampled on its own
    segment, x - s (x - y), by `solvers._path_tau`, then
    h**dim * kernel(r, tau) on every entry, the near ones included."""
    dim, h, ax = eta.ndim, spec.h, spec.coords()
    centers = [c.reshape(-1) for c in np.meshgrid(*[ax] * dim, indexing="ij")]
    xs, ys = [c[:, None] for c in centers], [c[None, :] for c in centers]
    tau = solvers._clean_tau(solvers._path_tau(eta, xs, ys, h, ax[0],
                                               spec.path_samples),
                             float(eta.max()))
    r = reduce(np.hypot, [x - y for x, y in zip(xs, ys)], 0.0)
    return h ** dim * kernel(np.broadcast_to(r, tau.shape), tau)
