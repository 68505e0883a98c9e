"""Independent references shared by the test modules."""

import numpy as np

from nswave import nsform, wavelets


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
