from pathlib import Path

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from nswave import nsform as nsf
from nswave import wavelets as wv
from nswave.errors import ShapeError


def log_kernel_matrix(n):
    """Periodic Calderon-Zygmund test kernel log|sin(pi(x-y))|."""
    x = np.arange(n) / n
    diff = x[:, None] - x[None, :]
    with np.errstate(divide="ignore"):
        mat = np.log(np.abs(np.sin(np.pi * diff)))
    # diagonal: cell average of the integrable log singularity
    from scipy.integrate import quad
    h = 1.0 / n
    val, _ = quad(lambda t: np.log(np.abs(np.sin(np.pi * t))), -h / 2, h / 2,
                  points=[0.0])
    np.fill_diagonal(mat, val / h)
    return mat


def test_identity_form():
    for p, l0 in ((1, 0), (3, 3)):
        filt = wv.daubechies_filter(p)
        ns = nsf.build_nonstandard(np.eye(16 if p == 1 else 64), filt, l0)
        for level, blocks in enumerate(ns.levels, ns.l0):
            m = 1 << level
            assert np.max(np.abs(reference.to_dense(blocks[(0, 0)])
                                 - np.eye(m))) < 1e-12
            assert np.max(np.abs(reference.to_dense(blocks[(0, 1)]))) < 1e-12
            assert np.max(np.abs(reference.to_dense(blocks[(1, 0)]))) < 1e-12
        assert np.max(np.abs(ns.coarse - np.eye(1 << ns.l0))) < 1e-12


def test_reconstruction_roundtrip_haar():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 16))
    ns = nsf.build_nonstandard(a, wv.daubechies_filter(1), 0)
    back = nsf.assemble_dense(ns, wv.daubechies_filter(1))
    assert np.max(np.abs(back - a)) < 1e-12


def test_symmetric_source_gives_symmetric_blocks():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((32, 32))
    a = a + a.T
    ns = nsf.build_nonstandard(a, wv.daubechies_filter(2), 2)
    for blocks in ns.levels:
        d1 = reference.to_dense(blocks[(0, 0)])
        assert np.max(np.abs(d1 - d1.T)) < 1e-12
        assert np.max(np.abs(reference.to_dense(blocks[(1, 0)])
                             - reference.to_dense(blocks[(0, 1)]).T)) < 1e-12
    assert np.max(np.abs(ns.coarse - ns.coarse.T)) < 1e-12


def test_build_rejects_bad_shapes():
    filt = wv.daubechies_filter(1)
    with pytest.raises(ShapeError):
        nsf.build_nonstandard(np.zeros((8, 4)), filt, 0)
    with pytest.raises(ShapeError):
        nsf.build_nonstandard(np.zeros((12, 12)), filt, 0)
    with pytest.raises(ShapeError):
        nsf.build_nonstandard(np.zeros((16, 16)), wv.daubechies_filter(3), 1)


def test_apply_matches_dense_untruncated():
    rng = np.random.default_rng(2)
    for p, l0 in ((1, 0), (3, 3)):
        filt = wv.daubechies_filter(p)
        a = rng.standard_normal((64, 64))
        ns = nsf.build_nonstandard(a, filt, l0)
        v = rng.standard_normal(64)
        ref = a @ v
        err = np.linalg.norm(nsf.apply(ns, v, filt) - ref) / np.linalg.norm(ref)
        assert err < 1e-11


def test_apply_identity_form_and_shape_check():
    filt = wv.daubechies_filter(1)
    ns = nsf.build_nonstandard(np.eye(16), filt, 0)
    v = np.random.default_rng(3).standard_normal(16)
    assert np.max(np.abs(nsf.apply(ns, v, filt) - v)) < 1e-12
    with pytest.raises(ShapeError):
        nsf.apply(ns, np.zeros(8), filt)


@settings(max_examples=10, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 2 ** 31))
def test_apply_linearity(a, b, seed):
    rng = np.random.default_rng(seed)
    filt = wv.daubechies_filter(2)
    mat = rng.standard_normal((32, 32))
    ns = nsf.truncate(nsf.build_nonstandard(mat, filt, 2), 2)
    v1, v2 = rng.standard_normal((2, 32))
    lhs = nsf.apply(ns, a * v1 + b * v2, filt)
    rhs = a * nsf.apply(ns, v1, filt) + b * nsf.apply(ns, v2, filt)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_truncate_full_band_is_identity_action():
    rng = np.random.default_rng(4)
    filt = wv.daubechies_filter(1)
    a = rng.standard_normal((32, 32))
    ns = nsf.build_nonstandard(a, filt, 0)
    full = nsf.truncate(ns, 16)
    v = rng.standard_normal(32)
    assert np.max(np.abs(nsf.apply(full, v, filt) - nsf.apply(ns, v, filt))) \
        < 1e-13


def test_truncate_nb0_keeps_main_diagonal_only():
    rng = np.random.default_rng(5)
    ns = nsf.build_nonstandard(rng.standard_normal((16, 16)),
                               wv.daubechies_filter(1), 0)
    t = nsf.truncate(ns, 0)
    for blocks in t.levels:
        for blk in blocks.values():
            assert list(blk.offsets) == [0]
            dense = reference.to_dense(blk)
            assert np.max(np.abs(dense - np.diag(np.diag(dense)))) == 0.0


def test_truncation_error_decreases_on_log_kernel():
    n = 256
    filt = wv.daubechies_filter(3)
    a = log_kernel_matrix(n)
    ns = nsf.build_nonstandard(a, filt, 3)
    ref_norm = np.linalg.norm(a, 2)
    errs = []
    for nb in (1, 2, 4, 8):
        dense = nsf.assemble_dense(nsf.truncate(ns, nb), filt)
        errs.append(np.linalg.norm(dense - a, 2) / ref_norm)
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:])), errs
    assert errs[0] > 0


def test_banded_block_dense_roundtrip_and_transpose():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((8, 8))
    blk = nsf.BandedBlock.from_dense(a)
    assert np.max(np.abs(reference.to_dense(blk) - a)) == 0.0
    v = rng.standard_normal(8)
    out, = nsf.band_multiply([((0, 0), blk.offsets, blk.data)], [v], (0,),
                             "periodic")
    assert np.allclose(out, a @ v, atol=1e-13)


@pytest.mark.parametrize("dim,n", [(1, 1), (1, 5), (1, 12), (2, 3), (2, 8)])
@pytest.mark.parametrize("padding", ["periodic", "zero"])
@pytest.mark.parametrize("nb", [0, 2, None])
def test_band_matrix_product_equals_band_multiply_bytes(dim, n, padding, nb):
    """One compiled slot, with and without a channel axis, gives the bytes
    of `band_multiply` on the same term, columns being extra sources."""
    rng = np.random.default_rng(14)
    offs = nsf.band_offsets(n, nb, dim)
    for channels in ((), (3,)):
        coef = rng.standard_normal((n,) * dim + channels + (len(offs),))
        x = rng.standard_normal((n,) * dim + channels + (4,))
        out, = nsf.band_multiply([((0, 0), offs, coef[..., None, :])], [x],
                                 tuple(range(dim)), padding)
        mat = nsf.band_matrix(offs, coef, n, padding)
        prod = 0.0 + mat @ x.reshape(-1, 4)  # band_multiply's 0.0 start
        assert np.array_equal(prod.reshape(out.shape), out)


def _shift_reference(grid, offsets, padding, stride, base):
    """`shift_index` written out per offset: the flat cell numbers rolled
    back by base + o along each axis, the zero-fill mask a ones array
    padded with zeros and rolled the same way, then every stride-th
    output cell."""
    cells = np.arange(np.prod(grid)).reshape(grid)
    halo = max(abs(base + int(c)) for o in offsets for c in o)
    cols = []
    for o in offsets:
        rolled = cells
        mask = np.pad(np.ones(grid, bool), halo)
        for ax, c in enumerate(o):
            rolled = np.roll(rolled, -(base + int(c)), axis=ax)
            mask = np.roll(mask, -(base + int(c)), axis=ax)
        mask = mask[(slice(halo, -halo or None),) * len(grid)]
        if padding == "zero":
            rolled = np.where(mask, rolled, cells.size)
        cols.append(rolled[(slice(None, None, stride),) * len(grid)])
    return np.stack([c.reshape(-1) for c in cols], axis=1)


@pytest.mark.parametrize("grid", [(8,), (4,), (4, 6)])
@pytest.mark.parametrize("padding", ["periodic", "zero"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("base", [0, -3])
def test_shift_index_equals_a_roll_and_mask_reference(grid, padding, stride,
                                                      base):
    """Offsets -2..4 on every axis: a window of 7 cells, wider than the
    4- and 6-cell axes, so shifts wrap past a whole period or leave the
    grid by more than its length."""
    dim = len(grid)
    offsets = np.indices((7,) * dim).reshape(dim, -1).T - 2
    index = nsf.shift_index(grid, offsets, padding, stride, base)
    ref = _shift_reference(grid, offsets, padding, stride, base)
    assert index.shape == ref.shape and np.array_equal(index, ref)


def test_scatter_matrix_keeps_listed_order_and_drops_rows_past_the_grid():
    rng = np.random.default_rng(15)
    size = 40
    rows = rng.integers(0, size + 5, 5000)  # many ties, some past the grid
    cols = rng.permutation(len(rows))
    mat = nsf.scatter_matrix(rows, cols, size)
    assert mat.shape == (size, len(rows))
    assert np.all(mat.data == 1.0)
    for r in range(size):
        row = mat.indices[mat.indptr[r]:mat.indptr[r + 1]]
        assert np.array_equal(row, cols[rows == r])
    assert mat.nnz == np.count_nonzero(rows < size)
    for a in (mat.data, mat.indices, mat.indptr):
        assert not a.flags.writeable


@pytest.mark.parametrize("dim,side,p,l0", [(1, 32, 1, 0), (1, 64, 3, 3),
                                           (2, 16, 1, 1), (2, 16, 2, 2)])
@pytest.mark.parametrize("nb", [None, 1])
def test_zero_padded_apply_matches_roll_and_mask_reference(dim, side, p, l0,
                                                           nb):
    """The zero-padding oracle, coarse block included, against the banded
    multiply written out with np.roll and a zero mask."""
    rng = np.random.default_rng(12)
    filt = wv.daubechies_filter(p)
    ns = nsf.build_nonstandard(rng.standard_normal((side ** dim,) * 2),
                               filt, l0, dim=dim)
    if nb is not None:
        ns = nsf.truncate(ns, nb)
    v = rng.standard_normal((side,) * dim)
    ref = reference.zero_padded_apply(ns, v, filt)
    out = nsf.apply(ns, v, filt, padding="zero")
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_2d_identity_form():
    filt = wv.daubechies_filter(1)
    ns = nsf.build_nonstandard(np.eye(64), filt, 1, dim=2)
    for blocks in ns.levels:
        for (i, j), blk in blocks.items():
            dense = reference.to_dense(blk)
            target = np.eye(dense.shape[0]) if i == j else 0.0
            assert np.max(np.abs(dense - target)) < 1e-12
    assert np.max(np.abs(ns.coarse - np.eye(4))) < 1e-12


def test_2d_apply_matches_dense():
    rng = np.random.default_rng(9)
    filt = wv.daubechies_filter(1)
    a = rng.standard_normal((64, 64))
    ns = nsf.build_nonstandard(a, filt, 1, dim=2)
    v = rng.standard_normal((8, 8))
    ref = (a @ v.reshape(-1)).reshape(8, 8)
    err = np.linalg.norm(nsf.apply(ns, v, filt) - ref) / np.linalg.norm(ref)
    assert err < 1e-11
    dense = nsf.apply(ns, np.eye(64).reshape(8, 8, 64), filt)
    dense = dense.reshape(64, 64)
    assert np.max(np.abs(dense - a)) < 1e-11


def test_2d_symmetric_source_block_relations():
    rng = np.random.default_rng(10)
    filt = wv.daubechies_filter(1)
    a = rng.standard_normal((64, 64))
    a = a + a.T
    ns = nsf.build_nonstandard(a, filt, 1, dim=2)
    for blocks in ns.levels:
        for (i, j), blk in blocks.items():
            if (j, i) == (3, 3):
                continue
            partner = blocks[(j, i)]
            assert np.max(np.abs(reference.to_dense(blk)
                                 - reference.to_dense(partner).T)) < 1e-12
    assert np.max(np.abs(ns.coarse - ns.coarse.T)) < 1e-12


def test_2d_truncation_and_offsets():
    rng = np.random.default_rng(11)
    filt = wv.daubechies_filter(1)
    ns = nsf.build_nonstandard(rng.standard_normal((64, 64)), filt, 1,
                               dim=2)
    t = nsf.truncate(ns, 1)
    for blocks in t.levels:
        for blk in blocks.values():
            m = blk.n
            circ = np.minimum(np.abs(blk.offsets) % m,
                              m - np.abs(blk.offsets) % m)
            assert np.max(circ) <= 1


@pytest.mark.parametrize("shape,dim", [((10, 10), 2), ((3, 4), 1)],
                         ids=["10x10-2d", "3x4-1d"])
def test_from_dense_rejects_a_matrix_that_is_no_grid_operator(shape, dim):
    """A 10 x 10 matrix is no 2D grid operator and a 3 x 4 one is not
    square; neither may be read as a sub-block."""
    a = np.zeros(shape)
    with pytest.raises(ShapeError):
        nsf.BandedBlock.from_dense(a, dim)
    with pytest.raises(ShapeError):
        nsf.build_nonstandard(a, wv.daubechies_filter(1), 0, dim=dim)


def test_model_uses_no_private_name_of_the_oracle():
    """The model reaches the banded block only through the oracle's public
    functions: no `nsform._*` attribute and no `from .nsform import _*`."""
    import ast

    import nswave.model
    tree = ast.parse(Path(nswave.model.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value,
                                                          ast.Name):
            assert not (node.value.id == "nsform"
                        and node.attr.startswith("_")), node.attr
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[-1] == "nsform":
            names = [a.name for a in node.names]
            assert not any(n.startswith("_") for n in names), names


def test_oracle_imports_nothing_from_the_model():
    """The oracle stays an independent reference for the model: within the
    package it imports only the wavelet transforms and the error types."""
    import ast
    tree = ast.parse(Path(nsf.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module in ("wavelets", "errors"), node.module
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) \
                else [a.name for a in node.names]
            assert not any(n.split(".")[0] == "nswave" for n in names), names
