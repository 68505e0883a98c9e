import numpy as np
import pytest
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
        for lb in ns.levels:
            m = 1 << lb.level
            assert np.max(np.abs(lb.d1.to_dense() - np.eye(m))) < 1e-12
            assert np.max(np.abs(lb.d2.to_dense())) < 1e-12
            assert np.max(np.abs(lb.d3.to_dense())) < 1e-12
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
    for lb in ns.levels:
        d1 = lb.d1.to_dense()
        assert np.max(np.abs(d1 - d1.T)) < 1e-12
        assert np.max(np.abs(lb.d3.to_dense() - lb.d2.to_dense().T)) < 1e-12
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
    for lb in t.levels:
        for blk in (lb.d1, lb.d2, lb.d3):
            assert list(blk.offsets) == [0]
            dense = blk.to_dense()
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
    assert np.max(np.abs(blk.to_dense() - a)) == 0.0
    v = rng.standard_normal(8)
    assert np.allclose(blk.matvec(v), a @ v, atol=1e-13)


def test_2d_identity_form():
    filt = wv.daubechies_filter(1)
    ns = nsf.build_nonstandard_2d(np.eye(64), filt, 1)
    for lb in ns.levels:
        for (i, j), blk in lb.blocks.items():
            dense = blk.to_dense()
            target = np.eye(dense.shape[0]) if i == j else 0.0
            assert np.max(np.abs(dense - target)) < 1e-12
    assert np.max(np.abs(ns.coarse - np.eye(4))) < 1e-12


def test_2d_apply_matches_dense():
    rng = np.random.default_rng(9)
    filt = wv.daubechies_filter(1)
    a = rng.standard_normal((64, 64))
    ns = nsf.build_nonstandard_2d(a, filt, 1)
    v = rng.standard_normal((8, 8))
    ref = (a @ v.reshape(-1)).reshape(8, 8)
    err = np.linalg.norm(nsf.apply_2d(ns, v, filt) - ref) / np.linalg.norm(ref)
    assert err < 1e-11
    dense = nsf.apply_2d(ns, np.eye(64).reshape(8, 8, 64), filt)
    dense = dense.reshape(64, 64)
    assert np.max(np.abs(dense - a)) < 1e-11


def test_2d_symmetric_source_block_relations():
    rng = np.random.default_rng(10)
    filt = wv.daubechies_filter(1)
    a = rng.standard_normal((64, 64))
    a = a + a.T
    ns = nsf.build_nonstandard_2d(a, filt, 1)
    for lb in ns.levels:
        for (i, j), blk in lb.blocks.items():
            if (j, i) == (3, 3):
                continue
            partner = lb.blocks[(j, i)]
            assert np.max(np.abs(blk.to_dense() - partner.to_dense().T)) \
                < 1e-12
    assert np.max(np.abs(ns.coarse - ns.coarse.T)) < 1e-12


def test_2d_truncation_and_offsets():
    rng = np.random.default_rng(11)
    filt = wv.daubechies_filter(1)
    ns = nsf.build_nonstandard_2d(rng.standard_normal((64, 64)), filt, 1)
    t = nsf.truncate_2d(ns, 1)
    for lb in t.levels:
        for blk in lb.blocks.values():
            m = blk.n
            circ = np.minimum(np.abs(blk.offsets) % m,
                              m - np.abs(blk.offsets) % m)
            assert np.max(circ) <= 1
