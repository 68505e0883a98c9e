import itertools
from pathlib import Path

import numpy as np
import pytest

from nswave import nsform as nsf
from nswave import pipeline as pl
from nswave import wavelets as wv
from nswave.container import read_tensors
from nswave.errors import InferenceError, ShapeError
from nswave.model import (
    EXPORT_PASS,
    MetaModel,
    ModelConfig,
    collection_from_nsform,
    export_operator,
    symmetrize_blocks,
    tie,
    untie,
)
from nswave.net import finite_difference_check


def exact_model(cfg):
    mdl = MetaModel(cfg)
    mdl.init_filters(wv.daubechies_filter(cfg.p), noise=0.0)
    return mdl


@pytest.mark.parametrize("p,n,levels,l0", [(1, 32, 3, 2), (3, 64, 3, 3)])
@pytest.mark.parametrize("padding", ["periodic", "zero"])
def test_keystone_equivalence_1d(p, n, levels, l0, padding):
    """The architecture contains the exact fast matvec as a parameter
    setting (exact filters + collection from a true nonstandard form)."""
    rng = np.random.default_rng(1)
    filt = wv.daubechies_filter(p)
    ns = nsf.truncate(nsf.build_nonstandard(
        rng.standard_normal((n, n)), filt, l0), 3)
    cfg = ModelConfig(n=n, levels=levels, alpha=1, depth=1, nb=3, p=p,
                      padding=padding, init_noise=0.0, seed=0)
    mdl = exact_model(cfg)
    coll = collection_from_nsform(ns, cfg)
    for v in rng.standard_normal((5, n)):
        u_model = mdl.forward(np.zeros(n), v, collection=coll)
        u_ns = nsf.apply(ns, v, filt, padding=padding)
        assert np.max(np.abs(u_model - u_ns)) < 1e-10


def test_keystone_holds_with_channel_replication():
    rng = np.random.default_rng(2)
    filt = wv.daubechies_filter(3)
    ns = nsf.truncate(nsf.build_nonstandard(
        rng.standard_normal((64, 64)), filt, 3), 2)
    cfg = ModelConfig(n=64, levels=3, alpha=4, depth=1, nb=2, p=3,
                      init_noise=0.0, seed=0)
    mdl = exact_model(cfg)
    coll = collection_from_nsform(ns, cfg)
    v = rng.standard_normal(64)
    assert np.max(np.abs(mdl.forward(np.zeros(64), v, collection=coll)
                         - nsf.apply(ns, v, filt))) < 1e-10


@pytest.mark.parametrize("p,n,levels,l0", [(1, 8, 2, 1), (3, 16, 1, 3)])
@pytest.mark.parametrize("padding", ["periodic", "zero"])
def test_keystone_equivalence_2d(p, n, levels, l0, padding):
    rng = np.random.default_rng(3)
    filt = wv.daubechies_filter(p)
    ns = nsf.truncate(nsf.build_nonstandard(
        rng.standard_normal((n * n, n * n)), filt, l0, dim=2), 1)
    cfg = ModelConfig(n=n, levels=levels, alpha=1, depth=1, nb=1, p=p,
                      padding=padding, dim=2, init_noise=0.0, seed=0)
    mdl = exact_model(cfg)
    coll = collection_from_nsform(ns, cfg)
    v = rng.standard_normal((n, n))
    u_model = mdl.forward(np.zeros((n, n)), v, collection=coll)
    u_ns = nsf.apply(ns, v, filt, padding=padding)
    assert np.max(np.abs(u_model - u_ns)) < 1e-10


def test_collection_shapes_per_level():
    cfg = ModelConfig(n=64, levels=3, alpha=2, depth=2, nb=3, p=3, seed=0)
    mdl = MetaModel(cfg)
    raw = mdl.eta_to_C(np.random.default_rng(0).standard_normal(64))
    sizes = [8, 16, 32]
    for arr, size, lay in zip(raw, sizes, mdl.layouts):
        assert arr.shape == (1, size, lay.n_columns)
        # non-symmetric: 3 banded blocks, coarse diagonals at the bottom
        expect = 3 * 2 * 7 + (2 * 8 if size == 8 else 0)
        assert lay.n_columns == expect


def test_translation_equivariance_periodic():
    cfg = ModelConfig(n=32, levels=2, alpha=2, depth=2, nb=1, p=2,
                      padding="periodic", seed=4)
    mdl = MetaModel(cfg)
    rng = np.random.default_rng(5)
    eta = rng.standard_normal(32)
    raw = mdl.eta_to_C(eta)
    for i, lay in enumerate(mdl.layouts):
        shift = 32 // lay.size  # one coarse cell at this level
        raw_s = mdl.eta_to_C(np.roll(eta, shift))
        assert np.allclose(raw_s[i], np.roll(raw[i], 1, axis=1), atol=1e-12)


def test_zero_padding_equivariance_holds_only_in_the_interior():
    cfg = ModelConfig(n=32, levels=1, alpha=2, depth=2, nb=1, p=2,
                      padding="zero", seed=4)
    mdl = MetaModel(cfg)
    rng = np.random.default_rng(6)
    eta = rng.standard_normal(32)
    c0 = mdl.eta_to_C(eta)[0]
    c1 = mdl.eta_to_C(np.roll(eta, 2))[0]
    rolled = np.roll(c0, 1, axis=1)
    # boundary rows differ, interior rows agree
    full_gap = np.max(np.abs(c1 - rolled))
    interior = slice(4, 12)
    gap_in = np.max(np.abs(c1[:, interior] - rolled[:, interior]))
    assert gap_in < 1e-12
    assert full_gap > 1e-6


from hypothesis import given, settings
from hypothesis import strategies as st

_LIN_MODELS = {}


def _linearity_model(dim):
    if dim not in _LIN_MODELS:
        n = 32 if dim == 1 else 8
        cfg = ModelConfig(n=n, levels=2, alpha=2, depth=2, nb=1, p=1,
                          dim=dim, seed=7)
        _LIN_MODELS[dim] = MetaModel(cfg)
    return _LIN_MODELS[dim]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([1, 2]), st.floats(-5, 5), st.floats(-5, 5),
       st.integers(0, 2 ** 31))
def test_forward_linear_in_f_for_random_superpositions(dim, a, b, seed):
    mdl = _linearity_model(dim)
    n = mdl.cfg.n
    rng = np.random.default_rng(seed)
    shape = (n,) if dim == 1 else (n, n)
    eta = rng.standard_normal(shape)
    f1, f2 = rng.standard_normal((2,) + shape)
    lhs = mdl.forward(eta, a * f1 + b * f2)
    rhs = a * mdl.forward(eta, f1) + b * mdl.forward(eta, f2)
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale
    assert np.max(np.abs(mdl.forward(eta, np.zeros(shape)))) == 0.0


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 8)])
def test_exported_operator_symmetric_for_any_parameters(dim, n):
    cfg = ModelConfig(n=n, levels=2, alpha=2, depth=2, nb=1, p=1,
                      symmetric=True, dim=dim, seed=9)
    mdl = MetaModel(cfg)
    # scramble every parameter to rule out anything init-specific
    rng = np.random.default_rng(10)
    for arr in mdl.parameters().values():
        arr[...] = rng.standard_normal(arr.shape)
    shape = (n,) if dim == 1 else (n, n)
    g = export_operator(mdl, rng.standard_normal(shape))
    assert np.max(np.abs(g - g.T)) < 1e-10


def test_banded_transpose_matches_dense_transpose():
    rng = np.random.default_rng(11)
    cfg = ModelConfig(n=32, levels=2, alpha=1, depth=1, nb=2, p=1,
                      symmetric=True, seed=0)
    mdl = MetaModel(cfg)
    lay = mdl.layouts[1]
    m = lay.size
    from nswave.model import _transpose_block
    arr = rng.standard_normal((1, m, 1, len(lay.offsets[0, 1])))
    out = _transpose_block(arr, lay, (0, 1), (1,))
    blk = nsf.BandedBlock(offsets=lay.offsets[0, 1], data=arr[0, :, 0, :])
    blk_t = nsf.BandedBlock(offsets=lay.offsets[0, 1], data=out[0, :, 0, :])
    assert np.max(np.abs(blk_t.to_dense() - blk.to_dense().T)) < 1e-14


@pytest.mark.parametrize("dim", [1, 2])
def test_banded_transpose_equals_dense_transpose_diagonals(dim):
    # level sizes 4 and 8: nb = 2 takes every offset at size 4, and the
    # coarse block's offsets wrap onto their own negations (2 = -2 mod 4)
    rng = np.random.default_rng(13)
    cfg = ModelConfig(n=16, levels=2, alpha=2, depth=1, nb=2, p=1,
                      symmetric=True, dim=dim, seed=0)
    from nswave.model import _transpose_block
    axes = tuple(range(1, 1 + dim))
    last = (1 << dim) - 1
    for lay in MetaModel(cfg).layouts:
        m = lay.size
        for slot in [(0, 1)] + [(last, last)] * ((last, last) in lay.offsets):
            nb = None if slot == (last, last) else cfg.nb
            offs = lay.offsets[slot]
            arr = rng.standard_normal((2,) + (m,) * dim
                                      + (cfg.alpha, len(offs)))
            out = _transpose_block(arr, lay, slot, axes)
            for b, c in np.ndindex(2, cfg.alpha):
                dense = nsf.BandedBlock(offs, arr[b, ..., c, :]).to_dense()
                ref = nsf.BandedBlock.from_dense(dense.T, dim, nb).data
                assert np.array_equal(out[b, ..., c, :], ref)


def test_symmetrize_idempotent():
    rng = np.random.default_rng(12)
    cfg = ModelConfig(n=32, levels=2, alpha=2, depth=1, nb=2, p=1,
                      symmetric=True, seed=0)
    mdl = MetaModel(cfg)
    lay = mdl.layouts[0]
    blocks = {}
    for key in lay.emitted:
        blocks[key] = rng.standard_normal(
            (1, lay.size, cfg.alpha, len(lay.offsets[key])))
    once = symmetrize_blocks(blocks, lay, (1,))
    twice = symmetrize_blocks(once, lay, (1,))
    for key in once:
        assert np.allclose(once[key], twice[key], atol=1e-14)


def test_export_operator_matches_forward():
    cfg = ModelConfig(n=32, levels=2, alpha=2, depth=2, nb=1, p=2, seed=13)
    mdl = MetaModel(cfg)
    rng = np.random.default_rng(14)
    eta = rng.standard_normal(32)
    g = export_operator(mdl, eta)
    for f in rng.standard_normal((4, 32)):
        assert np.max(np.abs(g @ f - mdl.forward(eta, f))) < 1e-12


def _scrambled_model(cfg, seed):
    mdl = MetaModel(cfg)
    rng = np.random.default_rng(seed)
    for arr in mdl.parameters().values():
        arr += 0.1 * rng.standard_normal(arr.shape)
    return mdl


@pytest.mark.parametrize("dim,n,levels", [(1, 32, 2), (1, 80, 2),
                                          (2, 8, 2), (2, 16, 2)])
@pytest.mark.parametrize("padding", ["periodic", "zero"])
@pytest.mark.parametrize("symmetric", [False, True])
def test_export_equals_forward_column_by_column(dim, n, levels, padding,
                                                symmetric):
    """Every column of the pass-wise export is the forward response to its
    unit source; 80 sources leave a remainder after full passes of 64."""
    cfg = ModelConfig(n=n, levels=levels, alpha=2, depth=1, nb=1, p=2,
                      padding=padding, symmetric=symmetric, dim=dim, seed=3)
    mdl = _scrambled_model(cfg, 4)
    shape = (n,) * dim
    nn = n ** dim
    eta = np.random.default_rng(5).standard_normal(shape)
    g = export_operator(mdl, eta)
    assert g.shape == (nn, nn)
    basis = np.eye(nn).reshape((nn,) + shape)
    u_all = mdl.forward(eta, basis).reshape(nn, nn)  # one batch of sources
    scale = np.max(np.abs(u_all))
    assert np.max(np.abs(g - u_all.T)) <= 1e-13 * scale
    for k in (0, EXPORT_PASS - 1, nn // 2, nn - 1):
        k = min(k, nn - 1)
        col = mdl.forward(eta, basis[k]).reshape(nn)
        assert np.max(np.abs(g[:, k] - col)) <= 1e-13 * scale


def _band_reference(blocks, lay, parts, dim, padding, coarsest):
    """Per-offset shifted products written out with np.roll / zero fill."""
    axes = tuple(range(2, 2 + dim))
    outs = [np.zeros_like(p) for p in parts]
    last = (1 << dim) - 1
    for key, arr in blocks.items():
        if key == (last, last) and not coarsest:
            continue
        i, j = key
        for t, off in enumerate(lay.offsets[key].reshape(
                len(lay.offsets[key]), -1)):
            x = parts[j]
            for o, ax in zip(off, axes):
                x = np.roll(x, -int(o), axis=ax)
                if padding == "zero" and o:
                    m = x.shape[ax]
                    idx = np.arange(m) + int(o)
                    keep = ((idx >= 0) & (idx < m)).reshape(
                        [m if a == ax else 1 for a in range(x.ndim)])
                    x = np.where(keep, x, 0.0)
            outs[i] = outs[i] + arr[:, None, ..., t] * x
    return outs


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16)])
@pytest.mark.parametrize("padding", ["periodic", "zero"])
@pytest.mark.parametrize("level", [0, 1])
def test_band_matvec_matches_reference_and_its_adjoint(dim, n, padding,
                                                       level):
    """<B x, y> = <x, B^T y> and <B x, y> = <B, g_B> for random blocks,
    level 0 including the dense coarse block."""
    cfg = ModelConfig(n=n, levels=2, alpha=2, depth=1, nb=2, p=1,
                      padding=padding, dim=dim, seed=0)
    mdl = MetaModel(cfg)
    lay = mdl.layouts[level]
    rng = np.random.default_rng(21 + level)
    be, bf = 2, 3
    spatial = (lay.size,) * dim
    blocks = {key: rng.standard_normal(
        (be,) + spatial + (cfg.alpha, len(lay.offsets[key])))
        for key in list(lay.emitted) + list(lay.derived)}
    n_parts = 2 if dim == 1 else 4
    parts = [rng.standard_normal((be, bf) + spatial + (cfg.alpha,))
             for _ in range(n_parts)]
    gouts = [rng.standard_normal(p.shape) for p in parts]
    coarsest = level == 0
    outs = mdl._band_matvec(blocks, lay, parts)
    ref = _band_reference(blocks, lay, parts, dim, padding, coarsest)
    for o, r in zip(outs, ref):
        assert np.max(np.abs(o - r)) <= 1e-13 * np.max(np.abs(r))
    g_blocks, g_parts = mdl._band_matvec_backward(blocks, lay, parts, gouts)
    lhs = sum(np.vdot(o, g) for o, g in zip(outs, gouts))
    rhs_x = sum(np.vdot(p, g) for p, g in zip(parts, g_parts))
    rhs_b = sum(np.vdot(blocks[k], g) for k, g in g_blocks.items())
    assert abs(lhs - rhs_x) <= 1e-12 * abs(lhs)
    assert abs(lhs - rhs_b) <= 1e-12 * abs(lhs)
    last = (1 << dim) - 1
    assert ((last, last) in g_blocks) == coarsest


def test_export_runtime_bounded_by_n_forward_passes():
    import time
    cfg = ModelConfig(n=64, levels=3, alpha=2, depth=2, nb=2, p=3, seed=1)
    mdl = MetaModel(cfg)
    rng = np.random.default_rng(2)
    eta = rng.standard_normal(64)
    f = rng.standard_normal(64)
    t0 = time.perf_counter()
    reps = 8
    for _ in range(reps):
        mdl.forward(eta, f)
    per_forward = (time.perf_counter() - t0) / reps
    t0 = time.perf_counter()
    export_operator(mdl, eta)
    export_time = time.perf_counter() - t0
    # the export batches all 64 unit sources into one pass; allow slack
    # for timer noise but stay within the N-forward budget
    assert export_time < 1.5 * 64 * per_forward


def test_parameter_count_deterministic_and_documented():
    cfg = ModelConfig(n=64, levels=3, alpha=5, depth=5, nb=3, p=3,
                      symmetric=True, seed=0)
    c1 = MetaModel(cfg).parameter_count()
    c2 = MetaModel(cfg).parameter_count()
    assert c1 == c2
    desc = MetaModel(cfg).describe()
    assert desc["parameter_count"] == c1
    assert desc["iwt_tied"] is True


def test_shape_errors_and_nonfinite_guard():
    cfg = ModelConfig(n=32, levels=2, alpha=1, depth=1, nb=1, p=1, seed=0)
    mdl = MetaModel(cfg)
    with pytest.raises(ShapeError):
        mdl.forward(np.zeros(16), np.zeros(32))
    with pytest.raises(ShapeError):
        mdl.forward(np.zeros(32), np.zeros(16))
    mdl.fwt[0].weight[...] = np.nan
    with pytest.raises(InferenceError):
        mdl.forward(np.zeros(32), np.ones(32))


@pytest.mark.parametrize("seed", range(5))
def test_full_model_gradient_small(seed):
    rng = np.random.default_rng(100 + seed)
    cfg = ModelConfig(n=16, levels=2, alpha=2, depth=2, nb=1, p=2,
                      symmetric=bool(seed % 2), seed=seed)
    mdl = MetaModel(cfg)
    eta = rng.standard_normal(16)
    f = rng.standard_normal((1, 2, 16))
    tgt = rng.standard_normal((1, 2, 16))

    def loss():
        u, _ = mdl.forward_with_tape(eta, f)
        return 0.5 * float(np.sum((u - tgt) ** 2))

    u, tape = mdl.forward_with_tape(eta, f)
    mdl.zero_grads()
    mdl.backward(tape, u - tgt)
    errs = finite_difference_check(loss, mdl.parameters(), mdl.gradients())
    assert max(errs.values()) < 1e-6


# -- the transform-kernel tie map ----------------------------------------------

def _exact_iwt_kernel(filt, alpha, dim):
    """The exact inverse-transform kernel written out tap by tap: tap j of
    output slot r on each axis carries filter tap 2(p-1-j) + r of every
    part's axis filters."""
    p = filt.p
    names = ("g", "h") if dim == 1 else ("hg", "gh", "gg", "hh")
    m = len(names) * alpha
    k = np.zeros((p,) * dim + (m, m))
    for j in itertools.product(range(p), repeat=dim):
        for r in itertools.product(range(2), repeat=dim):
            col = int("".join(map(str, r)), 2) * alpha
            for q, axes in enumerate(names):
                coeff = np.prod([getattr(filt, a)[2 * (p - 1 - jj) + rr]
                                 for a, jj, rr in zip(axes, j, r)])
                for c in range(alpha):
                    k[j + (q * alpha + c, col + c)] = coeff
    return k


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_tie_of_exact_forward_kernel_is_exact_inverse_kernel(dim, p):
    cfg = ModelConfig(n=16, levels=1, alpha=2, depth=1, nb=1, p=p, dim=dim,
                      symmetric=False, init_noise=0.0, seed=0)
    mdl = exact_model(cfg)
    ref = _exact_iwt_kernel(wv.daubechies_filter(p), cfg.alpha, dim)
    assert np.array_equal(tie(mdl.fwt[0].weight), ref)
    assert np.array_equal(mdl.iwt[0].weight, ref)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_untie_is_the_adjoint_and_inverse_of_tie(dim, p):
    rng = np.random.default_rng(10 * dim + p)
    alpha = 3
    m = alpha << dim
    fw = rng.standard_normal((2 * p,) * dim + (alpha, m))
    gk = rng.standard_normal((p,) * dim + (m, m))
    assert tie(fw).shape == gk.shape
    lhs, rhs = np.vdot(tie(fw), gk), np.vdot(fw, untie(gk))
    assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(fw) * np.linalg.norm(gk)
    assert np.array_equal(untie(tie(fw)), fw)


# -- checkpoint format ----------------------------------------------------------

#: parameter names and shapes of the desk presets' models, as written by
#: checkpoints since the initial import; a change here breaks old checkpoints
CHECKPOINT_FORMAT = {
    "schrodinger1d_desk": {
        "convnet0.0.weight": (6, 1, 5), "convnet0.0.bias": (5,),
        "convnet0.2.weight": (6, 5, 5), "convnet0.2.bias": (5,),
        "convnet0.4.weight": (6, 5, 5), "convnet0.4.bias": (5,),
        "convnet0.6.weight": (6, 5, 5), "convnet0.6.bias": (5,),
        "convnet0.7.weight": (6, 5, 5), "convnet0.7.bias": (5,),
        "convnet0.8.weight": (1, 5, 110), "convnet0.8.bias": (110,),
        "convnet1.0.weight": (6, 1, 5), "convnet1.0.bias": (5,),
        "convnet1.2.weight": (6, 5, 5), "convnet1.2.bias": (5,),
        "convnet1.4.weight": (6, 5, 5), "convnet1.4.bias": (5,),
        "convnet1.5.weight": (6, 5, 5), "convnet1.5.bias": (5,),
        "convnet1.6.weight": (6, 5, 5), "convnet1.6.bias": (5,),
        "convnet1.7.weight": (1, 5, 70), "convnet1.7.bias": (70,),
        "convnet2.0.weight": (6, 1, 5), "convnet2.0.bias": (5,),
        "convnet2.2.weight": (6, 5, 5), "convnet2.2.bias": (5,),
        "convnet2.3.weight": (6, 5, 5), "convnet2.3.bias": (5,),
        "convnet2.4.weight": (6, 5, 5), "convnet2.4.bias": (5,),
        "convnet2.5.weight": (6, 5, 5), "convnet2.5.bias": (5,),
        "convnet2.6.weight": (1, 5, 70), "convnet2.6.bias": (70,),
        "fwt0.weight": (6, 5, 10), "fwt1.weight": (6, 5, 10),
        "fwt2.weight": (6, 5, 10),
    },
    "rte1d_desk": {
        "convnet0.0.weight": (6, 1, 5), "convnet0.0.bias": (5,),
        "convnet0.2.weight": (6, 5, 5), "convnet0.2.bias": (5,),
        "convnet0.4.weight": (6, 5, 5), "convnet0.4.bias": (5,),
        "convnet0.6.weight": (6, 5, 5), "convnet0.6.bias": (5,),
        "convnet0.7.weight": (6, 5, 5), "convnet0.7.bias": (5,),
        "convnet0.8.weight": (1, 5, 145), "convnet0.8.bias": (145,),
        "convnet1.0.weight": (6, 1, 5), "convnet1.0.bias": (5,),
        "convnet1.2.weight": (6, 5, 5), "convnet1.2.bias": (5,),
        "convnet1.4.weight": (6, 5, 5), "convnet1.4.bias": (5,),
        "convnet1.5.weight": (6, 5, 5), "convnet1.5.bias": (5,),
        "convnet1.6.weight": (6, 5, 5), "convnet1.6.bias": (5,),
        "convnet1.7.weight": (1, 5, 105), "convnet1.7.bias": (105,),
        "convnet2.0.weight": (6, 1, 5), "convnet2.0.bias": (5,),
        "convnet2.2.weight": (6, 5, 5), "convnet2.2.bias": (5,),
        "convnet2.3.weight": (6, 5, 5), "convnet2.3.bias": (5,),
        "convnet2.4.weight": (6, 5, 5), "convnet2.4.bias": (5,),
        "convnet2.5.weight": (6, 5, 5), "convnet2.5.bias": (5,),
        "convnet2.6.weight": (1, 5, 105), "convnet2.6.bias": (105,),
        "fwt0.weight": (6, 5, 10), "fwt1.weight": (6, 5, 10),
        "fwt2.weight": (6, 5, 10), "iwt0.weight": (3, 10, 10),
        "iwt1.weight": (3, 10, 10), "iwt2.weight": (3, 10, 10),
    },
    "schrodinger2d_desk": {
        "convnet0.0.weight": (6, 6, 1, 4), "convnet0.0.bias": (4,),
        "convnet0.2.weight": (6, 6, 4, 4), "convnet0.2.bias": (4,),
        "convnet0.4.weight": (6, 6, 4, 4), "convnet0.4.bias": (4,),
        "convnet0.5.weight": (6, 6, 4, 4), "convnet0.5.bias": (4,),
        "convnet0.6.weight": (1, 1, 4, 580), "convnet0.6.bias": (580,),
        "convnet1.0.weight": (6, 6, 1, 4), "convnet1.0.bias": (4,),
        "convnet1.2.weight": (6, 6, 4, 4), "convnet1.2.bias": (4,),
        "convnet1.3.weight": (6, 6, 4, 4), "convnet1.3.bias": (4,),
        "convnet1.4.weight": (6, 6, 4, 4), "convnet1.4.bias": (4,),
        "convnet1.5.weight": (1, 1, 4, 324), "convnet1.5.bias": (324,),
        "fwt0.weight": (6, 6, 4, 16), "fwt1.weight": (6, 6, 4, 16),
    },
}


@pytest.mark.parametrize("preset", sorted(CHECKPOINT_FORMAT))
def test_checkpoint_parameter_names_and_shapes_are_pinned(preset):
    configs = Path(__file__).resolve().parents[1] / "configs"
    mdl = MetaModel(pl.load_config(configs / f"{preset}.json").model)
    shapes = {k: v.shape for k, v in mdl.parameters().items()}
    assert shapes == CHECKPOINT_FORMAT[preset]


@pytest.mark.parametrize("name", ["ckpt_1d_zero", "ckpt_2d_tied"])
def test_checkpoint_from_an_earlier_release_loads_and_acts_alike(name):
    """Checkpoints written by an earlier release, with its forward output
    for fixed inputs: the loaded model reproduces that output."""
    ckpt = Path(__file__).resolve().parent / "data" / name
    mdl = pl.load_checkpoint(ckpt)
    ref = read_tensors(ckpt / "expected.nstf")
    u = mdl.forward(ref["eta"], ref["f"])
    assert np.max(np.abs(u - ref["u"])) <= 1e-12 * np.max(np.abs(ref["u"]))
