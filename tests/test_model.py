import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import reference

from nswave import model, net
from nswave import nsform as nsf
from nswave import pipeline as pl
from nswave import wavelets as wv
from nswave.container import read_tensors
from nswave.errors import InferenceError, ShapeError
from nswave.model import (
    MetaModel,
    ModelConfig,
    collection_from_nsform,
    export_operator,
    learned_operator,
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
    # band_multiply sums a level's blocks in slot order, which sets the
    # training bits: emitted slots in column order, then derived ones
    sym = MetaModel(ModelConfig(n=64, levels=3, alpha=2, depth=2, nb=3, p=3,
                                symmetric=True, seed=0))
    order = [[(0, 0), (0, 1), (1, 1), (1, 0)]] + [[(0, 0), (0, 1), (1, 0)]] * 2
    assert [list(lay.offsets) for lay in sym.layouts] == order
    assert [list(b) for b in sym.collection(np.zeros(64))] == order


def test_layout_is_memoized_and_read_only():
    cfg = ModelConfig(n=32, levels=2, alpha=2, depth=1, nb=1, p=1,
                      symmetric=True, seed=0)
    other = ModelConfig(n=32, levels=2, alpha=2, depth=2, nb=1, p=1,
                        symmetric=True, seed=5)
    for a, b in zip(MetaModel(cfg).layouts, MetaModel(other).layouts):
        assert a is b
        for arr in (a.gather.data, a.gather.indices, a.gather_t.data,
                    a.offsets[0, 1]):
            assert not arr.flags.writeable
        assert np.array_equal(a.gather_t.toarray(), a.gather.T.toarray())


def test_scatters_are_memoized_read_only_and_built_on_first_use(tmp_path):
    """The training adjoints' scatters: one per conv geometry
    (`net._tap_layout`), one per band level (`nsform._adjoint_scatter`)
    with its shift indices (`nsform._shift_index`), each cached and
    read-only; building a model or loading a checkpoint builds none."""
    cfg = ModelConfig(n=16, levels=2, alpha=2, depth=1, nb=1, p=1,
                      padding="zero", dim=2, seed=0)
    caches = (net._tap_layout, nsf._adjoint_scatter, nsf._shift_index)
    pl.save_checkpoint(MetaModel(cfg), tmp_path)
    for c in caches:
        c.cache_clear()
    mdl = pl.load_checkpoint(tmp_path)
    MetaModel(cfg)
    assert [c.cache_info().currsize for c in caches] == [0, 0, 0]
    rng = np.random.default_rng(0)
    u, tape = mdl.forward_with_tape(rng.standard_normal((16, 16)),
                                    rng.standard_normal((16, 16)))
    mdl.backward(tape, np.ones_like(u))
    built = [c.cache_info().misses for c in caches]
    u, tape = mdl.forward_with_tape(rng.standard_normal((16, 16)),
                                    rng.standard_normal((16, 16)))
    mdl.backward(tape, np.ones_like(u))
    assert [c.cache_info().misses for c in caches] == built
    lay = mdl.layouts[1]
    terms = tuple((j, tuple(map(tuple, offs.tolist())))
                  for (_, j), offs in lay.offsets.items())
    scatter = nsf._adjoint_scatter(terms, lay.size, 4)
    index = nsf._shift_index(terms[0][1], lay.size, "zero")
    conv = mdl.convnets[1][0]
    flat, taps = net._tap_layout((16, 16), conv.width, 1, conv.base_offset,
                                 "zero")
    assert [c.cache_info().misses for c in caches] == built  # all cached
    for a in (scatter.data, scatter.indices, scatter.indptr, index, flat,
              taps.data, taps.indices, taps.indptr):
        assert not a.flags.writeable


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
    # even block sizes under zero fill: the coarse block's offset n/2 and,
    # in 2D, the full band of the size-2 blocks
    for padding in ("periodic", "zero"):
        cfg = ModelConfig(n=n, levels=2, alpha=2, depth=2, nb=1, p=1,
                          padding=padding, symmetric=True, dim=dim, seed=9)
        mdl = MetaModel(cfg)
        # scramble every parameter to rule out anything init-specific
        rng = np.random.default_rng(10)
        for arr in mdl.parameters().values():
            arr[...] = rng.standard_normal(arr.shape)
        shape = (n,) if dim == 1 else (n, n)
        g = export_operator(mdl, rng.standard_normal(shape))
        assert np.max(np.abs(g - g.T)) < 1e-10, padding


def _materialized(mdl, rng, be=1):
    """Random raw head outputs, one per level, and their collection."""
    raw = [rng.standard_normal((be,) + (lay.size,) * mdl.cfg.dim
                               + (lay.n_columns,)) for lay in mdl.layouts]
    return raw, mdl._materialize(raw)


def test_banded_transpose_matches_dense_transpose():
    rng = np.random.default_rng(11)
    cfg = ModelConfig(n=32, levels=2, alpha=1, depth=1, nb=2, p=1,
                      symmetric=True, seed=0)
    mdl = MetaModel(cfg)
    lay = mdl.layouts[1]
    blocks = _materialized(mdl, rng)[1][1]
    dense = {slot: reference.to_dense(nsf.BandedBlock(
        offsets=lay.offsets[slot], data=blocks[slot][0, :, 0, :]))
        for slot in ((0, 1), (1, 0))}
    # the derived block is the dense transpose of its source
    assert np.array_equal(dense[1, 0], dense[0, 1].T)


@pytest.mark.parametrize("dim", [1, 2])
def test_banded_transpose_equals_dense_transpose_diagonals(dim):
    # level sizes 4 and 8: nb = 2 takes every offset at size 4, and the
    # coarse block's offsets wrap onto their own negations (2 = -2 mod 4)
    rng = np.random.default_rng(13)
    cfg = ModelConfig(n=16, levels=2, alpha=2, depth=1, nb=2, p=1,
                      symmetric=True, dim=dim, seed=0)
    mdl = MetaModel(cfg)
    last = (1 << dim) - 1
    for lay, blocks in zip(mdl.layouts, _materialized(mdl, rng, be=2)[1]):
        # every block is the banded transpose of its mirror: derived blocks
        # of their sources, self-symmetric and coarse blocks of themselves
        for (i, j), arr in blocks.items():
            nb = None if (i, j) == (last, last) else cfg.nb
            offs = lay.offsets[j, i]
            for b, c in np.ndindex(2, cfg.alpha):
                dense = reference.to_dense(
                    nsf.BandedBlock(offs, blocks[j, i][b, ..., c, :]))
                ref = nsf.BandedBlock.from_dense(dense.T, dim)
                ref = (ref if nb is None else ref.truncated(nb)).data
                assert np.array_equal(arr[b, ..., c, :], ref)


def test_symmetrize_idempotent():
    """Raw columns that already hold a materialized collection
    materialize to that collection."""
    rng = np.random.default_rng(12)
    cfg = ModelConfig(n=32, levels=2, alpha=2, depth=1, nb=2, p=1,
                      symmetric=True, seed=0)
    mdl = MetaModel(cfg)
    once = _materialized(mdl, rng)[1]
    # the head's columns: the emitted blocks (i <= j), in slot order
    raw = [np.concatenate([arr.reshape(arr.shape[:-2] + (-1,))
                           for (i, j), arr in blocks.items() if i <= j],
                          axis=-1) for blocks in once]
    twice = mdl._materialize(raw)
    for a, b in zip(once, twice):
        assert list(a) == list(b)
        for key in a:
            assert np.allclose(a[key], b[key], atol=1e-14)


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16)])
@pytest.mark.parametrize("padding", ["periodic", "zero"])
@pytest.mark.parametrize("symmetric", [False, True])
def test_materialize_backward_is_its_adjoint(dim, n, padding, symmetric):
    """<materialize(raw), g> = <raw, materialize_backward(g)> at every
    level, zero-padded symmetric layouts and 2D included."""
    cfg = ModelConfig(n=n, levels=3, alpha=2, depth=1, nb=2, p=1,
                      padding=padding, symmetric=symmetric, dim=dim, seed=0)
    mdl = MetaModel(cfg)
    rng = np.random.default_rng(14)
    raw, blocks = _materialized(mdl, rng, be=2)
    g = [{slot: rng.standard_normal(arr.shape) for slot, arr in b.items()}
         for b in blocks]
    g_raw = mdl._materialize_backward(g)
    for r, b, gb, gr in zip(raw, blocks, g, g_raw):
        assert gr.shape == r.shape
        lhs = sum(np.vdot(b[slot], gb[slot]) for slot in b)
        rhs = np.vdot(r, gr)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(r) \
            * np.linalg.norm(gr)


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
                                                symmetric, monkeypatch):
    """Every column of the pass-wise export is the forward response to its
    unit source; a budget of 7 sources' tap matrices leaves a remainder
    pass on every grid, and the periodic ones read the class table."""
    cfg = ModelConfig(n=n, levels=levels, alpha=2, depth=1, nb=1, p=2,
                      padding=padding, symmetric=symmetric, dim=dim, seed=3)
    mdl = _scrambled_model(cfg, 4)
    shape = (n,) * dim
    nn = n ** dim
    monkeypatch.setattr(model, "EXPORT_TAP_BYTES", 7 * 8 * nn * 2 ** dim * 2)
    width, table = model._export_plan(mdl)
    assert width == 7 and table <= model.EXPORT_TAP_BYTES
    eta = np.random.default_rng(5).standard_normal(shape)
    g = export_operator(mdl, eta)
    assert g.shape == (nn, nn)
    basis = np.eye(nn).reshape((nn,) + shape)
    u_all = mdl.forward(eta, basis).reshape(nn, nn)  # one batch of sources
    scale = np.max(np.abs(u_all))
    assert np.max(np.abs(g - u_all.T)) <= 1e-13 * scale
    for k in (0, 6, 7, nn // 2, nn - 1):
        col = mdl.forward(eta, basis[k]).reshape(nn)
        assert np.max(np.abs(g[:, k] - col)) <= 1e-13 * scale


@pytest.mark.parametrize("dim,n,levels", [(1, 80, 3), (2, 16, 2)])
def test_class_parts_are_the_analysed_parts_bytewise(dim, n, levels,
                                                     monkeypatch):
    """At every level, the parts export reads from the residue classes'
    table have the bytes of `_analyse` of the same unit sources, on a
    perturbed periodic model: passes of 7 cover every source, so every
    residue class at every shift, and end in a remainder pass."""
    cfg = ModelConfig(n=n, levels=levels, alpha=2, depth=1, nb=1, p=2,
                      dim=dim, seed=3)
    mdl = _scrambled_model(cfg, 4)
    shape, nn = (n,) * dim, n ** dim
    monkeypatch.setattr(model, "EXPORT_TAP_BYTES", 7 * 8 * nn * 2 ** dim * 2)
    width, table = model._export_plan(mdl)
    assert width == 7 and table <= model.EXPORT_TAP_BYTES
    class_parts, passes = model._class_parts, []

    def checked(classes, ks, m):
        parts = class_parts(classes, ks, m)
        want = mdl._analyse(model._unit_sources(ks, shape), False)[0]
        for got_level, want_level in zip(parts, want, strict=True):
            for got, ref in zip(got_level, want_level, strict=True):
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()
        passes.append(ks)
        return parts
    monkeypatch.setattr(model, "_class_parts", checked)
    export_operator(mdl, np.random.default_rng(5).standard_normal(shape))
    assert np.array_equal(np.concatenate(passes), np.arange(nn))
    assert 0 < len(passes[-1]) < 7


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dim=st.integers(1, 2), levels=st.integers(1, 2), k=st.integers(1, 3),
       p=st.integers(1, 3), nb=st.integers(0, 3), alpha=st.integers(1, 3),
       padding=st.sampled_from(["periodic", "zero"]), symmetric=st.booleans())
def test_learned_operator_compiled_blocks_are_bit_identical(
        dim, levels, k, p, nb, alpha, padding, symmetric):
    """`learned_operator`'s CSR blocks give the bytes of the offset loop,
    and its rmatvec is the adjoint of its matvec.  Densely: a
    non-symmetric model's rmatmat of the identity is the transpose of its
    matmat (this covers the zero-fill layouts that keep diagonal n/2 of
    an even block), and a symmetric model's operator is symmetric.
    `export_operator`, through the class table or not, is that matmat
    to 1e-13."""
    n = k << levels
    cfg = ModelConfig(n=n, levels=levels, alpha=alpha, depth=1, nb=nb, p=p,
                      padding=padding, symmetric=symmetric, dim=dim, seed=3)
    mdl = _scrambled_model(cfg, 4)
    shape, nn = (n,) * dim, n ** dim
    rng = np.random.default_rng(5)
    eta = rng.standard_normal(shape)
    op = learned_operator(mdl, eta)
    v = rng.standard_normal((nn, 3))
    coll = mdl.collection(eta)
    # a repeated collection and a repeated forward are byte-equal
    for a, b in zip(coll, mdl.collection(eta)):
        assert list(a) == list(b)
        assert all(a[slot].tobytes() == b[slot].tobytes() for slot in a)
    f = v.T.reshape((3,) + shape)
    u = mdl.forward(eta, f, collection=coll)
    for _ in range(2):
        assert mdl.forward(eta, f).tobytes() == u.tobytes()
    assert np.array_equal(op.matmat(v), u.reshape(3, nn).T)
    x, y = rng.standard_normal((2, nn))
    gx, gty = op.matvec(x), op.rmatvec(y)
    scale = np.linalg.norm(gx) * np.linalg.norm(y) \
        + np.linalg.norm(x) * np.linalg.norm(gty)
    assert abs(gx @ y - x @ gty) <= 1e-12 * scale
    g = op.matmat(np.eye(nn))
    gt = g if symmetric else op.rmatmat(np.eye(nn))
    assert np.max(np.abs(gt - g.T)) <= 1e-13 * np.max(np.abs(g))
    # export at the default budget (periodic: the q**dim class sources
    # analysed), at one of nn - 1 sources' tap matrices (a remainder pass
    # of one), and at one float, where no class table fits and each pass
    # analyses its one source
    tap = 8 * nn * p ** dim * alpha
    classes = (1 << levels * dim) if padding == "periodic" else nn
    for budget, analysed in ((model.EXPORT_TAP_BYTES, classes),
                             ((nn - 1) * tap, None), (8, nn)):
        with mock.patch.object(model, "EXPORT_TAP_BYTES", budget), \
                mock.patch.object(MetaModel, "_analyse", autospec=True,
                                  side_effect=MetaModel._analyse) as spy:
            ge = export_operator(mdl, eta)
        sources = sum(c.args[1].shape[1] for c in spy.call_args_list)
        assert analysed in (None, sources)
        assert np.max(np.abs(ge - g)) <= 1e-13 * np.max(np.abs(g))


def test_export_and_matvec_run_no_offset_loop(monkeypatch):
    """Export and all four products of a non-symmetric model run the
    compiled blocks: no offset loop, no loop adjoint, no backward."""
    cfg = ModelConfig(n=8, levels=2, alpha=2, depth=1, nb=1, p=2,
                      padding="zero", dim=2, seed=3)
    mdl = _scrambled_model(cfg, 4)
    eta = np.random.default_rng(5).standard_normal((8, 8))
    op = learned_operator(mdl, eta)

    def fail(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call
    monkeypatch.setattr(nsf, "band_multiply", fail("nsform.band_multiply"))
    monkeypatch.setattr(nsf, "band_multiply_adjoint",
                        fail("nsform.band_multiply_adjoint"))
    monkeypatch.setattr(MetaModel, "backward", fail("MetaModel.backward"))
    g = export_operator(mdl, eta)
    assert np.array_equal(op.matmat(np.eye(64)), g)  # export's one pass
    scale = np.max(np.abs(g))
    gap = np.max(np.abs(op.matvec(np.eye(64)[0]) - g[:, 0]))
    assert gap <= 1e-13 * scale
    gap = np.max(np.abs(op.rmatvec(np.eye(64)[0]) - g[0]))
    assert gap <= 1e-13 * scale
    assert np.max(np.abs(op.rmatmat(np.eye(64)) - g.T)) <= 1e-13 * scale


def test_collection_from_nsform_rejects_a_band_wider_than_the_layout():
    rng = np.random.default_rng(6)
    filt = wv.daubechies_filter(1)
    ns = nsf.build_nonstandard(rng.standard_normal((32, 32)), filt, 2)
    cfg = ModelConfig(n=32, levels=3, alpha=1, depth=1, nb=1, p=1,
                      init_noise=0.0, seed=0)
    for form in (ns, nsf.truncate(ns, 3)):
        with pytest.raises(ShapeError, match=r"level 0 .* slot \(0, 0\): "
                                             r"diagonal \(2,\)"):
            collection_from_nsform(form, cfg)
    ns1 = nsf.truncate(ns, 1)
    coll = collection_from_nsform(ns1, cfg)
    v = rng.standard_normal(32)
    u = exact_model(cfg).forward(np.zeros(32), v, collection=coll)
    assert np.max(np.abs(u - nsf.apply(ns1, v, filt))) < 1e-10


def _check_band_multiply(terms, parts, gouts, axes, padding):
    """`nsform.band_multiply` against the np.roll reference, and its
    adjoint by <B x, y> = <x, B^T y> and <B x, y> = <B, g_B>; returns the
    coefficient gradients."""
    outs = nsf.band_multiply(terms, parts, axes, padding)
    ref = reference.band_multiply(terms, parts, axes, padding)
    for o, r in zip(outs, ref):
        assert np.max(np.abs(o - r)) <= 1e-13 * np.max(np.abs(r))
    g_coefs, g_parts = nsf.band_multiply_adjoint(terms, parts, gouts, axes,
                                                 padding)
    assert [g.shape for g in g_parts] == [x.shape for x in parts]
    lhs = sum(np.vdot(o, g) for o, g in zip(outs, gouts))
    rhs_x = sum(np.vdot(p, g) for p, g in zip(parts, g_parts))
    rhs_b = sum(np.vdot(coef, g_coefs[slot]) for slot, _, coef in terms)
    assert abs(lhs - rhs_x) <= 1e-12 * abs(lhs)
    assert abs(lhs - rhs_b) <= 1e-12 * abs(lhs)
    return g_coefs


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16)])
@pytest.mark.parametrize("padding", ["periodic", "zero"])
@pytest.mark.parametrize("level", [0, 1])
def test_band_matvec_matches_reference_and_its_adjoint(dim, n, padding,
                                                       level):
    """The model's layout: parts (Be, Bf, spatial.., alpha), blocks (Be, 1,
    spatial.., alpha, n_off) broadcast over Bf; level 0 includes the dense
    coarse block."""
    cfg = ModelConfig(n=n, levels=2, alpha=2, depth=1, nb=2, p=1,
                      padding=padding, dim=dim, seed=0)
    mdl = MetaModel(cfg)
    lay = mdl.layouts[level]
    rng = np.random.default_rng(21 + level)
    be, bf = 2, 3
    spatial = (lay.size,) * dim
    blocks = {key: rng.standard_normal(
        (be,) + spatial + (cfg.alpha, len(lay.offsets[key])))
        for key in lay.offsets}
    n_parts = 2 if dim == 1 else 4
    parts = [rng.standard_normal((be, bf) + spatial + (cfg.alpha,))
             for _ in range(n_parts)]
    gouts = [rng.standard_normal(p.shape) for p in parts]
    coarsest = level == 0
    terms = [(key, lay.offsets[key], arr[:, None])
             for key, arr in blocks.items()]
    g_blocks = _check_band_multiply(terms, parts, gouts,
                                    tuple(range(2, 2 + dim)), padding)
    for key, arr in blocks.items():
        assert g_blocks[key].shape == (be, 1) + arr.shape[1:]
    last = (1 << dim) - 1
    assert ((last, last) in g_blocks) == coarsest


@pytest.mark.parametrize("dim,side", [(1, 16), (2, 8)])
@pytest.mark.parametrize("padding", ["periodic", "zero"])
def test_band_multiply_adjoint_on_the_oracle_layout(dim, side, padding):
    """The oracle's layout: parts (spatial.., columns), coefficients
    (spatial.., 1, n_off) broadcast over the trailing column axis, whose
    gradient is summed over it."""
    rng = np.random.default_rng(23)
    ns = nsf.truncate(nsf.build_nonstandard(
        rng.standard_normal((side ** dim,) * 2), wv.daubechies_filter(1), 1,
        dim=dim), 1)
    blocks = ns.levels[-1]
    m, ncols = blocks[0, 1].n, 5
    terms = [(slot, blk.offsets,
              rng.standard_normal((m,) * dim + (1, len(blk.offsets))))
             for slot, blk in blocks.items()]
    parts = [rng.standard_normal((m,) * dim + (ncols,))
             for _ in range(1 << dim)]
    gouts = [rng.standard_normal(p.shape) for p in parts]
    g_coefs = _check_band_multiply(terms, parts, gouts, tuple(range(dim)),
                                   padding)
    # the column sum's order against the loop's: one column, a few, and
    # more than numpy's pairwise block of 8
    for cols in (1, ncols, 9):
        xs = [rng.standard_normal((m,) * dim + (cols,)) for _ in parts]
        gs = [rng.standard_normal(x.shape) for x in xs]
        _assert_same_bytes(
            nsf.band_multiply_adjoint(terms, xs, gs, tuple(range(dim)),
                                      padding),
            reference.band_multiply_adjoint(terms, xs, gs, tuple(range(dim)),
                                            padding))
    for (i, j), offs, coef in terms:
        assert g_coefs[i, j].shape == coef.shape
        # each coefficient's gradient, summed over the columns by hand
        for t in range(len(offs)):
            shifted = reference.band_multiply(
                [((0, 0), offs[t:t + 1], np.ones((1,) * (dim + 2)))],
                [parts[j]], tuple(range(dim)), padding)[0]
            assert np.allclose(g_coefs[i, j][..., 0, t],
                               np.sum(gouts[i] * shifted, axis=-1),
                               rtol=1e-13, atol=1e-13)


def _assert_same_bytes(got, want):
    """Two (coef_grads, part_grads) pairs are equal byte for byte, which
    tells -0.0 from 0.0 where `np.array_equal` does not."""
    assert list(got[0]) == list(want[0])
    pairs = [(got[0][s], want[0][s]) for s in want[0]] \
        + list(zip(got[1], want[1], strict=True))
    for a, b in pairs:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16)])
@pytest.mark.parametrize("padding", ["periodic", "zero"])
@pytest.mark.parametrize("symmetric", [False, True])
def test_band_multiply_adjoint_bytes_equal_the_offset_loop(dim, n, padding,
                                                           symmetric):
    """The adjoint's gather and scatter against the offset loop
    (`reference.band_multiply_adjoint`), on the model's layout at every
    level, the coarse block included, for Be and Bf from 1 to 3.  The
    parts are channel slices of one array, as the model passes them, and
    hold signed zeros."""
    cfg = ModelConfig(n=n, levels=2, alpha=2, depth=1, nb=2, p=1,
                      padding=padding, symmetric=symmetric, dim=dim, seed=0)
    rng = np.random.default_rng(31)
    axes = tuple(range(2, 2 + dim))
    for lay in MetaModel(cfg).layouts:
        spatial = (lay.size,) * dim
        for be, bf in itertools.product((1, 2, 3), repeat=2):
            terms = [(slot, offs, rng.standard_normal(
                (be, 1) + spatial + (cfg.alpha, len(offs))))
                for slot, offs in lay.offsets.items()]
            y, gy = rng.standard_normal((2, be, bf) + spatial
                                        + (cfg.alpha << dim,))
            y[y < -1.5], gy[gy > 1.5] = -0.0, 0.0
            parts, gouts = (
                [a[..., q:q + cfg.alpha] for q in range(0, a.shape[-1],
                                                        cfg.alpha)]
                for a in (y, gy))
            _assert_same_bytes(
                nsf.band_multiply_adjoint(terms, parts, gouts, axes, padding),
                reference.band_multiply_adjoint(terms, parts, gouts, axes,
                                                padding))


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


def test_backward_forms_no_input_gradient_that_nothing_reads(monkeypatch):
    """The finest forward-transform conv and the first conv of every eta
    ConvNet run only their parameter half: the gradients with respect to
    the sources and to eta are never formed."""
    cfg = ModelConfig(n=16, levels=2, alpha=2, depth=2, nb=1, p=2, seed=0)
    mdl = MetaModel(cfg)
    rng = np.random.default_rng(7)
    u, tape = mdl.forward_with_tape(rng.standard_normal(16),
                                    rng.standard_normal((1, 2, 16)))
    mdl.zero_grads()
    mdl.backward(tape, u)
    expected = {k: v.copy() for k, v in mdl.gradients().items()}

    def fail(*args):
        raise AssertionError("an unread input gradient was formed")
    skipped = [mdl.fwt[-1]] + [seq[0] for seq in mdl.convnets]
    for layer in skipped:
        monkeypatch.setattr(layer, "backward_input", fail)
    mdl.zero_grads()
    mdl.backward(tape, u)
    for k, v in mdl.gradients().items():
        assert np.array_equal(v, expected[k]), k
    assert all(np.any(layer.gw) for layer in skipped)


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
