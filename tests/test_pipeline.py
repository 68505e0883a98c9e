import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
import reference

from nswave import container, net
from nswave import nsform as nsf
from nswave import pipeline as pl
from nswave import solvers as sv
from nswave import wavelets as wv
from nswave.errors import (ConditioningError, ConfigError, DataError,
                           InferenceError)
from nswave.model import (MetaModel, ModelConfig, collection_from_nsform,
                          export_operator, learned_operator)

DESK = {
    "problem": {"kind": "schrodinger", "n": 32, "eta_coarse": 4,
                "eta_scale": 10.0},
    "dataset": {"n_eta": 8, "n_f": 3, "seed": 7},
    "model": {"n": 32, "levels": 2, "alpha": 2, "depth": 2, "nb": 2, "p": 2,
              "padding": "periodic", "symmetric": True, "seed": 0},
    "training": {"learning_rate": 1e-3, "batch_fraction": 0.1,
                 "max_epochs": 3, "patience": 50, "seed": 1,
                 "operator_samples": 0},
}


RTE = {
    "problem": {"kind": "rte", "n": 32, "interior": 28, "eta_coarse": 4,
                "eta_scale": 1.0, "eta_max": 5.0, "f_coarse": 4},
    "dataset": {"n_eta": 6, "n_f": 3, "seed": 2},
    "model": {"n": 32, "levels": 2, "alpha": 2, "depth": 2, "nb": 1, "p": 2,
              "padding": "zero", "symmetric": False, "seed": 0},
    "training": DESK["training"],
}


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


# -- container -----------------------------------------------------------------

def test_container_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"a": rng.standard_normal((3, 4)),
               "b": rng.standard_normal(7),
               "scalar": np.array(3.5)}
    path = tmp_path / "x.nstf"
    container.write_tensors(path, tensors)
    back = container.read_tensors(path)
    assert set(back) == set(tensors)
    for name in tensors:
        assert np.array_equal(back[name], np.asarray(tensors[name]))


def test_container_determinism_and_magic(tmp_path):
    tensors = {"a": np.arange(6.0).reshape(2, 3)}
    container.write_tensors(tmp_path / "1.nstf", tensors)
    container.write_tensors(tmp_path / "2.nstf", tensors)
    assert sha(tmp_path / "1.nstf") == sha(tmp_path / "2.nstf")
    raw = bytearray(open(tmp_path / "1.nstf", "rb").read())
    assert raw[:6] == b"NSTF1\x00"
    raw[0] ^= 0xFF
    (tmp_path / "bad.nstf").write_bytes(bytes(raw))
    with pytest.raises(DataError):
        container.read_tensors(tmp_path / "bad.nstf")


def test_container_detects_trailing_garbage(tmp_path):
    container.write_tensors(tmp_path / "x.nstf", {"a": np.zeros(2)})
    with open(tmp_path / "x.nstf", "ab") as fh:
        fh.write(b"junk")
    with pytest.raises(DataError):
        container.read_tensors(tmp_path / "x.nstf")


def _small_container(tmp_path) -> bytes:
    container.write_tensors(tmp_path / "src.nstf", {
        "a": np.arange(6.0).reshape(2, 3), "sc": np.array(2.5),
        "\u00e9": np.ones(1)})
    return (tmp_path / "src.nstf").read_bytes()


def _read_bytes(tmp_path, raw: bytes):
    path = tmp_path / "cut.nstf"
    path.write_bytes(raw)
    return container.read_tensors(path)


def test_container_truncated_at_every_offset_is_a_data_error(tmp_path):
    raw = _small_container(tmp_path)
    for cut in range(len(raw)):
        with pytest.raises(DataError):
            _read_bytes(tmp_path, raw[:cut])


def test_container_bit_flips_raise_only_data_error(tmp_path):
    raw = _small_container(tmp_path)
    for pos in range(len(raw)):
        for bit in range(8):
            bad = bytearray(raw)
            bad[pos] ^= 1 << bit
            try:
                _read_bytes(tmp_path, bytes(bad))
            except DataError:
                pass


@pytest.mark.parametrize("header", [
    b"\xff" * 8,                                   # absurd entry count
    (1).to_bytes(8, "little") + (2).to_bytes(8, "little") + b"\xff\xfe",
    (1).to_bytes(8, "little") + (1).to_bytes(8, "little") + b"a"
    + (3).to_bytes(8, "little") + (1 << 32).to_bytes(8, "little") * 3,
    (1).to_bytes(8, "little") + (1).to_bytes(8, "little") + b"a"
    + (2).to_bytes(8, "little") + (2 ** 64 - 1).to_bytes(8, "little")
    + (0).to_bytes(8, "little"),
    (1).to_bytes(8, "little") + (1).to_bytes(8, "little") + b"a"
    + (2 ** 62).to_bytes(8, "little")],
    ids=["count", "utf8", "dims-overflow", "empty-huge", "rank"])
def test_container_crafted_headers_are_data_errors(tmp_path, header):
    """Bad UTF-8 name, a dims product past 2**64, an empty shape beyond
    NumPy's limits, and a rank larger than the file."""
    with pytest.raises(DataError):
        _read_bytes(tmp_path, container.MAGIC + header)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 255)),
                max_size=4),
       st.integers(0, 10 ** 6))
def test_container_random_corruption_raises_only_data_error(
        tmp_path_factory, flips, cut):
    tmp = tmp_path_factory.mktemp("c")
    raw = bytearray(_small_container(tmp))
    for pos, mask in flips:
        raw[pos % len(raw)] ^= mask
    try:
        _read_bytes(tmp, bytes(raw[:cut]))
    except DataError:
        pass


# -- configuration -----------------------------------------------------------------

def test_config_rejects_unknown_keys():
    bad = json.loads(json.dumps(DESK))
    bad["model"]["windowz"] = 3
    with pytest.raises(ConfigError):
        pl.RunConfig.from_dict(bad)
    bad2 = json.loads(json.dumps(DESK))
    bad2["extra_section"] = {}
    with pytest.raises(ConfigError):
        pl.RunConfig.from_dict(bad2)


def test_config_cross_validation():
    bad = json.loads(json.dumps(DESK))
    bad["model"]["n"] = 64
    with pytest.raises(ConfigError):
        pl.RunConfig.from_dict(bad)


def test_overrides_dotted_keys():
    d = json.loads(json.dumps(DESK))
    pl.apply_overrides(d, ["training.learning_rate=0.5",
                           "model.alpha=3",
                           "problem.kind=\"schrodinger\""])
    cfg = pl.RunConfig.from_dict(d)
    assert cfg.training.learning_rate == 0.5
    assert cfg.model.alpha == 3
    with pytest.raises(ConfigError):
        pl.apply_overrides({}, ["notakeyvalue"])


# -- dataset generation ----------------------------------------------------------

def test_generate_dataset_deterministic(tmp_path):
    cfg = pl.RunConfig.from_dict(DESK)
    pl.generate_dataset(cfg, tmp_path / "a")
    pl.generate_dataset(cfg, tmp_path / "b")
    for split in ("train", "test"):
        assert sha(tmp_path / "a" / f"{split}.nstf") \
            == sha(tmp_path / "b" / f"{split}.nstf")


@pytest.mark.parametrize("config", [DESK, RTE], ids=["elliptic", "rte"])
def test_generate_dataset_threads_match_serial(tmp_path, config):
    cfg = pl.RunConfig.from_dict(config)
    pl.generate_dataset(cfg, tmp_path / "serial", threads=1)
    pl.generate_dataset(cfg, tmp_path / "par", threads=2)
    for split in ("train", "test"):
        assert sha(tmp_path / "serial" / f"{split}.nstf") \
            == sha(tmp_path / "par" / f"{split}.nstf")


def test_generate_dataset_starts_no_more_workers_than_draws(tmp_path,
                                                          monkeypatch):
    started = []

    class Recorder:
        """Stands in for `multiprocessing.Pool`, starting no process."""

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, jobs):
            return list(itertools.starmap(fn, jobs))

    monkeypatch.setattr(pl, "Pool", Recorder)
    cfg = pl.RunConfig.from_dict(
        dict(DESK, dataset={"n_eta": 4, "n_f": 3, "seed": 7}))
    pl.generate_dataset(cfg, tmp_path / "serial", threads=1)
    pl.generate_dataset(cfg, tmp_path / "capped", threads=100_000)
    assert started == [4]
    for name in ("train.nstf", "test.nstf", "dataset.json"):
        assert sha(tmp_path / "serial" / name) == sha(tmp_path / "capped" / name)


@pytest.mark.parametrize("problem", [
    {"kind": "schrodinger", "n": 16, "eta_coarse": 4},
    {"kind": "schrodinger", "dim": 2, "n": 8, "eta_coarse": 4},
    {"kind": "divergence", "n": 16, "eta_coarse": 4, "eta_scale": 0.2,
     "eta_shift": 0.5},
], ids=["schrodinger1d", "schrodinger2d", "divergence1d"])
def test_generation_bytes_equal_the_coo_csr_assembly(tmp_path, monkeypatch,
                                                     problem):
    # the cached CSC pattern changes how the operator is stored, never a
    # value: the data written is that of the COO -> CSR -> CSC assembly
    model = dict(DESK["model"], n=problem["n"], dim=problem.get("dim", 1))
    raw = dict(DESK, problem=problem, model=model,
               dataset={"n_eta": 4, "n_f": 2, "seed": 3})
    cfg = pl.RunConfig.from_dict(raw)
    pl.generate_dataset(cfg, tmp_path / "pattern")
    monkeypatch.setattr(sv, "_periodic_stencil", reference.periodic_stencil)
    monkeypatch.setattr(sv, "_sparse_factor", reference.sparse_factor)
    monkeypatch.setattr(sv, "_divergence_factor",
                        reference.divergence_factor)
    pl.generate_dataset(cfg, tmp_path / "assembly")
    for name in ("train.nstf", "test.nstf", "dataset.json"):
        assert sha(tmp_path / "pattern" / name) \
            == sha(tmp_path / "assembly" / name), name


def test_dataset_splits_disjoint_and_certified(tmp_path):
    cfg = pl.RunConfig.from_dict(DESK)
    summary = pl.generate_dataset(cfg, tmp_path)
    assert summary["max_residual"] < pl.RESIDUAL_TOL
    tr = pl.load_sampleset(tmp_path, "train", check=True)
    te = pl.load_sampleset(tmp_path, "test", check=True)
    assert tr.n_eta + te.n_eta == cfg.dataset.n_eta
    assert not set(tr.eta_seeds) & set(te.eta_seeds)


def test_dataset_from_an_earlier_release_loads_and_recertifies():
    """A transfer dataset written by an earlier release, two of whose
    draws were redrawn once: both splits load as written, each eta seed
    is the seed scheme's plus its retries, and every residual
    re-certifies against its operator."""
    data = Path(__file__).resolve().parent / "data" / "dataset_rte1d"
    summary = json.loads((data / "dataset.json").read_text())
    splits = [pl.load_sampleset(data, s, check=True)
              for s in ("train", "test")]
    assert [list(ss.retries) for ss in splits] == [[0, 1], [1, 0]]
    assert summary["total_retries"] == 2


def test_reload_residual_check_catches_corruption(tmp_path):
    cfg = pl.RunConfig.from_dict(DESK)
    pl.generate_dataset(cfg, tmp_path)
    tensors = container.read_tensors(tmp_path / "train.nstf")
    tensors["u"][0, 0, 5] += 0.5
    container.write_tensors(tmp_path / "train.nstf", tensors)
    with pytest.raises(DataError):
        pl.load_sampleset(tmp_path, "train", check=True)
    # without the check the corrupted file loads silently
    pl.load_sampleset(tmp_path, "train", check=False)


def test_generation_builds_one_transfer_kernel_per_draw(tmp_path,
                                                       monkeypatch):
    """The solve and the certification share the draw's kernel; only the
    reload check builds its own."""
    calls = []
    build = sv.rte_kernel_1d

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)
    monkeypatch.setattr(sv, "rte_kernel_1d", counted)
    cfg = pl.RunConfig.from_dict(RTE)
    summary = pl.generate_dataset(cfg, tmp_path)
    assert len(calls) == cfg.dataset.n_eta + summary["total_retries"]
    calls.clear()
    pl.load_sampleset(tmp_path, "train", check=True)
    assert len(calls) == cfg.dataset.n_eta // 2


def test_generation_rejects_a_corrupted_solve_and_writes_nothing(
        tmp_path, monkeypatch):
    solve = sv.ProblemSpec.solve_batch
    calls = []

    def corrupted(spec, eta, fs, op=None):
        us = solve(spec, eta, fs, op)
        calls.append(1)
        if len(calls) == 4:  # one source of one test-split draw
            us[1, 16] += 1e-6
        return us
    monkeypatch.setattr(sv.ProblemSpec, "solve_batch", corrupted)
    with pytest.raises(DataError):
        pl.generate_dataset(pl.RunConfig.from_dict(RTE), tmp_path)
    assert len(calls) == 6
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value", [1e-3, np.nan])
def test_reload_check_catches_one_bad_source_of_a_middle_draw(tmp_path,
                                                              value):
    """One operator per draw still certifies every source of it."""
    cfg = pl.RunConfig.from_dict(RTE)
    pl.generate_dataset(cfg, tmp_path)
    pl.load_sampleset(tmp_path, "train", check=True)
    tensors = container.read_tensors(tmp_path / "train.nstf")
    assert tensors["u"].shape[:2] == (3, 3)
    tensors["u"][1, 2, 16] += value
    container.write_tensors(tmp_path / "train.nstf", tensors)
    with pytest.raises(DataError):
        pl.load_sampleset(tmp_path, "train", check=True)


# -- metrics and evaluation ---------------------------------------------------------

def test_metrics_roundtrip(tmp_path):
    m = pl.Metrics(train_error=0.1, test_error=0.2, operator_error=None,
                   epochs=3, stop_reason="max_epochs", wall_time=1.5,
                   loss_history=[1.0, 0.5], train_error_history=[0.3, 0.1],
                   test_error_history=[0.4, 0.2])
    m.save(tmp_path)
    back = pl.Metrics(**json.load(open(tmp_path / "metrics.json")))
    assert back == m
    lines = open(tmp_path / "curves.csv").read().strip().splitlines()
    assert lines[0] == "epoch,loss,train_error,test_error"
    assert len(lines) == 3


# every power_norm2 case runs on the matrix and on it as a LinearOperator
WRAPS = (np.asarray, spla.aslinearoperator)


def test_power_norm2_matches_svd():
    rng = np.random.default_rng(1)
    for shape in ((16, 16), (24, 16), (16, 24)):
        m = rng.standard_normal(shape)
        for wrap in WRAPS:
            assert pl.power_norm2(wrap(m)) == pytest.approx(
                np.linalg.norm(m, 2), rel=1e-6)


def _check_norm2_at_extreme_scale(scale, n):
    m = np.random.default_rng(2).standard_normal((n, n))
    for wrap in WRAPS:
        got = pl.power_norm2(wrap(m * scale))
        assert got == pytest.approx(np.linalg.norm(m, 2) * scale, rel=1e-6,
                                    abs=0.0)


@pytest.mark.parametrize("scale", [1e160, 1e-170, 2.0 ** 600, 1e-310])
def test_power_norm2_survives_entries_whose_gram_over_or_underflows(scale):
    _check_norm2_at_extreme_scale(scale, 64)


@pytest.mark.parametrize("scale", [1e160, 1e-170, 2.0 ** 600, 1e-310])
def test_power_norm2_sparse_path_survives_extreme_scales(scale):
    # side 300 is above the dense-SVD cutoff, so this takes the ARPACK path
    _check_norm2_at_extreme_scale(scale, 300)


@pytest.mark.parametrize("n", [64, 300])
def test_power_norm2_is_exact_on_a_clustered_spectrum(n):
    rng = np.random.default_rng(4)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = np.concatenate([[1.0, 1.0 - 1e-4], np.linspace(0.9, 0.01, n - 2)])
    m = (u * sigma) @ v.T
    for wrap in WRAPS:
        assert pl.power_norm2(wrap(m)) == pytest.approx(
            np.linalg.norm(m, 2), rel=1e-12, abs=0.0)


def test_power_norm2_scaling_is_exact_and_non_finite_gives_inf():
    for wrap in WRAPS:
        m = np.random.default_rng(3).standard_normal((24, 16))
        assert pl.power_norm2(wrap(m * 2.0 ** 40)) \
            == pl.power_norm2(wrap(m)) * 2.0 ** 40
        assert pl.power_norm2(wrap(np.zeros((4, 4)))) == 0.0
        for bad in (np.inf, -np.inf, np.nan):
            m[3, 5] = bad
            assert pl.power_norm2(wrap(m)) == np.inf


def test_arpack_failure_is_an_inference_error_naming_the_norm(monkeypatch):
    def stuck(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", [], [])
    monkeypatch.setattr(spla, "svds", stuck)
    m = np.random.default_rng(5).standard_normal((300, 300))
    for wrap in WRAPS:
        with pytest.raises(InferenceError, match="2-norm of G_ref"):
            pl.power_norm2(wrap(m), "G_ref")


@pytest.mark.parametrize("n", [pl.DENSE_NORM_LIMIT, pl.DENSE_NORM_LIMIT + 1])
def test_power_norm2_forms_an_operator_only_up_to_the_limit(n):
    m = np.random.default_rng(7).standard_normal((n, n))
    calls = {"matvec": 0, "rmatvec": 0, "matmat": 0}

    def counted(kind, apply):
        def call(x):
            calls[kind] += 1
            return apply(x)
        return call
    op = spla.LinearOperator(m.shape, dtype=float,
                             matvec=counted("matvec", m.dot),
                             rmatvec=counted("rmatvec", m.T.dot),
                             matmat=counted("matmat", m.dot))
    assert pl.power_norm2(op) == pytest.approx(np.linalg.norm(m, 2),
                                               rel=1e-12, abs=0.0)
    if n <= pl.DENSE_NORM_LIMIT:
        assert calls == {"matvec": 0, "rmatvec": 0, "matmat": 1}
    else:
        assert calls["matmat"] == 0 and calls["matvec"] > 0


# above DENSE_NORM_LIMIT grid points: the symmetric shortcut, the zero-mean
# pseudo-inverse, and the f-path adjoint with a zero-padded transfer model
# and with a symmetric model whose zero padding breaks the symmetry
MATRIX_FREE = {
    "schrodinger2d": (
        sv.ProblemSpec(kind="schrodinger", dim=2, n=20, eta_coarse=4),
        ModelConfig(n=20, levels=2, alpha=2, depth=2, nb=1, p=2, dim=2,
                    symmetric=True, seed=0)),
    "schrodinger1d_zero": (
        sv.ProblemSpec(kind="schrodinger", n=320, eta_coarse=8),
        ModelConfig(n=320, levels=3, alpha=2, depth=2, nb=2, p=2,
                    padding="zero", symmetric=True, seed=0)),
    "divergence1d": (
        sv.ProblemSpec(kind="divergence", n=320, eta_coarse=8,
                       eta_scale=0.2, eta_shift=0.5),
        ModelConfig(n=320, levels=3, alpha=2, depth=2, nb=2, p=2,
                    symmetric=True, seed=0)),
    "rte2d": (
        sv.ProblemSpec(kind="rte", dim=2, n=20, interior=18, eta_coarse=4,
                       eta_scale=1.0, eta_max=2.0),
        ModelConfig(n=20, levels=2, alpha=2, depth=2, nb=1, p=2, dim=2,
                    padding="zero", symmetric=False, seed=0)),
}


@pytest.mark.parametrize("case", sorted(MATRIX_FREE))
def test_matrix_free_operator_error_equals_the_dense_formula(case):
    spec, cfg = MATRIX_FREE[case]
    assert spec.n ** spec.dim > pl.DENSE_NORM_LIMIT
    mdl = MetaModel(cfg)
    etas = np.stack([spec.sample_eta(s) for s in (3, 4)])
    dense = []
    for eta in etas:
        g_ref = spec.reference_matrix(eta)
        dense.append(pl.power_norm2(g_ref - export_operator(mdl, eta))
                     / pl.power_norm2(g_ref))
    got = pl.operator_error(mdl, spec, etas)
    assert got == pytest.approx(np.mean(dense), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("case", sorted(MATRIX_FREE))
def test_solution_and_learned_operators_apply_their_dense_matrices(case):
    spec, cfg = MATRIX_FREE[case]
    eta = spec.sample_eta(5)
    v = np.random.default_rng(6).standard_normal((eta.size, 3))
    mdl = MetaModel(cfg)
    for op, dense in ((spec.solution_operator(eta),
                       spec.reference_matrix(eta)),
                      (learned_operator(mdl, eta), export_operator(mdl, eta))):
        scale = np.max(np.abs(dense))
        for col in v.T:
            for got, want in ((op.matvec(col), dense @ col),
                              (op.rmatvec(col), dense.T @ col)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * scale * eta.size


@pytest.mark.parametrize("n,interior,eta_max,draw", [
    (64, 60, 200.0, 78),      # dense path
    (320, 312, 5000.0, 1),    # matrix-free path
])
def test_operator_error_rejects_a_near_singular_transfer_draw(
        n, interior, eta_max, draw):
    spec = sv.ProblemSpec(kind="rte", n=n, interior=interior, eta_coarse=8,
                          eta_scale=1.0, eta_max=eta_max, f_coarse=8)
    eta = spec.sample_eta(7 + 1_000_003 * (draw + 1))
    mdl = MetaModel(ModelConfig(n=n, levels=2, alpha=1, depth=1, nb=1, p=1,
                                padding="zero", seed=0))
    with pytest.raises(ConditioningError):
        pl.operator_error(mdl, spec, eta[None])


@pytest.mark.parametrize("case", ["schrodinger2d", "rte2d"])
def test_operator_error_leaves_the_model_as_it_was_and_repeats(case):
    spec, cfg = MATRIX_FREE[case]
    mdl = MetaModel(cfg)
    rng = np.random.default_rng(7)
    convs = [layer for seq in mdl.convnets for layer in seq
             if hasattr(layer, "gw")] + mdl.fwt + mdl.iwt
    for layer in convs:  # accumulators a step has filled, signed zeros too
        layer.gw[...] = rng.standard_normal(layer.gw.shape)
        layer.gw.reshape(-1)[::3] = -0.0
    before = {k: v.tobytes() for k, v in mdl.parameters().items()}
    grads = [layer.gw.tobytes() for layer in convs]
    etas = spec.sample_eta(8)[None]
    first = pl.operator_error(mdl, spec, etas)
    assert pl.operator_error(mdl, spec, etas) == first
    assert {k: v.tobytes() for k, v in mdl.parameters().items()} == before
    assert [layer.gw.tobytes() for layer in convs] == grads


def test_evaluate_is_pure_and_bitwise_repeatable(tmp_path):
    cfg = pl.RunConfig.from_dict(DESK)
    pl.generate_dataset(cfg, tmp_path)
    te = pl.load_sampleset(tmp_path, "test")
    mdl = MetaModel(cfg.model)
    e1 = pl.evaluate(mdl, te)
    e2 = pl.evaluate(mdl, te)
    assert e1 == e2


def test_operator_error_zero_for_exact_model():
    # a model that *is* the reference: collection taken from the true
    # operator, untruncated, exact filters
    spec = sv.ProblemSpec(kind="schrodinger", n=32, eta_coarse=4)
    eta = spec.sample_eta(0)
    g_ref = spec.reference_matrix(eta)
    filt = wv.daubechies_filter(2)
    ns = nsf.build_nonstandard(g_ref, filt, 2)
    cfg = ModelConfig(n=32, levels=3, alpha=1, depth=1, nb=16, p=2,
                      init_noise=0.0, seed=0)
    mdl = MetaModel(cfg)
    mdl.init_filters(filt, noise=0.0)
    coll = collection_from_nsform(ns, cfg)
    g_nn = mdl.forward(eta, np.eye(eta.size), collection=coll).T
    err = pl.power_norm2(g_ref - g_nn) / pl.power_norm2(g_ref)
    assert err < 1e-10


# -- training behavior ---------------------------------------------------------------

def test_overfit_single_sample_reaches_small_error():
    """Capacity check: one eta, one f, drive the train error below 1e-3."""
    spec = sv.ProblemSpec(kind="schrodinger", n=32, eta_coarse=4)
    eta = spec.sample_eta(3)[None]
    f = spec.sample_f(4)[None, None]
    u = spec.solve(eta[0], f[0, 0])[None, None]
    ss = pl.SampleSet(problem=spec, split="train", eta=eta, f=f, u=u,
                      eta_seeds=np.zeros(1), retries=np.zeros(1))
    mdl = MetaModel(ModelConfig(n=32, levels=2, alpha=2, depth=2, nb=2, p=2,
                                symmetric=True, seed=2))
    state = net.NadamState(learning_rate=1e-3)
    err = np.inf
    for step in range(2000):
        u_hat, tape = mdl.forward_with_tape(ss.eta, ss.f)
        diff = u_hat - ss.u
        mdl.zero_grads()
        mdl.backward(tape, 2.0 * diff)
        net.nadam_step(mdl.parameters(), mdl.gradients(), state)
        err = float(np.linalg.norm(diff) / np.linalg.norm(ss.u))
        if err <= 1e-3:
            break
    assert err <= 1e-3, f"stuck at {err:.2e} after {step} steps"


def test_warm_start_loss_equals_truncation_error():
    """With exact filters and the collection taken from the truncated true
    operator, the step-0 loss is exactly the truncation error."""
    spec = sv.ProblemSpec(kind="schrodinger", n=64, eta_coarse=8)
    eta = spec.sample_eta(5)
    g = spec.reference_matrix(eta)
    filt = wv.daubechies_filter(3)
    nb = 3
    ns = nsf.truncate(nsf.build_nonstandard(g, filt, 3), nb)
    cfg = ModelConfig(n=64, levels=3, alpha=1, depth=1, nb=nb, p=3,
                      init_noise=0.0, seed=0)
    mdl = MetaModel(cfg)
    mdl.init_filters(filt, noise=0.0)
    coll = collection_from_nsform(ns, cfg)
    fs = np.stack([spec.sample_f(100 + j) for j in range(4)])
    us = spec.solve_batch(eta, fs)
    u_hat, _ = mdl.forward_with_tape(eta, fs[None][0], collection=coll)
    model_loss = float(((u_hat[0] - us) ** 2).sum() / fs.shape[0])
    g_trunc = nsf.assemble_dense(ns, filt)
    trunc_loss = float((((g_trunc - g) @ fs.T) ** 2).sum() / fs.shape[0])
    assert model_loss == pytest.approx(trunc_loss, rel=1e-9)


def test_zero_target_degenerate_set_trains_to_zero_loss(tmp_path):
    spec = sv.ProblemSpec(kind="schrodinger", n=32, eta_coarse=4)
    eta = np.stack([spec.sample_eta(i) for i in range(2)])
    f = np.zeros((2, 2, 32))
    u = np.zeros((2, 2, 32))
    ss = pl.SampleSet(problem=spec, split="train", eta=eta, f=f, u=u,
                      eta_seeds=np.zeros(2), retries=np.zeros(2))
    mdl = MetaModel(ModelConfig(n=32, levels=2, alpha=1, depth=1, nb=1, p=1,
                                seed=0))
    u_hat, tape = mdl.forward_with_tape(ss.eta, ss.f)
    assert float((u_hat ** 2).sum()) == 0.0  # linear in f: zero in, zero out


def test_train_runs_and_metrics_are_consistent(tmp_path):
    cfg = pl.RunConfig.from_dict(DESK)
    pl.generate_dataset(cfg, tmp_path)
    tr = pl.load_sampleset(tmp_path, "train")
    te = pl.load_sampleset(tmp_path, "test")
    mdl = MetaModel(cfg.model)
    metrics = pl.train(mdl, tr, te, cfg.training)
    assert metrics.epochs == 3
    assert len(metrics.test_error_history) == 3
    assert metrics.test_error == pl.evaluate(mdl, te)
    assert metrics.train_error == pl.evaluate(mdl, tr)


def test_train_step_matches_per_pair_reference(monkeypatch):
    """One full-batch step draws every eta three times; its loss and
    gradients equal the sum over the drawn pairs, each pair run through
    the model on its own."""
    cfg = pl.RunConfig.from_dict(DESK)
    spec = cfg.problem
    eta = np.stack([spec.sample_eta(i) for i in range(2)])
    f = np.stack([[spec.sample_f(10 * i + j) for j in range(3)]
                  for i in range(2)])
    u = np.stack([spec.solve_batch(e, fs) for e, fs in zip(eta, f)])
    ss = pl.SampleSet(problem=spec, split="train", eta=eta, f=f, u=u,
                      eta_seeds=np.zeros(2), retries=np.zeros(2))
    grads = []
    step = net.nadam_step

    def record(params, g, state):
        grads.append({k: v.copy() for k, v in g.items()})
        return step(params, g, state)

    monkeypatch.setattr(net, "nadam_step", record)
    tcfg = pl.TrainConfig(batch_fraction=1.0, max_epochs=1, seed=3)
    metrics = pl.train(MetaModel(cfg.model), ss, ss, tcfg)
    assert len(grads) == 1

    ref = MetaModel(cfg.model)
    n_pairs = 6
    loss = 0.0
    ref_grads = {k: np.zeros_like(v) for k, v in ref.gradients().items()}
    for i in range(2):
        for j in range(3):
            u_hat, tape = ref.forward_with_tape(eta[i], f[i, j])
            diff = u_hat - u[i, j]
            loss += float((diff ** 2).sum()) / n_pairs
            ref.zero_grads()
            ref.backward(tape, 2.0 * diff / n_pairs)
            for k, v in ref.gradients().items():
                ref_grads[k] += v
    assert metrics.loss_history[0] == pytest.approx(loss, rel=1e-12)
    assert grads[0].keys() == ref_grads.keys()
    for k, v in ref_grads.items():
        scale = max(np.max(np.abs(v)), 1e-300)
        assert np.max(np.abs(grads[0][k] - v)) <= 1e-12 * scale, k


def test_train_rejects_empty_split():
    cfg = pl.RunConfig.from_dict(DESK)
    empty = pl.SampleSet(problem=cfg.problem, split="train",
                         eta=np.zeros((0, 32)), f=np.zeros((0, 3, 32)),
                         u=np.zeros((0, 3, 32)), eta_seeds=np.zeros(0),
                         retries=np.zeros(0))
    with pytest.raises(ConfigError):
        pl.train(MetaModel(cfg.model), empty, empty, cfg.training)


def test_training_determinism_bitwise(tmp_path):
    cfg = pl.RunConfig.from_dict(DESK)
    pl.generate_dataset(cfg, tmp_path / "d")
    tr = pl.load_sampleset(tmp_path / "d", "train")
    te = pl.load_sampleset(tmp_path / "d", "test")
    for tag in ("a", "b"):
        mdl = MetaModel(cfg.model)
        pl.train(mdl, tr, te, cfg.training)
        pl.save_checkpoint(mdl, tmp_path / tag)
    assert sha(tmp_path / "a" / "model.nstf") \
        == sha(tmp_path / "b" / "model.nstf")


def test_checkpoint_roundtrip_preserves_evaluation(tmp_path):
    cfg = pl.RunConfig.from_dict(DESK)
    pl.generate_dataset(cfg, tmp_path / "d")
    te = pl.load_sampleset(tmp_path / "d", "test")
    mdl = MetaModel(cfg.model)
    pl.save_checkpoint(mdl, tmp_path / "ck")
    back = pl.load_checkpoint(tmp_path / "ck")
    assert pl.evaluate(back, te) == pl.evaluate(mdl, te)
    # tampered names are rejected
    tensors = container.read_tensors(tmp_path / "ck" / "model.nstf")
    tensors["bogus"] = np.zeros(3)
    container.write_tensors(tmp_path / "ck" / "model.nstf", tensors)
    with pytest.raises(DataError):
        pl.load_checkpoint(tmp_path / "ck")
