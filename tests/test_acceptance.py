"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured figure.  Criterion 7 performs the full desk-scale
generation + training cycle from the shipped presets and dominates the
suite's runtime (a few minutes; bound: 30 on a laptop core).

Run with `pytest tests/test_acceptance.py -s` to see the report lines.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from nswave import net
from nswave import nsform as nsf
from nswave import pipeline as pl
from nswave import solvers as sv
from nswave import wavelets as wv
from nswave.model import (
    MetaModel,
    ModelConfig,
    collection_from_nsform,
    export_operator,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_criterion_1_nonstandard_form_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_mv, worst_rec = 0.0, 0.0
    for p, l0 in ((1, 0), (3, 3)):
        filt = wv.daubechies_filter(p)
        for _ in range(10):
            a = rng.standard_normal((64, 64))
            ns = nsf.build_nonstandard(a, filt, l0)
            v = rng.standard_normal(64)
            ref = a @ v
            worst_mv = max(worst_mv, np.linalg.norm(
                nsf.apply(ns, v, filt) - ref) / np.linalg.norm(ref))
            worst_rec = max(worst_rec, np.max(np.abs(
                nsf.assemble_dense(ns, filt) - a)))
    wall = time.monotonic() - t0
    ok = worst_mv <= 1e-11 and worst_rec <= 1e-10 and wall < 10.0
    report(1, ok, f"matvec {worst_mv:.2e} (<=1e-11), reconstruction "
                  f"{worst_rec:.2e} (<=1e-10), {wall:.1f}s (<10s)")


def test_criterion_2_wavelet_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst_rt, worst_orth, worst_poly = 0.0, 0.0, 0.0
    n = 1 << 10
    for p in (1, 2, 3):
        filt = wv.daubechies_filter(p)
        l0 = wv.min_coarse_level(p)
        v = rng.standard_normal(n)
        pyr = wv.forward_transform(v, filt, l0)
        worst_rt = max(worst_rt, np.max(np.abs(
            wv.inverse_transform(pyr, filt) - v)) / np.max(np.abs(v)))

        def flatten(py):
            return np.concatenate(
                [py.w[level] for level in sorted(py.w)] + [py.s])

        wmat = np.stack([flatten(wv.forward_transform(col, filt, l0))
                         for col in np.eye(n)], axis=1)
        worst_orth = max(worst_orth, np.max(np.abs(
            wmat.T @ wmat - np.eye(n))))

        x = np.arange(n) / n
        poly = sum((m + 1.0) * x ** m for m in range(p))
        poly = poly / np.linalg.norm(poly)
        pyr = wv.forward_transform(poly, filt, l0)
        for level, w in pyr.w.items():
            t = pyr.l_max - level
            width = (2 ** t) * (2 * p - 1) - (2 * p - 2)
            k = np.arange(w.shape[0])
            interior = (2 ** t) * k + width - 1 <= n - 1
            worst_poly = max(worst_poly, np.max(np.abs(w[interior])))
    wall = time.monotonic() - t0
    ok = (worst_rt <= 1e-12 and worst_orth <= 1e-12
          and worst_poly <= 1e-10 and wall < 5.0)
    report(2, ok, f"round trip {worst_rt:.2e} (<=1e-12), orthogonality "
                  f"{worst_orth:.2e} (<=1e-12), suppression {worst_poly:.2e} "
                  f"(<=1e-10), {wall:.1f}s (<5s)")


def test_criterion_3_architecture_contains_algorithm():
    rng = np.random.default_rng(99)
    worst = 0.0
    for p, n, levels, l0 in ((1, 32, 3, 2), (3, 64, 3, 3)):
        filt = wv.daubechies_filter(p)
        ns = nsf.truncate(nsf.build_nonstandard(
            rng.standard_normal((n, n)), filt, l0), 3)
        for padding in ("periodic", "zero"):
            cfg = ModelConfig(n=n, levels=levels, alpha=1, depth=1, nb=3,
                              p=p, padding=padding, init_noise=0.0, seed=0)
            mdl = MetaModel(cfg)
            mdl.init_filters(filt, noise=0.0)
            coll = collection_from_nsform(ns, cfg)
            v = rng.standard_normal(n)
            gap = np.max(np.abs(
                mdl.forward(np.zeros(n), v, collection=coll)
                - nsf.apply(ns, v, filt, padding=padding)))
            worst = max(worst, gap / max(1.0, np.max(np.abs(v))))
    for p, n, levels, l0 in ((1, 8, 2, 1), (3, 16, 1, 3)):
        filt = wv.daubechies_filter(p)
        ns2 = nsf.truncate(nsf.build_nonstandard(
            rng.standard_normal((n * n, n * n)), filt, l0, dim=2), 1)
        for padding in ("periodic", "zero"):
            cfg = ModelConfig(n=n, levels=levels, alpha=1, depth=1, nb=1,
                              p=p, padding=padding, dim=2, init_noise=0.0,
                              seed=0)
            mdl = MetaModel(cfg)
            mdl.init_filters(filt, noise=0.0)
            coll = collection_from_nsform(ns2, cfg)
            v = rng.standard_normal((n, n))
            gap = np.max(np.abs(
                mdl.forward(np.zeros((n, n)), v, collection=coll)
                - nsf.apply(ns2, v, filt, padding=padding)))
            worst = max(worst, gap)
    report(3, worst <= 1e-10,
           f"model vs fast matvec, 1D/2D x periodic/zero: {worst:.2e} "
           f"(<=1e-10)")


def test_criterion_4_gradient_fidelity():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
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
        errs = net.finite_difference_check(loss, mdl.parameters(),
                                           mdl.gradients())
        worst = max(worst, max(errs.values()))
    wall = time.monotonic() - t0
    ok = worst <= 1e-5 and wall < 120.0
    report(4, ok, f"finite-difference gradient error over 5 seeds "
                  f"{worst:.2e} (<=1e-5), {wall:.1f}s (<120s)")


def test_criterion_5_solver_fidelity():
    worst_res = 0.0
    for spec, seeds in (
            (sv.ProblemSpec(kind="schrodinger", n=64, eta_coarse=8), (0, 1)),
            (sv.ProblemSpec(kind="divergence", n=64, eta_coarse=8,
                            eta_scale=0.2, eta_shift=0.5), (2, 3)),
            (sv.ProblemSpec(kind="schrodinger", dim=2, n=16, eta_coarse=4),
             (4, 5))):
        eta = spec.sample_eta(seeds[0])
        f = spec.sample_f(seeds[1])
        worst_res = max(worst_res, spec.residual(eta, f, spec.solve(eta, f)))

    n, h, eta0 = 64, 1.0 / 64, 3.0
    x = np.arange(n) * h
    mode = np.sin(2 * np.pi * x)
    lam_s = 4 * np.sin(np.pi / n) ** 2 / h ** 2 + eta0
    err_fourier = np.max(np.abs(
        sv.solve_schrodinger(np.full(n, eta0), mode) - mode / lam_s))
    lam_d = 2.0 * 4 * np.sin(np.pi / n) ** 2 / h ** 2
    err_fourier = max(err_fourier, np.max(np.abs(
        sv.solve_divergence(np.full(n, 2.0), mode) - mode / lam_d)))

    rspec = sv.ProblemSpec(kind="rte", n=64, interior=60, eta_coarse=8,
                           eta_scale=1.0, eta_max=5.0, f_coarse=8)
    eta = np.where(rspec._pad_mask(), 0.0, 0.05)
    kern = sv.rte_kernel_1d(eta, rspec)
    f = rspec.sample_f(9)
    u = rspec.solve_batch(eta, f[None], kern)[0]
    keta = kern * eta[None, :]
    two_term = kern @ f + keta @ (kern @ f)
    q = np.linalg.norm(keta, 2)
    neumann_ok = (np.linalg.norm(u - two_term)
                  <= q ** 2 / (1 - q) * np.linalg.norm(kern @ f))

    import mpmath
    mpmath.mp.dps = 30
    zs = np.concatenate([np.logspace(-6, 0, 15), np.logspace(0.01, 2, 15)])
    ref = np.array([float(mpmath.e1(mpmath.mpf(float(z)))) for z in zs])
    e1_err = np.max(np.abs(sv.expint_e1(zs) - ref) / np.abs(ref))

    ok = (worst_res <= 1e-10 and err_fourier <= 1e-10 and neumann_ok
          and e1_err <= 1e-12)
    report(5, ok, f"residuals {worst_res:.2e} (<=1e-10), closed forms "
                  f"{err_fourier:.2e} (<=1e-10), Neumann two-term "
                  f"{'ok' if neumann_ok else 'violated'}, E1 vs 30-digit "
                  f"oracle {e1_err:.2e} (<=1e-12)")


def test_criterion_6_perturbative_linearization():
    t0 = time.monotonic()
    n = 64
    spec = sv.ProblemSpec(kind="schrodinger", n=n, eta_coarse=8)
    rng = np.random.default_rng(0)
    eta0 = 10.0
    delta = sv.fourier_interpolate(rng.standard_normal(8), n)
    g0 = spec.reference_matrix(np.full(n, eta0))
    errs = []
    for eps in (0.4, 0.2, 0.1):
        g_eta = spec.reference_matrix(eta0 + eps * delta)
        lin = g0 + g0 @ np.diag(-eps * delta) @ g0
        errs.append(np.linalg.norm(g_eta - lin, 2))
    ratios = [e1 / e2 for e1, e2 in zip(errs, errs[1:])]
    wall = time.monotonic() - t0
    ok = all(3.2 <= r <= 4.8 for r in ratios) and wall < 60.0
    report(6, ok, f"epsilon-halving ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
                  f"(4 +- 20%), {wall:.1f}s (<60s)")


@pytest.mark.slow
def test_criterion_7_desk_scale_training(tmp_path):
    t0 = time.monotonic()
    results = {}
    for preset in ("schrodinger1d_desk", "rte1d_desk"):
        cfg = pl.load_config(CONFIG_DIR / f"{preset}.json")
        data_dir = tmp_path / preset
        pl.generate_dataset(cfg, data_dir)
        train_set = pl.load_sampleset(data_dir, "train")
        test_set = pl.load_sampleset(data_dir, "test")
        mdl = MetaModel(cfg.model)
        metrics = pl.train(mdl, train_set, test_set, cfg.training)
        entry = {"test": metrics.test_error, "epochs": metrics.epochs}
        if preset == "schrodinger1d_desk":
            entry["op"] = pl.operator_error(mdl, cfg.problem,
                                            test_set.eta[:10])
        results[preset] = entry
    wall = time.monotonic() - t0
    s = results["schrodinger1d_desk"]
    r = results["rte1d_desk"]
    ok = (s["test"] <= 5e-2 and s["op"] <= 5e-2 and r["test"] <= 5e-2
          and wall < 1800.0)
    report(7, ok,
           f"schrodinger test eps {s['test']:.3e} (<=5e-2), operator eps "
           f"{s['op']:.3e} (<=5e-2, 10 etas), transfer test eps "
           f"{r['test']:.3e} (<=5e-2); {wall / 60:.1f} min (<30 min)")


def test_criterion_8_structural_symmetry():
    rng = np.random.default_rng(17)
    worst = 0.0
    for dim, n in ((1, 64), (2, 8)):
        cfg = ModelConfig(n=n, levels=2, alpha=3, depth=2, nb=2 if dim == 1
                          else 1, p=2 if dim == 1 else 1, symmetric=True,
                          dim=dim, seed=3)
        mdl = MetaModel(cfg)
        for arr in mdl.parameters().values():
            arr[...] = rng.standard_normal(arr.shape)  # arbitrary params
        shape = (n,) if dim == 1 else (n, n)
        g = export_operator(mdl, rng.standard_normal(shape))
        worst = max(worst, np.max(np.abs(g - g.T)))
    report(8, worst <= 1e-10,
           f"max |G - G^T| for random parameters {worst:.2e} (<=1e-10)")


def test_criterion_9_truncation_decay():
    n = 256
    filt = wv.daubechies_filter(3)

    # periodic log kernel
    x = np.arange(n) / n
    diff = x[:, None] - x[None, :]
    with np.errstate(divide="ignore"):
        log_kernel = np.log(np.abs(np.sin(np.pi * diff)))
    from scipy.integrate import quad
    h = 1.0 / n
    val, _ = quad(lambda t: np.log(np.abs(np.sin(np.pi * t))),
                  -h / 2, h / 2, points=[0.0])
    np.fill_diagonal(log_kernel, val / h)

    spec = sv.ProblemSpec(kind="schrodinger", n=n, eta_coarse=8)
    g_eta = spec.reference_matrix(spec.sample_eta(5))

    all_monotone = True
    details = []
    for name, mat in (("log-kernel", log_kernel), ("elliptic-G", g_eta)):
        ns = nsf.build_nonstandard(mat, filt, 3)
        ref = np.linalg.norm(mat, 2)
        errs = [np.linalg.norm(
            nsf.assemble_dense(nsf.truncate(ns, nb), filt) - mat, 2) / ref
            for nb in (1, 2, 4, 8)]
        mono = all(a > b for a, b in zip(errs, errs[1:]))
        all_monotone = all_monotone and mono
        details.append(f"{name}: " + " > ".join(f"{e:.1e}" for e in errs))
    report(9, all_monotone, "; ".join(details) + " (monotone at nb=1,2,4,8)")


def test_criterion_10_determinism(tmp_path):
    cfg = pl.RunConfig.from_dict({
        "problem": {"kind": "schrodinger", "n": 32, "eta_coarse": 4},
        "dataset": {"n_eta": 6, "n_f": 2, "seed": 11},
        "model": {"n": 32, "levels": 2, "alpha": 2, "depth": 2, "nb": 1,
                  "p": 2, "symmetric": True, "seed": 0},
        "training": {"learning_rate": 1e-3, "batch_fraction": 0.2,
                     "max_epochs": 3, "patience": 10, "seed": 1,
                     "operator_samples": 0},
    })
    hashes = {"data": set(), "ckpt": set()}
    for tag in ("a", "b"):
        data_dir = tmp_path / f"data_{tag}"
        pl.generate_dataset(cfg, data_dir)
        hashes["data"].add(sha(data_dir / "train.nstf")
                           + sha(data_dir / "test.nstf"))
        mdl = MetaModel(cfg.model)
        pl.train(mdl, pl.load_sampleset(data_dir, "train"),
                 pl.load_sampleset(data_dir, "test"), cfg.training)
        pl.save_checkpoint(mdl, tmp_path / f"ckpt_{tag}")
        hashes["ckpt"].add(sha(tmp_path / f"ckpt_{tag}" / "model.nstf"))
    ok = len(hashes["data"]) == 1 and len(hashes["ckpt"]) == 1
    report(10, ok, "identical seeds give bit-identical datasets and "
                   "checkpoints" if ok else "hash mismatch")
