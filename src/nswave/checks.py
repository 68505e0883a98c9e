"""Self-contained oracle suites behind the `verify` subcommand.

Each check returns (name, passed, detail).  These are the fast,
assumption-free invariants: transform round trips, dense equivalence of
the fast matvec, the model's containment of that matvec,
finite-difference gradients, solver residuals and closed forms.
"""

from __future__ import annotations

import numpy as np

from . import nsform, solvers, wavelets
from .model import MetaModel, ModelConfig, collection_from_nsform
from .net import finite_difference_check


def check_wavelets() -> list[tuple[str, bool, str]]:
    out = []
    rng = np.random.default_rng(0)
    for p in (1, 2, 3):
        filt = wavelets.daubechies_filter(p)
        v = rng.standard_normal(256)
        pyr = wavelets.forward_transform(v, filt, wavelets.min_coarse_level(p))
        err = np.max(np.abs(wavelets.inverse_transform(pyr, filt) - v))
        out.append((f"wavelet round trip p={p}", err < 1e-12, f"{err:.2e}"))
        wmat = wavelets.transform_matrix(64, filt)
        oerr = np.max(np.abs(wmat.T @ wmat - np.eye(64)))
        out.append((f"transform orthogonality p={p}", oerr < 1e-12,
                    f"{oerr:.2e}"))
    return out


def check_nsform() -> list[tuple[str, bool, str]]:
    out = []
    rng = np.random.default_rng(1)
    # (dim, grid side, p, l0): 64 x 64 operators on 64 cells and on 8 x 8
    for dim, side, p, l0 in ((1, 64, 1, 0), (1, 64, 3, 3), (2, 8, 1, 1)):
        filt = wavelets.daubechies_filter(p)
        a = rng.standard_normal((64, 64))
        ns = nsform.build_nonstandard(a, filt, l0, dim=dim)
        v = rng.standard_normal((side,) * dim)
        ref = a @ v.reshape(-1)
        err = np.linalg.norm(nsform.apply(ns, v, filt).reshape(-1) - ref) \
            / np.linalg.norm(ref)
        out.append((f"nonstandard matvec {dim}D p={p}", err < 1e-11,
                    f"{err:.2e}"))
        rerr = np.max(np.abs(nsform.assemble_dense(ns, filt) - a))
        out.append((f"nonstandard reconstruction {dim}D p={p}", rerr < 1e-10,
                    f"{rerr:.2e}"))
        # the exact-filter model, fed the truncated form, is its fast matvec
        ns = nsform.truncate(ns, 1)
        for pad in (wavelets.PERIODIC, wavelets.ZERO):
            cfg = ModelConfig(n=side, levels=ns.l_max - l0, alpha=1, depth=1,
                              nb=1, p=p, padding=pad, dim=dim, init_noise=0.0)
            coll = collection_from_nsform(ns, cfg)
            u = MetaModel(cfg).forward(np.zeros(v.shape), v, collection=coll)
            ref = nsform.apply(ns, v, filt, pad)
            cerr = np.max(np.abs(u - ref)) / np.max(np.abs(ref))
            out.append((f"model vs truncated matvec {dim}D p={p} {pad}",
                        cerr < 1e-10, f"{cerr:.2e}"))
    return out


def check_gradients() -> list[tuple[str, bool, str]]:
    out = []
    rng = np.random.default_rng(2)
    cfg = ModelConfig(n=16, levels=2, alpha=2, depth=2, nb=1, p=2, seed=5)
    mdl = MetaModel(cfg)
    eta = rng.standard_normal(16)
    f = rng.standard_normal((1, 2, 16))
    tgt = rng.standard_normal((1, 2, 16))

    def loss():
        u = mdl.forward(eta, f)
        return 0.5 * float(np.sum((u - tgt) ** 2))

    u, tape = mdl.forward_with_tape(eta, f)
    mdl.zero_grads()
    mdl.backward(tape, u - tgt)
    errs = finite_difference_check(loss, mdl.parameters(), mdl.gradients())
    worst = max(errs.values())
    out.append(("model gradient vs finite differences", worst < 1e-6,
                f"{worst:.2e}"))
    return out


def check_solvers() -> list[tuple[str, bool, str]]:
    out = []
    spec = solvers.ProblemSpec(kind="schrodinger", n=64, eta_coarse=8)
    eta = spec.sample_eta(11)
    f = spec.sample_f(12)
    u = spec.solve(eta, f)
    res = spec.residual(eta, f, u)
    out.append(("schrodinger residual", res < 1e-10, f"{res:.2e}"))

    n, h = 64, 1.0 / 64
    x = np.arange(n) * h
    mode = np.sin(2 * np.pi * x)
    lam = 4 * np.sin(np.pi / n) ** 2 / h ** 2 + 3.0
    uerr = np.max(np.abs(solvers.solve_schrodinger(np.full(n, 3.0), mode)
                         - mode / lam))
    out.append(("schrodinger closed form", uerr < 1e-10, f"{uerr:.2e}"))

    e1 = solvers.expint_e1(1.0)
    err = abs(e1 - 0.21938393439552027368)
    out.append(("exponential integral E1(1)", err < 1e-12, f"{err:.2e}"))

    rspec = solvers.ProblemSpec(kind="rte", n=64, interior=60, eta_coarse=8,
                                eta_scale=1.0, eta_max=5.0, f_coarse=8)
    eta, fs, us, _ = solvers.generate_sample(rspec, 100, [200])
    res = rspec.residual(eta, fs[0], us[0])
    out.append(("transfer residual", res < 1e-10, f"{res:.2e}"))

    field = eta + 1.0  # nonzero at the grid edge, where the clamp acts
    disp, _, tau = solvers._near_paths(field, rspec.path_samples,
                                       solvers._slab_self_cell)
    x = rspec.coords()[:, None]
    direct = solvers._path_tau(field, [x], [x + rspec.h * disp[0]], rspec.h,
                               x[0, 0], rspec.path_samples)
    err = np.max(np.abs(tau - direct)) / np.max(direct)
    out.append(("transfer stencil path averages", err < 1e-14, f"{err:.2e}"))
    return out


def run_all() -> list[tuple[str, bool, str]]:
    results = []
    results += check_wavelets()
    results += check_nsform()
    results += check_gradients()
    results += check_solvers()
    return results
