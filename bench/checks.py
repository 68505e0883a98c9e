"""Output checks of the benchmark.

Each check compares a stage's output with a computation made here, apart
from the code it checks, or with a property the method must have.  No
stored copy of an earlier output is used.  Every check returns
`(ok, detail)`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from nswave import model, nsform, wavelets

RESIDUAL_TOL = 1e-10     # generation certifies every pair to this bound
ROUNDING_TOL = 1e-10     # two evaluations of one linear map, relative
SYMMETRY_TOL = 1e-12     # max |G - G^T| relative to max |G|
NORM_RTOL = 1e-3         # power iteration against a dense 2-norm
TRAIN_FRACTION = 0.5     # final test error below this share of the initial


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def stencil_matrix(eta: np.ndarray, h: float) -> np.ndarray:
    """Dense -Laplace_h + diag(eta) with the periodic 3- or 5-point
    stencil, assembled from shifted identities."""
    nn = eta.size
    eye = np.eye(nn).reshape((nn,) + eta.shape)
    lap = sum(np.roll(eye, 1, ax) - 2.0 * eye + np.roll(eye, -1, ax)
              for ax in range(1, eta.ndim + 1))
    return -lap.reshape(nn, nn) / h ** 2 + np.diag(eta.reshape(-1))


def stencil_residuals(problem, eta, f, u):
    """Every stored elliptic pair solves -Laplace u + eta u = f."""
    axes = tuple(range(2, u.ndim))
    lap = sum(np.roll(u, 1, ax) - 2.0 * u + np.roll(u, -1, ax) for ax in axes)
    r = -lap / problem.h ** 2 + eta[:, None] * u - f
    rel = np.sqrt((r ** 2).sum(axis=axes) / (f ** 2).sum(axis=axes))
    worst = float(rel.max())
    return worst <= RESIDUAL_TOL, f"max stencil residual {worst:.2e}"


def transfer_residuals(problem, eta, f, u):
    """Every stored transfer pair solves u = K (eta u + f) for the kernel
    `ProblemSpec.kernel` builds, and u >= 0."""
    worst = 0.0
    for e, fs, us in zip(eta, f, u):
        kern = problem.kernel(e)
        fs, us = fs.reshape(fs.shape[0], -1), us.reshape(us.shape[0], -1)
        rhs = fs @ kern.T
        r = us - (us * e.reshape(-1)) @ kern.T - rhs
        worst = max(worst, float(np.max(np.linalg.norm(r, axis=1)
                                        / np.linalg.norm(rhs, axis=1))))
    low = float(u.min())
    ok = worst <= RESIDUAL_TOL and low >= 0.0
    return ok, f"max transfer residual {worst:.2e}, min u {low:.2e}"


def training(metrics, initial_test_error: float):
    """Every recorded loss and error is finite, and the final test error
    is below a fixed share of the error at initialization."""
    curves = np.concatenate([metrics.loss_history, metrics.train_error_history,
                             metrics.test_error_history])
    finite = bool(np.all(np.isfinite(curves)))
    ok = finite and metrics.test_error < TRAIN_FRACTION * initial_test_error
    return ok, (f"test error {initial_test_error:.3e} -> "
                f"{metrics.test_error:.3e}, finite {finite}")


def linearity(mdl, eta, f, u, ops, evaluated: float):
    """`G @ f` of each exported operator matches the model's forward pass,
    and the relative errors of those products match `evaluate`."""
    gap, errs = 0.0, []
    for e, fs, us, g in zip(eta, f, u, ops):
        prod = (fs.reshape(fs.shape[0], -1) @ g.T).reshape(fs.shape)
        gap = max(gap, _rel(prod, mdl.forward(e, fs)))
        axes = tuple(range(1, us.ndim))
        errs.append(np.sqrt(((prod - us) ** 2).sum(axis=axes)
                            / (us ** 2).sum(axis=axes)))
    mean = float(np.mean(errs))
    ok = gap <= ROUNDING_TOL and abs(mean - evaluated) <= ROUNDING_TOL * mean
    return ok, (f"G f vs forward {gap:.2e}, relative error from G f "
                f"{mean:.6e} vs evaluate {evaluated:.6e}")


def symmetry(ops):
    """Each exported operator is symmetric to rounding."""
    worst = max(_rel(g, g.T) for g in ops)
    return worst <= SYMMETRY_TOL, f"max |G - G^T| / max |G| {worst:.2e}"


def reference_operator(problem, eta: np.ndarray) -> np.ndarray:
    """Dense solution operator at eta, built here: the inverse of the
    stencil matrix, or (I - K diag(eta))^-1 K from the transfer kernel."""
    if problem.kind == "rte":
        kern = problem.kernel(eta)
        return np.linalg.solve(np.eye(eta.size) - kern * eta.reshape(-1),
                               kern)
    return np.linalg.inv(stencil_matrix(eta, problem.h))


def operator_error(reported, g_refs, ops):
    """Each `operator_error` value matches the ratio of dense 2-norms."""
    worst, text = 0.0, []
    for value, g_ref, g in zip(reported, g_refs, ops):
        dense = np.linalg.norm(g_ref - g, 2) / np.linalg.norm(g_ref, 2)
        worst = max(worst, abs(value - dense) / dense)
        text.append(f"{value:.6e}/{dense:.6e}")
    return worst <= NORM_RTOL, f"reported/dense {' '.join(text)}"


def nonstandard_ops(dim: int):
    """(build, truncate, apply) of the nonstandard form on a 1D or 2D grid."""
    if dim == 1:
        return nsform.build_nonstandard, nsform.truncate, nsform.apply
    return nsform.build_nonstandard_2d, nsform.truncate_2d, nsform.apply_2d


def containment(cfg, g_ref: np.ndarray, f: np.ndarray):
    """The untruncated nonstandard form of `g_ref` applies as `g_ref @ f`,
    and the model with exact filters and the truncated form's collection
    reproduces `nsform.apply` of that truncated form (periodic presets).

    `cfg` is the workload's model config; `f` holds sources (n_f, grid..).
    """
    filt = wavelets.daubechies_filter(cfg.p)
    l0 = int(np.log2(cfg.n)) - cfg.levels
    build, truncate, apply = nonstandard_ops(cfg.dim)
    cols = np.moveaxis(f, 0, -1)                       # (grid.., n_f)
    dense = (g_ref @ cols.reshape(g_ref.shape[0], -1)).reshape(cols.shape)
    ns = build(g_ref, filt, l0)
    gap_form = _rel(apply(ns, cols, filt), dense)
    exact = model.MetaModel(dataclasses.replace(cfg, init_noise=0.0))
    ns_t = truncate(ns, cfg.nb)
    coll = model.collection_from_nsform(ns_t, exact.cfg)
    out = exact.forward(np.zeros(f.shape[1:]), f, collection=coll)
    gap_model = _rel(np.moveaxis(out, 0, -1), apply(ns_t, cols, filt))
    ok = gap_form <= ROUNDING_TOL and gap_model <= ROUNDING_TOL
    return ok, (f"nsform vs dense {gap_form:.2e}, model vs truncated "
                f"nsform {gap_model:.2e}")
