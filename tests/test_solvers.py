import ast
import dataclasses
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import reference

from nswave import solvers as sv
from nswave.errors import (ConditioningError, ConfigError, DataError,
                           DomainError)


# -- exponential integral ----------------------------------------------------

def test_e1_against_30_digit_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    zs = np.concatenate([np.logspace(-8, 0, 21), np.logspace(0.01, 2.7, 21)])
    ours = sv.expint_e1(zs)
    ref = np.array([float(mpmath.e1(mpmath.mpf(float(z)))) for z in zs])
    assert np.max(np.abs(ours - ref) / np.abs(ref)) < 1e-12


def test_e1_at_one():
    assert sv.expint_e1(1.0) == pytest.approx(0.21938393439552027368, abs=1e-13)


def test_e1_small_argument_log_behavior():
    z = 1e-6
    assert abs(sv.expint_e1(z) + np.log(z) + np.euler_gamma) < 2e-6


def test_e1_monotone_decreasing_positive():
    zs = np.logspace(-6, 2, 64)
    vals = sv.expint_e1(zs)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)


def test_e1_domain_error():
    with pytest.raises(DomainError):
        sv.expint_e1(0.0)
    with pytest.raises(DomainError):
        sv.expint_e1(np.array([1.0, -2.0]))


# -- samplers -----------------------------------------------------------------

def test_fourier_interpolation_exact_on_cosine_mode():
    m, n = 8, 64
    j = np.arange(m)
    for k in (1, 2, 3):
        coarse = np.cos(2 * np.pi * k * j / m)
        fine = sv.fourier_interpolate(coarse, n)
        expect = np.cos(2 * np.pi * k * np.arange(n) / n)
        assert np.max(np.abs(fine - expect)) < 1e-13


@pytest.mark.parametrize("m", [5, 7, 9])
@pytest.mark.parametrize("wave", [np.cos, np.sin])
def test_fourier_interpolation_exact_on_top_mode_of_odd_grid(m, wave):
    # for odd m the highest resolved frequency m // 2 has no Nyquist twin
    n = 4 * m
    k = m // 2
    fine = sv.fourier_interpolate(wave(2 * np.pi * k * np.arange(m) / m), n)
    expect = wave(2 * np.pi * k * np.arange(n) / n)
    assert np.max(np.abs(fine - expect)) < 1e-13


def test_fourier_interpolation_2d_and_errors():
    m, n = 4, 16
    j = np.arange(m)
    coarse = np.outer(np.cos(2 * np.pi * j / m), np.sin(2 * np.pi * j / m))
    fine = sv.fourier_interpolate(coarse, n)
    jx = np.arange(n)
    expect = np.outer(np.cos(2 * np.pi * jx / n), np.sin(2 * np.pi * jx / n))
    assert np.max(np.abs(fine - expect)) < 1e-13
    with pytest.raises(ConfigError):
        sv.fourier_interpolate(np.zeros(6), 16)


def test_zero_coarse_field_gives_constant_eta():
    spec = sv.ProblemSpec(kind="schrodinger", n=64, eta_coarse=8,
                          eta_scale=10.0, eta_shift=0.5)
    fine = sv.fourier_interpolate(np.zeros(8), 64)
    eta = 10.0 * np.exp(fine) + 0.5
    assert np.allclose(eta, 10.5, atol=1e-14)


@pytest.mark.parametrize("spec,n_seeds", [
    (sv.ProblemSpec(kind="schrodinger", n=64, eta_coarse=8,
                    eta_scale=10.0), 10_000),
    (sv.ProblemSpec(kind="divergence", n=64, eta_coarse=8, eta_scale=0.2,
                    eta_shift=0.5), 10_000),
    (sv.ProblemSpec(kind="rte", n=64, interior=60, eta_coarse=8,
                    eta_scale=1.0, eta_max=5.0, f_coarse=8), 10_000),
    (sv.ProblemSpec(kind="schrodinger", dim=2, n=16, eta_coarse=4), 10_000),
    (sv.ProblemSpec(kind="rte", dim=2, n=16, interior=14, eta_coarse=4,
                    eta_max=2.0), 10_000),
])
def test_eta_positivity_exhaustive(spec, n_seeds):
    # elliptic recipes must stay strictly positive, transfer nonnegative
    floor = 0.0 if spec.kind == "rte" else 1e-12
    pad = spec._pad_mask() if spec.kind == "rte" else None
    for seed in range(n_seeds):
        eta = spec.sample_eta(seed)
        assert eta.min() >= floor
        if spec.kind == "rte":
            assert abs(eta.max() - spec.eta_max) < 1e-12
            assert np.all(eta[pad] == 0.0)


def test_rte_source_nonnegative_and_padded():
    spec = sv.ProblemSpec(kind="rte", n=64, interior=60, eta_coarse=8,
                          eta_scale=1.0, eta_max=5.0, f_coarse=8)
    for seed in range(100):
        f = spec.sample_f(seed)
        assert f.min() >= 0.0
        assert np.all(f[spec._pad_mask()] == 0.0)


# -- elliptic solvers ------------------------------------------------------------

def test_schrodinger_constant_potential_constant_source():
    eta0, c = 4.0, 2.5
    u = sv.solve_schrodinger(np.full(64, eta0), np.full(64, c))
    assert np.max(np.abs(u - c / eta0)) < 1e-12


def test_schrodinger_fourier_mode_closed_form():
    n, eta0 = 64, 3.0
    h = 1.0 / n
    x = np.arange(n) * h
    f = np.sin(2 * np.pi * x)
    u = sv.solve_schrodinger(np.full(n, eta0), f)
    lam = 4 * np.sin(np.pi / n) ** 2 / h ** 2 + eta0
    assert np.max(np.abs(u - f / lam)) < 1e-10


def test_schrodinger_residual_random():
    spec = sv.ProblemSpec(kind="schrodinger", n=64, eta_coarse=8)
    eta = spec.sample_eta(1)
    f = spec.sample_f(2)
    u = spec.solve(eta, f)
    assert spec.residual(eta, f, u) < 1e-12


def test_schrodinger_rejects_nonpositive_eta():
    with pytest.raises(DomainError):
        sv.solve_schrodinger(np.zeros(16), np.ones(16))


def test_divergence_fourier_mode_closed_form():
    n, eta0 = 64, 2.0
    h = 1.0 / n
    x = np.arange(n) * h
    f = np.sin(2 * np.pi * x)
    u = sv.solve_divergence(np.full(n, eta0), f)
    lam = eta0 * 4 * np.sin(np.pi / n) ** 2 / h ** 2
    assert np.max(np.abs(u - f / lam)) < 1e-10
    assert abs(u.mean()) < 1e-14


def test_divergence_zero_source_zero_solution():
    u = sv.solve_divergence(np.full(32, 1.0), np.zeros(32))
    assert np.max(np.abs(u)) < 1e-14


def test_divergence_conservation_column_sums():
    rng = np.random.default_rng(3)
    eta = np.exp(rng.standard_normal(32)) + 0.1
    op = sv.divergence_matrix(eta, 1.0 / 32)
    colsum = np.asarray(op.sum(axis=0)).reshape(-1)
    assert np.max(np.abs(colsum)) < 1e-10
    op2 = sv.divergence_matrix(np.exp(rng.standard_normal((8, 8))) + 0.1,
                               1.0 / 8)
    assert np.max(np.abs(np.asarray(op2.sum(axis=0)))) < 1e-10


def test_divergence_rejects_nonzero_mean_without_projection():
    with pytest.raises(DataError):
        sv.solve_divergence(np.full(32, 1.0), np.ones(32))


def test_schrodinger_2d_residual_and_closedform():
    spec = sv.ProblemSpec(kind="schrodinger", dim=2, n=16, eta_coarse=4)
    eta = spec.sample_eta(5)
    f = spec.sample_f(6)
    u = spec.solve(eta, f)
    assert spec.residual(eta, f, u) < 1e-12
    u_c = sv.solve_schrodinger(np.full((16, 16), 3.0),
                               np.full((16, 16), 1.5))
    assert np.max(np.abs(u_c - 0.5)) < 1e-12


# -- transfer problems -------------------------------------------------------------

SPEC_1D = sv.ProblemSpec(kind="rte", n=64, interior=60, eta_coarse=8,
                         eta_scale=1.0, eta_max=5.0, f_coarse=8)


def test_constant_eta_path_average_exact():
    eta0 = 2.0
    eta = np.where(SPEC_1D._pad_mask(), 0.0, eta0)
    x = SPEC_1D.coords()
    tau = sv._path_tau(eta, [x[:, None]], [x[None, :]], SPEC_1D.h, x[0], 16)
    inter = ~SPEC_1D._pad_mask()
    assert np.max(np.abs(tau[np.ix_(inter, inter)] - eta0)) < 1e-14
    tau4 = sv._path_tau(eta, [x[:, None]], [x[None, :]], SPEC_1D.h, x[0], 4)
    assert np.max(np.abs(tau4[np.ix_(inter, inter)] - eta0)) < 1e-14


def test_kernel_symmetric_for_globally_constant_eta():
    spec = sv.ProblemSpec(kind="rte", n=64, interior=64, eta_coarse=8,
                          eta_scale=1.0, f_coarse=8)
    kern = sv.rte_kernel_1d(np.full(64, 2.0), spec)
    # mirrored quadrature nodes sum in opposite order: rounding only
    assert np.max(np.abs(kern - kern.T)) < 1e-15


def test_offdiagonal_entries_match_refined_midpoint_oracle():
    # smooth, gently varying field: the m=16 trapezoid definition and an
    # independent 4m midpoint rule agree to quadrature accuracy
    spec = sv.ProblemSpec(kind="rte", n=64, interior=64, eta_coarse=8,
                          eta_scale=1.0, f_coarse=8)
    x = spec.coords()
    eta = 2.0 + 1e-6 * np.cos(2 * np.pi * x)
    kern = sv.rte_kernel_1d(eta, dataclasses.replace(spec, path_samples=16))
    s = (np.arange(64) + 0.5) / 64.0
    y = x[:, None, None] - s[None, None, :] * (x[:, None, None]
                                               - x[None, :, None])
    tau = sv._interp_eta(eta, [y], spec.h, x[0]).mean(axis=2)
    dist = np.abs(x[:, None] - x[None, :])
    oracle = spec.h * sv._slab_kernel(dist, tau)
    off = np.abs(np.arange(64)[:, None] - np.arange(64)[None, :]) >= 2
    rel = np.abs(kern[off] - oracle[off]) / np.abs(oracle[off])
    assert rel.max() < 1e-8


def test_near_diagonal_converges_under_quadrature_refinement():
    eta = SPEC_1D.sample_eta(3)
    k16 = sv.rte_kernel_1d(eta, dataclasses.replace(SPEC_1D, path_samples=16))
    k64 = sv.rte_kernel_1d(eta, dataclasses.replace(SPEC_1D, path_samples=64))
    idx = np.arange(64)
    near = np.abs(idx[:, None] - idx[None, :]) <= 1
    # keep pairs whose cells sit away from the padding edge, where the
    # scattering field is smooth (the edge kink is resolution-limited by
    # construction, not by the path quadrature)
    away = (idx >= 4) & (idx <= 59)
    smooth = near & away[:, None] & away[None, :] & (k64 != 0.0)
    rel = np.abs(k16[smooth] - k64[smooth]) / np.abs(k64[smooth])
    assert rel.max() < 1e-3


def test_zero_eta_rejected_1d():
    with pytest.raises(DomainError):
        sv.rte_kernel_1d(np.zeros(64), SPEC_1D)
    with pytest.raises(DomainError):
        sv.rte_kernel_1d(np.full(64, -1.0), SPEC_1D)


def test_padding_entries_finite_and_inert():
    eta = SPEC_1D.sample_eta(4)
    kern = sv.rte_kernel_1d(eta, SPEC_1D)
    assert np.all(np.isfinite(kern))
    # zero-optical-path entries are snapped to zero (log kernel diverges
    # at vanishing argument)
    assert kern[0, 0] == 0.0 and kern[1, 0] == 0.0 and kern[63, 63] == 0.0
    # padding still couples to the interior
    assert kern[0, 32] != 0.0
    # whatever value a padding column carries, it cannot reach the
    # solution: those cells have eta = f = 0
    f = SPEC_1D.sample_f(5)
    u_ref = SPEC_1D.solve_batch(eta, f[None], kern)[0]
    tampered = kern.copy()
    pad = SPEC_1D._pad_mask()
    tampered[:, pad] = np.random.default_rng(0).standard_normal(
        (64, pad.sum()))
    u_alt = SPEC_1D.solve_batch(eta, f[None], tampered)[0]
    assert np.max(np.abs(u_alt - u_ref)) < 1e-12


def test_neumann_two_term_expansion():
    eta = np.where(SPEC_1D._pad_mask(), 0.0, 0.05)
    kern = sv.rte_kernel_1d(eta, SPEC_1D)
    f = SPEC_1D.sample_f(7)
    u = SPEC_1D.solve_batch(eta, f[None], kern)[0]
    keta = kern * eta[None, :]
    two_term = kern @ f + keta @ (kern @ f)
    q = np.linalg.norm(keta, 2)
    bound = q ** 2 / (1.0 - q) * np.linalg.norm(kern @ f)
    assert np.linalg.norm(u - two_term) <= bound
    assert q ** 2 / (1 - q) < 0.1  # genuinely perturbative regime


def test_solution_positivity_over_seeds():
    for seed in range(100):
        eta, fs, us, _ = sv.generate_sample(SPEC_1D, 5000 + seed,
                                            [9000 + seed])
        assert us.min() >= -1e-12
        assert SPEC_1D.residual(eta, fs[0], us[0]) < 1e-10


def test_resampling_limit_surfaces_as_data_error():
    # optically thick enough that the discrete Perron root crosses 1,
    # so every redraw fails and the retry budget runs out
    spec = sv.ProblemSpec(kind="rte", n=64, interior=60, eta_coarse=8,
                          eta_scale=1.0, eta_max=400.0, f_coarse=8,
                          resample_limit=2)
    with pytest.raises(DataError):
        sv.generate_sample(spec, 0, [1])


def test_reference_matrix_consistency_1d():
    eta = SPEC_1D.sample_eta(8)
    g = SPEC_1D.reference_matrix(eta)
    f = SPEC_1D.sample_f(9)
    u = SPEC_1D.solve(eta, f)
    assert np.max(np.abs(g @ f - u)) < 1e-10


SPEC_2D = sv.ProblemSpec(kind="rte", dim=2, n=16, interior=14, eta_coarse=4,
                         eta_scale=1.0, eta_max=2.0)


def test_2d_zero_eta_kernel_finite_and_exact_far_field():
    kern = sv.rte_kernel_2d(np.zeros((16, 16)), SPEC_2D)
    assert np.all(np.isfinite(kern))
    ax = SPEC_2D.coords()
    p1 = np.repeat(ax, 16)
    p2 = np.tile(ax, 16)
    r = np.hypot(p1[:, None] - p1[None, :], p2[:, None] - p2[None, :])
    far = r > 1.5 * SPEC_2D.h * np.sqrt(2)
    expect = SPEC_2D.h ** 2 / (4 * np.pi * np.where(far, r, 1.0))
    rel = np.abs(kern[far] - expect[far]) / expect[far]
    assert rel.max() < 1e-14


def test_2d_self_cell_closed_form_for_zero_eta():
    kern = sv.rte_kernel_2d(np.zeros((16, 16)), SPEC_2D)
    closed = (SPEC_2D.h / np.pi) * np.log(1 + np.sqrt(2))
    assert kern[0, 0] == pytest.approx(closed, rel=1e-10)


def test_2d_constant_eta_path_average_exact():
    eta = np.full((16, 16), 1.5)
    spec = sv.ProblemSpec(kind="rte", dim=2, n=16, interior=16, eta_coarse=4,
                          eta_scale=1.0)
    ax = spec.coords()
    p1 = np.repeat(ax, 4)[:8]
    # spot-check the bilinear path average on a few pairs
    s = np.linspace(0, 1, 17)
    q1 = p1[:, None] - s[None, :] * (p1[:, None] - p1[::-1][:, None])
    q2 = np.full_like(q1, ax[3])
    tau = sv._interp_eta(eta, [q1, q2], spec.h, ax[0]) @ sv._trap_weights(16)
    assert np.max(np.abs(tau - 1.5)) < 1e-14


def test_interp_eta_exact_on_affine_per_axis_field():
    # a product of per-axis affine factors is multilinear: the corner
    # weights reproduce it exactly, on every axis at once
    ax = SPEC_2D.coords()
    rng = np.random.default_rng(0)
    for dim in (1, 2):
        slopes = rng.uniform(0.5, 2.0, dim)
        grids = np.meshgrid(*[ax] * dim, indexing="ij")
        field = np.prod([1.0 + a * g for a, g in zip(slopes, grids)], axis=0)
        pts = [rng.uniform(ax[0], ax[-1], (5, 7)) for _ in range(dim)]
        expect = np.prod([1.0 + a * p for a, p in zip(slopes, pts)], axis=0)
        got = sv._interp_eta(field, pts, SPEC_2D.h, ax[0])
        assert np.max(np.abs(got - expect)) < 1e-14


@pytest.mark.parametrize("spec", [SPEC_1D, SPEC_2D], ids=["1d", "2d"])
def test_path_average_symmetric_in_its_endpoints(spec):
    eta = spec.sample_eta(6)
    ax = spec.coords()
    rng = np.random.default_rng(spec.dim)
    xs = [rng.uniform(ax[0], ax[-1], (40, 1)) for _ in range(spec.dim)]
    ys = [rng.uniform(ax[0], ax[-1], (1, 30)) for _ in range(spec.dim)]
    there = sv._path_tau(eta, xs, ys, spec.h, ax[0], spec.path_samples)
    back = sv._path_tau(eta, ys, xs, spec.h, ax[0], spec.path_samples)
    assert np.max(np.abs(there - back)) < 1e-14


def test_2d_near_entries_converge_under_refinement(monkeypatch):
    eta = SPEC_2D.sample_eta(2)
    k8 = sv.rte_kernel_2d(eta, SPEC_2D)
    monkeypatch.setitem(sv._NEAR_ORDER, 2, 16)
    k16 = sv.rte_kernel_2d(eta, SPEC_2D)
    diff = np.abs(k8 - k16)
    denom = np.abs(k16) + 1e-30
    changed = diff > 0
    rel = diff[changed] / denom[changed]
    # worst entries sit on the padding-edge kink of eta; smooth cells
    # converge orders of magnitude faster
    assert rel.max() < 1e-3
    assert np.median(rel) < 1e-5


SELF_CELL = {1: sv._slab_self_cell, 2: sv._plane_self_cell}


@pytest.mark.parametrize("spec", [SPEC_1D, SPEC_2D], ids=["1d", "2d"])
def test_stencil_path_averages_match_direct_sampling(spec):
    # every cell, the two edge cells on each side included: edge padding of
    # the windows and the grid clamp of the interpolation must agree
    dim, h, ax = spec.dim, spec.h, spec.coords()
    eta = np.random.default_rng(dim).uniform(0.5, 2.0, (spec.n,) * dim)
    disp, _, got = sv._near_paths(eta, spec.path_samples, SELF_CELL[dim])
    centers = [c.reshape(-1, 1)
               for c in np.meshgrid(*[ax] * dim, indexing="ij")]
    direct = sv._path_tau(eta, centers,
                          [c + h * d for c, d in zip(centers, disp)],
                          h, ax[0], spec.path_samples)
    assert got.shape == direct.shape == (spec.n ** dim, disp.shape[1])
    assert np.max(np.abs(got - direct) / direct) < 1e-14


@pytest.mark.parametrize("dim", [1, 2])
def test_stencil_rows_are_averages_and_cached_read_only(dim, monkeypatch):
    key = (dim, 16, sv._NEAR_ORDER[dim], SELF_CELL[dim])
    disp, weights, stencil = sv._near_stencil(*key)
    assert stencil.shape == (disp.shape[1], 5 ** dim)
    assert np.max(np.abs(stencil.sum(axis=1) - 1.0)) < 1e-15
    # every step of the 3**dim neighbourhood, self cell included,
    # integrates over one cell of unit area
    assert np.allclose(weights.sum(axis=0), 1.0, rtol=0, atol=1e-10)
    assert sv._near_stencil(*key)[2] is stencil
    assert not any(a.flags.writeable for a in (disp, weights, stencil))
    monkeypatch.setitem(sv._NEAR_ORDER, dim, 4)
    coarser = sv._near_paths(np.ones((8,) * dim), 16, SELF_CELL[dim])
    assert coarser[0].shape[1] < disp.shape[1]


def _table_tau(eta, m):
    """Far-path averages as `_nystrom` documents them: eta interpolated on
    the h/m grid once, the pair of cells a < b read at fine index
    m*a + k*(b - a) per axis and summed over k in node order, and the
    same value for (b, a)."""
    dim, n = eta.ndim, eta.shape[0]
    fine = np.arange(m * (n - 1) + 1) / m
    table = sv._interp_eta(eta, np.meshgrid(*[fine] * dim, indexing="ij"),
                           1.0, 0.0)
    flat = np.arange(n ** dim)
    cells = np.indices((n,) * dim).reshape(dim, -1)
    start = cells[:, np.minimum(flat[:, None], flat[None, :])]
    step = cells[:, np.maximum(flat[:, None], flat[None, :])] - start
    w = sv._trap_weights(m)
    tau = w[0] * table[tuple(m * start)]
    for k in range(1, m + 1):
        tau += w[k] * table[tuple(m * start + k * step)]
    return tau


@pytest.mark.parametrize("spec", [SPEC_1D, SPEC_2D], ids=["1d", "2d"])
def test_far_field_is_the_midpoint_rule_bit_for_bit(spec):
    # every cell, the edge and padding cells included
    dim, h, ax = spec.dim, spec.h, spec.coords()
    eta = spec.sample_eta(9)
    kern = spec.kernel(eta)
    kernel = sv._slab_kernel if dim == 1 else sv._plane_kernel
    centers = [c.reshape(-1) for c in np.meshgrid(*[ax] * dim, indexing="ij")]
    r = reduce(np.hypot, [c[:, None] - c[None, :] for c in centers], 0.0)
    tau = sv._clean_tau(_table_tau(eta, spec.path_samples), float(eta.max()))
    expect = h ** dim * kernel(r, tau)
    cells = np.indices((spec.n,) * dim).reshape(dim, -1)
    far = np.abs(cells[:, :, None] - cells[:, None, :]).max(axis=0) >= 2
    assert np.array_equal(kern[far], expect[far])
    assert np.array_equal(kern[far], kern.T[far])
    # the path-by-path definition, to rounding
    ref = reference.far_field(eta, spec, kernel)[far]
    assert np.all(np.abs(kern[far] - ref) <= 1e-14 * np.abs(ref))


@pytest.mark.parametrize("nn", [1, 2, 7, 40])
@pytest.mark.parametrize("size", [1, 3, 40, 10 ** 6])
def test_upper_pairs_take_each_pair_once_in_whole_rows(nn, size):
    passes = list(sv._upper_pairs(nn, size))
    a = np.concatenate([p[0] for p in passes] or [[]])
    b = np.concatenate([p[1] for p in passes] or [[]])
    assert np.array_equal(np.stack([a, b]), np.triu_indices(nn, 1))
    for a, _ in passes:
        rows, counts = np.unique(a, return_counts=True)
        assert np.array_equal(counts, nn - 1 - rows)
        assert a.size <= size or rows.size == 1


@pytest.mark.parametrize("spec", [SPEC_1D, SPEC_2D], ids=["1d", "2d"])
def test_far_distances_are_cached_per_grid_and_read_only(spec):
    """The far pairs' center distances, one array per pass of
    `_upper_pairs`, are computed once per grid: the same arrays for every
    draw, read-only, and the distances of the pairs they stand for."""
    dim, size = spec.dim, 500
    key = (tuple(spec.coords()), dim, size)
    out = sv._far_distances(*key)
    assert sv._far_distances(*key) is out
    centers = np.array(spec.coords())[np.indices((spec.n,) * dim)
                                      .reshape(dim, -1)]
    passes = list(sv._upper_pairs(spec.n ** dim, size))
    assert len(out) == len(passes) > 1
    for r, (a, b) in zip(out, passes):
        assert not r.flags.writeable
        assert np.allclose(r, np.sqrt(np.sum(
            (centers[:, a] - centers[:, b]) ** 2, axis=0)), rtol=1e-15,
            atol=0)


def test_2d_solve_residual_and_positivity():
    eta, fs, us, meta = sv.generate_sample(SPEC_2D, 21, [22, 23])
    assert SPEC_2D.residual(eta, fs[0], us[0]) < 1e-10
    assert us.min() >= -1e-12


def test_schrodinger_64x64_draw_is_certified_without_retries():
    """A 4096-unknown draw takes the same single sparse factorization as
    the desk grids and certifies on its first eta."""
    spec = sv.ProblemSpec(kind="schrodinger", dim=2, n=64, eta_coarse=4)
    eta, fs, us, meta = sv.generate_sample(spec, 3, [4, 5])
    assert us.shape == (2, 64, 64)
    assert meta["retries"] == 0
    assert meta["max_residual"] <= 1e-10


# -- spectral radius ------------------------------------------------------------

def test_power_iteration_spectral_radius_matches_dense():
    rng = np.random.default_rng(4)
    mat = np.abs(rng.standard_normal((64, 64))) * 0.01
    dense = np.max(np.abs(np.linalg.eigvals(mat)))
    power = sv.spectral_radius(mat)
    assert power == pytest.approx(dense, rel=1e-6)


@pytest.mark.parametrize("draw", [78, 80, 108])
def test_spectral_radius_bounds_the_perron_root_from_above(draw):
    """An optically thick slab puts a second eigenvalue close to the
    Perron root, so the iteration converges slowly; its result must still
    not fall below the root, or a draw with rho > 1 would be solved."""
    spec = sv.ProblemSpec(kind="rte", n=64, interior=60, eta_coarse=8,
                          eta_scale=1.0, eta_max=200.0, f_coarse=8)
    eta = spec.sample_eta(7 + 1_000_003 * (draw + 1))
    kern = spec.kernel(eta)
    keta = kern * eta[None, :]
    dense = np.max(np.abs(np.linalg.eigvals(keta)))
    assert dense > 1.0
    assert sv.spectral_radius(keta) >= dense * (1 - 1e-12)
    with pytest.raises(ConditioningError):
        spec.solve_batch(eta, spec.sample_f(1)[None], kern)


# -- operator assembly and residual certification ---------------------------------

def _random_eta(shape):
    rng = np.random.default_rng(4)
    return np.exp(rng.standard_normal(shape)) + 0.1


@pytest.mark.parametrize("shape", [(2,), (3,), (64,), (3, 3), (16, 16)])
def test_schrodinger_matrix_equals_dense_stencil(shape):
    eta = _random_eta(shape)
    h = 1.0 / shape[0]
    nn = eta.size
    eye = np.eye(nn).reshape((nn,) + shape)
    lap = sum(np.roll(eye, 1, ax) - 2.0 * eye + np.roll(eye, -1, ax)
              for ax in range(1, eta.ndim + 1))
    dense = -lap.reshape(nn, nn) / h ** 2 + np.diag(eta.reshape(-1))
    assert np.array_equal(sv.schrodinger_matrix(eta, h).toarray(), dense)


@pytest.mark.parametrize("shape", [(2,), (3,), (64,), (3, 3), (16, 16)])
def test_divergence_matrix_equals_dense_stencil(shape):
    # row k: (up + down) u_k - up u_{k+1} - down u_{k-1} per axis, with
    # the face coefficients up = (eta_k + eta_{k+1}) / 2 and down the up
    # of the node below; at n = 2 both neighbours are one node, and its
    # entry is -(up + down) / h**2
    eta = _random_eta(shape)
    h = 1.0 / shape[0]
    nn = eta.size
    eye = np.eye(nn).reshape((nn,) + shape)
    center, off = 0.0, 0.0
    for ax in range(eta.ndim):
        up = 0.5 * (eta + np.roll(eta, -1, ax)).reshape(-1)
        down = 0.5 * (eta + np.roll(eta, 1, ax)).reshape(-1)
        center = center + up + down
        above = np.roll(eye, 1, ax + 1).reshape(nn, nn)  # row k: node k+1
        below = np.roll(eye, -1, ax + 1).reshape(nn, nn)
        off = off - up[:, None] * above - down[:, None] * below
    dense = (np.diag(center) + off) / h ** 2
    assert np.array_equal(sv.divergence_matrix(eta, h).toarray(), dense)


def _factored_matrices(spec, eta, monkeypatch):
    """The operator at eta, the CSC matrix SuperLU factors for it
    (bordered in divergence form) and SuperLU's factor."""
    seen, real_splu = [], sv.spla.splu

    def splu(mat, **options):
        seen.append((mat, real_splu(mat, **options)))
        return seen[-1][1]
    with monkeypatch.context() as m:
        m.setattr(sv.spla, "splu", splu)
        op = spec.operator(eta)
        spec._factor(op, eta)
    return op, *seen[0]


@pytest.mark.parametrize("kind", ["schrodinger", "divergence"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 16])
def test_operator_csc_arrays_equal_the_coo_csr_assembly_bit_for_bit(
        kind, dim, n, monkeypatch):
    spec = sv.ProblemSpec(kind=kind, dim=dim, n=n, eta_coarse=1)
    eta = _random_eta((n,) * dim)
    op, factored, _ = _factored_matrices(spec, eta, monkeypatch)
    monkeypatch.setattr(sv, "_periodic_stencil", reference.periodic_stencil)
    monkeypatch.setattr(sv, "_sparse_factor", reference.sparse_factor)
    monkeypatch.setattr(sv, "_divergence_factor",
                        reference.divergence_factor)
    ref_op, ref_factored, _ = _factored_matrices(spec, eta, monkeypatch)
    assert op.format == factored.format == ref_factored.format == "csc"
    if kind == "schrodinger":
        assert factored is op  # factored as built, with no copy
    for got, want in [(op, ref_op.tocsc()), (factored, ref_factored)]:
        assert got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("kind", ["schrodinger", "divergence"])
def test_elliptic_factor_fills_less_than_the_default_order(kind, monkeypatch):
    # the minimum-degree order is what makes a 2D draw's factor cheap;
    # without it only the golden digests would notice
    spec = sv.ProblemSpec(kind=kind, dim=2, n=32, eta_coarse=4,
                          eta_shift=0.5 if kind == "divergence" else 0.0)
    _, mat, lu = _factored_matrices(spec, spec.sample_eta(3), monkeypatch)
    default = sv.spla.splu(mat)
    assert lu.L.nnz + lu.U.nnz < default.L.nnz + default.U.nnz


@pytest.mark.parametrize("shape", [(5,), (4, 4)])
def test_stencil_pattern_is_cached_read_only(shape):
    first = sv.schrodinger_matrix(_random_eta(shape), 0.25)
    hits = sv._stencil_pattern.cache_info().hits
    second = sv.divergence_matrix(_random_eta(shape) + 1.0, 0.25)
    assert sv._stencil_pattern.cache_info().hits == hits + 1
    # a second eta on the grid shares the pattern and only fills values
    assert np.shares_memory(second.indices, first.indices)
    assert np.shares_memory(second.indptr, first.indptr)
    slots, indices, indptr, border = sv._stencil_pattern(shape)
    assert not any(a.flags.writeable
                   for a in (slots, indices, indptr, *border))


def _pair_residual(spec, eta, f, u):
    """The relative residual of one pair, written out with its own
    operator or kernel."""
    if spec.kind == "rte":
        kern = spec.kernel(eta)
        rhs = kern @ f.reshape(-1)
        lhs = u.reshape(-1) - kern @ (eta.reshape(-1) * u.reshape(-1))
        return np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
    fv = f.reshape(-1)
    if spec.kind == "divergence":
        fv = fv - fv.mean()
    r = spec.operator(eta) @ u.reshape(-1) - fv
    return np.linalg.norm(r) / np.linalg.norm(fv)


@pytest.mark.parametrize("spec", [
    sv.ProblemSpec(kind="schrodinger", n=32, eta_coarse=4),
    sv.ProblemSpec(kind="schrodinger", dim=2, n=8, eta_coarse=4),
    sv.ProblemSpec(kind="divergence", n=32, eta_coarse=4, eta_scale=0.2,
                   eta_shift=0.5),
    SPEC_1D,
], ids=["schrodinger1d", "schrodinger2d", "divergence1d", "rte1d"])
def test_residual_batch_matches_single_pair_formula(spec):
    eta = spec.sample_eta(11)
    fs = np.stack([spec.sample_f(20 + j) for j in range(4)])
    us = spec.solve_batch(eta, fs)
    if spec.kind == "divergence":
        # the check projects a source mean away, as the solve does
        fs = fs + np.arange(4.0).reshape((4,) + (1,) * eta.ndim)
    assert np.max(spec.residual_batch(eta, fs, us)) < 1e-10
    # perturbed solutions: residuals well above rounding, one per source
    rng = np.random.default_rng(0)
    us = us + 1e-3 * np.abs(us).max() * rng.standard_normal(us.shape)
    batch = spec.residual_batch(eta, fs, us)
    ref = np.array([_pair_residual(spec, eta, f, u) for f, u in zip(fs, us)])
    assert batch.shape == (4,)
    assert np.all(ref > 1e-4)
    assert np.max(np.abs(batch - ref) / ref) < 1e-12
    single = np.array([spec.residual(eta, f, u) for f, u in zip(fs, us)])
    assert np.max(np.abs(single - ref) / ref) < 1e-12


# -- perturbative expansion of the elliptic solution operator ------------------

def test_perturbative_linearization_second_order():
    n = 64
    spec = sv.ProblemSpec(kind="schrodinger", n=n, eta_coarse=8)
    rng = np.random.default_rng(0)
    eta0 = 10.0
    delta = sv.fourier_interpolate(rng.standard_normal(8), n)
    g0 = spec.reference_matrix(np.full(n, eta0))
    errs = []
    for eps in (0.4, 0.2, 0.1):
        g_eta = spec.reference_matrix(eta0 + eps * delta)
        e_op = np.diag(-eps * delta)  # eta0 - eta
        lin = g0 + g0 @ e_op @ g0
        errs.append(np.linalg.norm(g_eta - lin, 2))
    for e1, e2 in zip(errs, errs[1:]):
        assert 4.0 * 0.8 <= e1 / e2 <= 4.0 * 1.2


def test_no_dimension_suffixed_copies_in_the_package():
    # one dimension-generic code path: the only top-level functions named
    # for a dimension are the entry points the benchmark looks up by name
    entry_points = {"rte_kernel_1d", "rte_kernel_2d", "build_nonstandard_2d",
                    "truncate_2d", "apply_2d"}
    named = {node.name
             for path in Path(sv.__file__).parent.glob("*.py")
             for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef)
             and node.name.endswith(("_1d", "_2d"))}
    assert named <= entry_points, sorted(named - entry_points)
