"""Ground-truth generators: elliptic solvers (Schrodinger and divergence
form), slab/2D radiative-transfer integral-equation solvers, parameter
and source samplers, and the exponential integral E1 (SciPy's `exp1`).

Conventions: elliptic problems live on the periodic unit box with
spacing h = 1/n and nodes x_j = j h.  Transfer problems live on a padded
box [-x0, 1+x0] sampled at cell centers with h = 1/interior; the
scattering field and the source vanish on the padding cells.

Every solve is one direct factorization (`ProblemSpec._factor`), at every
grid size: a sparse LU (`splu`) of the elliptic operator (bordered by the
zero-mean constraint in divergence form), whose values fill a CSC pattern
cached per grid shape (`_stencil_pattern`), or a dense LU of the transfer
system I - K diag(eta) once an upper bound on its Perron root is below 1.
`ProblemSpec.solve_batch` and `residual_batch` are the one solve and the
one residual; generation hands both the draw's operator, so it is built
once, and `solve_schrodinger`/`solve_divergence` are `ProblemSpec.solve`
on eta's own grid.  The same factorization applies the solution operator
and its transpose without forming them (`solution_operator`, the one
definition of G_ref); `reference_matrix` is that operator applied to the
identity.

The slab (1D) and plane (2D) transfer kernels share one Nystrom assembly
(`_nystrom`): a kernel of the distance r and of the multilinearly
interpolated eta averaged along the segment by the trapezoid rule
(`_path_tau`).  Far cells take the midpoint rule.  Their path nodes all
lie on the grid of spacing h/path_samples, so eta is interpolated there
once per draw (`_fine_table`), and each pair of cells is evaluated once,
from that table, and written to both of its entries.  Adjacent cells,
diagonal neighbours included, take tensor Gauss-Legendre over the source
cell, whose path averages (and the self cell's) are one product of eta's
(5,)*dim windows with a cached stencil.
Only the kernel function and the self-cell rule are written per
dimension.  The slab kernel uses the positive convention
0.5*E1(tau*|x-y|); see the README for the sign discussion.  Matrix
entries whose optical path is identically zero (both points on the same
padding side) are set to zero: they are always multiplied by a vanishing
eta or f, so any finite value leaves the solution unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (ConditioningError, ConfigError, DataError, DomainError,
                     check_fields, rule)


# -- exponential integral --------------------------------------------------------

def expint_e1(z):
    """E1(z) = int_z^inf e^-t / t dt for z > 0; scalars or arrays."""
    # imported here: scipy.special costs ~50 ms and ~2 MB at import, and
    # only transfer kernels need it
    from scipy.special import exp1

    arr = np.asarray(z, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("E1 requires strictly positive argument")
    out = exp1(arr)
    return float(out) if out.ndim == 0 else out


# -- trigonometric interpolation ---------------------------------------------------

def _interp_axis(values: np.ndarray, n_fine: int, axis: int) -> np.ndarray:
    m = values.shape[axis]
    if n_fine % m:
        raise ConfigError(f"fine size {n_fine} not a multiple of coarse {m}")
    if n_fine == m:
        return np.asarray(values, dtype=float)
    spec = np.fft.fft(values, axis=axis)
    shape = list(values.shape)
    shape[axis] = n_fine
    pad = np.zeros(shape, dtype=complex)
    half = m // 2
    pos = (m + 1) // 2  # bins 0..pos-1 are the non-negative frequencies
    lo = [slice(None)] * values.ndim
    lo[axis] = slice(0, pos)
    pad[tuple(lo)] = np.take(spec, range(pos), axis=axis)
    if m % 2 == 0:
        nyq = np.take(spec, [half], axis=axis)  # split symmetrically
        hi = [slice(None)] * values.ndim
        hi[axis] = slice(half, half + 1)
        pad[tuple(hi)] = 0.5 * nyq
        hi[axis] = slice(n_fine - half, n_fine - half + 1)
        pad[tuple(hi)] = 0.5 * nyq
    tail = m - half - 1
    if tail:
        src = [slice(None)] * values.ndim
        src[axis] = slice(m - tail, m)
        dst = [slice(None)] * values.ndim
        dst[axis] = slice(n_fine - tail, n_fine)
        pad[tuple(dst)] = spec[tuple(src)]
    fine = np.fft.ifft(pad, axis=axis).real
    return fine * (n_fine / m)


def fourier_interpolate(values: np.ndarray, n_fine: int) -> np.ndarray:
    """Trigonometric interpolation of periodic samples to a finer grid
    (exact on resolved Fourier modes), along every axis."""
    out = values
    for axis in range(np.ndim(values)):
        out = _interp_axis(out, n_fine, axis)
    return out


# -- problem description ---------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """Everything needed to sample (eta, f) pairs and solve for u."""

    kind: str = rule(kind=str, choices=("schrodinger", "divergence", "rte"))
    dim: int = rule(1, choices=(1, 2))
    n: int = rule(64, low=1)
    eta_coarse: int = rule(8, low=1)
    eta_scale: float = rule(10.0, kind=float, low=0)  # elliptic: > 0
    eta_shift: float = rule(0.0, kind=float, low=0)
    eta_max: float | None = rule(None, kind=float, above=0)  # rte: peak eta
    interior: int | None = rule(None)  # rte: points inside the unit box
    f_coarse: int | None = rule(None, above=0)  # rte 1d: coarse source size
    path_samples: int = rule(16, low=1)  # rte path quadrature intervals
    resample_limit: int = rule(20, low=0)  # rte spectral-radius retries

    def __post_init__(self):
        check_fields(self, "problem")
        if self.eta_coarse > self.n:
            raise ConfigError("coarse grid exceeds fine grid")
        if self.kind != "rte" and not self.eta_scale > 0:
            raise ConfigError(f"{self.kind} form needs eta > 0: "
                              "eta_scale > 0")
        if self.kind == "rte":
            if self.interior is None or not 0 < self.interior <= self.n:
                raise ConfigError("rte needs 0 < interior <= n")
            if (self.n - self.interior) % 2:
                raise ConfigError("rte padding must be symmetric")

    # grid geometry ----------------------------------------------------------

    @property
    def h(self) -> float:
        if self.kind == "rte":
            return 1.0 / self.interior
        return 1.0 / self.n

    def coords(self) -> np.ndarray:
        """1D coordinate axis (elliptic nodes or transfer cell centers)."""
        if self.kind == "rte":
            pad = (self.n - self.interior) // 2
            return (np.arange(self.n) - pad + 0.5) * self.h
        return np.arange(self.n) * self.h

    def _pad_mask(self) -> np.ndarray:
        x = self.coords()
        outside = (x < 0.0) | (x > 1.0)
        return reduce(np.logical_or.outer, [outside] * self.dim)

    # sampling ------------------------------------------------------------------

    def sample_eta(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((self.eta_coarse,) * self.dim)
        fine = fourier_interpolate(z, self.n)
        eta = self.eta_scale * np.exp(fine) + self.eta_shift
        if self.kind == "rte":
            eta = np.where(self._pad_mask(), 0.0, eta)
            top = eta.max()
            if top > 0 and self.eta_max:
                eta = eta * (self.eta_max / top)
        return eta

    def sample_f(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        shape = (self.n,) * self.dim
        if self.kind == "rte":
            if self.dim == 1 and self.f_coarse:
                f = fourier_interpolate(rng.uniform(size=self.f_coarse),
                                        self.n)
                f = np.maximum(f, 0.0)
            else:
                f = rng.uniform(size=shape)
            return np.where(self._pad_mask(), 0.0, f)
        f = rng.standard_normal(shape)
        if self.kind == "divergence":
            f = f - f.mean()
        return f

    # solving ----------------------------------------------------------------------

    def operator(self, eta: np.ndarray):
        """The matrix a draw at eta is solved and certified against: the
        sparse elliptic operator in CSC, its values filled into the grid's
        cached pattern (`_stencil_pattern`), or the dense transfer kernel
        K of u = K(eta u) + K f."""
        if self.kind == "schrodinger":
            return schrodinger_matrix(eta, self.h)
        if self.kind == "divergence":
            return divergence_matrix(eta, self.h)
        return self.kernel(eta)

    def kernel(self, eta: np.ndarray) -> np.ndarray:
        if self.kind != "rte":
            raise ConfigError("kernel is defined for transfer problems only")
        if self.dim == 1:
            return rte_kernel_1d(eta, self)
        return rte_kernel_2d(eta, self)

    def solve(self, eta: np.ndarray, f: np.ndarray) -> np.ndarray:
        return self.solve_batch(eta, f[None])[0]

    def solve_batch(self, eta: np.ndarray, fs: np.ndarray,
                    op=None) -> np.ndarray:
        """Solve for a batch of sources sharing one eta, from one
        factorization (`_factor`) of the draw's operator `op`, which is
        built here unless given."""
        op = self.operator(eta) if op is None else op
        if self.kind == "divergence":
            _check_zero_mean(fs)
        return _solve_with(self._factor(op, eta)[0], fs)

    def _factor(self, op, eta: np.ndarray):
        """(solve, solve_t): the solution operator at eta and its
        transpose on (N,) or (N, k) columns, from one factorization of the
        draw's operator `op`: SuperLU reads the elliptic CSC matrix as it
        is built, or, in divergence form, the bordered system filled into
        the same cached pattern."""
        if self.kind == "schrodinger":
            return _sparse_factor(op)
        if self.kind == "divergence":
            return _divergence_factor(op, eta.shape)
        return _rte_factor(op, eta)

    def solution_operator(self, eta: np.ndarray) -> spla.LinearOperator:
        """The solution operator G_ref at eta on flattened grids, applied
        through `_factor` and never formed: the splu of the Schrodinger
        matrix, of the zero-mean KKT system (divergence form: G_ref is
        the pseudo-inverse), or the LU of I - K diag(eta) once its
        spectral radius is below 1 (transfer; else ConditioningError).
        `matmat` is the same solve on (N, k) blocks, `rmatvec` the
        transposed solve."""
        solve, solve_t = self._factor(self.operator(eta), eta)
        nn = eta.size
        return spla.LinearOperator((nn, nn), matvec=solve, matmat=solve,
                                   rmatvec=solve_t, dtype=float)

    def residual(self, eta: np.ndarray, f: np.ndarray,
                 u: np.ndarray) -> float:
        """Relative residual of one sample under this problem's operator."""
        return float(self.residual_batch(eta, f[None], u[None])[0])

    def residual_batch(self, eta: np.ndarray, fs: np.ndarray,
                       us: np.ndarray, op=None) -> np.ndarray:
        """Relative residual of every source of one draw, all checked
        against one operator `op` (or one transfer kernel) at eta, which
        is built here unless given.

        Transfer: |u - K(eta u) - K f| / |K f|; elliptic: |L u - f| / |f|,
        with f projected to zero mean for the divergence form.
        """
        op = self.operator(eta) if op is None else op
        fv = np.asarray(fs, dtype=float).reshape(fs.shape[0], -1)
        uv = np.asarray(us, dtype=float).reshape(us.shape[0], -1)
        if self.kind == "rte":
            rhs = fv @ op.T
            lhs = uv - (uv * eta.reshape(-1)) @ op.T
        else:
            if self.kind == "divergence":
                fv = fv - fv.mean(axis=1, keepdims=True)
            rhs = fv
            lhs = (op @ uv.T).T
        return (np.linalg.norm(lhs - rhs, axis=1)
                / np.linalg.norm(rhs, axis=1))

    def reference_matrix(self, eta: np.ndarray) -> np.ndarray:
        """Dense solution operator at eta: `solution_operator` applied to
        the identity (the pseudo-inverse in divergence form)."""
        return self.solution_operator(eta).matmat(np.eye(eta.size))


# -- elliptic operators ---------------------------------------------------------------

@lru_cache(maxsize=16)
def _stencil_pattern(shape: tuple):
    """The CSC sparsity pattern of `_periodic_stencil` on a grid of
    `shape`, the layout SuperLU reads: (slots, indices, indptr, border).
    `slots` is the position in the matrix data that each stencil entry
    adds into, the entries taken as `_periodic_stencil` lists them.
    `border` is (inner, indices, indptr) of the bordered system in
    `_divergence_factor`, `inner` being the bordered position of each
    plain one.  Read-only, computed once per shape and process."""
    nn = int(np.prod(shape))
    idx = np.arange(nn).reshape(shape)
    cols = np.concatenate([idx.reshape(-1)] + [
        np.roll(idx, -step, axis=ax).reshape(-1)
        for ax in range(len(shape)) for step in (1, -1)])
    rows = np.tile(np.arange(nn), 1 + 2 * len(shape))
    keys, slots = np.unique(cols * nn + rows, return_inverse=True)
    nnz = keys.size
    itype = np.int32 if nnz + 2 * nn < 2 ** 31 else np.int64
    indices = (keys % nn).astype(itype)
    indptr = np.searchsorted(keys, np.arange(nn + 1) * nn).astype(itype)
    # the border adds row nn at the foot of every column, then column nn
    inner = np.arange(nnz) + np.repeat(np.arange(nn), np.diff(indptr))
    b_indices = np.full(nnz + 2 * nn, nn, dtype=itype)
    b_indices[inner] = indices
    b_indices[nnz + nn:] = np.arange(nn)
    b_indptr = np.append(indptr + np.arange(nn + 1), nnz + 2 * nn)
    border = (inner, b_indices, b_indptr.astype(itype))
    for a in (slots, indices, indptr, *border):
        a.setflags(write=False)
    return slots, indices, indptr, border


def _periodic_stencil(center: np.ndarray, neighbours: list) -> sp.csc_matrix:
    """CSC matrix of a periodic nearest-neighbour stencil on center's grid,
    its values filled into the cached `_stencil_pattern`.

    Row k holds center[k] on the diagonal, and neighbours[2a][k] and
    neighbours[2a + 1][k] at the nodes one step up and one step down
    axis a (wrapping around).  Coincident entries (n = 2) are summed in
    that order.
    """
    slots, indices, indptr, _ = _stencil_pattern(center.shape)
    vals = np.concatenate([v.reshape(-1) for v in [center, *neighbours]])
    data = np.bincount(slots, weights=vals, minlength=indices.size)
    return sp.csc_matrix((data, indices, indptr), shape=(center.size,) * 2)


def schrodinger_matrix(eta: np.ndarray, h: float) -> sp.spmatrix:
    """(-Laplace_h + diag(eta)) with the periodic 3-point/5-point stencil."""
    if np.any(eta <= 0):
        raise DomainError("schrodinger form needs eta > 0")
    off = np.full(eta.shape, -1.0 / h ** 2)
    return _periodic_stencil(2.0 * eta.ndim / h ** 2 + eta,
                             [off] * (2 * eta.ndim))


def divergence_matrix(eta: np.ndarray, h: float) -> sp.spmatrix:
    """Conservative -div(eta grad .) with arithmetic-mean face coefficients."""
    if np.any(eta <= 0):
        raise DomainError("divergence form needs eta > 0")
    center = 0.0
    neighbours = []
    for ax in range(eta.ndim):
        up = 0.5 * (eta + np.roll(eta, -1, axis=ax))   # face k+1/2 on ax
        down = np.roll(up, 1, axis=ax)                 # face k-1/2 on ax
        center = center + up + down
        neighbours += [-up / h ** 2, -down / h ** 2]
    return _periodic_stencil(center / h ** 2, neighbours)


def _solve_with(solve, fs: np.ndarray) -> np.ndarray:
    """Sources (k, grid..) through a solve of (N, k) columns, as
    (k, grid..)."""
    flat = np.asarray(fs, dtype=float).reshape(fs.shape[0], -1)
    return solve(flat.T).T.reshape(fs.shape)


def _sparse_factor(op: sp.csc_matrix):
    lu = spla.splu(op)
    return lu.solve, lambda b: lu.solve(b, trans="T")


def solve_schrodinger(eta: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Periodic solve of (-Laplace_h + diag(eta)) u = f on eta's grid,
    h = 1/n: `ProblemSpec.solve` of that problem."""
    return ProblemSpec(kind="schrodinger", dim=eta.ndim, n=eta.shape[0],
                       eta_coarse=1).solve(eta, f)


def _check_zero_mean(fs: np.ndarray) -> None:
    flat = np.asarray(fs, dtype=float).reshape(fs.shape[0], -1)
    means = np.abs(flat.mean(axis=1))
    scale = np.linalg.norm(flat, axis=1) / np.sqrt(flat.shape[1])
    if np.any(means > 1e-8 * np.maximum(scale, 1e-300)):
        raise DataError("divergence-form source must have zero mean")


def _divergence_factor(op: sp.csc_matrix, shape: tuple):
    """Solves of the operator A on a grid of `shape`, bordered by the
    zero-mean constraint, B = [[A, 1], [1^T, 0]], filled into the
    bordered pattern of `_stencil_pattern`.  The multiplier takes the
    source's mean and the solution has zero mean, so E B^-1 E^T (E the
    first N rows) is the pseudo-inverse of A, and so is its transpose;
    `solve` projects the source to zero mean first, as certification
    does."""
    nn = op.shape[0]
    inner, indices, indptr = _stencil_pattern(shape)[3]
    data = np.ones(indices.size)
    data[inner] = op.data
    lu = spla.splu(sp.csc_matrix((data, indices, indptr),
                                 shape=(nn + 1, nn + 1)))

    def bordered(b, trans):
        rhs = np.concatenate([b, np.zeros((1,) + b.shape[1:])])
        return lu.solve(rhs, trans=trans)[:nn]
    return (lambda b: bordered(b - b.mean(axis=0), "N"),
            lambda b: bordered(b, "T"))


def solve_divergence(eta: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Zero-mean periodic solve of -div(eta grad u) = f on eta's grid,
    h = 1/n: `ProblemSpec.solve` of that problem, which rejects a source
    with a nonzero mean."""
    return ProblemSpec(kind="divergence", dim=eta.ndim, n=eta.shape[0],
                       eta_coarse=1).solve(eta, f)


# -- radiative transfer: one Nystrom assembly for the slab and the plane --------

_PASS = 131_072  # far-path nodes per pass: the working set stays in cache
_NEAR_ORDER = {1: 64, 2: 8}  # Gauss-Legendre order per axis, adjacent cells


@lru_cache(maxsize=16)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed
    once per order and process: every kernel build reuses them."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _trap_weights(m: int) -> np.ndarray:
    w = np.full(m + 1, 1.0 / m)
    w[0] = w[-1] = 0.5 / m
    return w


def _interp_eta(eta: np.ndarray, pts, h: float, x_first: float) -> np.ndarray:
    """Multilinear interpolation of the cell-centered eta at points given
    by one coordinate array per axis in `pts`, clamped to the grid.
    Corners are summed with the first axis varying fastest."""
    n = eta.shape[0]
    flat, weights = None, []
    for p in pts:  # updates in place: fewer temporaries of the full size
        frac = p - x_first
        frac /= h
        low = np.clip(np.floor(frac).astype(int), 0, n - 2)
        frac -= low
        np.clip(frac, 0.0, 1.0, out=frac)
        flat = low if flat is None else flat * n + low  # row-major cell
        weights.append((1.0 - frac, frac))
    values = eta.reshape(-1)
    out = None
    for corner in product((0, 1), repeat=len(pts)):
        bits = corner[::-1]
        term = values[np.ravel_multi_index(bits, eta.shape):][flat]
        for w, b in zip(weights, bits):
            term *= w[b]
        if out is None:
            out = term
        else:
            out += term
    return out


def _path_tau(eta: np.ndarray, xs, ys, h: float, x_first: float,
              m: int) -> np.ndarray:
    """Trapezoid average (m intervals) of the interpolated eta along the
    segments from the points xs to the points ys, each given as one
    coordinate array per axis; all of them broadcast together."""
    s = np.linspace(0.0, 1.0, m + 1)
    pts = []
    for x, y in zip(xs, ys):
        x, y = np.asarray(x)[..., None], np.asarray(y)[..., None]
        pts.append(x - s * (x - y))
    return _interp_eta(eta, pts, h, x_first) @ _trap_weights(m)


def _fine_table(eta: np.ndarray, m: int) -> np.ndarray:
    """eta interpolated (`_interp_eta`, in units of h) on the grid of
    spacing h/m per axis that spans the cell centers, m*(n-1)+1 points
    per axis, raveled row-major.  Node k of the trapezoid path from cell
    i to cell j sits at fine index m*i + k*(j - i) on every axis."""
    fine = np.arange(m * (eta.shape[0] - 1) + 1) / m
    pts = [fine.reshape([-1 if a == ax else 1 for a in range(eta.ndim)])
           for ax in range(eta.ndim)]
    return _interp_eta(eta, pts, 1.0, 0.0).reshape(-1)


def _upper_pairs(nn: int, size: int):
    """The cell pairs (a, b) with a < b, row by row, as index arrays of
    whole rows of up to `size` pairs each (one row at least)."""
    counts = np.arange(nn - 1, -1, -1)
    before = np.concatenate([[0], np.cumsum(counts)])
    lo = 0
    while lo < nn - 1:
        hi = int(np.searchsorted(before, before[lo] + size, side="right")) - 1
        rows = np.arange(lo, max(hi, lo + 1))
        a = np.repeat(rows, counts[rows])
        first = np.repeat(rows + 1 - before[rows] + before[lo], counts[rows])
        yield a, np.arange(a.size) + first
        lo = rows[-1] + 1


@lru_cache(maxsize=16)
def _far_distances(axis: tuple, dim: int, size: int) -> tuple:
    """The center distances r of every pass of `_upper_pairs(n**dim,
    size)` on the grid with coordinate axis `axis` on each of `dim` axes.
    They depend on the grid alone, not on eta.  Read-only, computed once
    per geometry and process."""
    cells = np.indices((len(axis),) * dim).reshape(dim, -1)
    centers = np.array(axis)[cells]
    out = tuple(reduce(np.hypot, centers[:, a] - centers[:, b], 0.0)
                for a, b in _upper_pairs(cells.shape[1], size))
    for r in out:
        r.setflags(write=False)
    return out


def _clean_tau(tau: np.ndarray, eta_max: float) -> np.ndarray:
    """Snap float-dust path averages to an exact zero.

    Paths confined to one padding side integrate an identically zero
    field; rounding in the sample positions can leak ~1e-16 of the first
    interior value, which E1 would blow up into a large finite number.
    Genuine interior paths are many orders of magnitude above the cut.
    """
    tau[tau < 1e-12 * eta_max] = 0.0
    return tau


@lru_cache(maxsize=16)
def _near_stencil(dim: int, m: int, order: int, self_cell):
    """Adjacent-cell and self-cell quadrature nodes in units of h, the same
    for every cell: offsets from the center (one row per axis), weights W
    (nodes x 3**dim, one column per step of `product((-1, 0, 1))`, the
    self cell at the zero step) and the stencil S (nodes x 5**dim).  A
    node's path average from the center is linear in the (5,)*dim window
    of eta around it, so S is `_path_tau` on the unit fields of a 5**dim
    grid.  Read-only, computed once per key and process."""
    nodes, wts = _gauss_legendre(order)
    offsets = np.meshgrid(*[0.5 * (nodes + 1.0) - 0.5] * dim, indexing="ij")
    gauss = reduce(np.multiply.outer, [0.5 * wts] * dim).reshape(-1)
    blocks = [([s + o.reshape(-1) for s, o in zip(step, offsets)], gauss)
              if any(step) else self_cell()
              for step in product((-1, 0, 1), repeat=dim)]
    disp = np.concatenate([np.array(offs) for offs, _ in blocks], axis=1)
    weights = sla.block_diag(*[w[:, None] for _, w in blocks])
    units = np.eye(5 ** dim).reshape((-1,) + (5,) * dim)
    stencil = np.stack([_path_tau(u, [2.0] * dim, list(2.0 + disp), 1.0, 0.0,
                                  m) for u in units], axis=1)
    for a in (disp, weights, stencil):
        a.setflags(write=False)
    return disp, weights, stencil


def _near_paths(eta: np.ndarray, m: int, self_cell):
    """The nodes of `_near_stencil` and the path averages from every cell
    center to them (cells x nodes); edge padding is `_interp_eta`'s clamp."""
    dim, n = eta.ndim, eta.shape[0]
    disp, weights, stencil = _near_stencil(dim, m, _NEAR_ORDER[dim],
                                           self_cell)
    windows = sliding_window_view(np.pad(eta, 2, mode="edge"), (5,) * dim)
    return disp, weights, windows.reshape(n ** dim, -1) @ stencil.T


def _nystrom(eta: np.ndarray, spec: ProblemSpec, kernel,
             self_cell) -> np.ndarray:
    """Nystrom matrix of a transfer kernel `kernel(r, tau)` of the distance
    r and the path-averaged eta, on the cell centers of any dimension.

    Cells two or more apart on some axis take the midpoint rule (weight
    h**dim).  Their path averages come from `_fine_table`: for cells
    i < j (row-major), tau is the sum over k = 0..m, in that order, of
    w_k * table[m*i + k*(j - i)], with w = `_trap_weights(m)` and the
    fine index taken per axis.  Pairs go in passes of up to `_PASS`
    nodes, and each pair's value is written to both (i, j) and (j, i),
    so the far field is exactly symmetric; the pairs' distances are read
    from `_far_distances`, once per grid.  The adjacent cells, diagonal
    neighbours included, integrate the kernel over the source cell by
    tensor Gauss-Legendre of order `_NEAR_ORDER[dim]` per axis, and the
    self cell, which fills the diagonal, by `self_cell()`: one offset
    array per axis and the weights, in units of h (`_near_paths`).
    """
    if np.any(eta < 0):
        raise DomainError("scattering coefficient must be nonnegative")
    dim, n, h, m = eta.ndim, eta.shape[0], spec.h, spec.path_samples
    top = float(eta.max())
    cells = np.indices((n,) * dim).reshape(dim, -1)
    table = _fine_table(eta, m)
    # a cell's raveled index on the fine grid is m * fine[cell]
    fine = (m * (n - 1) + 1) ** np.arange(dim - 1, -1, -1) @ cells
    w = _trap_weights(m)
    nn = n ** dim
    kern = np.empty((nn, nn))
    flat = kern.reshape(-1)
    size = _PASS // (m + 1)
    for (a, b), r in zip(_upper_pairs(nn, size),
                         _far_distances(tuple(spec.coords()), dim, size)):
        node, step = m * fine[a], fine[b] - fine[a]
        tau = w[0] * table[node]
        for wk in w[1:]:
            node += step
            tau += wk * table[node]
        flat[a * nn + b] = flat[b * nn + a] = (
            h ** dim * kernel(r, _clean_tau(tau, top)))

    disp, weights, tau = _near_paths(eta, m, self_cell)
    r = np.broadcast_to(h * reduce(np.hypot, disp, 0.0), tau.shape)
    near = h ** dim * (kernel(r, _clean_tau(tau, top)) @ weights)
    for col, step in enumerate(product((-1, 0, 1), repeat=dim)):
        src = cells + np.array(step)[:, None]
        keep = np.all((src >= 0) & (src < n), axis=0)
        cols = np.ravel_multi_index(src[:, keep], (n,) * dim)
        kern[keep, cols] = near[keep, col]
    return kern


def _slab_kernel(r: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """0.5*E1(r tau) elementwise; zero where the optical argument vanishes."""
    t = r * tau
    out = np.zeros_like(t)
    pos = t > 0.0
    if pos.any():
        out[pos] = 0.5 * expint_e1(t[pos])
    return out


def _plane_kernel(r: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """exp(-r tau) / (4 pi r) elementwise; zero at r = 0."""
    out = np.zeros_like(r)
    pos = r > 0.0
    out[pos] = np.exp(-r[pos] * tau[pos]) / (4.0 * np.pi * r[pos])
    return out


def _slab_self_cell():
    """The slab self cell in units of h: the log-singular kernel split at
    the singularity, one 32-node panel per half with a sqrt substitution."""
    nodes, wts = _gauss_legendre(32)
    nodes = 0.5 * (nodes + 1.0)
    half, w = 0.5 * nodes ** 2, 0.5 * wts * nodes
    return [np.concatenate([-half, half])], np.concatenate([w, w])


def _plane_self_cell():
    """The plane self cell in units of h: polar quadrature with one panel
    per octant, so the ray length R(theta) stays smooth inside each theta
    panel, and the adjacent cells' Gauss-Legendre order in angle and
    radius.  Its weights carry the Jacobian r, which cancels the 1/r
    singularity."""
    nodes, wts = _gauss_legendre(_NEAR_ORDER[2])
    unit = 0.5 * (nodes + 1.0)
    theta = ((np.arange(8)[:, None] + unit) * (np.pi / 4.0)).reshape(-1)
    cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
    rmax = 0.5 / np.maximum(np.abs(cos), np.abs(sin))
    r = unit * rmax
    w = np.tile(wts * (np.pi / 8.0), 8)[:, None] * wts * (0.5 * rmax) * r
    return [(r * cos).reshape(-1), (r * sin).reshape(-1)], w.reshape(-1)


def rte_kernel_1d(eta: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Nystrom matrix of the slab kernel 0.5*E1(|x-y| * path-average eta)."""
    if not eta.any():
        raise DomainError("eta identically zero: slab kernel is singular")
    return _nystrom(eta, spec, _slab_kernel, _slab_self_cell)


def rte_kernel_2d(eta: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Nystrom matrix of exp(-|x-y| tau_bar)/(4 pi |x-y|) on cell centers."""
    return _nystrom(eta, spec, _plane_kernel, _plane_self_cell)


def spectral_radius(mat: np.ndarray) -> float:
    """Upper bound on the Perron root (the spectral radius) of a
    nonnegative matrix, by power iteration.

    For positive v and w = mat @ v, min(w / v) <= rho <= max(w / v)
    (Collatz-Wielandt).  The iteration runs from v = 1 until that bracket
    is 1e-10 wide relative to its top, or for 500 steps, and returns the
    top: a slow convergence (a second eigenvalue close to the Perron
    root, as in optically thick slabs) errs towards rejecting a draw,
    never towards accepting one.  The scattering matrix K diag(eta) has
    a positive entry in every row, which keeps v positive; a row without
    one makes the bracket undefined, and the result NaN.
    """
    v = np.ones(mat.shape[0])
    for _ in range(500):
        w = mat @ v
        quotients = w / v
        low, top = quotients.min(), quotients.max()
        if top - low <= 1e-10 * top:
            break
        v = w / top
    return float(top)


def _rte_factor(kern: np.ndarray, eta: np.ndarray):
    """G = (I - K diag(eta))^-1 K from one LU, once the spectral radius
    of K diag(eta) is below 1 (else ConditioningError)."""
    keta = kern * eta.reshape(-1)[None, :]
    rho = spectral_radius(keta)
    if not rho < 1.0 - 1e-6:  # NaN too
        raise ConditioningError(
            f"transfer system near singular (rho={rho:.8f})")
    lu = sla.lu_factor(np.eye(kern.shape[0]) - keta)
    # C order, as `scipy.linalg.solve` returns it: the certification's
    # products see the same layout, and so round the same way
    return (lambda b: np.ascontiguousarray(sla.lu_solve(lu, kern @ b)),
            lambda b: kern.T @ sla.lu_solve(lu, b, trans=1))


# -- sample generation with retry ------------------------------------------------

def generate_sample(spec: ProblemSpec, eta_seed: int, f_seeds):
    """(eta, F, U, meta): one parameter draw, its solved sources, and
    their certification.

    The draw's operator (the elliptic matrix, or the transfer kernel) is
    built once and handed to both `solve_batch` and `residual_batch`, so
    the sources are solved with it and certified against it.  The
    largest relative residual (NaN if any is NaN) lands in the metadata
    as `max_residual`.  Transfer problems re-draw eta (bumping the seed
    by one) when the scattering system gets too close to singular; the
    retry count lands in the metadata too.
    """
    retries = 0
    seed = eta_seed
    while True:
        eta = spec.sample_eta(seed)
        fs = np.stack([spec.sample_f(s) for s in f_seeds])
        op = spec.operator(eta)
        try:
            us = spec.solve_batch(eta, fs, op)
            break
        except ConditioningError:
            retries += 1
            if retries > spec.resample_limit:
                raise DataError(f"eta resampling limit hit at seed {eta_seed}")
            seed = seed + 1
    worst = np.max(spec.residual_batch(eta, fs, us, op))
    meta = {"eta_seed": int(seed), "retries": retries,
            "f_seeds": [int(s) for s in f_seeds],
            "max_residual": float(worst)}
    return eta, fs, us, meta
