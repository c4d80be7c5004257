"""Gaussian MAP estimation over the stacked dynamics constraints.

The posterior over the dynamic-variable vector d combines three information
sources: the sparse Newton-Euler constraints weighted by a model-confidence
covariance, the sensor readings weighted per channel, and a regularizing
Gaussian prior on d (mandatory: without it the constraint-only distribution
is degenerate). Every posterior goes through one path: ``PrecisionPlan``
turns the values of D and Y straight into the band of the posterior
precision through a precomputed product plan, a sparse permuted Cholesky
factorization in band storage solves for the mean, and the marginal
variances come from a blocked Takahashi selected inversion of the band
factor. The fill-reducing permutation and the plan are computed once per
sparsity pattern and reused across time samples. The same diagonal gives,
per sample, the number of directions of d that the constraints and readings
leave undetermined (``unobserved_dimension``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dtrtri
from scipy.sparse.csgraph import reverse_cuthill_mckee

# pivots below this fraction of the largest diagonal entry are treated as
# factorization failures; callers opt into jitter explicitly
PIVOT_REL_TOL = 1e-13

# a sample is unobserved when its unobserved dimension reaches this value: a
# direction the data determine adds about sigma_post / sigma_d (near 0) to
# it, a direction left to the prior about 1, so 0.5 splits the two
UNOBSERVED_TOL = 0.5


class EstimatorError(ValueError):
    pass


class NotPositiveDefiniteError(EstimatorError):
    def __init__(self, pivot_index, message=None):
        self.pivot_index = pivot_index
        super().__init__(message or f"matrix is not positive definite (pivot {pivot_index})")


class RankDeficiencyError(EstimatorError):
    def __init__(self, deficiency, message=None):
        self.deficiency = deficiency
        super().__init__(
            message or f"stacked system is rank deficient: {deficiency} unconstrained direction(s)"
        )


# ---------------------------------------------------------------------------
# sparse SPD solver: fill-reducing permutation + banded Cholesky


class SparseCholeskySolver:
    """SPD solver with a cached fill-reducing permutation.

    The symbolic phase orders the matrix with reverse Cuthill-McKee, which
    confines the factor to a band of half-width ``bandwidth``, and lays out
    the block gathers of the selected inversion; it runs once per sparsity
    pattern. The numeric phase factorizes the permuted matrix in LAPACK lower
    band storage (``factorize_band``). Marginal variances come from the
    blocked Takahashi recurrence on that factor, at about the cost of one
    factorization and without forming an n x n array. Symbolic state is
    read-only after construction and shareable across workers; numeric
    factorizations are per-instance.
    """

    def __init__(self, pattern: sp.spmatrix, use_permutation=True):
        pattern = sp.csc_matrix(pattern)
        if pattern.shape[0] != pattern.shape[1]:
            raise EstimatorError("solver needs a square matrix")
        self.n = pattern.shape[0]
        if use_permutation and self.n > 1:
            self.perm = np.asarray(reverse_cuthill_mckee(pattern, symmetric_mode=True))
        else:
            self.perm = np.arange(self.n)
        self.iperm = np.empty_like(self.perm)
        self.iperm[self.perm] = np.arange(self.n)
        coo = pattern.tocoo()
        rows = self.iperm[coo.row]
        cols = self.iperm[coo.col]
        self.bandwidth = int(np.max(np.abs(rows - cols))) if coo.nnz else 0
        self._blocks = _takahashi_blocks(self.n, self.bandwidth)
        self._band = None
        self._factor = None
        self.min_pivot_ratio = None

    def factorize(self, matrix: sp.spmatrix, jitter=0.0):
        """Numeric factorization; raises on non-SPD input unless jittered.

        ``jitter`` is an explicit opt-in diagonal addition (absolute).
        Reported pivot indices refer to the caller's (unpermuted) ordering.
        """
        matrix = sp.csc_matrix(matrix)
        if matrix.shape != (self.n, self.n):
            raise EstimatorError("matrix shape does not match the symbolic pattern")
        coo = matrix.tocoo()
        rows = self.iperm[coo.row]
        cols = self.iperm[coo.col]
        keep = rows >= cols  # lower triangle of the permuted matrix
        r, c, v = rows[keep], cols[keep], coo.data[keep]
        bw = int(np.max(r - c)) if r.size else 0
        if bw > self.bandwidth:
            raise EstimatorError("matrix has entries outside the symbolic pattern")
        ab = np.zeros((self.bandwidth + 1, self.n))
        np.add.at(ab, (r - c, c), v)
        if jitter:
            ab[0] += jitter
        return self.factorize_band(ab)

    def factorize_band(self, ab):
        """Numeric factorization of the permuted matrix in lower band storage.

        ``ab[i - j, j]`` holds entry (i, j) of the permuted matrix, for
        ``0 <= i - j <= bandwidth``. The band is kept, unfactored, for the
        refinement step of ``solve``. Reported pivot indices refer to the
        caller's (unpermuted) ordering; ``min_pivot_ratio`` is the smallest
        squared pivot over the largest diagonal entry.
        """
        if ab.shape != (self.bandwidth + 1, self.n):
            raise EstimatorError("band shape does not match the symbolic pattern")
        max_diag = np.max(ab[0]) if self.n else 0.0
        factor, info = dpbtrf(ab, lower=1)
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal pbtrf")
        if info > 0:  # the leading minor of order info is not positive definite
            raise NotPositiveDefiniteError(
                int(self.perm[info - 1]), f"{info}-th leading minor not positive definite"
            )
        pivots = factor[0] ** 2
        small = pivots < PIVOT_REL_TOL * max_diag
        if np.any(small):
            raise NotPositiveDefiniteError(int(self.perm[int(np.argmax(small))]))
        self._band = ab
        self._factor = factor
        self.min_pivot_ratio = float(np.min(pivots) / max_diag) if self.n else 1.0
        return self

    def solve(self, rhs, refine_steps=1):
        """Banded triangular solves plus iterative refinement.

        One refinement pass restores dense-solve accuracy on badly scaled
        systems (the precision matrices here mix weights across many orders
        of magnitude). ``rhs`` is one vector; the residual is a symmetric
        band product with the unfactored band.
        """
        if self._factor is None:
            raise EstimatorError("factorize() must run before solve()")
        b = np.asarray(rhs, dtype=float)[self.perm]
        x = cho_solve_banded((self._factor, True), b, check_finite=False)
        for _ in range(refine_steps):
            residual = b - dsbmv(self.bandwidth, 1.0, self._band, x, lower=1)
            x = x + cho_solve_banded((self._factor, True), residual, check_finite=False)
        return x[self.iperm]

    def marginal_variances(self, indices):
        """Diagonal entries of the inverse for the requested indices.

        Blocked Takahashi recurrence (Takahashi, Fagan & Chen, 1973; Rue &
        Held, 2005, section 2.3) on the band factor ``L``. With blocks of
        ``max(bandwidth, 1)`` columns ``L`` is block lower-bidiagonal, so the
        inverse ``S`` satisfies, from the last block upward,
        ``S[k+1, k] = -S[k+1, k+1] L[k+1, k] W`` and
        ``S[k, k] = W^T (W - L[k+1, k]^T S[k+1, k])`` with ``W = L[k, k]^-1``.
        Every diagonal block is computed, whatever the indices.
        """
        if self._factor is None:
            raise EstimatorError("factorize() must run before marginal_variances()")
        indices = np.atleast_1d(np.asarray(indices, dtype=int))
        flat = np.append(self._factor.ravel(), 0.0)  # the gathers read outside the band as this zero
        diag = np.empty(self.n)
        below = None  # S[k+1, k+1]
        for c0, diag_gather, sub_gather in reversed(self._blocks):
            inv_diag, info = dtrtri(flat[diag_gather], lower=1)
            if info:
                raise EstimatorError(f"singular factor block at column {c0 + info - 1}")
            if sub_gather is None:
                block = inv_diag.T @ inv_diag
            else:
                sub = flat[sub_gather]
                cross = -below @ (sub @ inv_diag)
                block = inv_diag.T @ (inv_diag - sub.T @ cross)
            diag[c0: c0 + block.shape[0]] = np.diagonal(block)
            below = block
        return diag[self.iperm[indices]]

    @property
    def factor_nnz(self) -> int:
        """Count of nonzero entries in the banded factor (actual fill)."""
        if self._factor is None:
            raise EstimatorError("factorize() must run first")
        return int(np.count_nonzero(self._factor))


def _takahashi_blocks(n, bandwidth):
    """Band-storage gathers of the blocks the selected inversion reads.

    Blocks are runs of ``max(bandwidth, 1)`` columns, the last one possibly
    shorter. For each block starting at column ``c0`` this returns
    ``(c0, diagonal gather, sub-diagonal gather)``: flat indices into the
    factor's band storage (entry (i, j) at ``(i - j) * n + j``) of the
    diagonal block and of the block below it (None for the last block).
    Positions outside the band point one past the band, where
    ``marginal_variances`` appends a zero.
    """
    width = max(bandwidth, 1)
    outside = (bandwidth + 1) * n
    blocks = []
    for c0 in range(0, n, width):
        m = min(width, n - c0)
        cols = c0 + np.arange(m)
        offset = np.arange(m)[:, None] - np.arange(m)
        diag_gather = np.where(offset >= 0, offset * n + cols, outside)
        m_below = min(width, n - c0 - m)
        sub_gather = None
        if m_below:
            offset = m + np.arange(m_below)[:, None] - np.arange(m)
            sub_gather = np.where(offset <= bandwidth, offset * n + cols, outside)
        blocks.append((c0, diag_gather, sub_gather))
    return blocks


def sparse_cholesky_solve(matrix, rhs, solver: SparseCholeskySolver | None = None):
    """One-shot permuted SPD solve; pass a solver to reuse the permutation."""
    if solver is None:
        solver = SparseCholeskySolver(matrix)
    solver.factorize(matrix)
    return solver.solve(rhs)


# ---------------------------------------------------------------------------
# beliefs and problems


@dataclass
class GaussianBelief:
    """Posterior mean plus the factorized precision it came from."""

    mean: np.ndarray
    solver: SparseCholeskySolver = field(repr=False)

    def marginal_variance(self, indices):
        return self.solver.marginal_variances(indices)


def _as_diag_variances(value, dim, label):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise EstimatorError(f"{label} must be a scalar or length-{dim} vector")
    if np.any(arr <= 0):
        raise EstimatorError(f"{label} entries must be positive")
    return arr


@dataclass
class MapProblem:
    """All terms of one estimation instance.

    Variances are diagonal, given as scalars or vectors:
    ``sigma_D`` weights the constraint rows (model confidence),
    ``sigma_y`` the measurement rows, and (``mu_d``, ``sigma_d``) is the
    mandatory regularizing prior.
    """

    D: sp.spmatrix
    b_D: np.ndarray
    Y: sp.spmatrix
    b_Y: np.ndarray
    y: np.ndarray
    sigma_D: np.ndarray | float = 1e-4
    sigma_y: np.ndarray | float = 1e-3
    mu_d: np.ndarray | float = 0.0
    sigma_d: np.ndarray | float = 1e4

    def __post_init__(self):
        self.D = sp.csc_matrix(self.D)
        self.Y = sp.csc_matrix(self.Y)
        dim = self.dim_d
        if self.Y.shape[1] != dim:
            raise EstimatorError("D and Y column counts disagree")
        self.b_D = np.asarray(self.b_D, dtype=float)
        self.b_Y = np.asarray(self.b_Y, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.b_D.shape != (self.D.shape[0],):
            raise EstimatorError("b_D does not match D")
        if self.b_Y.shape != (self.Y.shape[0],) or self.y.shape != (self.Y.shape[0],):
            raise EstimatorError("b_Y / y do not match Y")
        self.sigma_D = _as_diag_variances(self.sigma_D, self.D.shape[0], "sigma_D")
        self.sigma_y = _as_diag_variances(self.sigma_y, self.Y.shape[0], "sigma_y")
        self.sigma_d = _as_diag_variances(self.sigma_d, dim, "sigma_d")
        mu = np.asarray(self.mu_d, dtype=float)
        self.mu_d = np.full(dim, float(mu)) if mu.ndim == 0 else mu

    @property
    def dim_d(self) -> int:
        return self.D.shape[1]


def _ones_like_pattern(mat):
    out = sp.csc_matrix(mat, copy=True)
    out.data = np.ones_like(out.data)
    return out


def structural_pattern(problem: "MapProblem") -> sp.csc_matrix:
    """Union sparsity pattern of the posterior precision.

    Numeric assembly can produce exact zeros at special states (identity
    rotations), which sparse arithmetic prunes; a symbolic factorization
    built from such a collapsed pattern would not cover generic states.
    Replacing values by ones makes every structural product positive, so the
    returned pattern is the state-independent superset.
    """
    d1 = _ones_like_pattern(problem.D)
    y1 = _ones_like_pattern(problem.Y)
    dim = problem.dim_d
    return (d1.T @ d1 + y1.T @ y1 + sp.identity(dim, format="csc")).tocsc()


class PrecisionPlan:
    """Posterior precision band and right-hand side from a fixed index plan.

    ``D`` and ``Y`` keep one CSC layout from sample to sample, stored zeros
    included, so every entry of the posterior precision is a fixed sum of
    products ``M[r, i] M[r, j] / sigma[r]`` over the rows of the stacked
    ``M = [D; Y]``. Once per pattern the plan lists, for each pair of stored
    entries that share a row and land in the lower band of the permuted
    precision, the two entries, the row and the band slot. A sample then
    costs one gather and one ``np.bincount``. ``MapProblem``'s shape and
    variance checks run once, on the problem the plan is built from; the
    solver is built from that problem's structural pattern.

    A non-finite reading is missing: its row gets zero weight for that sample
    and adds nothing to the right-hand side.
    """

    def __init__(self, problem: MapProblem):
        self.solver = solver = SparseCholeskySolver(structural_pattern(problem))
        mat_d, mat_y = problem.D, problem.Y
        n_rows = mat_d.shape[0] + mat_y.shape[0]
        rows = np.concatenate([mat_d.indices, mat_y.indices + mat_d.shape[0]])
        cols = np.concatenate([_csc_columns(mat_d), _csc_columns(mat_y)])
        # every ordered pair (a, b) of stored entries in one row: each entry a
        # repeats once per entry of its row, and b runs over that row
        order = np.argsort(rows, kind="stable")  # entries grouped by row
        per_row = np.bincount(rows, minlength=n_rows)
        row_start = np.cumsum(per_row) - per_row
        count = per_row[rows[order]]
        a = np.repeat(order, count)
        within_row = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        b = order[np.repeat(row_start[rows[order]], count) + within_row]
        pa, pb = solver.iperm[cols[a]], solver.iperm[cols[b]]
        lower = pa >= pb
        # native-width indices: gathers with int32 ones took about twice as long
        self._a = a[lower]
        self._b = b[lower]
        self._slot = ((pa - pb) * solver.n + pb)[lower].astype(np.intp)
        self._rows = rows
        self._cols = cols
        self._nnz = (mat_d.nnz, mat_y.nnz)
        self._inv_sigma_D = 1.0 / problem.sigma_D
        self._inv_sigma_y = 1.0 / problem.sigma_y
        self._prior_diag = (1.0 / problem.sigma_d)[solver.perm]
        self._prior_rhs = problem.mu_d / problem.sigma_d

    def terms(self, mat_d, b_d, mat_y, b_y, y):
        """(band, rhs) of the posterior at one sample.

        ``band`` is the permuted precision in the solver's lower band storage,
        ready for ``solver.factorize_band``; ``rhs`` is in the caller's
        ordering. ``mat_d`` and ``mat_y`` must have the plan's CSC layout.
        """
        if (mat_d.nnz, mat_y.nnz) != self._nnz:
            raise EstimatorError("D or Y does not have the sparsity layout the plan was built for")
        y = np.asarray(y, dtype=float)
        missing = ~np.isfinite(y)
        weights = np.concatenate([self._inv_sigma_D, np.where(missing, 0.0, self._inv_sigma_y)])
        residual = np.concatenate([-np.asarray(b_d), np.where(missing, 0.0, y - b_y)])
        values = np.concatenate([mat_d.data, mat_y.data])
        weighted = values * weights[self._rows]
        solver = self.solver
        # bincount of no entries is an int64 array; a float one is not copied
        band = np.bincount(
            self._slot, weighted[self._a] * values[self._b], minlength=(solver.bandwidth + 1) * solver.n
        ).astype(float, copy=False).reshape(solver.bandwidth + 1, solver.n)
        band[0] += self._prior_diag
        rhs = self._prior_rhs + np.bincount(self._cols, weighted * residual[self._rows], minlength=solver.n)
        return band, rhs


def _csc_columns(mat):
    """Column index of every stored entry of a CSC matrix."""
    return np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr))


def unobserved_dimension(variances, sigma_d) -> float:
    """Directions of d that only the prior determines: ``n - gamma``.

    ``variances`` is the full diagonal of the posterior covariance and
    ``sigma_d`` the prior variances. ``gamma = n - sum_i S_ii / sigma_d_i``
    is the number of well-determined parameters (MacKay, *Bayesian
    interpolation*, Neural Computation, 1992): each direction the
    constraints and readings fix adds about 0 to the sum, each one they
    leave free adds about 1. A sample is unobserved when the value reaches
    ``UNOBSERVED_TOL``. Unless some direction is determined about as well by
    the data as by the prior (it then adds a fraction), ``round`` of the
    value is the rank deficiency of the stacked ``[Y; D]`` under that
    sample's readings.
    """
    return float(np.sum(variances / sigma_d))


def map_solve(problem: MapProblem) -> GaussianBelief:
    """Posterior mean of d given y, with the factorization for its marginals.

    Goes through the path ``estimate`` takes: a ``PrecisionPlan`` of the
    problem, its band and right-hand side, the band Cholesky. A non-finite
    reading is missing; a failing pivot raises ``NotPositiveDefiniteError``.
    """
    plan = PrecisionPlan(problem)
    band, rhs = plan.terms(problem.D, problem.b_D, problem.Y, problem.b_Y, problem.y)
    solver = plan.solver.factorize_band(band)
    return GaussianBelief(solver.solve(rhs), solver)


def shape_prior(problem: MapProblem) -> GaussianBelief:
    """Constraint-shaped prior over d: ``map_solve`` with no measurement rows."""
    dim = problem.dim_d
    return map_solve(MapProblem(
        problem.D, problem.b_D, sp.csc_matrix((0, dim)), np.zeros(0), np.zeros(0),
        sigma_D=problem.sigma_D, mu_d=problem.mu_d, sigma_d=problem.sigma_d,
    ))


# ---------------------------------------------------------------------------
# augmented solve with a linearized state (first-order expansion)


@dataclass
class AugmentedResult:
    belief: GaussianBelief
    dim_d: int
    dim_x: int

    @property
    def d_mean(self):
        return self.belief.mean[: self.dim_d]

    @property
    def x_mean(self):
        return self.belief.mean[self.dim_d:]


def map_solve_augmented(
    problem: MapProblem, mu_x, sigma_x, x_bar, d_bar, jacobians, validate=None
):
    """Joint MAP over (d, x) after first-order expansion around (d_bar, x_bar).

    ``jacobians`` is a callable returning (dbY, dbD): the derivatives w.r.t.
    the state x of Y(x) d_bar + b_Y(x) and D(x) d_bar + b_D(x) evaluated at
    (d_bar, x_bar). The expansion turns the state into extra columns of the
    stacked system, with biases shifted by -J x_bar, a block prior
    [mu_d; mu_x] and block-diagonal prior covariance.

    This performs a single linearized solve. Outer re-linearization loops
    belong to the caller; the recommended default is 5 iterations or a
    relative step below 1e-8. Passing ``validate=build_system`` (the same
    callable handed to the jacobian implementation) cross-checks the
    supplied jacobians against central finite differences and raises on
    relative disagreement above 1e-5.
    """
    dby, dbd = jacobians(d_bar, x_bar)
    if validate is not None:
        fd_y, fd_d = finite_difference_bias_jacobians(validate, x_bar, d_bar)
        gap_y = np.abs(np.asarray(dby) - fd_y).max() / (1.0 + np.abs(fd_y).max())
        gap_d = np.abs(np.asarray(dbd) - fd_d).max() / (1.0 + np.abs(fd_d).max())
        if max(gap_y, gap_d) > 1e-5:
            raise EstimatorError(
                f"jacobian callbacks disagree with finite differences ({max(gap_y, gap_d):.2e})"
            )
    dby = np.asarray(dby, dtype=float)
    dbd = np.asarray(dbd, dtype=float)
    dim_d = problem.dim_d
    dim_x = np.asarray(mu_x).size
    if dby.shape != (problem.Y.shape[0], dim_x) or dbd.shape != (problem.D.shape[0], dim_x):
        raise EstimatorError("jacobian callback shapes do not match the system")

    x_bar = np.asarray(x_bar, dtype=float)
    aug = MapProblem(
        D=sp.hstack([problem.D, sp.csc_matrix(dbd)]).tocsc(),
        b_D=problem.b_D - dbd @ x_bar,
        Y=sp.hstack([problem.Y, sp.csc_matrix(dby)]).tocsc(),
        b_Y=problem.b_Y - dby @ x_bar,
        y=problem.y,
        sigma_D=problem.sigma_D,
        sigma_y=problem.sigma_y,
        mu_d=np.concatenate([problem.mu_d, np.asarray(mu_x, dtype=float)]),
        sigma_d=np.concatenate(
            [problem.sigma_d, _as_diag_variances(sigma_x, dim_x, "sigma_x")]
        ),
    )
    belief = map_solve(aug)
    return AugmentedResult(belief, dim_d, dim_x)


def complex_step_bias_jacobians(build_system, x_bar, d_bar, step=1e-20):
    """Machine-precision state Jacobians of the stacked biases.

    ``build_system(x)`` must return (Y, b_Y, D, b_D) assembled at state x
    and accept complex-valued x (all assembly in this package does). The
    complex-step derivative of Y(x) d_bar + b_Y(x) and D(x) d_bar + b_D(x)
    is exact to rounding and never suffers subtractive cancellation.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    d_bar = np.asarray(d_bar, dtype=float)
    dim_x = x_bar.size
    cols_y, cols_d = [], []
    for k in range(dim_x):
        x = x_bar.astype(complex)
        x[k] += 1j * step
        ymat, by, dmat, bd = build_system(x)
        cols_y.append(np.imag(ymat @ d_bar + by) / step)
        cols_d.append(np.imag(dmat @ d_bar + bd) / step)
    return np.column_stack(cols_y), np.column_stack(cols_d)


def finite_difference_bias_jacobians(build_system, x_bar, d_bar, step=1e-6):
    """Central finite differences of the stacked biases (validation oracle)."""
    x_bar = np.asarray(x_bar, dtype=float)
    d_bar = np.asarray(d_bar, dtype=float)
    cols_y, cols_d = [], []
    for k in range(x_bar.size):
        xp = x_bar.copy()
        xm = x_bar.copy()
        xp[k] += step
        xm[k] -= step
        yp, byp, dp, bdp = build_system(xp)
        ym, bym, dm, bdm = build_system(xm)
        cols_y.append(((yp @ d_bar + byp) - (ym @ d_bar + bym)) / (2 * step))
        cols_d.append(((dp @ d_bar + bdp) - (dm @ d_bar + bdm)) / (2 * step))
    return np.column_stack(cols_y), np.column_stack(cols_d)
