"""Gaussian MAP estimation over the stacked dynamics constraints.

The posterior over the dynamic-variable vector d combines three information
sources: the sparse Newton-Euler constraints weighted by a model-confidence
covariance, the sensor readings weighted per channel, and a regularizing
Gaussian prior on d (mandatory: without it the constraint-only distribution
is degenerate). All solves go through a sparse permuted Cholesky
factorization whose fill-reducing permutation is computed once per sparsity
pattern and reused across time samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, get_lapack_funcs
from scipy.sparse.csgraph import reverse_cuthill_mckee

# pivots below this fraction of the largest diagonal entry are treated as
# factorization failures; callers opt into jitter explicitly
PIVOT_REL_TOL = 1e-13

DENSE_COVARIANCE_LIMIT = 200


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

    The symbolic phase orders the matrix with reverse Cuthill-McKee (a
    fill-reducing heuristic that confines the factor to a narrow band) and
    is computed once per sparsity pattern; the numeric phase factorizes the
    permuted matrix in banded storage through LAPACK. Symbolic state is
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
        self._factor = None
        self._matrix = None

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
        max_diag = np.max(ab[0]) if self.n else 0.0
        pbtrf, = get_lapack_funcs(("pbtrf",), (ab,))
        factor, info = pbtrf(ab, lower=1)
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal pbtrf")
        if info > 0:  # the leading minor of order info is not positive definite
            raise NotPositiveDefiniteError(
                int(self.perm[info - 1]), f"{info}-th leading minor not positive definite"
            )
        small = factor[0] ** 2 < PIVOT_REL_TOL * max_diag
        if np.any(small):
            raise NotPositiveDefiniteError(int(self.perm[int(np.argmax(small))]))
        self._factor = factor
        self._matrix = matrix
        return self

    def solve(self, rhs, refine_steps=1):
        """Banded triangular solves plus iterative refinement.

        One refinement pass restores dense-solve accuracy on badly scaled
        systems (the precision matrices here mix weights across many orders
        of magnitude).
        """
        if self._factor is None:
            raise EstimatorError("factorize() must run before solve()")
        rhs = np.asarray(rhs, dtype=float)
        out = cho_solve_banded((self._factor, True), rhs[self.perm], check_finite=False)
        x = out[self.iperm]
        for _ in range(refine_steps):
            residual = rhs - self._matrix @ x
            corr = cho_solve_banded((self._factor, True), residual[self.perm], check_finite=False)
            x = x + corr[self.iperm]
        return x

    def marginal_variances(self, indices):
        """Diagonal entries of the inverse for the requested indices.

        Each marginal costs one banded triangular solve: the squared norm of
        the corresponding column of the inverse Cholesky factor.
        """
        from scipy.linalg import solve_banded

        if self._factor is None:
            raise EstimatorError("factorize() must run before marginal_variances()")
        indices = np.atleast_1d(np.asarray(indices, dtype=int))
        rhs = np.zeros((self.n, indices.size))
        rhs[self.iperm[indices], np.arange(indices.size)] = 1.0
        z = solve_banded((self.bandwidth, 0), self._factor, rhs, check_finite=False)
        return np.einsum("ij,ij->j", z, z)

    @property
    def factor_nnz(self) -> int:
        """Count of nonzero entries in the banded factor (actual fill)."""
        if self._factor is None:
            raise EstimatorError("factorize() must run first")
        return int(np.count_nonzero(self._factor))


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
    """Mean plus either a dense covariance or a sparse precision."""

    mean: np.ndarray
    covariance: np.ndarray | None = None
    precision: sp.spmatrix | None = None
    solver: SparseCholeskySolver | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.covariance is None) == (self.precision is None):
            raise EstimatorError("exactly one of covariance/precision must be set")
        if self.covariance is not None:
            asym = np.max(np.abs(self.covariance - self.covariance.T)) if self.covariance.size else 0.0
            if asym > 1e-12 * (1.0 + np.max(np.abs(self.covariance))):
                raise EstimatorError("covariance must be symmetric")

    @property
    def has_covariance(self) -> bool:
        return self.covariance is not None

    def marginal_variance(self, indices):
        indices = np.atleast_1d(indices)
        if self.covariance is not None:
            return self.covariance[indices, indices]
        solver = self.solver
        if solver is None:
            solver = SparseCholeskySolver(self.precision).factorize(self.precision)
        return solver.marginal_variances(indices)

    def dense_covariance(self):
        if self.covariance is not None:
            return self.covariance
        if self.mean.size > DENSE_COVARIANCE_LIMIT:
            raise EstimatorError(
                f"dense covariance only materialized up to dim {DENSE_COVARIANCE_LIMIT}; "
                "use marginal_variance for large problems"
            )
        return np.linalg.inv(self.precision.toarray())


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

    def stacked_rank_deficiency(self) -> int:
        """Column-rank deficiency of the stacked [Y; D] system (dense SVD)."""
        stack = sp.vstack([self.Y, self.D]).toarray()
        return self.dim_d - int(np.linalg.matrix_rank(stack))

    def check_rank(self):
        deficiency = self.stacked_rank_deficiency()
        if deficiency > 0:
            raise RankDeficiencyError(deficiency)


def _weighted(mat, variances):
    return mat.T @ sp.diags(1.0 / variances)


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


def prior_precision_terms(problem: MapProblem):
    wd = _weighted(problem.D, problem.sigma_D)
    precision = (wd @ problem.D + sp.diags(1.0 / problem.sigma_d)).tocsc()
    rhs = problem.mu_d / problem.sigma_d - wd @ problem.b_D
    return precision, rhs


def shape_prior(problem: MapProblem, solver: SparseCholeskySolver | None = None) -> GaussianBelief:
    """Constraint-shaped prior over d (before the measurement update)."""
    precision, rhs = prior_precision_terms(problem)
    if solver is None:
        d1 = _ones_like_pattern(problem.D)
        pattern = (d1.T @ d1 + sp.identity(problem.dim_d, format="csc")).tocsc()
        solver = SparseCholeskySolver(pattern)
    solver.factorize(precision)
    return GaussianBelief(solver.solve(rhs), precision=precision, solver=solver)


def posterior_precision_terms(problem: MapProblem):
    prior_precision, prior_rhs = prior_precision_terms(problem)
    wy = _weighted(problem.Y, problem.sigma_y)
    precision = (prior_precision + wy @ problem.Y).tocsc()
    rhs = prior_rhs + wy @ (problem.y - problem.b_Y)
    return precision, rhs


def map_solve(problem: MapProblem, solver: SparseCholeskySolver | None = None) -> GaussianBelief:
    """Posterior mean and (sparse-precision) covariance of d given y.

    The posterior precision adds the measurement information to the shaped
    prior precision; the mean solves the corresponding normal equations via
    the permuted sparse Cholesky. A Cholesky failure triggers a rank
    diagnosis of the stacked system.
    """
    precision, rhs = posterior_precision_terms(problem)
    if solver is None:
        solver = SparseCholeskySolver(structural_pattern(problem))
    try:
        solver.factorize(precision)
    except NotPositiveDefiniteError:
        deficiency = problem.stacked_rank_deficiency()
        if deficiency > 0:
            raise RankDeficiencyError(deficiency) from None
        raise
    return GaussianBelief(solver.solve(rhs), precision=precision, solver=solver)


# ---------------------------------------------------------------------------
# incremental sensor fusion


@dataclass
class FusionStage:
    label: str
    precision: sp.spmatrix
    mean: np.ndarray | None
    marginal_variances: np.ndarray


def incremental_fusion(problem: MapProblem, groups, marginal_indices, labels=None):
    """Posterior precision after each measurement group, with marginals.

    ``groups`` is an ordered list of (Y_m, b_Y_m, sigma_m, y_m) tuples of
    statistically independent measurements; information adds one group at a
    time starting from the constraint-shaped prior precision. Groups with
    infinite variance contribute nothing. Returns one FusionStage per group
    plus the initial stage (label 'prior').
    """
    marginal_indices = np.asarray(marginal_indices)
    precision, rhs = prior_precision_terms(problem)
    stages = []

    def push(label, precision, rhs):
        solver = SparseCholeskySolver(precision).factorize(precision)
        mean = solver.solve(rhs)
        stages.append(
            FusionStage(label, precision, mean, solver.marginal_variances(marginal_indices))
        )

    push("prior", precision, rhs)
    for m, group in enumerate(groups):
        y_m, b_m, sigma_m, readings = group
        y_m = sp.csc_matrix(y_m)
        sigma_m = _as_diag_variances(sigma_m, y_m.shape[0], f"group {m} variances")
        finite = np.isfinite(sigma_m)
        if np.any(finite):
            yf = y_m[finite]
            wf = yf.T @ sp.diags(1.0 / sigma_m[finite])
            precision = (precision + wf @ yf).tocsc()
            rhs = rhs + wf @ (np.asarray(readings)[finite] - np.asarray(b_m)[finite])
        label = labels[m] if labels else f"group{m + 1}"
        push(label, precision, rhs)
    return stages


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
