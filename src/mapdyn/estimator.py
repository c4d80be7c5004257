"""Gaussian MAP estimation over the stacked dynamics constraints.

The posterior over the dynamic-variable vector d combines three information
sources: the sparse Newton-Euler constraints weighted by a model-confidence
covariance, the sensor readings weighted per channel, and a regularizing
Gaussian prior on d (mandatory: without it the constraint-only distribution
is degenerate). Constraints and readings form one system, the rows of
``M = [D; Y]``, each with one variance and one reading (0 on a constraint
row). Every posterior goes through one path, ``PrecisionPlan.posterior``:
the plan turns the values of M straight into the posterior precision, in the
block storage of ``SparseCholeskySolver``, through a precomputed product
plan, and the solver gives the mean and then the marginal variances.
``MapEstimator`` runs that path on a model's joint states and readings. The
solver eliminates d link block by link block: the precision couples a link
only to its parent and siblings, so a block elimination order without fill
exists, and every step is a small dense factorization or product, batched
over a stack of samples. A block Takahashi pass then writes the selected
inverse over the factor, which gives all marginal variances. The elimination order and the
plan are computed once per sparsity pattern and reused across time samples.
The same diagonal gives, per sample, the number of directions of d that the
constraints and readings leave undetermined (``unobserved_dimension``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from mapdyn.blas import cholesky_inverse
from mapdyn.dynamics import BLOCK_COLS, ConstraintAssembler
from mapdyn.sensors import MeasurementAssembler, assemble_system

if TYPE_CHECKING:
    import scipy.sparse as sp

# pivots below this fraction of the largest diagonal entry are treated as
# factorization failures
PIVOT_REL_TOL = 1e-13

# a sample is unobserved when its unobserved dimension reaches this value: a
# direction the data determine adds about sigma_post / sigma_d (near 0) to
# it, a direction left to the prior about 1, so 0.5 splits the two
UNOBSERVED_TOL = 0.5

# samples per stacked factorization in ``PrecisionPlan.posterior``: each
# sample's numbers do not depend on the stack, and a stack of 8 holds about
# 4.3 MB on the 48-DoF model
STACK = 8


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
# sparse SPD solver: block elimination over link blocks, batched over samples


class SparseCholeskySolver:
    """SPD solver by block Cholesky over link blocks, on a stack of samples.

    The columns split into ``BLOCK_COLS``-wide blocks, the link slices of d;
    any remaining columns form one trailing block (the state of an augmented
    solve). The symbolic phase runs once per sparsity pattern: it orders the
    blocks by least fill, then least degree, which on a link tree eliminates
    from the leaves inward without fill and any dense border last, and
    records the off-diagonal structure of each block column of the factor,
    fill included. Each block column is stored as one dense panel: the
    diagonal block on top of the blocks below it, in elimination order. A
    sample's values are the panels one after the other (``size`` entries),
    and a stack of samples is an array of shape (samples, size).

    The numeric phase works in place on a stack the caller holds, a
    C-contiguous float64 array: ``factorize_blocks`` runs, per block, a
    LAPACK Cholesky and triangular inverse for each sample
    (``blas.cholesky_inverse``), then batched products for the panel and the
    Schur updates. A panel's diagonal block keeps the inverse of its
    Cholesky factor, so ``solve`` is products only. ``selected_inverse``
    gives all marginal variances by the block Takahashi recurrence from the
    root to the leaves, which writes the selected inverse over the factor.
    The solver holds only the symbolic state, read-only after construction:
    one solver serves any number of stacks, and workers may share it.
    """

    def __init__(self, rows, cols, n):
        """The symbolic phase for an n x n matrix that stores entries at (rows, cols)."""
        self.n = n
        block_of = np.arange(n) // BLOCK_COLS
        n_blocks = -(-n // BLOCK_COLS)
        neighbours = [set() for _ in range(n_blocks)]
        coupled = np.unique(block_of[rows] * n_blocks + block_of[cols])
        for i, j in zip(*(part.tolist() for part in np.divmod(coupled, n_blocks))):
            if i != j:
                neighbours[i].add(j)
                neighbours[j].add(i)
        order, below = _block_elimination(neighbours, np.bincount(block_of, minlength=n_blocks))
        # the columns block by block in elimination order, each block's in its own order
        self.perm = np.argsort(np.argsort(order)[block_of], kind="stable")
        self.iperm = np.empty_like(self.perm)
        self.iperm[self.perm] = np.arange(n)
        self.widths = widths = np.bincount(block_of, minlength=n_blocks)[order]
        self.starts = np.cumsum(widths) - widths
        self.below = below
        # panel p holds block p, then the blocks below it: first_row[p, q] is
        # the first row of block q in panel p, -1 where the factor has none
        self._first_row = np.full((n_blocks, n_blocks), -1, dtype=np.intp)
        heights = np.empty(n_blocks, dtype=np.intp)
        for p in range(n_blocks):
            self._first_row[p, p] = 0
            heights[p] = widths[p]
            for q in below[p]:
                self._first_row[p, q] = heights[p]
                heights[p] += widths[q]
        self._offsets = np.concatenate([[0], np.cumsum(heights * widths)]).astype(np.intp)
        self.size = int(self._offsets[-1])
        self._block_of = np.repeat(np.arange(n_blocks), widths)
        self.diag_slots = self.slots(np.arange(n), np.arange(n))
        # per block, the permuted indices of the blocks below it, and the
        # slots of the covariance over them (block (q, r) with q after r
        # sits in panel r; the symmetric entry is read for q before r)
        self._below_index, self._covariance_gather = [], []
        for p in range(n_blocks):
            idx = np.flatnonzero(np.isin(self._block_of, below[p]))
            self._below_index.append(idx)
            self._covariance_gather.append(self.slots(np.maximum.outer(idx, idx), np.minimum.outer(idx, idx)))

    def slots(self, rows, cols):
        """Flat positions in a sample's values of entries (rows, cols) of the
        permuted matrix, ``rows >= cols``; -1 where the factor stores none."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        pr, pc = self._block_of[rows], self._block_of[cols]
        panel_row = self._first_row[pc, pr]
        flat = self._offsets[pc] + (panel_row + rows - self.starts[pr]) * self.widths[pc] + cols - self.starts[pc]
        return np.where(panel_row >= 0, flat, -1)

    def _panel(self, stack, p):
        width = self.widths[p]
        return stack[:, self._offsets[p]: self._offsets[p + 1]].reshape(stack.shape[0], -1, width)

    def _check(self, stack):
        """Raise unless ``stack`` is a stack the numeric phase can work on in place."""
        if not (isinstance(stack, np.ndarray) and stack.dtype == np.float64 and stack.ndim == 2
                and stack.shape[1] == self.size and stack.flags.c_contiguous):
            raise EstimatorError(f"the stack must be a C-contiguous float64 (samples, {self.size}) array")

    def factorize_blocks(self, stack):
        """Numeric factorization, in place, of a stack of matrices in the block storage.

        ``stack`` is a C-contiguous float64 (samples, ``size``) array of the
        lower triangles, at the ``slots``; the upper triangle of the diagonal
        blocks, which no slot names, holds zeros. Each sample is factorized
        on its own: a stack gives the same numbers as its samples one by one.
        Returns, per sample, the pivot ratio: the smallest squared pivot over
        the largest diagonal entry. Reported pivot indices refer to the
        caller's (unpermuted) ordering. A non-finite pivot (a NaN or
        infinite value, say from a non-finite state) fails as a small one does.
        """
        self._check(stack)
        max_diag = np.take(stack, self.diag_slots, axis=1).max(axis=1, initial=0.0)
        cholesky = cholesky_inverse()
        for p, width in enumerate(self.widths):
            panel = self._panel(stack, p)
            diag = panel[:, :width]
            failed = cholesky(diag)
            if failed is not None:
                k, order = failed
                raise self._failure(self.starts[p] + order - 1, k, len(stack))
            below = panel[:, width:]
            if below.shape[1]:
                below[:] = below @ diag.transpose(0, 2, 1)
                self._schur_update(stack, p, below)
        # the inverted factor's diagonal holds the reciprocal pivots
        pivots = 1.0 / np.take(stack, self.diag_slots, axis=1) ** 2
        failing = ~np.isfinite(pivots) | (pivots < PIVOT_REL_TOL * max_diag[:, None])
        if np.any(failing):
            k, i = np.argwhere(failing)[0]
            raise self._failure(i, k, len(stack))
        return pivots.min(axis=1, initial=np.inf) / max_diag

    def _failure(self, i, sample, n_samples):
        """The error for a failing pivot at permuted index i, in the caller's column."""
        column = int(self.perm[i])
        where = f", sample {sample} of {n_samples}" if n_samples > 1 else ""
        return NotPositiveDefiniteError(column, f"matrix is not positive definite (pivot {column}{where})")

    def _schur_update(self, stack, p, below):
        """Subtract block p's outer products from the panels below it."""
        widths, first_row = self.widths, self._first_row
        # rows of block q in ``below``, which starts at row widths[p] of the panel
        rows = {q: slice(first_row[p, q] - widths[p], first_row[p, q] - widths[p] + widths[q]) for q in self.below[p]}
        for j, q in enumerate(self.below[p]):
            target = self._panel(stack, q)
            for r in self.below[p][j:]:
                update = below[:, rows[r]] @ below[:, rows[q]].transpose(0, 2, 1)
                if r == q:
                    # the diagonal block: its upper triangle stays +0.0
                    # (x * 0.0 is +-0.0, and 0.0 - +-0.0 is 0.0), so the
                    # factor and its inverse have zeros there as LAPACK leaves it
                    update *= _lower_ones(widths[q])
                target[:, first_row[q, r]: first_row[q, r] + widths[r]] -= update

    def solve(self, stack, rhs):
        """Solve with the factor ``factorize_blocks`` left in ``stack``.

        ``rhs`` and the result are (samples, n), one right-hand side per
        sample, in the caller's ordering. Forward and backward substitution
        over the blocks, each a product with the inverted diagonal block and
        the panel below it.
        """
        self._check(stack)
        # np.take keeps every array C-ordered whatever the stack size, so each
        # sample's products see the same strides and round alike
        x = np.take(np.asarray(rhs, dtype=float).reshape(len(stack), self.n), self.perm, axis=1)
        for p, width in enumerate(self.widths):
            panel = self._panel(stack, p)
            seg = slice(self.starts[p], self.starts[p] + width)
            x[:, seg] = (panel[:, :width] @ x[:, seg, None])[..., 0]
            if self.below[p]:
                x[:, self._below_index[p]] -= (panel[:, width:] @ x[:, seg, None])[..., 0]
        for p in reversed(range(len(self.widths))):
            width = self.widths[p]
            panel = self._panel(stack, p)
            seg = slice(self.starts[p], self.starts[p] + width)
            if self.below[p]:
                below = np.take(x, self._below_index[p], axis=1)
                x[:, seg] -= (panel[:, width:].transpose(0, 2, 1) @ below[..., None])[..., 0]
            x[:, seg] = (panel[:, :width].transpose(0, 2, 1) @ x[:, seg, None])[..., 0]
        return np.take(x, self.iperm, axis=1)

    def selected_inverse(self, stack):
        """All (samples, n) marginal variances from the factor in ``stack``.

        Block Takahashi recurrence (Takahashi, Fagan & Chen, 1973; Lin et
        al., *SelInv*, 2011) from the last block to the first. With ``W`` the
        inverse of block k's Cholesky factor, ``L`` its panel below the
        diagonal and ``S`` the covariance over the blocks below it (already
        computed there), ``S[below, k] = -S L W`` and
        ``S[k, k] = W^T (W - L^T S[below, k])``. Both overwrite the panel,
        so ``stack`` then holds the selected inverse (the covariance at
        every slot), not the factor.
        """
        self._check(stack)
        variances = np.empty((len(stack), self.n))
        for p in reversed(range(len(self.widths))):
            width = self.widths[p]
            panel = self._panel(stack, p)
            inv = panel[:, :width]
            if self.below[p]:
                below = panel[:, width:]
                cross = -(np.take(stack, self._covariance_gather[p], axis=1) @ (below @ inv))
                block = inv.transpose(0, 2, 1) @ (inv - below.transpose(0, 2, 1) @ cross)
                below[:] = cross
            else:
                block = inv.transpose(0, 2, 1) @ inv
            inv[:] = block
            variances[:, self.starts[p]: self.starts[p] + width] = np.diagonal(block, axis1=1, axis2=2)
        return np.take(variances, self.iperm, axis=1)


@functools.cache
def _lower_ones(width):
    return np.tril(np.ones((width, width)))


def _block_elimination(neighbours, widths):
    """Block elimination order with the least fill, then the least degree.

    ``neighbours[k]`` is the set of blocks coupled to block k. Each step
    eliminates the block whose remaining neighbours lack the fewest
    couplings among themselves (the fill its elimination adds), then the
    one with the fewest variables among them, then the later block; its
    neighbours are joined. On a graph that some order eliminates without
    fill, such as a link tree whose siblings couple, a block without fill
    is always left, so the order adds none: leaves go first and a dense
    border last. Returns the order (block ids) and, per elimination
    position, the sorted positions of the later blocks in its column of the
    factor.
    """
    graph = [set(s) for s in neighbours]
    remaining = set(range(len(graph)))

    def cost(k):
        fill = sum(len(graph[k] - graph[c]) - 1 for c in graph[k])
        return fill, sum(widths[c] for c in graph[k]), -k

    order, reach = [], []
    while remaining:
        k = min(remaining, key=cost)
        remaining.remove(k)
        order.append(k)
        reach.append(graph[k])
        for c in graph[k]:
            graph[c] |= graph[k] - {c}
            graph[c].discard(k)
    position = {k: p for p, k in enumerate(order)}
    return order, [sorted(position[c] for c in r) for r in reach]


# ---------------------------------------------------------------------------
# posteriors and problems


class Posterior(NamedTuple):
    """Per sample of a stack: the mean (T, n), the requested marginal
    variances (T, marginals), the unobserved dimension (T,) and the pivot
    ratio (T,) (what ``SparseCholeskySolver.factorize_blocks`` returns).
    ``map_solve`` returns one sample's row: each field without the T axis."""

    mean: np.ndarray
    variances: np.ndarray
    unobserved: np.ndarray
    pivot_ratio: np.ndarray


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
        import scipy.sparse as sp  # only the sparse entry points need it

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

    def plan(self) -> PrecisionPlan:
        """The ``PrecisionPlan`` of this problem's sparsity layout and variances."""
        return PrecisionPlan(
            stacked_pattern(_csc_pattern(self.D), _csc_pattern(self.Y)),
            np.concatenate([self.sigma_D, self.sigma_y]), self.mu_d, self.sigma_d,
        )


class PrecisionPlan:
    """Posterior precision blocks and right-hand side from a fixed index plan.

    Row ``r`` of ``M = [D; Y]`` reads ``z_r = M[r] d + b_r`` with variance
    ``sigma[r]``: 0 on a constraint row, its channel's reading on a
    measurement row. M keeps one sparsity layout from sample to sample, so
    every entry of the posterior precision is a fixed sum of products
    ``M[r, i] M[r, j] / sigma[r]`` over the rows. Once per pattern the plan
    lists, for each pair of stored entries that share a row and land in the
    lower triangle of the permuted precision, the two entries, the row and
    the slot in the solver's block storage. A sample then costs one gather
    and one ``np.bincount``.

    ``pattern`` holds ``rows`` and ``cols``, the row and the column of each
    stored entry of M in the order of the values ``terms`` takes, and
    ``shape`` (``stacked_pattern`` makes it). ``variances`` has one entry
    per row; they and the prior are checked as in ``MapProblem``. The solver
    is built from the columns of all those pairs, the pattern of ``M^T M``:
    it holds every stored entry, zero or not, so it covers every state, and
    the prior adds only the diagonal.

    A non-finite reading is missing, whichever half its row lies in: the row
    gets zero weight for that sample and adds nothing to the right-hand
    side. A non-finite bias (from a non-finite joint velocity, say) is an
    ``EstimatorError`` naming its sample.
    """

    def __init__(self, pattern, variances, mu_d=0.0, sigma_d=1e4):
        rows, cols, (n_rows, dim) = pattern.rows, pattern.cols, pattern.shape
        # every ordered pair (a, b) of stored entries in one row: each entry a
        # repeats once per entry of its row, and b runs over that row
        order = np.argsort(rows, kind="stable")  # entries grouped by row
        per_row = np.bincount(rows, minlength=n_rows)
        row_start = np.cumsum(per_row) - per_row
        count = per_row[rows[order]]
        a = np.repeat(order, count)
        within_row = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        b = order[np.repeat(row_start[rows[order]], count) + within_row]
        self.solver = solver = SparseCholeskySolver(cols[a], cols[b], dim)
        pa, pb = solver.iperm[cols[a]], solver.iperm[cols[b]]
        lower = pa >= pb
        # native-width indices: gathers with int32 ones took about twice as long
        self._a = a[lower]
        self._b = b[lower]
        self._slot = solver.slots(pa[lower], pb[lower])
        self._rows = rows
        self._cols = cols
        self._inv_variances = 1.0 / _as_diag_variances(variances, n_rows, "variances")
        self._sigma_d = sigma_d = _as_diag_variances(sigma_d, dim, "sigma_d")
        self._prior_diag = (1.0 / sigma_d)[solver.perm]
        self._prior_rhs = np.broadcast_to(np.asarray(mu_d, dtype=float), (dim,)) / sigma_d
        self._stack = None  # the factor stack of ``posterior``, made at its first call

    def terms(self, values, b, z, out=None):
        """(values, rhs) of the posterior for a stack of samples.

        ``values`` is (T, nnz), the values of M in the order of the plan's
        pattern (what ``assemble_system`` fills), and ``b`` and ``z`` are
        (T, rows), the biases and the readings. The result ``values``
        (T, ``solver.size``) is the lower triangle of each sample's permuted
        precision in the solver's block storage, ready for
        ``solver.factorize_blocks``; it is written into ``out`` when given,
        so that a caller can reuse one stack. ``rhs`` (T, n) is in the
        caller's ordering. A sample's numbers do not depend on the rest of
        the stack.
        """
        if np.shape(values)[-1] != self._rows.size:
            raise EstimatorError("M does not have the sparsity layout the plan was built for")
        z = np.asarray(z, dtype=float)
        n_samples = z.shape[0]
        missing = ~np.isfinite(z)
        weights = np.where(missing, 0.0, self._inv_variances)
        residual = np.where(missing, 0.0, z - b)
        if not np.isfinite(residual).all():
            # a non-finite precision fails at its pivot in the factor; a finite
            # one would pass it and turn a non-finite bias into a NaN mean
            bad = ~np.isfinite(residual).all(axis=1) & np.isfinite(values).all(axis=1)
            if bad.any():
                raise EstimatorError(f"sample {np.flatnonzero(bad)[0]} of {n_samples}: b_D or b_Y is not finite")
        weighted = values * weights[:, self._rows]
        solver = self.solver
        blocks = np.empty((n_samples, solver.size)) if out is None else out
        rhs = np.empty((n_samples, solver.n))
        # one sample at a time: the pair products of a stack would take
        # several MB; np.take gathers faster than fancy indexing
        for k in range(n_samples):
            products = weighted[k].take(self._a) * values[k].take(self._b)
            blocks[k] = np.bincount(self._slot, products, minlength=solver.size)
            rhs[k] = np.bincount(self._cols, weighted[k] * residual[k].take(self._rows), minlength=solver.n)
        blocks[:, solver.diag_slots] += self._prior_diag
        rhs += self._prior_rhs
        return blocks, rhs

    def posterior(self, values, b, z, marginals=None) -> Posterior:
        """The ``Posterior`` of a stack of samples (the arrays ``terms`` takes).

        ``STACK`` samples at a time, in one reused buffer: ``terms``, the
        factorization, the solve for the mean, then the selected inverse,
        which overwrites the factor. ``marginals`` are the indices of d whose
        variances are returned, all when None; the unobserved dimension reads
        the whole diagonal. A failing pivot raises ``NotPositiveDefiniteError``.
        """
        solver, n_samples = self.solver, len(z)
        if self._stack is None:
            self._stack = np.empty((STACK, solver.size))
        marginals = np.arange(solver.n) if marginals is None else np.asarray(marginals)
        out = Posterior(np.empty((n_samples, solver.n)), np.empty((n_samples, marginals.size)),
                        np.empty(n_samples), np.empty(n_samples))
        for start in range(0, n_samples, STACK):
            batch = slice(start, min(start + STACK, n_samples))
            stack = self._stack[: batch.stop - start]
            _, rhs = self.terms(values[batch], b[batch], z[batch], out=stack)
            out.pivot_ratio[batch] = solver.factorize_blocks(stack)
            out.mean[batch] = solver.solve(stack, rhs)
            variances = solver.selected_inverse(stack)
            out.variances[batch] = variances[:, marginals]
            out.unobserved[batch] = unobserved_dimension(variances, self._sigma_d)
        return out


def stacked_pattern(d_pattern, y_pattern):
    """The pattern of ``M = [D; Y]``, as ``PrecisionPlan`` takes it, from D's and Y's (an assembler's
    ``BlockPattern`` or ``_csc_pattern``): D's entries and rows first, then Y's, as ``assemble_system`` fills M."""
    (n_rows_d, dim), (n_rows_y, dim_y) = d_pattern.shape, y_pattern.shape
    if dim_y != dim:
        raise EstimatorError("D and Y column counts disagree")
    return SimpleNamespace(
        rows=np.concatenate([d_pattern.rows, y_pattern.rows + n_rows_d]),
        cols=np.concatenate([d_pattern.cols, y_pattern.cols]),
        shape=(n_rows_d + n_rows_y, dim),
    )


def _csc_pattern(mat):
    """The rows, columns and shape of the stored entries of a CSC matrix, in data order."""
    cols = np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr))
    return SimpleNamespace(rows=mat.indices, cols=cols, shape=mat.shape)


def unobserved_dimension(variances, sigma_d):
    """Directions of d that only the prior determines: ``n - gamma``.

    ``variances`` is the full diagonal of the posterior covariance, or a
    stack of them (one value each), and ``sigma_d`` the prior variances.
    ``gamma = n - sum_i S_ii / sigma_d_i`` is the number of well-determined
    parameters (MacKay, *Bayesian interpolation*, Neural Computation, 1992):
    each direction the constraints and readings fix adds about 0 to the
    sum, each one they leave free adds about 1. A sample is unobserved when
    the value reaches
    ``UNOBSERVED_TOL``. Unless some direction is determined about as well by
    the data as by the prior (it then adds a fraction), ``round`` of the
    value is the rank deficiency of the stacked ``[D; Y]`` under that
    sample's readings.
    """
    u = np.sum(variances / sigma_d, axis=-1)
    return float(u) if u.ndim == 0 else u


class MapEstimator:
    """MAP estimates of a model's samples, through one kinematic sweep per call.

    Holds the constraint and measurement assemblers of ``model`` and the
    sensor ``specs``, and the ``PrecisionPlan`` of their stacked layout; the
    variances are as in ``MapProblem``, and ``marginals`` as in
    ``PrecisionPlan.posterior``. ``estimate`` takes (T, n_dof) joint angles
    and velocities and (T, channels) readings for any T, and a sample's
    numbers do not depend on T.
    """

    def __init__(self, model, specs, sigma_D=1e-4, sigma_d=1e4, mu_d=0.0, marginals=None):
        self.model = model
        self.constraints = ConstraintAssembler(model)
        self.measurements = MeasurementAssembler(model, specs)
        sigma_D = _as_diag_variances(sigma_D, self.constraints.n_rows, "sigma_D")
        self.plan = PrecisionPlan(stacked_pattern(self.constraints.pattern, self.measurements.pattern),
                                  np.concatenate([sigma_D, self.measurements.variances]), mu_d, sigma_d)
        self.marginals = marginals

    def estimate(self, q, qd, y) -> Posterior:
        values, b = assemble_system(self.constraints, self.measurements, q, qd)
        # the constraint rows read 0, the measurement rows y
        z = np.zeros(b.shape)
        z[:, self.constraints.n_rows:] = np.reshape(y, (len(z), self.measurements.dim))
        return self.plan.posterior(values, b, z, self.marginals)


def map_solve(problem: MapProblem) -> Posterior:
    """The ``Posterior`` row of d given y: mean and all marginal variances.

    ``PrecisionPlan.posterior`` of the problem's plan on a stack of one
    sample, the path ``estimate`` takes. A non-finite reading is missing; a
    non-finite bias raises ``EstimatorError``, a failing pivot
    ``NotPositiveDefiniteError``.
    """
    posterior = problem.plan().posterior(
        np.concatenate([problem.D.data, problem.Y.data])[None],
        np.concatenate([problem.b_D, problem.b_Y])[None],
        np.concatenate([np.zeros_like(problem.b_D), problem.y])[None],
    )
    return Posterior(*(field[0] for field in posterior))


def shape_prior(problem: MapProblem) -> Posterior:
    """Constraint-shaped prior over d: ``map_solve`` with no measurement rows."""
    import scipy.sparse as sp

    dim = problem.dim_d
    return map_solve(MapProblem(
        problem.D, problem.b_D, sp.csc_matrix((0, dim)), np.zeros(0), np.zeros(0),
        sigma_D=problem.sigma_D, mu_d=problem.mu_d, sigma_d=problem.sigma_d,
    ))


# ---------------------------------------------------------------------------
# augmented solve with a linearized state (first-order expansion)


@dataclass
class AugmentedResult:
    belief: Posterior  # the ``map_solve`` row over (d, x)
    dim_d: int
    dim_x: int

    @property
    def d_mean(self):
        return self.belief.mean[: self.dim_d]

    @property
    def x_mean(self):
        return self.belief.mean[self.dim_d:]


def map_solve_augmented(problem: MapProblem, mu_x, sigma_x, x_bar, d_bar, jacobians):
    """Joint MAP over (d, x) after first-order expansion around (d_bar, x_bar).

    ``jacobians`` is a callable returning (dbY, dbD): the derivatives w.r.t.
    the state x of Y(x) d_bar + b_Y(x) and D(x) d_bar + b_D(x) evaluated at
    (d_bar, x_bar). The expansion turns the state into extra columns of the
    stacked system, with biases shifted by -J x_bar, a block prior
    [mu_d; mu_x] and block-diagonal prior covariance.

    This performs a single linearized solve. Outer re-linearization loops
    belong to the caller; the recommended default is 5 iterations or a
    relative step below 1e-8.
    """
    dby, dbd = jacobians(d_bar, x_bar)
    dby = np.asarray(dby, dtype=float)
    dbd = np.asarray(dbd, dtype=float)
    dim_d = problem.dim_d
    dim_x = np.asarray(mu_x).size
    if dby.shape != (problem.Y.shape[0], dim_x) or dbd.shape != (problem.D.shape[0], dim_x):
        raise EstimatorError("jacobian callback shapes do not match the system")

    import scipy.sparse as sp

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
    return AugmentedResult(map_solve(aug), dim_d, dim_x)


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
