"""Closed-form oracles the tests compare the package against.

Dense and slow on purpose: each restates a result in its textbook form,
independent of the batched recursions in ``mapdyn.dynamics`` and of the
sparse Cholesky path in ``mapdyn.estimator``. The precision terms are the
sparse products ``PrecisionPlan`` replaces.

The one-sample helpers after them go through the package's own path
(``kinematic_sweep``, ``assemble_values``, ``factorize_blocks``) and hand
one sample's sparse matrices to tests that compare against them.
``repr_csv_lines`` is the per-float reference for ``mapdyn.floatrepr``.
"""

import numpy as np
import scipy.sparse as sp

from mapdyn.dynamics import ConstraintAssembler, DynLayout, kinematic_sweep, sample_chunks
from mapdyn.estimator import EstimatorError, MapProblem, RankDeficiencyError, SparseCholeskySolver
from mapdyn.sensors import assemble_system
from mapdyn.spatial import (
    GRAVITY_SPATIAL,
    HomTransform,
    adjoint_force,
    adjoint_motion,
    rotation_about_axis,
    skew,
)


def cross_motion_matrix(v):
    """6x6 cross operator of a motion vector acting on motion vectors."""
    v = np.asarray(v)
    m = np.zeros((6, 6), dtype=v.dtype)
    w = skew(v[3:])
    m[:3, :3] = w
    m[:3, 3:] = skew(v[:3])
    m[3:, 3:] = w
    return m


def cross_force_matrix(v):
    """6x6 dual cross operator acting on force vectors.

    Equals the negative transpose of :func:`cross_motion_matrix`.
    """
    v = np.asarray(v)
    m = np.zeros((6, 6), dtype=v.dtype)
    w = skew(v[3:])
    m[:3, :3] = w
    m[3:, :3] = skew(v[:3])
    m[3:, 3:] = w
    return m


def joint_transform(joint, q):
    """Pose of the joint's child link in the parent frame at angle q."""
    return HomTransform(joint.origin.rotation @ rotation_about_axis(joint.axis, q), joint.origin.translation)


def link_poses_4x4(model, q):
    """Per-link 4x4 homogeneous poses in base coordinates, composed link by link."""
    poses = [np.eye(4)]
    for i in range(1, model.n_moving + 1):
        h = joint_transform(model.joint_of(i), q[i - 1])
        step = np.eye(4)
        step[:3, :3] = h.rotation
        step[:3, 3] = h.translation
        poses.append(poses[model.parent[i]] @ step)
    return poses


def rnea_one_sample(model, q, qd, qdd, fx_base=None):
    """Recursive Newton-Euler for one sample, link by link (Featherstone, 2008, table 5.1).

    Returns d with every slot filled, as ``mapdyn.dynamics.rnea`` does, with
    gravity on through the base acceleration.
    """
    n = model.n_moving
    fx_base = np.zeros((n, 6)) if fx_base is None else np.asarray(fx_base, dtype=float)
    pose = [HomTransform.identity()] + [None] * n
    xs, x0f = [None] * (n + 1), [None] * (n + 1)
    v, a = [np.zeros(6)] * (n + 1), [-GRAVITY_SPATIAL] + [None] * n
    s = [None] * (n + 1)
    for i in range(1, n + 1):
        joint = model.joint_of(i)
        h = joint_transform(joint, q[i - 1])
        pose[i] = pose[model.parent[i]] @ h
        xs[i] = adjoint_motion(h.inverse())
        x0f[i] = adjoint_force(pose[i].inverse())
        s[i] = np.concatenate([np.zeros(3), joint.axis])
        v[i] = xs[i] @ v[model.parent[i]] + s[i] * qd[i - 1]
        a[i] = xs[i] @ a[model.parent[i]] + s[i] * qdd[i - 1] + cross_motion_matrix(v[i]) @ (s[i] * qd[i - 1])
    fb, f = [None] * (n + 1), [None] * (n + 1)
    for i in range(n, 0, -1):
        inertia = model.inertia_of(i).matrix()
        fb[i] = inertia @ a[i] + cross_force_matrix(v[i]) @ (inertia @ v[i])
        f[i] = fb[i] - x0f[i] @ fx_base[i - 1]
        for c in model.children[i]:
            f[i] = f[i] + xs[c].T @ f[c]
    layout = DynLayout(model)
    d = np.zeros(layout.size)
    for i in range(1, n + 1):
        d[layout.a(i)] = a[i]
        d[layout.net_force(i)] = fb[i]
        d[layout.joint_force(i)] = f[i]
        d[layout.tau(i)] = s[i] @ f[i]
        d[layout.fx(i)] = fx_base[i - 1]
        d[layout.ddq(i)] = qdd[i - 1]
    return d


def gls_solve(a, b, weights):
    """Generalized least squares x = (A^T W A)^{-1} A^T W b.

    ``weights`` is the SPD weight matrix W given as a vector of diagonal
    entries, a list of per-block diagonal vectors matching row blocks of A,
    or a full dense matrix.
    """
    dense = a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if isinstance(weights, (list, tuple)):
        weights = np.concatenate([np.asarray(w, dtype=float).ravel() for w in weights])
    weights = np.asarray(weights, dtype=float)
    if weights.ndim == 1:
        if weights.shape[0] != dense.shape[0]:
            raise EstimatorError("diagonal weight length must match the row count")
        atw = dense.T * weights
    else:
        atw = dense.T @ weights
    normal = atw @ dense
    rank = np.linalg.matrix_rank(dense)
    if rank < dense.shape[1]:
        raise RankDeficiencyError(dense.shape[1] - rank)
    return np.linalg.solve(normal, atw @ b)


def stacked_rank_deficiency(problem: MapProblem, keep=None) -> int:
    """Column-rank deficiency of the stacked [Y; D] by a dense SVD.

    ``keep`` selects the measurement rows that count (all by default), as a
    missing reading drops its row from one sample.
    """
    mat_y = problem.Y if keep is None else problem.Y[np.flatnonzero(keep)]
    stack = sp.vstack([mat_y, problem.D]).toarray()
    return problem.dim_d - int(np.linalg.matrix_rank(stack))


def _weighted(mat, variances):
    return mat.T @ sp.diags(1.0 / variances)


def prior_precision_terms(problem: MapProblem):
    """(precision, rhs) of the constraint-shaped prior, by sparse products."""
    wd = _weighted(problem.D, problem.sigma_D)
    precision = (wd @ problem.D + sp.diags(1.0 / problem.sigma_d)).tocsc()
    rhs = problem.mu_d / problem.sigma_d - wd @ problem.b_D
    return precision, rhs


def posterior_precision_terms(problem: MapProblem):
    """(precision, rhs) of the posterior: the prior terms plus the readings'."""
    prior_precision, prior_rhs = prior_precision_terms(problem)
    wy = _weighted(problem.Y, problem.sigma_y)
    precision = (prior_precision + wy @ problem.Y).tocsc()
    rhs = prior_rhs + wy @ (problem.y - problem.b_Y)
    return precision, rhs


def map_as_gls(problem: MapProblem):
    """The MAP mean through the explicit stacked weighted least squares.

    Stacks [D; Y; I] against [-b_D; y - b_Y; mu_d] with block weights
    (1/sigma_D, 1/sigma_y, 1/sigma_d). The constraint target enters with a
    minus sign since the constraint reads D d + b_D = 0.
    """
    dim = problem.dim_d
    a = sp.vstack([problem.D, problem.Y, sp.identity(dim, format="csc")])
    b = np.concatenate([-problem.b_D, problem.y - problem.b_Y, problem.mu_d])
    w = np.concatenate([1.0 / problem.sigma_D, 1.0 / problem.sigma_y, 1.0 / problem.sigma_d])
    return gls_solve(a, b, w)


def lmmse_forms_check(c, sigma_x, sigma_e, mu_x, y):
    """Both algebraic forms of the linear-regressor Gaussian estimator.

    Returns ((mean_1, cov_1), (mean_2, cov_2)): the innovation/gain form and
    its information-form rewrite obtained through the matrix-inversion
    identities. The two agree to rounding whenever both inner inverses
    exist.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    m, n = c.shape
    sigma_x = np.asarray(sigma_x, dtype=float)
    sigma_e = np.asarray(sigma_e, dtype=float)
    if sigma_x.ndim == 1:
        sigma_x = np.diag(sigma_x)
    if sigma_e.ndim == 1:
        sigma_e = np.diag(sigma_e)
    mu_x = np.asarray(mu_x, dtype=float).reshape(n)
    y = np.asarray(y, dtype=float).reshape(m)

    s = c @ sigma_x @ c.T + sigma_e
    gain = sigma_x @ c.T @ np.linalg.inv(s)
    mean1 = mu_x + gain @ (y - c @ mu_x)
    cov1 = sigma_x - gain @ c @ sigma_x

    info = np.linalg.inv(sigma_x) + c.T @ np.linalg.inv(sigma_e) @ c
    cov2 = np.linalg.inv(info)
    mean2 = cov2 @ (c.T @ np.linalg.inv(sigma_e) @ y + np.linalg.solve(sigma_x, mu_x))
    return (mean1, cov1), (mean2, cov2)


def finite_difference_bias_jacobians(build_system, x_bar, d_bar, step=1e-6):
    """Central finite differences of the stacked biases, to check ``complex_step_bias_jacobians`` against."""
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


def max_constraint_residual(scenario, truth) -> float:
    """Worst relative constraint residual ``|D d + b_D|`` across a ground-truth series."""
    assembler = ConstraintAssembler(scenario.model)
    worst = 0.0
    for chunk in sample_chunks(truth.times.size):
        values, b = assembler.assemble_values(kinematic_sweep(scenario.model, truth.q[chunk], truth.qd[chunk]))
        for row, b_k, d_k in zip(values, b, truth.d[chunk]):
            res = np.abs(assembler.matrix(row) @ d_k + b_k).max()
            worst = max(worst, res / (1.0 + np.abs(d_k).max()))
    return worst


# ---------------------------------------------------------------------------
# one-sample helpers over the package's path


def one_state(assembler, q, qd):
    """(matrix, bias) of one assembler at one state, from its own kinematic sweep."""
    values, b = assembler.assemble_values(kinematic_sweep(assembler.model, q, qd))
    return assembler.matrix(values[0]), b[0]


def one_state_system(casm, masm, q, qd):
    """(D, b_D, Y, b_Y) at one state, from ``assemble_system``'s stack of one sample."""
    values_d, b_d, values_y, b_y = assemble_system(casm, masm, q, qd)
    return casm.matrix(values_d[0]), b_d[0], masm.matrix(values_y[0]), b_y[0]


def block_values(solver, matrix):
    """A sparse symmetric matrix in the solver's block storage, by a plain scatter.

    The entries of the permuted lower triangle go to their ``solver.slots``;
    the result is one sample's values: ``[None]`` makes it a stack for
    ``solver.factorize_blocks``.
    """
    coo = sp.coo_matrix(matrix)
    rows, cols = solver.iperm[coo.row], solver.iperm[coo.col]
    lower = rows >= cols
    slots = solver.slots(rows[lower], cols[lower])
    if np.any(slots < 0):
        raise EstimatorError("matrix has entries outside the symbolic pattern")
    values = np.zeros(solver.size)
    np.add.at(values, slots, coo.data[lower])
    return values


def factorized(matrix):
    """A solver built on the pattern of a sparse SPD matrix, and the factor of
    its values: (solver, stack), the stack holding one sample."""
    coo = sp.coo_matrix(matrix)
    solver = SparseCholeskySolver(coo.row, coo.col, coo.shape[0])
    stack = block_values(solver, matrix)[None]
    solver.factorize_blocks(stack)
    return solver, stack


def repr_csv_lines(rows):
    """Numeric rows as CSV text, one Python ``repr`` per float64: what ``floatrepr.csv_lines`` must write."""
    return "".join(",".join(map(repr, row)) + "\r\n" for row in np.asarray(rows, dtype=float).tolist())
