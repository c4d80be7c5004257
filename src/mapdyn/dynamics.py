"""Newton-Euler propagation and its sparse matrix-form constraints.

The stacked per-link unknown vector ``d`` holds, for each moving link i,
``[a_i(6), fB_i(6), f_i(6), tau_i(1), fx_i(6), ddq_i(1)]`` (26 entries with
the 1-DoF joint expansion). The two-pass recursion fills ``d``; the same
equations rearranged as a sparse linear system give ``D d + b_D = 0`` whose
residual on any recursion output is zero to rounding.

External forces are expressed in fixed-base (body 0) coordinates and enter
the force balance through the force adjoint of the base pose of each link.
Boundary conditions: the base has zero velocity and spatial acceleration
``-g`` (gravity trick), so gravity propagates automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from mapdyn.spatial import (
    GRAVITY_SPATIAL,
    adjoint_force,
    adjoint_motion,
    cross_force,
    cross_motion,
)
from mapdyn.model.kinematics import forward_kinematics, joint_transform
from mapdyn.model.tree import KinematicTreeModel, ModelError

BLOCK_COLS = 26  # per-link slice of d
BLOCK_ROWS = 19  # per-link constraint rows (6 accel + 6 net + 6 balance + 1 torque)

# offsets inside a link's 26-entry slice of d
OFF_A, OFF_FB, OFF_F, OFF_TAU, OFF_FX, OFF_DDQ = 0, 6, 12, 18, 19, 25


class DynLayout:
    """Index map into the stacked dynamic-variable vector d."""

    def __init__(self, model: KinematicTreeModel):
        self.model = model
        self.n_links = model.n_moving
        self.size = BLOCK_COLS * self.n_links

    def base_of(self, i: int) -> int:
        """Start of moving link i's slice (i is 1-based)."""
        return BLOCK_COLS * (i - 1)

    def a(self, i):
        return slice(self.base_of(i) + OFF_A, self.base_of(i) + OFF_A + 6)

    def net_force(self, i):
        return slice(self.base_of(i) + OFF_FB, self.base_of(i) + OFF_FB + 6)

    def joint_force(self, i):
        return slice(self.base_of(i) + OFF_F, self.base_of(i) + OFF_F + 6)

    def tau(self, i) -> int:
        return self.base_of(i) + OFF_TAU

    def fx(self, i):
        return slice(self.base_of(i) + OFF_FX, self.base_of(i) + OFF_FX + 6)

    def ddq(self, i) -> int:
        return self.base_of(i) + OFF_DDQ

    def tau_indices(self):
        return np.array([self.tau(i) for i in range(1, self.n_links + 1)])

    def ddq_indices(self):
        return np.array([self.ddq(i) for i in range(1, self.n_links + 1)])

    def fx_indices(self):
        starts = np.array([self.base_of(i) + OFF_FX for i in range(1, self.n_links + 1)])
        return (starts[:, None] + np.arange(6)).ravel()

    def a_indices(self):
        starts = np.array([self.base_of(i) + OFF_A for i in range(1, self.n_links + 1)])
        return (starts[:, None] + np.arange(6)).ravel()

    def column_names(self):
        names = []
        for i in range(1, self.n_links + 1):
            link = self.model.links[i].name
            joint = self.model.joint_of(i).name
            names += [f"acc_{link}_{c}" for c in ("lx", "ly", "lz", "ax", "ay", "az")]
            names += [f"netf_{link}_{c}" for c in ("fx", "fy", "fz", "mx", "my", "mz")]
            names += [f"jointf_{link}_{c}" for c in ("fx", "fy", "fz", "mx", "my", "mz")]
            names.append(f"tau_{joint}")
            names += [f"extf_{link}_{c}" for c in ("fx", "fy", "fz", "mx", "my", "mz")]
            names.append(f"ddq_{joint}")
        return names


@dataclass
class KinSweep:
    """Per-link kinematic quantities from the outward pass."""

    x_from_parent: list  # 6x6 motion adjoints, child <- parent coordinates
    x0_force: list       # 6x6 force adjoints, link <- base coordinates
    poses: list          # link poses in base coordinates (forward kinematics)
    v: list              # spatial velocities, body coordinates
    s: list              # 6x1 joint motion subspaces (constant)


def motion_subspace(joint):
    s = np.zeros(6)
    s[3:] = joint.axis
    return s


def kinematic_sweep(model, q, qd) -> KinSweep:
    q = np.asarray(q)
    qd = np.asarray(qd)
    dtype = np.result_type(q, qd, float)
    poses = forward_kinematics(model, q)
    n = model.n_moving
    xs = [None] * (n + 1)
    x0f = [None] * (n + 1)
    v = [np.zeros(6, dtype=dtype)] * (n + 1)
    s = [None] * (n + 1)
    for i in range(1, n + 1):
        joint = model.joint_of(i)
        h_parent_child = joint_transform(joint, q[i - 1])
        xs[i] = adjoint_motion(h_parent_child.inverse())
        x0f[i] = adjoint_force(poses[i].inverse())
        s[i] = motion_subspace(joint)
        v[i] = xs[i] @ v[model.parent[i]] + s[i] * qd[i - 1]
    return KinSweep(xs, x0f, poses, v, s)


def link_accelerations(model, sweep, qd, qdd, a0):
    """Forward recursion: spatial acceleration of every link, body coordinates.

    ``a0`` is the base acceleration: ``-GRAVITY_SPATIAL`` for the gravity
    trick, zeros for the true (gravity-free) acceleration.
    """
    n = model.n_moving
    a = [np.zeros(6)] * (n + 1)
    a[0] = a0
    for i in range(1, n + 1):
        vj = sweep.s[i] * qd[i - 1]
        a[i] = sweep.x_from_parent[i] @ a[model.parent[i]] + sweep.s[i] * qdd[i - 1] + cross_motion(
            sweep.v[i], vj
        )
    return a


def rnea(model, q, qd, qdd, fx_base=None, base_acc=None):
    """Two-pass inverse dynamics filling every slot of d.

    fx_base: optional (n_moving, 6) external force per link in base
    coordinates. base_acc defaults to -gravity (gravity on); pass zeros to
    switch gravity off.
    """
    n = model.n_moving
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    qdd = np.asarray(qdd, dtype=float)
    for arr, label in ((q, "q"), (qd, "qd"), (qdd, "qdd")):
        if arr.shape != (n,):
            raise ModelError(f"{label} must have length {n}, got {arr.shape}")
    if fx_base is None:
        fx_base = np.zeros((n, 6))
    else:
        fx_base = np.asarray(fx_base, dtype=float)
        if fx_base.shape != (n, 6):
            raise ModelError(f"fx_base must be ({n}, 6), got {fx_base.shape}")
    a0 = -GRAVITY_SPATIAL if base_acc is None else np.asarray(base_acc, dtype=float)

    sweep = kinematic_sweep(model, q, qd)
    layout = DynLayout(model)
    d = np.zeros(layout.size)

    a = link_accelerations(model, sweep, qd, qdd, a0)

    f = [np.zeros(6)] * (n + 1)
    fb = [np.zeros(6)] * (n + 1)
    for i in range(n, 0, -1):
        inertia = model.inertia_of(i).matrix()
        fb[i] = inertia @ a[i] + cross_force(sweep.v[i], inertia @ sweep.v[i])
        f[i] = fb[i] - sweep.x0_force[i] @ fx_base[i - 1]
        for c in model.children[i]:
            # parent <- child force adjoint: the transpose of the child's motion adjoint
            f[i] = f[i] + sweep.x_from_parent[c].T @ f[c]

    for i in range(1, n + 1):
        d[layout.a(i)] = a[i]
        d[layout.net_force(i)] = fb[i]
        d[layout.joint_force(i)] = f[i]
        d[layout.tau(i)] = sweep.s[i] @ f[i]
        d[layout.fx(i)] = fx_base[i - 1]
        d[layout.ddq(i)] = qdd[i - 1]
    return d


class BlockPattern:
    """Fixed sparsity pattern of a matrix assembled from dense blocks.

    Each block takes the next slice of the value vector, row-major, and all
    its entries are stored, zeros included. Constant blocks carry their
    values; the others are filled at each assembly. Block positions never
    overlap, so the COO -> CSC permutation is computed once.
    """

    def __init__(self):
        self._rows, self._cols, self._values = [], [], []
        self.nnz = 0

    def add(self, row0, col0, nr, nc, value=0.0):
        """Append an nr x nc block at (row0, col0); return its value slice."""
        r, c = np.divmod(np.arange(nr * nc), nc)
        self._rows.append(row0 + r)
        self._cols.append(col0 + c)
        self._values.append(np.empty(nr * nc))
        self._values[-1][:] = np.ravel(value)  # a scalar fills the whole block
        self.nnz += nr * nc
        return slice(self.nnz - nr * nc, self.nnz)

    def freeze(self, shape):
        """Fix the shape, the constant values and the CSC layout; no blocks may follow."""
        self.shape = shape
        self.values = np.concatenate(self._values)
        marker = sp.coo_matrix(
            (np.arange(self.nnz, dtype=np.int64), (np.concatenate(self._rows), np.concatenate(self._cols))),
            shape=shape,
        ).tocsc()
        self._source = marker.data  # csc slot k takes vals[source[k]]
        self._indices = marker.indices
        self._indptr = marker.indptr

    def csc(self, vals):
        """The CSC matrix whose stored entries are `vals`, in the order the blocks were added."""
        return sp.csc_matrix((vals[self._source], self._indices, self._indptr), shape=self.shape)


class ConstraintAssembler:
    """Sparse assembly of D d + b_D = 0 with a cached sparsity pattern.

    The pattern depends only on the topology; values depend on (q, qd).
    Assembly is pure per call, so distinct time samples can be processed in
    parallel from one shared assembler.
    """

    def __init__(self, model: KinematicTreeModel):
        self.model = model
        self.layout = DynLayout(model)
        self.n_rows = BLOCK_ROWS * model.n_moving
        self.n_cols = self.layout.size
        layout = self.layout
        pattern = BlockPattern()
        slots = {}  # name -> slice into the value vector, for the state-dependent blocks
        eye = np.eye(6)
        for i in range(1, model.n_moving + 1):
            r0 = self._row_base(i)
            c0 = layout.base_of(i)
            s = motion_subspace(model.joint_of(i))
            pattern.add(r0, c0 + OFF_A, 6, 6, -eye)
            pattern.add(r0, c0 + OFF_DDQ, 6, 1, s)
            if model.parent[i] != 0:
                slots[("Xlam", i)] = pattern.add(r0, layout.base_of(model.parent[i]) + OFF_A, 6, 6)
            pattern.add(r0 + 6, c0 + OFF_A, 6, 6, model.inertia_of(i).matrix())
            pattern.add(r0 + 6, c0 + OFF_FB, 6, 6, -eye)
            pattern.add(r0 + 12, c0 + OFF_FB, 6, 6, eye)
            pattern.add(r0 + 12, c0 + OFF_F, 6, 6, -eye)
            slots[("negX0", i)] = pattern.add(r0 + 12, c0 + OFF_FX, 6, 6)
            for c in model.children[i]:
                slots[("Xmu", i, c)] = pattern.add(r0 + 12, layout.base_of(c) + OFF_F, 6, 6)
            pattern.add(r0 + 18, c0 + OFF_F, 1, 6, s)
            pattern.add(r0 + 18, c0 + OFF_TAU, 1, 1, -1.0)
        pattern.freeze((self.n_rows, self.n_cols))
        self._pattern = pattern
        self._slots = slots

    def _row_base(self, i):
        return BLOCK_ROWS * (i - 1)

    def assemble(self, q, qd, dtype=float):
        """Return (D, b_D) at the given state; D is CSC."""
        return self.assemble_sweep(kinematic_sweep(self.model, q, qd), qd, dtype)

    def assemble_sweep(self, sweep, qd, dtype=float):
        """(D, b_D) from a kinematic sweep already taken at (q, qd)."""
        model = self.model
        vals = self._pattern.values.astype(dtype)
        b = np.zeros(self.n_rows, dtype=dtype)
        a0 = -GRAVITY_SPATIAL

        for i in range(1, model.n_moving + 1):
            r0 = self._row_base(i)
            if model.parent[i] != 0:
                vals[self._slots[("Xlam", i)]] = sweep.x_from_parent[i].ravel()
            else:
                b[r0: r0 + 6] = sweep.x_from_parent[i] @ a0
            vj = sweep.s[i] * qd[i - 1]
            b[r0: r0 + 6] += cross_motion(sweep.v[i], vj)
            inertia = model.inertia_of(i).matrix()
            b[r0 + 6: r0 + 12] = cross_force(sweep.v[i], inertia @ sweep.v[i])
            vals[self._slots[("negX0", i)]] = (-sweep.x0_force[i]).ravel()
            for c in model.children[i]:
                vals[self._slots[("Xmu", i, c)]] = sweep.x_from_parent[c].T.ravel()

        return self._pattern.csc(vals), b


@dataclass
class ConstraintSystem:
    """Sparse Newton-Euler constraints D d + b_D = 0 built at one state."""

    D: sp.csc_matrix
    b_D: np.ndarray
    q: np.ndarray
    qd: np.ndarray

    def residual(self, d):
        return self.D @ np.asarray(d) + self.b_D


def assemble_constraints(model, q, qd, assembler: ConstraintAssembler | None = None) -> ConstraintSystem:
    if assembler is None:
        assembler = ConstraintAssembler(model)
    mat, b = assembler.assemble(q, qd)
    return ConstraintSystem(mat, b, np.asarray(q, float).copy(), np.asarray(qd, float).copy())


# ---------------------------------------------------------------------------
# Lagrangian-form terms extracted through unit-vector recursions


@dataclass
class LagrangianTerms:
    mass_matrix: np.ndarray       # M(q), n x n, SPD
    bias: np.ndarray              # C(q, qd) qd, n
    gravity: np.ndarray           # G(q), n
    jacobian_t: np.ndarray        # maps stacked base-frame fx (6 n_moving) to n torques

    def torques(self, qdd, fx_stacked=None):
        tau = self.mass_matrix @ np.asarray(qdd) + self.bias + self.gravity
        if fx_stacked is not None:
            tau = tau - self.jacobian_t @ np.asarray(fx_stacked)
        return tau


def extract_lagrangian_terms(model, q, qd) -> LagrangianTerms:
    """Mass matrix, velocity bias, gravity vector and external-force map.

    Columns of M come from unit-acceleration recursions with gravity off;
    the bias from the velocity-only recursion; G from the static recursion
    with gravity on. The identity M qdd + C qd + G - J^T fx = tau ties all
    terms back to the direct recursion.
    """
    n = model.n_dof
    layout = DynLayout(model)
    tau_idx = layout.tau_indices()
    zeros = np.zeros(n)
    no_gravity = np.zeros(6)

    gravity = rnea(model, q, zeros, zeros)[tau_idx]
    bias = rnea(model, q, qd, zeros, base_acc=no_gravity)[tau_idx]

    mass = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        mass[:, j] = rnea(model, q, zeros, e, base_acc=no_gravity)[tau_idx]

    jac_t = np.zeros((n, 6 * model.n_moving))
    for i in range(1, model.n_moving + 1):
        for k in range(6):
            fx = np.zeros((model.n_moving, 6))
            fx[i - 1, k] = 1.0
            col = rnea(model, q, zeros, zeros, fx_base=fx, base_acc=no_gravity)[tau_idx]
            jac_t[:, 6 * (i - 1) + k] = -col
    return LagrangianTerms(mass, bias, gravity, jac_t)


# ---------------------------------------------------------------------------
# classical inverse dynamics with an extra boundary measurement (chains)


@dataclass
class InconsistencyReport:
    """Both determinations of the overdetermined wrench and their gap.

    ``recursion_value`` is the wrench obtained by propagating the recursion
    in the sweep direction; ``closing_value`` is the independent
    determination closing the loop at the surfacing link (the boundary
    measurement for the leaf-to-base sweep, the link's own equation of
    motion for the base-to-leaf sweep).
    """

    joint_forces: dict
    recursion_value: np.ndarray
    closing_value: np.ndarray
    surfacing_link: str

    @property
    def inconsistency(self):
        return self.recursion_value - self.closing_value


def _require_chain(model):
    for i in range(model.n_moving + 1):
        if len(model.children[i]) > 1:
            raise ModelError("top-down/bottom-up comparison requires a chain model")


def _chain_data(model, q, qd, qdd):
    sweep = kinematic_sweep(model, q, qd)
    n = model.n_moving
    a = link_accelerations(model, sweep, qd, qdd, -GRAVITY_SPATIAL)
    fb = [np.zeros(6)] * (n + 1)
    for i in range(1, n + 1):
        inertia = model.inertia_of(i).matrix()
        fb[i] = inertia @ a[i] + cross_force(sweep.v[i], inertia @ sweep.v[i])
    return sweep, fb


def _boundary_force_into_link1(model, sweep, f_fp, fp_pose):
    """Wrench through joint 1 implied by the base force balance.

    With the base static, its balance gives the wrench the first moving link
    must transmit once the measured contact wrench and the base weight are
    accounted for.
    """
    base_inertia = model.inertia_of(0).matrix() if model.links[0].inertia is not None else np.zeros((6, 6))
    x_fp = adjoint_force(fp_pose)  # base <- plate coordinates
    rhs = base_inertia @ GRAVITY_SPATIAL + x_fp @ np.asarray(f_fp)
    # into link-1 coordinates: 1_X_0* = (0_X_1*)^{-1} = (x_from_parent[1].T)^{-1}
    x_0_1_force = sweep.x_from_parent[1].T
    return np.linalg.solve(x_0_1_force, rhs)


def id_topdown(model, q, qd, qdd, f_fp, fp_pose=None) -> InconsistencyReport:
    """Leaf-to-base recursion plus the boundary route for the first link.

    The overdeterminacy introduced by the measured base contact wrench shows
    up at link 1, where the recursion value and the boundary value of the
    transmitted wrench disagree by exactly the measurement inconsistency.
    No external forces act on the moving links in this classical setting.
    """
    _require_chain(model)
    fp_pose = fp_pose if fp_pose is not None else _identity_pose()
    sweep, fb = _chain_data(model, q, qd, qdd)
    n = model.n_moving
    f = {}
    f_val = [np.zeros(6)] * (n + 1)
    for i in range(n, 0, -1):
        f_val[i] = fb[i].copy()
        for c in model.children[i]:
            f_val[i] += sweep.x_from_parent[c].T @ f_val[c]
        f[model.links[i].name] = f_val[i]
    boundary = _boundary_force_into_link1(model, sweep, f_fp, fp_pose)
    return InconsistencyReport(f, f_val[1], boundary, model.links[1].name)


def id_bottomup(model, q, qd, qdd, f_fp, fp_pose=None) -> InconsistencyReport:
    """Base-to-leaf propagation seeded by the boundary measurement.

    The inconsistency surfaces at the top-most link, where the propagated
    wrench disagrees with that link's own equation of motion.
    """
    _require_chain(model)
    fp_pose = fp_pose if fp_pose is not None else _identity_pose()
    sweep, fb = _chain_data(model, q, qd, qdd)
    n = model.n_moving
    f = {}
    f_prev = _boundary_force_into_link1(model, sweep, f_fp, fp_pose)
    f[model.links[1].name] = f_prev
    for i in range(1, n):
        child = model.children[i][0]
        # f_child = (i_X_child*)^{-1} (f_i - fB_i); child_X_i* = x_from_parent[child].T inverse
        f_child = np.linalg.solve(sweep.x_from_parent[child].T, f_prev - fb[i])
        f[model.links[child].name] = f_child
        f_prev = f_child
    return InconsistencyReport(f, f_prev, fb[n], model.links[n].name)


def _identity_pose():
    from mapdyn.spatial import HomTransform

    return HomTransform.identity()
