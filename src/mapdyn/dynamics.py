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

Time is a batch axis: the recursions (Featherstone, *Rigid Body Dynamics
Algorithms*, 2008, ch. 5) and the constraint assembly take a stack of T
samples and carry a leading sample axis through every array; one sample is
T = 1. Per-link quantities that depend only on the link's own joint come
for all links at once, and the outward and inward passes loop over the
generations of the tree. Every product is a stacked ``matmul`` of small
matrices, so a sample's numbers do not depend on the stack it came in.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from mapdyn.spatial import (
    GRAVITY_SPATIAL,
    HomTransform,
    adjoint_force,
    cross_force,
    cross_motion,
    skew,
)
from mapdyn.model.tree import KinematicTreeModel, ModelError

BLOCK_COLS = 26  # per-link slice of d
BLOCK_ROWS = 19  # per-link constraint rows (6 accel + 6 net + 6 balance + 1 torque)

# offsets inside a link's 26-entry slice of d
OFF_A, OFF_FB, OFF_F, OFF_TAU, OFF_FX, OFF_DDQ = 0, 6, 12, 18, 19, 25

# samples per kinematic sweep where a long series is cut into stacks: the
# per-link arrays of a sweep take about 45 kB per sample on the 48-DoF model
SAMPLE_CHUNK = 64


def sample_chunks(n_samples):
    """Slices cutting a series of samples into stacks of at most SAMPLE_CHUNK."""
    return [slice(start, start + SAMPLE_CHUNK) for start in range(0, n_samples, SAMPLE_CHUNK)]


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
    """Per-link kinematic quantities from the outward pass, for a stack of samples.

    Every array leads with the sample axis (length T), then the link index
    (0 is the base).
    """

    x_from_parent: np.ndarray  # (T, n+1, 6, 6) motion adjoints, child <- parent coordinates
    x0_force: np.ndarray       # (T, n+1, 6, 6) force adjoints, link <- base coordinates
    rotation: np.ndarray       # (T, n+1, 3, 3) link orientations in base coordinates
    position: np.ndarray       # (T, n+1, 3) link origins in base coordinates
    v: np.ndarray              # (T, n+1, 6) spatial velocities, body coordinates
    c: np.ndarray              # (T, n+1, 6) velocity-product accelerations v_i x (S_i qd_i)
    s: np.ndarray              # (n+1, 6) joint motion subspaces (constant)


class _TreeArrays:
    """Constant per-link arrays of a model for the batched recursions.

    Arrays are indexed by link (row 0, the base, is unused). ``levels``
    lists the generations of the tree, base children first: the links at
    one depth, as a slice when they are contiguous (the model orders links
    breadth first), and their parents.
    """

    def __init__(self, model):
        n = model.n_moving
        self.axis = np.zeros((n + 1, 3))
        origin_rot = np.zeros((n + 1, 3, 3))
        self.p0 = np.zeros((n + 1, 3))
        self.inertia = np.zeros((n + 1, 6, 6))
        for i in range(1, n + 1):
            joint = model.joint_of(i)
            self.axis[i] = joint.axis
            origin_rot[i] = joint.origin.rotation
            self.p0[i] = joint.origin.translation
            self.inertia[i] = model.inertia_of(i).matrix()
        self.s = np.concatenate([np.zeros((n + 1, 3)), self.axis], axis=1)
        # origin @ Rodrigues(axis, q) = fixed + cos(q) cos_part + sin(q) sin_part
        outer = self.axis[:, :, None] * self.axis[:, None, :]
        self.rot_fixed = origin_rot @ outer
        self.rot_cos = origin_rot - self.rot_fixed
        self.rot_sin = origin_rot @ skew(self.axis)
        # the child <- parent motion adjoint's upper right block is -R^T [p]x
        self.neg_skew_p0 = -skew(self.p0)
        parent = np.array(model.parent)
        depth = np.zeros(n + 1, dtype=int)
        for i in range(1, n + 1):
            depth[i] = depth[parent[i]] + 1
        self.levels = []
        for level in range(1, depth.max(initial=0) + 1):
            links = np.flatnonzero(depth == level)
            if links[-1] - links[0] + 1 == links.size:
                links = slice(int(links[0]), int(links[-1]) + 1)
            self.levels.append((links, parent[links]))


# models are immutable: their arrays are built once, and go with the model
_TREE_ARRAYS = weakref.WeakKeyDictionary()


def _tree_arrays(model) -> _TreeArrays:
    tree = _TREE_ARRAYS.get(model)
    if tree is None:
        tree = _TREE_ARRAYS[model] = _TreeArrays(model)
    return tree


def _stack(model, x, label, dtype=None):
    """``x`` as a (T, n_dof) stack; a (n_dof,) vector is one sample."""
    x = np.asarray(x, dtype=dtype)
    if x.ndim == 1:
        x = x[None]
    if x.ndim != 2 or x.shape[1] != model.n_dof:
        raise ModelError(f"{label} must be ({model.n_dof},) or (T, {model.n_dof}), got {np.shape(x)}")
    return x


def kinematic_sweep(model, q, qd) -> KinSweep:
    """Forward kinematics and the outward velocity pass for a stack of samples.

    ``q`` and ``qd`` are (T, n_dof) stacks, or (n_dof,) vectors for one
    sample (T = 1). The joint rotations and motion adjoints of all links
    come at once; one loop over the generations of the tree composes the
    poses and velocities, each step on (T, links, ...) arrays. A sample's
    numbers do not depend on the other samples of its stack. Joint limits
    are not checked here (see ``check_joint_angles``).
    """
    tree = _tree_arrays(model)
    q, qd = _stack(model, q, "q"), _stack(model, qd, "qd")
    dtype = np.result_type(q, qd, float)
    n_samples, n = q.shape[0], model.n_moving
    rot = np.zeros((n_samples, n + 1, 3, 3), dtype)  # parent <- child, per joint
    cos_q, sin_q = np.cos(q)[..., None, None], np.sin(q)[..., None, None]
    rot[:, 1:] = tree.rot_fixed[1:] + cos_q * tree.rot_cos[1:] + sin_q * tree.rot_sin[1:]
    rot_t = rot.swapaxes(-1, -2)
    xs = np.zeros((n_samples, n + 1, 6, 6), dtype)
    xs[..., :3, :3] = rot_t
    xs[..., 3:, 3:] = rot_t
    xs[..., :3, 3:] = rot_t @ tree.neg_skew_p0
    joint_v = tree.s * np.concatenate([np.zeros((n_samples, 1), dtype), qd], axis=1)[..., None]
    rotation = np.empty((n_samples, n + 1, 3, 3), dtype)
    rotation[:, 0] = np.eye(3)
    position = np.zeros((n_samples, n + 1, 3), dtype)
    v = np.zeros((n_samples, n + 1, 6), dtype)
    for links, parents in tree.levels:
        r_parent = rotation[:, parents]
        rotation[:, links] = r_parent @ rot[:, links]
        position[:, links] = (r_parent @ tree.p0[links, :, None])[..., 0] + position[:, parents]
        v[:, links] = (xs[:, links] @ v[:, parents, :, None])[..., 0] + joint_v[:, links]
    # link <- base force adjoint: [[R^T, 0], [-R^T [p]x, R^T]] of the pose (R, p)
    rotation_t = rotation.swapaxes(-1, -2)
    x0f = np.zeros((n_samples, n + 1, 6, 6), dtype)
    x0f[..., :3, :3] = rotation_t
    x0f[..., 3:, 3:] = rotation_t
    x0f[..., 3:, :3] = -(rotation_t @ skew(position))
    return KinSweep(xs, x0f, rotation, position, v, cross_motion(v, joint_v), tree.s)


def link_accelerations(model, sweep, qdd, a0):
    """Forward recursion: spatial acceleration of every link, body coordinates.

    ``qdd`` is a (T, n_dof) stack (or one (n_dof,) sample) matching the
    sweep; the result is (T, n+1, 6). ``a0`` is the base acceleration:
    ``-GRAVITY_SPATIAL`` for the gravity trick, zeros for the true
    (gravity-free) acceleration.
    """
    tree = _tree_arrays(model)
    qdd = _stack(model, qdd, "qdd")
    # S_i qdd_i + c_i: the part of each link's acceleration its parent does not carry
    known = sweep.c + sweep.s * np.concatenate([np.zeros((len(qdd), 1)), qdd], axis=1)[..., None]
    a = np.empty_like(known)
    a[:, 0] = a0
    for links, parents in tree.levels:
        a[:, links] = (sweep.x_from_parent[:, links] @ a[:, parents, :, None])[..., 0] + known[:, links]
    return a


def inverse_dynamics(model, sweep, qdd, fx_base=None, base_acc=None):
    """The two passes of inverse dynamics on a stack's kinematic sweep: every slot of d, (T, 26 * n_moving).

    ``qdd`` is the sweep's (T, n_dof) stack, and ``fx_base`` an optional
    external force per link in base coordinates, (T, n_moving, 6). base_acc
    defaults to -gravity (gravity on); pass zeros to switch gravity off.
    """
    n = model.n_moving
    qdd = _stack(model, qdd, "qdd", float)
    n_samples = qdd.shape[0]
    fx_base = np.zeros((n_samples, n, 6)) if fx_base is None else np.asarray(fx_base, dtype=float)
    a0 = -GRAVITY_SPATIAL if base_acc is None else np.asarray(base_acc, dtype=float)

    tree = _tree_arrays(model)
    a = link_accelerations(model, sweep, qdd, a0)[:, 1:]
    v = sweep.v[:, 1:]
    inertia = tree.inertia[1:]
    fb = (inertia @ a[..., None])[..., 0] + cross_force(v, (inertia @ v[..., None])[..., 0])
    f = np.zeros((n_samples, n + 1, 6))
    f[:, 1:] = fb - (sweep.x0_force[:, 1:] @ fx_base[..., None])[..., 0]
    for links, parents in reversed(tree.levels):
        # parent <- child force adjoint: the transpose of the child's motion adjoint
        to_parent = (sweep.x_from_parent[:, links].swapaxes(-1, -2) @ f[:, links, :, None])[..., 0]
        np.add.at(f, (slice(None), parents), to_parent)
    f = f[:, 1:]

    d = np.empty((n_samples, n, BLOCK_COLS))
    d[..., OFF_A: OFF_A + 6] = a
    d[..., OFF_FB: OFF_FB + 6] = fb
    d[..., OFF_F: OFF_F + 6] = f
    d[..., OFF_TAU] = (f[..., 3:] * tree.axis[1:]).sum(axis=-1)
    d[..., OFF_FX: OFF_FX + 6] = fx_base
    d[..., OFF_DDQ] = qdd
    return d.reshape(n_samples, -1)


def rnea(model, q, qd, qdd, fx_base=None, base_acc=None):
    """Inverse dynamics of joint states: their kinematic sweep, then ``inverse_dynamics``.

    ``q``, ``qd`` and ``qdd`` are (T, n_dof) stacks, and the result is
    (T, 26 * n_moving); (n_dof,) vectors are one sample and give one d, and
    fx_base is then (n_moving, 6).
    """
    n = model.n_moving
    single = np.ndim(q) == 1
    q, qd, qdd = (_stack(model, x, label, float) for x, label in ((q, "q"), (qd, "qd"), (qdd, "qdd")))
    if not q.shape == qd.shape == qdd.shape:
        raise ModelError(f"q, qd and qdd must have one shape, got {q.shape}, {qd.shape}, {qdd.shape}")
    if fx_base is not None:
        fx_base = np.asarray(fx_base, dtype=float)
        expected = (n, 6) if single else (q.shape[0], n, 6)
        if fx_base.shape != expected:
            raise ModelError(f"fx_base must be {expected}, got {fx_base.shape}")
        fx_base = fx_base.reshape(q.shape[0], n, 6)
    d = inverse_dynamics(model, kinematic_sweep(model, q, qd), qdd, fx_base, base_acc)
    return d[0] if single else d


# the 3x3 quadrant a spatial adjoint holds at zero whatever the pose: motion
# adjoints map no linear velocity into angular velocity, force adjoints no
# moment into force; transposes and products keep the quadrant
MOTION_ADJOINT_ZERO = np.zeros((6, 6), dtype=bool)
MOTION_ADJOINT_ZERO[3:, :3] = True
FORCE_ADJOINT_ZERO = MOTION_ADJOINT_ZERO.T

# the entries of a 6x6 block, row-major, and of its transpose
BLOCK_ENTRIES = np.arange(36)
TRANSPOSED_ENTRIES = (BLOCK_ENTRIES % 6) * 6 + BLOCK_ENTRIES // 6


class BlockPattern:
    """Fixed sparsity pattern of a matrix assembled from dense blocks.

    Each block takes the next slice of the block entries, row-major. A
    constant block carries its values, and only its nonzero entries are
    stored. A state-dependent block is filled at each assembly, and all its
    entries are stored except those it declares always zero. Block
    positions never overlap, so ``freeze`` maps each block entry to its
    slot in the CSC data, or to none, once; an assembly then writes the
    values of a stack of samples straight into a (T, nnz) array in CSC
    data order.
    """

    def __init__(self):
        self._rows, self._cols, self._values, self._stored = [], [], [], []
        self._entries = 0

    def add(self, row0, col0, nr, nc, value=None, zero=None):
        """Append an nr x nc block at (row0, col0); return the slice of its entries.

        ``value`` makes the block constant (a scalar fills it); without it the
        block is state-dependent, and ``zero`` is an optional boolean mask of
        its entries that stay zero at every state.
        """
        r, c = np.divmod(np.arange(nr * nc), nc)
        self._rows.append(row0 + r)
        self._cols.append(col0 + c)
        self._values.append(np.zeros(nr * nc))
        if value is None:
            stored = np.ones(nr * nc, dtype=bool) if zero is None else ~np.ravel(zero)
        else:
            self._values[-1][:] = np.ravel(value)
            stored = self._values[-1] != 0.0
        self._stored.append(stored)
        self._entries += nr * nc
        return slice(self._entries - nr * nc, self._entries)

    def freeze(self, shape):
        """Fix the shape and the CSC layout; no blocks may follow.

        ``rows`` and ``cols`` hold the row and column of each stored entry
        in CSC data order (by column, then row), and ``constant`` the
        constant entries in that order, with zeros where state-dependent
        entries go.
        """
        self.shape = shape
        stored = np.flatnonzero(np.concatenate(self._stored))
        rows, cols = np.concatenate(self._rows)[stored], np.concatenate(self._cols)[stored]
        # blocks never overlap, so each (row, col) is stored once
        order = np.lexsort((rows, cols))
        entries = stored[order]
        self.rows, self.cols = rows[order], cols[order]
        self.nnz = entries.size
        self.constant = np.concatenate(self._values)[entries]
        self._slot_of = np.full(self._entries, -1, dtype=np.intp)
        self._slot_of[entries] = np.arange(self.nnz)

    def state_slots(self, blocks):
        """(CSC slots, sources) of the stored entries of state-dependent blocks.

        ``blocks`` pairs each block's slice with, per entry, its flat index
        in the per-sample array an assembly reads it from.
        """
        slots = np.concatenate([self._slot_of[entries] for entries, _ in blocks] + [np.zeros(0, np.intp)])
        sources = np.concatenate([np.ravel(source) for _, source in blocks] + [np.zeros(0, np.intp)])
        stored = slots >= 0
        return slots[stored], sources[stored]

    def stack(self, like):
        """A (T, nnz) value array holding the constant entries, of the T and dtype of ``like`` (T, ...)."""
        values = np.empty((like.shape[0], self.nnz), dtype=like.dtype)
        values[:] = self.constant
        return values

    def csc(self, values):
        """The CSC matrix of one sample's values, a vector in CSC data order."""
        import scipy.sparse as sp  # only the sparse entry points need it

        indptr = np.searchsorted(self.cols, np.arange(self.shape[1] + 1))
        return sp.csc_matrix((values, self.rows, indptr), shape=self.shape)


class ConstraintAssembler:
    """Sparse assembly of D d + b_D = 0 with a cached sparsity pattern.

    The pattern depends only on the topology; values depend on (q, qd).
    Assembly is pure per sample, so a stack of samples is assembled from one
    kinematic sweep, and distinct stacks can be processed in parallel from
    one shared assembler.
    """

    def __init__(self, model: KinematicTreeModel):
        self.model = model
        self.layout = DynLayout(model)
        self.n_rows = BLOCK_ROWS * model.n_moving
        self.n_cols = self.layout.size
        layout = self.layout
        pattern = BlockPattern()
        # state-dependent blocks, read from the sweep's motion adjoints (as
        # they are, or transposed) and force adjoints
        motion_blocks, force_blocks = [], []
        eye = np.eye(6)
        tree = _tree_arrays(model)
        for i in range(1, model.n_moving + 1):
            r0 = self._row_base(i)
            c0 = layout.base_of(i)
            s = tree.s[i]
            pattern.add(r0, c0 + OFF_A, 6, 6, -eye)
            pattern.add(r0, c0 + OFF_DDQ, 6, 1, s)
            if model.parent[i] != 0:
                block = pattern.add(r0, layout.base_of(model.parent[i]) + OFF_A, 6, 6, zero=MOTION_ADJOINT_ZERO)
                motion_blocks.append((block, 36 * i + BLOCK_ENTRIES))
            pattern.add(r0 + 6, c0 + OFF_A, 6, 6, model.inertia_of(i).matrix())
            pattern.add(r0 + 6, c0 + OFF_FB, 6, 6, -eye)
            pattern.add(r0 + 12, c0 + OFF_FB, 6, 6, eye)
            pattern.add(r0 + 12, c0 + OFF_F, 6, 6, -eye)
            block = pattern.add(r0 + 12, c0 + OFF_FX, 6, 6, zero=FORCE_ADJOINT_ZERO)
            force_blocks.append((block, 36 * i + BLOCK_ENTRIES))
            for c in model.children[i]:
                block = pattern.add(r0 + 12, layout.base_of(c) + OFF_F, 6, 6, zero=FORCE_ADJOINT_ZERO)
                motion_blocks.append((block, 36 * c + TRANSPOSED_ENTRIES))
            pattern.add(r0 + 18, c0 + OFF_F, 1, 6, s)
            pattern.add(r0 + 18, c0 + OFF_TAU, 1, 1, -1.0)
        pattern.freeze((self.n_rows, self.n_cols))
        self.pattern = pattern
        self._motion_slots, self._motion_sources = pattern.state_slots(motion_blocks)
        self._force_slots, self._force_sources = pattern.state_slots(force_blocks)
        self._base_children = np.array(model.children[0], dtype=np.intp)
        self._inertia = tree.inertia[1:]

    def _row_base(self, i):
        return BLOCK_ROWS * (i - 1)

    def matrix(self, values):
        """D as a CSC matrix from one sample's values (CSC data order)."""
        return self.pattern.csc(values)

    def assemble_values(self, sweep):
        """(values, b_D) of a stack of samples from their kinematic sweep.

        ``values`` is (T, nnz) in the CSC data order of ``matrix``, and
        ``b_D`` is (T, rows), both of the sweep's dtype.
        """
        n_samples = sweep.v.shape[0]
        values = self.pattern.stack(sweep.v)
        values[:, self._motion_slots] = sweep.x_from_parent.reshape(n_samples, -1)[:, self._motion_sources]
        values[:, self._force_slots] = -sweep.x0_force.reshape(n_samples, -1)[:, self._force_sources]
        b = np.zeros((n_samples, self.model.n_moving, BLOCK_ROWS), dtype=sweep.v.dtype)
        b[..., :6] = sweep.c[:, 1:]
        # the base's children carry the base acceleration (the gravity trick)
        roots = self._base_children
        b[:, roots - 1, :6] += (sweep.x_from_parent[:, roots] @ -GRAVITY_SPATIAL[:, None])[..., 0]
        v = sweep.v[:, 1:]
        b[..., 6:12] = cross_force(v, (self._inertia @ v[..., None])[..., 0])
        return values, b.reshape(n_samples, -1)


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
    n_fx = 6 * model.n_moving
    tau_idx = DynLayout(model).tau_indices()
    zeros = np.zeros(n)
    no_gravity = np.zeros(6)

    gravity = rnea(model, q, zeros, zeros)[tau_idx]
    bias = rnea(model, q, qd, zeros, base_acc=no_gravity)[tau_idx]
    # one stack per term: a unit acceleration, or a unit external force, per sample
    mass = rnea(model, np.tile(q, (n, 1)), np.zeros((n, n)), np.eye(n), base_acc=no_gravity)[:, tau_idx].T
    still = np.zeros((n_fx, n))
    unit_forces = np.eye(n_fx).reshape(n_fx, model.n_moving, 6)
    jac_t = -rnea(
        model, np.tile(q, (n_fx, 1)), still, still, fx_base=unit_forces, base_acc=no_gravity
    )[:, tau_idx].T
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
    """The motion adjoints, net link forces and joint forces of one sample, indexed by link (row 0 the base)."""
    sweep = kinematic_sweep(model, q, qd)
    d = inverse_dynamics(model, sweep, qdd).reshape(model.n_moving, BLOCK_COLS)
    fb, f = (np.concatenate([np.zeros((1, 6)), d[:, start: start + 6]]) for start in (OFF_FB, OFF_F))
    return sweep.x_from_parent[0], fb, f


def _boundary_force_into_link1(model, xs, f_fp, fp_pose):
    """Wrench through joint 1 implied by the base force balance.

    With the base static, its balance gives the wrench the first moving link
    must transmit once the measured contact wrench and the base weight are
    accounted for.
    """
    base_inertia = model.inertia_of(0).matrix() if model.links[0].inertia is not None else np.zeros((6, 6))
    x_fp = adjoint_force(fp_pose)  # base <- plate coordinates
    rhs = base_inertia @ GRAVITY_SPATIAL + x_fp @ np.asarray(f_fp)
    # into link-1 coordinates: 1_X_0* = (0_X_1*)^{-1} = (xs[1].T)^{-1}
    return np.linalg.solve(xs[1].T, rhs)


def id_topdown(model, q, qd, qdd, f_fp, fp_pose=None) -> InconsistencyReport:
    """Leaf-to-base recursion (``inverse_dynamics``) plus the boundary route for the first link.

    The overdeterminacy introduced by the measured base contact wrench shows
    up at link 1, where the recursion value and the boundary value of the
    transmitted wrench disagree by exactly the measurement inconsistency.
    No external forces act on the moving links in this classical setting.
    """
    _require_chain(model)
    fp_pose = fp_pose if fp_pose is not None else HomTransform.identity()
    xs, _, f = _chain_data(model, q, qd, qdd)
    forces = {model.links[i].name: f[i] for i in range(1, model.n_moving + 1)}
    boundary = _boundary_force_into_link1(model, xs, f_fp, fp_pose)
    return InconsistencyReport(forces, f[1], boundary, model.links[1].name)


def id_bottomup(model, q, qd, qdd, f_fp, fp_pose=None) -> InconsistencyReport:
    """Base-to-leaf propagation seeded by the boundary measurement.

    The inconsistency surfaces at the top-most link, where the propagated
    wrench disagrees with that link's own equation of motion.
    """
    _require_chain(model)
    fp_pose = fp_pose if fp_pose is not None else HomTransform.identity()
    xs, fb, _ = _chain_data(model, q, qd, qdd)
    n = model.n_moving
    f = {}
    f_prev = _boundary_force_into_link1(model, xs, f_fp, fp_pose)
    f[model.links[1].name] = f_prev
    for i in range(1, n):
        child = model.children[i][0]
        # f_child = (i_X_child*)^{-1} (f_i - fB_i); child_X_i* = xs[child].T inverse
        f_child = np.linalg.solve(xs[child].T, f_prev - fb[i])
        f[model.links[child].name] = f_child
        f_prev = f_child
    return InconsistencyReport(f, f_prev, fb[n], model.links[n].name)
