"""Measurement-model assembly, sensor-pose estimation, trajectory filtering.

The measurement equation stacks, in deterministic order, the rows of

* IMU linear accelerations: the linear slice of the sensor-frame spatial
  acceleration plus the gyroscopic bias term (ang x lin of the sensor-frame
  velocity),
* per-DoF acceleration channels (unit selectors of the ddq slots),
* the fixed-base contact wrench (the base force balance routed through the
  plate pose, with the base-weight bias),
* per-link external wrenches (identity selectors of the fx slots).

Gyroscope attachments feed pose calibration and state preparation only;
the fused channels use linear accelerations.

Assembly works on a stack of samples: ``assemble_system`` takes one
kinematic sweep over a chunk of (T, n_dof) states and fills the values of
the stacked ``M = [D; Y]`` as one (T, nnz) array, D's in CSC data order and
then Y's, with (T, rows) biases, ready for ``PrecisionPlan.terms``; all of
the sweep's dtype, so complex for a complex-step state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mapdyn.spatial import (
    GRAVITY_SPATIAL,
    HomTransform,
    adjoint_force,
    adjoint_motion,
    matrix_to_rpy,
    skew,
    snap_rotation,
)
from mapdyn.dynamics import (
    BLOCK_ENTRIES,
    FORCE_ADJOINT_ZERO,
    OFF_F,
    OFF_FX,
    BlockPattern,
    DynLayout,
    kinematic_sweep,
)
from mapdyn.model.tree import KinematicTreeModel, ModelError

IMU_LINEAR_ACCELERATION = "imu_linear_acceleration"
DOF_ACCELERATION = "dof_acceleration"
FIXED_BASE_WRENCH = "fixed_base_wrench"
EXTERNAL_WRENCH = "external_wrench"

_KIND_ORDER = {IMU_LINEAR_ACCELERATION: 0, DOF_ACCELERATION: 1, FIXED_BASE_WRENCH: 2, EXTERNAL_WRENCH: 3}
_KIND_DIM = {IMU_LINEAR_ACCELERATION: 3, DOF_ACCELERATION: 1, FIXED_BASE_WRENCH: 6, EXTERNAL_WRENCH: 6}
_WRENCH = ("fx", "fy", "fz", "mx", "my", "mz")  # the components of a wrench reading


class MeasurementModelError(ModelError):
    """Invalid or incomplete sensor configuration."""


@dataclass(frozen=True)
class SensorSpec:
    """One measurement channel group attached to a link or joint."""

    kind: str
    target: str
    pose: HomTransform | None = None
    variance: float | np.ndarray = 1e-3

    def __post_init__(self):
        if self.kind not in _KIND_DIM:
            raise MeasurementModelError(f"unknown sensor kind {self.kind!r}")
        if self.kind == IMU_LINEAR_ACCELERATION and self.pose is None:
            raise MeasurementModelError("IMU channels require the sensor pose in the link frame")
        if self.pose is not None:
            object.__setattr__(self, "pose", snap_rotation(self.pose))
        var = np.asarray(self.variance, dtype=float)
        if var.ndim == 0:
            var = np.full(_KIND_DIM[self.kind], float(var))
        if var.shape != (_KIND_DIM[self.kind],):
            raise MeasurementModelError(
                f"variance for {self.kind} must be scalar or length {_KIND_DIM[self.kind]}"
            )
        if np.any(var <= 0):
            raise MeasurementModelError("sensor variances must be positive")
        object.__setattr__(self, "variance", var)

    @property
    def dim(self) -> int:
        return _KIND_DIM[self.kind]


def validate_specs(model: KinematicTreeModel, specs) -> list:
    """The specs in channel order (IMUs, dof accelerations, fixed-base wrench, external wrenches,
    each group in its given order), after checking the mandatory-channel rule and target existence."""
    specs = sorted(specs, key=lambda s: _KIND_ORDER[s.kind])
    ddq_targets = set()
    fx_targets = set()
    n_base_wrench = 0
    for spec in specs:
        if spec.kind == IMU_LINEAR_ACCELERATION:
            if spec.target not in model.link_index:
                raise MeasurementModelError(f"IMU spec targets unknown link {spec.target!r}")
            if model.link_index[spec.target] == 0:
                raise MeasurementModelError(
                    f"IMU spec targets the fixed base {spec.target!r}; base dynamics are not estimated"
                )
        elif spec.kind == DOF_ACCELERATION:
            if spec.target not in model.joint_index:
                raise MeasurementModelError(f"acceleration spec targets unknown joint {spec.target!r}")
            ddq_targets.add(spec.target)
        elif spec.kind == EXTERNAL_WRENCH:
            if spec.target not in model.link_index:
                raise MeasurementModelError(f"wrench spec targets unknown link {spec.target!r}")
            if model.link_index[spec.target] == 0:
                raise MeasurementModelError("external-wrench channels cover moving links only")
            fx_targets.add(spec.target)
        else:
            n_base_wrench += 1
    missing_ddq = [j.name for j in model.joints if j.name not in ddq_targets]
    if missing_ddq:
        raise MeasurementModelError(f"missing mandatory acceleration channel for joints: {missing_ddq[:4]}")
    missing_fx = [l.name for l in model.links[1:] if l.name not in fx_targets]
    if missing_fx:
        raise MeasurementModelError(f"missing mandatory external-wrench channel for links: {missing_fx[:4]}")
    if n_base_wrench != 1:
        raise MeasurementModelError(
            f"exactly one fixed-base wrench channel is mandatory, found {n_base_wrench}"
        )
    return specs


class MeasurementAssembler:
    """Builds (Y, b_Y) for a stack of states and a fixed, validated spec list.

    The sparsity pattern is fixed; only the IMU biases and the fixed-base
    wrench blocks depend on the state. Each spec's rows are laid out in
    ``validate_specs``' order and named where they are placed: ``names`` and
    ``variances`` hold one entry per row, and ``names`` are the reading
    columns of ``observations.csv``.
    """

    def __init__(self, model: KinematicTreeModel, specs):
        self.model = model
        self.specs = validate_specs(model, specs)
        self.layout = DynLayout(model)
        self.dim = sum(spec.dim for spec in self.specs)
        self.variances = np.concatenate([s.variance for s in self.specs])
        self.names = names = []
        layout = self.layout
        pattern = BlockPattern()
        self._const_bias = np.zeros(self.dim)
        imu_rows, imu_links, imu_adjoints = [], [], []  # per IMU: rows, link, sensor <- link motion adjoint
        base_blocks = []  # per child of the base: its block and the entries of its plate product
        for spec in self.specs:
            row0 = len(names)
            if spec.kind == IMU_LINEAR_ACCELERATION:
                li = model.link_index[spec.target]
                x_sensor = adjoint_motion(spec.pose.inverse())  # sensor <- link
                # the linear slice of the sensor-frame acceleration
                pattern.add(row0, layout.base_of(li), 3, 6, x_sensor[:3, :])
                imu_rows.append(row0 + np.arange(3))
                imu_links.append(li)
                imu_adjoints.append(x_sensor)
                names += [f"imu_{spec.target}_{c}" for c in "xyz"]
            elif spec.kind == DOF_ACCELERATION:
                ji = model.joint_index[spec.target] + 1
                pattern.add(row0, layout.ddq(ji), 1, 1, 1.0)
                names.append(f"ddq_{spec.target}")
            elif spec.kind == FIXED_BASE_WRENCH:
                pose = spec.pose if spec.pose is not None else HomTransform.identity()
                self._plate = adjoint_force(pose.inverse())  # plate <- base
                for k, c in enumerate(model.children[0]):
                    block = pattern.add(row0, layout.base_of(c) + OFF_F, 6, 6, zero=FORCE_ADJOINT_ZERO)
                    base_blocks.append((block, 36 * k + BLOCK_ENTRIES))
                base_inertia = (
                    model.links[0].inertia.matrix() if model.links[0].inertia is not None else np.zeros((6, 6))
                )
                self._const_bias[row0: row0 + 6] = -(self._plate @ (base_inertia @ GRAVITY_SPATIAL))
                names += [f"fbwrench_{c}" for c in _WRENCH]
            else:  # external wrench
                li = model.link_index[spec.target]
                pattern.add(row0, layout.base_of(li) + OFF_FX, 6, 6, np.eye(6))
                names += [f"extf_{spec.target}_{c}" for c in _WRENCH]
        pattern.freeze((self.dim, layout.size))
        self.pattern = pattern
        self._imu_rows = np.array(imu_rows, dtype=np.intp).reshape(-1, 3)
        self._imu_links = np.array(imu_links, dtype=np.intp)
        self._imu_adjoints = np.array(imu_adjoints).reshape(-1, 6, 6)
        self._base_children = np.array(model.children[0], dtype=np.intp)
        self._base_slots, self._base_sources = pattern.state_slots(base_blocks)

    def matrix(self, values):
        """Y as a CSC matrix from one sample's values (CSC data order)."""
        return self.pattern.csc(values)

    def assemble_values(self, sweep, out=None):
        """(values, b_Y) of a stack of samples from their kinematic sweep.

        ``values`` is (T, nnz) in the CSC data order of ``matrix``, in ``out``
        when given, and ``b_Y`` is (T, dim), both of the sweep's dtype.
        """
        n_samples = sweep.v.shape[0]
        values = self.pattern.stack(sweep.v, out)
        # plate <- base <- child: the base <- child force adjoint is the
        # transpose of the child's motion adjoint from the parent
        plate = self._plate @ sweep.x_from_parent[:, self._base_children].swapaxes(-1, -2)
        values[:, self._base_slots] = plate.reshape(n_samples, -1)[:, self._base_sources]
        b = np.empty((n_samples, self.dim), dtype=sweep.v.dtype)
        b[:] = self._const_bias
        v_s = (self._imu_adjoints @ sweep.v[:, self._imu_links, :, None])[..., 0]
        b[:, self._imu_rows] = np.cross(v_s[..., 3:], v_s[..., :3])
        return values, b


def assemble_system(constraints, measurements, q, qd):
    """(values, b) of ``M = [D; Y]`` for a stack of states, from one kinematic sweep.

    ``q`` and ``qd`` are (T, n_dof) stacks, or (n_dof,) vectors for one
    sample (T = 1). ``values`` is (T, nnz): D's values in the CSC data order
    of ``constraints.matrix``, then Y's in that of ``measurements.matrix``.
    ``b`` is (T, rows): ``b_D``, then ``b_Y``. They are the layout of
    ``estimator.stacked_pattern`` and the inputs of ``PrecisionPlan.terms``.

    A non-finite velocity reaches only the biases, through ``inf * 0``
    products that would warn; they run quietly here, so that
    ``PrecisionPlan.terms`` can name the sample in its ``EstimatorError``.
    """
    with np.errstate(invalid="ignore"):
        sweep = kinematic_sweep(constraints.model, q, qd)
        nnz = constraints.pattern.nnz
        values = np.empty((sweep.v.shape[0], nnz + measurements.pattern.nnz), dtype=sweep.v.dtype)
        _, b_d = constraints.assemble_values(sweep, out=values[:, :nnz])
        _, b_y = measurements.assemble_values(sweep, out=values[:, nnz:])
    return values, np.concatenate([b_d, b_y], axis=1)


def simulate_readings(assembler, sweep, d):
    """Noiseless readings y = Y d + b_Y of a stack of consistent d, from the stack's kinematic sweep.

    ``d`` is (T, n_d) for the sweep's T samples (or one sample's vector), and
    the readings are (T, channels).
    """
    values, b = assembler.assemble_values(sweep)
    d = np.reshape(d, (len(values), -1))
    rows, cols = assembler.pattern.rows, assembler.pattern.cols
    # Y d per sample, summed in the CSC order a sparse product takes
    return np.array([np.bincount(rows, row * d_k[cols], minlength=assembler.dim) for row, d_k in zip(values, d)]) + b


def default_sensor_specs(
    model,
    include_imus=True,
    imu_variance=1e-3,
    ddq_variance=1e-3,
    wrench_variance=1e-6,
    contact_links=(),
    contact_wrench_variance=1e-3,
    base_wrench_variance=1e-3,
    fp_pose=None,
):
    """Standard spec list: accelerometers from the model (never on the
    base), all mandatory channels, configurable per-group variances.

    ``contact_links`` name the links expected to bear external forces (the
    feet in the human setting); their wrench channels get the looser
    ``contact_wrench_variance``. A name the model lacks, or one name not in
    a list, is a ``MeasurementModelError``.
    """
    if isinstance(contact_links, str):
        raise MeasurementModelError(f"contact_links must be a list of link names, got {contact_links!r}")
    unknown = sorted(set(contact_links) - set(model.link_index))
    if unknown:
        raise MeasurementModelError(f"contact_links name links the model lacks: {', '.join(map(repr, unknown))}")
    specs = []
    if include_imus:
        for s in model.sensors_of_kind("accelerometer"):
            if model.link_index[s.parent_link] == 0:
                continue
            specs.append(SensorSpec(IMU_LINEAR_ACCELERATION, s.parent_link, s.pose, imu_variance))
    for joint in model.joints:
        specs.append(SensorSpec(DOF_ACCELERATION, joint.name, variance=ddq_variance))
    specs.append(SensorSpec(FIXED_BASE_WRENCH, model.base.name, fp_pose, base_wrench_variance))
    for link in model.links[1:]:
        var = contact_wrench_variance if link.name in contact_links else wrench_variance
        specs.append(SensorSpec(EXTERNAL_WRENCH, link.name, variance=var))
    return specs


# ---------------------------------------------------------------------------
# sensor pose estimation from rigid-body streams


class ExcitationError(ValueError):
    """The motion stream does not excite the estimation problem."""


@dataclass
class SensorPoseEstimate:
    position: np.ndarray
    rpy: np.ndarray
    samples: int
    residual: float


def estimate_sensor_pose(
    body_rotations,
    body_accelerations,
    angular_velocities,
    angular_accelerations,
    sensor_rotations,
    sensor_accelerations,
    max_orientation_spread=np.deg2rad(5.0),
) -> SensorPoseEstimate:
    """Least-squares sensor pose in the link frame from motion streams.

    Inputs are per-sample arrays: link orientation (N,3,3) and linear
    acceleration (N,3) in the inertial frame, link angular velocity and
    acceleration (N,3), sensor orientation (N,3,3) in the inertial frame,
    and the sensor's proper acceleration (N,3) in its own frame
    (bias-compensated). Position solves the stacked linear system built
    from the rigid-body acceleration transfer; orientation is the
    arithmetic mean of per-sample roll-pitch-yaw, valid only for a tightly
    clustered orientation stream.
    """
    body_rotations = np.asarray(body_rotations, dtype=float)
    n = body_rotations.shape[0]
    if n < 2:
        raise ExcitationError("at least two samples are required")
    gravity = GRAVITY_SPATIAL[:3]

    w = skew(np.asarray(angular_velocities, dtype=float))
    r_s = np.asarray(sensor_rotations, dtype=float)
    a_rows = ((skew(np.asarray(angular_accelerations, dtype=float)) + w @ w) @ body_rotations).reshape(3 * n, 3)
    b_rows = (
        (r_s @ np.asarray(sensor_accelerations, dtype=float)[..., None])[..., 0]
        - (np.asarray(body_accelerations, dtype=float) - gravity)
    ).reshape(3 * n)
    rpys = matrix_to_rpy(body_rotations.swapaxes(-1, -2) @ r_s)

    if np.linalg.matrix_rank(a_rows, tol=1e-8) < 3:
        raise ExcitationError(
            "angular motion does not excite the position: rotate the body about at least two axes"
        )

    # component-wise mean after unwrapping to (-pi, pi]
    rpys_unwrapped = np.unwrap(rpys, axis=0)
    spread = np.max(np.abs(rpys_unwrapped - rpys_unwrapped.mean(axis=0)))
    if spread > max_orientation_spread:
        raise ExcitationError(
            f"per-sample orientations spread {np.rad2deg(spread):.2f} deg; averaging needs a rigid mount"
        )
    rpy = rpys_unwrapped.mean(axis=0)
    rpy = np.arctan2(np.sin(rpy), np.cos(rpy))

    position, res, _, _ = np.linalg.lstsq(a_rows, b_rows, rcond=None)
    residual = float(np.sqrt(res[0])) if res.size else float(np.linalg.norm(a_rows @ position - b_rows))
    return SensorPoseEstimate(position, rpy, n, residual)


# ---------------------------------------------------------------------------
# trajectory differentiation


def savitzky_golay_derivatives(q, dt, window=57, order=3):
    """First and second joint-trajectory derivatives by local polynomial fits.

    Centered fits in the interior; the endpoints come from one-sided
    polynomial fits over the first/last window. Exact for polynomial inputs
    up to ``order``.
    """
    q = np.asarray(q, dtype=float)
    if window % 2 == 0 or window <= order:
        raise ValueError("window must be odd and larger than the polynomial order")
    if q.shape[0] < window:
        raise ValueError(f"need at least {window} samples, got {q.shape[0]}")
    # imported here: scipy.signal loads scipy.stats, which no other path needs
    from scipy.signal import savgol_filter

    qd = savgol_filter(q, window, order, deriv=1, delta=dt, axis=0, mode="interp")
    qdd = savgol_filter(q, window, order, deriv=2, delta=dt, axis=0, mode="interp")
    return qd, qdd
