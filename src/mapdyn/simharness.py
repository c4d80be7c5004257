"""Synthetic ground truth: scripted trajectories, consistent dynamics, noisy streams.

Waveforms are analytic, so reference joint velocities and accelerations never
come from numerical differentiation; the stacked dynamic-variable vector at
every sample comes from the recursion and therefore satisfies the assembled
constraints to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mapdyn.dynamics import DynLayout, inverse_dynamics, kinematic_sweep, link_accelerations, sample_chunks
from mapdyn.model.kinematics import outside_limits
from mapdyn.model.tree import KinematicTreeModel, ModelError
from mapdyn.sensors import MeasurementAssembler, simulate_readings
from mapdyn.spatial import GRAVITY_SPATIAL, adjoint_motion, matrix_to_rpy


# ---------------------------------------------------------------------------
# waveforms


@dataclass(frozen=True)
class Constant:
    value: float = 0.0

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, self.value), np.zeros_like(t), np.zeros_like(t)


@dataclass(frozen=True)
class Sine:
    amplitude: float
    frequency: float  # Hz
    phase: float = 0.0
    offset: float = 0.0

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        w = 2.0 * np.pi * self.frequency
        arg = w * t + self.phase
        pos = self.offset + self.amplitude * np.sin(arg)
        vel = self.amplitude * w * np.cos(arg)
        acc = -self.amplitude * w * w * np.sin(arg)
        return pos, vel, acc


@dataclass(frozen=True)
class Spline:
    """Natural cubic spline through (time, value) knots, analytic derivatives."""

    knots: tuple  # ((t0, v0), (t1, v1), ...)

    def evaluate(self, t):
        # imported here, so that runs without a spline never load scipy.interpolate
        from scipy.interpolate import CubicSpline

        ts = np.array([k[0] for k in self.knots])
        vs = np.array([k[1] for k in self.knots])
        spline = CubicSpline(ts, vs, bc_type="natural")
        t = np.asarray(t, dtype=float)
        return spline(t), spline(t, 1), spline(t, 2)


WAVEFORMS = {"constant": Constant, "sine": Sine, "spline": Spline}


def waveform_from_config(cfg) -> object:
    """The waveform class that ``kind`` names (default constant), its fields the config's other keys."""
    fields = dict(cfg)
    kind = fields.pop("kind", "constant")
    if kind not in WAVEFORMS:
        raise ModelError(f"unknown waveform kind {kind!r}")
    if kind == "spline":
        fields["knots"] = tuple((float(a), float(b)) for a, b in fields["knots"])
    return WAVEFORMS[kind](**fields)


@dataclass
class TrajectorySpec:
    """Per-joint waveform with a common duration and sample rate."""

    waveforms: list
    duration: float
    rate: float

    def __post_init__(self):
        if self.rate <= 0 or self.duration <= 0:
            raise ModelError("trajectory duration and rate must be positive")

    @property
    def times(self):
        n = int(round(self.duration * self.rate))
        return np.arange(n) / self.rate

    def sample(self):
        t = self.times
        n = len(self.waveforms)
        q = np.zeros((t.size, n))
        qd = np.zeros((t.size, n))
        qdd = np.zeros((t.size, n))
        for j, wf in enumerate(self.waveforms):
            q[:, j], qd[:, j], qdd[:, j] = wf.evaluate(t)
        return t, q, qd, qdd


@dataclass
class SyntheticScenario:
    """Deterministic synthetic experiment: model + motion + forces + sensors."""

    model: KinematicTreeModel
    trajectory: TrajectorySpec
    sensor_specs: list
    external_forces: dict = field(default_factory=dict)  # link name -> per-channel waveforms (6)
    seed: int | None = 0

    def force_series(self, t):
        n = self.model.n_moving
        fx = np.zeros((t.size, n, 6))
        for name, channels in self.external_forces.items():
            if name not in self.model.link_index:
                raise ModelError(f"external force script names unknown link {name!r}")
            idx = self.model.link_index[name]
            if idx == 0:
                raise ModelError("external force scripts cover moving links only")
            for c, wf in enumerate(channels):
                fx[:, idx - 1, c] = wf.evaluate(t)[0]
        return fx


def sample_trajectory(model, trajectory: TrajectorySpec):
    """(times, q, qd, qdd) of the scripted trajectory, sampled once and checked against the joint limits.

    A ``ModelError`` names ``scenario.trajectory`` and the first joints
    whose positions leave the model's limits.
    """
    t, q, qd, qdd = trajectory.sample()
    bad = np.flatnonzero(outside_limits(model, q).any(axis=0))
    if bad.size:
        names = ", ".join(repr(model.joints[i].name) for i in bad[:5])
        raise ModelError(f"scenario.trajectory leaves the joint limits at joints {names}")
    return t, q, qd, qdd


@dataclass
class GroundTruth:
    times: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray
    d: np.ndarray           # (samples, 26 * n_moving)
    readings: np.ndarray    # (samples, channels): the noiseless readings Y d + b_Y
    link_poses: np.ndarray  # (samples, n_moving + 1, 6): each link's origin and roll-pitch-yaw, base coordinates


def generate_ground_truth(scenario: SyntheticScenario) -> GroundTruth:
    """Analytic state series, and the consistent dynamics, noiseless readings and link poses at each sample.

    The trajectory is sampled and checked once (``sample_trajectory``), and
    each chunk of samples takes one kinematic sweep, which feeds all three.
    """
    model = scenario.model
    t, q, qd, qdd = sample_trajectory(model, scenario.trajectory)
    fx = scenario.force_series(t)
    assembler = MeasurementAssembler(model, scenario.sensor_specs)
    d = np.empty((t.size, DynLayout(model).size))
    readings = np.empty((t.size, assembler.dim))
    poses = np.empty((t.size, model.n_moving + 1, 6))
    for chunk in sample_chunks(t.size):
        sweep = kinematic_sweep(model, q[chunk], qd[chunk])
        d[chunk] = inverse_dynamics(model, sweep, qdd[chunk], fx[chunk])
        readings[chunk] = simulate_readings(assembler, sweep, d[chunk])
        poses[chunk] = np.concatenate([sweep.position, matrix_to_rpy(sweep.rotation)], axis=-1)
    return GroundTruth(t, q, qd, qdd, d, readings, poses)


def generate_observations(scenario: SyntheticScenario, truth: GroundTruth):
    """The truth's readings plus channel noise of the scenario's sensor variances; none if the seed is None.

    The noise is drawn sample by sample, in one call from the stream the
    scenario's seed starts, so a sample's readings do not depend on the
    length of the series.
    """
    if scenario.seed is None:
        return truth.readings.copy()
    variances = MeasurementAssembler(scenario.model, scenario.sensor_specs).variances
    return truth.readings + np.random.default_rng(scenario.seed).normal(0.0, np.sqrt(variances), truth.readings.shape)


# ---------------------------------------------------------------------------
# sensor-stream synthesis for pose calibration


def link_motion(model, trajectory: TrajectorySpec):
    """Orientation, spatial velocity and true spatial acceleration of every link along the trajectory.

    One sampling and check (``sample_trajectory``), then one kinematic sweep
    per chunk. The arrays are (T, n+1, 3, 3), (T, n+1, 6) and (T, n+1, 6), in
    body coordinates; the acceleration is the true one (no gravity offset).
    """
    _, q, qd, qdd = sample_trajectory(model, trajectory)
    rotation = np.empty((len(q), model.n_moving + 1, 3, 3))
    v, a = np.empty((2, len(q), model.n_moving + 1, 6))
    for chunk in sample_chunks(len(q)):
        sweep = kinematic_sweep(model, q[chunk], qd[chunk])
        rotation[chunk], v[chunk] = sweep.rotation, sweep.v
        a[chunk] = link_accelerations(model, sweep, qdd[chunk], np.zeros(6))
    return rotation, v, a


def synthesize_sensor_streams(model, motion, sensor, noise_std=0.0, rng=None):
    """Motion streams for one attached accelerometer from ``link_motion``'s arrays, ready for calibration.

    Returns the six arrays consumed by the pose estimator: link orientation
    and true linear acceleration (inertial frame), angular velocity and
    acceleration (inertial frame), sensor orientation (inertial frame) and
    proper acceleration (sensor frame, optionally noisy).
    """
    li = model.link_index[sensor.parent_link]
    if li == 0:
        raise ModelError("cannot synthesize streams for a sensor on the fixed base")
    x_sensor = adjoint_motion(sensor.pose.inverse())
    gravity = GRAVITY_SPATIAL[:3]
    r_b, v, a = (part[:, li] for part in motion)

    def rotate(rotations, vectors):
        return (rotations @ vectors[..., None])[..., 0]

    body_acc = rotate(r_b, a[:, :3] + np.cross(v[:, 3:], v[:, :3]))
    omegas = rotate(r_b, v[:, 3:])
    omega_dots = rotate(r_b, a[:, 3:])
    sensor_rot = r_b @ sensor.pose.rotation
    v_s = rotate(x_sensor, v)
    a_s = rotate(x_sensor, a)
    sensor_acc = a_s[:, :3] + np.cross(v_s[:, 3:], v_s[:, :3]) - rotate(sensor_rot.swapaxes(-1, -2), gravity)
    if noise_std and rng is not None:
        sensor_acc = sensor_acc + rng.normal(0.0, noise_std, sensor_acc.shape)
    return r_b, body_acc, omegas, omega_dots, sensor_rot, sensor_acc
