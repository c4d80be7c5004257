"""Synthetic ground truth: scripted trajectories, consistent dynamics, noisy streams.

Waveforms are analytic, so reference joint velocities and accelerations never
come from numerical differentiation; the stacked dynamic-variable vector at
every sample comes from the recursion and therefore satisfies the assembled
constraints to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mapdyn.dynamics import DynLayout, kinematic_sweep, link_accelerations, rnea, sample_chunks
from mapdyn.model.tree import KinematicTreeModel, ModelError
from mapdyn.sensors import MeasurementAssembler, simulate_readings


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


def waveform_from_config(cfg) -> object:
    kind = cfg.get("kind", "constant")
    if kind == "constant":
        return Constant(cfg.get("value", 0.0))
    if kind == "sine":
        return Sine(cfg["amplitude"], cfg["frequency"], cfg.get("phase", 0.0), cfg.get("offset", 0.0))
    if kind == "spline":
        return Spline(tuple((float(a), float(b)) for a, b in cfg["knots"]))
    raise ModelError(f"unknown waveform kind {kind!r}")


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

    def check_limits(self, model: KinematicTreeModel):
        lo, hi = model.limits()
        _, q, _, _ = self.sample()
        bad = np.where((q < lo - 1e-9).any(axis=0) | (q > hi + 1e-9).any(axis=0))[0]
        if bad.size:
            names = [model.joints[i].name for i in bad[:5]]
            raise ModelError(f"trajectory exceeds joint limits at {names}")


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


@dataclass
class GroundTruth:
    times: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray
    d: np.ndarray  # (samples, 26 * n_moving)


def generate_ground_truth(scenario: SyntheticScenario) -> GroundTruth:
    """Analytic state series and the consistent stacked dynamics at each sample.

    The scripted trajectory must respect the model's joint limits.
    """
    scenario.trajectory.check_limits(scenario.model)
    t, q, qd, qdd = scenario.trajectory.sample()
    fx = scenario.force_series(t)
    layout = DynLayout(scenario.model)
    d = np.zeros((t.size, layout.size))
    for chunk in sample_chunks(t.size):
        d[chunk] = rnea(scenario.model, q[chunk], qd[chunk], qdd[chunk], fx_base=fx[chunk])
    return GroundTruth(t, q, qd, qdd, d)


def generate_observations(scenario: SyntheticScenario, truth: GroundTruth, noiseless=False):
    """Stacked readings per sample via the measurement map plus channel noise.

    The noise is drawn sample by sample from one seeded stream, so the
    readings do not depend on how the series is cut into stacks.
    """
    assembler = MeasurementAssembler(scenario.model, scenario.sensor_specs)
    rng = None if (noiseless or scenario.seed is None) else np.random.default_rng(scenario.seed)
    out = np.zeros((truth.times.size, assembler.dim))
    for chunk in sample_chunks(truth.times.size):
        out[chunk] = simulate_readings(
            scenario.model, assembler, truth.q[chunk], truth.qd[chunk], truth.d[chunk], rng=rng
        )
    return out


# ---------------------------------------------------------------------------
# sensor-stream synthesis for pose calibration


def link_motion(model, q, qd, qdd):
    """Orientation, spatial velocity and true spatial acceleration per link.

    For (T, n_dof) stacks (or one sample's vectors, T = 1) the arrays are
    (T, n+1, 3, 3), (T, n+1, 6) and (T, n+1, 6). Velocities and
    accelerations are in body coordinates; the acceleration is the true one
    (no gravity offset).
    """
    sweep = kinematic_sweep(model, q, qd)
    return sweep.rotation, sweep.v, link_accelerations(model, sweep, qdd, np.zeros(6))


def synthesize_sensor_streams(model, trajectory: TrajectorySpec, sensor, noise_std=0.0, rng=None):
    """Motion streams for one attached accelerometer, ready for calibration.

    Returns the six arrays consumed by the pose estimator: link orientation
    and true linear acceleration (inertial frame), angular velocity and
    acceleration (inertial frame), sensor orientation (inertial frame) and
    proper acceleration (sensor frame, optionally noisy).
    """
    from mapdyn.spatial import GRAVITY_SPATIAL, adjoint_motion

    li = model.link_index[sensor.parent_link]
    if li == 0:
        raise ModelError("cannot synthesize streams for a sensor on the fixed base")
    x_sensor = adjoint_motion(sensor.pose.inverse())
    gravity = GRAVITY_SPATIAL[:3]

    t, q, qd, qdd = trajectory.sample()
    motion = [link_motion(model, q[chunk], qd[chunk], qdd[chunk]) for chunk in sample_chunks(t.size)]
    r_b, v, a = (np.concatenate([m[part][:, li] for m in motion]) for part in range(3))

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
