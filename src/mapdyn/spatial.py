"""6D spatial vector algebra for rigid-body kinematics and dynamics.

Conventions used throughout the package:

* 6D motion vectors are numpy arrays ``[linear(3); angular(3)]``
  (velocities in m/s + rad/s, accelerations in m/s^2 + rad/s^2).
* 6D force vectors are numpy arrays ``[force(3); moment(3)]`` (N, N.m).
* Rotation matrices map child-frame coordinates into parent-frame
  coordinates; ``HomTransform`` bundles a rotation with a translation.
* Euler angles are intrinsic roll-pitch-yaw (x-y-z), radians.
* Units are strict SI; the gravity constant is 9.81 m/s^2.

All functions accept complex arrays as well, which enables complex-step
differentiation of any quantity assembled from them (rotation inverses are
taken via transpose, never conjugation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRAVITY = 9.81

#: Gravitational spatial acceleration expressed in the fixed-base frame
#: (z up): linear part (0, 0, -9.81), zero angular part.
GRAVITY_SPATIAL = np.array([0.0, 0.0, -GRAVITY, 0.0, 0.0, 0.0])

# Drift threshold above which a model pose's rotation is re-orthonormalized.
ORTHONORMALITY_TOL = 1e-9


def skew(v):
    """3x3 antisymmetric matrix such that skew(v) @ u == cross(v, u).

    ``v`` may be a stack of 3-vectors, shape (..., 3); the result is then
    (..., 3, 3).
    """
    v = np.asarray(v)
    z = np.zeros(v.shape[:-1] + (3, 3), dtype=v.dtype)
    z[..., 0, 1], z[..., 0, 2] = -v[..., 2], v[..., 1]
    z[..., 1, 0], z[..., 1, 2] = v[..., 2], -v[..., 0]
    z[..., 2, 0], z[..., 2, 1] = -v[..., 1], v[..., 0]
    return z


def cross_motion(v, u):
    """Spatial cross product of two motion vectors: v x u.

    Both may be stacks of 6-vectors, shape (..., 6), that broadcast.
    """
    v, u = np.asarray(v), np.asarray(u)
    w = v[..., 3:]
    linear = np.cross(w, u[..., :3]) + np.cross(v[..., :3], u[..., 3:])
    return np.concatenate([linear, np.cross(w, u[..., 3:])], axis=-1)


def cross_force(v, f):
    """Dual spatial cross product of a motion vector with a force vector: v x* f.

    Both may be stacks of 6-vectors, shape (..., 6), that broadcast.
    """
    v, f = np.asarray(v), np.asarray(f)
    w = v[..., 3:]
    moment = np.cross(v[..., :3], f[..., :3]) + np.cross(w, f[..., 3:])
    return np.concatenate([np.cross(w, f[..., :3]), moment], axis=-1)


# ---------------------------------------------------------------------------
# rotations


def rotx(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=np.result_type(a, float))


def roty(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=np.result_type(a, float))


def rotz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.result_type(a, float))


def rotation_about_axis(axis, angle):
    """Rodrigues rotation about a unit axis (complex-step safe)."""
    axis = np.asarray(axis)
    c, s = np.cos(angle), np.sin(angle)
    k = skew(axis)
    dtype = np.result_type(axis, angle, float)
    eye = np.eye(3, dtype=dtype)
    return eye * c + s * k + (1.0 - c) * np.outer(axis, axis)


def rpy_to_matrix(roll, pitch, yaw):
    """Rotation from intrinsic x-y-z Euler angles: Rx(roll) Ry(pitch) Rz(yaw)."""
    return rotx(roll) @ roty(pitch) @ rotz(yaw)


def matrix_to_rpy(r):
    """Inverse of :func:`rpy_to_matrix` (pitch taken in [-pi/2, pi/2]).

    ``r`` may be a stack of rotations, shape (..., 3, 3); the result is then
    (..., 3).
    """
    r = np.asarray(r)
    pitch = np.arcsin(np.clip(r[..., 0, 2], -1.0, 1.0))
    # gimbal lock: yaw absorbed into roll
    lock = np.abs(r[..., 0, 2]) > 1.0 - 1e-12
    roll = np.where(lock, np.arctan2(r[..., 2, 1], r[..., 1, 1]), np.arctan2(-r[..., 1, 2], r[..., 2, 2]))
    yaw = np.where(lock, 0.0, np.arctan2(-r[..., 0, 1], r[..., 0, 0]))
    return np.stack([roll, pitch, yaw], axis=-1)


def orthonormality_drift(r):
    """Max-abs deviation of R^T R from the identity."""
    r = np.asarray(r)
    return float(np.max(np.abs(r.T @ r - np.eye(3))))


def orthonormalize(r):
    """Nearest rotation matrix via polar decomposition (SVD)."""
    u, _, vt = np.linalg.svd(np.asarray(r, dtype=float))
    out = u @ vt
    if np.linalg.det(out) < 0:
        out = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return out


# ---------------------------------------------------------------------------
# homogeneous transforms


@dataclass(frozen=True)
class HomTransform:
    """Rigid transform mapping child coordinates into parent coordinates.

    The implicit bottom row is (0, 0, 0, 1). Instances are immutable values
    and safe to share across threads.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation)
        t = np.asarray(self.translation)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("HomTransform needs a 3x3 rotation and 3-vector translation")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls):
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_rpy(cls, xyz, rpy):
        return cls(rpy_to_matrix(*rpy), np.asarray(xyz, dtype=float))

    def __matmul__(self, other: "HomTransform") -> "HomTransform":
        return HomTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "HomTransform":
        rt = self.rotation.T
        return HomTransform(rt, -(rt @ self.translation))

    def apply(self, point):
        return self.rotation @ np.asarray(point) + self.translation

    def matrix(self):
        m = np.eye(4, dtype=np.result_type(self.rotation, float))
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def isclose(self, other, tol=1e-12):
        return (
            np.allclose(self.rotation, other.rotation, atol=tol)
            and np.allclose(self.translation, other.translation, atol=tol)
        )


def snap_rotation(h: HomTransform) -> HomTransform:
    """``h`` with its rotation snapped to SO(3) if it drifted beyond ORTHONORMALITY_TOL.

    Called where a pose enters a model from outside input (joint origins,
    sensor poses). Poses composed from those stay within rounding of SO(3),
    so ``HomTransform`` itself does not check.
    """
    if orthonormality_drift(h.rotation) <= ORTHONORMALITY_TOL:
        return h
    return HomTransform(orthonormalize(h.rotation), h.translation)


def adjoint_motion(h: HomTransform):
    """6x6 change-of-frame operator for motion vectors.

    For H mapping frame A into frame B (H = B_H_A is A's pose seen from B
    inverted -- i.e. the transform whose rotation/translation express A in
    B), the returned X satisfies v_B = X @ v_A for the spatial velocity
    field of one rigid body.
    """
    r = h.rotation
    x = np.zeros((6, 6), dtype=np.result_type(r, float))
    x[:3, :3] = r
    x[:3, 3:] = skew(h.translation) @ r
    x[3:, 3:] = r
    return x


def adjoint_force(h: HomTransform):
    """6x6 change-of-frame operator for force vectors (dual of motion).

    Satisfies adjoint_force(H) == adjoint_motion(H.inverse()).T.
    """
    r = h.rotation
    x = np.zeros((6, 6), dtype=np.result_type(r, float))
    x[:3, :3] = r
    x[3:, :3] = skew(h.translation) @ r
    x[3:, 3:] = r
    return x


def se3_log(rotation, translation):
    """Logarithm map of SE(3): (..., 6) vectors [linear; angular] of (..., 3, 3)
    rotations and (..., 3) translations."""
    from scipy.spatial.transform import Rotation

    rotation = np.asarray(rotation, dtype=float)
    w = Rotation.from_matrix(rotation.reshape(-1, 3, 3)).as_rotvec().reshape(rotation.shape[:-1])
    theta = np.linalg.norm(w, axis=-1)[..., None, None]
    k = skew(w)
    # V^{-1} maps the translation onto the constant-twist linear part; the
    # closed-form coefficient cancels catastrophically for small angles, which
    # take the series and a safe angle in the closed form they do not use
    small = theta < 1e-4
    safe = np.where(small, 1.0, theta)
    closed = (1.0 - safe * np.sin(safe) / (2.0 * (1.0 - np.cos(safe)))) / (safe * safe)
    coeff = np.where(small, 1.0 / 12.0 + theta * theta / 720.0, closed)
    vinv = np.eye(3) - 0.5 * k + coeff * (k @ k)
    return np.concatenate([(vinv @ np.asarray(translation, dtype=float)[..., None])[..., 0], w], axis=-1)


# ---------------------------------------------------------------------------
# inertia


@dataclass(frozen=True)
class SpatialInertia:
    """Mass, CoM offset, and rotational inertia of one rigid body.

    ``com`` is the center of mass expressed in the body frame;
    ``inertia`` is the 3x3 rotational inertia about the CoM (symmetric PSD).
    """

    mass: float
    com: np.ndarray
    inertia: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "com", np.asarray(self.com, dtype=float))
        object.__setattr__(self, "inertia", np.asarray(self.inertia, dtype=float))
        if self.mass <= 0:
            raise ValueError("body mass must be positive")
        if np.max(np.abs(self.inertia - self.inertia.T)) > 1e-9:
            raise ValueError("rotational inertia must be symmetric")
        m = self.mass
        cx = skew(self.com)
        out = np.zeros((6, 6))
        out[:3, :3] = m * np.eye(3)
        out[:3, 3:] = m * cx.T
        out[3:, :3] = m * cx
        out[3:, 3:] = self.inertia + m * (cx @ cx.T)
        out.flags.writeable = False
        object.__setattr__(self, "_matrix", out)

    def matrix(self):
        """Symmetric 6x6 realization in [linear; angular] coordinates.

        Built once with the (immutable) body and shared read-only.
        """
        return self._matrix


def body_equation_of_motion(inertia: SpatialInertia, v, a):
    """Net force on one rigid body: I a + v x* (I v)."""
    im = inertia.matrix()
    v = np.asarray(v)
    return im @ np.asarray(a) + cross_force(v, im @ v)


def inertia_of_shape(shape: str, dims, mass: float):
    """Principal moments of inertia (diagonal 3x3) for primitive shapes.

    * parallelepiped: dims = (width a, height b, depth c)
    * cylinder: dims = (radius, height); the symmetry axis is y
    * sphere: dims = (radius,)
    """
    dims = np.atleast_1d(np.asarray(dims, dtype=float))
    if mass <= 0 or np.any(dims <= 0):
        raise ValueError("shape dimensions and mass must be positive")
    if shape == "parallelepiped":
        a, b, c = dims
        return np.diag(
            [
                mass / 12.0 * (a * a + b * b),
                mass / 12.0 * (b * b + c * c),
                mass / 12.0 * (c * c + a * a),
            ]
        )
    if shape == "cylinder":
        r, h = dims
        ixx = mass / 12.0 * (3.0 * r * r + h * h)
        return np.diag([ixx, mass / 2.0 * r * r, ixx])
    if shape == "sphere":
        (r,) = dims
        return np.diag([0.4 * mass * r * r] * 3)
    raise ValueError(f"unknown shape {shape!r}")
