"""Forward kinematics, joint-limit counts and frame-matching inverse kinematics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from mapdyn.spatial import HomTransform, se3_log
from mapdyn.model.tree import KinematicTreeModel, ModelError


# how far an angle may pass its joint's limit and still count as inside: rounding, not a posture
LIMIT_TOL = 1e-9


def outside_limits(model: KinematicTreeModel, q):
    """Whether each angle of ``q`` ((n_dof,) or (T, n_dof)) lies more than LIMIT_TOL outside its joint's limits."""
    lo, hi = model.limits()
    return (q < lo - LIMIT_TOL) | (q > hi + LIMIT_TOL)


def check_joint_angles(model: KinematicTreeModel, q):
    """Number of joints outside their limits (``outside_limits``), per sample of ``q``.

    ``q`` is (n_dof,) for one sample (the count is then an int) or a
    (T, n_dof) stack (an array of T counts). Violations never fail:
    estimation must accept any measured posture, and reports the count.
    Complex (complex-step) angles count as inside.
    """
    q = np.asarray(q)
    if q.ndim not in (1, 2) or q.shape[-1] != model.n_dof:
        raise ModelError(f"expected q of length {model.n_dof}, got shape {q.shape}")
    if np.iscomplexobj(q):
        return np.zeros(q.shape[:-1], dtype=int)[()]
    return np.count_nonzero(outside_limits(model, q), axis=-1)


def forward_kinematics(model: KinematicTreeModel, q) -> list:
    """Per-link pose w.r.t. the base; entry 0 is the identity.

    The poses are those of the kinematic sweep of the one sample (T = 1).
    Joint-limit violations warn but never fail (see ``check_joint_angles``).
    """
    q = np.asarray(q)
    if q.shape != (model.n_dof,):
        raise ModelError(f"expected q of length {model.n_dof}, got shape {q.shape}")
    if check_joint_angles(model, q):
        warnings.warn("joint limits violated", stacklevel=2)
    # imported here: mapdyn.dynamics imports mapdyn.model, whose package imports this module
    from mapdyn.dynamics import kinematic_sweep

    sweep = kinematic_sweep(model, q, np.zeros(model.n_dof))
    return [HomTransform(rotation, position) for rotation, position in zip(sweep.rotation[0], sweep.position[0])]


@dataclass
class IkResult:
    q: np.ndarray
    residual: float
    iterations: int
    converged: bool


def _pair_indices(model, targets):
    """Link indices i and k of the target pairs, and their stacked target rotations and translations."""
    for name in (name for pair in targets for name in pair):
        if name not in model.link_index:
            raise ModelError(f"IK target references unknown link {name!r}")
    i, k = (np.array([model.link_index[pair[side]] for pair in targets], dtype=int) for side in (0, 1))
    rotation = np.array([target.rotation for target in targets.values()], dtype=float).reshape(-1, 3, 3)
    translation = np.array([target.translation for target in targets.values()], dtype=float).reshape(-1, 3)
    return i, k, rotation, translation


def _ik_residual(model, pairs, q):
    """Pose-error logs of a (T, n_dof) stack of states, (T, 6 * pairs), from one sweep."""
    from mapdyn.dynamics import kinematic_sweep

    i, k, target_rotation, target_translation = pairs
    # the sweep does not warn: the finite differences step past the clamped limits
    sweep = kinematic_sweep(model, q, np.zeros_like(q))
    # target^-1 pose_i^-1 pose_k = (pose_i target)^-1 pose_k, on (T, pairs, ...) arrays
    rotation_i = sweep.rotation[:, i]
    inverse_rotation = (rotation_i @ target_rotation).swapaxes(-1, -2)
    origin = (rotation_i @ target_translation[..., None])[..., 0] + sweep.position[:, i]
    error_translation = (inverse_rotation @ (sweep.position[:, k] - origin)[..., None])[..., 0]
    return se3_log(inverse_rotation @ sweep.rotation[:, k], error_translation).reshape(q.shape[0], -1)


def ik_frame_match(model, targets, q_init=None, max_iter=100, tol=1e-12) -> IkResult:
    """Joint angles minimizing the summed squared SE(3) log of pose errors.

    ``targets`` maps (link_i, link_k) name pairs to the desired pose of k in
    frame i. The geodesic error norm is used with unit weights and the
    iterate is clamped to the joint limits. Non-convergence returns the best
    iterate with ``converged=False``.
    """
    pairs = _pair_indices(model, targets)
    n = model.n_dof
    lo, hi = model.limits()
    q = np.zeros(n) if q_init is None else np.clip(np.asarray(q_init, float), lo, hi)

    res = _ik_residual(model, pairs, q[None])[0]
    cost = float(res @ res)
    if cost <= tol:
        return IkResult(q, np.sqrt(cost), 0, True)

    damping = 1e-6
    h = 1e-6
    it = 0
    for it in range(1, max_iter + 1):
        # central differences: the 2 n_dof stepped states take one sweep
        steps = h * np.eye(n)
        stepped = _ik_residual(model, pairs, np.concatenate([q + steps, q - steps]))
        jac = ((stepped[:n] - stepped[n:]) / (2 * h)).T
        step = np.linalg.solve(jac.T @ jac + damping * np.eye(n), -(jac.T @ res))
        q_new = np.clip(q + step, lo, hi)
        res_new = _ik_residual(model, pairs, q_new[None])[0]
        cost_new = float(res_new @ res_new)
        if cost_new < cost:
            moved = np.linalg.norm(q_new - q)
            q, res, cost = q_new, res_new, cost_new
            damping = max(damping / 3.0, 1e-9)
            if moved < 1e-12 or cost <= tol:
                return IkResult(q, np.sqrt(cost), it, True)
        else:
            damping *= 10.0
            if damping > 1e8:
                break
    return IkResult(q, np.sqrt(cost), it, cost <= 1e-8)
