"""Forward kinematics, frame-matching inverse kinematics, velocity mapping."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from mapdyn.spatial import HomTransform, rotation_about_axis, se3_log
from mapdyn.model.tree import KinematicTreeModel, ModelError


def joint_transform(joint, q):
    """Pose of the joint's child link in the parent frame at angle q."""
    rot = rotation_about_axis(joint.axis, q)
    return HomTransform(joint.origin.rotation @ rot, joint.origin.translation)


def check_joint_angles(model: KinematicTreeModel, q):
    """Number of joints outside their limits, per sample of ``q``.

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
    lo, hi = model.limits()
    return np.count_nonzero((q < lo - 1e-12) | (q > hi + 1e-12), axis=-1)


def forward_kinematics(model: KinematicTreeModel, q) -> list:
    """Per-link pose w.r.t. the base; entry 0 is the identity.

    Joint-limit violations warn but never fail (see ``check_joint_angles``).
    """
    q = np.asarray(q)
    if q.shape != (model.n_dof,):
        raise ModelError(f"expected q of length {model.n_dof}, got shape {q.shape}")
    if check_joint_angles(model, q):
        warnings.warn("joint limits violated", stacklevel=2)
    poses = [HomTransform.identity()]
    for i in range(1, model.n_moving + 1):
        joint = model.joint_of(i)
        poses.append(poses[model.parent[i]] @ joint_transform(joint, q[i - 1]))
    return poses


def path_to_root(model, index):
    path = []
    while index != 0:
        path.append(index)
        index = model.parent[index]
    return path


def joints_on_path(model, i, k):
    """Moving-link indices whose joints lie on the path from link i to link k.

    Each entry is (index, sign): sign +1 when the joint is traversed
    parent-to-child walking from i to k, else -1.
    """
    pi = path_to_root(model, i)
    pk = path_to_root(model, k)
    seti = set(pi)
    common = 0
    for node in pk:
        if node in seti:
            common = node
            break
    up = [(n, -1) for n in pi[: pi.index(common)]] if common in pi else [(n, -1) for n in pi]
    down = [(n, +1) for n in pk[: pk.index(common)]] if common in pk else [(n, +1) for n in pk]
    return up + list(reversed(down))


def relative_angular_jacobian(model, poses, i, k):
    """3 x n Jacobian mapping joint rates to the angular velocity of link k
    relative to link i, expressed in frame i."""
    jac = np.zeros((3, model.n_dof))
    ri_t = poses[i].rotation.T
    for idx, sign in joints_on_path(model, i, k):
        joint = model.joint_of(idx)
        axis_world = poses[idx].rotation @ joint.axis
        jac[:, idx - 1] = sign * (ri_t @ axis_world)
    return jac


@dataclass
class IkResult:
    q: np.ndarray
    residual: float
    iterations: int
    converged: bool


def _pair_indices(model, targets):
    pairs = []
    for (name_i, name_k), target in targets.items():
        for n in (name_i, name_k):
            if n not in model.link_index:
                raise ModelError(f"IK target references unknown link {n!r}")
        pairs.append((model.link_index[name_i], model.link_index[name_k], target))
    return pairs


def _ik_residual(model, pairs, q):
    poses = forward_kinematics(model, q)
    r = []
    for i, k, target in pairs:
        rel = poses[i].inverse() @ poses[k]
        r.append(se3_log(target.inverse() @ rel))
    return np.concatenate(r) if r else np.zeros(0)


def ik_frame_match(model, targets, q_init=None, max_iter=100, tol=1e-12) -> IkResult:
    """Joint angles minimizing the summed squared SE(3) log of pose errors.

    ``targets`` maps (link_i, link_k) name pairs to the desired pose of k in
    frame i. The geodesic error norm is used with unit weights and the
    iterate is clamped to the joint limits. Non-convergence returns the best
    iterate with ``converged=False``.
    """
    pairs = _pair_indices(model, targets)
    lo, hi = model.limits()
    q = np.zeros(model.n_dof) if q_init is None else np.clip(np.asarray(q_init, float), lo, hi)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = _ik_residual(model, pairs, q)
        cost = float(res @ res)
        if cost <= tol:
            return IkResult(q, np.sqrt(cost), 0, True)

        damping = 1e-6
        it = 0
        for it in range(1, max_iter + 1):
            jac = np.zeros((res.size, model.n_dof))
            h = 1e-6
            for j in range(model.n_dof):
                qp = q.copy()
                qm = q.copy()
                qp[j] += h
                qm[j] -= h
                jac[:, j] = (_ik_residual(model, pairs, qp) - _ik_residual(model, pairs, qm)) / (2 * h)
            step = np.linalg.solve(jac.T @ jac + damping * np.eye(model.n_dof), -(jac.T @ res))
            q_new = np.clip(q + step, lo, hi)
            res_new = _ik_residual(model, pairs, q_new)
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


def joint_velocities_from_angular(model, q, angular_rates, damping=1e-8):
    """Joint rates from per-pair relative angular velocities, least squares.

    ``angular_rates`` maps (link_i, link_k) name pairs to the angular
    velocity of k relative to i expressed in frame i. Solves the stacked
    normal equations with Tikhonov damping; a rank-deficient stack still
    returns the damped solution but sets the flag.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        poses = forward_kinematics(model, q)
    jtj = damping * np.eye(model.n_dof)
    jtw = np.zeros(model.n_dof)
    rows = []
    for (name_i, name_k), omega in angular_rates.items():
        for n in (name_i, name_k):
            if n not in model.link_index:
                raise ModelError(f"velocity pair references unknown link {n!r}")
        jac = relative_angular_jacobian(
            model, poses, model.link_index[name_i], model.link_index[name_k]
        )
        rows.append(jac)
        jtj += jac.T @ jac
        jtw += jac.T @ np.asarray(omega, dtype=float)
    stacked = np.vstack(rows) if rows else np.zeros((0, model.n_dof))
    rank_deficient = np.linalg.matrix_rank(stacked) < model.n_dof if model.n_dof else False
    return np.linalg.solve(jtj, jtw), rank_deficient
