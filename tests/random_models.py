"""Seeded random chains, trees and joint states for the property tests."""

import numpy as np

from mapdyn.model.tree import Joint, KinematicTreeModel, Link
from mapdyn.spatial import HomTransform, SpatialInertia


def random_chain_model(n_links, rng, name="chain") -> KinematicTreeModel:
    """Random serial chain with well-conditioned inertias."""
    return _random_model(n_links, rng, name, lambda names: names[-1])


def random_tree_model(n_links, rng, name="tree") -> KinematicTreeModel:
    """Random tree: each link attaches to a uniformly chosen earlier link."""
    return _random_model(n_links, rng, name, lambda names: names[rng.integers(0, len(names))])


def _random_model(n_links, rng, name, pick_parent) -> KinematicTreeModel:
    links = [Link("base", _random_inertia(rng, 2.0))]
    joints = []
    names = ["base"]
    for i in range(1, n_links + 1):
        child = f"link{i}"
        parent = pick_parent(names)
        links.append(Link(child, _random_inertia(rng)))
        joints.append(
            Joint(
                f"joint{i}",
                parent,
                child,
                _random_axis(rng),
                HomTransform.from_rpy(rng.normal(0.0, 0.15, 3), rng.normal(0.0, 0.4, 3)),
                (-np.pi, np.pi),
            )
        )
        names.append(child)
    return KinematicTreeModel(name, links, joints)


def _random_inertia(rng, mass_scale=1.0) -> SpatialInertia:
    mass = mass_scale * rng.uniform(0.5, 3.0)
    com = rng.normal(0.0, 0.06, 3)
    a = rng.normal(0.0, 0.1, (3, 3))
    rot = a @ a.T + 0.02 * np.eye(3)
    return SpatialInertia(mass, com, rot)


def _random_axis(rng):
    axis = rng.normal(0.0, 1.0, 3)
    return axis / np.linalg.norm(axis)


def random_state(model, rng, q_scale=1.0, qd_scale=1.0, qdd_scale=1.0):
    n = model.n_dof
    return (
        rng.uniform(-q_scale, q_scale, n),
        rng.normal(0.0, qd_scale, n),
        rng.normal(0.0, qdd_scale, n),
    )
