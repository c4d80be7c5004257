"""Kinematic-tree data model: links, 1-DoF revolute joints, sensors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mapdyn.spatial import HomTransform, SpatialInertia, snap_rotation

DUMMY_MASS = 1e-4
DUMMY_INERTIA = 3e-4


class ModelError(ValueError):
    """Raised for structurally invalid models or documents."""


@dataclass(frozen=True)
class Shape:
    """Visual primitive attached to a link (box, cylinder or sphere)."""

    kind: str
    dims: tuple
    origin: HomTransform = field(default_factory=HomTransform.identity)

    def __post_init__(self):
        if self.kind not in ("box", "cylinder", "sphere"):
            raise ModelError(f"unsupported shape kind {self.kind!r}")


@dataclass(frozen=True)
class Link:
    name: str
    inertia: SpatialInertia | None = None
    visual: Shape | None = None
    is_dummy: bool = False


@dataclass(frozen=True)
class Joint:
    """1-DoF revolute joint: child pose = origin o rotation(axis, q)."""

    name: str
    parent: str
    child: str
    axis: np.ndarray
    origin: HomTransform
    limits: tuple = (-np.pi, np.pi)

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        n = np.linalg.norm(axis)
        if abs(n - 1.0) > 1e-12:
            if n < 1e-12:
                raise ModelError(f"joint {self.name!r} has a zero axis")
            axis = axis / n
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "origin", snap_rotation(self.origin))
        if self.limits[0] > self.limits[1]:
            raise ModelError(f"joint {self.name!r} has inverted limits")


@dataclass(frozen=True)
class SensorAttachment:
    name: str
    kind: str  # accelerometer | gyroscope
    parent_link: str
    pose: HomTransform = field(default_factory=HomTransform.identity)

    def __post_init__(self):
        if self.kind not in ("accelerometer", "gyroscope"):
            raise ModelError(f"unsupported sensor kind {self.kind!r}")
        object.__setattr__(self, "pose", snap_rotation(self.pose))


def dummy_link(name: str) -> Link:
    """Massless-in-practice chain link used to split multi-DoF joints."""
    inertia = SpatialInertia(DUMMY_MASS, np.zeros(3), DUMMY_INERTIA * np.eye(3))
    return Link(name, inertia, None, is_dummy=True)


class KinematicTreeModel:
    """Fixed-base tree of links coupled by 1-DoF revolute joints.

    Links are re-indexed topologically on construction: index 0 is the base
    and every moving link has a higher index than its parent. Moving link i
    pairs with exactly one joint, so the moving-link count equals the number
    of internal degrees of freedom. Instances are immutable after
    construction and safe to share between threads.
    """

    def __init__(self, name, links, joints, sensors=(), base=None):
        self.name = name
        by_name = {}
        for link in links:
            if link.name in by_name:
                raise ModelError(f"duplicate link name {link.name!r}")
            by_name[link.name] = link
        joint_by_child = {}
        seen_joint_names = set()
        for joint in joints:
            if joint.name in seen_joint_names:
                raise ModelError(f"duplicate joint name {joint.name!r}")
            seen_joint_names.add(joint.name)
            for end in (joint.parent, joint.child):
                if end not in by_name:
                    raise ModelError(f"joint {joint.name!r} references unknown link {end!r}")
            if joint.child in joint_by_child:
                raise ModelError(f"link {joint.child!r} has two parent joints")
            joint_by_child[joint.child] = joint

        roots = [n for n in by_name if n not in joint_by_child]
        if base is not None:
            if base not in by_name:
                raise ModelError(f"base link {base!r} not present")
            if base in joint_by_child:
                raise ModelError(f"base link {base!r} has a parent joint")
        elif len(roots) == 1:
            base = roots[0]
        else:
            raise ModelError(f"model must have exactly one root link, found {sorted(roots)}")

        children = {n: [] for n in by_name}
        for joint in joints:
            children[joint.parent].append(joint.child)

        # breadth-first order guarantees parent index < child index
        order = [base]
        head = 0
        while head < len(order):
            order.extend(children[order[head]])
            head += 1
        if len(order) != len(by_name):
            unreachable = sorted(set(by_name) - set(order))
            raise ModelError(f"links not connected to the base: {unreachable}")

        self.links = tuple(by_name[n] for n in order)
        self.link_index = {link.name: i for i, link in enumerate(self.links)}
        self.joints = tuple(joint_by_child[n] for n in order[1:])
        self.joint_index = {j.name: i for i, j in enumerate(self.joints)}
        self.parent = tuple(
            [-1] + [self.link_index[j.parent] for j in self.joints]
        )
        kids = [[] for _ in order]
        for i, j in enumerate(self.joints):
            kids[self.link_index[j.parent]].append(i + 1)
        self.children = tuple(tuple(k) for k in kids)

        for i in range(1, len(self.links)):
            if self.links[i].inertia is None:
                raise ModelError(f"moving link {self.links[i].name!r} lacks inertial data")

        self.sensors = tuple(sensors)
        seen_sensors = set()
        for s in self.sensors:
            if s.name in seen_sensors:
                raise ModelError(f"duplicate sensor name {s.name!r}")
            seen_sensors.add(s.name)
            if s.parent_link not in by_name:
                raise ModelError(f"sensor {s.name!r} attached to unknown link {s.parent_link!r}")

    @property
    def n_moving(self) -> int:
        """Number of moving links (equals the internal DoF count)."""
        return len(self.links) - 1

    @property
    def n_dof(self) -> int:
        return len(self.joints)

    @property
    def base(self) -> Link:
        return self.links[0]

    def joint_of(self, moving_index: int) -> Joint:
        """Joint coupling moving link ``moving_index`` (1-based) to its parent."""
        return self.joints[moving_index - 1]

    def inertia_of(self, index: int) -> SpatialInertia:
        inertia = self.links[index].inertia
        if inertia is None:
            raise ModelError(f"link {self.links[index].name!r} lacks inertial data")
        return inertia

    def limits(self):
        lo = np.array([j.limits[0] for j in self.joints])
        hi = np.array([j.limits[1] for j in self.joints])
        return lo, hi

    def sensors_of_kind(self, kind: str):
        return tuple(s for s in self.sensors if s.kind == kind)

    def __repr__(self):
        return (
            f"KinematicTreeModel({self.name!r}, moving={self.n_moving}, "
            f"dof={self.n_dof}, sensors={len(self.sensors)})"
        )
