"""Anthropometric 48-DoF human template generator.

Link masses come from a tabulated fraction of the subject's total mass;
rotational inertias from the primitive-shape formulas; multi-DoF joints are
expanded into chains of 1-DoF revolute joints through near-massless dummy
links. Every shape's dominant dimension is the distance between two named
bony landmarks (the mapping table ships as package data so it is auditable);
secondary dimensions are fixed ratios of it.

The table's Toe mass fractions are asymmetric (RightToe 0.015, LeftToe
0.0015); the template reproduces the table verbatim. The 48 moving links
split into 22 named segments plus 26 chain-splitting dummy links; only the
totals (48 links, 48 DoFs) are asserted downstream.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from mapdyn.spatial import HomTransform, SpatialInertia, inertia_of_shape
from mapdyn.model.tree import Joint, KinematicTreeModel, Link, ModelError, SensorAttachment, Shape, dummy_link
from mapdyn.model.urdf import emit_model

_AXES = {"x": np.array([1.0, 0.0, 0.0]), "y": np.array([0.0, 1.0, 0.0]), "z": np.array([0.0, 0.0, 1.0])}


class TemplateError(ModelError):
    """Template generation failure (usually a missing landmark)."""


def load_body_tables() -> dict:
    with resources.files("mapdyn.model.data").joinpath("human_body.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def example_landmarks() -> dict:
    with resources.files("mapdyn.model.data").joinpath("example_landmarks.json").open(encoding="utf-8") as fh:
        return {k: np.asarray(v, dtype=float) for k, v in json.load(fh)["landmarks"].items()}


def _landmark(landmarks, name, blocks):
    try:
        return np.asarray(landmarks[name], dtype=float)
    except KeyError:
        raise TemplateError(f"landmark {name!r} required for {blocks!r} is missing") from None


def _segment_inertia(spec, mass, landmarks):
    """(SpatialInertia about the shape center, shape, center point) for one segment."""
    name = spec["name"]
    a = _landmark(landmarks, spec["predominant"][0], f"link {name}")
    b = _landmark(landmarks, spec["predominant"][1], f"link {name}")
    length = float(np.linalg.norm(b - a))
    if length <= 0:
        raise TemplateError(f"landmarks for link {name!r} coincide")
    center = 0.5 * (a + b)
    long_axis = spec["long_axis"]
    ratios = spec["ratios"]

    if spec["shape"] == "sphere":
        radius = 0.5 * length
        rot = inertia_of_shape("sphere", (radius,), mass)
        shape = Shape("sphere", (radius,))
    elif spec["shape"] == "cylinder":
        radius = ratios["radius"] * length
        # table convention: the cylinder symmetry axis is y
        rot_y = inertia_of_shape("cylinder", (radius, length), mass)
        rot = _permute_principal(rot_y, from_axis="y", to_axis=long_axis)
        shape = Shape("cylinder", (radius, length))
    else:  # parallelepiped
        dims = {long_axis: length}
        for axis in "xyz":
            if axis == long_axis:
                continue
            key = {"x": "depth", "y": "width", "z": "height"}[axis]
            dims[axis] = ratios[key] * length
        # table convention: width alpha = y extent, height beta = z, depth gamma = x
        rot = inertia_of_shape("parallelepiped", (dims["y"], dims["z"], dims["x"]), mass)
        shape = Shape("box", (dims["x"], dims["y"], dims["z"]))
    return rot, shape, center


def _permute_principal(diag_inertia, from_axis, to_axis):
    """Move a shape's symmetry axis from one frame axis to another."""
    if from_axis == to_axis:
        return diag_inertia
    order = ["x", "y", "z"]
    perm = list(range(3))
    i, j = order.index(from_axis), order.index(to_axis)
    perm[i], perm[j] = perm[j], perm[i]
    d = np.diag(diag_inertia)
    return np.diag(d[perm])


def _joint_limits(tables, sub_name):
    lim = tables["limits"].get(sub_name, tables["limits"]["default"])
    return (float(lim[0]), float(lim[1]))


def build_human_model(subject: dict, root: str = "Pelvis") -> KinematicTreeModel:
    """Assemble the template as a model object (see generate_human_template)."""
    tables = load_body_tables()
    mass_total = float(subject["mass_total"])
    if mass_total <= 0:
        raise TemplateError("total mass must be positive")
    landmarks = subject["landmarks"]

    link_specs = {spec["name"]: spec for spec in tables["links"]}
    if root not in link_specs:
        raise TemplateError(f"unknown root link {root!r}")

    # undirected adjacency over the canonical joint table
    adjacency = {name: [] for name in link_specs}
    for jspec in tables["joints"]:
        adjacency[jspec["parent"]].append((jspec, jspec["child"], False))
        adjacency[jspec["child"]].append((jspec, jspec["parent"], True))

    # walk the tree from the chosen root; frame_lm[link] is the landmark the
    # link frame sits at (the joint attaching it toward the root)
    frame_lm = {}
    if root == "Pelvis":
        frame_lm[root] = tables["root_frame_landmark"]
    else:
        attaching = next(j for j in tables["joints"] if root in (j["parent"], j["child"]))
        frame_lm[root] = attaching["landmark"]

    links = []
    joints = []

    def make_link(name):
        spec = link_specs[name]
        # fractions are decimal table data: round away binary product noise
        mass = round(spec["mass_fraction"] * mass_total, 10)
        rot, shape, center = _segment_inertia(spec, mass, landmarks)
        origin = _landmark(landmarks, frame_lm[name], f"link {name}")
        com = center - origin
        visual = Shape(shape.kind, shape.dims, HomTransform(np.eye(3), com))
        return Link(name, SpatialInertia(mass, com, rot), visual)

    links.append(make_link(root))
    stack = [root]
    visited = {root}
    while stack:
        parent_name = stack.pop(0)
        parent_origin = _landmark(landmarks, frame_lm[parent_name], f"link {parent_name}")
        for jspec, other, reversed_edge in adjacency[parent_name]:
            if other in visited:
                continue
            visited.add(other)
            frame_lm[other] = jspec["landmark"]
            joint_pos = _landmark(landmarks, jspec["landmark"], f"joint {jspec['name']}")
            offset = joint_pos - parent_origin

            axes = jspec["axes"]
            chain_parent = parent_name
            for k, axis in enumerate(axes):
                last = k == len(axes) - 1
                child_name = other if last else f"{other}_f{k + 1}"
                sub_name = f"{jspec['name']}_rot{axis}"
                lo, hi = _joint_limits(tables, sub_name)
                if reversed_edge:
                    lo, hi = -hi, -lo
                joints.append(
                    Joint(
                        sub_name,
                        chain_parent,
                        child_name,
                        _AXES[axis],
                        HomTransform(np.eye(3), offset if k == 0 else np.zeros(3)),
                        (lo, hi),
                    )
                )
                if not last:
                    links.append(dummy_link(child_name))
                chain_parent = child_name
            links.append(make_link(other))
            stack.append(other)

    sensors = []
    for link_name in tables["imu_links"]:
        spec = link_specs[link_name]
        mass = spec["mass_fraction"] * mass_total
        _, _, center = _segment_inertia(spec, mass, landmarks)
        origin = _landmark(landmarks, frame_lm[link_name], f"sensor on {link_name}")
        pose = HomTransform(np.eye(3), center - origin + np.array([0.04, 0.0, 0.0]))
        sensors.append(SensorAttachment(f"{link_name}_gyro", "gyroscope", link_name, pose))
        sensors.append(SensorAttachment(f"{link_name}_accelerometer", "accelerometer", link_name, pose))

    return KinematicTreeModel("human_48dof", links, joints, sensors, base=root)


def generate_human_template(subject: dict, root: str = "Pelvis") -> str:
    """Emit the 48-DoF human template as URDF-subset XML.

    ``subject`` carries ``mass_total`` (kg) and ``landmarks`` (name ->
    3-vector, meters, T pose). A missing landmark raises
    :class:`TemplateError` naming the link or joint it blocks.
    """
    return emit_model(build_human_model(subject, root=root))
