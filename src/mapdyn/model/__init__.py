"""Kinematic-tree model: types, URDF-subset I/O, template generator, IK."""

from mapdyn.model.tree import (
    DUMMY_INERTIA,
    DUMMY_MASS,
    Joint,
    KinematicTreeModel,
    Link,
    ModelError,
    SensorAttachment,
    Shape,
    dummy_link,
)
from mapdyn.model.urdf import UrdfError, emit_model, parse_model
from mapdyn.model.template import (
    TemplateError,
    build_human_model,
    example_landmarks,
    generate_human_template,
    load_body_tables,
)
from mapdyn.model.kinematics import (
    IkResult,
    forward_kinematics,
    ik_frame_match,
)

__all__ = [
    "DUMMY_INERTIA",
    "DUMMY_MASS",
    "IkResult",
    "Joint",
    "KinematicTreeModel",
    "Link",
    "ModelError",
    "SensorAttachment",
    "Shape",
    "TemplateError",
    "UrdfError",
    "build_human_model",
    "dummy_link",
    "emit_model",
    "example_landmarks",
    "forward_kinematics",
    "generate_human_template",
    "ik_frame_match",
    "load_body_tables",
    "parse_model",
]
