import numpy as np
import pytest

from mapdyn.model import (
    ModelError,
    TemplateError,
    UrdfError,
    build_human_model,
    emit_model,
    example_landmarks,
    forward_kinematics,
    generate_human_template,
    ik_frame_match,
    load_body_tables,
    parse_model,
)
from mapdyn.model.tree import DUMMY_INERTIA, DUMMY_MASS
from mapdyn.spatial import HomTransform, orthonormality_drift, rotation_about_axis

from conftest import TWO_LINK_XML
from random_models import random_chain_model

# the knee pair split through a dummy link, as in the template listing
KNEE_SNIPPET = """
<robot name="knee">
  <link name="RightUpperLeg">
    <inertial>
      <mass value="9.5"/>
      <origin xyz="0 0 -0.2" rpy="0 0 0"/>
      <inertia ixx="0.15" iyy="0.02" izz="0.15" ixy="0" ixz="0" iyz="0"/>
    </inertial>
  </link>
  <link name="RightLowerLeg_f1">
    <inertial>
      <mass value="0.0001"/>
      <origin xyz="0 0 0" rpy="0 0 0"/>
      <inertia ixx="0.0003" iyy="0.0003" izz="0.0003" ixy="0" ixz="0" iyz="0"/>
    </inertial>
  </link>
  <link name="RightLowerLeg">
    <inertial>
      <mass value="2.8"/>
      <origin xyz="0 0 -0.18" rpy="0 0 0"/>
      <inertia ixx="0.05" iyy="0.008" izz="0.05" ixy="0" ixz="0" iyz="0"/>
    </inertial>
  </link>
  <joint name="jRightKnee_roty" type="revolute">
    <origin xyz="0 0 -0.44" rpy="0 0 0"/>
    <parent link="RightUpperLeg"/>
    <child link="RightLowerLeg_f1"/>
    <limit lower="0" upper="2.35619"/>
    <axis xyz="0 1 0"/>
  </joint>
  <joint name="jRightKnee_rotz" type="revolute">
    <origin xyz="0 0 0" rpy="0 0 0"/>
    <parent link="RightLowerLeg_f1"/>
    <child link="RightLowerLeg"/>
    <limit lower="-0.698132" upper="0.523599"/>
    <axis xyz="0 0 1"/>
  </joint>
</robot>
"""


def structurally_equal(first, second) -> bool:
    """Structural equality of two models (names, numbers, topology, sensors).

    Scalars and translations compare exactly; rotation matrices within
    1e-14, since serialization goes through Euler angles.
    """

    def same_rot(a, b):
        return np.allclose(a, b, rtol=0.0, atol=1e-14)

    if (
        first.name != second.name
        or len(first.links) != len(second.links)
        or len(first.sensors) != len(second.sensors)
    ):
        return False
    for a, b in zip(first.links, second.links):
        if a.name != b.name or a.is_dummy != b.is_dummy:
            return False
        if (a.inertia is None) != (b.inertia is None):
            return False
        if a.inertia is not None:
            if (
                a.inertia.mass != b.inertia.mass
                or not np.array_equal(a.inertia.com, b.inertia.com)
                or not np.array_equal(a.inertia.inertia, b.inertia.inertia)
            ):
                return False
        if (a.visual is None) != (b.visual is None):
            return False
        if a.visual is not None:
            if a.visual.kind != b.visual.kind or a.visual.dims != b.visual.dims:
                return False
            if not np.array_equal(
                a.visual.origin.translation, b.visual.origin.translation
            ) or not same_rot(a.visual.origin.rotation, b.visual.origin.rotation):
                return False
    for a, b in zip(first.joints, second.joints):
        if (
            a.name != b.name
            or a.parent != b.parent
            or a.child != b.child
            or not np.array_equal(a.axis, b.axis)
            or a.limits != b.limits
            or not np.array_equal(a.origin.translation, b.origin.translation)
            or not same_rot(a.origin.rotation, b.origin.rotation)
        ):
            return False
    for a, b in zip(first.sensors, second.sensors):
        if (
            a.name != b.name
            or a.kind != b.kind
            or a.parent_link != b.parent_link
            or not np.array_equal(a.pose.translation, b.pose.translation)
            or not same_rot(a.pose.rotation, b.pose.rotation)
        ):
            return False
    return True


class TestParser:
    def test_knee_snippet(self):
        model = parse_model(KNEE_SNIPPET)
        assert model.n_moving == 2
        assert model.n_dof == 2
        dummies = [l for l in model.links if l.is_dummy]
        assert len(dummies) == 1
        assert dummies[0].name == "RightLowerLeg_f1"
        assert dummies[0].inertia.mass == DUMMY_MASS
        assert np.allclose(dummies[0].inertia.inertia, DUMMY_INERTIA * np.eye(3))

    def test_minimal_base_only(self):
        model = parse_model('<robot name="m"><link name="base"/></robot>')
        assert model.n_moving == 0
        assert model.n_dof == 0

    def test_full_template(self, subject):
        model = parse_model(generate_human_template(subject))
        assert model.n_moving == 48
        assert model.n_dof == 48
        assert len(model.sensors_of_kind("accelerometer")) == 17
        assert len(model.sensors_of_kind("gyroscope")) == 17

    def test_unknown_joint_type(self):
        doc = TWO_LINK_XML.replace('type="revolute"', 'type="prismatic"', 1)
        with pytest.raises(UrdfError, match="prismatic"):
            parse_model(doc)

    def test_dangling_reference(self):
        doc = TWO_LINK_XML.replace('<parent link="base"/>', '<parent link="nolink"/>')
        with pytest.raises(UrdfError, match="nolink"):
            parse_model(doc)

    def test_duplicate_name(self):
        doc = TWO_LINK_XML.replace('<link name="link2">', '<link name="link1">', 1)
        with pytest.raises(UrdfError, match="duplicate"):
            parse_model(doc)

    def test_malformed_number_reports_path(self):
        doc = TWO_LINK_XML.replace('<mass value="3.0"/>', '<mass value="3.O"/>')
        with pytest.raises(UrdfError, match=r"link1.*mass|mass.*link1"):
            parse_model(doc)

    def test_sensor_on_unknown_link(self):
        doc = TWO_LINK_XML.replace('<parent link="link2"/>\n    <origin xyz="0.02', '<parent link="ghost"/>\n    <origin xyz="0.02')
        with pytest.raises(UrdfError, match="ghost"):
            parse_model(doc)

    def test_round_trip(self, subject):
        for doc in (TWO_LINK_XML, KNEE_SNIPPET, generate_human_template(subject)):
            first = parse_model(doc)
            second = parse_model(emit_model(first))
            assert structurally_equal(first, second)

    def test_topological_order_with_shuffled_elements(self, rng):
        import re

        doc = generate_human_template({"mass_total": 60.0, "landmarks": example_landmarks()})
        blocks = re.findall(r"(?s)(  <(?:link|joint|sensor).*?</(?:link|joint|sensor)>\n)", doc)
        assert len(blocks) > 100
        order = rng.permutation(len(blocks))
        shuffled = '<robot name="human_48dof">\n' + "".join(blocks[i] for i in order) + "</robot>\n"
        model = parse_model(shuffled)
        assert model.n_moving == 48
        for i in range(1, model.n_moving + 1):
            assert model.parent[i] < i


class TestTemplate:
    def test_pelvis_mass_fraction(self, subject, human_model):
        pelvis = human_model.links[human_model.link_index["Pelvis"]]
        assert pelvis.inertia.mass == pytest.approx(0.08 * 75.9, abs=1e-9)

    def test_all_masses_match_table(self, subject, human_model):
        tables = load_body_tables()
        for spec in tables["links"]:
            link = human_model.links[human_model.link_index[spec["name"]]]
            assert link.inertia.mass == pytest.approx(spec["mass_fraction"] * 75.9, abs=1e-9)

    def test_toe_fraction_asymmetry_preserved(self, human_model):
        right = human_model.links[human_model.link_index["RightToe"]].inertia.mass
        left = human_model.links[human_model.link_index["LeftToe"]].inertia.mass
        assert right == pytest.approx(0.015 * 75.9, abs=1e-9)
        assert left == pytest.approx(0.0015 * 75.9, abs=1e-9)

    def test_knee_expansion(self, human_model):
        roty = human_model.joints[human_model.joint_index["jRightKnee_roty"]]
        rotz = human_model.joints[human_model.joint_index["jRightKnee_rotz"]]
        assert roty.limits == (0.0, 2.35619)
        assert rotz.limits == (-0.698132, 0.523599)
        assert roty.child == "RightLowerLeg_f1"
        assert rotz.parent == "RightLowerLeg_f1"
        assert rotz.child == "RightLowerLeg"

    def test_total_dof_count(self, human_model):
        assert human_model.n_dof == 48
        assert human_model.n_moving == 48

    def test_missing_landmark_names_blocked_link(self, subject):
        landmarks = dict(example_landmarks())
        del landmarks["jRightKnee"]
        with pytest.raises(TemplateError, match="jRightKnee"):
            generate_human_template({"mass_total": 60.0, "landmarks": landmarks})

    def test_mass_field_is_decimal_exact(self, subject):
        xml = generate_human_template(subject)
        assert '<mass value="6.072"/>' in xml

    def test_foot_rooted_variant(self, human_model_foot):
        assert human_model_foot.base.name == "LeftFoot"
        assert human_model_foot.n_dof == 48
        assert human_model_foot.n_moving == 48
        # pelvis is now a moving link
        assert human_model_foot.link_index["Pelvis"] > 0


class TestForwardKinematics:
    def test_zero_angles_compose_origins(self, two_link_model):
        poses = forward_kinematics(two_link_model, np.zeros(2))
        j1 = two_link_model.joints[0].origin
        j2 = two_link_model.joints[1].origin
        assert poses[0].isclose(HomTransform.identity())
        assert poses[1].isclose(j1)
        assert poses[2].isclose(j1 @ j2, tol=1e-14)

    def test_single_revolute_about_z(self):
        doc = """
        <robot name="r"><link name="base"/><link name="l1">
          <inertial><mass value="1"/><origin xyz="0 0 0" rpy="0 0 0"/>
          <inertia ixx="0.01" iyy="0.01" izz="0.01" ixy="0" ixz="0" iyz="0"/></inertial></link>
          <joint name="j1" type="revolute"><origin xyz="0 0 0" rpy="0 0 0"/>
          <parent link="base"/><child link="l1"/><axis xyz="0 0 1"/></joint></robot>
        """
        model = parse_model(doc)
        poses = forward_kinematics(model, np.array([np.pi / 2]))
        # the child x-axis maps onto the parent y-axis
        assert np.allclose(poses[1].rotation @ [1, 0, 0], [0, 1, 0], atol=1e-14)

    def test_random_q_against_recomposition_oracle(self, human_model, rng):
        q = rng.uniform(-0.4, 0.4, 48)
        poses = forward_kinematics(human_model, q)

        def oracle_pose(index):
            # straight-line 4x4 chain product, independent of HomTransform
            chain = []
            i = index
            while i != 0:
                joint = human_model.joint_of(i)
                m = np.eye(4)
                m[:3, :3] = joint.origin.rotation @ rotation_about_axis(joint.axis, q[i - 1])
                m[:3, 3] = joint.origin.translation
                chain.append(m)
                i = human_model.parent[i]
            out = np.eye(4)
            for m in reversed(chain):
                out = out @ m
            return out

        for index in (1, 7, 20, 33, 48):
            expected = oracle_pose(index)
            assert np.allclose(poses[index].matrix(), expected, atol=1e-12)

    def test_relative_transform_depends_only_on_own_joint(self, human_model, rng):
        q1 = rng.uniform(-0.3, 0.3, 48)
        q2 = q1.copy()
        i = 20
        # change every other joint angle
        mask = np.ones(48, bool)
        mask[i - 1] = False
        q2[mask] += rng.uniform(0.05, 0.2, mask.sum())
        p1 = forward_kinematics(human_model, q1)
        p2 = forward_kinematics(human_model, q2)
        rel1 = p1[human_model.parent[i]].inverse() @ p1[i]
        rel2 = p2[human_model.parent[i]].inverse() @ p2[i]
        assert rel1.isclose(rel2, tol=1e-12)

    def test_dimension_mismatch(self, two_link_model):
        with pytest.raises(ModelError):
            forward_kinematics(two_link_model, np.zeros(3))

    def test_long_chain_poses_stay_in_so3(self, rng):
        """Composed poses drift far below the snap threshold, so FK output needs no snap."""
        for _ in range(5):
            model = random_chain_model(200, rng)
            poses = forward_kinematics(model, rng.uniform(-np.pi, np.pi, model.n_dof))
            assert max(orthonormality_drift(p.rotation) for p in poses) <= 1e-12


class TestInverseKinematics:
    def test_round_trip_recovery(self, two_link_model, rng):
        q_star = np.array([0.8, -0.6])
        poses = forward_kinematics(two_link_model, q_star)
        targets = {
            ("base", "link1"): poses[1],
            ("link1", "link2"): poses[1].inverse() @ poses[2],
        }
        result = ik_frame_match(two_link_model, targets, q_init=np.array([0.1, 0.1]))
        assert result.converged
        assert np.allclose(result.q, q_star, atol=1e-6)

    def test_converges_immediately_at_target(self, two_link_model):
        q0 = np.array([0.5, -0.3])
        poses = forward_kinematics(two_link_model, q0)
        targets = {("base", "link2"): poses[2]}
        result = ik_frame_match(two_link_model, targets, q_init=q0)
        assert result.iterations == 0
        assert result.residual < 1e-9

    def test_target_outside_limits_clamps(self):
        doc = """
        <robot name="r"><link name="base"/><link name="l1">
          <inertial><mass value="1"/><origin xyz="0 0 0" rpy="0 0 0"/>
          <inertia ixx="0.01" iyy="0.01" izz="0.01" ixy="0" ixz="0" iyz="0"/></inertial></link>
          <joint name="j1" type="revolute"><origin xyz="0 0 0" rpy="0 0 0"/>
          <parent link="base"/><child link="l1"/><axis xyz="0 0 1"/>
          <limit lower="-0.5" upper="0.5"/></joint></robot>
        """
        model = parse_model(doc)
        target = HomTransform(rotation_about_axis(np.array([0, 0, 1.0]), 1.2), np.zeros(3))
        result = ik_frame_match(model, {("base", "l1"): target}, q_init=np.zeros(1))
        assert result.q[0] == pytest.approx(0.5, abs=1e-9)

    def test_human_posture_recovery(self, human_model, rng):
        q_star = rng.uniform(-0.25, 0.25, 48)
        lo, hi = human_model.limits()
        q_star = np.clip(q_star, lo + 1e-3, hi - 1e-3)
        poses = forward_kinematics(human_model, q_star)
        targets = {}
        for i in range(1, 49):
            child = human_model.links[i].name
            parent = human_model.links[human_model.parent[i]].name
            targets[(parent, child)] = poses[human_model.parent[i]].inverse() @ poses[i]
        result = ik_frame_match(human_model, targets, q_init=np.clip(q_star + rng.normal(0, 0.05, 48), lo, hi))
        assert result.converged
        assert np.allclose(result.q, q_star, atol=1e-6)

    def test_residual_of_a_stack_matches_one_state_at_a_time(self, human_model, rng):
        from mapdyn.model.kinematics import _ik_residual, _pair_indices

        poses = forward_kinematics(human_model, rng.uniform(-0.25, 0.25, 48))
        targets = {
            (human_model.links[human_model.parent[i]].name, human_model.links[i].name):
                poses[human_model.parent[i]].inverse() @ poses[i]
            for i in range(1, 49)
        }
        pairs = _pair_indices(human_model, targets)
        states = rng.uniform(-0.3, 0.3, (5, 48))
        stack = _ik_residual(human_model, pairs, states)
        assert stack.shape == (5, 6 * 48)
        for state, row in zip(states, stack):
            np.testing.assert_array_equal(_ik_residual(human_model, pairs, state[None])[0], row)

    def test_unknown_link_is_a_model_error(self, two_link_model):
        with pytest.raises(ModelError, match="unknown link 'hand'"):
            ik_frame_match(two_link_model, {("base", "hand"): HomTransform.identity()})

    def test_warm_started_human_frame_is_fast(self, human_model, rng):
        """One 48-DoF frame, started 0.02 rad off, converges in well under a second."""
        import time

        lo, hi = human_model.limits()
        q_star = np.clip(rng.uniform(-0.25, 0.25, 48), lo + 1e-3, hi - 1e-3)
        poses = forward_kinematics(human_model, q_star)
        targets = {
            (human_model.links[human_model.parent[i]].name, human_model.links[i].name):
                poses[human_model.parent[i]].inverse() @ poses[i]
            for i in range(1, 49)
        }
        q_init = np.clip(q_star + rng.normal(0, 0.02, 48), lo, hi)
        ik_frame_match(human_model, targets, q_init=q_init)  # warm: imports and tree arrays
        start = time.perf_counter()
        result = ik_frame_match(human_model, targets, q_init=q_init)
        elapsed = time.perf_counter() - start
        assert result.converged
        assert np.allclose(result.q, q_star, atol=1e-6)
        assert elapsed < 0.2
