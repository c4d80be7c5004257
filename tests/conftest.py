import numpy as np
import pytest

from mapdyn.model import build_human_model, example_landmarks, parse_model

# 2-link chain standing on a force plate with an IMU on the top link;
# exercises the parser including the sensor extension.
TWO_LINK_XML = """
<robot name="two_link">
  <link name="base">
    <inertial>
      <mass value="2.0"/>
      <origin xyz="0 0 0.05" rpy="0 0 0"/>
      <inertia ixx="0.02" iyy="0.025" izz="0.015" ixy="0" ixz="0" iyz="0"/>
    </inertial>
  </link>
  <link name="link1">
    <inertial>
      <mass value="3.0"/>
      <origin xyz="0.01 -0.02 0.15" rpy="0 0 0"/>
      <inertia ixx="0.05" iyy="0.055" izz="0.012" ixy="0.001" ixz="0" iyz="0.002"/>
    </inertial>
  </link>
  <link name="link2">
    <inertial>
      <mass value="2.0"/>
      <origin xyz="-0.015 0.01 0.12" rpy="0 0 0"/>
      <inertia ixx="0.03" iyy="0.028" izz="0.009" ixy="0" ixz="0.0015" iyz="0"/>
    </inertial>
  </link>
  <joint name="joint1" type="revolute">
    <origin xyz="0 0 0.1" rpy="0 0 0"/>
    <parent link="base"/>
    <child link="link1"/>
    <axis xyz="0 1 0"/>
    <limit lower="-2.5" upper="2.5"/>
  </joint>
  <joint name="joint2" type="revolute">
    <origin xyz="0.02 0 0.3" rpy="0.05 0 0"/>
    <parent link="link1"/>
    <child link="link2"/>
    <axis xyz="1 0 0"/>
    <limit lower="-2.0" upper="2.0"/>
  </joint>
  <sensor name="link2_gyro" type="gyroscope">
    <parent link="link2"/>
    <origin xyz="0.02 0.01 0.08" rpy="0.1 -0.2 0.3"/>
  </sensor>
  <sensor name="link2_accelerometer" type="accelerometer">
    <parent link="link2"/>
    <origin xyz="0.02 0.01 0.08" rpy="0.1 -0.2 0.3"/>
  </sensor>
</robot>
"""

# both links hang along gravity at q = 0 (centered masses, y-axis joints)
PENDULUM_XML = """
<robot name="pendulum">
  <link name="base">
    <inertial>
      <mass value="1.0"/>
      <origin xyz="0 0 0" rpy="0 0 0"/>
      <inertia ixx="0.01" iyy="0.01" izz="0.01" ixy="0" ixz="0" iyz="0"/>
    </inertial>
  </link>
  <link name="link1">
    <inertial>
      <mass value="1.5"/>
      <origin xyz="0 0 -0.2" rpy="0 0 0"/>
      <inertia ixx="0.02" iyy="0.02" izz="0.004" ixy="0" ixz="0" iyz="0"/>
    </inertial>
  </link>
  <link name="link2">
    <inertial>
      <mass value="1.0"/>
      <origin xyz="0 0 -0.15" rpy="0 0 0"/>
      <inertia ixx="0.01" iyy="0.01" izz="0.002" ixy="0" ixz="0" iyz="0"/>
    </inertial>
  </link>
  <joint name="joint1" type="revolute">
    <origin xyz="0 0 0" rpy="0 0 0"/>
    <parent link="base"/>
    <child link="link1"/>
    <axis xyz="0 1 0"/>
  </joint>
  <joint name="joint2" type="revolute">
    <origin xyz="0 0 -0.4" rpy="0 0 0"/>
    <parent link="link1"/>
    <child link="link2"/>
    <axis xyz="0 1 0"/>
  </joint>
</robot>
"""


@pytest.fixture(scope="session")
def two_link_model():
    return parse_model(TWO_LINK_XML)


@pytest.fixture(scope="session")
def pendulum_model():
    return parse_model(PENDULUM_XML)


@pytest.fixture(scope="session")
def subject():
    return {"mass_total": 75.9, "landmarks": example_landmarks()}


@pytest.fixture(scope="session")
def human_model(subject):
    return build_human_model(subject)


@pytest.fixture(scope="session")
def human_model_foot(subject):
    return build_human_model(subject, root="LeftFoot")


@pytest.fixture(autouse=True)
def _silence_limit_warnings():
    import warnings

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="joint limits violated.*")
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def two_link_problem(two_link_model, rng):
    """MapProblem built from a consistent synthetic state of the 2-link model.

    Returns (problem, ground-truth d, (q, qd)).
    """
    from mapdyn.dynamics import ConstraintAssembler, rnea
    from mapdyn.sensors import MeasurementAssembler, default_sensor_specs, simulate_readings
    from mapdyn.estimator import MapProblem
    from oracles import one_state_system

    q = rng.uniform(-0.6, 0.6, 2)
    qd = rng.normal(0, 0.8, 2)
    qdd = rng.normal(0, 1.0, 2)
    fx = np.zeros((2, 6))
    fx[1] = rng.normal(0, 4.0, 6)
    d_star = rnea(two_link_model, q, qd, qdd, fx_base=fx)
    specs = default_sensor_specs(two_link_model, contact_links=("link2",))
    assembler = MeasurementAssembler(two_link_model, specs)
    mat_d, b_d, mat_y, b_y = one_state_system(ConstraintAssembler(two_link_model), assembler, q, qd)
    y = simulate_readings(two_link_model, assembler, q, qd, d_star, rng=7)
    problem = MapProblem(mat_d, b_d, mat_y, b_y, y, sigma_y=assembler.variances)
    return problem, d_star, (q, qd)
