import dataclasses

import numpy as np
import pytest

from mapdyn.dynamics import (
    ConstraintAssembler,
    DynLayout,
    extract_lagrangian_terms,
    id_bottomup,
    id_topdown,
    kinematic_sweep,
    rnea,
)
from mapdyn.model import parse_model
from mapdyn.spatial import (
    GRAVITY_SPATIAL,
    adjoint_force,
    adjoint_motion,
    cross_force,
)

from oracles import link_poses_4x4, one_state
from random_models import random_chain_model, random_state, random_tree_model

SINGLE_LINK_XML = """
<robot name="single">
  <link name="base">
    <inertial><mass value="2.0"/><origin xyz="0 0 0" rpy="0 0 0"/>
    <inertia ixx="0.01" iyy="0.01" izz="0.01" ixy="0" ixz="0" iyz="0"/></inertial>
  </link>
  <link name="arm">
    <inertial><mass value="4.0"/><origin xyz="0.3 0 0" rpy="0 0 0"/>
    <inertia ixx="0.002" iyy="0.12" izz="0.12" ixy="0" ixz="0" iyz="0"/></inertial>
  </link>
  <joint name="shoulder" type="revolute">
    <origin xyz="0 0 1.0" rpy="0 0 0"/>
    <parent link="base"/><child link="arm"/>
    <axis xyz="0 1 0"/>
  </joint>
</robot>
"""


@pytest.fixture(scope="module")
def single_link():
    return parse_model(SINGLE_LINK_XML)


@pytest.fixture(scope="module")
def five_link():
    return random_chain_model(5, np.random.default_rng(7))


class TestRnea:
    def test_static_single_link(self, single_link):
        """Statics: holding wrench equals the weight, torque its moment."""
        layout = DynLayout(single_link)
        d = rnea(single_link, np.zeros(1), np.zeros(1), np.zeros(1))
        mass, com = 4.0, np.array([0.3, 0.0, 0.0])
        f = d[layout.joint_force(1)]
        # the joint must push the link up against gravity
        assert np.allclose(f[:3], [0, 0, mass * 9.81], atol=1e-12)
        # moment about the joint origin from the offset weight
        expected_moment = np.cross(com, np.array([0, 0, mass * 9.81]))
        assert np.allclose(f[3:], expected_moment, atol=1e-12)
        # torque = projection on the y axis
        assert d[layout.tau(1)] == pytest.approx(expected_moment[1])

    def test_vertical_pendulum_zero_torque(self, pendulum_model):
        layout = DynLayout(pendulum_model)
        d = rnea(pendulum_model, np.zeros(2), np.zeros(2), np.zeros(2))
        assert np.allclose(d[layout.tau_indices()], 0, atol=1e-12)

    def test_matches_lagrangian_oracle(self, five_link, rng):
        layout = DynLayout(five_link)
        for _ in range(10):
            q, qd, qdd = random_state(five_link, rng)
            fx = rng.normal(0, 10.0, (5, 6))
            terms = extract_lagrangian_terms(five_link, q, qd)
            tau_direct = rnea(five_link, q, qd, qdd, fx_base=fx)[layout.tau_indices()]
            assert np.allclose(tau_direct, terms.torques(qdd, fx.ravel()), atol=1e-9)

    def test_fills_every_slot(self, five_link, rng):
        layout = DynLayout(five_link)
        q, qd, qdd = random_state(five_link, rng)
        fx = rng.normal(0, 1.0, (5, 6))
        d = rnea(five_link, q, qd, qdd, fx_base=fx)
        assert d.shape == (26 * 5,)
        assert np.allclose(d[layout.ddq_indices()], qdd)
        assert np.allclose(d[layout.fx_indices()], fx.ravel())
        # acceleration slots propagate gravity: nonzero even at rest
        assert np.abs(d[layout.a_indices()]).max() > 1.0


class TestConstraintAssembly:
    def test_rnea_satisfies_constraints_two_link(self, two_link_model, rng):
        q, qd, qdd = random_state(two_link_model, rng)
        fx = rng.normal(0, 5.0, (2, 6))
        d = rnea(two_link_model, q, qd, qdd, fx_base=fx)
        mat, b = one_state(ConstraintAssembler(two_link_model), q, qd)
        res = np.abs(mat @ d + b).max()
        assert res <= 1e-9 * (1 + np.abs(d).max())

    def test_zero_motion_residual_is_base_gravity_rows(self, two_link_model):
        mat, b = one_state(ConstraintAssembler(two_link_model), np.array([0.4, -0.2]), np.zeros(2))
        res = mat @ np.zeros(52) + b
        # only the acceleration rows of base children carry the gravity bias
        assert np.abs(res[:6]).max() > 1.0
        assert np.allclose(res[6:19], 0)
        assert np.allclose(res[19:], 0)

    def test_dimensions_48dof(self, human_model):
        mat, b = one_state(ConstraintAssembler(human_model), np.zeros(48), np.zeros(48))
        assert mat.shape == (912, 1248)
        assert b.shape == (912,)

    def test_pattern_reuse_matches_fresh_assembly(self, five_link, rng):
        assembler = ConstraintAssembler(five_link)
        for _ in range(3):
            q, qd, _ = random_state(five_link, rng)
            d1, b1 = one_state(assembler, q, qd)
            fresh_d, fresh_b = one_state(ConstraintAssembler(five_link), q, qd)
            assert np.allclose((d1 - fresh_d).toarray(), 0)
            assert np.allclose(b1, fresh_b)

    def test_block_pattern_stores_no_constant_zero(self):
        from mapdyn.dynamics import MOTION_ADJOINT_ZERO, BlockPattern

        pattern = BlockPattern()
        pattern.add(0, 0, 2, 2, np.array([[1.0, 0.0], [0.0, -2.0]]))
        pattern.add(0, 4, 2, 1, 0.0)
        state = pattern.add(2, 0, 6, 6, zero=MOTION_ADJOINT_ZERO)
        pattern.freeze((8, 6))
        slots, sources = pattern.state_slots([(state, np.arange(36))])
        values = pattern.stack(1)
        values[:, slots] = np.arange(1.0, 37.0)[sources]
        mat = pattern.csc(values[0])
        # the constant blocks' two nonzeros, the state block but its zero quadrant
        assert mat.nnz == 2 + 27
        expected = np.zeros((8, 6))
        expected[:2, :2] = [[1.0, 0.0], [0.0, -2.0]]
        expected[2:] = np.where(MOTION_ADJOINT_ZERO, 0.0, np.arange(1.0, 37.0).reshape(6, 6))
        np.testing.assert_array_equal(mat.toarray(), expected)

    def test_random_models_and_states(self, rng):
        """Constraint-oracle equivalence across random topologies."""
        for trial in range(60):
            n = int(rng.integers(2, 11))
            model = random_tree_model(n, rng) if trial % 2 else random_chain_model(n, rng)
            assembler = ConstraintAssembler(model)
            q, qd, qdd = random_state(model, rng)
            fx = rng.normal(0, 8.0, (n, 6))
            d = rnea(model, q, qd, qdd, fx_base=fx)
            mat, b = one_state(assembler, q, qd)
            res = np.abs(mat @ d + b).max()
            assert res <= 1e-9 * (1 + np.abs(d).max())


class TestKinematicSweep:
    def test_poses_match_forward_kinematics(self, human_model, rng):
        """The sweep's poses are forward kinematics: 4x4 joint transforms composed link by link, to rounding."""
        q, qd, _ = random_state(human_model, rng, q_scale=0.4)
        expected = link_poses_4x4(human_model, q)
        sweep = kinematic_sweep(human_model, q, qd)
        assert sweep.rotation.shape == (1, 49, 3, 3)
        for rotation, position, reference in zip(sweep.rotation[0], sweep.position[0], expected):
            np.testing.assert_allclose(rotation, reference[:3, :3], rtol=0, atol=1e-14)
            np.testing.assert_allclose(position, reference[:3, 3], rtol=0, atol=1e-14)

    def test_rnea_matches_per_sample_oracle(self, human_model, rng):
        """A stack of states gives, per sample, the link-by-link recursion's d."""
        from oracles import rnea_one_sample

        states = [random_state(human_model, rng, q_scale=0.4) for _ in range(5)]
        q, qd, qdd = (np.stack(part) for part in zip(*states))
        fx = rng.normal(0.0, 5.0, (5, human_model.n_moving, 6))
        d = rnea(human_model, q, qd, qdd, fx_base=fx)
        for k in range(5):
            expected = rnea_one_sample(human_model, q[k], qd[k], qdd[k], fx[k])
            assert np.abs(d[k] - expected).max() <= 1e-12 * np.abs(expected).max()
            assert d[k].tobytes() == rnea(human_model, q[k], qd[k], qdd[k], fx_base=fx[k]).tobytes()


class TestNoRotationCheckPerSample:
    def test_sweep_rnea_and_assembly_check_no_rotation(self, human_model, rng, monkeypatch):
        """Rotations are checked where they enter the model, never per sample."""
        import mapdyn.spatial
        from mapdyn.sensors import MeasurementAssembler, assemble_system, default_sensor_specs

        constraints = ConstraintAssembler(human_model)
        measurements = MeasurementAssembler(human_model, default_sensor_specs(human_model))
        q, qd, qdd = random_state(human_model, rng, q_scale=0.4)
        calls = []
        drift = mapdyn.spatial.orthonormality_drift

        def counting_drift(r):
            calls.append(r)
            return drift(r)

        monkeypatch.setattr(mapdyn.spatial, "orthonormality_drift", counting_drift)
        kinematic_sweep(human_model, q, qd)
        rnea(human_model, q, qd, qdd)
        assemble_system(constraints, measurements, q, qd)
        assert calls == []
        # the counter does see the check at the model boundary
        dataclasses.replace(human_model.joints[0])
        assert len(calls) == 1


class TestLagrangianTerms:
    def test_mass_matrix_symmetric(self, five_link, rng):
        for _ in range(5):
            q, qd, _ = random_state(five_link, rng)
            terms = extract_lagrangian_terms(five_link, q, qd)
            assert np.abs(terms.mass_matrix - terms.mass_matrix.T).max() < 1e-10
            assert np.linalg.eigvalsh(terms.mass_matrix).min() > 0

    def test_gravity_vanishes_for_vertical_pendulum(self, pendulum_model):
        terms = extract_lagrangian_terms(pendulum_model, np.zeros(2), np.zeros(2))
        assert np.allclose(terms.gravity, 0, atol=1e-12)

    def test_identity_against_rnea(self, five_link, rng):
        layout = DynLayout(five_link)
        q, qd, qdd = random_state(five_link, rng)
        fx = rng.normal(0, 10.0, (5, 6))
        terms = extract_lagrangian_terms(five_link, q, qd)
        lhs = terms.mass_matrix @ qdd + terms.bias + terms.gravity - terms.jacobian_t @ fx.ravel()
        rhs = rnea(five_link, q, qd, qdd, fx_base=fx)[layout.tau_indices()]
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_energy_drift_shrinks_with_step(self, pendulum_model):
        """Free swing: mechanical energy drift falls superlinearly with dt."""

        def potential(q):
            from mapdyn.model import forward_kinematics

            poses = forward_kinematics(pendulum_model, q)
            v = 0.0
            for i in (1, 2):
                inertia = pendulum_model.inertia_of(i)
                com_world = poses[i].apply(inertia.com)
                v += inertia.mass * 9.81 * com_world[2]
            return v

        def simulate(dt, steps):
            q = np.array([1.2, 0.4])
            qd = np.zeros(2)
            e0 = None
            for _ in range(steps):
                def accel(q_, qd_):
                    t = extract_lagrangian_terms(pendulum_model, q_, qd_)
                    return np.linalg.solve(t.mass_matrix, -(t.bias + t.gravity))

                # midpoint step
                k1q, k1v = qd, accel(q, qd)
                qm, vm = q + 0.5 * dt * k1q, qd + 0.5 * dt * k1v
                q = q + dt * vm
                qd = qd + dt * accel(qm, vm)
                t = extract_lagrangian_terms(pendulum_model, q, qd)
                e = 0.5 * qd @ t.mass_matrix @ qd + potential(q)
                if e0 is None:
                    e0 = e
            return abs(e - e0)

        drift_coarse = simulate(0.01, 100)
        drift_fine = simulate(0.005, 200)
        assert drift_fine < drift_coarse
        # second-order integrator on exact terms: halving dt cuts drift ~4x
        assert drift_coarse / max(drift_fine, 1e-14) > 2.5
        assert drift_fine < 0.05


class TestBlockElimination:
    def test_torques_recovered_from_constraint_blocks(self, two_link_model, rng):
        """Eliminating the kinematic/force unknowns from the constraint rows
        and back-substituting into the torque rows reproduces the recursion
        torques (the grouped-ordering route, kept out of the public API)."""
        q, qd, qdd = random_state(two_link_model, rng)
        fx = rng.normal(0, 6.0, (2, 6))
        layout = DynLayout(two_link_model)
        d = rnea(two_link_model, q, qd, qdd, fx_base=fx)
        mat, b_d = one_state(ConstraintAssembler(two_link_model), q, qd)
        dense = mat.toarray()

        kin_cols = []  # a, fB, f slots
        input_cols = []  # ddq, fx slots
        tau_cols = []
        for i in (1, 2):
            base = layout.base_of(i)
            kin_cols += list(range(base, base + 18))
            tau_cols.append(layout.tau(i))
            input_cols += list(range(*layout.fx(i).indices(layout.size)[:2]))
            input_cols.append(layout.ddq(i))
        dyn_rows = [r for i in (1, 2) for r in range(19 * (i - 1), 19 * (i - 1) + 18)]
        tau_rows = [19 * (i - 1) + 18 for i in (1, 2)]

        a_kin = dense[np.ix_(dyn_rows, kin_cols)]
        a_in = dense[np.ix_(dyn_rows, input_cols)]
        b_dyn = b_d[dyn_rows]
        u = d[input_cols]
        x_kin = np.linalg.solve(a_kin, -(a_in @ u + b_dyn))
        tau = dense[np.ix_(tau_rows, kin_cols)] @ x_kin + dense[np.ix_(tau_rows, input_cols)] @ u
        # torque rows read S^T f - tau = 0
        assert np.allclose(tau, d[layout.tau_indices()], atol=1e-8)
        assert np.allclose(x_kin, d[kin_cols], atol=1e-8)


class TestClassicalIdRoutes:
    def _consistent_fp(self, model, q, qd, qdd):
        """Contact wrench implied by the recursion (plate frame = base frame)."""
        layout = DynLayout(model)
        d = rnea(model, q, qd, qdd)
        f1 = d[layout.joint_force(1)]
        from mapdyn.dynamics import kinematic_sweep

        sweep = kinematic_sweep(model, q, qd)
        x_0_1_force = sweep.x_from_parent[0, 1].T
        base_inertia = model.inertia_of(0).matrix()
        return x_0_1_force @ f1 - base_inertia @ GRAVITY_SPATIAL

    def test_consistent_measurement_topdown(self, two_link_model, rng):
        q, qd, qdd = random_state(two_link_model, rng)
        f_fp = self._consistent_fp(two_link_model, q, qd, qdd)
        report = id_topdown(two_link_model, q, qd, qdd, f_fp)
        assert np.abs(report.inconsistency).max() <= 1e-9

    def test_consistent_measurement_bottomup(self, two_link_model, rng):
        q, qd, qdd = random_state(two_link_model, rng)
        f_fp = self._consistent_fp(two_link_model, q, qd, qdd)
        report = id_bottomup(two_link_model, q, qd, qdd, f_fp)
        assert np.abs(report.inconsistency).max() <= 1e-9

    def test_perturbation_propagates_through_adjoints(self, two_link_model, rng):
        q, qd, qdd = random_state(two_link_model, rng)
        f_fp = self._consistent_fp(two_link_model, q, qd, qdd)
        delta = np.array([0.0, 0.0, 10.0, 0.0, 0.0, 0.0])
        report = id_topdown(two_link_model, q, qd, qdd, f_fp + delta)
        from mapdyn.dynamics import kinematic_sweep

        sweep = kinematic_sweep(two_link_model, q, qd)
        expected = -np.linalg.solve(sweep.x_from_parent[0, 1].T, delta)
        assert np.allclose(report.inconsistency, expected, atol=1e-9)
        # the force part only rotates: its norm stays 10 N
        assert np.linalg.norm(report.inconsistency[:3]) == pytest.approx(10.0, abs=1e-9)

    def test_static_single_link_boundary_reproduces_weight(self, single_link):
        q = np.zeros(1)
        f_fp = self._consistent_fp(single_link, q, q, q)
        report = id_topdown(single_link, q, q, q, f_fp)
        # boundary route equals the recursion route equals the weight wrench
        assert np.allclose(report.closing_value, report.recursion_value, atol=1e-9)
        assert report.recursion_value[2] == pytest.approx(4.0 * 9.81)
        # plate reading balances base and link weight
        assert f_fp[2] == pytest.approx((4.0 + 2.0) * 9.81)

    def test_routes_agree_on_consistent_data(self, two_link_model, rng):
        q, qd, qdd = random_state(two_link_model, rng)
        f_fp = self._consistent_fp(two_link_model, q, qd, qdd)
        td = id_topdown(two_link_model, q, qd, qdd, f_fp)
        bu = id_bottomup(two_link_model, q, qd, qdd, f_fp)
        for name in td.joint_forces:
            assert np.allclose(td.joint_forces[name], bu.joint_forces[name], atol=1e-9)

    def test_bottomup_surfaces_at_top_link(self, two_link_model, rng):
        q, qd, qdd = random_state(two_link_model, rng)
        f_fp = self._consistent_fp(two_link_model, q, qd, qdd) + np.array([3.0, 0, 0, 0, 0, 0])
        report = id_bottomup(two_link_model, q, qd, qdd, f_fp)
        assert report.surfacing_link == "link2"
        assert np.abs(report.inconsistency).max() > 0.1
