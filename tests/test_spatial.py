import numpy as np
import pytest

from mapdyn.model.tree import Joint, SensorAttachment
from mapdyn.sensors import IMU_LINEAR_ACCELERATION, SensorSpec
from mapdyn.spatial import (
    GRAVITY_SPATIAL,
    HomTransform,
    SpatialInertia,
    adjoint_force,
    adjoint_motion,
    body_equation_of_motion,
    cross_force,
    cross_motion,
    inertia_of_shape,
    matrix_to_rpy,
    orthonormality_drift,
    rotation_about_axis,
    rpy_to_matrix,
    se3_log,
    skew,
)

from oracles import cross_force_matrix, cross_motion_matrix


def random_rotation(rng):
    """Uniform-ish random rotation from the exponential of a random skew."""
    w = rng.normal(size=3)
    angle = rng.uniform(0.0, np.pi)
    n = np.linalg.norm(w)
    if n < 1e-12:
        return np.eye(3)
    return rotation_about_axis(w / n, angle)


def random_transform(rng):
    return HomTransform(random_rotation(rng), rng.normal(0, 0.5, 3))


class TestSkew:
    def test_zero(self):
        assert np.array_equal(skew([0, 0, 0]), np.zeros((3, 3)))

    def test_basis_cross(self):
        assert np.allclose(skew([1, 0, 0]) @ [0, 1, 0], [0, 0, 1])

    def test_antisymmetric_random(self, rng):
        for _ in range(100):
            v = rng.normal(0, 2, 3)
            m = skew(v)
            assert np.allclose(m + m.T, 0)
            u = rng.normal(0, 2, 3)
            assert np.allclose(m @ u, np.cross(v, u), atol=1e-14)


class TestCrossOperators:
    def test_zero_motion(self, rng):
        u = rng.normal(0, 1, 6)
        assert np.allclose(cross_motion(np.zeros(6), u), 0)
        assert np.allclose(cross_force(np.zeros(6), u), 0)

    def test_angular_only_block_structure(self, rng):
        wv, wu = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
        v = np.concatenate([np.zeros(3), wv])
        u = np.concatenate([np.zeros(3), wu])
        out = cross_motion(v, u)
        assert np.allclose(out[:3], 0)
        assert np.allclose(out[3:], np.cross(wv, wu))

    def test_matches_matrix_form(self, rng):
        for _ in range(20):
            v, u, f = rng.normal(0, 1, (3, 6))
            assert np.allclose(cross_motion(v, u), cross_motion_matrix(v) @ u, atol=1e-14)
            assert np.allclose(cross_force(v, f), cross_force_matrix(v) @ f, atol=1e-14)

    def test_complex_inputs_match_cross_product_reference(self, rng):
        # the 3-vector form, restated here as the reference for complex inputs
        def motion_reference(v, u):
            w = v[3:]
            return np.concatenate([np.cross(w, u[:3]) + np.cross(v[:3], u[3:]), np.cross(w, u[3:])])

        def force_reference(v, f):
            w = v[3:]
            return np.concatenate([np.cross(w, f[:3]), np.cross(v[:3], f[:3]) + np.cross(w, f[3:])])

        for _ in range(20):
            v, u, f = rng.normal(0, 1, (3, 6)) + 1j * rng.normal(0, 1, (3, 6))
            assert np.abs(cross_motion(v, u) - motion_reference(v, u)).max() < 1e-14
            assert np.abs(cross_force(v, f) - force_reference(v, f)).max() < 1e-14

    def test_self_cross_angular_part(self, rng):
        v = rng.normal(0, 1, 6)
        assert np.allclose(cross_motion(v, v)[3:], 0, atol=1e-15)

    def test_duality(self, rng):
        for _ in range(50):
            u, v, f = rng.normal(0, 1, (3, 6))
            lhs = u @ cross_force(v, f)
            rhs = -cross_motion(v, u) @ f
            assert abs(lhs - rhs) < 1e-10

    def test_dual_is_negative_transpose(self, rng):
        v = rng.normal(0, 1, 6)
        assert np.allclose(cross_force_matrix(v), -cross_motion_matrix(v).T, atol=1e-15)


class TestAdjoints:
    def test_identity(self):
        h = HomTransform.identity()
        assert np.allclose(adjoint_motion(h), np.eye(6))
        assert np.allclose(adjoint_force(h), np.eye(6))

    def test_pure_rotation_block_diagonal(self, rng):
        r = random_rotation(rng)
        x = adjoint_motion(HomTransform(r, np.zeros(3)))
        assert np.allclose(x[:3, :3], r)
        assert np.allclose(x[3:, 3:], r)
        assert np.allclose(x[:3, 3:], 0)
        assert np.allclose(x[3:, :3], 0)

    def test_inverse_composition(self, rng):
        for _ in range(20):
            h = random_transform(rng)
            x = adjoint_motion(h)
            xi = adjoint_motion(h.inverse())
            assert np.allclose(x @ xi, np.eye(6), atol=1e-12)

    def test_force_is_inverse_transpose_of_motion(self, rng):
        h = random_transform(rng)
        assert np.allclose(adjoint_force(h), adjoint_motion(h.inverse()).T, atol=1e-13)

    def test_composition_homomorphism(self, rng):
        for adjoint in (adjoint_motion, adjoint_force):
            for _ in range(20):
                h1, h2 = random_transform(rng), random_transform(rng)
                lhs = adjoint(h1 @ h2)
                rhs = adjoint(h1) @ adjoint(h2)
                assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestRotations:
    def test_exponential_stays_in_so3(self, rng):
        for _ in range(100):
            w = rng.normal(0, 1, 3)
            w /= np.linalg.norm(w)
            r = rotation_about_axis(w, rng.uniform(-np.pi, np.pi))
            assert orthonormality_drift(r) < 1e-12
            assert abs(np.linalg.det(r) - 1) < 1e-12

    def test_rpy_round_trip(self, rng):
        for _ in range(50):
            rpy = rng.uniform(-1.4, 1.4, 3)
            back = matrix_to_rpy(rpy_to_matrix(*rpy))
            assert np.allclose(back, rpy, atol=1e-12)

    def test_reorthonormalization_on_drift(self, rng):
        """A pose entering a model is snapped to SO(3); a bare HomTransform keeps what it is given."""
        r = random_rotation(rng)
        raw = r + 1e-6 * rng.normal(0, 1, (3, 3))
        drifted = HomTransform(raw, rng.normal(0, 0.1, 3))
        assert np.array_equal(drifted.rotation, raw)
        assert orthonormality_drift(raw) > 1e-7
        held = [
            Joint("j", "a", "b", np.array([0.0, 0.0, 1.0]), drifted).origin,
            SensorAttachment("s", "accelerometer", "b", drifted).pose,
            SensorSpec(IMU_LINEAR_ACCELERATION, "b", drifted).pose,
        ]
        for pose in held:
            assert orthonormality_drift(pose.rotation) < 1e-12
            assert np.abs(pose.rotation - r).max() < 1e-5
            assert np.array_equal(pose.translation, drifted.translation)

    def test_se3_log_of_identity(self):
        assert np.allclose(se3_log(np.eye(3), np.zeros(3)), 0)

    def test_se3_log_round_trip_rotation_angle(self, rng):
        w = rng.normal(0, 1, 3)
        w /= np.linalg.norm(w)
        angle = 0.7
        assert np.allclose(se3_log(rotation_about_axis(w, angle), np.zeros(3))[3:], w * angle, atol=1e-12)

    def test_se3_log_pure_translation(self, rng):
        t = rng.normal(0, 1, 3)
        assert np.allclose(se3_log(np.eye(3), t), np.concatenate([t, np.zeros(3)]), atol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_se3_log_of_a_stack(self, rng):
        """A stack logs to the bits of its poses one at a time, small and near-pi angles included."""
        w = rng.normal(0, 1, 3)
        w /= np.linalg.norm(w)
        angles = [0.0, 1e-6, 0.3, 2.0, np.pi - 1e-6]
        rotation = np.array([rotation_about_axis(w, a) for a in angles] + [random_rotation(rng) for _ in range(3)])
        translation = rng.normal(0, 0.5, (len(rotation), 3))
        stack = se3_log(rotation.reshape(2, 4, 3, 3), translation.reshape(2, 4, 3))
        assert stack.shape == (2, 4, 6)
        one_at_a_time = np.array([se3_log(r, t) for r, t in zip(rotation, translation)])
        np.testing.assert_array_equal(stack.reshape(-1, 6), one_at_a_time)
        # theta = 1e-6 takes the series V^{-1} = I - K/2 + (1/12 + theta^2/720) K^2 (the closed
        # form would be off by about 1e-4 there)
        k = skew(one_at_a_time[1, 3:])
        theta = np.linalg.norm(one_at_a_time[1, 3:])
        assert theta == pytest.approx(1e-6, rel=1e-9)
        series = (np.eye(3) - 0.5 * k + (1.0 / 12.0 + theta * theta / 720.0) * (k @ k)) @ translation[1]
        np.testing.assert_array_equal(one_at_a_time[1, :3], series)
        # theta = pi - 1e-6: the angular part is the rotation vector
        assert np.allclose(one_at_a_time[4, 3:], (np.pi - 1e-6) * w, rtol=0, atol=1e-9)


class TestInertia:
    def test_sphere_table(self):
        m, r = 3.0, 0.2
        expected = 0.4 * m * r * r
        assert np.allclose(inertia_of_shape("sphere", (r,), m), np.diag([expected] * 3))

    def test_cylinder_table(self):
        m, r, h = 2.0, 0.1, 0.5
        out = inertia_of_shape("cylinder", (r, h), m)
        assert out[1, 1] == pytest.approx(0.5 * m * r * r)
        assert out[0, 0] == pytest.approx(m / 12 * (3 * r * r + h * h))
        assert out[2, 2] == pytest.approx(m / 12 * (3 * r * r + h * h))

    def test_parallelepiped_table(self):
        m, a, b, c = 4.0, 0.3, 0.5, 0.2
        out = inertia_of_shape("parallelepiped", (a, b, c), m)
        assert out[0, 0] == pytest.approx(m / 12 * (a * a + b * b))
        assert out[1, 1] == pytest.approx(m / 12 * (b * b + c * c))
        assert out[2, 2] == pytest.approx(m / 12 * (c * c + a * a))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            inertia_of_shape("sphere", (0.0,), 1.0)
        with pytest.raises(ValueError):
            inertia_of_shape("cylinder", (0.1, 0.5), -1.0)

    def test_matrix_built_once_and_read_only(self):
        si = SpatialInertia(2.0, np.array([0.1, -0.2, 0.05]), np.diag([0.02, 0.03, 0.04]))
        m = si.matrix()
        assert si.matrix() is m
        assert not m.flags.writeable
        cx = skew(si.com)
        assert np.array_equal(m[3:, 3:], si.inertia + si.mass * (cx @ cx.T))
        assert np.array_equal(m[:3, 3:], si.mass * cx.T)

    def test_matrix_symmetric_positive_definite(self, rng):
        for _ in range(20):
            a = rng.normal(0, 0.1, (3, 3))
            si = SpatialInertia(rng.uniform(0.5, 2), rng.normal(0, 0.1, 3), a @ a.T + 0.05 * np.eye(3))
            m = si.matrix()
            assert np.allclose(m, m.T, atol=1e-14)
            assert np.linalg.eigvalsh(m).min() > 0


class TestBodyEquationOfMotion:
    def test_static_weight(self):
        si = SpatialInertia(5.0, np.array([0.0, 0.0, 0.1]), np.diag([0.1, 0.1, 0.05]))
        out = body_equation_of_motion(si, np.zeros(6), GRAVITY_SPATIAL)
        assert out[2] == pytest.approx(-9.81 * 5.0)

    def test_zero_state(self):
        si = SpatialInertia(2.0, np.zeros(3), np.eye(3) * 0.01)
        assert np.allclose(body_equation_of_motion(si, np.zeros(6), np.zeros(6)), 0)

    def test_term_by_term(self, rng):
        si = SpatialInertia(1.3, rng.normal(0, 0.1, 3), np.diag(rng.uniform(0.02, 0.1, 3)))
        v, a = rng.normal(0, 1, 6), rng.normal(0, 1, 6)
        expected = si.matrix() @ a + cross_force(v, si.matrix() @ v)
        assert np.allclose(body_equation_of_motion(si, v, a), expected, atol=1e-13)


def point_velocity(o_dot, omega, rotation, p_body):
    """Velocity of a body-fixed point given the frame's twist.

    o_dot, omega are the frame origin velocity / angular velocity in the
    reference frame; p_body is the point in body coordinates.
    """
    return np.asarray(o_dot) + skew(omega) @ (rotation @ np.asarray(p_body))


def point_acceleration(o_ddot, omega, omega_dot, rotation, p_body):
    """Acceleration of a body-fixed point given the frame's motion."""
    rp = rotation @ np.asarray(p_body)
    w = skew(omega)
    return np.asarray(o_ddot) + skew(omega_dot) @ rp + w @ (w @ rp)


class TestPointKinematics:
    def test_against_finite_differences(self, rng):
        # scripted H(t): rotating and translating frame
        w = np.array([0.3, -0.5, 0.8])
        p_body = np.array([0.2, -0.1, 0.15])

        def pose(t):
            r = rotation_about_axis(w / np.linalg.norm(w), np.linalg.norm(w) * t)
            o = np.array([0.1 * t * t, 0.2 * np.sin(t), -0.05 * t])
            return r, o

        def point(t):
            r, o = pose(t)
            return o + r @ p_body

        t0, dt = 0.7, 1e-5
        r0, o0 = pose(t0)
        omega = w  # constant-rate rotation about fixed axis
        o_dot = np.array([0.2 * t0, 0.2 * np.cos(t0), -0.05])
        o_ddot = np.array([0.2, -0.2 * np.sin(t0), 0.0])

        vel = point_velocity(o_dot, omega, r0, p_body)
        acc = point_acceleration(o_ddot, omega, np.zeros(3), r0, p_body)
        vel_fd = (point(t0 + dt) - point(t0 - dt)) / (2 * dt)
        acc_fd = (point(t0 + dt) - 2 * point(t0) + point(t0 - dt)) / dt**2
        assert np.allclose(vel, vel_fd, atol=1e-8)
        assert np.allclose(acc, acc_fd, atol=1e-5)
