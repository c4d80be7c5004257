import numpy as np
import pytest

from mapdyn.dynamics import ConstraintAssembler, DynLayout, kinematic_sweep, link_accelerations, rnea
from mapdyn.model import parse_model
from mapdyn.sensors import (
    DOF_ACCELERATION,
    EXTERNAL_WRENCH,
    FIXED_BASE_WRENCH,
    IMU_LINEAR_ACCELERATION,
    ExcitationError,
    MeasurementAssembler,
    MeasurementModelError,
    SensorSpec,
    assemble_system,
    default_sensor_specs,
    estimate_sensor_pose,
    savitzky_golay_derivatives,
    simulate_readings,
)
from mapdyn.simharness import (
    Constant,
    Sine,
    SyntheticScenario,
    TrajectorySpec,
    generate_ground_truth,
    generate_observations,
    link_motion,
    synthesize_sensor_streams,
)
from mapdyn.spatial import GRAVITY_SPATIAL, HomTransform, matrix_to_rpy, rotation_about_axis

from oracles import one_state, split_system
from random_models import random_chain_model, random_state, random_tree_model


def two_link_specs(model):
    imu = model.sensors_of_kind("accelerometer")[0]
    return [
        SensorSpec(IMU_LINEAR_ACCELERATION, imu.parent_link, imu.pose, 1e-3),
        SensorSpec(DOF_ACCELERATION, "joint1", variance=1e-3),
        SensorSpec(DOF_ACCELERATION, "joint2", variance=1e-3),
        SensorSpec(FIXED_BASE_WRENCH, "base", variance=1e-3),
        SensorSpec(EXTERNAL_WRENCH, "link1", variance=1e-6),
        SensorSpec(EXTERNAL_WRENCH, "link2", variance=1e-6),
    ]


class TestMeasurementAssembly:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("make_model", [random_chain_model, random_tree_model])
    def test_assemble_system_matches_separate_assembly(self, make_model, dtype):
        """One shared sweep gives the same bytes as a sweep per assembler."""
        rng = np.random.default_rng(23)

        def pose():
            return HomTransform.from_rpy(rng.normal(0.0, 0.3, 3), rng.normal(0.0, 0.1, 3))

        for _ in range(4):
            n = int(rng.integers(2, 9))
            model = make_model(n, rng)
            specs = default_sensor_specs(model, contact_links=["link1"], fp_pose=pose())
            # two IMUs on one link occupy separate rows
            specs += [SensorSpec(IMU_LINEAR_ACCELERATION, f"link{i}", pose()) for i in (1, n, n)]
            casm, masm = ConstraintAssembler(model), MeasurementAssembler(model, specs)
            q, qd, _ = random_state(model, rng)
            if dtype is complex:  # complex-step states, as the bias Jacobians use
                q = q + 1e-3j * rng.normal(0.0, 1.0, n)
                qd = qd + 1e-3j * rng.normal(0.0, 1.0, n)
            values_d, b_d, values_y, b_y = split_system(casm, *assemble_system(casm, masm, q, qd))
            mat_d, mat_y = casm.matrix(values_d[0]), masm.matrix(values_y[0])
            separate = one_state(casm, q, qd) + one_state(masm, q, qd)
            for got, ref in zip((mat_d, b_d[0], mat_y, b_y[0]), separate):
                assert got.dtype == np.dtype(dtype)
                if isinstance(got, np.ndarray):
                    assert got.tobytes() == ref.tobytes()
                else:
                    assert np.array_equal(got.indices, ref.indices)
                    assert np.array_equal(got.indptr, ref.indptr)
                    assert got.data.tobytes() == ref.data.tobytes()
            # Y stores the same entries, zeros included, at any state
            at_rest, _ = one_state(masm, np.zeros(n, dtype), np.zeros(n, dtype))
            assert np.array_equal(at_rest.indices, mat_y.indices)
            assert np.array_equal(at_rest.indptr, mat_y.indptr)

    def test_complex_state_assembles_in_its_own_dtype(self, rng):
        """A complex-step state needs no dtype argument: every part follows the
        sweep's dtype, and its real part is the real state's."""
        model = random_chain_model(3, rng)
        casm = ConstraintAssembler(model)
        masm = MeasurementAssembler(model, default_sensor_specs(model, contact_links=["link1"]))
        q, qd, _ = random_state(model, rng)
        real = assemble_system(casm, masm, q, qd)
        stepped = assemble_system(casm, masm, q + 1e-20j * rng.normal(0.0, 1.0, 3), qd)
        for got, ref in zip(stepped, real):
            assert got.dtype == np.complex128
            np.testing.assert_allclose(got.real, ref, rtol=1e-12, atol=1e-12)

    def test_illustrative_dimensions(self, two_link_model, rng):
        specs = two_link_specs(two_link_model)
        q, qd, _ = random_state(two_link_model, rng)
        mat, bias = one_state(MeasurementAssembler(two_link_model, specs), q, qd)
        assert mat.shape == (23, 52)
        assert bias.shape == (23,)
        assert sum(s.dim for s in specs) == 23

    def test_case_dimensions_48dof(self, human_model_foot):
        no_imus = default_sensor_specs(human_model_foot, include_imus=False)
        with_imus = default_sensor_specs(human_model_foot, include_imus=True)
        assert sum(s.dim for s in no_imus) == 342
        assert sum(s.dim for s in with_imus) == 390
        # 17 attached accelerometer pairs, one on the fixed base -> 16 usable
        assert sum(1 for s in with_imus if s.kind == IMU_LINEAR_ACCELERATION) == 16

    def test_zero_state_kills_imu_bias(self, two_link_model):
        specs = two_link_specs(two_link_model)
        _, bias = one_state(MeasurementAssembler(two_link_model, specs), np.zeros(2), np.zeros(2))
        assert np.allclose(bias[:3], 0)

    def test_missing_mandatory_ddq_channel(self, two_link_model):
        specs = two_link_specs(two_link_model)
        del specs[1]
        with pytest.raises(MeasurementModelError, match="joint1"):
            MeasurementAssembler(two_link_model, specs)

    def test_missing_mandatory_wrench_channel(self, two_link_model):
        specs = two_link_specs(two_link_model)
        specs = [s for s in specs if not (s.kind == EXTERNAL_WRENCH and s.target == "link2")]
        with pytest.raises(MeasurementModelError, match="link2"):
            MeasurementAssembler(two_link_model, specs)

    def test_missing_base_wrench(self, two_link_model):
        specs = [s for s in two_link_specs(two_link_model) if s.kind != FIXED_BASE_WRENCH]
        with pytest.raises(MeasurementModelError, match="fixed-base"):
            MeasurementAssembler(two_link_model, specs)

    def test_imu_on_base_rejected(self, two_link_model):
        specs = two_link_specs(two_link_model) + [
            SensorSpec(IMU_LINEAR_ACCELERATION, "base", HomTransform.identity())
        ]
        with pytest.raises(MeasurementModelError, match="base"):
            MeasurementAssembler(two_link_model, specs)

    def test_imu_without_pose_rejected(self):
        with pytest.raises(MeasurementModelError, match="pose"):
            SensorSpec(IMU_LINEAR_ACCELERATION, "link2")

    def test_canonical_ordering(self, two_link_model):
        specs = list(reversed(two_link_specs(two_link_model)))
        names = MeasurementAssembler(two_link_model, specs).names
        assert names[0].startswith("imu_")
        assert names[3].startswith("ddq_")
        assert names[5].startswith("fbwrench_")
        assert names[11].startswith("extf_")

    def test_each_name_reads_its_row(self, human_model_foot, rng):
        """On the 48-DoF default specs, each named row of Y touches the slots of d its name gives."""
        model = human_model_foot
        masm = MeasurementAssembler(model, default_sensor_specs(model))
        layout = masm.layout
        slot = {name: k for k, name in enumerate(layout.column_names())}
        mat, _ = one_state(masm, *random_state(model, rng, 0.2, 0.3, 0.3)[:2])
        rows = mat.toarray()
        assert len(masm.names) == len(set(masm.names)) == len(rows)
        base_forces = set().union(*(range(layout.size)[layout.joint_force(c)] for c in model.children[0]))
        kinds = set()
        for name, row in zip(masm.names, rows):
            kind, touched = name.split("_")[0], set(np.flatnonzero(row))
            kinds.add(kind)
            if kind in ("ddq", "extf"):
                # ddq_<joint> and extf_<link>_<c> select the slot of d of the same name
                assert np.array_equal(row, np.eye(layout.size)[slot[name]]), name
            elif kind == "imu":
                link = model.link_index[name[len("imu_"): -len("_x")]]
                assert touched and touched <= set(range(layout.size)[layout.a(link)]), name
            else:
                assert kind == "fbwrench" and touched and touched <= base_forces, name
        assert kinds == {"imu", "ddq", "fbwrench", "extf"}

    def test_row_dimension_bookkeeping(self, human_model_foot, rng):
        specs = default_sensor_specs(human_model_foot)
        assembler = MeasurementAssembler(human_model_foot, specs)
        q, qd, _ = random_state(human_model_foot, rng, 0.2, 0.3, 0.3)
        mat, bias = one_state(assembler, q, qd)
        assert mat.shape[0] == assembler.dim == sum(s.dim for s in assembler.specs)
        assert bias.shape == (assembler.dim,)

    def test_rows_match_direct_sensor_model(self, two_link_model, rng):
        """Y d + b_Y reproduces the per-channel physical model."""
        q, qd, qdd = random_state(two_link_model, rng)
        fx = rng.normal(0, 5.0, (2, 6))
        d = rnea(two_link_model, q, qd, qdd, fx_base=fx)
        layout = DynLayout(two_link_model)
        specs = two_link_specs(two_link_model)
        mat, bias = one_state(MeasurementAssembler(two_link_model, specs), q, qd)
        y = mat @ d + bias

        # IMU channel: proper acceleration from true link motion plus gravity
        imu = two_link_model.sensors_of_kind("accelerometer")[0]
        sweep = kinematic_sweep(two_link_model, q, qd)
        rotations, vels, accs = sweep.rotation, sweep.v, link_accelerations(two_link_model, sweep, qdd, np.zeros(6))
        li = two_link_model.link_index[imu.parent_link]
        from mapdyn.spatial import adjoint_motion

        x_s = adjoint_motion(imu.pose.inverse())
        v_s = x_s @ vels[0, li]
        a_s = x_s @ accs[0, li]
        r_s = rotations[0, li] @ imu.pose.rotation
        proper = a_s[:3] + np.cross(v_s[3:], v_s[:3]) - r_s.T @ GRAVITY_SPATIAL[:3]
        assert np.allclose(y[:3], proper, atol=1e-10)

        # ddq channels select the accelerations
        assert np.allclose(y[3:5], qdd, atol=1e-12)

        # external wrench channels reproduce the injected forces exactly
        assert np.allclose(y[11:17], fx[0], atol=1e-10)
        assert np.allclose(y[17:23], fx[1], atol=1e-10)

    def test_static_plate_reading_totals_weight(self, two_link_model):
        specs = two_link_specs(two_link_model)
        q = np.zeros(2)
        d = rnea(two_link_model, q, q, q)
        mat, bias = one_state(MeasurementAssembler(two_link_model, specs), q, q)
        y = mat @ d + bias
        total_mass = 2.0 + 3.0 + 2.0
        assert y[7] == pytest.approx(total_mass * 9.81)


class TestSampleAxis:
    """A stack of states is assembled from one sweep; each sample's numbers stand alone."""

    @pytest.fixture(scope="class")
    def human_states(self, human_model_foot):
        rng = np.random.default_rng(41)
        states = [random_state(human_model_foot, rng, 0.2, 0.3, 0.3)[:2] for _ in range(64)]
        q, qd = (np.stack(part) for part in zip(*states))
        casm = ConstraintAssembler(human_model_foot)
        specs = default_sensor_specs(human_model_foot, contact_links=["RightFoot"])
        masm = MeasurementAssembler(human_model_foot, specs)
        return casm, masm, q, qd

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_values_do_not_depend_on_the_chunk(self, human_states, dtype):
        """Alone, in a chunk of 8 and in a chunk of 64, at every position of a rolled chunk: the same bytes."""
        casm, masm, q, qd = human_states
        if dtype is complex:  # complex-step states, as the bias Jacobians use
            q = q + 1e-3j * np.cos(np.arange(q.size)).reshape(q.shape)
            qd = qd + 1e-3j * np.sin(np.arange(qd.size)).reshape(qd.shape)
        alone = [assemble_system(casm, masm, q[k], qd[k]) for k in range(len(q))]
        assert all(part.shape[0] == 1 and part.dtype == np.dtype(dtype) for part in alone[0])

        def check(order):
            stacked = assemble_system(casm, masm, q[order], qd[order])
            for position, k in enumerate(order):
                for got, ref in zip(stacked, alone[k]):
                    assert got[position].tobytes() == ref[0].tobytes()

        for shift in range(8):
            check(np.roll(np.arange(8), shift))
        for shift in (0, 1, 37):
            check(np.roll(np.arange(64), shift))

    def test_a_chunk_of_64_allocates_under_8mb(self, human_states):
        import tracemalloc

        casm, masm, q, qd = human_states
        assemble_system(casm, masm, q[:1], qd[:1])  # first-call allocations of numpy and BLAS
        tracemalloc.start()
        try:
            assemble_system(casm, masm, q, qd)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSimulateReadings:
    def test_noiseless_reproduces_model(self, two_link_model, rng):
        specs = two_link_specs(two_link_model)
        q, qd, qdd = random_state(two_link_model, rng)
        d = rnea(two_link_model, q, qd, qdd)
        assembler = MeasurementAssembler(two_link_model, specs)
        mat, bias = one_state(assembler, q, qd)
        y = simulate_readings(assembler, kinematic_sweep(two_link_model, q, qd), d)[0]
        assert np.array_equal(y, mat @ d + bias)

    def test_seed_determinism(self, two_link_model, rng):
        """Readings hold no hidden random state: the same state gives the same bytes, and the same noise seed
        the same noisy readings, while another seed gives other ones."""
        specs = two_link_specs(two_link_model)
        assembler = MeasurementAssembler(two_link_model, specs)
        q, qd, qdd = random_state(two_link_model, rng)
        d = rnea(two_link_model, q, qd, qdd)
        y1, y2 = (simulate_readings(assembler, kinematic_sweep(two_link_model, q, qd), d) for _ in range(2))
        assert y1.tobytes() == y2.tobytes()

        trajectory = TrajectorySpec([Constant(0.3), Constant(-0.4)], 0.1, 100.0)
        scenarios = [SyntheticScenario(two_link_model, trajectory, specs, seed=seed) for seed in (1234, 1234, 1235)]
        truth = generate_ground_truth(scenarios[0])
        first, again, other = (generate_observations(scenario, truth) for scenario in scenarios)
        assert first.tobytes() == again.tobytes()
        assert not np.array_equal(first, other)


class TestSensorPoseEstimation:
    def _spinning_streams(self, two_link_model, n_samples=120, noise=0.0, seed=0):
        traj = TrajectorySpec(
            [Sine(0.5, 0.7, phase=0.2), Sine(0.4, 1.1, phase=-0.5)],
            duration=n_samples / 60.0,
            rate=60.0,
        )
        sensor = two_link_model.sensors_of_kind("accelerometer")[0]
        rng = np.random.default_rng(seed)
        motion = link_motion(two_link_model, traj)
        return sensor, synthesize_sensor_streams(two_link_model, motion, sensor, noise_std=noise, rng=rng)

    def test_noiseless_recovery(self, two_link_model):
        sensor, streams = self._spinning_streams(two_link_model)
        est = estimate_sensor_pose(*streams)
        assert np.allclose(est.position, sensor.pose.translation, atol=1e-8)
        assert np.allclose(est.rpy, matrix_to_rpy(sensor.pose.rotation), atol=1e-8)

    def test_degenerate_motion_raises(self):
        n = 20
        r = np.tile(np.eye(3), (n, 1, 1))
        zeros = np.zeros((n, 3))
        with pytest.raises(ExcitationError, match="excite|rotate"):
            estimate_sensor_pose(r, zeros, zeros, zeros, r, np.tile([0, 0, 9.81], (n, 1)))

    def test_constant_orientation_average_is_exact(self, two_link_model):
        sensor, streams = self._spinning_streams(two_link_model)
        est = estimate_sensor_pose(*streams)
        per_sample = matrix_to_rpy(streams[0][0].T @ streams[4][0])
        assert np.allclose(est.rpy, per_sample, atol=1e-10)

    def test_orientation_spread_guard(self, two_link_model):
        sensor, streams = self._spinning_streams(two_link_model)
        body_rot, body_acc, w, wd, sensor_rot, sensor_acc = streams
        # corrupt one sample's sensor orientation by 20 degrees
        bad = sensor_rot.copy()
        bad[3] = bad[3] @ rotation_about_axis(np.array([0, 0, 1.0]), np.deg2rad(20))
        with pytest.raises(ExcitationError, match="spread"):
            estimate_sensor_pose(body_rot, body_acc, w, wd, bad, sensor_acc)

    def test_monte_carlo_error_slope(self, two_link_model):
        """Position error shrinks like 1/sqrt(N) under i.i.d. noise."""
        sensor, streams = self._spinning_streams(two_link_model, n_samples=1024)
        body_rot, body_acc, w, wd, sensor_rot, sensor_acc = streams
        sizes = [16, 64, 256, 1024]
        reps = 48
        rng = np.random.default_rng(5)
        sigma = 0.05
        mean_err = []
        total = sensor_acc.shape[0]
        for n in sizes:
            # spread each subset over the whole excitation so samples are
            # comparably informative and only the count varies
            idx = np.linspace(0, total - 1, n).astype(int)
            errors = []
            for _ in range(reps):
                noisy = sensor_acc[idx] + rng.normal(0, sigma, (n, 3))
                est = estimate_sensor_pose(
                    body_rot[idx], body_acc[idx], w[idx], wd[idx], sensor_rot[idx], noisy
                )
                errors.append(np.linalg.norm(est.position - sensor.pose.translation))
            mean_err.append(np.mean(errors))
        slope = np.polyfit(np.log(sizes), np.log(mean_err), 1)[0]
        assert abs(slope + 0.5) < 0.15


class TestSavitzkyGolay:
    def test_cubic_exactness(self):
        dt = 1e-3
        t = np.arange(0, 1, dt)
        q = t**3
        qd, qdd = savitzky_golay_derivatives(q, dt)
        inner = slice(29, -29)
        assert np.abs(qd[inner] - 3 * t[inner] ** 2).max() < 1e-9
        assert np.abs(qdd[inner] - 6 * t[inner]).max() < 1e-9

    def test_constant_input(self):
        # deriv-2 filters divide rounding noise by dt^2; 1e-10 is still zero
        q = np.full(200, 0.7)
        qd, qdd = savitzky_golay_derivatives(q, 1 / 240)
        assert np.abs(qd).max() < 1e-11
        assert np.abs(qdd).max() < 1e-10

    def test_sine_acceleration_error_bound(self):
        # The cubic fit over a 57-sample window at 240 Hz leaves a residual
        # curvature error of about (window/2 * dt)^2 / 14 ~ 1e-3 on sin(t);
        # frozen against the analytic oracle.
        dt = 1 / 240
        t = np.arange(0, 8, dt)
        qd, qdd = savitzky_golay_derivatives(np.sin(t), dt)
        inner = slice(57, -57)
        err_d = np.abs(qd[inner] - np.cos(t[inner])).max()
        err_dd = np.abs(qdd[inner] + np.sin(t[inner])).max()
        assert err_d < 1e-6
        assert err_dd < 2e-3
        # the analytic leading-order constant, not just an upper bound
        m = 28
        predicted = (m * dt) ** 2 / 14.0
        assert err_dd == pytest.approx(predicted, rel=0.25)

    def test_multicolumn_series(self, rng):
        dt = 1 / 100
        t = np.arange(0, 3, dt)
        q = np.column_stack([np.sin(t), 0.5 * t**2])
        qd, qdd = savitzky_golay_derivatives(q, dt)
        inner = slice(57, -57)
        assert np.abs(qdd[inner, 1] - 1.0).max() < 1e-9

    def test_too_short_series(self):
        with pytest.raises(ValueError, match="samples"):
            savitzky_golay_derivatives(np.zeros(20), 0.01)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            savitzky_golay_derivatives(np.zeros(100), 0.01, window=56)
