import numpy as np
import pytest

from mapdyn.dynamics import SAMPLE_CHUNK, ConstraintAssembler, DynLayout
from mapdyn.estimator import MapProblem, map_solve
from mapdyn.model import ModelError
from mapdyn.sensors import MeasurementAssembler, default_sensor_specs, savitzky_golay_derivatives
from mapdyn.simharness import (
    Constant,
    Sine,
    Spline,
    SyntheticScenario,
    TrajectorySpec,
    generate_ground_truth,
    generate_observations,
    waveform_from_config,
)

from oracles import max_constraint_residual, one_state_system


def scenario_for(model, duration=0.5, rate=100.0, seed=0, amplitude=0.3):
    waveforms = [Sine(amplitude, 0.8, phase=0.4 * j) for j in range(model.n_dof)]
    specs = default_sensor_specs(model, contact_links=("link2",))
    return SyntheticScenario(model, TrajectorySpec(waveforms, duration, rate), specs, seed=seed)


class TestWaveforms:
    def test_constant(self):
        pos, vel, acc = Constant(0.4).evaluate(np.linspace(0, 1, 11))
        assert np.all(pos == 0.4)
        assert np.all(vel == 0)
        assert np.all(acc == 0)

    def test_sine_analytic_derivatives(self):
        amp, freq, phase = 0.2, 1.5, 0.3
        wf = Sine(amp, freq, phase)
        t = np.linspace(0, 2, 400)
        pos, vel, acc = wf.evaluate(t)
        w = 2 * np.pi * freq
        assert np.allclose(acc, -amp * w * w * np.sin(w * t + phase), atol=1e-12)
        # derivative consistency by finite differences
        dt = t[1] - t[0]
        assert np.allclose(np.gradient(pos, dt)[2:-2], vel[2:-2], atol=1e-3)

    def test_spline_passes_through_knots(self):
        knots = ((0.0, 0.0), (0.5, 0.2), (1.0, -0.1), (1.5, 0.05))
        wf = Spline(knots)
        pos, _, _ = wf.evaluate(np.array([k[0] for k in knots]))
        assert np.allclose(pos, [k[1] for k in knots], atol=1e-12)

    def test_from_config(self):
        assert isinstance(waveform_from_config({"kind": "sine", "amplitude": 1, "frequency": 2}), Sine)
        assert isinstance(waveform_from_config({"kind": "constant"}), Constant)
        with pytest.raises(ModelError):
            waveform_from_config({"kind": "sawtooth"})


class TestGroundTruth:
    def test_constant_trajectory_static(self, two_link_model):
        scenario = SyntheticScenario(
            two_link_model,
            TrajectorySpec([Constant(0.2), Constant(-0.1)], 0.2, 50.0),
            default_sensor_specs(two_link_model),
        )
        truth = generate_ground_truth(scenario)
        assert np.allclose(truth.qdd, 0)
        layout = DynLayout(two_link_model)
        taus = truth.d[:, layout.tau_indices()]
        assert np.allclose(taus, taus[0], atol=1e-12)

    def test_sine_acceleration_is_analytic(self, two_link_model):
        scenario = scenario_for(two_link_model)
        truth = generate_ground_truth(scenario)
        amp, freq = 0.3, 0.8
        w = 2 * np.pi * freq
        expected = -amp * w * w * np.sin(w * truth.times)
        assert np.allclose(truth.qdd[:, 0], expected, atol=1e-12)

    def test_every_sample_constraint_consistent(self, two_link_model):
        scenario = scenario_for(two_link_model)
        truth = generate_ground_truth(scenario)
        assert max_constraint_residual(scenario, truth) <= 1e-9

    def test_savitzky_golay_closes_the_loop(self, two_link_model):
        amp, freq = 0.25, 0.8
        scenario = scenario_for(two_link_model, duration=3.0, rate=240.0, amplitude=amp)
        truth = generate_ground_truth(scenario)
        qd, qdd = savitzky_golay_derivatives(truth.q, 1 / 240.0)
        inner = slice(57, -57)
        # cubic-window residual scales with the 4th derivative of the input:
        # err ~ amp * w^4 * (half_window * dt)^2 / 14
        w = 2 * np.pi * freq
        bound_dd = 1.3 * amp * w**4 * (28 / 240.0) ** 2 / 14.0
        assert np.abs(qd[inner] - truth.qd[inner]).max() < 1e-3
        assert np.abs(qdd[inner] - truth.qdd[inner]).max() < bound_dd

    def test_stacks_match_the_per_sample_oracle(self, two_link_model):
        """Two stacks of samples (70 > SAMPLE_CHUNK) give the link-by-link recursion's d, per sample."""
        from oracles import rnea_one_sample

        forces = {"link2": [Sine(3.0, 0.5)] + [Constant(1.0)] * 5}
        scenario = SyntheticScenario(
            two_link_model,
            TrajectorySpec([Sine(0.3, 0.8), Sine(0.4, 1.1, phase=0.3)], 0.7, 100.0),
            default_sensor_specs(two_link_model, contact_links=("link2",)),
            external_forces=forces,
        )
        truth = generate_ground_truth(scenario)
        fx = scenario.force_series(truth.times)
        assert truth.times.size == 70
        for k in range(truth.times.size):
            expected = rnea_one_sample(two_link_model, truth.q[k], truth.qd[k], truth.qdd[k], fx[k])
            assert np.abs(truth.d[k] - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_external_force_script(self, two_link_model):
        waveforms = [Constant(0.1), Constant(0.0)]
        forces = {"link2": [Constant(5.0)] + [Constant(0.0)] * 5}
        scenario = SyntheticScenario(
            two_link_model,
            TrajectorySpec(waveforms, 0.1, 50.0),
            default_sensor_specs(two_link_model, contact_links=("link2",)),
            external_forces=forces,
        )
        truth = generate_ground_truth(scenario)
        layout = DynLayout(two_link_model)
        assert np.allclose(truth.d[:, layout.fx(2)][:, 0], 5.0)


class TestObservations:
    def test_zero_noise_round_trips_through_map(self, two_link_model):
        scenario = scenario_for(two_link_model, duration=0.1, rate=50.0)
        truth = generate_ground_truth(scenario)
        obs = generate_observations(scenario, truth, noiseless=True)
        casm = ConstraintAssembler(two_link_model)
        masm = MeasurementAssembler(two_link_model, scenario.sensor_specs)
        for k in range(truth.times.size):
            mat_d, b_d, mat_y, b_y = one_state_system(casm, masm, truth.q[k], truth.qd[k])
            problem = MapProblem(
                mat_d, b_d, mat_y, b_y, obs[k],
                sigma_D=1e-10, sigma_y=1e-12, sigma_d=1e8,
            )
            belief = map_solve(problem)
            assert np.abs(belief.mean - truth.d[k]).max() < 1e-6

    def test_seed_determinism(self, two_link_model):
        scenario = scenario_for(two_link_model, seed=42)
        truth = generate_ground_truth(scenario)
        obs1 = generate_observations(scenario, truth)
        obs2 = generate_observations(scenario, truth)
        assert np.array_equal(obs1, obs2)

    def test_stacked_noise_equals_per_sample_draws(self, two_link_model):
        """Each sample's noise is drawn as a call per sample would draw it, in order, so a short run's readings
        are the first rows of a long one's."""
        short, long = (scenario_for(two_link_model, duration=duration, seed=8) for duration in (0.3, 1.5))
        truth = generate_ground_truth(short)
        obs = generate_observations(short, truth)
        variances = MeasurementAssembler(two_link_model, short.sensor_specs).variances
        one_by_one = np.random.default_rng(8)
        for k in range(truth.times.size):
            assert obs[k].tobytes() == (truth.readings[k] + one_by_one.normal(0.0, np.sqrt(variances))).tobytes()
        longer = generate_observations(long, generate_ground_truth(long))
        assert len(longer) == 150 > SAMPLE_CHUNK
        assert longer[: len(obs)].tobytes() == obs.tobytes()

    def test_empirical_channel_variance(self, two_link_model):
        scenario = SyntheticScenario(
            two_link_model,
            TrajectorySpec([Constant(0.3), Constant(-0.4)], 100.0, 100.0),
            default_sensor_specs(two_link_model, contact_links=("link2",)),
            seed=99,
        )
        truth = generate_ground_truth(scenario)
        draws = generate_observations(scenario, truth) - truth.readings
        assert draws.shape[0] == 10_000
        variances = MeasurementAssembler(two_link_model, scenario.sensor_specs).variances
        assert np.all(np.abs(draws.var(axis=0) / variances - 1.0) < 0.05)

    def test_noise_scaling(self, two_link_model):
        base = scenario_for(two_link_model, duration=6.0, rate=100.0)
        truth = generate_ground_truth(base)
        clean = generate_observations(base, truth, noiseless=True)

        def residual_std(scale):
            specs = default_sensor_specs(
                two_link_model,
                imu_variance=1e-3 * scale**2,
                ddq_variance=1e-3 * scale**2,
                wrench_variance=1e-6 * scale**2,
                contact_wrench_variance=1e-3 * scale**2,
                base_wrench_variance=1e-3 * scale**2,
                contact_links=("link2",),
            )
            scenario = SyntheticScenario(base.model, base.trajectory, specs, seed=11)
            noisy = generate_observations(scenario, truth)
            return (noisy - clean).std(axis=0)

        s1 = residual_std(1.0)
        s2 = residual_std(2.0)
        ratio = s2 / s1
        assert np.all(np.abs(ratio - 2.0) < 0.2)
