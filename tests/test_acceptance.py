"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line. Ground truth throughout is synthetic:
analytic trajectories pushed through the recursion, observed through the
measurement map, optionally with seeded noise.
"""

import time
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from mapdyn.dynamics import (
    ConstraintAssembler,
    DynLayout,
    extract_lagrangian_terms,
    id_bottomup,
    id_topdown,
    kinematic_sweep,
    rnea,
)
from mapdyn.estimator import (
    MapProblem,
    complex_step_bias_jacobians,
    map_solve,
    map_solve_augmented,
)
from mapdyn.model import build_human_model, parse_model
from mapdyn.sensors import (
    MeasurementAssembler,
    assemble_system,
    default_sensor_specs,
    estimate_sensor_pose,
)
from mapdyn.simharness import (
    Sine,
    SyntheticScenario,
    TrajectorySpec,
    generate_ground_truth,
    link_motion,
    synthesize_sensor_streams,
)
from mapdyn.spatial import matrix_to_rpy

from conftest import TWO_LINK_XML
from oracles import (
    finite_difference_bias_jacobians,
    lmmse_forms_check,
    map_as_gls,
    one_state,
    one_state_system,
    posterior_precision_terms,
)
from random_models import random_chain_model, random_state, random_tree_model

CONTACT_LINKS = ("RightFoot", "RightToe", "LeftToe")


def report(criterion, ok, detail):
    import sys

    # bypass capture so the verdict lines always reach the console
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})", file=sys.__stdout__)
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module", autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture(scope="module")
def human48(subject):
    return build_human_model(subject, root="LeftFoot")


@pytest.fixture(scope="module")
def human48_scenario(human48):
    lo, hi = human48.limits()
    center = np.clip((lo + hi) / 2, -0.4, 0.4)
    span = np.minimum(hi - center, center - lo)
    waveforms = [
        Sine(min(0.2, 0.8 * span[j]), 0.6 + 0.01 * j, phase=0.37 * j, offset=center[j])
        for j in range(human48.n_dof)
    ]
    specs = default_sensor_specs(human48, contact_links=CONTACT_LINKS)
    return SyntheticScenario(human48, TrajectorySpec(waveforms, 0.5, 40.0), specs, seed=17)


@pytest.fixture(scope="module")
def human48_truth(human48_scenario):
    return generate_ground_truth(human48_scenario)


def test_01_dimensional_fidelity(subject, human48):
    t0 = time.perf_counter()
    layout = DynLayout(human48)
    system_shape = ConstraintAssembler(human48)
    two_link = parse_model(TWO_LINK_XML)
    two_layout = DynLayout(two_link)
    specs = default_sensor_specs(two_link, contact_links=("link2",))
    dim_y = sum(s.dim for s in specs)
    case1 = sum(s.dim for s in default_sensor_specs(human48, include_imus=False))
    case2 = sum(s.dim for s in default_sensor_specs(human48, include_imus=True))
    elapsed = time.perf_counter() - t0
    ok = (
        layout.size == 1248
        and (system_shape.n_rows, system_shape.n_cols) == (912, 1248)
        and two_layout.size == 52
        and dim_y == 23
        and case1 == 342
        and case2 == 390
        and elapsed < 1.0
    )
    report(
        "01 dimensional-fidelity",
        ok,
        f"d48={layout.size}, D={system_shape.n_rows}x{system_shape.n_cols}, "
        f"d2={two_layout.size}, y2={dim_y}, case1={case1}, case2={case2}, {elapsed:.2f}s",
    )


def test_02_constraint_oracle_equivalence():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    draws = 0
    for m_idx in range(250):
        n = int(rng.integers(2, 11))
        model = random_tree_model(n, rng) if m_idx % 2 else random_chain_model(n, rng)
        assembler = ConstraintAssembler(model)
        for _ in range(4):
            q, qd, qdd = random_state(model, rng)
            fx = rng.normal(0, 8.0, (n, 6))
            d = rnea(model, q, qd, qdd, fx_base=fx)
            mat, b = one_state(assembler, q, qd)
            rel = np.abs(mat @ d + b).max() / (1 + np.abs(d).max())
            worst = max(worst, rel)
            draws += 1
    elapsed = time.perf_counter() - t0
    ok = draws >= 1000 and worst <= 1e-9 and elapsed < 30.0
    report(
        "02 constraint-oracle",
        ok,
        f"{draws} draws, worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_03_lagrangian_equivalence():
    rng = np.random.default_rng(12)
    model = random_chain_model(5, rng)
    layout = DynLayout(model)
    worst_tau = 0.0
    worst_sym = 0.0
    for _ in range(100):
        q, qd, qdd = random_state(model, rng)
        fx = rng.normal(0, 10.0, (5, 6))
        terms = extract_lagrangian_terms(model, q, qd)
        lhs = terms.mass_matrix @ qdd + terms.bias + terms.gravity - terms.jacobian_t @ fx.ravel()
        rhs = rnea(model, q, qd, qdd, fx_base=fx)[layout.tau_indices()]
        worst_tau = max(worst_tau, np.abs(lhs - rhs).max())
        worst_sym = max(worst_sym, np.abs(terms.mass_matrix - terms.mass_matrix.T).max())
    ok = worst_tau <= 1e-9 and worst_sym <= 1e-10
    report(
        "03 lagrangian-equivalence",
        ok,
        f"torque gap {worst_tau:.2e}, M asymmetry {worst_sym:.2e} over 100 states",
    )


def test_04_estimator_identities(two_link_problem, human48, human48_truth, human48_scenario):
    problem, _, _ = two_link_problem
    # MAP mean equals the stacked weighted-least-squares closed form
    mean = map_solve(problem).mean
    gls = map_as_gls(problem)
    gap_gls = np.abs(mean - gls).max() / (1 + np.abs(mean).max())

    # the plan-built block Cholesky equals a dense solve (48-DoF posterior)
    truth = human48_truth
    casm = ConstraintAssembler(human48)
    masm = MeasurementAssembler(human48, human48_scenario.sensor_specs)
    values_d, b_d, values_y, b_y = assemble_system(casm, masm, truth.q[0], truth.qd[0])
    y0 = np.zeros((1, masm.dim))
    big = MapProblem(casm.matrix(values_d[0]), b_d[0], masm.matrix(values_y[0]), b_y[0], y0[0], sigma_y=masm.variances)
    plan = big.plan()
    values, rhs = plan.terms(values_d, b_d, values_y, b_y, y0)
    plan.solver.factorize_blocks(values)
    x_sparse = plan.solver.solve(values, rhs)[0]
    precision, rhs_oracle = posterior_precision_terms(big)
    x_dense = np.linalg.solve(precision.toarray(), rhs_oracle)
    gap_chol = np.abs(x_sparse - x_dense).max() / (1 + np.abs(x_dense).max())

    # the two LMMSE algebraic forms agree; both prior limits hold
    rng = np.random.default_rng(13)
    c = rng.normal(0, 1, (10, 6))
    sx = rng.uniform(0.5, 2.0, 6)
    se = rng.uniform(0.1, 1.0, 10)
    mu = rng.normal(0, 1, 6)
    y = rng.normal(0, 1, 10)
    (m1, c1), (m2, c2) = lmmse_forms_check(c, sx, se, mu, y)
    gap_lmmse = max(np.abs(m1 - m2).max(), np.abs(c1 - c2).max())

    (mr1, _), (mr2, _) = lmmse_forms_check(c, np.full(6, 1e-12), se, mu, y)
    gap_reliable = max(np.linalg.norm(mr1 - mu), np.linalg.norm(mr2 - mu))
    (mu1, _), (mu2, _) = lmmse_forms_check(c, np.full(6, 1e8), se, mu, y)
    w = np.diag(1.0 / se)
    unreliable = np.linalg.solve(c.T @ w @ c, c.T @ w @ y)
    gap_unreliable = max(np.linalg.norm(mu1 - unreliable), np.linalg.norm(mu2 - unreliable))

    ok = gap_gls <= 1e-8 and gap_chol <= 1e-9 and gap_lmmse <= 1e-9 and gap_reliable <= 1e-6 and gap_unreliable <= 1e-6
    report(
        "04 estimator-identities",
        ok,
        f"MAP-GLS {gap_gls:.2e}, chol-dense {gap_chol:.2e}, lmmse {gap_lmmse:.2e}, "
        f"limits {gap_reliable:.2e}/{gap_unreliable:.2e}",
    )


def test_05_end_to_end_recovery(human48, human48_scenario, human48_truth):
    truth = human48_truth
    casm = ConstraintAssembler(human48)
    masm = MeasurementAssembler(human48, human48_scenario.sensor_specs)
    values_d, b_d, values_y, b_y = assemble_system(casm, masm, truth.q, truth.qd)
    mat_d, mat_y = casm.matrix(values_d[0]), masm.matrix(values_y[0])

    # zero noise, exact-confidence settings: per-channel recovery of d*
    clean = truth.readings
    plan = MapProblem(
        mat_d, b_d[0], mat_y, b_y[0], clean[0], sigma_D=1e-10, sigma_y=1e-12, sigma_d=1e8,
    ).plan()
    every = slice(0, truth.times.size, 2)
    values, rhs = plan.terms(values_d[every], b_d[every], values_y[every], b_y[every], clean[every])
    plan.solver.factorize_blocks(values)
    means = plan.solver.solve(values, rhs)
    worst = np.abs(means - truth.d[every]).max()

    # noisy run at the default tuning: measured channels beat their noise.
    # The exact claim is on the posterior reconstruction variance; the
    # sampled RMSE over N=200 error draws must sit inside its chi-square
    # envelope around it (some channels are informed only by their own
    # reading, so their true ratio equals 1).
    sigma = np.sqrt(masm.variances)
    rng = np.random.default_rng(23)
    err2 = np.zeros(masm.dim)
    count = 0
    mats_y = [masm.matrix(row) for row in values_y]
    plan = MapProblem(mat_d, b_d[0], mat_y, b_y[0], clean[0], sigma_y=masm.variances).plan()
    values, rhs_clean = plan.terms(values_d, b_d, values_y, b_y, clean)
    solver = plan.solver
    for k in range(truth.times.size):
        factor = values[k: k + 1]
        solver.factorize_blocks(factor)
        weighted = mats_y[k].T @ sp.diags(1.0 / masm.variances)
        for _ in range(10):
            noise = rng.normal(0.0, sigma)
            d_hat = solver.solve(factor, (rhs_clean[k] + weighted @ noise)[None])[0]
            err2 += np.asarray(mats_y[k] @ (d_hat - truth.d[k])) ** 2
            count += 1
    rmse = np.sqrt(err2 / count)
    margin = (rmse / sigma).max()
    envelope = 1.0 + 3.5 / np.sqrt(2.0 * count)

    # deterministic part of the claim at one state
    problem = MapProblem(mat_d, b_d[0], mat_y, b_y[0], np.zeros(masm.dim), sigma_y=masm.variances)
    precision, _ = posterior_precision_terms(problem)
    cov = np.linalg.inv(precision.toarray())
    pred = np.sqrt(np.diag(mat_y.toarray() @ cov @ mat_y.toarray().T))
    pred_margin = (pred / sigma).max()

    ok = worst <= 1e-6 and pred_margin <= 1.0 + 1e-9 and margin <= envelope
    report(
        "05 end-to-end-recovery",
        ok,
        f"zero-noise worst channel {worst:.2e}, posterior std/sigma max {pred_margin:.6f}, "
        f"sampled RMSE/sigma max {margin:.3f} (envelope {envelope:.3f}, N={count})",
    )


def test_06_information_monotonicity(human48, human48_truth):
    truth = human48_truth
    layout = DynLayout(human48)
    casm = ConstraintAssembler(human48)
    specs1 = default_sensor_specs(human48, include_imus=False, contact_links=CONTACT_LINKS)
    specs2 = default_sensor_specs(human48, include_imus=True, contact_links=CONTACT_LINKS)
    asm1 = MeasurementAssembler(human48, specs1)
    asm2 = MeasurementAssembler(human48, specs2)
    q, qd = truth.q[3], truth.qd[3]
    mat_d, b_d, mat1, bias1 = one_state_system(casm, asm1, q, qd)
    mat2, bias2 = one_state(asm2, q, qd)

    # CASE 2 = CASE 1 plus the IMU rows
    case1 = MapProblem(mat_d, b_d, mat1, bias1, np.zeros(asm1.dim), sigma_y=asm1.variances)
    case2 = MapProblem(mat_d, b_d, mat2, bias2, np.zeros(asm2.dim), sigma_y=asm2.variances)
    tau_idx = layout.tau_indices()
    v1 = map_solve(case1).variances[tau_idx]
    v2 = map_solve(case2).variances[tau_idx]
    monotone = bool(np.all(v2 <= v1 + 1e-12))

    cov1 = np.linalg.inv(posterior_precision_terms(case1)[0].toarray())
    cov2 = np.linalg.inv(posterior_precision_terms(case2)[0].toarray())
    trace_drop = bool(np.trace(cov1) >= np.trace(cov2))
    jitter = 1e-8 * (1.0 + np.abs(cov1).max())
    try:
        np.linalg.cholesky(cov1 - cov2 + jitter * np.eye(cov1.shape[0]))
        psd = True
    except np.linalg.LinAlgError:
        psd = False

    names = [j.name for j in human48.joints]

    def reduction(prefix):
        idx = [i for i, n in enumerate(names) if n.startswith(prefix)]
        return 1.0 - np.mean(v2[idx]) / np.mean(v1[idx])

    torso = reduction("jL1T12")
    ankles = max(reduction("jLeftAnkle"), reduction("jRightAnkle"))
    trend = torso > ankles

    ok = monotone and psd and trace_drop and trend
    report(
        "06 information-monotonicity",
        ok,
        f"monotone={monotone}, PSD={psd}, trace non-increasing={trace_drop}, "
        f"reduction torso {torso:.1%} vs ankles {ankles:.1%}",
    )


def test_07_sensor_pose_calibration(human48):
    # rich two-axis excitation everywhere, posture inside the limits
    lo, hi = human48.limits()
    center = np.clip((lo + hi) / 2, -0.4, 0.4)
    span = np.minimum(hi - center, center - lo)
    waveforms = [
        Sine(min(0.35, 0.8 * span[j]), 0.5 + 0.013 * j, phase=0.9 * j, offset=center[j])
        for j in range(human48.n_dof)
    ]
    traj = TrajectorySpec(waveforms, 1.5, 40.0)
    worst_pos = 0.0
    worst_rpy = 0.0
    calibrated = 0
    motion = link_motion(human48, traj)
    for sensor in human48.sensors_of_kind("accelerometer"):
        if human48.link_index[sensor.parent_link] == 0:
            continue  # the base carries no estimable dynamics
        streams = synthesize_sensor_streams(human48, motion, sensor)
        est = estimate_sensor_pose(*streams)
        worst_pos = max(worst_pos, np.abs(est.position - sensor.pose.translation).max())
        worst_rpy = max(worst_rpy, np.abs(est.rpy - matrix_to_rpy(sensor.pose.rotation)).max())
        calibrated += 1

    # Monte Carlo error slope vs sample count
    two_link = parse_model(TWO_LINK_XML)
    traj2 = TrajectorySpec([Sine(0.5, 0.7, phase=0.2), Sine(0.4, 1.1, phase=-0.5)], 1024 / 60.0, 60.0)
    sensor = two_link.sensors_of_kind("accelerometer")[0]
    body_rot, body_acc, w, wd, sensor_rot, sensor_acc = synthesize_sensor_streams(
        two_link, link_motion(two_link, traj2), sensor
    )
    rng = np.random.default_rng(5)
    sizes = [16, 64, 256, 1024]
    total = sensor_acc.shape[0]
    mean_err = []
    for n in sizes:
        idx = np.linspace(0, total - 1, n).astype(int)
        errs = []
        for _ in range(48):
            noisy = sensor_acc[idx] + rng.normal(0, 0.05, (n, 3))
            est = estimate_sensor_pose(
                body_rot[idx], body_acc[idx], w[idx], wd[idx], sensor_rot[idx], noisy
            )
            errs.append(np.linalg.norm(est.position - sensor.pose.translation))
        mean_err.append(np.mean(errs))
    slope = np.polyfit(np.log(sizes), np.log(mean_err), 1)[0]

    ok = calibrated == 16 and worst_pos <= 1e-8 and worst_rpy <= 1e-8 and abs(slope + 0.5) <= 0.15
    report(
        "07 sensor-pose-calibration",
        ok,
        f"{calibrated} sensors, pos {worst_pos:.2e} m, rpy {worst_rpy:.2e} rad, slope {slope:.3f}",
    )


def test_08_classical_id_inconsistency(two_link_model, rng):
    q, qd, qdd = random_state(two_link_model, rng)
    layout = DynLayout(two_link_model)
    d = rnea(two_link_model, q, qd, qdd)
    sweep = kinematic_sweep(two_link_model, q, qd)
    from mapdyn.spatial import GRAVITY_SPATIAL

    f_fp = sweep.x_from_parent[0, 1].T @ d[layout.joint_force(1)] - two_link_model.inertia_of(
        0
    ).matrix() @ GRAVITY_SPATIAL

    td = id_topdown(two_link_model, q, qd, qdd, f_fp)
    bu = id_bottomup(two_link_model, q, qd, qdd, f_fp)
    consist = max(np.abs(td.inconsistency).max(), np.abs(bu.inconsistency).max())

    delta = np.array([0.0, 0.0, 10.0, 0.0, 0.0, 0.0])
    td_p = id_topdown(two_link_model, q, qd, qdd, f_fp + delta)
    force_norm = np.linalg.norm(td_p.inconsistency[:3])

    ok = consist <= 1e-9 and abs(force_norm - 10.0) <= 1e-9
    report(
        "08 classical-id-inconsistency",
        ok,
        f"consistent gap {consist:.2e}, perturbed force norm {force_norm:.6f} N",
    )


def test_09_augmented_linearized_solve(two_link_model, rng):
    casm = ConstraintAssembler(two_link_model)
    masm = MeasurementAssembler(
        two_link_model, default_sensor_specs(two_link_model, contact_links=("link2",))
    )
    n = two_link_model.n_dof
    q, qd, qdd = random_state(two_link_model, rng)
    d_star = rnea(two_link_model, q, qd, qdd)
    x_bar = np.concatenate([q, qd])

    def build(x):
        mat_d, b_d, mat_y, b_y = one_state_system(casm, masm, x[:n], x[n:])
        return mat_y, b_y, mat_d, b_d

    dby_cs, dbd_cs = complex_step_bias_jacobians(build, x_bar, d_star)
    dby_fd, dbd_fd = finite_difference_bias_jacobians(build, x_bar, d_star, step=1e-6)
    rel_y = np.abs(dby_cs - dby_fd).max() / (1 + np.abs(dby_fd).max())
    rel_d = np.abs(dbd_cs - dbd_fd).max() / (1 + np.abs(dbd_fd).max())

    mat_d, b_d, mat_y, b_y = one_state_system(casm, masm, q, qd)
    y = mat_y @ d_star + b_y
    problem = MapProblem(mat_d, b_d, mat_y, b_y, y, sigma_y=masm.variances)
    result = map_solve_augmented(
        problem, mu_x=x_bar, sigma_x=1e-12, x_bar=x_bar, d_bar=d_star,
        jacobians=lambda db, xb: complex_step_bias_jacobians(build, xb, db),
    )
    plain = map_solve(problem)
    gap = np.abs(result.d_mean - plain.mean).max() / (1 + np.abs(plain.mean).max())

    ok = rel_y <= 1e-5 and rel_d <= 1e-5 and gap <= 1e-6
    report(
        "09 augmented-solve",
        ok,
        f"jacobian vs FD {max(rel_y, rel_d):.2e}, zero-uncertainty gap {gap:.2e}",
    )


def test_10_performance(human48, human48_scenario, human48_truth, tmp_path):
    truth = human48_truth
    casm = ConstraintAssembler(human48)
    masm = MeasurementAssembler(human48, human48_scenario.sensor_specs)
    # sample 0 through estimate's per-sample path, the plan built beforehand
    values_d, b_d, values_y, b_y = assemble_system(casm, masm, truth.q[:1], truth.qd[:1])
    y = np.zeros((1, masm.dim))
    plan = MapProblem(
        casm.matrix(values_d[0]), b_d[0], masm.matrix(values_y[0]), b_y[0], y[0], sigma_y=masm.variances
    ).plan()
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        values, rhs = plan.terms(values_d, b_d, values_y, b_y, y)
        plan.solver.factorize_blocks(values)
        plan.solver.solve(values, rhs)
        times.append(time.perf_counter() - t0)
    solve_ms = float(np.median(times) * 1e3)

    # 1000-sample estimate run through the CLI with 4 workers
    import json

    from mapdyn.cli import main
    from mapdyn.model import emit_model

    model_path = tmp_path / "model.xml"
    model_path.write_text(emit_model(human48))
    sim_cfg = {
        "model": str(model_path),
        "out": str(tmp_path / "sim"),
        "seed": 9,
        "scenario": {
            "duration": 10.0,
            "rate": 100.0,
            "trajectory": {
                "default": {"kind": "sine", "amplitude": 0.15, "frequency": 0.5},
                # one-sided knee ranges (reversed on the left chain after
                # rerooting at the left foot) need offsets
                "jRightKnee_roty": {"kind": "sine", "amplitude": 0.15, "frequency": 0.5, "offset": 0.16},
                "jLeftKnee_roty": {"kind": "sine", "amplitude": 0.15, "frequency": 0.5, "offset": -0.16},
            },
        },
        "sensors": {"contact_links": list(CONTACT_LINKS)},
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(sim_cfg))
    assert main(["simulate", "--config", str(cfg_path)]) == 0

    est_cfg = dict(sim_cfg)
    est_cfg["out"] = str(tmp_path / "est")
    est_cfg["inputs"] = {
        "observations": str(tmp_path / "sim" / "observations.csv"),
        "state": str(tmp_path / "sim" / "trajectory.csv"),
    }
    est_path = tmp_path / "est.json"
    est_path.write_text(json.dumps(est_cfg))
    t0 = time.perf_counter()
    assert main(["estimate", "--config", str(est_path), "--workers", "4"]) == 0
    wall = time.perf_counter() - t0

    ok = solve_ms < 50.0 and wall < 60.0
    report(
        "10 performance",
        ok,
        f"48-DoF terms+factor+solve {solve_ms:.2f} ms, 1000-sample estimate {wall:.1f} s / 4 workers",
    )
