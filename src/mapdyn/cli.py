"""Command-line front end: model generation, simulation, estimation, analysis.

Commands write their outputs plus a manifest (config hash, seed, versions,
input digests) sufficient to reproduce a run byte-identically. Time series
are CSV with a header row and a numeric time column in seconds; calibration
results and manifests are JSON.

Exit codes: 0 ok, 1 usage, 2 input/model error, 3 numerical failure.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click
import numpy as np

import mapdyn
from mapdyn.blas import blas_threads, bundled_openblas, set_blas_threads
from mapdyn.dynamics import SAMPLE_CHUNK, DynLayout, kinematic_sweep, sample_chunks
from mapdyn.model.kinematics import check_joint_angles
from mapdyn.estimator import UNOBSERVED_TOL, EstimatorError, MapEstimator, RankDeficiencyError
from mapdyn.model import (
    ModelError,
    TemplateError,
    generate_human_template,
    ik_frame_match,
    parse_model,
)
from mapdyn.sensors import (
    ExcitationError,
    channel_names,
    default_sensor_specs,
    estimate_sensor_pose,
    savitzky_golay_derivatives,
    validate_specs,
)
from mapdyn.simharness import (
    SyntheticScenario,
    TrajectorySpec,
    generate_ground_truth,
    generate_observations,
    synthesize_sensor_streams,
    waveform_from_config,
)
from mapdyn.spatial import HomTransform, matrix_to_rpy

log = logging.getLogger("mapdyn")

EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


class InputError(Exception):
    """Bad input files or config content (exit code 2)."""


def _setup_logging():
    level = os.environ.get("MAPDYN_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(name)s %(levelname)s %(message)s")


# ---------------------------------------------------------------------------
# config and manifest plumbing


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config is not valid JSON: {exc}") from exc


def _positive_int(value, key):
    """``value`` if it is a positive integer (not a bool), else an InputError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InputError(f"'{key}' must be a positive integer, got {value!r}")
    return value


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: Path, command: str, cfg: dict, seed, inputs=(), outputs=(), extra=None):
    import scipy

    manifest = {
        "command": command,
        "config_sha256": config_hash(cfg),
        "seed": seed,
        "versions": {
            "mapdyn": mapdyn.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "inputs": {str(p): file_digest(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        **(extra or {}),
    }
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        # strict JSON: a NaN or an infinity here is a bug, not a value
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
    return path


def _csv_lines(rows) -> str:
    """Numeric rows as CSV lines of their shortest round-trip reprs.

    The block becomes Python floats in one ``tolist`` (``repr`` of a numpy
    scalar is not its number), and each row one joined line with ``csv``'s
    ``\\r\\n`` terminator: the bytes ``csv.writer`` would write, without its
    per-cell overhead.
    """
    return "".join(",".join(map(repr, row)) + "\r\n" for row in np.asarray(rows, dtype=float).tolist())


def write_csv(path, header, rows):
    """Header through ``csv.writer``; the numeric rows through ``_csv_lines``.

    The rows go in blocks of SAMPLE_CHUNK, so that a long series is never
    held as one string.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for block in sample_chunks(len(rows)):
            fh.write(_csv_lines(rows[block]))


def read_csv(path):
    """Header through ``csv``; the numeric rows through ``np.loadtxt``.

    When ``np.loadtxt`` fails, or its array does not have one row per line
    and one column per header cell (it skips blank lines), the rows are
    parsed one by one as ``csv`` reads them, so that the error names the
    file and the line.
    """
    try:
        with open(path) as fh:
            first = fh.readline()
            lines = fh.readlines()
    except FileNotFoundError as exc:
        raise InputError(f"input CSV not found: {path}") from exc
    if not first:
        raise InputError(f"input CSV is empty: {path}")
    header = next(csv.reader([first]))
    if not lines:
        raise InputError(f"input CSV has a header but no data rows: {path}")
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        if data.shape == (len(lines), len(header)):
            return header, data
    except ValueError:
        pass
    return header, _parse_rows(path, header, lines)


def _require_finite(path, header, data, columns):
    """Raise InputError at the first non-finite cell of ``data[:, columns]``, by line and column."""
    bad = np.argwhere(~np.isfinite(data[:, columns]))
    if bad.size:
        row, col = bad[0]
        column = columns[col]
        raise InputError(
            f"{path}, line {row + 2}, column {header[column]!r}: {float(data[row, column])!r} is not a finite number"
        )


def _parse_rows(path, header, lines):
    """The data rows cell by cell through ``float``; raises at the first bad line."""
    data = []
    for line, row in enumerate(csv.reader(lines), start=2):
        if len(row) != len(header):
            raise InputError(f"{path}, line {line}: {len(row)} cells, the header has {len(header)}")
        try:
            data.append([float(x) for x in row])
        except ValueError as exc:
            raise InputError(f"{path}, line {line}: {exc}") from exc
    return np.array(data)


def load_model_from_config(cfg, override=None) -> tuple:
    path = override or cfg.get("model")
    if not path:
        raise InputError("config lacks a 'model' path")
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise InputError(f"model file not found: {path}") from exc
    return parse_model(text), Path(path)


def _config_block(cfg, key, label=None):
    """``cfg[key]`` (default ``{}``) if it is a JSON object, else an InputError naming ``label``."""
    block = cfg.get(key, {})
    if not isinstance(block, dict):
        raise InputError(f"'{label or key}' must be a JSON object, got {block!r}")
    return block


def sensor_specs_from_config(model, cfg, label="sensors") -> list:
    """The validated sensor specs of ``cfg``'s ``sensors`` block, named ``label`` in errors."""
    sensors_cfg = _config_block(cfg, "sensors", label)
    fp_pose = None
    if "fixed_base_pose" in sensors_cfg:
        pose_cfg = sensors_cfg["fixed_base_pose"]
        fp_pose = HomTransform.from_rpy(pose_cfg.get("xyz", [0, 0, 0]), pose_cfg.get("rpy", [0, 0, 0]))
    return validate_specs(model, default_sensor_specs(
        model,
        include_imus=sensors_cfg.get("include_imus", True),
        imu_variance=sensors_cfg.get("imu_variance", 1e-3),
        ddq_variance=sensors_cfg.get("ddq_variance", 1e-3),
        wrench_variance=sensors_cfg.get("wrench_variance", 1e-6),
        contact_links=sensors_cfg.get("contact_links", ()),
        contact_wrench_variance=sensors_cfg.get("contact_wrench_variance", 1e-3),
        base_wrench_variance=sensors_cfg.get("base_wrench_variance", 1e-3),
        fp_pose=fp_pose,
    ))


def trajectory_from_config(model, cfg) -> TrajectorySpec:
    scen = cfg.get("scenario")
    if not scen:
        raise InputError("config lacks a 'scenario' block")
    tr_cfg = scen.get("trajectory", {})
    default = tr_cfg.get("default", {"kind": "constant", "value": 0.0})
    waveforms = []
    for joint in model.joints:
        waveforms.append(waveform_from_config(tr_cfg.get(joint.name, default)))
    return TrajectorySpec(waveforms, scen["duration"], scen["rate"])


def scenario_from_config(model, cfg) -> SyntheticScenario:
    scen = cfg.get("scenario", {})
    forces = {}
    for link, channels in scen.get("external_forces", {}).items():
        forces[link] = [waveform_from_config(c) for c in channels]
    return SyntheticScenario(
        model,
        trajectory_from_config(model, cfg),
        sensor_specs_from_config(model, cfg),
        external_forces=forces,
        seed=cfg.get("seed", 0),
    )


def covariances_from_config(cfg):
    """(sigma_D, sigma_d, mu_d): finite numbers, the variances positive, else an InputError naming the key."""
    cov = _config_block(cfg, "covariances")
    values = []
    for key, default, kind in (("sigma_D", 1e-4, "positive finite"), ("sigma_d", 1e4, "positive finite"),
                               ("mu_d", 0.0, "finite")):
        value = cov.get(key, default)
        number = not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
        if not number or (kind != "finite" and value <= 0):
            raise InputError(f"'covariances.{key}' must be a {kind} number, got {value!r}")
        values.append(value)
    return tuple(values)


# ---------------------------------------------------------------------------
# commands


@click.group(name="mapdyn")
def cli():
    """Probabilistic whole-body inverse dynamics toolbox."""
    _setup_logging()


@cli.command("model-gen")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", default=None, type=click.Path())
def cmd_model_gen(config_path, out_dir):
    """Generate the anthropometric URDF template for a subject."""
    cfg = load_config(config_path)
    out = _out_dir(cfg, out_dir)
    subject_cfg = cfg.get("subject")
    if not subject_cfg:
        raise InputError("config lacks a 'subject' block")
    landmarks_path = subject_cfg.get("landmarks_file")
    if landmarks_path:
        try:
            with open(landmarks_path) as fh:
                landmarks = json.load(fh)["landmarks"]
        except FileNotFoundError as exc:
            raise InputError(f"landmarks file not found: {landmarks_path}") from exc
    else:
        landmarks = subject_cfg.get("landmarks")
        if landmarks is None:
            raise InputError("subject block needs 'landmarks' or 'landmarks_file'")
    subject = {"mass_total": subject_cfg["mass_total"], "landmarks": landmarks}
    xml = generate_human_template(subject, root=cfg.get("root_link", "Pelvis"))
    model = parse_model(xml)
    model_path = out / "model.xml"
    model_path.write_text(xml)
    pairs = len(model.sensors_of_kind("accelerometer"))
    click.echo(
        f"wrote {model_path}: {len(model.links)} links ({model.n_moving} moving), "
        f"{model.n_dof} DoF, {pairs} sensor pairs"
    )
    write_manifest(out, "model-gen", cfg, cfg.get("seed"), outputs=[model_path])


@cli.command("simulate")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--model", "model_override", default=None, type=click.Path())
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--seed", default=None, type=int, help="override the config seed")
def cmd_simulate(config_path, model_override, out_dir, seed):
    """Run a synthetic scenario: trajectory, ground truth, noisy observations."""
    cfg = load_config(config_path)
    if seed is not None:
        cfg["seed"] = seed
    out = _out_dir(cfg, out_dir)
    model, model_path = load_model_from_config(cfg, model_override)
    scenario = scenario_from_config(model, cfg)
    truth = generate_ground_truth(scenario)
    obs = generate_observations(scenario, truth)

    joint_names = [j.name for j in model.joints]
    traj_path = out / "trajectory.csv"
    header = (
        ["time"]
        + [f"q_{n}" for n in joint_names]
        + [f"qd_{n}" for n in joint_names]
        + [f"qdd_{n}" for n in joint_names]
    )
    write_csv(
        traj_path,
        header,
        np.column_stack([truth.times, truth.q, truth.qd, truth.qdd]),
    )

    obs_path = out / "observations.csv"
    names = channel_names(model, scenario.sensor_specs)
    write_csv(obs_path, ["time"] + names, np.column_stack([truth.times, obs]))

    layout = DynLayout(model)
    gt_path = out / "ground_truth.csv"
    gt_header = (
        ["time"] + [f"q_{n}" for n in joint_names] + [f"qd_{n}" for n in joint_names] + layout.column_names()
    )
    write_csv(gt_path, gt_header, np.column_stack([truth.times, truth.q, truth.qd, truth.d]))

    poses_path = out / "link_poses.csv"
    _write_link_poses(poses_path, model, truth)

    manifest = write_manifest(
        out, "simulate", cfg, cfg.get("seed", 0), inputs=[model_path],
        outputs=[traj_path, obs_path, gt_path, poses_path],
    )
    click.echo(f"simulated {truth.times.size} samples -> {out} (manifest {manifest.name})")


def _write_link_poses(path, model, truth):
    real = [i for i, link in enumerate(model.links) if not link.is_dummy]
    header = ["time"]
    for i in real:
        header += [f"{model.links[i].name}_{c}" for c in ("x", "y", "z", "roll", "pitch", "yaw")]
    rows = np.empty((truth.times.size, 6 * len(real)))
    for chunk in sample_chunks(truth.times.size):
        sweep = kinematic_sweep(model, truth.q[chunk], truth.qd[chunk])
        poses = np.concatenate([sweep.position[:, real], matrix_to_rpy(sweep.rotation[:, real])], axis=-1)
        rows[chunk] = poses.reshape(len(poses), -1)
    write_csv(path, header, np.column_stack([truth.times, rows]))


# the estimator of this process's `estimate` samples, a pool worker's or the caller's
_estimator = None

# samples per chunk of `estimate`, each assembled from one kinematic sweep: a
# worker pool cuts four chunks per worker, of at least CHUNK_MIN samples (a
# sweep of a handful of samples costs about what one of a single sample
# does); the serial path takes chunks of SAMPLE_CHUNK
CHUNK_MIN = 4


# glibc's mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap():
    """Keep freed memory in the heap for the next batch (glibc; elsewhere a no-op).

    A batch's temporaries take a few MB, some of them over glibc's default
    128 kB thresholds. In a process that imported little, so that its heap
    is small, glibc then returns the heap top to the system after a batch
    and faults it back in for the next one: a pool worker on the
    `state-tau` inputs (160 samples, chunks of 20) took 150 minor page
    faults per sample against 12 with these thresholds, and a serial
    all-marginals run 102 against 22. The thresholds hold for the rest of
    the process, and glibc has no call that reads the old ones back: a pool
    worker ends with its pool, but an in-process (serial) `estimate` leaves
    them set in the caller's process.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)


def _estimate_worker_init(model, specs, covariances, marginal_idx):
    global _estimator
    # one BLAS thread per worker: the pool already saturates the cores
    set_blas_threads(1)
    _keep_freed_heap()
    _estimator = MapEstimator(model, specs, *covariances, marginal_idx)


MARGINAL_MODES = ("tau", "tau_ddq", "all")


def _marginal_indices(layout, mode):
    if mode == "all":
        return np.arange(layout.size)
    if mode == "tau_ddq":
        return np.concatenate([layout.tau_indices(), layout.ddq_indices()])
    return layout.tau_indices()


def _estimate_chunk(args):
    """One chunk of samples, estimated and formatted where it runs.

    Returns the chunk's lines of ``estimates.csv`` and ``marginal_std.csv``,
    time column first, formatted by ``_csv_lines``: a pool's workers format
    their own samples, and the parent only writes the text. The serial
    path runs this same function in-process. Also returns the
    per-sample unobserved dimensions and joint-limit violation counts, the
    BLAS thread counts read back and the chunk's smallest pivot ratio.
    """
    indices, times, q_rows, qd_rows, y_rows = args
    posterior = _estimator.estimate(q_rows, qd_rows, y_rows)
    # the output rows with the time in column 0, formatted as they stand
    means = np.column_stack([times, posterior.mean])
    stds = np.column_stack([times, np.sqrt(posterior.variances)])
    return (indices, _csv_lines(means), _csv_lines(stds), posterior.unobserved,
            check_joint_angles(_estimator.model, q_rows), blas_threads(), float(posterior.pivot_ratio.min()))


@cli.command("estimate")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--model", "model_override", default=None, type=click.Path())
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--workers", default=None, type=click.IntRange(min=1), help="worker processes (default: cores)")
def cmd_estimate(config_path, model_override, out_dir, workers):
    """MAP estimation over an observation series (state CSV or IK from poses)."""
    cfg = load_config(config_path)
    out = _out_dir(cfg, out_dir)
    model, model_path = load_model_from_config(cfg, model_override)
    specs = sensor_specs_from_config(model, cfg)
    layout = DynLayout(model)
    covariances = covariances_from_config(cfg)
    # checked before the inputs are read: the IK of a pose CSV takes long
    marginal_mode = cfg.get("marginals", "tau")
    if marginal_mode not in MARGINAL_MODES:
        raise InputError(f"'marginals' must be one of {', '.join(MARGINAL_MODES)}, got {marginal_mode!r}")
    cfg_workers = cfg.get("workers")
    if cfg_workers is not None:
        _positive_int(cfg_workers, "workers")

    inputs_cfg = cfg.get("inputs", {})
    obs_path = inputs_cfg.get("observations")
    if not obs_path:
        raise InputError("config 'inputs.observations' is required")
    obs_header, obs_data = read_csv(obs_path)
    expected = ["time"] + channel_names(model, specs)
    if obs_header != expected:
        raise InputError("observation CSV channels do not match the sensor config")
    times = obs_data[:, 0]
    y_series = obs_data[:, 1:]
    # a non-finite reading is missing: the estimator gives it zero weight
    missing = int(np.count_nonzero(~np.isfinite(y_series)))

    input_files = [model_path, Path(obs_path)]
    if inputs_cfg.get("state"):
        header, data = read_csv(inputs_cfg["state"])
        n = model.n_dof
        if data.shape[1] < 1 + 2 * n:
            raise InputError(
                f"state CSV needs time plus q and qd columns ({1 + 2 * n}), found {data.shape[1]}"
            )
        # a state has no variance: unlike a reading, a non-finite one cannot be missing
        _require_finite(inputs_cfg["state"], header, data, np.arange(1, 1 + 2 * n))
        q_series = data[:, 1: 1 + n]
        qd_series = data[:, 1 + n: 1 + 2 * n]
        input_files.append(Path(inputs_cfg["state"]))
        ik_unconverged = []
    elif inputs_cfg.get("link_poses"):
        q_series, qd_series, ik_unconverged = _state_from_poses(model, cfg, inputs_cfg["link_poses"])
        input_files.append(Path(inputs_cfg["link_poses"]))
    else:
        raise InputError("config 'inputs' needs 'state' or 'link_poses'")
    if q_series.shape[0] != times.size:
        raise InputError("state and observation sample counts disagree")

    marg_idx = _marginal_indices(layout, marginal_mode)
    n_workers = workers or cfg_workers or (os.cpu_count() or 1)
    n_samples = times.size
    if n_samples < 8:
        n_workers = 1
    chunks = _make_chunks(times, q_series, qd_series, y_series, n_workers)

    t_start = time.perf_counter()
    # the pool's parent builds no estimator: each worker builds its own
    init_args = (model, specs, covariances, marg_idx)
    if n_workers == 1:
        # in-process: hand the caller its own BLAS thread counts back
        previous = blas_threads()
        try:
            _estimate_worker_init(*init_args)
            results = [_estimate_chunk(c) for c in chunks]
        finally:
            set_blas_threads(previous)
    else:
        bundled_openblas()  # look the copies up (and warn) once; forked workers inherit it
        with ProcessPoolExecutor(max_workers=n_workers, initializer=_estimate_worker_init, initargs=init_args) as pool:
            results = list(pool.map(_estimate_chunk, chunks))
    wall = time.perf_counter() - t_start

    unobserved = np.empty(n_samples)
    limit_violations = np.empty(n_samples, dtype=int)
    # per bundled copy, the most threads any worker read back
    worker_blas = {}
    min_pivot_ratio = np.inf
    est_lines, std_lines = [], []
    for indices, est_text, std_text, unobserved_rows, violation_rows, threads, pivot_ratio in results:
        est_lines.append(est_text)
        std_lines.append(std_text)
        unobserved[indices] = unobserved_rows
        limit_violations[indices] = violation_rows
        min_pivot_ratio = min(min_pivot_ratio, pivot_ratio)
        for name, n in threads.items():
            worker_blas[name] = max(n, worker_blas.get(name, n))

    col_names = layout.column_names()
    est_path = out / "estimates.csv"
    marg_path = out / "marginal_std.csv"
    marg_names = [col_names[i] for i in marg_idx]
    # the chunks come back in sample order, their lines already formatted
    for path, names, lines in ((est_path, col_names, est_lines), (marg_path, marg_names, std_lines)):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["time"] + names)
            fh.writelines(lines)
    unobserved_samples = np.flatnonzero(unobserved >= UNOBSERVED_TOL)
    # estimation accepts any measured posture; the run reports the samples outside the limits
    limit_samples = int(np.count_nonzero(limit_violations))

    manifest = write_manifest(
        out, "estimate", cfg, cfg.get("seed"), inputs=input_files, outputs=[est_path, marg_path],
        extra={
            "workers": n_workers,
            "worker_blas_threads": worker_blas,
            "missing_readings": missing,
            "joint_limit_samples": limit_samples,
            "ik_unconverged_frames": ik_unconverged,
            "min_pivot_ratio": min_pivot_ratio,
            "max_unobserved_dimension": float(unobserved.max()),
            "unobserved_samples": unobserved_samples.tolist(),
        },
    )
    per_sample = wall / max(n_samples, 1) * 1e3
    blas_note = ", ".join(f"{n} {name.split('/')[0]}" for name, n in worker_blas.items()) or "not capped"
    click.echo(
        f"estimated {n_samples} samples in {wall:.2f} s ({per_sample:.1f} ms/sample, "
        f"{n_workers} workers, BLAS threads per worker: {blas_note}, {missing} missing readings, "
        f"{limit_samples} samples outside joint limits, {len(ik_unconverged)} IK frames unconverged) "
        f"-> {out} (manifest {manifest.name})"
    )
    if unobserved_samples.size:
        raise _unobserved_error(unobserved, unobserved_samples, times)


def _unobserved_error(unobserved, samples, times, shown=10):
    deficiency = round(float(unobserved[samples].max()))
    named = ", ".join(f"{i} (t={times[i]:g} s)" for i in samples[:shown])
    more = f" and {samples.size - shown} more" if samples.size > shown else ""
    return RankDeficiencyError(deficiency, (
        f"{samples.size} of {unobserved.size} samples leave up to {deficiency} direction(s) of d "
        f"unobserved: samples {named}{more}; manifest.json lists all as unobserved_samples"
    ))


def _make_chunks(times, q_series, qd_series, y_series, n_workers):
    """Contiguous chunks of samples, each assembled from one kinematic sweep.

    One process takes chunks of at most SAMPLE_CHUNK samples; a pool cuts
    four chunks per worker, of at least CHUNK_MIN samples each.
    """
    n_samples = times.size
    n_chunks = -(-n_samples // SAMPLE_CHUNK)
    if n_workers > 1:
        n_chunks = max(n_chunks, min(n_workers * 4, n_samples // CHUNK_MIN))
    bounds = np.array_split(np.arange(n_samples), max(1, n_chunks))
    return [(idx, times[idx], q_series[idx], qd_series[idx], y_series[idx]) for idx in bounds if idx.size]


def _state_from_poses(model, cfg, poses_path):
    """IK + smoothing differentiation from a per-link world-pose series.

    Returns q, qd and the indices of the frames whose IK did not converge.
    """
    header, data = read_csv(poses_path)
    times = data[:, 0]
    sg_cfg = cfg.get("sg", {})
    window = _positive_int(sg_cfg.get("window", 57), "sg.window")
    order = _positive_int(sg_cfg.get("order", 3), "sg.order")
    if window % 2 == 0 or window <= order:
        raise InputError(f"'sg.window' must be odd and larger than 'sg.order' ({order}), got {window}")
    min_window = order + 1 + order % 2  # the smallest odd window above the order
    if times.size < min_window:
        raise InputError(
            f"{poses_path}: smoothing order {order} needs at least {min_window} pose samples, got {times.size}"
        )
    col = {name: i for i, name in enumerate(header)}
    real = [l.name for l in model.links if not l.is_dummy]
    for name in real:
        if f"{name}_x" not in col:
            raise InputError(f"pose CSV lacks columns for link {name!r}")
    _require_finite(poses_path, header, data, np.concatenate([col[f"{name}_x"] + np.arange(6) for name in real]))

    pairs = _real_link_pairs(model)
    n = model.n_dof
    q_series = np.zeros((times.size, n))
    q_prev = None
    unconverged = []
    for k in range(times.size):
        poses = {}
        for name in real:
            i0 = col[f"{name}_x"]
            xyz = data[k, i0: i0 + 3]
            rpy = data[k, i0 + 3: i0 + 6]
            poses[name] = HomTransform.from_rpy(xyz, rpy)
        targets = {}
        for parent, child in pairs:
            targets[(parent, child)] = poses[parent].inverse() @ poses[child]
        result = ik_frame_match(model, targets, q_init=q_prev)
        q_series[k] = result.q
        q_prev = result.q
        if not result.converged:
            unconverged.append(k)

    if times.size < window:
        window = times.size - (1 - times.size % 2)  # the largest odd window that fits
        log.warning("short series: smoothing window reduced to %d", window)
    dt = float(np.median(np.diff(times))) if times.size > 1 else 1.0
    qd_series, _ = savitzky_golay_derivatives(q_series, dt, window=window, order=order)
    return q_series, qd_series, unconverged


def _real_link_pairs(model):
    pairs = []
    for i in range(1, model.n_moving + 1):
        if model.links[i].is_dummy:
            continue
        k = model.parent[i]
        while k != 0 and model.links[k].is_dummy:
            k = model.parent[k]
        pairs.append((model.links[k].name, model.links[i].name))
    return pairs


@cli.command("fusion")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--model", "model_override", default=None, type=click.Path())
@click.option("--out", "out_dir", default=None, type=click.Path())
def cmd_fusion(config_path, model_override, out_dir):
    """Per-joint torque variance for each measurement case."""
    cfg = load_config(config_path)
    out = _out_dir(cfg, out_dir)
    model, model_path = load_model_from_config(cfg, model_override)
    fusion_cfg = cfg.get("fusion")
    if not fusion_cfg or len(fusion_cfg.get("cases", [])) < 2:
        raise InputError("fusion needs a 'fusion.cases' list with at least two cases")
    covariances = covariances_from_config(cfg)

    traj = trajectory_from_config(model, cfg)
    _, q_series, qd_series, _ = traj.sample()
    max_states = _positive_int(fusion_cfg.get("max_states", 10), "fusion.max_states")
    # evenly spaced, and at most max_states of them
    stride = -(-q_series.shape[0] // max_states)
    q_states, qd_states = q_series[::stride], qd_series[::stride]

    tau_idx = DynLayout(model).tau_indices()
    names = [case["name"] for case in fusion_cfg["cases"]]
    # one estimator per case: each case has its own layout and variances
    cases = [
        MapEstimator(model, sensor_specs_from_config(model, case, f"fusion.cases[{i}].sensors"), *covariances, tau_idx)
        for i, case in enumerate(fusion_cfg["cases"])
    ]
    # adding channels or tightening them can only shrink a variance; other
    # changes can grow it
    channels = [
        dict(zip(channel_names(model, case.measurements.specs), case.measurements.variances)) for case in cases
    ]
    for name, earlier, later in zip(names[1:], channels, channels[1:]):
        if not earlier.keys() <= later.keys():
            log.warning(
                "fusion case %r drops channels of the case before it; the monotonicity verdict is a theorem "
                "only for nested cases", name,
            )
        loosened = [c for c in earlier.keys() & later.keys() if later[c] > earlier[c]]
        if loosened:
            log.warning(
                "fusion case %r gives %d channel(s) of the case before it a larger variance (%s); the monotonicity "
                "verdict is a theorem only for nested cases", name, len(loosened), min(loosened),
            )

    per_case = np.zeros((len(cases), model.n_dof))
    for chunk in sample_chunks(len(q_states)):
        # one sweep and one D per stack of states serve every case
        sweep = kinematic_sweep(model, q_states[chunk], qd_states[chunk])
        values_d, b_d = cases[0].constraints.assemble_values(sweep)
        for ci, case in enumerate(cases):
            values_y, b_y = case.measurements.assemble_values(sweep)
            y = np.zeros_like(b_y)
            for variances in case.plan.posterior(values_d, b_d, values_y, b_y, y, case.marginals).variances:
                per_case[ci] += variances
    per_case /= len(q_states)

    table_path = out / "fusion_variances.csv"
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["joint"] + names + ["monotonic_non_increasing"])
        for joint, variances in zip(model.joints, per_case.T):
            verdict = bool(np.all(np.diff(variances) <= 1e-12))
            writer.writerow([joint.name] + [repr(float(v)) for v in variances] + [str(verdict)])
    manifest = write_manifest(out, "fusion", cfg, cfg.get("seed"), inputs=[model_path], outputs=[table_path])
    click.echo(f"fusion table -> {table_path} (manifest {manifest.name})")


@cli.command("sensor-pose")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--model", "model_override", default=None, type=click.Path())
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--seed", default=None, type=int, help="override the config seed")
@click.option("--patch-model/--no-patch-model", default=False)
def cmd_sensor_pose(config_path, model_override, out_dir, seed, patch_model):
    """Calibrate accelerometer poses from synthetic excitation streams."""
    cfg = load_config(config_path)
    if seed is not None:
        cfg["seed"] = seed
    out = _out_dir(cfg, out_dir)
    model, model_path = load_model_from_config(cfg, model_override)
    traj = trajectory_from_config(model, cfg)
    calib_cfg = cfg.get("calibration", {})
    noise_std = calib_cfg.get("accelerometer_noise_std", 0.0)
    seed = cfg.get("seed", 0)

    results = {}
    accelerometers = model.sensors_of_kind("accelerometer")
    for s_idx, sensor in enumerate(accelerometers):
        if model.link_index[sensor.parent_link] == 0:
            results[sensor.name] = {"ok": False, "error": "sensor sits on the fixed base"}
            continue
        streams = synthesize_sensor_streams(
            model, traj, sensor, noise_std=noise_std, rng=np.random.default_rng(seed + s_idx)
        )
        try:
            est = estimate_sensor_pose(*streams)
        except ExcitationError as exc:
            results[sensor.name] = {"ok": False, "error": str(exc)}
            continue
        results[sensor.name] = {
            "ok": True,
            "link": sensor.parent_link,
            "position": [float(v) for v in est.position],
            "rpy": [float(v) for v in est.rpy],
            "samples": est.samples,
            "residual": est.residual,
        }

    calib_path = out / "sensor_poses.json"
    with open(calib_path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)

    outputs = [calib_path]
    if patch_model:
        patched = _patch_model_sensors(model, results)
        patched_path = out / "model_calibrated.xml"
        patched_path.write_text(patched)
        outputs.append(patched_path)
    manifest = write_manifest(out, "sensor-pose", cfg, seed, inputs=[model_path], outputs=outputs)
    ok = sum(1 for r in results.values() if r["ok"])
    click.echo(f"calibrated {ok}/{len(results)} sensors -> {calib_path} (manifest {manifest.name})")


def _patch_model_sensors(model, results):
    from mapdyn.model import emit_model
    from mapdyn.model.tree import KinematicTreeModel, SensorAttachment
    from mapdyn.spatial import rpy_to_matrix

    new_sensors = []
    for s in model.sensors:
        entry = results.get(s.name.replace("_gyro", "_accelerometer"))
        if entry and entry.get("ok"):
            pose = HomTransform(rpy_to_matrix(*entry["rpy"]), np.array(entry["position"]))
            new_sensors.append(SensorAttachment(s.name, s.kind, s.parent_link, pose))
        else:
            new_sensors.append(s)
    patched = KinematicTreeModel(model.name, list(model.links), list(model.joints), new_sensors, base=model.base.name)
    return emit_model(patched)


def _out_dir(cfg, override) -> Path:
    out = Path(override or cfg.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def main(argv=None):
    """Entry point mapping failures to the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    except (InputError, ModelError, TemplateError, FileNotFoundError) as exc:
        click.echo(f"input error: {exc}", err=True)
        return EXIT_INPUT
    except (RankDeficiencyError, EstimatorError, np.linalg.LinAlgError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
