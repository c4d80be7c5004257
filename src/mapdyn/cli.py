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
import os
import sys
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from pathlib import Path

import click
import numpy as np

import mapdyn
from mapdyn.blas import blas_threads, bundled_openblas, set_blas_threads
from mapdyn.dynamics import SAMPLE_CHUNK, DynLayout, sample_chunks
from mapdyn.model.kinematics import check_joint_angles
from mapdyn.estimator import UNOBSERVED_TOL, EstimatorError, MapEstimator, RankDeficiencyError
from mapdyn.floatrepr import csv_lines
from mapdyn.model import (
    ModelError,
    generate_human_template,
    ik_frame_match,
    parse_model,
)
from mapdyn.model.template import load_body_tables
from mapdyn.sensors import (
    ExcitationError,
    MeasurementAssembler,
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
    link_motion,
    sample_trajectory,
    synthesize_sensor_streams,
    waveform_from_config,
)
from mapdyn.spatial import HomTransform

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


def _read(path, what, parse=None):
    """``parse`` of the opened file, else its text; a missing or unreadable file is an InputError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh) if parse else fh.read()
    except FileNotFoundError as exc:
        raise InputError(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # bad JSON, or bytes that are not text
        raise InputError(f"{what} {path} is not valid {'JSON' if parse is json.load else 'text'}: {exc}") from exc


def load_config(path) -> dict:
    """The config file's JSON object, as read; an unreadable file, bad JSON or another top level is an InputError."""
    cfg = _read(path, "config file", json.load)
    if not isinstance(cfg, dict):
        raise InputError(f"config {path} must hold a JSON object, got {type(cfg).__name__}")
    return cfg


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
    with open(path, "w", encoding="utf-8") as fh:
        # strict JSON: a NaN or an infinity here is a bug, not a value
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
    return path


def write_csv(path, header, rows):
    """Header through ``csv.writer``; the numeric rows through ``floatrepr.csv_lines``, the bytes of ``repr``.

    The rows go in blocks of SAMPLE_CHUNK, so that a long series is never
    held as one string. Every output time series (``simulate``'s files, the
    link poses) goes through here; ``estimate``'s workers format their
    samples through ``csv_lines`` themselves.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for block in sample_chunks(len(rows)):
            fh.write(csv_lines(rows[block]))


def read_csv(path):
    """Header through ``csv``; the numeric rows through ``np.loadtxt``.

    When ``np.loadtxt`` fails, or its array does not have one row per line
    and one column per header cell (it skips blank lines), the rows are
    parsed one by one as ``csv`` reads them, so that the error names the
    file and the line.
    """
    first, lines = _read(path, "input CSV", lambda fh: (fh.readline(), fh.readlines()))
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


def read_series(path, columns, finite=True, exact=False):
    """The ``time`` column and the ``columns`` (a (T, len(columns)) array) of the CSV at ``path``, found by name.

    A column that is missing or named twice is an InputError naming the file
    and the column; with ``exact``, so is a column besides ``time`` and
    ``columns``. So is a cell of magnitude above MAX_NUMBER, named by line
    and column, and a non-finite one: in ``time`` always, in ``columns``
    with ``finite`` (a reading may be missing, a state may not).
    """
    header, data = read_csv(path)
    names = ["time", *columns]
    index = {name: i for i, name in enumerate(header)}  # a name's last column
    twice = [name for i, name in enumerate(header) if index[name] != i]
    missing = [name for name in names if name not in index]
    extra = sorted(index.keys() - set(names), key=index.get) if exact else []
    for found, what in ((twice, "column {!r} appears twice"), (missing, "no column {!r}"),
                        (extra, "unexpected column {!r}")):
        if found:
            raise InputError(f"{path}: {what.format(found[0])}")
    values = data[:, [index[name] for name in names]]
    # a NaN fails the comparison: this finds the non-finite cells too
    bad = ~(np.abs(values) <= MAX_NUMBER)
    if not finite:
        bad[:, 1:] &= np.isfinite(values[:, 1:])
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise InputError(f"{path}, line {row + 2}, column {names[col]!r}: {float(values[row, col])!r} is not a finite "
                         f"number (at most {MAX_NUMBER:g} in magnitude)")
    return values[:, 0], values[:, 1:]


# ---------------------------------------------------------------------------
# the config table: every key of the config file, its type, range and default
#
# One file may serve every command (README's end-to-end run feeds one to
# all five), so a key that no block declares is an error in every command.
# Paths are checked for their type only: each file is checked where it is
# opened, since an earlier command may write it.

_REQUIRED = object()  # the default of a key that must be given

# the kinds of entries of the table, walked by `_walk`:
# a value that `ok` accepts, described as `what`; with a `noun`, a list of names of the model's nouns
Leaf = namedtuple("Leaf", "ok what noun", defaults=[None])
# a JSON object of `keys`, `name: (spec, default)` (a key whose default is null may be null); `rule` is a
# test of the walked block and its error
Block = namedtuple("Block", "keys rule", defaults=[None])
# a JSON object whose `kind` (default `default`) picks the block of its other keys
Kinds = namedtuple("Kinds", "blocks default")
# a JSON list of `spec` values, as many as `counts` holds, described as `what`
ListOf = namedtuple("ListOf", "spec what counts")
# a JSON object of `spec` values under any `label`, and the `fixed` keys, `name: default`; with a `noun`,
# the other keys name the model's nouns
MapOf = namedtuple("MapOf", "spec label noun fixed", defaults=[None, {}])


def _join(path, key):
    return f"{path}.{key}" if path else key


def _walk(spec, value, path, names):
    """``value`` checked against ``spec``, with the defaults filled in; appends the model names to ``names``.

    Each entry of ``names`` is a path, the names there and their noun.
    """
    if isinstance(spec, Leaf):
        if not spec.ok(value):
            raise InputError(f"{path if spec.noun else repr(path)} must be {spec.what}, got {value!r}")
        if spec.noun:
            names.append((path, value, spec.noun))
        return value
    if isinstance(spec, ListOf):
        if not isinstance(value, list) or len(value) not in spec.counts:
            raise InputError(f"'{path}' must be {spec.what}, got {value!r}")
        return [_walk(spec.spec, item, f"{path}[{i}]", names) for i, item in enumerate(value)]
    if not isinstance(value, dict):
        raise InputError(f"'{path}' must be a JSON object, got {value!r}")
    if isinstance(spec, MapOf):
        if spec.noun:
            names.append((f"{path} keys", [key for key in value if key not in spec.fixed], spec.noun))
        return {key: _walk(spec.spec, item, _join(path, key), names) for key, item in {**spec.fixed, **value}.items()}
    if isinstance(spec, Kinds):
        kind = value.get("kind", spec.default)
        if not isinstance(kind, str) or kind not in spec.blocks:
            raise InputError(f"'{_join(path, 'kind')}' must be one of {', '.join(spec.blocks)}, got {kind!r}")
        fields = {key: item for key, item in value.items() if key != "kind"}
        for key in fields:
            if key not in spec.blocks[kind].keys:
                raise InputError(f"'{_join(path, key)}' is not a key of kind {kind!r} ('{_join(path, 'kind')}')")
        return {"kind": kind, **_walk(spec.blocks[kind], fields, path, names)}
    for key in value:
        if key not in spec.keys:
            raise InputError(f"'{_join(path, key)}' is not a config key")
    checked = {}
    for key, (item_spec, default) in spec.keys.items():
        item = value.get(key, default)
        if item is _REQUIRED:
            raise InputError(f"'{_join(path, key)}' is required")
        checked[key] = None if item is None is default else _walk(item_spec, item, _join(path, key), names)
    if spec.rule and not spec.rule[0](checked):
        raise InputError(spec.rule[1].format(path=path, **checked))
    return checked


def _integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


# the largest magnitude of a config number: products of larger ones could overflow
MAX_NUMBER = 1e12


def _number(value):
    """A JSON number (not a bool) of magnitude at most MAX_NUMBER: not NaN, not infinite."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= MAX_NUMBER


def _knots(value):
    pairs = isinstance(value, list) and len(value) >= 2 and all(
        isinstance(knot, list) and len(knot) == 2 and all(map(_number, knot)) for knot in value)
    return pairs and all(a[0] < b[0] for a, b in zip(value, value[1:]))


@cache
def _template_links():
    return {spec["name"] for spec in load_body_tables()["links"]}


FINITE = Leaf(_number, f"a finite number (at most {MAX_NUMBER:g} in magnitude)")
POSITIVE = Leaf(lambda v: _number(v) and v > 0, f"a positive finite number (at most {MAX_NUMBER:g})")
NON_NEGATIVE = Leaf(lambda v: _number(v) and v >= 0, f"a non-negative finite number (at most {MAX_NUMBER:g})")
POSITIVE_INT = Leaf(lambda v: _integer(v) and v > 0, "a positive integer")
PATH = Leaf(lambda v: isinstance(v, str) and v != "", "a path (a non-empty string)")
TRIPLE = Leaf(lambda v: isinstance(v, list) and len(v) == 3 and all(map(_number, v)), "a list of three finite numbers")
# the smallest variance of a sensor channel or of the constraints: a 48-DoF posterior fails to factorize with a
# wrench or ddq variance of 1e-15
MIN_VARIANCE = 1e-12
VARIANCE = Leaf(lambda v: _number(v) and v >= MIN_VARIANCE,
                f"a positive finite number from {MIN_VARIANCE:g} to {MAX_NUMBER:g}")
MAX_SAMPLES = 10**7  # of a scenario: over a day at 100 Hz
MAX_PLATE_OFFSET = 1e3  # m, per coordinate: a 48-DoF posterior fails to factorize with the plate 1e6 m off

WAVEFORM = Kinds({
    "constant": Block({"value": (FINITE, 0.0)}),
    "sine": Block({"amplitude": (FINITE, _REQUIRED), "frequency": (FINITE, _REQUIRED), "phase": (FINITE, 0.0),
                   "offset": (FINITE, 0.0)}),
    "spline": Block({"knots": (Leaf(
        _knots, "a list of at least two [time, value] pairs of finite numbers, the times increasing"), _REQUIRED)}),
}, default="constant")
LANDMARKS = MapOf(TRIPLE, "landmark")
SENSORS = Block({
    "include_imus": (Leaf(lambda v: isinstance(v, bool), "true or false"), True),
    "imu_variance": (VARIANCE, 1e-3),
    "ddq_variance": (VARIANCE, 1e-3),
    "wrench_variance": (VARIANCE, 1e-6),
    "contact_wrench_variance": (VARIANCE, 1e-3),
    "base_wrench_variance": (VARIANCE, 1e-3),
    "contact_links": (Leaf(lambda v: isinstance(v, list) and all(isinstance(name, str) for name in v),
                           "a list of link names", "link"), []),
    "fixed_base_pose": (Block({"xyz": (Leaf(lambda v: TRIPLE.ok(v) and all(abs(x) <= MAX_PLATE_OFFSET for x in v),
                                            f"a list of three numbers of magnitude at most {MAX_PLATE_OFFSET:g}"),
                                       [0, 0, 0]), "rpy": (TRIPLE, [0, 0, 0])}), None),
})
CONFIG = Block({
    "model": (PATH, None),
    "out": (PATH, "."),
    "seed": (Leaf(lambda v: v is None or _integer(v) and v >= 0, "a non-negative integer or null"), 0),
    "root_link": (Leaf(lambda v: isinstance(v, str) and v in _template_links(), "a link of the template"), "Pelvis"),
    "workers": (POSITIVE_INT, None),
    "marginals": (Leaf(lambda v: v in ("tau", "tau_ddq", "all"), "one of tau, tau_ddq, all"), "tau"),
    "subject": (Block(
        {"mass_total": (POSITIVE, _REQUIRED), "landmarks": (LANDMARKS, None), "landmarks_file": (PATH, None)},
        (lambda s: s["landmarks"] is not None or s["landmarks_file"] is not None,
         "'{path}.landmarks' or '{path}.landmarks_file' is required")), None),
    "scenario": (Block({
        "duration": (POSITIVE, _REQUIRED),
        "rate": (POSITIVE, _REQUIRED),
        "trajectory": (MapOf(WAVEFORM, "joint", "joint", {"default": {"kind": "constant", "value": 0.0}}), {}),
        "external_forces": (MapOf(ListOf(WAVEFORM, "a list of at most six waveforms", range(7)), "link",
                                  "moving link"), {}),
    }, (lambda s: s["duration"] * s["rate"] <= MAX_SAMPLES and round(s["duration"] * s["rate"]) >= 1,
        f"'{{path}}.duration' times '{{path}}.rate' must give 1 to {MAX_SAMPLES} samples, got {{duration}} "
        "and {rate}")), None),
    "sensors": (SENSORS, {}),
    "covariances": (Block({"sigma_D": (VARIANCE, 1e-4), "sigma_d": (POSITIVE, 1e4), "mu_d": (FINITE, 0.0)}), {}),
    "sg": (Block({"window": (POSITIVE_INT, 57), "order": (POSITIVE_INT, 3)}, (
        lambda sg: sg["window"] % 2 == 1 and sg["window"] > sg["order"],
        "'{path}.window' must be odd and larger than '{path}.order' ({order}), got {window}")), {}),
    "inputs": (Block(
        {"observations": (PATH, _REQUIRED), "state": (PATH, None), "link_poses": (PATH, None)},
        (lambda i: i["state"] is not None or i["link_poses"] is not None,
         "'{path}.state' or '{path}.link_poses' is required")), None),
    "calibration": (Block({"accelerometer_noise_std": (NON_NEGATIVE, 0.0)}), {}),
    "fusion": (Block({
        "cases": (ListOf(Block({"name": (Leaf(lambda v: isinstance(v, str), "a string"), _REQUIRED),
                                "sensors": (SENSORS, {})}),
                         "a list of at least two cases", range(2, sys.maxsize)), _REQUIRED),
        "max_states": (POSITIVE_INT, 10),
    }), None),
})
# the top-level keys each command needs, null when not given
NEEDS = {"model-gen": ("subject",), "simulate": ("model", "scenario"), "estimate": ("model", "inputs"),
         "fusion": ("model", "scenario", "fusion"), "sensor-pose": ("model", "scenario")}


def check_config(cfg) -> dict:
    """``cfg`` walked through the table, in a new dict: every key checked and every default filled in.

    An unknown key, a missing one or a value outside its range is an
    InputError naming its key path.
    """
    return _walk(CONFIG, cfg, "", [])


def start_run(command, path, seed=None, model=None, out=None):
    """The config as read (the manifest hashes it), its checked copy and the output directory, made.

    ``seed`` overrides the config's in both; ``model`` and ``out``, in the checked copy.
    """
    cfg = load_config(path)
    if seed is not None:
        cfg["seed"] = seed
    checked = check_config({**cfg, **{key: value for key, value in (("model", model), ("out", out)) if value}})
    for key in NEEDS[command]:
        if checked[key] is None:
            raise InputError(f"'{key}' is required by {command}")
    try:
        Path(checked["out"]).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {checked['out']}: {exc.strerror or exc}") from exc
    return cfg, checked, Path(checked["out"])


def load_model_from_config(cfg) -> tuple:
    """The model the checked ``cfg`` names, and its path; an InputError at the first name of ``cfg`` it lacks."""
    try:
        model = parse_model(_read(cfg["model"], "model file"))
    except ModelError as exc:
        raise InputError(f"model file {cfg['model']}: {exc}") from exc
    known = {"link": set(model.link_index), "moving link": {link.name for link in model.links[1:]},
             "joint": set(model.joint_index)}
    names = []
    _walk(CONFIG, cfg, "", names)
    for path, given, noun in names:
        unknown = sorted(set(given) - known[noun])
        if unknown:
            raise InputError(f"{path} name {noun}s the model lacks: {', '.join(map(repr, unknown))}")
    return model, Path(cfg["model"])


def sensor_specs_from_config(model, cfg) -> list:
    """The validated sensor specs of the checked ``sensors`` block of ``cfg`` (a config or a fusion case)."""
    sensors = cfg["sensors"]
    pose = sensors["fixed_base_pose"]
    return validate_specs(model, default_sensor_specs(
        model, include_imus=sensors["include_imus"], contact_links=sensors["contact_links"],
        fp_pose=None if pose is None else HomTransform.from_rpy(pose["xyz"], pose["rpy"]),
        **{key: sensors[key] for key in SENSORS.keys if key.endswith("_variance")},
    ))


def trajectory_from_config(model, cfg) -> TrajectorySpec:
    scenario = cfg["scenario"]
    trajectory = scenario["trajectory"]
    waveforms = [waveform_from_config(trajectory.get(joint.name, trajectory["default"])) for joint in model.joints]
    return TrajectorySpec(waveforms, scenario["duration"], scenario["rate"])


def scenario_from_config(model, cfg) -> SyntheticScenario:
    forces = {link: [waveform_from_config(c) for c in channels]
              for link, channels in cfg["scenario"]["external_forces"].items()}
    return SyntheticScenario(model, trajectory_from_config(model, cfg), sensor_specs_from_config(model, cfg),
                             external_forces=forces, seed=cfg["seed"])


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
    cfg, checked, out = start_run("model-gen", config_path, out=out_dir)
    subject = checked["subject"]
    landmarks = subject["landmarks"]
    if subject["landmarks_file"] is not None:
        landmarks_doc = _read(subject["landmarks_file"], "landmarks file", json.load)
        if not isinstance(landmarks_doc, dict) or "landmarks" not in landmarks_doc:
            raise InputError(f"landmarks file {subject['landmarks_file']} must hold a JSON object with 'landmarks'")
        landmarks = _walk(LANDMARKS, landmarks_doc["landmarks"], f"{subject['landmarks_file']}: landmarks", [])
    xml = generate_human_template({"mass_total": subject["mass_total"], "landmarks": landmarks},
                                  root=checked["root_link"])
    model = parse_model(xml)
    model_path = out / "model.xml"
    model_path.write_text(xml, encoding="utf-8")
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
    cfg, checked, out = start_run("simulate", config_path, seed, model_override, out_dir)
    model, model_path = load_model_from_config(checked)
    scenario = scenario_from_config(model, checked)
    truth = generate_ground_truth(scenario)
    obs = generate_observations(scenario, truth)

    traj_path = out / "trajectory.csv"
    write_csv(traj_path, ["time"] + joint_columns(model, "q", "qd", "qdd"),
              np.column_stack([truth.times, truth.q, truth.qd, truth.qdd]))

    obs_path = out / "observations.csv"
    names = MeasurementAssembler(model, scenario.sensor_specs).names
    write_csv(obs_path, ["time"] + names, np.column_stack([truth.times, obs]))

    layout = DynLayout(model)
    gt_path = out / "ground_truth.csv"
    gt_header = ["time"] + joint_columns(model, "q", "qd") + layout.column_names()
    write_csv(gt_path, gt_header, np.column_stack([truth.times, truth.q, truth.qd, truth.d]))

    poses_path = out / "link_poses.csv"
    _write_link_poses(poses_path, model, truth)

    manifest = write_manifest(
        out, "simulate", cfg, checked["seed"], inputs=[model_path],
        outputs=[traj_path, obs_path, gt_path, poses_path],
    )
    click.echo(f"simulated {truth.times.size} samples -> {out} (manifest {manifest.name})")


def joint_columns(model, *quantities):
    """The columns of per-joint ``quantities`` (``q``, ``qd``, ``qdd``) in ``trajectory.csv``, quantity by quantity."""
    return [f"{quantity}_{joint.name}" for quantity in quantities for joint in model.joints]


def pose_columns(model):
    """The columns of ``link_poses.csv``: each real (not dummy) link's origin and roll-pitch-yaw, in link order."""
    return [f"{link.name}_{c}" for link in model.links if not link.is_dummy
            for c in ("x", "y", "z", "roll", "pitch", "yaw")]


def _write_link_poses(path, model, truth):
    real = [i for i, link in enumerate(model.links) if not link.is_dummy]
    write_csv(path, ["time"] + pose_columns(model),
              np.column_stack([truth.times, truth.link_poses[:, real].reshape(truth.times.size, -1)]))


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
    _estimator = MapEstimator(model, specs, marginals=marginal_idx, **covariances)


def _marginal_indices(layout, mode):
    if mode == "all":
        return np.arange(layout.size)
    if mode == "tau_ddq":
        return np.concatenate([layout.tau_indices(), layout.ddq_indices()])
    return layout.tau_indices()


def _estimate_chunk(args):
    """One chunk of samples, estimated and formatted where it runs.

    Returns the chunk's lines of ``estimates.csv`` and ``marginal_std.csv``,
    time column first, formatted by ``csv_lines``: a pool's workers format
    their own samples, and the parent only writes the text. The serial
    path runs this same function in-process. Also returns the posterior's
    per-sample unobserved dimensions and pivot ratios, and the BLAS thread
    counts read back.
    """
    times, q_rows, qd_rows, y_rows = args
    posterior = _estimator.estimate(q_rows, qd_rows, y_rows)
    # the output rows with the time in column 0, formatted as they stand
    means = np.column_stack([times, posterior.mean])
    stds = np.column_stack([times, np.sqrt(posterior.variances)])
    return csv_lines(means), csv_lines(stds), posterior.unobserved, posterior.pivot_ratio, blas_threads()


@cli.command("estimate")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--model", "model_override", default=None, type=click.Path())
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--workers", default=None, type=click.IntRange(min=1), help="worker processes (default: cores)")
def cmd_estimate(config_path, model_override, out_dir, workers):
    """MAP estimation over an observation series (state CSV or IK from poses)."""
    cfg, checked, out = start_run("estimate", config_path, model=model_override, out=out_dir)
    model, model_path = load_model_from_config(checked)
    specs = sensor_specs_from_config(model, checked)
    layout = DynLayout(model)

    inputs = checked["inputs"]
    # the configured channels, in any order; a non-finite reading is missing: the estimator gives it zero weight
    channels = MeasurementAssembler(model, specs).names
    times, y_series = read_series(inputs["observations"], channels, finite=False, exact=True)
    missing = int(np.count_nonzero(~np.isfinite(y_series)))

    from_poses = inputs["state"] is None
    state_path = inputs["link_poses"] if from_poses else inputs["state"]
    # a state has no variance: unlike a reading, a non-finite one cannot be missing
    state_times, state = read_series(state_path, pose_columns(model) if from_poses else joint_columns(model, "q", "qd"))
    # checked before the IK runs
    _check_state_times(state_path, state_times, inputs["observations"], times, checked["sg"] if from_poses else None)
    if from_poses:
        q_series, qd_series, ik_unconverged = _state_from_poses(model, checked["sg"], state_times, state)
    else:
        (q_series, qd_series), ik_unconverged = np.hsplit(state, 2), []
    input_files = [model_path, Path(inputs["observations"]), Path(state_path)]

    marg_idx = _marginal_indices(layout, checked["marginals"])
    n_workers = workers or checked["workers"] or (os.cpu_count() or 1)
    chunks = _make_chunks(times, q_series, qd_series, y_series, n_workers)
    # a fork pool starts all its workers at the first task: one per chunk at most
    n_workers = min(n_workers, len(chunks))

    t_start = time.perf_counter()
    # the pool's parent builds no estimator: each worker builds its own
    init_args = (model, specs, checked["covariances"], marg_idx)
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

    # the chunks come back in sample order: each column below spans the series
    est_lines, std_lines, unobserved, pivot_ratio, threads = zip(*results)
    unobserved = np.concatenate(unobserved)
    # per bundled copy, the most threads any worker read back
    worker_blas = {}
    for counts in threads:
        for name, n in counts.items():
            worker_blas[name] = max(n, worker_blas.get(name, n))

    col_names = layout.column_names()
    est_path = out / "estimates.csv"
    marg_path = out / "marginal_std.csv"
    marg_names = [col_names[i] for i in marg_idx]
    for path, names, lines in ((est_path, col_names, est_lines), (marg_path, marg_names, std_lines)):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(["time"] + names)
            fh.writelines(lines)
    unobserved_samples = np.flatnonzero(unobserved >= UNOBSERVED_TOL)
    # estimation accepts any measured posture; the run reports the samples outside the limits
    limit_samples = int(np.count_nonzero(check_joint_angles(model, q_series)))

    manifest = write_manifest(
        out, "estimate", cfg, cfg.get("seed"), inputs=input_files, outputs=[est_path, marg_path],
        extra={
            "workers": n_workers,
            "worker_blas_threads": worker_blas,
            "missing_readings": missing,
            "joint_limit_samples": limit_samples,
            "ik_unconverged_frames": ik_unconverged,
            "min_pivot_ratio": float(np.concatenate(pivot_ratio).min()),
            "max_unobserved_dimension": float(unobserved.max()),
            "unobserved_samples": unobserved_samples.tolist(),
        },
    )
    per_sample = wall / times.size * 1e3
    blas_note = ", ".join(f"{n} {name.split('/')[0]}" for name, n in worker_blas.items()) or "not capped"
    click.echo(
        f"estimated {times.size} samples in {wall:.2f} s ({per_sample:.1f} ms/sample, "
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
    return list(zip(*(np.array_split(series, n_chunks) for series in (times, q_series, qd_series, y_series))))


# s: the most a state or pose file's time may differ from the observations' at the same line
TIME_TOLERANCE = 1e-6


def _check_state_times(path, times, obs_path, obs_times, sg=None):
    """The ``times`` of the state or pose file at ``path`` against the observations'; an InputError at the first fault.

    A pose file (given the checked ``sg`` block) needs enough samples for
    the smoothing order, and times that increase. Either file must hold the
    observations' sample count, each time within TIME_TOLERANCE of theirs.
    """
    if sg is not None:
        order = sg["order"]
        min_window = order + 1 + order % 2  # the smallest odd window above the order
        if times.size < min_window:
            raise InputError(f"{path}: smoothing order {order} needs at least {min_window} pose samples, "
                             f"got {times.size}")
        late = np.flatnonzero(~(np.diff(times) > 0))
        if late.size:
            raise InputError(f"{path}, line {late[0] + 3}: time {float(times[late[0] + 1])!r} does not increase")
    if times.size != obs_times.size:
        raise InputError(f"{path} holds {times.size} samples, {obs_path} {obs_times.size}")
    off = np.flatnonzero(~(np.abs(times - obs_times) <= TIME_TOLERANCE))
    if off.size:
        row = off[0]
        raise InputError(f"{path}, line {row + 2}, column 'time': {float(times[row])!r} differs from {obs_path}'s "
                         f"{float(obs_times[row])!r} by more than {TIME_TOLERANCE:g} s")


def _state_from_poses(model, sg, times, poses):
    """IK + smoothing differentiation (the checked ``sg`` block) from a per-link world-pose series.

    Each row of ``poses`` holds the ``pose_columns``. Returns q, qd and the
    indices of the frames whose IK did not converge.
    """
    window, order = sg["window"], sg["order"]
    if times.size < window:
        window = times.size - (1 - times.size % 2)  # the largest odd window that fits
        log.warning("short series: smoothing window reduced to %d", window)
    real = [link.name for link in model.links if not link.is_dummy]
    pairs = _real_link_pairs(model)
    q_series = np.zeros((times.size, model.n_dof))
    unconverged = []
    for k, frame in enumerate(poses.reshape(times.size, len(real), 6)):
        world = {name: HomTransform.from_rpy(pose[:3], pose[3:]) for name, pose in zip(real, frame)}
        targets = {(parent, child): world[parent].inverse() @ world[child] for parent, child in pairs}
        # each frame starts from the one before
        result = ik_frame_match(model, targets, q_init=q_series[k - 1] if k else None)
        q_series[k] = result.q
        if not result.converged:
            unconverged.append(k)

    dt = float(np.median(np.diff(times)))
    qd_series, _ = savitzky_golay_derivatives(q_series, dt, window=window, order=order)
    return q_series, qd_series, unconverged


def _real_link_pairs(model):
    pairs = []
    for i in range(1, model.n_moving + 1):
        k = model.parent[i]
        while k != 0 and model.links[k].is_dummy:
            k = model.parent[k]
        if not model.links[i].is_dummy:
            pairs.append((model.links[k].name, model.links[i].name))
    return pairs


@cli.command("fusion")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--model", "model_override", default=None, type=click.Path())
@click.option("--out", "out_dir", default=None, type=click.Path())
def cmd_fusion(config_path, model_override, out_dir):
    """Per-joint torque variance for each measurement case."""
    cfg, checked, out = start_run("fusion", config_path, model=model_override, out=out_dir)
    model, model_path = load_model_from_config(checked)
    fusion_cfg = checked["fusion"]

    _, q_series, qd_series, _ = sample_trajectory(model, trajectory_from_config(model, checked))
    # evenly spaced, and at most max_states of them
    stride = -(-q_series.shape[0] // fusion_cfg["max_states"])
    q_states, qd_states = q_series[::stride], qd_series[::stride]

    tau_idx = DynLayout(model).tau_indices()
    names = [case["name"] for case in fusion_cfg["cases"]]
    # one estimator per case: each case has its own layout and variances
    cases = [MapEstimator(model, sensor_specs_from_config(model, case), marginals=tau_idx, **checked["covariances"])
             for case in fusion_cfg["cases"]]
    # adding channels or tightening them can only shrink a variance; other
    # changes can grow it
    channels = [dict(zip(case.measurements.names, case.measurements.variances)) for case in cases]
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
        q, qd = q_states[chunk], qd_states[chunk]
        for ci, case in enumerate(cases):
            # the variances do not depend on the readings
            for variances in case.estimate(q, qd, np.zeros((len(q), case.measurements.dim))).variances:
                per_case[ci] += variances
    per_case /= len(q_states)

    table_path = out / "fusion_variances.csv"
    with open(table_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["joint"] + names + ["monotonic_non_increasing"])
        for joint, variances, cells in zip(model.joints, per_case.T, csv_lines(per_case.T).splitlines()):
            verdict = bool(np.all(np.diff(variances) <= 1e-12))
            writer.writerow([joint.name] + cells.split(",") + [str(verdict)])
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
    cfg, checked, out = start_run("sensor-pose", config_path, seed, model_override, out_dir)
    model, model_path = load_model_from_config(checked)
    motion = link_motion(model, trajectory_from_config(model, checked))
    noise_std = checked["calibration"]["accelerometer_noise_std"]
    seed = checked["seed"]

    results = {}
    accelerometers = model.sensors_of_kind("accelerometer")
    for s_idx, sensor in enumerate(accelerometers):
        if model.link_index[sensor.parent_link] == 0:
            results[sensor.name] = {"ok": False, "error": "sensor sits on the fixed base"}
            continue
        rng = None if seed is None else np.random.default_rng(seed + s_idx)
        streams = synthesize_sensor_streams(model, motion, sensor, noise_std=noise_std, rng=rng)
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
    with open(calib_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)

    outputs = [calib_path]
    if patch_model:
        patched = _patch_model_sensors(model, results)
        patched_path = out / "model_calibrated.xml"
        patched_path.write_text(patched, encoding="utf-8")
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
    except (InputError, ModelError, FileNotFoundError) as exc:
        click.echo(f"input error: {exc}", err=True)
        return EXIT_INPUT
    except (RankDeficiencyError, EstimatorError, np.linalg.LinAlgError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
