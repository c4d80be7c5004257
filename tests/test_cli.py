import copy
import csv
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

from mapdyn.cli import main
from mapdyn.model import parse_model

from conftest import TWO_LINK_XML, child_env
from oracles import repr_csv_lines, split_system


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def count_sweeps(monkeypatch, chunk):
    """The joint angles of every kinematic sweep from here on, one (T, n_dof) array per call, in chunks of ``chunk``."""
    import mapdyn.dynamics
    import mapdyn.sensors
    import mapdyn.simharness

    calls = []
    sweep = mapdyn.dynamics.kinematic_sweep

    def counting_sweep(model, q, qd):
        calls.append(np.atleast_2d(q))
        return sweep(model, q, qd)

    for module in (mapdyn.dynamics, mapdyn.sensors, mapdyn.simharness):
        monkeypatch.setattr(module, "kinematic_sweep", counting_sweep)
    monkeypatch.setattr(mapdyn.dynamics, "SAMPLE_CHUNK", chunk)
    return calls


@pytest.fixture
def two_link_setup(tmp_path):
    """Model file + simulate config for the 2-link fixture."""
    model_path = tmp_path / "model.xml"
    model_path.write_text(TWO_LINK_XML)
    cfg = {
        "model": str(model_path),
        "out": str(tmp_path / "sim"),
        "seed": 3,
        "scenario": {
            "duration": 0.5,
            "rate": 60.0,
            "trajectory": {"default": {"kind": "sine", "amplitude": 0.3, "frequency": 0.7}},
        },
        "sensors": {"contact_links": ["link2"]},
    }
    return tmp_path, cfg


class TestLogging:
    def test_env_var_sets_level(self, monkeypatch):
        import logging

        from mapdyn.cli import _setup_logging

        monkeypatch.setenv("MAPDYN_LOG", "DEBUG")
        root = logging.getLogger()
        old = root.level
        try:
            root.handlers.clear()
            _setup_logging()
            assert root.level == logging.DEBUG
        finally:
            root.setLevel(old)


class TestModelGen:
    def test_generates_template(self, tmp_path, capsys):
        from mapdyn.model.template import example_landmarks

        landmarks_path = tmp_path / "landmarks.json"
        landmarks_path.write_text(
            json.dumps({"landmarks": {k: list(v) for k, v in example_landmarks().items()}})
        )
        cfg = {
            "subject": {"mass_total": 75.9, "landmarks_file": str(landmarks_path)},
            "out": str(tmp_path / "gen"),
        }
        rc = main(["model-gen", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "48 DoF" in out
        xml = (tmp_path / "gen" / "model.xml").read_text()
        assert '<mass value="6.072"/>' in xml
        model = parse_model(xml)
        assert model.n_dof == 48
        assert (tmp_path / "gen" / "manifest.json").exists()

    def test_missing_landmark_file_exits_2(self, tmp_path):
        cfg = {
            "subject": {"mass_total": 75.9, "landmarks_file": str(tmp_path / "nope.json")},
            "out": str(tmp_path / "gen"),
        }
        rc = main(["model-gen", "--config", write_config(tmp_path, cfg)])
        assert rc == 2

    def test_missing_landmark_names_link(self, tmp_path, capsys):
        from mapdyn.model.template import example_landmarks

        landmarks = {k: list(v) for k, v in example_landmarks().items()}
        del landmarks["jLeftElbow"]
        cfg = {
            "subject": {"mass_total": 60.0, "landmarks": landmarks},
            "out": str(tmp_path / "gen"),
        }
        rc = main(["model-gen", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "jLeftElbow" in capsys.readouterr().err

    def test_usage_error_exits_1(self):
        assert main(["model-gen"]) == 1

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("subject.landmarks_file", 7, "'subject.landmarks_file' must be a path"),
            ("subject.landmarks_file", ".", "cannot read landmarks file .: Is a directory"),
            ("subject.mass_total", "x", "'subject.mass_total' must be a positive finite number"),
            ("subject.height", 1.8, "'subject.height' is not a config key"),
            ("root_link", "Nope", "'root_link' must be a link of the template, got 'Nope'"),
            ("out", str(Path(__file__)), f"cannot create output directory {Path(__file__)}: File exists"),
        ],
    )
    def test_bad_config_value_exits_2(self, tmp_path, capsys, key, value, message):
        cfg = {"subject": {"mass_total": 60.0, "landmarks_file": str(tmp_path / "lm.json")}, "out": str(tmp_path)}
        block, _, name = key.rpartition(".")
        (cfg[block] if block else cfg)[name] = value
        assert main(["model-gen", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestSimulate:
    def test_outputs_and_sample_count(self, two_link_setup):
        tmp_path, cfg = two_link_setup
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        header, rows = read_rows(tmp_path / "sim" / "trajectory.csv")
        assert len(rows) == 30  # duration * rate
        assert header[0] == "time"

    def test_ground_truth_column_count(self, two_link_setup):
        tmp_path, cfg = two_link_setup
        main(["simulate", "--config", write_config(tmp_path, cfg)])
        header, _ = read_rows(tmp_path / "sim" / "ground_truth.csv")
        n_moving, n = 2, 2
        assert len(header) == 1 + 2 * n + 24 * n_moving + 2 * n

    def test_rerun_same_seed_byte_identical(self, two_link_setup):
        tmp_path, cfg = two_link_setup
        config_path = write_config(tmp_path, cfg)
        main(["simulate", "--config", config_path])
        first = (tmp_path / "sim" / "observations.csv").read_bytes()
        main(["simulate", "--config", config_path])
        assert (tmp_path / "sim" / "observations.csv").read_bytes() == first

    def test_manifest_reproducibility_fields(self, two_link_setup):
        tmp_path, cfg = two_link_setup
        main(["simulate", "--config", write_config(tmp_path, cfg)])
        manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert "config_sha256" in manifest
        assert "mapdyn" in manifest["versions"]
        assert any(k.endswith("model.xml") for k in manifest["inputs"])

    def test_trajectory_outside_the_joint_limits_exits_2_naming_key_and_joints(self, two_link_setup, capsys):
        tmp_path, cfg = two_link_setup
        cfg["scenario"]["trajectory"]["joint2"] = {"kind": "constant", "value": 3.0}
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "scenario.trajectory" in err and "'joint2'" in err and "'joint1'" not in err
        assert not (tmp_path / "sim" / "trajectory.csv").exists()

    def test_one_kinematic_sweep_per_chunk(self, two_link_setup, monkeypatch):
        """Each chunk of SAMPLE_CHUNK samples is swept once, for its dynamics, readings and link poses alike."""
        tmp_path, cfg = two_link_setup
        calls = count_sweeps(monkeypatch, chunk=8)
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        assert [len(q) for q in calls] == [8, 8, 8, 6]
        _, traj = read_rows(tmp_path / "sim" / "trajectory.csv")
        np.testing.assert_array_equal(np.concatenate(calls), np.array(traj, dtype=float)[:, 1:3])


@pytest.mark.parametrize("command", ["fusion", "sensor-pose"])
def test_trajectory_outside_the_joint_limits_exits_2_naming_key_and_joints(two_link_setup, capsys, command):
    """fusion and sensor-pose check the trajectory as simulate does, before any output."""
    tmp_path, cfg = two_link_setup
    cfg["scenario"]["trajectory"]["joint2"] = {"kind": "constant", "value": 3.0}
    cfg["out"] = str(tmp_path / command)
    sensors = {"contact_links": ["link2"]}
    cfg["fusion"] = {"cases": [{"name": "case1", "sensors": sensors}, {"name": "case2", "sensors": sensors}]}
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "scenario.trajectory" in err and "'joint2'" in err and "'joint1'" not in err
    assert list((tmp_path / command).iterdir()) == []


class TestEstimate:
    def _simulate_then_estimate(self, tmp_path, cfg, zero_noise=True, state_source="state"):
        sim_cfg = dict(cfg)
        config_path = write_config(tmp_path, sim_cfg, "sim.json")
        assert main(["simulate", "--config", config_path]) == 0
        sim_dir = Path(cfg["out"])
        est_cfg = dict(cfg)
        est_cfg["out"] = str(tmp_path / "est")
        est_cfg["inputs"] = {"observations": str(sim_dir / "observations.csv")}
        if state_source == "state":
            est_cfg["inputs"]["state"] = str(sim_dir / "trajectory.csv")
        else:
            est_cfg["inputs"]["link_poses"] = str(sim_dir / "link_poses.csv")
        if zero_noise:
            est_cfg["covariances"] = {"sigma_D": 1e-10, "sigma_d": 1e8}
            est_cfg["sensors"] = dict(cfg.get("sensors", {}))
            for key in (
                "imu_variance",
                "ddq_variance",
                "wrench_variance",
                "contact_wrench_variance",
                "base_wrench_variance",
            ):
                est_cfg["sensors"][key] = 1e-12
        rc = main(["estimate", "--config", write_config(tmp_path, est_cfg, "est.json"), "--workers", "1"])
        assert rc == 0
        return sim_dir, Path(est_cfg["out"])

    def test_zero_noise_recovery(self, two_link_setup):
        tmp_path, cfg = two_link_setup
        # a null seed disables observation noise entirely
        cfg = dict(cfg)
        cfg["seed"] = None
        sim_dir, est_dir = self._simulate_then_estimate(tmp_path, cfg)
        _, gt_rows = read_rows(sim_dir / "ground_truth.csv")
        est_header, est_rows = read_rows(est_dir / "estimates.csv")
        gt = np.array(gt_rows, dtype=float)[:, 5:]  # skip time, q, qd
        est = np.array(est_rows, dtype=float)[:, 1:]
        assert np.abs(gt - est).max() < 1e-6

    def test_torque_channels_present(self, two_link_setup):
        tmp_path, cfg = two_link_setup
        _, est_dir = self._simulate_then_estimate(tmp_path, cfg)
        est_header, _ = read_rows(est_dir / "estimates.csv")
        assert "tau_joint1" in est_header
        assert "tau_joint2" in est_header
        marg_header, _ = read_rows(est_dir / "marginal_std.csv")
        assert marg_header[1:] == ["tau_joint1", "tau_joint2"]

    def test_ik_pose_path(self, two_link_setup):
        tmp_path, cfg = two_link_setup
        cfg = dict(cfg)
        cfg["scenario"] = dict(cfg["scenario"])
        cfg["scenario"]["duration"] = 1.2
        cfg["scenario"]["rate"] = 60.0
        cfg["sg"] = {"window": 31, "order": 3}
        sim_dir, est_dir = self._simulate_then_estimate(
            tmp_path, cfg, zero_noise=False, state_source="link_poses"
        )
        _, gt_rows = read_rows(sim_dir / "ground_truth.csv")
        _, est_rows = read_rows(est_dir / "estimates.csv")
        gt = np.array(gt_rows, dtype=float)
        est = np.array(est_rows, dtype=float)
        # torque columns: at moderate noise the IK + smoothing path stays
        # close to the direct-state estimate
        names, _ = read_rows(sim_dir / "ground_truth.csv")
        col = names.index("tau_joint1")
        est_col = 1 + names[5:].index("tau_joint1")
        inner = slice(20, -20)
        assert np.abs(gt[inner, col] - est[inner, est_col]).max() < 0.5

    def test_missing_observations_exits_2(self, two_link_setup, tmp_path):
        _, cfg = two_link_setup
        est_cfg = dict(cfg)
        est_cfg["inputs"] = {"observations": str(tmp_path / "missing.csv"), "state": "x"}
        rc = main(["estimate", "--config", write_config(tmp_path, est_cfg, "e.json")])
        assert rc == 2

    def _simulate(self, tmp_path, cfg):
        """Simulate, and return an estimate config over the outputs with the sample count."""
        assert main(["simulate", "--config", write_config(tmp_path, cfg, "sim.json")]) == 0
        sim_dir = Path(cfg["out"])
        est_cfg = dict(cfg)
        est_cfg["out"] = str(tmp_path / "est")
        est_cfg["inputs"] = {
            "observations": str(sim_dir / "observations.csv"),
            "state": str(sim_dir / "trajectory.csv"),
        }
        return write_config(tmp_path, est_cfg, "est.json"), len(read_rows(sim_dir / "trajectory.csv")[1])

    @pytest.mark.parametrize("corrupt", ["non_numeric", "ragged", "header_only"])
    def test_malformed_observation_row_exits_2(self, two_link_setup, capsys, corrupt):
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        obs = Path(cfg["out"]) / "observations.csv"
        lines = obs.read_text().splitlines()
        cells = lines[3].split(",")
        if corrupt == "header_only":
            lines = lines[:1]
        else:
            lines[3] = ",".join(cells[:1] + ["abc"] + cells[2:] if corrupt == "non_numeric" else cells[:-1])
        obs.write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--config", config, "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert (f"no data rows: {obs}" if corrupt == "header_only" else f"{obs}, line 4") in err

    def test_blank_observation_line_exits_2(self, two_link_setup, capsys):
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        obs = Path(cfg["out"]) / "observations.csv"
        lines = obs.read_text().splitlines()
        lines[3] = ""
        obs.write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--config", config, "--workers", "1"]) == 2
        assert f"{obs}, line 4: 0 cells" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value", [("q_joint2", "nan"), ("qd_joint1", "-inf")])
    def test_non_finite_state_exits_2(self, two_link_setup, capsys, column, value):
        """A state has no variance, so unlike a reading a non-finite one cannot be missing."""
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        traj = Path(cfg["out"]) / "trajectory.csv"
        lines = traj.read_text().splitlines()
        cells = lines[4].split(",")
        cells[lines[0].split(",").index(column)] = value
        lines[4] = ",".join(cells)
        traj.write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--config", config, "--workers", "1"]) == 2
        assert f"{traj}, line 5, column {column!r}: {value} is not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "est" / "estimates.csv").exists()

    def test_non_finite_pose_exits_2(self, two_link_setup, capsys):
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        est_cfg = json.loads(Path(config).read_text())
        poses = Path(cfg["out"]) / "link_poses.csv"
        lines = poses.read_text().splitlines()
        column = lines[0].split(",")[-1]
        lines[7] = ",".join(lines[7].split(",")[:-1] + ["nan"])
        poses.write_text("\n".join(lines) + "\n")
        est_cfg["inputs"]["link_poses"] = str(poses)
        del est_cfg["inputs"]["state"]
        assert main(["estimate", "--config", write_config(tmp_path, est_cfg, "poses.json"), "--workers", "1"]) == 2
        assert f"{poses}, line 8, column {column!r}: nan is not a finite number" in capsys.readouterr().err

    def test_manifest_is_strict_json(self, two_link_setup):
        """manifest.json holds no NaN or infinity, also with a missing reading."""
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        obs = Path(cfg["out"]) / "observations.csv"
        lines = obs.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:2] + ["nan"] + lines[3].split(",")[3:])
        obs.write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--config", config, "--workers", "1"]) == 0

        def reject(constant):
            raise ValueError(f"manifest.json holds {constant}")

        manifest = json.loads((tmp_path / "est" / "manifest.json").read_text(), parse_constant=reject)
        assert manifest["missing_readings"] == 1
        assert 0.0 <= manifest["max_unobserved_dimension"] < 0.5
        assert 0.0 < manifest["min_pivot_ratio"] <= 1.0

    def test_too_short_pose_series_exits_2(self, two_link_setup, capsys):
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        est_cfg = json.loads(Path(config).read_text())
        poses = Path(cfg["out"]) / "link_poses.csv"
        poses.write_text("\n".join(poses.read_text().splitlines()[:4]) + "\n")  # header and 3 samples
        est_cfg["inputs"]["link_poses"] = str(poses)
        del est_cfg["inputs"]["state"]
        assert main(["estimate", "--config", write_config(tmp_path, est_cfg, "short.json"), "--workers", "1"]) == 2
        assert "smoothing order 3 needs at least 5 pose samples, got 3" in capsys.readouterr().err

    def test_unconverged_ik_frames_are_reported(self, two_link_setup, capsys):
        """A pose row the chain cannot reach is listed in the manifest and counted on the summary line."""
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        est_cfg = json.loads(Path(config).read_text())
        est_cfg["inputs"]["link_poses"] = str(Path(cfg["out"]) / "link_poses.csv")
        del est_cfg["inputs"]["state"]
        config = write_config(tmp_path, est_cfg, "poses.json")
        assert main(["estimate", "--config", config, "--workers", "1"]) == 0
        assert "0 IK frames unconverged" in capsys.readouterr().out
        assert json.loads((tmp_path / "est" / "manifest.json").read_text())["ik_unconverged_frames"] == []

        poses = Path(est_cfg["inputs"]["link_poses"])
        lines = poses.read_text().splitlines()
        column = lines[0].split(",").index("link2_x")
        cells = lines[6].split(",")
        cells[column] = repr(float(cells[column]) + 1.0)  # link2 moved 1 m off its joint
        lines[6] = ",".join(cells)
        poses.write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--config", config, "--workers", "1"]) == 0
        assert "1 IK frames unconverged" in capsys.readouterr().out
        assert json.loads((tmp_path / "est" / "manifest.json").read_text())["ik_unconverged_frames"] == [5]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_a_usage_error(self, two_link_setup, capsys, workers):
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        assert main(["estimate", "--config", config, "--workers", workers]) == 1
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "est" / "estimates.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("marginals", "al"), ("sg.window", 30), ("sg.order", "x"), ("workers", "two"),
            ("covariances.sigma_D", -1), ("covariances.sigma_D", "a"), ("covariances.sigma_d", float("inf")),
            ("covariances.mu_d", [0, 1]), ("covariances", [1e-4]), ("sensors", "x"),
            ("inputs.state", 7), ("inputs.link_poses", ""), ("inputs.observations", ["a"]), ("model", 7),
            ("out", None),
            # below MIN_VARIANCE
            ("sensors.imu_variance", 1e-13), ("sensors.ddq_variance", 1e-13), ("sensors.wrench_variance", 1e-13),
            ("sensors.contact_wrench_variance", 1e-13), ("sensors.base_wrench_variance", 1e-13),
            ("covariances.sigma_D", 1e-13),
        ],
    )
    def test_bad_config_value_exits_2_with_its_key(self, two_link_setup, capsys, key, value):
        """A config value `estimate` reads but cannot use is an input error naming its key.

        The parent checks it before any worker starts, so one process and a
        pool of two fail alike.
        """
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        est_cfg = json.loads(Path(config).read_text())
        # the pose input, so that the run reads the `sg` block too
        est_cfg["inputs"]["link_poses"] = str(Path(cfg["out"]) / "link_poses.csv")
        del est_cfg["inputs"]["state"]
        block, _, name = key.rpartition(".")
        (est_cfg.setdefault(block, {}) if block else est_cfg)[name] = value
        bad = write_config(tmp_path, est_cfg, "bad.json")
        for workers in ("1", "2"):
            assert main(["estimate", "--config", bad, "--workers", workers]) == 2
            err = capsys.readouterr().err
            assert f"'{key}' must be" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_unknown_contact_link_exits_2_naming_it(self, two_link_setup, capsys, workers):
        """A misspelt contact link would leave every wrench channel at `wrench_variance`: it is an input error."""
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        est_cfg = json.loads(Path(config).read_text())
        est_cfg["sensors"] = {"contact_links": ["link2", "Nope"]}
        assert main(["estimate", "--config", write_config(tmp_path, est_cfg, "bad.json"), "--workers", workers]) == 2
        assert "contact_links name links the model lacks: 'Nope'" in capsys.readouterr().err
        assert not (tmp_path / "est" / "estimates.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("imu_variance", "a"), ("ddq_variance", -1), ("wrench_variance", float("nan")),
            ("base_wrench_variance", True), ("fixed_base_pose", "x"), ("fixed_base_pose.xyz", [0, 0]),
            ("fixed_base_pose.rpy", [0, 0, "a"]), ("include_imus", "no"), ("include_imus", 1),
        ],
    )
    def test_bad_sensors_value_exits_2_with_its_key(self, two_link_setup, capsys, key, value):
        """A bad value in the `sensors` block is an input error naming `sensors.<key>`, in one process or a pool."""
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        est_cfg = json.loads(Path(config).read_text())
        block, _, name = key.rpartition(".")
        sensors = est_cfg.setdefault("sensors", {})
        (sensors.setdefault(block, {}) if block else sensors)[name] = value
        bad = write_config(tmp_path, est_cfg, "bad.json")
        for workers in ("1", "2"):
            assert main(["estimate", "--config", bad, "--workers", workers]) == 2
            err = capsys.readouterr().err
            assert f"'sensors.{key}' must be" in err
            assert "Traceback" not in err
        assert not (tmp_path / "est" / "estimates.csv").exists()

    def test_config_that_is_not_an_object_exits_2(self, two_link_setup, capsys):
        tmp_path, _ = two_link_setup
        config = write_config(tmp_path, [1, 2], "list.json")
        assert main(["estimate", "--config", config]) == 2
        assert f"config {config} must hold a JSON object, got list" in capsys.readouterr().err

    def test_inputs_that_is_not_an_object_exits_2(self, two_link_setup, capsys):
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        est_cfg = dict(json.loads(Path(config).read_text()), inputs="x")
        assert main(["estimate", "--config", write_config(tmp_path, est_cfg, "bad.json")]) == 2
        assert "'inputs' must be a JSON object, got 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["model", "out", "inputs.state"])
    def test_unusable_path_exits_2_naming_it(self, two_link_setup, capsys, key):
        """A directory where a file is read, or a file where the output directory goes, is an input error."""
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        est_cfg = json.loads(Path(config).read_text())
        path = str(Path(cfg["model"]) if key == "out" else tmp_path)
        block, _, name = key.rpartition(".")
        (est_cfg[block] if block else est_cfg)[name] = path
        bad = write_config(tmp_path, est_cfg, "bad.json")
        for workers in ("1", "2"):
            assert main(["estimate", "--config", bad, "--workers", workers]) == 2
            err = capsys.readouterr().err
            assert f"{path}: " in err
            assert "Traceback" not in err

    def test_observations_path_that_is_a_directory_exits_2(self, two_link_setup, capsys):
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        est_cfg = json.loads(Path(config).read_text())
        est_cfg["inputs"]["observations"] = str(tmp_path)
        assert main(["estimate", "--config", write_config(tmp_path, est_cfg, "bad.json")]) == 2
        err = capsys.readouterr().err
        assert f"cannot read input CSV {tmp_path}" in err
        assert "Traceback" not in err

    def test_missing_reading_gets_zero_weight(self, two_link_setup, capsys):
        """A NaN cell drops that channel for that sample; the run counts it."""
        from mapdyn.cli import check_config, sensor_specs_from_config
        from mapdyn.dynamics import ConstraintAssembler
        from mapdyn.estimator import MapProblem, map_solve
        from mapdyn.sensors import MeasurementAssembler, assemble_system

        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        obs = Path(cfg["out"]) / "observations.csv"
        lines = obs.read_text().splitlines()
        sample, channel = 4, 2
        cells = lines[1 + sample].split(",")
        cells[1 + channel] = "nan"
        lines[1 + sample] = ",".join(cells)
        obs.write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--config", config, "--workers", "1"]) == 0
        assert "1 missing readings" in capsys.readouterr().out

        est_dir = tmp_path / "est"
        manifest = json.loads((est_dir / "manifest.json").read_text())
        assert manifest["missing_readings"] == 1
        assert 0.0 < manifest["min_pivot_ratio"] <= 1.0
        _, est_rows = read_rows(est_dir / "estimates.csv")
        row = np.array(est_rows[sample], dtype=float)[1:]
        assert np.isfinite(row).all()

        model = parse_model(TWO_LINK_XML)
        cfg = check_config(cfg)
        casm, masm = ConstraintAssembler(model), MeasurementAssembler(model, sensor_specs_from_config(model, cfg))
        _, traj = read_rows(Path(cfg["out"]) / "trajectory.csv")
        state = np.array(traj[sample], dtype=float)
        values_d, b_d, values_y, b_y = split_system(casm, *assemble_system(
            casm, masm, state[1: 1 + model.n_dof], state[1 + model.n_dof: 1 + 2 * model.n_dof]
        ))
        mat_d, b_d, mat_y, b_y = casm.matrix(values_d[0]), b_d[0], masm.matrix(values_y[0]), b_y[0]
        y = np.array(cells[1:], dtype=float)
        keep = np.arange(masm.dim) != channel
        expected = map_solve(MapProblem(
            mat_d, b_d, mat_y[keep], b_y[keep], y[keep], sigma_y=masm.variances[keep], **cfg["covariances"],
        )).mean
        assert np.abs(row - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_one_kinematic_sweep_per_chunk(self, two_link_setup, monkeypatch):
        """A serial run sweeps once per chunk, every sample exactly once, and nowhere else."""
        import mapdyn.cli

        tmp_path, cfg = two_link_setup
        config, n_samples = self._simulate(tmp_path, cfg)
        _, traj = read_rows(Path(cfg["out"]) / "trajectory.csv")
        q_series = np.array(traj, dtype=float)[:, 1:3]
        calls = count_sweeps(monkeypatch, chunk=8)
        monkeypatch.setattr(mapdyn.cli, "SAMPLE_CHUNK", 8)
        assert main(["estimate", "--config", config, "--workers", "1"]) == 0
        assert [len(q) for q in calls] == [8, 8, 7, 7]
        np.testing.assert_array_equal(np.concatenate(calls), q_series)
        assert n_samples == 30

    def test_pool_is_capped_at_the_chunk_count(self, two_link_setup, monkeypatch):
        """--workers 5000 on 30 samples asks the pool for one worker per chunk, seven, and starts no process."""
        import mapdyn.cli

        tmp_path, cfg = two_link_setup
        config, n_samples = self._simulate(tmp_path, cfg)
        asked = []

        class PoolAsked(Exception):
            pass

        def recording_pool(max_workers, **kwargs):
            asked.append(max_workers)
            raise PoolAsked

        monkeypatch.setattr(mapdyn.cli, "ProcessPoolExecutor", recording_pool)
        with pytest.raises(PoolAsked):
            main(["estimate", "--config", config, "--workers", "5000"])
        # 30 // CHUNK_MIN chunks of at least CHUNK_MIN samples
        assert n_samples == 30 and asked == [7]

    def test_joint_limit_violations_are_counted(self, two_link_setup, capsys):
        """One state row outside the limits counts as one sample; the clean run counts none."""
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        assert main(["estimate", "--config", config, "--workers", "1"]) == 0
        assert "0 samples outside joint limits" in capsys.readouterr().out
        assert json.loads((tmp_path / "est" / "manifest.json").read_text())["joint_limit_samples"] == 0

        state = Path(cfg["out"]) / "trajectory.csv"
        lines = state.read_text().splitlines()
        cells = lines[5].split(",")
        cells[1] = "2.6"  # joint1's limits are +-2.5
        lines[5] = ",".join(cells)
        state.write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--config", config, "--workers", "1"]) == 0
        assert "1 samples outside joint limits" in capsys.readouterr().out
        assert json.loads((tmp_path / "est" / "manifest.json").read_text())["joint_limit_samples"] == 1

    def _pose_config(self, tmp_path, config, poses):
        est_cfg = json.loads(Path(config).read_text())
        est_cfg["inputs"]["link_poses"] = str(poses)
        del est_cfg["inputs"]["state"]
        est_cfg["sg"] = {"window": 11, "order": 3}
        return write_config(tmp_path, est_cfg, "poses.json")

    @pytest.mark.parametrize("source", ["state", "link_poses"])
    def test_permuted_columns_write_the_same_bytes(self, two_link_setup, source):
        """Columns are found by name: a state or pose file with its columns shuffled gives the same outputs."""
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        path = Path(cfg["out"]) / ("trajectory.csv" if source == "state" else "link_poses.csv")
        if source == "link_poses":
            config = self._pose_config(tmp_path, config, path)
        outputs = []
        for shuffle in (False, True):
            if shuffle:
                header, rows = read_rows(path)
                order = list(range(len(header)))
                random.Random(5).shuffle(order)
                assert order[0] != 0
                with open(path, "w", newline="") as fh:
                    csv.writer(fh).writerows([[row[i] for i in order] for row in [header] + rows])
            assert main(["estimate", "--config", config, "--workers", "1"]) == 0
            outputs.append([(tmp_path / "est" / name).read_bytes() for name in ("estimates.csv", "marginal_std.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("case, message", [
        ("missing q", "trajectory.csv: no column 'q_joint2'"),
        ("duplicated", "trajectory.csv: column 'qd_joint1' appears twice"),
        ("extra channel", "observations.csv: unexpected column 'extra'"),
        ("missing channel", "observations.csv: no column 'ddq_joint1'"),
        ("missing pose", "link_poses.csv: no column 'link2_yaw'"),
        ("fewer states", "trajectory.csv holds 29 samples, {obs} 30"),
        ("repeated pose time", "link_poses.csv, line 5: time 0.03333333333333333 does not increase"),
        ("shifted times", "trajectory.csv, line 2, column 'time': 100.0 differs from {obs}'s 0.0 by more than 1e-06 s"),
    ])
    def test_bad_series_exits_2_with_its_message(self, two_link_setup, capsys, case, message):
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        sim = Path(cfg["out"])
        name = {"extra channel": "observations.csv", "missing channel": "observations.csv",
                "missing pose": "link_poses.csv", "repeated pose time": "link_poses.csv"}.get(case, "trajectory.csv")
        header, rows = read_rows(sim / name)
        if case == "fewer states":
            rows = rows[:-1]
        elif case == "repeated pose time":
            rows[3][0] = rows[2][0]
        elif case == "shifted times":
            rows = [[repr(float(row[0]) + 100.0)] + row[1:] for row in rows]
        elif case == "extra channel":
            header, rows = header + ["extra"], [row + ["0.0"] for row in rows]
        else:
            column = header.index({"missing q": "q_joint2", "duplicated": "qd_joint2", "missing channel": "ddq_joint1",
                                   "missing pose": "link2_yaw"}[case])
            header[column] = "qd_joint1" if case == "duplicated" else "unused"
        with open(sim / name, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        if name == "link_poses.csv":
            config = self._pose_config(tmp_path, config, sim / name)
        assert main(["estimate", "--config", config, "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert message.format(obs=sim / "observations.csv") in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("name, column, value", [
        ("observations.csv", "imu_link2_x", "1e300"), ("trajectory.csv", "qd_joint2", "1e200"),
        ("trajectory.csv", "q_joint1", "-1000000000000.1"), ("observations.csv", "time", "nan"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_cell_beyond_the_number_bound_exits_2_naming_it(self, two_link_setup, capsys, name, column, value):
        """A cell above MAX_NUMBER in magnitude exits 2 where it is read, by file, line and column, and warns nothing."""
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        path = Path(cfg["out"]) / name
        header, rows = read_rows(path)
        rows[6][header.index(column)] = value
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        assert main(["estimate", "--config", config, "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert err == (f"input error: {path}, line 8, column {column!r}: {float(value)!r} is not a finite number "
                       "(at most 1e+12 in magnitude)\n")

    def test_tau_ddq_marginals_are_the_tau_then_the_ddq_columns(self, two_link_setup):
        tmp_path, cfg = two_link_setup
        config, n_samples = self._simulate(tmp_path, cfg)
        est_cfg = dict(json.loads(Path(config).read_text()), marginals="tau_ddq")
        assert main(["estimate", "--config", write_config(tmp_path, est_cfg, "tau_ddq.json"), "--workers", "1"]) == 0
        header, rows = read_rows(tmp_path / "est" / "marginal_std.csv")
        assert header == ["time", "tau_joint1", "tau_joint2", "ddq_joint1", "ddq_joint2"]
        assert len(rows) == n_samples
        est_header, est_rows = read_rows(tmp_path / "est" / "estimates.csv")
        assert [row[0] for row in rows] == [row[0] for row in est_rows]

    def test_time_within_the_tolerance_is_accepted(self, two_link_setup):
        """A state time off the observations' by less than TIME_TOLERANCE (1e-6 s) writes the same estimates."""
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        state = Path(cfg["out"]) / "trajectory.csv"
        outputs = []
        for shift in (0.0, 9e-7):
            header, rows = read_rows(state)
            with open(state, "w", newline="") as fh:
                csv.writer(fh).writerows([header] + [[repr(float(row[0]) + shift)] + row[1:] for row in rows])
            assert main(["estimate", "--config", config, "--workers", "1"]) == 0
            outputs.append((tmp_path / "est" / "estimates.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_pool_and_serial_report_the_same_run(self, two_link_setup):
        """One missing reading and one state outside the limits: a pool of two reports what one process does."""
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        for name, column, value in (("observations.csv", "imu_link2_x", "nan"), ("trajectory.csv", "q_joint1", "2.6")):
            path = Path(cfg["out"]) / name
            header, rows = read_rows(path)
            rows[11][header.index(column)] = value  # joint1's limits are +-2.5
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([header] + rows)
        manifests, estimates = [], []
        for workers in ("1", "2"):
            out = tmp_path / f"est{workers}"
            assert main(["estimate", "--config", config, "--workers", workers, "--out", str(out)]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
            estimates.append((out / "estimates.csv").read_bytes())
        serial, pooled = manifests
        assert (serial["workers"], pooled["workers"]) == (1, 2)
        assert serial["missing_readings"] == serial["joint_limit_samples"] == 1
        keys = ("missing_readings", "joint_limit_samples", "min_pivot_ratio", "max_unobserved_dimension",
                "unobserved_samples")
        assert [pooled[key] for key in keys] == [serial[key] for key in keys]
        assert estimates[0] == estimates[1]

    @pytest.mark.parametrize("offset, rc", [(1e3, 0), (-1e3, 0), (1000.5, 2), (-2e3, 2)])
    def test_force_plate_offset_is_bounded(self, two_link_setup, capsys, offset, rc):
        """Each coordinate of `sensors.fixed_base_pose.xyz` is at most MAX_PLATE_OFFSET (1e3 m) in magnitude."""
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        est_cfg = json.loads(Path(config).read_text())
        est_cfg["sensors"]["fixed_base_pose"] = {"xyz": [offset, 0.0, offset]}
        assert main(["estimate", "--config", write_config(tmp_path, est_cfg, "plate.json"), "--workers", "1"]) == rc
        if rc:
            assert "'sensors.fixed_base_pose.xyz' must be a list of three numbers of magnitude at most 1000" in (
                capsys.readouterr().err)


# five wrench channels whose loss leaves two directions of d unobserved on
# the LeftFoot-rooted 48-DoF model with these contact links
UNOBSERVING_CHANNELS = [
    "extf_RightFoot_fx",
    "extf_RightLowerLeg_f1_fx",
    "extf_LeftLowerLeg_f1_fz",
    "extf_LeftLowerLeg_fx",
    "extf_RightUpperArm_my",
]


@pytest.fixture(scope="module")
def human_run(human_model_foot, tmp_path_factory):
    """A 12-sample 48-DoF simulation and an estimate config over it."""
    from mapdyn.model import emit_model

    tmp_path = tmp_path_factory.mktemp("human")
    model_path = tmp_path / "model.xml"
    model_path.write_text(emit_model(human_model_foot))
    cfg = {
        "model": str(model_path),
        "out": str(tmp_path / "sim"),
        "seed": 5,
        "scenario": {
            "duration": 0.12,
            "rate": 100.0,
            "trajectory": {
                "default": {"kind": "sine", "amplitude": 0.15, "frequency": 0.5},
                "jRightKnee_roty": {"kind": "sine", "amplitude": 0.15, "frequency": 0.5, "offset": 0.16},
                "jLeftKnee_roty": {"kind": "sine", "amplitude": 0.15, "frequency": 0.5, "offset": -0.16},
            },
        },
        "sensors": {"contact_links": ["RightFoot", "RightToe", "LeftToe"]},
    }
    assert main(["simulate", "--config", write_config(tmp_path, cfg, "sim.json")]) == 0
    cfg["inputs"] = {
        "observations": str(tmp_path / "sim" / "observations.csv"),
        "state": str(tmp_path / "sim" / "trajectory.csv"),
    }
    return tmp_path, cfg


def _estimate_outputs_by_workers(model, tmp_path, duration, marginals, workers):
    """``estimates.csv`` and ``marginal_std.csv`` bytes of one simulated 48-DoF run, per worker count."""
    from mapdyn.model import emit_model

    model_path = tmp_path / "model.xml"
    model_path.write_text(emit_model(model))
    cfg = {
        "model": str(model_path),
        "out": str(tmp_path / "sim"),
        "seed": 6,
        "scenario": {
            "duration": duration,
            "rate": 100.0,
            "trajectory": {
                "default": {"kind": "sine", "amplitude": 0.15, "frequency": 0.5},
                "jRightKnee_roty": {"kind": "sine", "amplitude": 0.15, "frequency": 0.5, "offset": 0.16},
                "jLeftKnee_roty": {"kind": "sine", "amplitude": 0.15, "frequency": 0.5, "offset": -0.16},
            },
        },
        "sensors": {"contact_links": ["RightFoot", "RightToe", "LeftToe"]},
        "marginals": marginals,
        "inputs": {
            "observations": str(tmp_path / "sim" / "observations.csv"),
            "state": str(tmp_path / "sim" / "trajectory.csv"),
        },
    }
    assert main(["simulate", "--config", write_config(tmp_path, cfg, "sim.json")]) == 0
    outputs = []
    for n in workers:
        est = dict(cfg, out=str(tmp_path / f"est{n}"))
        assert main(["estimate", "--config", write_config(tmp_path, est, "est.json"), "--workers", str(n)]) == 0
        outputs.append([(Path(est["out"]) / name).read_bytes() for name in ("estimates.csv", "marginal_std.csv")])
    return outputs


def test_pool_and_serial_estimates_byte_identical_on_48dof(human_model_foot, tmp_path):
    """32 samples: two workers factorize stacks of 4, one worker stacks of 8."""
    outputs = _estimate_outputs_by_workers(human_model_foot, tmp_path, 0.32, "all", (1, 2))
    assert len(outputs[0][0].splitlines()) == 33
    assert outputs[0] == outputs[1]


def test_uneven_pool_chunks_write_the_serial_bytes(human_model_foot, tmp_path):
    """37 samples cut into uneven chunks: every worker count writes the bytes of one process."""
    outputs = _estimate_outputs_by_workers(human_model_foot, tmp_path, 0.37, "tau", (1, 2, 3))
    assert [len(text.splitlines()) for text in outputs[0]] == [38, 38]
    assert outputs[0] == outputs[1] == outputs[2]


class TestUnobservedSamples:
    def _estimate(self, tmp_path, cfg, name):
        cfg = dict(cfg, out=str(tmp_path / name))
        rc = main(["estimate", "--config", write_config(tmp_path, cfg, f"{name}.json"), "--workers", "1"])
        return rc, json.loads((tmp_path / name / "manifest.json").read_text())

    def test_clean_run_is_observed(self, human_run):
        tmp_path, cfg = human_run
        rc, manifest = self._estimate(tmp_path, cfg, "clean")
        assert rc == 0
        assert manifest["max_unobserved_dimension"] < 0.5
        assert manifest["unobserved_samples"] == []

    def test_five_missing_channels_exit_3_and_name_the_samples(self, human_run, capsys):
        tmp_path, cfg = human_run
        header, rows = read_rows(cfg["inputs"]["observations"])
        columns = [header.index(name) for name in UNOBSERVING_CHANNELS]
        samples = [2, 7, 9]
        for k in samples:
            for c in columns:
                rows[k][c] = "nan"
        obs = tmp_path / "observations_nan.csv"
        with open(obs, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        cfg = dict(cfg, inputs=dict(cfg["inputs"], observations=str(obs)))
        rc, manifest = self._estimate(tmp_path, cfg, "nan")
        assert rc == 3
        err = capsys.readouterr().err
        times = [float(rows[k][0]) for k in samples]
        assert f"3 of {len(rows)} samples leave up to 2 direction(s) of d unobserved" in err
        assert ", ".join(f"{k} (t={t:g} s)" for k, t in zip(samples, times)) in err
        assert manifest["unobserved_samples"] == samples
        assert manifest["max_unobserved_dimension"] == pytest.approx(2.0, abs=1e-2)
        assert manifest["missing_readings"] == 5 * len(samples)
        assert (tmp_path / "nan" / "estimates.csv").exists()
        assert (tmp_path / "nan" / "marginal_std.csv").exists()


class TestWriteCsv:
    def test_bytes_match_csv_writer(self, tmp_path):
        from mapdyn.cli import write_csv

        rows = [
            [0.0, float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308, 0.1 + 0.2],
            [3, -7, np.float64(0.1), np.float32(0.1), np.int64(12), True, 1e-5, 123456789.0],
        ]
        header = ["time", "a,b", 'q"x', "c", "d", "e", "f", "g"]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_csv(new, header, rows)
        with open(old, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(x)) for x in row])
        assert new.read_bytes() == old.read_bytes()
        write_csv(new, header, np.array(rows, dtype=float))
        assert new.read_bytes() == old.read_bytes()


class TestReadCsv:
    def test_values_bit_identical_to_float(self, tmp_path):
        from mapdyn.cli import read_csv, write_csv
        from mapdyn.floatrepr import csv_lines

        rng = np.random.default_rng(8)
        special = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, 0.1 + 0.2, 1 / 3, 123456789.12345679, 1e-5, -1e22]
        shape = (40, len(special))
        rows = [special] + (rng.normal(0.0, 1.0, shape) * 10.0 ** rng.integers(-300, 300, shape)).tolist()
        path = tmp_path / "values.csv"
        write_csv(path, [f"c{i}" for i in range(len(special))], rows)
        header, data = read_csv(path)
        lines = path.read_text().splitlines()[1:]
        # the one formatter of every output writes what float's repr writes
        assert lines[0].startswith("nan,inf,-inf,-0.0,0.0,5e-324,-5e-324,")
        assert csv_lines([special]) == ",".join(map(repr, special)) + "\r\n"
        expected = np.array([[float(cell) for cell in line.split(",")] for line in lines])
        assert header == [f"c{i}" for i in range(len(special))]
        assert data.shape == expected.shape
        assert data.tobytes() == expected.tobytes()


def _assert_rows_are_reprs(path):
    """The file's rows are the repr oracle's text of the values ``read_csv`` reads back from it."""
    from mapdyn.cli import read_csv

    _, data = read_csv(path)
    body = Path(path).read_bytes().decode().split("\r\n", 1)[1]
    assert body == repr_csv_lines(data), path


def test_every_csv_cell_is_the_repr_of_its_value(two_link_setup):
    """`simulate`, `estimate` (tau and all, one process and a pool) and `fusion` write repr's bytes."""
    tmp_path, cfg = two_link_setup
    assert main(["simulate", "--config", write_config(tmp_path, cfg, "sim.json")]) == 0
    sim = Path(cfg["out"])
    for name in ("trajectory.csv", "observations.csv", "ground_truth.csv", "link_poses.csv"):
        _assert_rows_are_reprs(sim / name)
    for marginals in ("tau", "all"):
        for workers in ("1", "2"):
            out = tmp_path / f"est-{marginals}-{workers}"
            est_cfg = dict(cfg, out=str(out), marginals=marginals, inputs={
                "observations": str(sim / "observations.csv"), "state": str(sim / "trajectory.csv")})
            config = write_config(tmp_path, est_cfg, "est.json")
            assert main(["estimate", "--config", config, "--workers", workers]) == 0
            _assert_rows_are_reprs(out / "estimates.csv")
            _assert_rows_are_reprs(out / "marginal_std.csv")
    sensors = {"contact_links": ["link2"]}
    fus_cfg = dict(cfg, out=str(tmp_path / "fus"), fusion={"cases": [
        {"name": "no_imus", "sensors": dict(sensors, include_imus=False)}, {"name": "all", "sensors": sensors}]})
    assert main(["fusion", "--config", write_config(tmp_path, fus_cfg, "fus.json")]) == 0
    _, rows = read_rows(tmp_path / "fus" / "fusion_variances.csv")
    assert rows
    for row in rows:
        assert ",".join(row[1:-1]) + "\r\n" == repr_csv_lines([[float(cell) for cell in row[1:-1]]])


def test_state_csv_estimate_and_sine_simulate_skip_optional_scipy_modules(two_link_setup):
    """Neither command loads scipy.sparse, scipy.linalg, scipy.signal, scipy.interpolate or scipy.stats.

    `estimate` runs in-process and in a pool of two workers. A child process
    runs the commands under ``-X importtime``, which the workers inherit, so
    an import in any of the processes shows on its standard error; other
    tests import those modules into this process.
    """
    import subprocess
    import sys

    tmp_path, cfg = two_link_setup
    sim = write_config(tmp_path, cfg, "sim.json")
    est_cfg = dict(cfg, out=str(tmp_path / "est"), inputs={
        "observations": str(Path(cfg["out"]) / "observations.csv"),
        "state": str(Path(cfg["out"]) / "trajectory.csv"),
    })
    est = write_config(tmp_path, est_cfg, "est.json")
    pool_out = str(tmp_path / "est_pool")
    script = (
        "from mapdyn.cli import main\n"
        f"assert main(['simulate', '--config', {sim!r}]) == 0\n"
        f"assert main(['estimate', '--config', {est!r}, '--workers', '1']) == 0\n"
        f"assert main(['estimate', '--config', {est!r}, '--workers', '2', '--out', {pool_out!r}]) == 0\n"
    )
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", script], capture_output=True, text=True, env=child_env(), timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert len(read_rows(Path(cfg["out"]) / "trajectory.csv")[1]) >= 8  # the pool path runs
    assert json.loads((Path(pool_out) / "manifest.json").read_text())["workers"] == 2
    imported = {
        line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines() if line.startswith("import time:")
    }
    assert "mapdyn.cli" in imported
    # each imported module's top two levels: scipy.sparse._csc counts as scipy.sparse
    packages = {".".join(name.split(".")[:2]) for name in imported}
    forbidden = {"scipy.sparse", "scipy.linalg", "scipy.signal", "scipy.interpolate", "scipy.stats"}
    assert sorted(packages & forbidden) == []


def test_five_commands_name_the_encoding_of_every_text_file(tmp_path):
    """model-gen, simulate, estimate (two workers), fusion and sensor-pose open every text file as UTF-8.

    A child process runs them on a short 48-DoF config with
    ``-X warn_default_encoding`` and EncodingWarning as an error, which the
    workers inherit: a text file opened in the locale's encoding fails its
    command.
    """
    import subprocess
    import sys

    contacts = ["RightFoot", "RightToe", "LeftToe"]
    cfg = {
        "subject": {"mass_total": 75.9, "landmarks_file": "landmarks.json"},
        "root_link": "LeftFoot",
        "model": "out/model.xml",
        "out": "out",
        "seed": 7,
        "scenario": {"duration": 0.2, "rate": 100.0, "trajectory": {
            "default": {"kind": "sine", "amplitude": 0.15, "frequency": 0.5},
            "jRightKnee_roty": {"kind": "sine", "amplitude": 0.15, "frequency": 0.5, "offset": 0.16},
            "jLeftKnee_roty": {"kind": "sine", "amplitude": 0.15, "frequency": 0.5, "offset": -0.16},
        }},
        "sensors": {"contact_links": contacts},
        "inputs": {"observations": "out/observations.csv", "state": "out/trajectory.csv"},
        "fusion": {"cases": [{"name": "no_imus", "sensors": {"include_imus": False, "contact_links": contacts}},
                             {"name": "with_imus", "sensors": {"contact_links": contacts}}], "max_states": 2},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    script = (
        "import json\n"
        "from mapdyn.cli import main\n"
        "from mapdyn.model import example_landmarks\n"
        "landmarks = {k: list(v) for k, v in example_landmarks().items()}\n"
        "with open('landmarks.json', 'w', encoding='utf-8') as fh:\n"
        "    json.dump({'landmarks': landmarks}, fh)\n"
        "for args in (['model-gen'], ['simulate'], ['estimate', '--workers', '2'],\n"
        "             ['fusion', '--out', 'out/fusion'], ['sensor-pose', '--out', 'out/sensor-pose']):\n"
        "    assert main([args[0], '--config', 'cfg.json', *args[1:]]) == 0, args\n"
    )
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c", script],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["workers"] == 2


def _bundled_openblas_files():
    """OpenBLAS libraries shipped inside the numpy and scipy wheels, by path."""
    import scipy

    found = []
    for package in (np, scipy):
        root = Path(package.__file__).parent
        for lib_dir in (root.parent / f"{package.__name__}.libs", root / ".dylibs"):
            found += [f"{lib_dir.name}/{lib.name}" for lib in lib_dir.glob("lib*openblas*")]
    return sorted(found)


@pytest.mark.skipif(not _bundled_openblas_files(), reason="numpy and scipy bundle no OpenBLAS copy")
class TestBlasThreads:
    """`estimate` caps each bundled OpenBLAS copy at one thread per worker."""

    def _estimate(self, tmp_path, cfg, workers):
        est_cfg = dict(cfg)
        est_cfg["out"] = str(tmp_path / f"est{workers}")
        est_cfg["inputs"] = {
            "observations": str(Path(cfg["out"]) / "observations.csv"),
            "state": str(Path(cfg["out"]) / "trajectory.csv"),
        }
        rc = main(["estimate", "--config", write_config(tmp_path, est_cfg, "est.json"), "--workers", str(workers)])
        assert rc == 0
        out = Path(est_cfg["out"])
        return json.loads((out / "manifest.json").read_text()), (out / "estimates.csv").read_bytes()

    def test_workers_capped_caller_restored_outputs_identical(self, two_link_setup):
        from mapdyn.blas import blas_threads, set_blas_threads

        tmp_path, cfg = two_link_setup
        assert main(["simulate", "--config", write_config(tmp_path, cfg, "sim.json")]) == 0
        n_samples = len(read_rows(Path(cfg["out"]) / "trajectory.csv")[1])
        assert n_samples >= 8  # both worker counts below take their own path

        # a caller running 2 BLAS threads: forked workers inherit that count
        # unless the initializer caps it
        previous = set_blas_threads(2)
        try:
            assert set(blas_threads()) == set(_bundled_openblas_files())
            pooled, pooled_csv = self._estimate(tmp_path, cfg, 2)
            assert blas_threads() == dict.fromkeys(_bundled_openblas_files(), 2)
            serial, serial_csv = self._estimate(tmp_path, cfg, 1)
            assert blas_threads() == dict.fromkeys(_bundled_openblas_files(), 2)
        finally:
            set_blas_threads(previous)

        assert pooled["workers"] == 2
        assert pooled["worker_blas_threads"] == dict.fromkeys(_bundled_openblas_files(), 1)
        assert serial["workers"] == 1
        assert serial["worker_blas_threads"] == dict.fromkeys(_bundled_openblas_files(), 1)
        assert pooled_csv == serial_csv

    def test_missing_copy_is_reported(self, monkeypatch, tmp_path, caplog):
        from mapdyn.blas import bundled_openblas

        # a numpy whose wheel bundles no OpenBLAS (an MKL or system-BLAS build)
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        with caplog.at_level("WARNING", logger="mapdyn"):
            copies = bundled_openblas.__wrapped__()
        assert not any(name.startswith("numpy") for name in copies)
        assert "no bundled OpenBLAS found for numpy" in caplog.text


class TestFusion:
    def test_identical_cases_no_change(self, two_link_setup):
        tmp_path, cfg = two_link_setup
        fus_cfg = dict(cfg)
        fus_cfg["out"] = str(tmp_path / "fus")
        sensors = {"contact_links": ["link2"]}
        fus_cfg["fusion"] = {
            "cases": [
                {"name": "case1", "sensors": sensors},
                {"name": "case2", "sensors": sensors},
            ]
        }
        rc = main(["fusion", "--config", write_config(tmp_path, fus_cfg, "f.json")])
        assert rc == 0
        header, rows = read_rows(tmp_path / "fus" / "fusion_variances.csv")
        assert header == ["joint", "case1", "case2", "monotonic_non_increasing"]
        for row in rows:
            assert float(row[1]) == pytest.approx(float(row[2]), rel=1e-9)
            assert row[3] == "True"

    def test_adding_imus_reduces_variance(self, two_link_setup):
        tmp_path, cfg = two_link_setup
        fus_cfg = dict(cfg)
        fus_cfg["out"] = str(tmp_path / "fus2")
        fus_cfg["fusion"] = {
            "cases": [
                {"name": "no_imus", "sensors": {"contact_links": ["link2"], "include_imus": False}},
                {"name": "with_imus", "sensors": {"contact_links": ["link2"], "include_imus": True}},
            ]
        }
        rc = main(["fusion", "--config", write_config(tmp_path, fus_cfg, "f.json")])
        assert rc == 0
        _, rows = read_rows(tmp_path / "fus2" / "fusion_variances.csv")
        for row in rows:
            assert float(row[2]) <= float(row[1]) + 1e-12
            assert row[3] == "True"

    def test_looser_case_follows_its_own_variances(self, two_link_setup):
        """Same channels, IMUs 100x looser: each case is solved with its own variances."""
        tmp_path, cfg = two_link_setup
        fus_cfg = dict(cfg)
        fus_cfg["out"] = str(tmp_path / "fus4")
        fus_cfg["fusion"] = {
            "cases": [
                {"name": "tight", "sensors": {"contact_links": ["link2"], "imu_variance": 1e-3}},
                {"name": "loose", "sensors": {"contact_links": ["link2"], "imu_variance": 1e-1}},
            ]
        }
        assert main(["fusion", "--config", write_config(tmp_path, fus_cfg, "f.json")]) == 0
        _, rows = read_rows(tmp_path / "fus4" / "fusion_variances.csv")
        grown = [row for row in rows if float(row[2]) > float(row[1])]
        assert grown
        assert all(row[3] == "False" for row in grown)

    def test_one_precision_plan_per_case(self, two_link_setup, monkeypatch):
        """Each case plans its layout once; every state reuses the plan."""
        import mapdyn.estimator
        import mapdyn.sensors

        tmp_path, cfg = two_link_setup
        fus_cfg = dict(cfg)
        fus_cfg["out"] = str(tmp_path / "fus5")
        fus_cfg["fusion"] = {
            "cases": [
                {"name": "no_imus", "sensors": {"contact_links": ["link2"], "include_imus": False}},
                {"name": "with_imus", "sensors": {"contact_links": ["link2"]}},
                {"name": "no_contacts", "sensors": {}},
            ],
            "max_states": 4,
        }
        stacks_per_plan = []
        sweeps = []
        plan_class = mapdyn.estimator.PrecisionPlan
        sweep = mapdyn.sensors.kinematic_sweep

        class CountingPlan(plan_class):
            def __init__(self, *args):
                self.index = len(stacks_per_plan)
                stacks_per_plan.append([])
                super().__init__(*args)

            def terms(self, *args, **kwargs):
                stacks_per_plan[self.index].append(len(args[0]))
                return super().terms(*args, **kwargs)

        def counting_sweep(model, q, qd):
            sweeps.append(len(q))
            return sweep(model, q, qd)

        monkeypatch.setattr(mapdyn.estimator, "PrecisionPlan", CountingPlan)
        monkeypatch.setattr(mapdyn.sensors, "kinematic_sweep", counting_sweep)
        assert main(["fusion", "--config", write_config(tmp_path, fus_cfg, "f.json")]) == 0
        # each case's estimator sweeps the four states once, and its plan takes one stack of them
        assert sweeps == [4] * 3
        assert stacks_per_plan == [[4]] * 3

    @pytest.mark.parametrize("max_states, expected", [(4, 4), (7, 6)])
    def test_max_states_caps_the_states(self, two_link_setup, monkeypatch, max_states, expected):
        """30 trajectory samples give at most max_states evenly spaced states."""
        import mapdyn.cli
        import mapdyn.sensors

        tmp_path, cfg = two_link_setup
        fus_cfg = dict(cfg, out=str(tmp_path / "fus6"))
        sensors = {"contact_links": ["link2"]}
        fus_cfg["fusion"] = {
            "cases": [{"name": "case1", "sensors": sensors}, {"name": "case2", "sensors": sensors}],
            "max_states": max_states,
        }
        states = []
        sweep = mapdyn.sensors.kinematic_sweep

        def counting_sweep(model, q, qd):
            states.extend(q)
            return sweep(model, q, qd)

        monkeypatch.setattr(mapdyn.sensors, "kinematic_sweep", counting_sweep)
        assert main(["fusion", "--config", write_config(tmp_path, fus_cfg, "f.json")]) == 0
        # both cases sweep the same states, one case after the other
        half = len(states) // 2
        np.testing.assert_array_equal(states[:half], states[half:])
        states = states[:half]
        checked = mapdyn.cli.check_config(fus_cfg)
        _, q, _, _ = mapdyn.cli.trajectory_from_config(parse_model(TWO_LINK_XML), checked).sample()
        assert q.shape[0] == 30
        picked = [int(np.flatnonzero((q == state).all(axis=1))[0]) for state in states]
        assert len(picked) == expected <= max_states
        assert len(set(np.diff(picked))) == 1  # evenly spaced

    def test_loosened_shared_channel_is_reported(self, two_link_setup, caplog):
        """Same channel names, but the contact wrench turns 1000x looser: no theorem, so a warning."""
        tmp_path, cfg = two_link_setup
        fus_cfg = dict(cfg, out=str(tmp_path / "fus7"))
        fus_cfg["fusion"] = {"cases": [
            {"name": "bare", "sensors": {}},
            {"name": "bare_again", "sensors": {}},
            {"name": "contacts", "sensors": {"contact_links": ["link2"]}},
        ]}
        with caplog.at_level("WARNING", logger="mapdyn"):
            assert main(["fusion", "--config", write_config(tmp_path, fus_cfg, "f.json")]) == 0
        warnings = [record.getMessage() for record in caplog.records if record.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "'contacts' gives 6 channel(s) of the case before it a larger variance (extf_link2_fx)" in warnings[0]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("covariances.sigma_D", -1, "'covariances.sigma_D' must be a positive finite number"),
            ("covariances.sigma_D", "a", "'covariances.sigma_D' must be a positive finite number"),
            ("covariances.mu_d", [0, 1], "'covariances.mu_d' must be a finite number"),
            ("cases.sensors", "x", "'fusion.cases[1].sensors' must be a JSON object"),
            ("cases.sensors", {"contact_links": ["Nope"]}, "contact_links name links the model lacks: 'Nope'"),
            ("cases.sensors", {"contact_links": "link2"}, "contact_links must be a list of link names, got 'link2'"),
            ("cases.sensors", {"imu_variance": 0}, "'fusion.cases[1].sensors.imu_variance' must be a positive finite"),
            ("cases.sensors", {"wrench_variance": 1e-13},
             "'fusion.cases[1].sensors.wrench_variance' must be a positive finite number from 1e-12 to 1e+12"),
        ],
        ids=[
            "sigma_D-negative", "sigma_D-text", "mu_d-list", "case-sensors-text", "case-unknown-contact-link",
            "case-contact-links-text", "case-imu-variance-zero", "case-wrench-variance-tiny",
        ],
    )
    def test_bad_config_value_exits_2(self, two_link_setup, capsys, key, value, message):
        """`estimate`'s bad config values exit 2 in `fusion` too, in the config or in a case's `sensors`."""
        tmp_path, cfg = two_link_setup
        fus_cfg = dict(cfg, out=str(tmp_path / "fus8"))
        fus_cfg["fusion"] = {"cases": [{"name": "case1", "sensors": {}}, {"name": "case2", "sensors": {}}]}
        block, _, name = key.rpartition(".")
        if block == "cases":
            fus_cfg["fusion"]["cases"][1][name] = value
        else:
            fus_cfg[block] = {name: value}
        assert main(["fusion", "--config", write_config(tmp_path, fus_cfg, "f.json")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "fus8" / "fusion_variances.csv").exists()

    @pytest.mark.parametrize("max_states", [0, -2, 2.5, "4", True])
    def test_bad_max_states_exits_2(self, two_link_setup, capsys, max_states):
        tmp_path, cfg = two_link_setup
        fus_cfg = dict(cfg)
        fus_cfg["out"] = str(tmp_path / "fus3")
        sensors = {"contact_links": ["link2"]}
        fus_cfg["fusion"] = {
            "cases": [{"name": "case1", "sensors": sensors}, {"name": "case2", "sensors": sensors}],
            "max_states": max_states,
        }
        assert main(["fusion", "--config", write_config(tmp_path, fus_cfg, "f.json")]) == 2
        assert "'fusion.max_states' must be a positive integer" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
class TestSensorPose:
    @pytest.fixture(autouse=True)
    def _silence_limit_warnings(self):
        """Joint-limit warnings fail here too: calibration hides no warning."""
        yield

    def test_synthetic_calibration(self, two_link_setup, capsys):
        tmp_path, cfg = two_link_setup
        sp_cfg = dict(cfg)
        sp_cfg["out"] = str(tmp_path / "cal")
        sp_cfg["scenario"] = {
            "duration": 2.0,
            "rate": 60.0,
            "trajectory": {"default": {"kind": "sine", "amplitude": 0.5, "frequency": 0.9}},
        }
        rc = main(["sensor-pose", "--config", write_config(tmp_path, sp_cfg, "sp.json"), "--patch-model"])
        assert rc == 0
        results = json.loads((tmp_path / "cal" / "sensor_poses.json").read_text())
        entry = results["link2_accelerometer"]
        assert entry["ok"]
        assert np.allclose(entry["position"], [0.02, 0.01, 0.08], atol=1e-8)
        # patched model re-parses cleanly
        patched = parse_model((tmp_path / "cal" / "model_calibrated.xml").read_text())
        assert patched.n_dof == 2

    def test_underexcited_sensor_flagged_others_succeed(self, tmp_path):
        # link1 only ever rotates about one axis, which cannot pin a sensor
        # position; its entry is flagged while the link2 sensor (two axes of
        # rotation along the chain) still calibrates
        doc = TWO_LINK_XML.replace(
            "</robot>",
            '<sensor name="link1_accelerometer" type="accelerometer">'
            '<parent link="link1"/><origin xyz="0.05 0 0.02" rpy="0 0 0"/></sensor></robot>',
        )
        model_path = tmp_path / "model.xml"
        model_path.write_text(doc)
        cfg = {
            "model": str(model_path),
            "out": str(tmp_path / "cal"),
            "scenario": {
                "duration": 2.0,
                "rate": 60.0,
                "trajectory": {"default": {"kind": "sine", "amplitude": 0.6, "frequency": 0.8}},
            },
        }
        rc = main(["sensor-pose", "--config", write_config(tmp_path, cfg, "sp.json")])
        assert rc == 0
        results = json.loads((tmp_path / "cal" / "sensor_poses.json").read_text())
        assert results["link2_accelerometer"]["ok"]
        assert not results["link1_accelerometer"]["ok"]

    def test_one_kinematic_sweep_per_chunk(self, tmp_path, monkeypatch):
        """The trajectory is swept once per chunk, not once per accelerometer: four calibrate from one sweep."""
        sensors = "".join(
            f'<sensor name="link2_{k}_accelerometer" type="accelerometer"><parent link="link2"/>'
            f'<origin xyz="0.0{k} 0.01 0.05" rpy="0 0.{k} 0"/></sensor>' for k in range(3)
        )
        model_path = tmp_path / "model.xml"
        model_path.write_text(TWO_LINK_XML.replace("</robot>", sensors + "</robot>"))
        cfg = {
            "model": str(model_path),
            "out": str(tmp_path / "cal"),
            "scenario": {
                "duration": 2.0,
                "rate": 60.0,
                "trajectory": {"default": {"kind": "sine", "amplitude": 0.5, "frequency": 0.9}},
            },
        }
        calls = count_sweeps(monkeypatch, chunk=32)
        assert main(["sensor-pose", "--config", write_config(tmp_path, cfg, "sp.json")]) == 0
        assert [len(q) for q in calls] == [32, 32, 32, 24]
        results = json.loads((tmp_path / "cal" / "sensor_poses.json").read_text())
        assert len(results) == 4 and all(entry["ok"] for entry in results.values())


def _config_sites(node, path=""):
    """Every (key path, container, key, value) of a JSON config, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, item in items:
        site = f"{path}[{key}]" if isinstance(node, list) else f"{path}.{key}" if path else key
        yield site, node, key, item
        yield from _config_sites(item, site)


def test_seeded_config_mutations_exit_0_or_2(tmp_path, capsys, monkeypatch):
    """300 seeded mutations of one two-link config that every command accepts.

    Each run returns 0 or 2 and raises nothing. A wrong type, a NaN, a huge
    number and an unknown key (in a command that loads the model, also an
    unknown name) are invalid and exit 2. A dropped key, a negative number
    or a directory for a file may be valid; when such a run exits 2, the
    error names the key path (or the path of the list that holds it), or
    the directory.
    """
    from mapdyn.model import example_landmarks

    monkeypatch.chdir(tmp_path)  # a dropped `out` writes to the working directory
    (tmp_path / "model.xml").write_text(TWO_LINK_XML)
    landmarks = tmp_path / "landmarks.json"
    landmarks.write_text(json.dumps({"landmarks": {k: list(v) for k, v in example_landmarks().items()}}))
    directory = tmp_path / "a_directory"
    directory.mkdir()
    base = {
        "model": str(tmp_path / "model.xml"), "out": str(tmp_path / "runs"), "seed": 3, "root_link": "Pelvis",
        "workers": 1, "marginals": "tau", "subject": {"mass_total": 75.9, "landmarks_file": str(landmarks)},
        "scenario": {"duration": 0.2, "rate": 60.0, "trajectory": {
            "default": {"kind": "sine", "amplitude": 0.3, "frequency": 0.7, "phase": 0.1, "offset": 0.05},
            "joint2": {"kind": "spline", "knots": [[0.0, 0.1], [1.0, 0.3]]},
        }, "external_forces": {"link2": [{"kind": "constant", "value": 1.0}]}},
        "sensors": {"contact_links": ["link2"], "include_imus": True, "imu_variance": 1e-3,
                    "fixed_base_pose": {"xyz": [0.0, 0.0, 0.0], "rpy": [0.0, 0.0, 0.0]}},
        "covariances": {"sigma_D": 1e-4, "sigma_d": 1e4, "mu_d": 0.0},
        "sg": {"window": 5, "order": 3},
        "calibration": {"accelerometer_noise_std": 0.01},
        "fusion": {"cases": [{"name": "a", "sensors": {}}, {"name": "b", "sensors": {"contact_links": ["link2"]}}],
                   "max_states": 3},
    }
    commands = ["model-gen", "simulate", "estimate", "fusion", "sensor-pose"]
    config = write_config(tmp_path, base)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "sim")]) == 0
    base["inputs"] = {"observations": str(tmp_path / "sim" / "observations.csv"),
                      "state": str(tmp_path / "sim" / "trajectory.csv")}
    config = write_config(tmp_path, base)
    for command in commands:
        assert main([command, "--config", config]) == 0, capsys.readouterr().err

    rng = random.Random(2301)
    exits = {0: 0, 2: 0}
    for _ in range(300):
        cfg = copy.deepcopy(base)
        path, container, key, value = rng.choice(list(_config_sites(cfg)))
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        kinds = ["type"] + ["nan", "negative", "huge"] * number + ["drop"] * isinstance(container, dict)
        kinds += ["unknown"] * isinstance(value, dict) + ["name"] * (path.endswith("contact_links"))
        kinds += ["directory"] * (isinstance(value, str) and path not in ("marginals", "root_link"))
        kind = rng.choice(kinds)
        command = rng.choice(commands)
        expected = [path, re.sub(r"(\[\d+\])+$", "", path)]
        if kind == "type":
            container[key] = (7 if isinstance(value, str) else 1 if isinstance(value, bool) else "x" if number
                              else {"a": 1} if isinstance(value, list) else [1])
        elif kind in ("nan", "negative", "huge"):
            container[key] = {"nan": float("nan"), "negative": -abs(value) - 1, "huge": 1e300}[kind]
        elif kind == "drop":
            del container[key]
        elif kind == "unknown":
            value["bogus_key"] = 1
            expected = ["bogus_key"]
        elif kind == "name":
            value.append("bogus_link")
        else:
            container[key] = str(directory)
            expected = [str(directory)]
        invalid = kind in ("type", "nan", "huge") or kind in ("unknown", "name") and command != "model-gen"
        rc = main([command, "--config", write_config(tmp_path, cfg, "mutated.json")])
        err = capsys.readouterr().err
        context = f"{command}, {kind} at {path}: exit {rc}, {err!r}"
        assert rc == 2 if invalid else rc in (0, 2), context
        assert "Traceback" not in err, context
        if rc == 2:
            assert any(name in err for name in expected), context
        exits[rc] += 1
    assert exits[0] > 30 and exits[2] > 150


MUTATIONS = ["truncate", "ragged", "non-numeric", "huge", "non-finite", "duplicate", "swap", "shuffle"]


def _mutate_csv(text, kind, rng):
    """``text``, a CSV, with one ``kind`` of damage at a seeded place: its header's names or one of its rows."""
    if kind == "truncate":
        return text[:rng.randrange(len(text))]
    lines = text.splitlines()
    header, row = lines[0].split(","), rng.randrange(1, len(lines))
    cells, col, other = lines[row].split(","), rng.randrange(len(header)), rng.randrange(len(header) - 1)
    other += other >= col  # a column besides col
    if kind == "ragged":
        cells = cells[:-1] if rng.random() < 0.5 else cells + ["0.5"]
    elif kind in ("non-numeric", "huge", "non-finite"):
        cells[col] = rng.choice({"non-numeric": ["abc", "", "1.2.3", "1e"], "huge": ["1e300", "-2e12", "1e12", "-1e12"],
                                 "non-finite": ["nan", "inf", "-inf"]}[kind])
    elif kind == "duplicate":
        header[col] = header[other]
    elif kind == "swap":  # two names trade places, the values stay
        header[col], header[other] = header[other], header[col]
    else:
        rng.shuffle(header)
    lines[0], lines[row] = ",".join(header), ",".join(cells)
    return "\n".join(lines) + "\n"


def test_seeded_input_csv_mutations_exit_0_2_or_3(two_link_setup, capsys):
    """120 seeded mutations of `estimate`'s three input CSVs: observations, state and link poses.

    Each run returns 0, 2 or 3 with no traceback and no warning (warnings
    are errors here); a failing run prints one line. A run that exits 0
    writes only finite cells, and counts every non-finite reading of its
    observations as missing.
    """
    import warnings

    tmp_path, cfg = two_link_setup
    assert main(["simulate", "--config", write_config(tmp_path, cfg, "sim.json")]) == 0
    sim = Path(cfg["out"])
    files = {name: (sim / f"{name}.csv").read_text() for name in ("observations", "trajectory", "link_poses")}
    est_cfg = dict(cfg, out=str(tmp_path / "est"), sg={"window": 11, "order": 3})
    configs = {source: write_config(tmp_path, dict(est_cfg, inputs={
        "observations": str(sim / "observations.csv"), source: str(sim / f"{name}.csv")}), f"{source}.json")
        for source, name in (("state", "trajectory"), ("link_poses", "link_poses"))}

    rng = random.Random(2701)
    exits = {0: 0, 2: 0, 3: 0}
    for _ in range(120):
        name, kind = rng.choice(list(files)), rng.choice(MUTATIONS)
        source = {"trajectory": "state", "link_poses": "link_poses"}.get(name) or rng.choice(list(configs))
        for other, text in files.items():
            (sim / f"{other}.csv").write_text(_mutate_csv(text, kind, rng) if other == name else text)
        context = f"{kind} of {name}.csv, {source} run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rc = main(["estimate", "--config", configs[source], "--workers", "1"])
            except Exception as exc:
                raise AssertionError(context) from exc
        out, err = capsys.readouterr()
        context += f": exit {rc}, {err!r}"
        assert rc in exits and "Traceback" not in err, context
        assert len(err.splitlines()) == (rc != 0), context
        if rc == 0:
            for output in ("estimates.csv", "marginal_std.csv"):
                assert np.isfinite(np.array(read_rows(tmp_path / "est" / output)[1], dtype=float)).all(), context
            readings = np.array(read_rows(sim / "observations.csv")[1], dtype=float)[:, 1:]
            missing = json.loads((tmp_path / "est" / "manifest.json").read_text())["missing_readings"]
            assert missing == np.count_nonzero(~np.isfinite(readings)), context
            assert f"{missing} missing readings" in out, context
        exits[rc] += 1
    assert exits[0] > 20 and exits[2] > 60, exits
