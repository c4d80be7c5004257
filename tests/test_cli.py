import csv
import json
from pathlib import Path

import numpy as np
import pytest

from mapdyn.cli import main
from mapdyn.model import parse_model

from conftest import TWO_LINK_XML


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


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

    @pytest.mark.parametrize("corrupt", ["non_numeric", "ragged"])
    def test_malformed_observation_row_exits_2(self, two_link_setup, capsys, corrupt):
        tmp_path, cfg = two_link_setup
        config, _ = self._simulate(tmp_path, cfg)
        obs = Path(cfg["out"]) / "observations.csv"
        lines = obs.read_text().splitlines()
        cells = lines[3].split(",")
        lines[3] = ",".join(cells[:1] + ["abc"] + cells[2:] if corrupt == "non_numeric" else cells[:-1])
        obs.write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--config", config, "--workers", "1"]) == 2
        assert f"{obs}, line 4" in capsys.readouterr().err

    def test_one_kinematic_sweep_per_sample(self, two_link_setup, monkeypatch):
        """A serial run sweeps once per sample, plus once for the rank check."""
        import mapdyn.dynamics
        import mapdyn.sensors

        tmp_path, cfg = two_link_setup
        config, n_samples = self._simulate(tmp_path, cfg)
        calls = []
        sweep = mapdyn.dynamics.kinematic_sweep

        def counting_sweep(*args, **kwargs):
            calls.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(mapdyn.dynamics, "kinematic_sweep", counting_sweep)
        monkeypatch.setattr(mapdyn.sensors, "kinematic_sweep", counting_sweep)
        assert main(["estimate", "--config", config, "--workers", "1"]) == 0
        assert len(calls) == n_samples + 1


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


class TestSensorPose:
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
