"""Seeded, limit-aware inputs for the benchmark workloads.

Everything the program receives comes from files written here: the subject
landmarks, the model from `mapdyn model-gen`, and the trajectory, ground
truth and observations from `mapdyn simulate`. The workload seed fixes the
per-joint sine amplitude, frequency, phase and offset and the noise seed, so
the same seed gives byte-identical inputs.

Offsets and amplitudes are drawn inside `model.limits()`. A fixed offset
does not work: the README's `offset: 0.16` puts `jLeftKnee_roty` outside
its reversed range on a LeftFoot-rooted model and `simulate` exits 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RATE_HZ = 100.0
ROOT_LINK = "LeftFoot"
MASS_TOTAL = 75.9
CONTACT_LINKS = ["RightFoot", "RightToe", "LeftToe"]
MAX_DRAWS = 100


@dataclass
class Inputs:
    model: Path
    sensors: dict
    noise_seed: int
    sim_config: Path
    out: Path


def model_gen_config(work: Path) -> Path:
    """Config for `mapdyn model-gen`: the template scaled by the example landmarks."""
    from mapdyn.model import example_landmarks

    landmarks = work / "landmarks.json"
    landmarks.write_text(json.dumps({"landmarks": {k: list(v) for k, v in example_landmarks().items()}}))
    cfg = work / "model_gen.json"
    cfg.write_text(json.dumps({
        "subject": {"mass_total": MASS_TOTAL, "landmarks_file": landmarks.name},
        "root_link": ROOT_LINK,
        "out": "sim",
    }, indent=1))
    return cfg


def draw_trajectory(model, seed: int, n_samples: int):
    """Per-joint sine waveforms inside the joint limits, plus a noise seed.

    A draw is rejected, and the next one taken from the same stream, when
    the sampled series leaves the limits; `simulate` applies the same test.
    """
    from mapdyn.simharness import Sine, TrajectorySpec

    rng = np.random.default_rng(seed)
    noise_seed = int(rng.integers(2**31 - 1))
    lo, hi = model.limits()
    margin = 0.02 * (hi - lo)
    for _ in range(MAX_DRAWS):
        amplitude = rng.uniform(0.05, 0.4) * (hi - lo) / 2
        offset = rng.uniform(lo + amplitude + margin, hi - amplitude - margin)
        frequency = rng.uniform(0.3, 1.2, size=lo.size)
        phase = rng.uniform(0.0, 2 * np.pi, size=lo.size)
        waves = [Sine(*p) for p in zip(amplitude, frequency, phase, offset)]
        spec = TrajectorySpec(waves, n_samples / RATE_HZ, RATE_HZ)
        _, q, _, _ = spec.sample()
        if np.all((q >= lo) & (q <= hi)):
            trajectory = {
                joint.name: {"kind": "sine", "amplitude": float(a), "frequency": float(f),
                             "phase": float(p), "offset": float(o)}
                for joint, a, f, p, o in zip(model.joints, amplitude, frequency, phase, offset)
            }
            return trajectory, noise_seed
    raise RuntimeError(f"no trajectory inside the joint limits after {MAX_DRAWS} draws")


def simulate_config(work: Path, model_path: Path, seed: int, n_samples: int, out: str) -> Inputs:
    """Draw the trajectory for `seed` and write the `mapdyn simulate` config.

    The config is `<out>.json` and `simulate` writes to the directory `out`.
    """
    from mapdyn.model import parse_model

    model = parse_model(model_path.read_text())
    trajectory, noise_seed = draw_trajectory(model, seed, n_samples)
    sensors = {"contact_links": CONTACT_LINKS}
    cfg = work / f"{out}.json"
    cfg.write_text(json.dumps({
        "model": str(model_path.relative_to(work)),
        "out": out,
        "seed": noise_seed,
        "scenario": {"duration": n_samples / RATE_HZ, "rate": RATE_HZ, "trajectory": trajectory},
        "sensors": sensors,
    }, indent=1))
    return Inputs(model_path, sensors, noise_seed, cfg, work / out)


def truncate_csv(src: Path, dst: Path, n_rows: int):
    """The header and the first `n_rows` data rows, bytes unchanged."""
    with open(src, "rb") as fh:
        lines = [fh.readline() for _ in range(n_rows + 1)]
    dst.write_bytes(b"".join(lines))


def estimate_config(work: Path, inputs: Inputs, name: str, marginals: str, suffix: str) -> Path:
    """Config for one `mapdyn estimate` over the `suffix` copy of the inputs."""
    cfg = work / f"estimate_{name}.json"
    cfg.write_text(json.dumps({
        "model": str(inputs.model.relative_to(work)),
        "out": f"est_{name}",
        "seed": inputs.noise_seed,
        "sensors": inputs.sensors,
        "inputs": {"observations": f"sim/observations{suffix}.csv", "state": f"sim/trajectory{suffix}.csv"},
        "marginals": marginals,
    }, indent=1))
    return cfg
