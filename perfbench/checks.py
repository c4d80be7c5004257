"""Output checks for one `mapdyn estimate` run.

A run fails when the CLI exits non-zero, when `estimates.csv` or
`marginal_std.csv` holds a non-finite value or a header other than the
layout's `column_names()`, or when the torque marginals are not calibrated.
The calibration test is acceptance 05's envelope: over the joints, the
largest RMS of (tau_hat - tau) / sigma_hat stays within 1 + 3.5 / sqrt(2 N).
It applies from CALIBRATION_MIN_SAMPLES samples on: the envelope holds each
joint to 3.5 sigma, and on a few samples the skewed distribution of the RMS
would let one of 48 correct joints cross it too often.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CALIBRATION_MIN_SAMPLES = 20


@dataclass
class EstimateCheck:
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    tau_rmse_nm: float = float("nan")
    calibration: float = float("nan")
    envelope: float = float("nan")

    @property
    def ok(self) -> bool:
        return not self.problems


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_table(path: Path):
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


class EstimateChecker:
    """Expected headers and ground truth for one set of workload inputs."""

    def __init__(self, model_path: Path, ground_truth: Path):
        from mapdyn.dynamics import DynLayout
        from mapdyn.model import parse_model

        layout = DynLayout(parse_model(model_path.read_text()))
        names = layout.column_names()
        self.tau_names = [names[i] for i in layout.tau_indices()]
        self.estimates_header = ["time"] + names
        self.marginals_headers = {"all": self.estimates_header, "tau": ["time"] + self.tau_names}
        gt_header, gt = read_table(ground_truth)
        self.tau_truth = gt[:, [gt_header.index(n) for n in self.tau_names]]

    def check(self, out_dir: Path, returncode: int, marginals: str) -> EstimateCheck:
        result = EstimateCheck()
        if returncode != 0:
            result.problems.append(f"exit code {returncode}")
            return result
        est_path, marg_path = out_dir / "estimates.csv", out_dir / "marginal_std.csv"
        try:
            result.digests = {"estimates.csv": sha256(est_path), "marginal_std.csv": sha256(marg_path)}
            est_header, est = read_table(est_path)
            marg_header, marg = read_table(marg_path)
        except (OSError, ValueError) as exc:
            result.problems.append(f"unreadable output: {exc}")
            return result
        if est_header != self.estimates_header:
            result.problems.append("estimates.csv header differs from the layout")
        if marg_header != self.marginals_headers[marginals]:
            result.problems.append("marginal_std.csv header differs from the layout")
        for name, data in (("estimates.csv", est), ("marginal_std.csv", marg)):
            if not np.all(np.isfinite(data)):
                result.problems.append(f"non-finite value in {name}")
        if result.problems:
            return result
        n = est.shape[0]
        tau_hat = est[:, [est_header.index(c) for c in self.tau_names]]
        sigma = marg[:, [marg_header.index(c) for c in self.tau_names]]
        err = tau_hat - self.tau_truth[:n]
        result.tau_rmse_nm = float(np.sqrt(np.mean(err**2)))
        result.calibration = float(np.max(np.sqrt(np.mean((err / sigma) ** 2, axis=0))))
        result.envelope = 1.0 + 3.5 / np.sqrt(2 * n)
        if n >= CALIBRATION_MIN_SAMPLES and not result.calibration <= result.envelope:
            result.problems.append(
                f"tau calibration {result.calibration:.3f} above envelope {result.envelope:.3f}"
            )
        return result
