"""One benchmark run: inputs, timed `estimate` pairs, output checks, the record.

Per-sample cost is a slope. Each round runs `estimate` on the first
`n_short` samples and on the first `n_full` samples of the same inputs;
(wall_full - wall_short) / (n_full - n_short), over the medians of the
rounds, is the cost of one sample and what is left of the short run is the
fixed cost of one invocation. Each
round also times `simulate` on a fixed SIMULATE_SAMPLES-sample scenario.
Rounds repeat until the run's time is used up and the run reports medians
over them.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
from checks import EstimateChecker, sha256
from invoke import run_cli

SIM_FILES = ("trajectory.csv", "observations.csv", "ground_truth.csv", "link_poses.csv")
# The timed `simulate` is the same on every workload, so that
# `simulate_ms_per_sample` means the same on each. It is short, so that each
# round can run it: one long `simulate` per run caught the host's slow
# spells and spread by a factor of two.
SIMULATE_SAMPLES = 40
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    marginals: str
    workers: int | None  # None keeps the CLI default (one per core)
    n_full: int  # samples `simulate` makes for the inputs
    n_short: int  # the short run takes the same path (the pool needs >= 8 samples)
    counterpart: str | None  # same inputs on the other path; estimates.csv must match

    def estimate_args(self):
        return [] if self.workers is None else ["--workers", str(self.workers)]


WORKLOADS = {
    # ROADMAP's north-star run: per-sample assembly and the worker pool
    # dominate. 152 samples of slope, about 5 s, against about 3 s of
    # set-up in each run of the pair.
    "state-tau": Workload("tau", None, 160, 8, None),
    # All 1248 marginals in one process: the solve layer dominates, and a
    # pool change should show no change here. Its runs also check that the
    # pool path (state-tau's command) gives the same estimates.csv.
    "state-all-serial": Workload("all", 1, 32, 2, "state-tau"),
}

END_TO_END_UNITS = {
    "estimate_ms_per_sample": "ms",
    "setup_s": "s",
    "estimate_cpu_ms_per_sample": "ms",
    "estimate_peak_rss_mb": "MB",
    "simulate_ms_per_sample": "ms",
    "tau_rmse_nm": "N.m",
}


class SetupFailed(RuntimeError):
    """The run cannot produce its metrics (a set-up command or every pair failed)."""


class Bench:
    def __init__(self, work: Path, name: str, seed: int, timeout_s: float):
        self.work = work
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.timeout_s = timeout_s
        self.logs = work / "logs"
        self.logs.mkdir()
        self.ops = []  # one entry per CLI invocation
        self.reference = {}  # (input copy, output file) -> digest of its first run

    # -- invocations ---------------------------------------------------------

    def cli(self, args):
        return run_cli(args, self.work, self.logs, self.timeout_s)

    def _record(self, label, inv, problems):
        self.ops.append({"op": label, "ok": not problems, "problems": problems, "wall_s": inv.wall_s})

    def _require(self, label, inv):
        self._record(label, inv, [] if inv.ok else [f"exit code {inv.returncode}"])
        if not inv.ok:
            raise SetupFailed(f"{label} exited {inv.returncode}:\n{inv.log_tail}")

    def prepare(self):
        """model-gen, then simulate the seeded trajectory over n_full samples."""
        self.env = environment(self.wl)
        threads = self.env["blas_threads"]
        if any(n != 1 for n in threads.values()):
            self.ops.append({"op": "blas threads", "ok": False, "problems": [f"not 1 thread: {threads}"], "wall_s": 0.0})
        inv = self.cli(["model-gen", "--config", str(inputs.model_gen_config(self.work))])
        self._require("model-gen", inv)
        model = self.work / "sim" / "model.xml"
        self.inputs = inputs.simulate_config(self.work, model, self.seed, self.wl.n_full, "sim")
        self._require("simulate", self.cli(["simulate", "--config", str(self.inputs.sim_config)]))
        sim = self.inputs.out
        self.input_digests = {f: sha256(sim / f) for f in SIM_FILES}
        self.timed = inputs.simulate_config(self.work, model, self.seed, SIMULATE_SAMPLES, "sim_timed")
        self.sim_digests = None  # of the first timed `simulate`
        for stem in ("observations", "trajectory"):
            for suffix, n in (("_full", self.wl.n_full), ("_short", self.wl.n_short)):
                inputs.truncate_csv(sim / f"{stem}.csv", sim / f"{stem}{suffix}.csv", n)
        self.checker = EstimateChecker(self.inputs.model, sim / "ground_truth.csv")
        self.configs = {
            (suffix, marginals): inputs.estimate_config(self.work, self.inputs, f"{marginals}{suffix}", marginals, suffix)
            for suffix in ("_full", "_short") for marginals in ("tau", "all")
        }

    def estimate(self, label, suffix, workload: Workload):
        """One checked `estimate`; outputs must match earlier runs on the same inputs."""
        cfg = self.configs[(suffix, workload.marginals)]
        inv = self.cli(["estimate", "--config", str(cfg), *workload.estimate_args()])
        check = self.checker.check(self.work / f"est_{workload.marginals}{suffix}", inv.returncode, workload.marginals)
        problems = list(check.problems)
        for file, digest in check.digests.items():
            # estimates.csv does not depend on the marginals mode or the path
            key = (suffix, file) if file == "estimates.csv" else (suffix, file, workload.marginals)
            if self.reference.setdefault(key, digest) != digest:
                problems.append(f"{file} differs from the first run on the same inputs")
        self._record(label, inv, problems)
        return inv, check, not problems

    # -- the run -------------------------------------------------------------

    def timed_simulate(self):
        """`simulate` on the timed scenario; every run must give the same files."""
        inv = self.cli(["simulate", "--config", str(self.timed.sim_config)])
        problems = [] if inv.ok else [f"exit code {inv.returncode}"]
        if inv.ok:
            digests = {f: sha256(self.timed.out / f) for f in SIM_FILES}
            self.sim_digests = self.sim_digests or digests
            problems += [f"{f} differs from the first simulate" for f in SIM_FILES if digests[f] != self.sim_digests[f]]
        self._record("simulate", inv, problems)
        return inv, not problems

    def untraced(self, seconds: float) -> dict:
        """Rounds of short and full runs for `seconds`; medians over rounds.

        The host's speed drifts over seconds and now and then halves for a
        while, so a metric is the median of at least three measurements:
        there are at least three rounds, each of two `estimate` jobs in
        alternating order and one timed `simulate`, and a round starts while
        half of one fits in the time left.
        """
        wl = self.wl
        self.prepare()
        if wl.counterpart:
            # untimed: its estimates.csv is the reference the timed runs on
            # the other path must reproduce
            self.estimate(f"{wl.counterpart}_full", "_full", WORKLOADS[wl.counterpart])
        pairs, simulates = [], []
        start = time.perf_counter()
        while True:
            order = ("short", "full") if len(pairs) % 2 == 0 else ("full", "short")
            pairs.append({job: self.estimate(job, f"_{job}", wl) for job in order})
            inv, ok = self.timed_simulate()
            if ok:
                simulates.append(inv.wall_s)
            elapsed = time.perf_counter() - start
            if len(pairs) >= MIN_ROUNDS and elapsed + 0.5 * elapsed / len(pairs) > seconds:
                break
        good = [p for p in pairs if p["short"][2] and p["full"][2]]
        if not good or not simulates:
            raise SetupFailed("no estimate pair or no simulate succeeded: " + repr(self.ops[-3:]))

        def median(job, field):
            return statistics.median(getattr(p[job][0], field) for p in good)

        # the difference of the jobs' medians, not the median of per-round
        # differences: over eight seeds it spread 0.21 against 0.24 on state-tau
        dn = wl.n_full - wl.n_short
        slope = (median("full", "wall_s") - median("short", "wall_s")) / dn
        cpu_slope = (median("full", "cpu_s") - median("short", "cpu_s")) / dn
        full_check = good[0]["full"][1]
        metrics = {
            "estimate_ms_per_sample": slope * 1e3,
            "setup_s": median("short", "wall_s") - wl.n_short * slope,
            "estimate_cpu_ms_per_sample": cpu_slope * 1e3,
            "estimate_peak_rss_mb": median("full", "peak_rss_mb"),
            "simulate_ms_per_sample": statistics.median(simulates) / SIMULATE_SAMPLES * 1e3,
            "tau_rmse_nm": full_check.tau_rmse_nm,
        }
        record = self.record(metrics, END_TO_END_UNITS)
        record["pairs"] = [
            {kind: {"wall_s": inv.wall_s, "cpu_s": inv.cpu_s, "peak_rss_mb": inv.peak_rss_mb}
             for kind, (inv, _, _) in p.items()}
            for p in pairs
        ]
        record["simulate_wall_s"] = simulates
        record["calibration"] = {"max_rms_normalized_tau_error": full_check.calibration,
                                 "envelope": full_check.envelope, "n": wl.n_full}
        return record

    def record(self, metrics: dict, units: dict) -> dict:
        failed = sum(1 for op in self.ops if not op["ok"])
        return {
            "correct": failed == 0,
            "attempted": len(self.ops),
            "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
            "failed_ops_ratio": failed / len(self.ops),
            "workload": self.name,
            "seed": self.seed,
            "noise_seed": self.inputs.noise_seed,
            "n_full": self.wl.n_full,
            "n_short": self.wl.n_short,
            "ops": self.ops,
            "digests": {"inputs": self.input_digests, "simulate": self.sim_digests,
                        **{f"estimate{'/'.join(k)}": v for k, v in self.reference.items()}},
            "environment": self.env,
        }


def blas_threads() -> dict:
    """Threads each bundled OpenBLAS copy will use, read back through ctypes."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    found = {}
    for package, symbol in ((numpy, "scipy_openblas_get_num_threads64_"), (scipy, "scipy_openblas_get_num_threads")):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("libscipy_openblas*.so")):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[f"{package.__name__}.libs/{lib.name}"] = fn()
    return found


def environment(workload: Workload) -> dict:
    import scipy

    import mapdyn

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workers": workload.workers or os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mapdyn": mapdyn.__version__,
        "machine": platform.machine(),
        "limits": "shared host: no file-cache dropping, CPU pinning or frequency control; "
                  "timings are medians over the rounds of a run",
    }
