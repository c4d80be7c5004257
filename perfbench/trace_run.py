"""Traced run: per-layer spans around the public functions of each layer.

After the workload's untraced run (inputs and timed `estimate` pairs),
this process replays the timed `simulate` and, on the first
TRACE_SAMPLES samples, its `estimate` serially through `mapdyn.cli.main`.
For the replay, the public functions the commands reach are wrapped on
their modules and classes in this process only (the program's files are not
changed), and each call records a span: name, start, end, parent, and the
sample it worked on. The replay's output files must match the digests of
the same commands run as child processes without tracing.

The sample of a span is found from the joint angles it was called with; a
call without them belongs to the sample of its parent span, or to the
sample last seen at the top of the command (`MapProblem`, the solver).
Spans of the whole run (parsing, set-up, CSV I/O) carry no sample.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
from checks import read_table, sha256
from measure import SIM_FILES, SIMULATE_SAMPLES, SetupFailed

RUN, SAMPLE, CALL = "run", "sample", "call"
TRACE_SAMPLES = 16

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.csv_read_ms_per_sample": "ms",
    "cli.csv_write_ms_per_sample": "ms",
    "cli.parallel_efficiency": "ratio",
    "model.parse_model_ms": "ms",
    "model.forward_kinematics_ms": "ms",
    "dynamics.kinematic_sweep_ms": "ms",
    "dynamics.kinematic_sweeps_per_sample": "count",
    "dynamics.constraint_assemble_ms": "ms",
    "dynamics.rnea_ms": "ms",
    "dynamics.assembler_init_ms": "ms",
    "sensors.measurement_assemble_ms": "ms",
    "estimator.map_problem_ms": "ms",
    "estimator.precision_ms": "ms",
    "estimator.factorize_ms": "ms",
    "estimator.solve_ms": "ms",
    "estimator.marginals_ms": "ms",
    "estimator.symbolic_ms": "ms",
    "estimator.check_rank_ms": "ms",
    "estimator.factor_nnz": "count",
    "estimator.factor_flops": "flop",
    "estimator.factor_bytes": "bytes",
    "estimator.factorize_failures": "count",
    "simharness.ground_truth_ms_per_sample": "ms",
    "simharness.observations_ms_per_sample": "ms",
    "spatial.hom_compose_us": "us",
    "spatial.adjoint_motion_us": "us",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    sample: int | None
    end: float = 0.0
    failed: bool = False


class Tracer:
    """Spans kept in memory; wrappers installed by `wrap` and removed by `close_all`."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.sample_of_q = {}
        self.current_sample = None
        self.installed = []
        self.missing = []
        self.solver = None

    @staticmethod
    def q_key(q):
        return np.ascontiguousarray(q, dtype=float).tobytes()

    def register_samples(self, q_rows):
        for k, q in enumerate(q_rows):
            self.sample_of_q.setdefault(self.q_key(q), k)

    def open(self, name, kind, q=None, sample=None) -> Span:
        parent = self.spans[self.stack[-1]] if self.stack else None
        if kind != RUN and sample is None:
            inherited = parent.sample if parent is not None else None
            looked_up = self.sample_of_q.get(self.q_key(q)) if q is not None else None
            if kind == CALL:
                sample = inherited if inherited is not None else looked_up
            else:
                sample = next((s for s in (looked_up, inherited, self.current_sample) if s is not None), None)
        top_level = parent is None or parent.parent is None
        if kind == SAMPLE and top_level:
            self.current_sample = sample
        span = Span(len(self.spans), name, 0.0, parent.id if parent else None, sample)
        self.spans.append(span)
        self.stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr, name, kind, q_index=None, on_result=None):
        """Replace `owner.attr` by a span-recording wrapper.

        `q_index` is the position of the joint angles among the arguments.
        """
        fn = owner.__dict__.get(attr)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            q = args[q_index] if q_index is not None and len(args) > q_index else None
            span = tracer.open(name, kind, q)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.failed = True
                raise
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        setattr(owner, attr, traced)
        self.installed.append((owner, attr, fn))

    def close_all(self):
        for owner, attr, fn in reversed(self.installed):
            setattr(owner, attr, fn)
        self.installed.clear()


def install(tracer: Tracer):
    """Wrap the public functions `simulate` and `estimate` reach, by layer."""
    import mapdyn.cli as cli
    import mapdyn.dynamics as dynamics
    import mapdyn.estimator as estimator
    import mapdyn.model.kinematics as kinematics
    import mapdyn.sensors as sensors
    import mapdyn.simharness as simharness

    def after_factorize(span, args, result):
        tracer.solver = args[0]

    w = tracer.wrap
    w(cli, "read_csv", "cli.read_csv", RUN)
    w(cli, "write_csv", "cli.write_csv", RUN)
    w(cli, "parse_model", "model.parse_model", RUN)
    w(cli, "forward_kinematics", "model.forward_kinematics", SAMPLE, q_index=1)
    w(dynamics, "forward_kinematics", "model.forward_kinematics", CALL, q_index=1)
    w(kinematics, "forward_kinematics", "model.forward_kinematics", CALL, q_index=1)
    w(dynamics, "kinematic_sweep", "dynamics.kinematic_sweep", CALL, q_index=1)
    w(sensors, "kinematic_sweep", "dynamics.kinematic_sweep", CALL, q_index=1)
    w(simharness, "rnea", "dynamics.rnea", CALL, q_index=1)
    w(dynamics.ConstraintAssembler, "__init__", "dynamics.ConstraintAssembler.__init__", RUN)
    w(dynamics.ConstraintAssembler, "assemble", "dynamics.ConstraintAssembler.assemble", SAMPLE, q_index=1)
    w(sensors.MeasurementAssembler, "__init__", "sensors.MeasurementAssembler.__init__", RUN)
    w(sensors.MeasurementAssembler, "assemble", "sensors.MeasurementAssembler.assemble", SAMPLE, q_index=1)
    w(estimator.MapProblem, "__init__", "estimator.MapProblem", SAMPLE)
    w(estimator.MapProblem, "check_rank", "estimator.check_rank", RUN)
    w(cli, "posterior_precision_terms", "estimator.posterior_precision_terms", SAMPLE)
    w(estimator, "structural_pattern", "estimator.structural_pattern", RUN)
    w(estimator.SparseCholeskySolver, "__init__", "estimator.SparseCholeskySolver.__init__", RUN)
    w(estimator.SparseCholeskySolver, "factorize", "estimator.factorize", SAMPLE, on_result=after_factorize)
    w(estimator.SparseCholeskySolver, "solve", "estimator.solve", SAMPLE)
    w(estimator.SparseCholeskySolver, "marginal_variances", "estimator.marginal_variances", SAMPLE)
    w(cli, "generate_ground_truth", "simharness.generate_ground_truth", RUN)
    w(cli, "generate_observations", "simharness.generate_observations", RUN)


# -- the traced run ------------------------------------------------------------


def traced(bench, seconds: float, results: Path) -> dict:
    """The untraced run, then the traced serial replay; per-layer metrics."""
    wl = bench.wl
    end_to_end = bench.untraced(seconds)
    untraced_ms = end_to_end["metrics"]["estimate_ms_per_sample"]["value"]
    import_s = cli_import_seconds()

    # the replayed estimate, first run untraced as a child process for the
    # reference digests
    sim = bench.inputs.out
    for stem in ("observations", "trajectory"):
        inputs.truncate_csv(sim / f"{stem}.csv", sim / f"{stem}_trace.csv", TRACE_SAMPLES)
    config = inputs.estimate_config(bench.work, bench.inputs, f"{wl.marginals}_trace", wl.marginals, "_trace")
    bench.configs[("_trace", wl.marginals)] = config
    bench.estimate("trace reference", "_trace", dataclasses.replace(wl, workers=1))

    import mapdyn.cli

    estimate_argv = ["estimate", "--config", str(config), "--workers", "1"]
    tracer = Tracer()
    _, trajectory = read_table(sim / "trajectory.csv")
    tracer.register_samples(trajectory[:, 1: 1 + (trajectory.shape[1] - 1) // 3])
    with contextlib.chdir(bench.work), open(bench.logs / "replay.log", "w") as log, contextlib.redirect_stdout(log):
        install(tracer)
        try:
            sim_root = traced_command(
                tracer, mapdyn.cli, ["simulate", "--config", str(bench.timed.sim_config), "--out", "replay_sim"])
            tracer.close_all()
            # plain, traced, traced, plain: a steady drift of the host's
            # speed cancels out of the ratio of the sums
            plain_s = replay(mapdyn.cli, estimate_argv + ["--out", "replay_plain"])
            install(tracer)
            est_root = traced_command(tracer, mapdyn.cli, estimate_argv + ["--out", "replay_est"])
            again = traced_command(tracer, mapdyn.cli, estimate_argv + ["--out", "replay_est"])
            tracer.close_all()
            plain_s += replay(mapdyn.cli, estimate_argv + ["--out", "replay_plain"])
        finally:
            tracer.close_all()
    traced_s = (est_root.end - est_root.start) + (again.end - again.start)
    for file in SIM_FILES:
        bench.ops.append(digest_op(f"replay simulate {file}", bench.work / "replay_sim" / file, bench.sim_digests[file]))
    for file, key in (("estimates.csv", ("_trace", "estimates.csv")),
                      ("marginal_std.csv", ("_trace", "marginal_std.csv", wl.marginals))):
        for out in ("replay_plain", "replay_est"):
            bench.ops.append(digest_op(f"replay {out} {file}", bench.work / out / file, bench.reference[key]))

    metrics = layer_metrics(tracer, sim_root, est_root, SIMULATE_SAMPLES, TRACE_SAMPLES)
    metrics["cli.import_s"] = import_s
    metrics["cli.parallel_efficiency"] = metrics.pop("_serial_ms_per_sample") / ((wl.workers or os.cpu_count()) * untraced_ms)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    metrics.update(spatial_microbench(bench.inputs.model, trajectory))
    record = bench.record(metrics, PER_LAYER_UNITS)
    record["end_to_end"] = end_to_end["metrics"]
    record["unwrapped"] = sorted(set(tracer.missing))
    results.mkdir(parents=True, exist_ok=True)
    spans_path = results / f"{bench.name}-seed{bench.seed}-spans-{time.strftime('%Y%m%dT%H%M%S')}.jsonl"
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.__dict__) + "\n")
    record["spans_file"] = str(spans_path.relative_to(results.parent.parent))
    return record


def replay(cli, argv) -> float:
    """Run one CLI command in this process; its wall time in seconds."""
    start = time.perf_counter()
    code = cli.main(argv)
    if code != 0:
        raise SetupFailed(f"replayed {argv[0]} exited {code}")
    return time.perf_counter() - start


def traced_command(tracer, cli, argv) -> Span:
    root = tracer.open(f"cli.{argv[0]}", RUN)
    try:
        replay(cli, argv)
    finally:
        tracer.close(root)
    return root


def digest_op(label, path: Path, expected: str) -> dict:
    digest = sha256(path) if path.is_file() else None
    problems = [] if digest == expected else [f"{path.name} differs from the untraced run"]
    return {"op": label, "ok": not problems, "problems": problems, "wall_s": 0.0}


def cli_import_seconds(repeats=3) -> float:
    """Median fresh-interpreter import of `mapdyn.cli` minus a bare interpreter."""

    def wall(code):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        return time.perf_counter() - start

    bare, full = [], []
    for _ in range(repeats):
        bare.append(wall("pass"))
        full.append(wall("import mapdyn.cli"))
    return statistics.median(full) - statistics.median(bare)


def layer_metrics(tracer: Tracer, sim_root: Span, est_root: Span, n_sim: int, n: int) -> dict:
    """Per-layer figures of the replayed commands, per sample or per run.

    `n_sim` and `n` are the sample counts of `simulate` and `estimate`.
    """
    spans = tracer.spans
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)

    def within(root):
        return [s for s in spans if root.id < s.id and s.start >= root.start and s.end <= root.end]

    sim_spans, est_spans = within(sim_root), within(est_root)

    def total_ms(group, name, self_time=False):
        return 1e3 * sum((s.end - s.start) - (child_time.get(s.id, 0.0) if self_time else 0.0)
                         for s in group if s.name == name)

    def per_sample(group, name, self_time=False, n=n):
        """Median over the samples of the (self) time in `name` spans."""
        by_sample = [0.0] * n
        for s in group:
            if s.name == name and s.sample is not None and s.sample < n:
                by_sample[s.sample] += (s.end - s.start) - (child_time.get(s.id, 0.0) if self_time else 0.0)
        return 1e3 * statistics.median(by_sample)

    fk = [s.end - s.start for s in sim_spans if s.name == "model.forward_kinematics"]
    sweeps_of = [0] * n
    for s in est_spans:
        if s.name == "dynamics.kinematic_sweep" and s.sample is not None and s.sample < n:
            sweeps_of[s.sample] += 1
    serial = [0.0] * n
    for s in est_spans:
        if s.parent == est_root.id and s.sample is not None and s.sample < n:
            serial[s.sample] += s.end - s.start
    solver = tracer.solver
    n_dim, band = (solver.n, solver.bandwidth) if solver is not None else (0, 0)
    return {
        "cli.csv_read_ms_per_sample": total_ms(est_spans, "cli.read_csv") / n,
        "cli.csv_write_ms_per_sample": total_ms(est_spans, "cli.write_csv") / n,
        "_serial_ms_per_sample": 1e3 * statistics.median(serial),
        "model.parse_model_ms": total_ms(est_spans, "model.parse_model"),
        "model.forward_kinematics_ms": 1e3 * statistics.fmean(fk) if fk else 0.0,
        "dynamics.kinematic_sweep_ms": per_sample(est_spans, "dynamics.kinematic_sweep"),
        "dynamics.kinematic_sweeps_per_sample": statistics.median(sweeps_of),
        "dynamics.constraint_assemble_ms": per_sample(est_spans, "dynamics.ConstraintAssembler.assemble", True),
        "dynamics.rnea_ms": per_sample(sim_spans, "dynamics.rnea", n=n_sim),
        "dynamics.assembler_init_ms": total_ms(est_spans, "dynamics.ConstraintAssembler.__init__"),
        "sensors.measurement_assemble_ms": per_sample(est_spans, "sensors.MeasurementAssembler.assemble", True),
        "estimator.map_problem_ms": per_sample(est_spans, "estimator.MapProblem"),
        "estimator.precision_ms": per_sample(est_spans, "estimator.posterior_precision_terms"),
        "estimator.factorize_ms": per_sample(est_spans, "estimator.factorize"),
        "estimator.solve_ms": per_sample(est_spans, "estimator.solve"),
        "estimator.marginals_ms": per_sample(est_spans, "estimator.marginal_variances"),
        "estimator.symbolic_ms": total_ms(est_spans, "estimator.structural_pattern")
        + total_ms(est_spans, "estimator.SparseCholeskySolver.__init__"),
        "estimator.check_rank_ms": total_ms(est_spans, "estimator.check_rank"),
        "estimator.factor_nnz": solver.factor_nnz if solver is not None else 0,
        # computed, not measured: banded Cholesky of order n, half-bandwidth b
        "estimator.factor_flops": n_dim * band * (band + 3),
        "estimator.factor_bytes": 8 * n_dim * (band + 1),
        "estimator.factorize_failures": sum(1 for s in est_spans if s.name == "estimator.factorize" and s.failed),
        "simharness.ground_truth_ms_per_sample": total_ms(sim_spans, "simharness.generate_ground_truth") / n_sim,
        "simharness.observations_ms_per_sample": total_ms(sim_spans, "simharness.generate_observations") / n_sim,
    }


def spatial_microbench(model_path: Path, trajectory, calls=20000, batches=5) -> dict:
    """Median per-call cost of `HomTransform` composition and `adjoint_motion`.

    The operands are the link poses of the workload's first sample; the calls
    are too short and too many for a span each.
    """
    from mapdyn.model import forward_kinematics, parse_model
    from mapdyn.spatial import adjoint_motion

    model = parse_model(model_path.read_text())
    poses = forward_kinematics(model, trajectory[0, 1: 1 + model.n_dof])
    operands = [(poses[i], poses[(i + 1) % len(poses)]) for i in range(len(poses))]
    rounds = calls // len(operands)

    def per_call_us(fn):
        times = []
        for _ in range(batches):
            start = time.perf_counter()
            for _ in range(rounds):
                for a, b in operands:
                    fn(a, b)
            times.append((time.perf_counter() - start) / (rounds * len(operands)))
        return statistics.median(times) * 1e6

    return {
        "spatial.hom_compose_us": per_call_us(lambda a, b: a @ b),
        "spatial.adjoint_motion_us": per_call_us(lambda a, b: adjoint_motion(a)),
    }
