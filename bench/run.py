"""Time-to-verdict benchmark for chernforms.

Run from the root of a checkout:

    python3 bench/run.py --workload rank-heavy --seed 1 --seconds 15 --trace 0

One closed-loop client in one process calls ``chernforms.cli.run(argv)``
in-process, starting each op when the previous one returns, with stdout
captured.  Every output is checked by an oracle outside the timed region.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a separate
traced run and prints per-layer self time, calls and counts.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  Exit
code 2 means the program could not be found or imported.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the determinants are tiny, and a
# second thread only competes with other tenants of a small shared host.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import dataclasses
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from hostspeed import REF_SECONDS, reference, reference_median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("rank-heavy", "dim-heavy", "exact-build", "model-rr")

#: set-up is timed in this many fresh interpreters; setup_s is their median
SETUP_PROBES = 9

#: seconds of ops between two runs of the reference kernel
REF_EVERY = 0.2

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

REPORT_COUNT_UNITS = {
    "schur.checks": "count",
    "schur.chain_steps": "count",
    "forms.samples": "count",
    "cli.report_bytes": "bytes",
}


def per_layer_units() -> dict[str, str]:
    """Every metric a traced run prints, with its unit."""
    from tracing import LAYERS, TRACED, span_name

    units = {}
    for module, attr in TRACED:
        units[f"{span_name(module, attr)}.self_s"] = "s"
        units[f"{span_name(module, attr)}.calls"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["chern.terms"] = "count"
    units["schur.form_terms"] = "count"
    units.update(REPORT_COUNT_UNITS)
    units["forms.nonnegative_sampled.worst_margin"] = "1"
    units["trace_overhead"] = "1"
    return units


# ----------------------------------------------------------------------
# ops


def call(argv) -> tuple[float, object, str]:
    """One op: (wall seconds, exit code or None if it raised, stdout)."""
    from chernforms import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.run(list(argv))
        except Exception:
            code = None
            out = io.StringIO(traceback.format_exc())
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue()


def run_op(argv) -> tuple[object, str]:
    _, code, text = call(argv)
    return code, text


@dataclasses.dataclass
class Loop:
    times: list            # times[pass][k]: wall seconds of pool op k in that pass
    refs: list             # refs[pass][k]: reference seconds around that run
    outputs: list          # (code, stdout) of each pool op's first run
    mismatches: set        # pool ops with a later run whose output differed

    @property
    def ops(self) -> int:
        return sum(len(t) for t in self.times)

    def best(self) -> list[float]:
        """Each pool op's fastest wall time."""
        return [min(column) for column in zip(*self.times)]

    def scaled(self) -> list[float]:
        """Each pool op's time at reference speed: the median over its runs
        of wall time over the reference time measured around the run, in
        units of REF_SECONDS."""
        return [REF_SECONDS * statistics.median(t / r for t, r in zip(times, refs))
                for times, refs in zip(zip(*self.times), zip(*self.refs))]


def timed_loop(pool, seconds: float = 0.0, passes: int = 0) -> Loop:
    """Whole passes over the pool until ``seconds`` of wall time have gone,
    or exactly ``passes`` passes when that is given.  The reference kernel
    runs whenever REF_EVERY seconds of ops have gone since it last ran; each
    op run is charged the mean of the two reference times around it."""
    times, refs, outputs, mismatches = [], [], [None] * len(pool), set()
    pending, since, last = [], 0.0, reference()

    def sample():
        nonlocal pending, since, last
        now = reference()
        for row, column in pending:
            refs[row][column] = (last + now) / 2
        pending, since, last = [], 0.0, now

    start = time.perf_counter()
    while True:
        times.append([])
        refs.append([None] * len(pool))
        for index, op in enumerate(pool):
            seconds_op, code, text = call(op.argv)
            times[-1].append(seconds_op)
            pending.append((len(times) - 1, index))
            since += seconds_op
            if since >= REF_EVERY:
                sample()
            if outputs[index] is None:
                outputs[index] = (code, text)
            elif outputs[index] != (code, text):
                mismatches.add(index)
        if (len(times) >= passes) if passes else (time.perf_counter() - start >= seconds):
            if pending:
                sample()
            return Loop(times, refs, outputs, mismatches)


# ----------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, workdir: str):
    """Import chernforms, build the op pool, run one warm-up op."""
    import chernforms
    import workloads

    if not os.path.abspath(chernforms.__file__).startswith(SRC + os.sep):
        raise ImportError(f"chernforms imported from {chernforms.__file__}, not {SRC}")
    pool = workloads.WORKLOADS[workload](seed, workdir, run_op)
    call(pool[0].argv)
    return pool


def probe_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Interpreter start + set-up in fresh processes: (wall seconds of each,
    reference times measured before and after each).  Each child prints
    time.perf_counter() when its set-up ends, then the reference time it
    measures right after.  On Linux that clock is CLOCK_MONOTONIC, shared by
    all processes, and reading it in the child leaves interpreter teardown
    and the parent's wait out of the sample."""
    wall, refs = [], []
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_PROBES):
        refs.append(reference_median())
        start = time.perf_counter()
        child = subprocess.run(command, check=True, cwd=ROOT, capture_output=True,
                               text=True, timeout=120)
        end, ref = map(float, child.stdout.split())
        wall.append(end - start)
        refs.append(ref)
    return wall, refs


# ----------------------------------------------------------------------
# checks and counts


def judge(pool, loop: Loop, rerun) -> tuple[bool, int, list[str]]:
    """(correct, failed pool ops, notes).  A pool op fails when its first
    output fails its oracle or a later run of it gives other output, so
    ``failed`` counts pool ops, not runs, and does not move with the number
    of passes.  ``correct`` is false on any failure other than the
    documented false FAIL, and when the rerun differs."""
    notes, correct, failed = [], True, 0
    for index, (op, (code, text)) in enumerate(zip(pool, loop.outputs)):
        failure = op.check(code, text)
        if failure is not None:
            correct = correct and failure.known
            notes.append(f"{' '.join(op.argv)}: {failure.reason}")
        if index in loop.mismatches:
            correct = False
            notes.append(f"{' '.join(op.argv)}: repeated runs gave different output")
        failed += failure is not None or index in loop.mismatches
    if rerun != loop.outputs[0]:
        correct = False
        notes.append("rerun of the first op is not byte-identical")
    return correct, failed, notes


def report_counts(loop: Loop) -> dict[str, float]:
    """Per-op counts read from the reports, and the worst sampled margin
    min_value / (tol * scale); below -1 is a FAIL.  0 when nothing is sampled."""
    totals = dict.fromkeys(REPORT_COUNT_UNITS, 0)
    margins = []
    for code, text in loop.outputs:
        totals["cli.report_bytes"] += len(text.encode())
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            continue
        sampled = [c["report"] for c in payload.get("checks", [])]
        totals["schur.checks"] += len(sampled)
        for chain in payload.get("chains", []):
            totals["schur.chain_steps"] += len(chain["steps"])
            sampled += [s["report"] for s in chain["steps"]]
        totals["forms.samples"] += sum(r["trials"] for r in sampled)
        margins += [r["min_value"] / (r["tol"] * r["scale"]) for r in sampled]
    out = {key: value / len(loop.outputs) for key, value in totals.items()}
    out["forms.nonnegative_sampled.worst_margin"] = min(margins, default=0.0)
    return out


def environment() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (f"python {platform.python_version()}, numpy {np.__version__}, blas {blas}, "
            f"nproc {os.cpu_count()}, OPENBLAS_NUM_THREADS=1, "
            f"single process, closed loop, 1 client")


# ----------------------------------------------------------------------
# runs


def untraced(args, pool, setup_samples) -> tuple[dict, list]:
    setup_wall, setup_refs = setup_samples
    loop = timed_loop(pool, seconds=args.seconds)
    rerun = run_op(pool[0].argv)
    correct, failed, notes = judge(pool, loop, rerun)
    scaled, best = loop.scaled(), loop.best()
    metrics = {
        "ops_per_s": (len(pool) - failed) / sum(scaled),
        "op_s.p50": statistics.median(scaled),
        "setup_s": REF_SECONDS * statistics.median(setup_wall) / statistics.median(setup_refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [f"{name} = {metrics[name]:.6g} {unit}" for name, unit in END_TO_END_UNITS.items()]
    lines[0] += (f"  ({len(pool)} pool ops, each the median of {len(loop.times)} runs "
                 f"at reference speed; wall, best of runs: "
                 f"{(len(pool) - failed) / sum(best):.6g})")
    lines[1] += f"  (wall, best of runs: {statistics.median(best):.6g})"
    lines[2] += (f"  (median of {len(setup_wall)} fresh processes; "
                 f"wall: {statistics.median(setup_wall):.6g})")
    # printed, not in the JSON line: the top of a few dozen per-op times is
    # the spread across instances and subcommands, not a gated figure
    lines.insert(2, f"op_s.p90 = {statistics.quantiles(scaled, n=10)[-1]:.6g} s  "
                    f"(n = {len(pool)} pool ops)")
    lines.append(f"fail_ratio = {failed / len(pool):.6g} 1  ({failed} of {len(pool)} pool ops, "
                 f"{loop.ops} runs)")
    lines += [f"{name} = {value:.6g}" for name, value in report_counts(loop).items()]
    return {"correct": correct, "attempted": len(pool), "failed": failed,
            "metrics": metrics}, lines + notes


def traced(args, pool) -> tuple[dict, list]:
    from tracing import LAYERS, Tracer

    # The untraced passes run first: run after the traced ones, they would
    # pay for the garbage collector walking the stored spans.
    plain = timed_loop(pool, seconds=args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        loop = timed_loop(pool, passes=len(plain.times))
    finally:
        tracer.uninstall()
    correct, failed, notes = judge(pool, loop, plain.outputs[0])
    if plain.outputs != loop.outputs or plain.mismatches:
        correct = False
        notes.append("traced reports differ from untraced ones")
    ops = loop.ops
    metrics, lines = {}, []
    root = tracer.root_seconds()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (self_s, calls) in tracer.per_function().items():
        metrics[f"{name}.self_s"] = self_s / ops
        metrics[f"{name}.calls"] = calls / ops
        layer_self[name.split(".")[0]] += self_s
        if calls:
            lines.append(f"{name}: self {self_s / ops:.4g} s/op ({100 * self_s / root:.1f}%), "
                         f"{calls / ops:.4g} calls/op")
    for layer, self_s in layer_self.items():
        metrics[f"{layer}.self_s"] = self_s / ops
        lines.append(f"layer {layer}: self {self_s / ops:.4g} s/op ({100 * self_s / root:.1f}%)")
    for key in ("chern.terms", "schur.form_terms"):
        metrics[key] = tracer.counts.get(key, 0) / ops
    metrics.update(report_counts(loop))
    metrics["trace_overhead"] = sum(plain.scaled()) / sum(loop.scaled())
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}.jsonl")
    tracer.write(spans_path)
    lines.append(f"{len(tracer.spans)} spans over {ops} traced ops written to "
                 f"{os.path.relpath(spans_path, ROOT)}")
    return {"correct": correct, "attempted": len(pool), "failed": failed,
            "metrics": metrics}, lines + notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="wall time of the timed loop (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit: the process timed for setup_s")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "chernforms", "__init__.py")):
        print(f"error: no chernforms sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            end = time.perf_counter()
            print(end, reference_median())
            return 0
        setup_samples = None if args.trace else probe_setup(args.workload, args.seed)
        pool = setup(args.workload, args.seed, workdir)
        if args.trace:
            result, lines = traced(args, pool)
        else:
            result, lines = untraced(args, pool, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# {args.workload} seed {args.seed}: {environment()}")
    for line in lines:
        print(line)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    print(json.dumps({**result, "metrics": {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
