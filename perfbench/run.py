"""synthpanel benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload horizon_sweep --seed 1 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps
synthpanel's public functions and reports the per-layer metrics. The
last line of standard output is the JSON result; the line before it is
the run record (environment, digest, failures). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("s_sweep", "horizon_sweep", "covariate_study", "state_pipeline")
# Setup is timed this many times per run, each in a fresh interpreter.
SETUP_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One process drives the load; one BLAS thread keeps it to one core's worth.
BLAS_THREADS = "1"
END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", dest="setup_only", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(workload, seconds, tracer=None, targets=None):
    """Run ops in whole cycles until ``seconds`` have passed.

    Op 0 runs once untimed first; its timed rerun must write the same
    bytes. With a tracer, even cycles run traced and odd cycles
    untraced, and the run ends after an untraced cycle.
    """
    import checks
    import tracing

    tally = checks.Tally()
    ops = []  # (op index, traced, wall ns, cpu s)
    digest = hashlib.sha256()
    _, reference = workload.check(0, workload.call(workload.inputs(0)))
    undo: list = []
    started = time.perf_counter()
    i = 0
    while True:
        cycle, position = divmod(i, workload.cycle)
        if position == 0:
            tracing.uninstall(undo)
            if i and time.perf_counter() - started >= seconds and (tracer is None or cycle % 2 == 0):
                break
            if tracer is not None and cycle % 2 == 0:
                undo = tracing.install(tracer, *targets)
        traced = bool(undo)
        inputs = workload.inputs(i)
        if traced:
            tracer.op = i
            root = tracer.begin("bench.op")
        cpu0, t0 = cpu_seconds(), time.perf_counter_ns()
        try:
            result = workload.call(inputs)
            error = None
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        t1, cpu1 = time.perf_counter_ns(), cpu_seconds()
        if traced:
            tracer.finish(root)
            tracer.op = None
        if error is None:
            problems, output = workload.check(i, result)
        else:
            problems, output = [error], b""
        if i == 0 and output != reference:
            problems = problems + ["rerun of op 0 wrote different bytes"]
        if cycle == 0:
            digest.update(output)
        tally.add(i, problems)
        ops.append((i, traced, t1 - t0, cpu1 - cpu0))
        i += 1
    tracing.uninstall(undo)
    return ops, tally, digest.hexdigest()


def time_setup(args) -> list[float]:
    """Wall seconds of SETUP_REPEATS fresh interpreters that import and build inputs."""
    samples = []
    for k in range(SETUP_REPEATS):
        workdir = work_root() / f"{args.workload}-seed{args.seed}-setup{k}"
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--setup-only", str(workdir)]
        t0 = time.perf_counter()
        # A blocking wait: Popen.wait with a timeout polls every 50 ms,
        # which would quantize the sample.
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL) as child:
            code = child.wait()
        samples.append(time.perf_counter() - t0)
        shutil.rmtree(workdir, ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"setup process exited with {code}")
    return samples


def work_root() -> Path:
    return Path(".perfbench_run")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "synthpanel" / "__init__.py").is_file():
        print(f"perfbench: no synthpanel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, Path(args.setup_only)).setup()
        return 0

    import benchstats
    import environment
    import layers
    import tracing

    workdir = work_root() / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        reference_start = environment.reference_kernel_ms()
        t0 = time.perf_counter()
        workload.setup()
        setup_in_process = time.perf_counter() - t0
        tracer = targets = None
        if args.trace:
            import synthpanel

            tracer = tracing.Tracer()
            modules = {name: getattr(synthpanel, name) for name in layers.LAYERS}
            targets = (
                [(modules[m], fn, span, describe) for m, fn, span, describe in layers.TARGETS],
                [synthpanel, *modules.values()],
                [modules["cli"].COMMANDS],
            )
        ops, tally, digest = measure(workload, args.seconds, tracer, targets)
        rss = peak_rss_mb()
        reference_end = environment.reference_kernel_ms()
        setup_samples = [] if args.trace else time_setup(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root().rmdir()
        except OSError:
            pass

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "replications": workload.replications,
        "ops": len(ops),
        "ops_per_cycle": workload.cycle,
        "digest_sha256": digest,
        "failures": tally.messages,
        "reference_kernel_ms": {"start": reference_start, "end": reference_end},
        "setup_in_process_s": setup_in_process,
        "environment": environment.describe(),
    }
    correct = tally.failed == 0
    exit_code = 0
    if args.trace:
        wall = {flag: [ns for _, traced, ns, _ in ops if traced == flag] for flag in (True, False)}
        overhead = (sum(wall[True]) / len(wall[True])) / (sum(wall[False]) / len(wall[False]))
        first_cycle = {i for i, *_ in ops[: workload.cycle]}
        values, unreached = layers.per_layer_metrics(tracer.spans, first_cycle, overhead)
        missing = layers.missing_spans(tracer.spans, workload.expected_spans)
        record.update(traced_ops=len(wall[True]), spans=len(tracer.spans), unreached=unreached, missing_spans=missing)
        if missing:
            print(f"perfbench: expected spans recorded no call: {', '.join(missing)}", file=sys.stderr)
            correct, exit_code = False, 1
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
    else:
        wall_ms = [ns / 1e6 for _, _, ns, _ in ops]
        units = sum(workload.units(i) for i, *_ in ops)
        tail_q = benchstats.tail_percentile(len(ops), workload.tail_q)
        record.update(tail_percentile=tail_q, setup_samples_s=setup_samples, failed_ratio=tally.failed_ratio)
        values = {
            "throughput_per_s": units / (sum(wall_ms) / 1e3),
            "op_ms_p50": benchstats.median(wall_ms),
            "op_ms_tail": benchstats.percentile(wall_ms, tail_q),
            "cpu_ms_per_op": 1e3 * sum(cpu for *_, cpu in ops) / len(ops),
            "peak_rss_mb": rss,
            "setup_s": benchstats.median(setup_samples),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        print(f"{args.workload} seed={args.seed}: {len(ops)} ops, R={workload.replications}, "
              f"throughput in {workload.unit} per second, tail = p{tail_q:g} of {len(ops)} ops")
        for name, metric in metrics.items():
            print(f"  {name:<18} {metric['value']:12.4f} {metric['unit']}")
        print(f"  {'failed_ratio':<18} {tally.failed_ratio:12.4f} ratio ({tally.failed}/{tally.attempted})")
    for message in tally.messages:
        print(f"perfbench: failed {message}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
