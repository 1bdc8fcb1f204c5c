#!/usr/bin/env python3
"""Benchmark for the deconv library and CLI command bodies.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

runs one workload from the checkout it sits in, in a closed loop: one
caller in one process, one operation at a time, passes over the workload's
operation list until --seconds have gone by (at least one pass).  BLAS
threads are capped at the number of usable cores before numpy loads.
Every operation's output is checked (checks.py) and compared byte for
byte with the same operation's output from earlier passes of the run.

--trace 0 reports the end-to-end metrics from untraced passes.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (tracing.py), with the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  A fuller report,
with the spans of a traced run, goes to .perfbench_out/ in the checkout.

Other modes: --write-benchmark-json regenerates BENCHMARK.json from
spec.py; --record-reference records reference.json from the shipped
configs (run it only when the program's outputs are meant to change).
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = NPROC
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402  (thread caps must precede any numpy import)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import checks  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
# Set-up is a fraction of a second and the noisiest thing measured: report
# the median of this many fresh processes plus the benchmark's own.
SETUP_PROBES = 6


class BenchError(Exception):
    """The benchmark cannot run here (no program, no configs)."""


def timed_setup(config_paths: dict) -> tuple:
    """Import numpy and deconv, load and validate the configs."""
    start = time.perf_counter()
    import numpy  # noqa: F401
    from deconv import commands, config  # noqa: F401  (all layers)
    configs = {name: config.load_config(path)
               for name, path in config_paths.items()}
    return time.perf_counter() - start, configs


def _setup_probe(config_dir: str) -> None:
    paths = {name: os.path.join(config_dir, f"config-{name}.json")
             for name in workloads.KERNELS}
    sys.path.insert(0, SRC)
    print(repr(timed_setup(paths)[0]))


def setup_probe_times(config_dir: str) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             config_dir], cwd=ROOT, capture_output=True, text=True,
            timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def import_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "deconv", "__init__.py")):
        raise BenchError(f"no deconv sources under {SRC}")
    if not os.path.isdir(os.path.join(ROOT, "configs")):
        raise BenchError(f"no configs/ in {ROOT}")
    sys.path.insert(0, SRC)


@dataclass
class OpRun:
    op: workloads.Op
    pass_index: int
    traced: bool
    op_id: int
    seconds: float
    warnings: int
    problems: list
    output: object = None       # digest of what the op wrote or returned


def run_pass(ops, pass_dir, pass_index, tracer, next_id) -> list:
    """Time each op of one pass, then check it outside the timed region."""
    timed = []
    for i, op in enumerate(ops):
        out_dir = os.path.join(pass_dir, f"{i}-{op.name.replace(':', '-')}")
        count = [0]

        def show(*_args, **_kwargs):
            count[0] += 1
            if tracer is not None:
                tracer.record_warning()

        if tracer is not None:
            tracer.begin_op(next_id + i)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = show
            start = time.perf_counter()
            try:
                value, exc = op.run(out_dir), None
            except Exception as error:  # one op failing must not end the run
                value, exc = None, error
            seconds = time.perf_counter() - start
        timed.append((op, out_dir, value, exc, seconds, count[0]))

    runs = []
    for i, (op, out_dir, value, exc, seconds, n_warn) in enumerate(timed):
        try:
            problems = op.check(out_dir, value, exc)
        except Exception:  # an unreadable output is a failed op
            problems = ["check could not read the output: "
                        + traceback.format_exc(limit=2)]
        if op.files:
            output = checks.digest(out_dir) if os.path.isdir(out_dir) \
                else None
        else:
            output = None if value is None else json.dumps(value.as_dict(),
                                                           sort_keys=True)
        runs.append(OpRun(op, pass_index, tracer is not None, next_id + i,
                          seconds, n_warn, problems, output))
    return runs


def tail_percentile(samples: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def quantity(name: str, value, unit: str) -> str:
    return f"{name} = {value:.6g} {unit}"


def run_passes(ops, seconds: float, trace: int, work_dir: str, tracer):
    """Passes until `seconds` are gone, at least one; with tracing, odd
    passes are traced and there is at least one pass of each kind."""
    runs, first_output = [], {}
    deadline = time.perf_counter() + seconds
    index = 0
    while not (time.perf_counter() >= deadline and index >= 1 + trace):
        traced = bool(trace) and index % 2 == 1
        pass_dir = os.path.join(work_dir, f"pass{index}")
        if traced:
            tracer.install()
        try:
            this_pass = run_pass(ops, pass_dir, index,
                                 tracer if traced else None,
                                 index * len(ops))
        finally:
            if traced:
                tracer.uninstall()
        shutil.rmtree(pass_dir, ignore_errors=True)
        for run in this_pass:
            if run.output != first_output.setdefault(run.op.name, run.output):
                run.problems.append("output differs from the same op's "
                                    "first output in this run")
        runs += this_pass
        index += 1
    return runs


def pass_walls(runs, traced: bool) -> list:
    """Time of each pass: the sum of its ops' times (checks excluded)."""
    walls = {}
    for run in runs:
        if run.traced == traced:
            walls[run.pass_index] = walls.get(run.pass_index, 0.0) \
                + run.seconds
    return list(walls.values())


def run_workload(args, work_dir: str) -> dict:
    config_dir = os.path.join(work_dir, "configs")
    os.makedirs(config_dir)
    config_paths = workloads.write_configs(ROOT, args.seed, config_dir)
    own_setup, configs = timed_setup(config_paths)
    import deconv
    import numpy
    if not os.path.abspath(deconv.__file__).startswith(SRC + os.sep):
        raise BenchError(f"deconv imported from {deconv.__file__}, "
                         f"not from {SRC}")
    setup_samples = [own_setup] + setup_probe_times(config_dir)

    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    ops = workloads.build_ops(args.workload, configs, reference)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    runs = run_passes(ops, args.seconds, args.trace, work_dir, tracer)

    walls = pass_walls(runs, traced=False)
    op_times = [r.seconds for r in runs if not r.traced]
    failed = [r for r in runs if r.problems]
    e2e = {
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(op_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }
    tail = tail_percentile(op_times)
    environment = {"nproc": NPROC, "blas_threads": BLAS_THREADS,
                   "python": platform.python_version(),
                   "numpy": numpy.__version__,
                   "load": "closed loop, 1 caller, 1 op at a time"}
    lines = [f"workload {args.workload}, seed {args.seed}, "
             f"{len(walls)} untraced passes, trace {args.trace}",
             ", ".join(f"{k} {v}" for k, v in environment.items())]
    lines += [f"op {op.name}: " + ", ".join(f"{k}={v}" for k, v in
                                             op.sizes.items()) for op in ops]
    lines += [
        quantity("wall_s", e2e["wall_s"], "s")
        + f" (median of {len(walls)} passes)",
        quantity("op_p50_s", e2e["op_p50_s"], "s") + f" (n={len(op_times)})",
        (quantity("op_tail_s", tail[0], "s")
         + f" (p{tail[1]:.1f}, n={len(op_times)})") if tail else
        f"op_tail_s omitted: {len(op_times)} ops, fewer than 11",
        quantity("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        quantity("setup_s", e2e["setup_s"], "s")
        + f" (median of {len(setup_samples)} processes)",
        f"failed_ratio = {len(failed)}/{len(runs)} = "
        f"{len(failed) / len(runs):.6g}",
        f"warnings captured = {sum(r.warnings for r in runs)}",
    ]
    lines += [f"FAILED {r.op.name} pass {r.pass_index}: {p}"
              for r in failed for p in r.problems]
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment,
              "op_sizes": {op.name: op.sizes for op in ops},
              "ops": [{"op": r.op.name, "pass": r.pass_index,
                       "traced": r.traced, "seconds": r.seconds,
                       "warnings": r.warnings, "problems": r.problems}
                      for r in runs],
              "setup_samples_s": setup_samples, "end_to_end": e2e,
              "op_tail_s": tail and {"value": tail[0], "percentile": tail[1]},
              "failed_ratio": len(failed) / len(runs)}

    if args.trace:
        traced_walls = pass_walls(runs, traced=True)
        traced_wall = statistics.median(traced_walls)
        values = tracer.layer_metrics(
            {r.op_id for r in runs if r.traced}, len(traced_walls),
            traced_wall, traced_wall - e2e["wall_s"])
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in spec.per_layer_metrics()}
        report["per_layer"] = values
        report["spans"] = tracer.span_records()
        lines += [tracing.WAIT_NOTE,
                  "pairs = output points x input samples, computed from "
                  "argument sizes; per-layer values are per traced pass"]
        lines += [quantity(n, m["value"], m["unit"])
                  for n, m in metrics.items()]
    else:
        metrics = {n: {"value": e2e[n], "unit": u}
                   for n, u, _bound in spec.END_TO_END}

    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("\n".join(lines))
    return {"correct": not failed, "attempted": len(runs),
            "failed": len(failed), "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="CONFIG_DIR",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-benchmark-json", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it becomes the config "
                     "seed)")
    if not (args.workload or args.setup_probe or args.write_benchmark_json
            or args.record_reference):
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.setup_probe)
        return 0
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(spec.render_benchmark_json())
        return 0
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        import_program()
        os.makedirs(work_dir)
        if args.record_reference:
            from deconv.config import load_config
            configs = {name: load_config(os.path.join(ROOT, "configs",
                                                      f"{name}.json"))
                       for name in workloads.KERNELS}
            ref = workloads.record_reference(configs, work_dir)
            with open(REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(ref, fh, indent=1, sort_keys=True)
                fh.write("\n")
            return 0
        result = run_workload(args, work_dir)
    except (BenchError, ImportError, OSError,
            subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
