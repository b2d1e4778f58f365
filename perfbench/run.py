"""Benchmark of the choosability CLI and library.

    python3 perfbench/run.py --workload instances|oracle|bounds \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from `src/`.
It repeats the workload's round of operations until S seconds have
passed, checks every output, and prints one JSON object as its last line:
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json, measured untraced
with every round in a fresh interpreter of its own; with `--trace 1`
they are its per-layer metrics, from traced rounds that alternate with
untraced ones in this process. The lines above it give every metric by
name and unit, each operation kind's time, and the environment. Each run
also writes perfbench/_out/result-*.json, and a traced run every span to
perfbench/_out/trace-*.json.gz. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from types import SimpleNamespace

import workloads as W
from program import ROOT, BenchError, Timer, fresh_import, reference_loop
from tracing import Tracer, exercise_layers

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 10
REFERENCE_LOOPS = 20
# what one reference_loop takes on a quiet 2-vCPU VM under Python 3.11
NOMINAL_REFERENCE_S = 0.0004
# a run must end within 180 s; a round's interpreter still running then is killed
ROUNDS_DEADLINE_S = 170


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a
    checkout that is not a repository gives "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fresh_interpreter": True,
        "fresh_interpreter_per_round": not args.trace,
        "fresh_package_per_operation": True,
    }


def reference_s() -> float:
    """Mean time of one `reference_loop`, over REFERENCE_LOOPS of them."""
    start = time.perf_counter()
    for _ in range(REFERENCE_LOOPS):
        reference_loop()
    return (time.perf_counter() - start) / REFERENCE_LOOPS


def set_up(make_inputs, seed: int, golden: dict):
    """Import the package and generate the seeded inputs, once untimed
    (it may compile the package's bytecode) and then SETUP_REPEATS times.

    Returns the inputs and, for each timed set-up, its time divided by
    the mean time of the reference loop, timed just before and just after
    it. The machine's speed moves raw set-up time by 30-60% from one
    process to the next; the ratio moves by a few percent.
    """
    fresh_import()
    make_inputs(seed, golden)
    inputs, ratios = None, []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = reference_s()
        start = time.perf_counter()
        fresh_import()
        inputs = make_inputs(seed, golden)
        elapsed = time.perf_counter() - start
        ratios.append(elapsed / ((before + reference_s()) / 2))
    return inputs, ratios


def one_round(run_round, inputs, ctx_args, tracer=None):
    timer = Timer(sample=tracer is None)
    ctx = W.Context(timer=timer, tracer=tracer, **ctx_args)
    layers = None
    if tracer is not None:
        tracer.reset_round()
        ctx.tally.check("exercise layers",
                        lambda: exercise_layers(fresh_import(tracer), ctx.workdir))
    run_round(inputs, ctx)
    if tracer is not None:
        layers = tracer.layer_metrics()
        silent = tracer.silent_layers()
        if silent:
            ctx.tally.record("trace coverage", f"no call recorded in {', '.join(silent)}")
    return timer, layers


def reference_mean(samples: list) -> float:
    """Mean time of a round's reference-loop samples, leaving out those
    over twice the median: the process was descheduled during them, and
    one 17 ms sample among three hundred of 0.7 ms moved a round's mean by
    a third while the program's own time did not move."""
    limit = 2 * statistics.median(samples)
    return statistics.fmean(s for s in samples if s <= limit)


def child_round(args, workdir, golden) -> dict:
    """What a round's own interpreter reports: its set-up ratios, and the
    timer and tally of one untraced round."""
    make_inputs, run_round, _ = W.WORKLOADS[args.workload]
    inputs, ratios = set_up(make_inputs, args.seed, golden)
    tally = W.Tally()
    timer, _ = one_round(run_round, inputs, {"tally": tally, "workdir": workdir, "golden": golden})
    return {"setup_ratios": ratios, "times": timer.times, "reference": timer.reference,
            "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures}


def round_in_child(args, deadline: float) -> dict:
    """Runs `child_round` in a fresh interpreter and waits for it; the
    child is killed if it is still running at `deadline`."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--child-round"]
    done = subprocess.run(argv, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"a round's interpreter exited {done.returncode}: "
                         f"{done.stderr.strip()[-1000:]}")
    return json.loads(lines[-1])


def measure(args, workdir, golden) -> tuple[dict, W.Tally, dict]:
    """Untraced, every round runs in a fresh interpreter of its own, one
    after another: the program's speed relative to the reference loop
    differs by 5-10% from one process to the next and holds within one,
    so the median over rounds is also a median over processes. Traced,
    untraced and traced rounds alternate in this process."""
    make_inputs, run_round, kinds = W.WORKLOADS[args.workload]
    tally = W.Tally()
    ctx_args = {"tally": tally, "workdir": workdir, "golden": golden}
    tracer = Tracer() if args.trace else None
    plain, traced, setup_ratios = [], [], []
    start = time.perf_counter()
    if tracer is not None:
        inputs, setup_ratios = set_up(make_inputs, args.seed, golden)
    while True:
        if tracer is None:
            report = round_in_child(args, start + ROUNDS_DEADLINE_S)
            setup_ratios += report["setup_ratios"]
            plain.append(SimpleNamespace(times=report["times"], reference=report["reference"]))
            tally.attempted += report["attempted"]
            tally.failed += report["failed"]
            tally.failures += report["failures"]
        else:
            plain.append(one_round(run_round, inputs, ctx_args)[0])
            traced.append(one_round(run_round, inputs, ctx_args, tracer))
        if time.perf_counter() - start >= args.seconds:
            break

    median = statistics.median
    walls = [sum(timer.times.values()) for timer in plain]
    # each round's wall time in reference loops timed during that round
    in_reference = [wall / reference_mean(timer.reference)
                    for wall, timer in zip(walls, plain)]
    per_kind = {f"{kind}_s": median(t.times.get(kind, 0.0) for t in plain) for kind in kinds}
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    metrics = {"wall_ref": median(in_reference),
               "setup_s": median(setup_ratios) * NOMINAL_REFERENCE_S,
               "peak_rss_mib": peak_kib / 1024}
    if tracer is not None:
        layer_rounds = [layers for _, layers in traced]
        metrics = {}
        for name, value in layer_rounds[0].items():
            if isinstance(value, int):
                if any(r[name] != value for r in layer_rounds):
                    tally.record("trace counts", f"{name} differs between traced rounds")
                metrics[name] = value
            else:
                metrics[name] = median(r[name] for r in layer_rounds)
        traced_wall = median(sum(timer.times.values()) for timer, _ in traced)
        metrics.update({"wall_untraced_s": median(walls), "wall_traced_s": traced_wall,
                        "trace_overhead_s": traced_wall - median(walls)})
        tracer.write(os.path.join(HERE, "_out", f"trace-{args.workload}-seed{args.seed}.json.gz"),
                     {"environment": environment(args), "metrics": metrics})
    detail = {"rounds_untraced": len(plain), "rounds_traced": len(traced),
              "per_kind_median_s": per_kind, "wall_s": median(walls), "round_wall_s": walls,
              "round_wall_ref": in_reference,
              "round_reference_s": [reference_mean(timer.reference) for timer in plain]}
    return metrics, tally, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-round", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "golden.json")) as handle:
        golden = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, "_work"))
    try:
        if args.child_round:
            print(json.dumps(child_round(args, workdir, golden)))
            return 0
        metrics, tally, detail = measure(args, workdir, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    env = environment(args)
    for key, value in env.items():
        print(f"env {key}: {value}")
    print(f"rounds: {detail['rounds_untraced']} untraced, {detail['rounds_traced']} traced")
    print(f"wall_s = {detail['wall_s']:.6f} s (median per round, untraced)")
    for kind, value in detail["per_kind_median_s"].items():
        print(f"{kind} = {value:.6f} s (median per round, untraced)")
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"error_rate = {error_rate} ({tally.failed} of {tally.attempted} operations failed)")
    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']} {entry['unit']}")
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    record = os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as handle:
        json.dump({"environment": env, "error_rate": error_rate, "detail": detail,
                   "failures": tally.failures, **result}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, KeyError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
