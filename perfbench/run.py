"""Benchmark of the three assessment phases (see perfbench/README.md).

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 10 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  ``--workload all`` (the default) runs every workload,
untraced and then traced, each run in its own process, and prints every
figure.  The exit code is 0 only when every correctness check passed.

Full results (host block, inputs, every round) go to ``.perfbench/`` at
the root of the checkout, with the traced run's spans as JSONL and as a
Perfetto ``trace_event`` file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("analytic", "simulate", "fleet")

#: Fresh processes timed per run for ``setup_s`` (their median is reported).
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}

#: Per-layer metrics that time a workload phase in the untraced rounds.
PHASES = {
    "functional_s": "s",
    "markov_points_per_s": "points/s",
    "dense_sweep_s": "s",
    "general_sweep_s": "s",
    "validation_s": "s",
    "sim_events_per_s": "events/s",
    "fleet_ladder_s": "s",
    "fleet_large_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="time imports and model construction once, print the seconds",
    )
    return parser.parse_args(argv)


def host_block():
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def canonical(value):
    """A canonical, exactly comparable form of a round's outputs."""
    if isinstance(value, dict):
        return {
            str(key): canonical(item)
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, float):
        return repr(value)
    if hasattr(value, "tolist"):
        return canonical(value.tolist())
    return value


def setup_probe(workload_name, seed):
    started = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    imported = time.perf_counter()
    inputs = workload.inputs(seed)
    built = time.perf_counter()
    workload.setup(inputs)
    return (imported - started) + (time.perf_counter() - built)


def timed_setups(args):
    samples = []
    for _ in range(SETUP_REPEATS):
        completed = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(completed.stdout.strip().splitlines()[-1]))
    return samples


def run_round(workload, models, inputs, ops):
    started = time.perf_counter()
    outputs, phases = workload.round(models, inputs, ops)
    wall = time.perf_counter() - started
    if "events" in outputs:
        phases["sim_events_per_s"] = outputs["events"] / wall
    return outputs, phases, wall


def traced_round(workload, inputs, ops):
    """Set-up plus one round under the layer spans; per-layer figures."""
    import layers
    from repro.obs import tracing

    tracer = tracing.Tracer()
    before = layers.counter_values()
    with layers.Instrumentation(), tracing.use_tracer(tracer):
        started = time.perf_counter()
        models = workload.setup(inputs)
        built = time.perf_counter()
        outputs, _phases = workload.round(models, inputs, ops)
        ended = time.perf_counter()
    after = layers.counter_values()
    records = tracer.records()
    totals, covered = layers.layer_totals(records)
    figures = {
        metric: float(totals.get(layer, {}).get(field, 0.0))
        for metric, (layer, field) in layers.SPAN_METRICS.items()
    }
    figures.update({name: after[name] - before[name] for name in after})
    figures["core.methodology.self_s"] = (ended - started) - covered
    return outputs, figures, ended - built, records


def write_spans(records, stem):
    from repro.obs import tracing

    jsonl = OUT / f"{stem}.spans.jsonl"
    if jsonl.exists():
        jsonl.unlink()
    sink = tracing.Tracer(path=str(jsonl))
    try:
        sink.ingest(records)
    finally:
        sink.close()
    tracing.write_perfetto(records, str(OUT / f"{stem}.perfetto.json"))


def run_workload(args):
    setups = timed_setups(args)
    from workloads import WORKLOADS, OpLog

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    models = workload.setup(inputs)
    ops = OpLog()
    walls, phase_rounds, digests, traced = [], [], [], []
    first = None
    records = []
    began = time.perf_counter()
    while True:
        outputs, phases, wall = run_round(workload, models, inputs, ops)
        walls.append(wall)
        phase_rounds.append(phases)
        digests.append(canonical(workload.digest(outputs)))
        if first is None:
            first = outputs
        if args.trace:
            outputs, figures, traced_wall, records = traced_round(workload, inputs, ops)
            figures["bench.trace_overhead_s"] = traced_wall - wall
            traced.append(figures)
            digests.append(canonical(workload.digest(outputs)))
        del outputs
        if time.perf_counter() - began >= args.seconds:
            break

    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = time.perf_counter()
    problems = workload.check(models, inputs, first)
    check_s = time.perf_counter() - checked
    # A failed operation has no output; every other output must be
    # bit-identical across rounds, traced or not.
    for key, value in digests[0].items():
        values = [value] + [other[key] for other in digests[1:]]
        present = [item for item in values if item is not None]
        if any(item != present[0] for item in present[1:]):
            problems.append(f"{key}: rounds on the same inputs differ")

    if args.trace:
        metrics = {}
        for name, unit in PHASES.items():
            values = [phases[name] for phases in phase_rounds if name in phases]
            metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
        for name in traced[0]:
            unit = "s" if name.endswith((".s", "_s")) else "count"
            metrics[name] = {"value": statistics.median(t[name] for t in traced), "unit": unit}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mib": peak_rss,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if records:
        write_spans(records, stem)
    result = {
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        host=host_block(),
        setup_samples=setups,
        round_walls=walls,
        phases=phase_rounds,
        traced=traced,
        peak_rss_mib=peak_rss,
        check_s=check_s,
        problems=problems,
        errors=ops.errors,
    )
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for error in ops.errors:
        print(f"OPERATION FAILED: {error}")
    print(f"host: {json.dumps(detail['host'], sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"{args.workload:>9} {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:>9} attempted {ops.attempted} failed {ops.failed}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload, untraced then traced, each run in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            lines = completed.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                sys.stderr.write(completed.stderr)
                return completed.returncode or 1
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program sources at {SRC / 'repro'}\n")
        return 2
    sys.path.insert(0, str(SRC))
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
