"""latmult benchmark: time one workload, check every answer, print the metrics.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src` directory, never from an installed copy. With `--trace 0` the run
prints the end-to-end metrics listed in BENCHMARK.json; with `--trace 1` it
runs a third of the time untraced, then wraps the package's layer modules
(see tracer.py) and prints the per-layer metrics, measured per traced pass,
and writes the stored spans under perfbench/out/. `--workload all` runs each
workload in its own fresh process, one after another. The last line of
standard output is one JSON object; the exit code is 0 only when every
answer was correct. See README.md for what each metric means.
"""

import argparse
import contextlib
import importlib
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
GUARD_ENV = "LATMULT_GUARD_OVERRIDE"
SETUPS = 9

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (benchmark modules next to this file)
from gauge import NOMINAL_S, SpeedGauge  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

LIB_MODULES = ("latmult",) + tuple(f"latmult.{layer}" for layer in LAYERS)


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def import_library() -> dict:
    """Import latmult afresh from the checkout's src directory."""
    for name in [m for m in sys.modules if m == "latmult" or m.startswith("latmult.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(name) for name in LIB_MODULES}
    origin = Path(mods["latmult"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"latmult was imported from {origin}, not from {SRC}")
    return mods


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_passes(workload, lib, tally, checks, until: float, quiet=contextlib.nullcontext):
    """Repeat passes until the clock reaches until (at least one pass),
    yielding each pass's (start, end); after each pass, send the README
    examples as an untimed correctness probe, inside the quiet() block."""
    first = True
    while first or time.perf_counter() < until:
        first = False
        start = time.perf_counter()
        workload.run_pass(tally)
        yield start, time.perf_counter()
        with quiet():
            workloads.probe(lib, checks)


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    cls = workloads.WORKLOADS[args.workload]
    setups = []
    with SpeedGauge(mid_call=not args.trace) as gauge:
        for _ in range(2 if args.tiny else SETUPS):
            gauge.tick()
            start = time.perf_counter()
            mods = import_library()
            lib = mods["latmult"]
            workload = cls(lib, args.seed, args.tiny)
            checks = workloads.Tally(gauge)  # the probe doubles as warm-up of the CLI path
            workloads.probe(lib, checks)
            setups.append((start, time.perf_counter()))
            gauge.tick()

        tally = workloads.Tally(gauge)
        begin = time.perf_counter()
        if args.trace:
            passes = list(run_passes(workload, lib, tally, checks, begin + args.seconds / 3))
            tracer = Tracer()
            tracer.install(mods)
            traced = []
            try:
                for span in run_passes(workload, lib, tally, checks, begin + args.seconds,
                                       tracer.paused):
                    traced.append(span)
                    tracer.end_pass()
            finally:
                tracer.uninstall()
        else:
            passes = list(run_passes(workload, lib, tally, checks, begin + args.seconds))

    attempted = tally.ops + checks.ops
    failed = tally.failed + checks.failed
    print(f"# latmult benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()} "
          f"commit={commit()}")
    print(f"# input: {workload.size}")
    print(f"# operation: one of the {workload.op_unit}; {tally.ops} in the timed passes, "
          f"{checks.ops} README-example checks")
    print(f"# times are gauge-scaled (see gauge.py); {gauge.samples} gauge samples, "
          f"{gauge.skipped} skipped inside calls while the process was not alone, "
          f"median speed {NOMINAL_S / gauge.median_ref():.3f} of nominal")
    print(f"failed_ops_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} failed)")
    if args.trace:
        metrics = layer_metrics(args, gauge, tracer, passes, traced)
    else:
        metrics = end_to_end_metrics(gauge, tally, setups, passes)
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f" ({note})" if note else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def end_to_end_metrics(gauge, tally, setups, passes) -> dict:
    """{name: (value, unit, note)}; latency percentiles are taken within each
    pass over its timed calls, then the median over the passes is taken."""
    pass_s = gauge.scaled_all(passes)
    per_pass = [[gauge.scaled(s, e) * 1e3 for s, e in tally.spans if start <= s < end]
                for start, end in passes]
    calls = min(len(lat) for lat in per_pass)
    beyond = calls - -(-calls * 99 // 100)
    raw = sum(end - start for start, end in passes) / len(passes)
    return {
        "setup_s": (statistics.median(gauge.scaled_all(setups)), "s",
                    f"median of {len(setups)} set-ups; raw "
                    f"{statistics.median(end - start for start, end in setups):.4g} s"),
        "wall_s": (statistics.mean(pass_s), "s", f"mean of {len(passes)} passes; raw {raw:.4g} s"),
        "ops_per_s": (tally.ops / sum(pass_s), "1/s", f"{tally.ops} ops in {len(passes)} passes"),
        "op_p50_ms": (statistics.median(statistics.median(lat) for lat in per_pass), "ms",
                      f"median over {len(passes)} passes of at least {calls} calls each"),
        "op_p99_ms": (statistics.median(percentile(lat, 99) for lat in per_pass), "ms",
                      f"median over {len(passes)} passes; at least {beyond} calls beyond p99 in each"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "whole process"),
    }


def layer_metrics(args, gauge, tracer, passes, traced) -> dict:
    """{name: (value, unit, note)} from the tracer, times put on the gauge's
    scale; writes the stored spans."""
    start, end = traced[0][0], traced[-1][1]
    factor = gauge.scaled(start, end) / (end - start)
    metrics = {}
    for name, (value, unit) in tracer.metrics().items():
        value *= {"s": factor, "us": factor, "1/s": 1 / factor}.get(unit, 1)
        metrics[name] = (value, unit, "")
    overhead = statistics.median(gauge.scaled_all(traced)) / statistics.median(gauge.scaled_all(passes))
    metrics["trace.overhead"] = (overhead, "ratio", "traced over untraced median pass")
    out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(out, {"workload": args.workload, "seed": args.seed, "time_scale": factor,
                       "traced_passes": len(traced), "untraced_passes": len(passes)})
    print(f"# traced passes {len(traced)}, untraced {len(passes)}; counts and self times per "
          f"traced pass; {len(tracer.spans)} spans written to {out.relative_to(ROOT)}, "
          f"{tracer.spans_dropped} past the cap counted but not stored")
    return metrics


def run_all(args) -> int:
    """Each workload in its own fresh process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = status or proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, body in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = body
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input, for the smoke test")
    args = parser.parse_args(argv)
    os.environ.pop(GUARD_ENV, None)  # guards stay on unless a call passes allow_large
    if not (SRC / "latmult" / "__init__.py").is_file():
        print(f"error: no latmult sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
