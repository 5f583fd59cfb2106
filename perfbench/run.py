"""Benchmark of the mixlab commands: `search`, `replay` and `measure`.

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  One run checks the oracles, sets up five times (a fresh
interpreter imports the program, then the inputs are generated from the
seed; the median is `setup_s`), then runs whole rounds of the workload's
operations until `--seconds` have passed, checking every output.  The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` -- the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  A traced run alternates untraced and
traced rounds so that it can report its own overhead, and writes its spans
to `.bench_work/`.  `--workload all` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("search", "replay", "measure")
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description="mixlab benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process; print their results side by side."""
    results, code = {}, 0
    for name in NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            code = 1
            continue
        results[name] = json.loads(lines[-1])
        code = code or (0 if results[name]["correct"] else 1)
    print(json.dumps(results, sort_keys=True))
    return code


IMPORT_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
from speed import SpeedProbe
probe = SpeedProbe()
probe.start()
probe.sample()
start = time.perf_counter()
import mixlab.cli
end = time.perf_counter()
probe.sample()
probe.stop()
print(probe.seconds(start, end))
"""


def import_seconds() -> float:
    """A fresh interpreter imports the program, as a user's command does, and
    reports the time at nominal host speed."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(src=str(SRC), here=str(HERE))],
                         check=True, capture_output=True, text=True).stdout
    return float(out)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing: every run iterates its sets and dicts alike.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(HERE / "run.py")] + sys.argv[1:])
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "mixlab" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mixlab

    if Path(mixlab.__file__).resolve().parent != (SRC / "mixlab").resolve():
        print(f"error: imported mixlab from {mixlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from inputs import write_files
    from spans import LAYER_METRICS, Tracer
    from speed import SpeedProbe
    from workloads import WORKLOADS

    selftest = subprocess.run([sys.executable, str(HERE / "oracles.py")],
                              capture_output=True, text=True)
    if selftest.returncode != 0:
        print(selftest.stdout + selftest.stderr, file=sys.stderr)
        return 1
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    speed = SpeedProbe()
    speed.start()
    try:
        workload = WORKLOADS[args.workload](ROOT, work, args.seed)
        imports, setup_intervals = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds())
            start = time.perf_counter()
            files = workload.generate(work / "inputs")
            setup_intervals.append((start, time.perf_counter()))
        write_files(files)
        workload.prepare()

        tracer = Tracer() if args.trace else None
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            tracing = tracer is not None and len(plain) > len(traced)
            if tracing:
                tracer.install()
                try:
                    traced.append(workload.round(tracer))
                finally:
                    tracer.uninstall()
            else:
                plain.append(workload.round(None))
            if time.perf_counter() - start >= args.seconds and (tracer is None or traced):
                break
        speed.stop()
        setups = [t + speed.seconds(*interval) for t, interval in zip(imports, setup_intervals)]
        rounds = plain + traced
        ops = [op for r in rounds for op in r]
        for op in ops:
            op.seconds = speed.seconds(op.start, op.end)
        round_s = [sum(op.seconds for op in r) for r in plain]
        wall = sum(op.end - op.start for op in ops)
        print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} round(s), "
              f"{len(ops)} operations, {wall:.2f} s of wall time in operations; "
              f"times below are at nominal host speed (speed.py)")
        if tracer is None:
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "round_s": (statistics.median(round_s), "s"),
            }
            for name, value, unit, note in workload.named_metrics(plain):
                print(f"  {name:<18} {value:14.6g} {unit:<10} ({note})")
        else:
            layer = tracer.layer_metrics(len(traced))
            layer["trace.overhead_s"] = (
                statistics.median(sum(op.seconds for op in r) for r in traced)
                - statistics.median(round_s))
            units = {name: unit for name, unit, _ in LAYER_METRICS}
            metrics = {name: (layer[name], units[name]) for name, _, _ in LAYER_METRICS}
            spans = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans)
            print(f"  {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<30} {value:14.6g} {unit}")
        for problem in workload.problems[:20]:
            print(f"  check failed: {problem}")
        print(json.dumps({
            "correct": not workload.problems,
            "attempted": len(ops),
            "failed": sum(op.failed for op in ops),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        speed.stop()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
