"""Benchmark of freeqg: four seeded workloads, each run in a process of its own.

    python3 perfbench/run.py --workload sweep8 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root; the program is imported from ./src.  A run
checks the checkers on tiny inputs, sets up (imports freeqg afresh and builds
the seeded inputs), then runs whole passes over the inputs, closed loop and
one operation at a time, until the next pass would overrun --seconds (at
least one pass).  The set-up is repeated between operations through the run.
Every output is checked.  Timings are reported at the reference speed of
calibration.py, with the raw wall-clock figures beside them in the text
lines, because the machine's own speed drifts.  With --trace 1 the
time is split between untraced passes and passes under the span tracer of
spans.py, and the per-layer metrics are reported instead of the end-to-end
ones.  The last line of stdout is one JSON object: correct, attempted, failed
and the metrics that BENCHMARK.json declares for the mode.

`--workload all` runs every workload in a fresh subprocess and prints each
one's report, so heap and garbage-collector state cannot leak between them.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
MODULES = ("cli", "coinvariants", "words", "fusion", "reps")


@dataclass
class Measurement:
    op_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    # the same durations at the reference speed of calibration.py
    op_ref_s: list[float] = field(default_factory=list)
    pass_ref_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _program_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "freeqg" or k.startswith("freeqg.")}


def import_program() -> SimpleNamespace:
    """Import freeqg from scratch, so that module-level work is timed."""
    for name in _program_modules():
        del sys.modules[name]
    importlib.import_module("freeqg")
    return SimpleNamespace(
        **{m: importlib.import_module(f"freeqg.{m}") for m in MODULES}
    )


def set_up(workload: str, seed: int):
    """One set-up: a fresh import plus the workload's inputs.  Returns
    (seconds, seconds at the reference speed, pass)."""
    from workloads import WORKLOADS

    gc.collect()
    with calibration.Timed() as timed:
        fq = import_program()
        pass_ = WORKLOADS[workload](seed, fq, ROOT)
    return timed.seconds, timed.ref_seconds, pass_


class SetupSampler:
    """Repeats the set-up at even intervals through a run.

    One set-up lasts tens of milliseconds.  A median over set-ups spread
    through the run follows the machine's speed over the whole run, as wall_s
    does, rather than its first second.  The measured operations keep the
    modules of the first set-up, which go back into sys.modules after each
    repeat.
    """

    def __init__(self, workload: str, seed: int, first: tuple, seconds: float):
        self.workload = workload
        self.seed = seed
        self.samples = [first]
        self.interval = seconds / SETUP_REPEATS
        self.last = perf_counter()

    def sample(self) -> None:
        kept = _program_modules()
        seconds, ref_seconds, _ = set_up(self.workload, self.seed)
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        self.samples.append((seconds, ref_seconds))
        self.last = perf_counter()

    def between_ops(self) -> None:
        if len(self.samples) < SETUP_REPEATS and perf_counter() - self.last >= self.interval:
            self.sample()

    def finish(self) -> list[tuple[float, float]]:
        while len(self.samples) < SETUP_REPEATS:
            self.sample()
        return self.samples


def measure(pass_, seconds: float, tracer=None, between_ops=None) -> Measurement:
    out = Measurement()
    started = perf_counter()
    while True:
        pass_time = pass_ref_time = 0.0
        for op in pass_.ops:
            # every operation starts from the same collector state, with the
            # previous operation's output already freed
            gc.collect()
            span = tracer.root("bench.op") if tracer else nullcontext()
            result = error = None
            # the kernel must not run inside traced spans
            timed = calibration.Timed(ticks=tracer is None)
            if tracer:
                tracer.active = True
            with timed:
                try:
                    with span:
                        result = op.run()
                except Exception as exc:  # a crash is a failed operation, not a crashed run
                    error = f"{type(exc).__name__}: {exc}"
            if tracer:
                tracer.active = False
            out.op_s.append(timed.seconds)
            out.op_ref_s.append(timed.ref_seconds)
            pass_time += timed.seconds
            pass_ref_time += timed.ref_seconds
            out.attempted += 1
            try:
                problems = [error] if error else op.check(result)
            except Exception as exc:  # an output the checker cannot read is wrong
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            del result
            if problems:
                out.failed += 1
                out.problems.append(f"{op.label}: {problems[0]}")
            if between_ops:
                between_ops()
        out.pass_s.append(pass_time)
        out.pass_ref_s.append(pass_ref_time)
        spent = perf_counter() - started
        if spent + spent / len(out.pass_s) > seconds:
            return out


def p90_line(op_ms: list[float]) -> str:
    if len(op_ms) < 2:
        return f"not reported: {len(op_ms)} operation"
    p90 = statistics.quantiles(op_ms, n=10)[-1]
    beyond = sum(x > p90 for x in op_ms)
    if beyond < 10:
        return f"not reported: {len(op_ms)} operations leave {beyond} beyond p90, fewer than 10"
    return f"{p90:.4f} ms (90th percentile of {len(op_ms)} operations, {beyond} beyond it)"


def machine_record(seed: int, qgi_threads: str | None) -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "QGI_THREADS": "unset" if qgi_threads is None else f"unset (was {qgi_threads!r})",
    }


def run_workload(args, declared: dict) -> int:
    from selftest import run as selftest

    qgi_threads = os.environ.pop("QGI_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    fq = import_program()
    if not Path(fq.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: freeqg imported from {fq.cli.__file__}, not ./src", file=sys.stderr)
        return 2
    failures = selftest(fq, ROOT)
    if failures:
        for failure in failures:
            print(f"checker self-test failed: {failure}", file=sys.stderr)
        return 3

    first_setup_s, first_setup_ref_s, pass_ = set_up(args.workload, args.seed)
    name = args.workload
    print(f"{name} machine {json.dumps(machine_record(args.seed, qgi_threads))}")
    print(f"{name} inputs {len(pass_.ops)} operations per pass: {pass_.summary}")
    print(f"{name} checker self-test passed")

    if args.trace:
        from spans import Tracer

        untraced = measure(pass_, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        pass_.output_bytes = 0
        try:
            traced = measure(pass_, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes = len(traced.pass_s)
        values = tracer.metrics(
            passes, statistics.median(traced.pass_s), statistics.median(untraced.pass_s)
        )
        values["cli.output_bytes"] = pass_.output_bytes / passes
        spans_path = HERE / "out" / f"trace-{name}-seed{args.seed}.json"
        tracer.write(spans_path)
        measurements = [untraced, traced]
        wanted = declared["per_layer"]
        print(f"{name} traced {passes} pass(es) after {len(untraced.pass_s)} untraced; spans in {spans_path.relative_to(ROOT)}")
        print(
            f"{name} trace: layer self times sum to {values['trace.layer_self_sum_s']:.4f} s"
            f" = {100 * values['trace.layer_self_share']:.1f}% of traced wall_s"
            f" {values['trace.traced_wall_s']:.4f} s; tracing overhead"
            f" {values['trace.overhead_s']:.4f} s over untraced wall_s {values['trace.untraced_wall_s']:.4f} s"
        )
    else:
        sampler = SetupSampler(name, args.seed, (first_setup_s, first_setup_ref_s), args.seconds)
        run = measure(pass_, args.seconds, between_ops=sampler.between_ops)
        setups = sampler.finish()
        op_ms = [1000.0 * s for s in run.op_ref_s]
        values = {
            "setup_s": statistics.median(ref for _, ref in setups),
            "wall_s": statistics.median(run.pass_ref_s),
            "op_ms_p50": statistics.median(op_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw = {
            "setup_s": statistics.median(s for s, _ in setups),
            "wall_s": statistics.median(run.pass_s),
            "op_ms_p50": 1000.0 * statistics.median(run.op_s),
        }
        measurements = [run]
        wanted = declared["end_to_end"]
        print(
            f"{name} timings at the reference speed of calibration.py;"
            f" raw wall-clock figures in brackets"
        )
        for line in (
            f"setup_s     {values['setup_s']:.6f} s [{raw['setup_s']:.6f}] (median of {len(setups)} set-ups)",
            f"wall_s      {values['wall_s']:.4f} s [{raw['wall_s']:.4f}] (median of {len(run.pass_s)} passes)",
            f"op_ms_p50   {values['op_ms_p50']:.4f} ms [{raw['op_ms_p50']:.4f}] (median of {len(op_ms)} operations)",
            f"op_ms_p90   {p90_line(op_ms)}",
            f"fail_ratio  {run.failed}/{run.attempted} operations",
            f"peak_rss_mb {values['peak_rss_mb']:.1f} MB (peak resident set of this process)",
        ):
            print(f"{name} {line}")

    attempted = sum(m.attempted for m in measurements)
    failed = sum(m.failed for m in measurements)
    for problem in [p for m in measurements for p in m.problems][:10]:
        print(f"{name} FAILED {problem}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args, declared: dict) -> int:
    """Every workload in a fresh subprocess; prints each report and a summary."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    print(f"all cpu model: {cpu_model}")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [w["name"] for w in declared["workloads"]]:
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            combined["correct"] = False
            print(f"all {name} exited with {child.returncode}")
            continue
        report = json.loads(lines[-1])
        combined["correct"] &= report["correct"]
        combined["attempted"] += report["attempted"]
        combined["failed"] += report["failed"]
        for metric, value in report["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "freeqg" / "__init__.py").is_file():
        print(f"error: no freeqg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    if args.workload == "all":
        return run_all(args, declared)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    return run_workload(args, declared)


if __name__ == "__main__":
    sys.exit(main())
