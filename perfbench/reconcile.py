"""Where a full length-8 fullness sweep spends its time.

Runs `freeqg fullness --max-len 8 --n 4 --dw 2 --du 2`, the first
configuration of the sweep8 workload, through `freeqg.cli.main` once untraced
and once under the span tracer, then prints the verdict time per word length,
each layer's self time, and the linalg share of the length-8 verdicts.  This
is the measurement behind the reconciliation with the ROADMAP baseline in
README.md.  It takes about three minutes on a 2-CPU Xeon:

    python3 perfbench/reconcile.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import import_program  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import SWEEP_CONFIGS  # noqa: E402


def sweep(fq, argv) -> float:
    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = fq.cli.main(argv)
    elapsed = perf_counter() - start
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return elapsed


def main() -> None:
    os.environ.pop("QGI_THREADS", None)
    fq = import_program()
    n, d_w, d_u = SWEEP_CONFIGS[0]
    argv = ["fullness", "--max-len", "8", "--n", str(n), "--dw", str(d_w), "--du", str(d_u)]
    untraced = sweep(fq, argv)
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        traced = sweep(fq, argv)
    finally:
        tracer.active = False
        tracer.uninstall()
    print(f"sweep {' '.join(argv)}")
    print(f"untraced wall {untraced:.2f} s; traced wall {traced:.2f} s")
    verdicts = sum(tracer.counts[f"len{L}.verdict_s"] for L in range(0, 9, 2))
    for length in range(0, 9, 2):
        spent = tracer.counts[f"len{length}.verdict_s"]
        print(f"  length {length}: {spent:8.3f} s of verdicts, {100 * spent / verdicts:6.2f}%")
    for layer in LAYERS + ("trace",):
        spent = tracer.layer_self.get(layer, 0.0)
        print(f"  {layer:12s} self {spent:8.3f} s, {100 * spent / traced:6.2f}% of traced wall")
    len8 = tracer.counts["len8.verdict_s"]
    for layer in LAYERS:
        share = tracer.tagged_self.get((layer, "len8"), 0.0) / len8
        print(f"  {layer:12s} share of length-8 verdict time {100 * share:6.2f}%")


if __name__ == "__main__":
    main()
