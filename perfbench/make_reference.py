"""Record the reference fullness verdicts that the sweep8 checker compares against.

Runs one `freeqg fullness --max-len 8` sweep per configuration through
`freeqg.cli.main` and writes, for every balanced word of length <= 8, the
verdict's `holds` and `solution_dim`.  Run it from the repository root on a
commit whose verdicts are trusted:

    python3 perfbench/make_reference.py

It takes a few minutes (one length-8 sweep is about 70 s per configuration on
a 2-CPU Xeon).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from freeqg import cli  # noqa: E402

from workloads import SWEEP_CONFIGS  # noqa: E402

REFERENCE = HERE / "reference" / "fullness_verdicts.json"


def sweep(n: int, d_w: int, d_u: int) -> dict[str, list]:
    buf = io.StringIO()
    argv = ["fullness", "--max-len", "8", "--n", str(n), "--dw", str(d_w), "--du", str(d_u)]
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"sweep {argv} exited with {code}")
    verdicts = json.loads(buf.getvalue())["result"]["verdicts"]
    return {v["word"]: [v["holds"], v["solution_dim"]] for v in verdicts}


def main() -> None:
    os.environ.pop("QGI_THREADS", None)
    table = {f"{n};{d_w},{d_u}": sweep(n, d_w, d_u) for n, d_w, d_u in SWEEP_CONFIGS}
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE} ({sum(len(t) for t in table.values())} verdicts)")


if __name__ == "__main__":
    main()
