"""Golden CLI outputs: exit code plus the JSON report minus `timing_ms`, or
the CSV text, for a fixed set of invocations.

The golden file is written by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from freeqg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

CASES = [
    ["pairings", "--word", "uUuUuU"],
    ["pairings", "--word", "uuUUuU", "--noncrossing"],
    ["rank", "--word", "uUuUuU", "--n", "2"],
    ["dim", "--word", "uUu", "--n", "3"],
    ["fusion", "--left", "uU", "--right", "Uu"],
    ["fullness", "--max-len", "6", "--n", "4", "--dw", "2", "--du", "2"],
    ["fullness", "--max-len", "6", "--n", "5", "--dw", "4", "--du", "1"],
    ["fullness", "--max-len", "6", "--n", "3", "--dw", "2", "--du", "1"],
    ["fullness", "--max-len", "4", "--n", "3", "--dw", "1", "--du", "2", "--format", "csv"],
]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    if "csv" in argv:
        return {"argv": argv, "code": code, "csv": text.splitlines()}
    report = json.loads(text)
    del report["timing_ms"]
    return {"argv": argv, "code": code, "report": report}


def load_golden():
    with open(GOLDEN) as handle:
        return {" ".join(case["argv"]): case for case in json.load(handle)}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_matches_golden(argv, monkeypatch):
    monkeypatch.delenv("QGI_THREADS", raising=False)
    assert run(argv) == load_golden()[" ".join(argv)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump([run(argv) for argv in CASES], handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}", file=sys.stderr)
