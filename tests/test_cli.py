import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from freeqg import cli
from freeqg.cli import main
from freeqg.coinvariants import AmbientSpec, QuotientSpec, joint_fullness, verdict_json
from freeqg.linalg import ExactMatrix
from freeqg.words import balanced_words, orbit_key, parse_word

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def load_schema(name):
    with open(SCHEMA_DIR / name) as handle:
        return json.load(handle)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    report = json.loads(out)
    jsonschema.validate(report, load_schema("run_report.schema.json"))
    return code, report


def test_pairings_json_schema(capsys):
    code, report = run_json(capsys, ["pairings", "--word", "uUuU"])
    assert code == 0
    assert report["command"] == "pairings"
    jsonschema.validate(report["result"], load_schema("pairings_result.schema.json"))
    assert report["result"]["count"] == 2
    assert report["result"]["pairings"][0] == {"arcs": [[1, 2], [3, 4]]}


def test_pairings_noncrossing_csv(capsys):
    code = main(["pairings", "--word", "uuUU", "--noncrossing", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["index,arcs", "0,1-4;2-3"]


def test_fullness_single_word(capsys):
    code, report = run_json(
        capsys, ["fullness", "--word", "uuUU", "--n", "4", "--dw", "2", "--du", "2"]
    )
    assert code == 0
    jsonschema.validate(report["result"], load_schema("fullness_result.schema.json"))
    assert report["result"]["all_hold"] is True
    verdict = report["result"]["verdicts"][0]
    assert verdict["holds"] is True
    assert verdict["solution_dim"] == 1
    assert verdict["witness"] is None


def test_fullness_sweep_csv(capsys):
    code = main(
        [
            "fullness", "--max-len", "2",
            "--n", "2", "--dw", "1", "--du", "1",
            "--format", "csv",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [
        "word,n,d_w,d_u,holds,solution_dim",
        ",2,1,1,true,1",
        "uU,2,1,1,true,1",
        "Uu,2,1,1,true,1",
    ]


def test_fullness_parallel_matches_serial(capsys, monkeypatch):
    argv = ["fullness", "--max-len", "6", "--n", "2", "--dw", "1", "--du", "1"]
    monkeypatch.delenv("QGI_THREADS", raising=False)
    _, serial = run_json(capsys, argv)
    monkeypatch.setenv("QGI_THREADS", "2")
    _, parallel = run_json(capsys, argv)
    assert serial["result"] == parallel["result"]


@pytest.mark.parametrize("n, d_w, d_u", [(4, 2, 2), (5, 4, 1)])
def test_orbit_sweep_matches_per_word_verdicts(capsys, monkeypatch, n, d_w, d_u):
    monkeypatch.delenv("QGI_THREADS", raising=False)
    argv = ["fullness", "--max-len", "8", "--n", str(n), "--dw", str(d_w), "--du", str(d_u)]
    code, report = run_json(capsys, argv)
    ambient, quotient = AmbientSpec(n), QuotientSpec(d_w, d_u)
    expected = [
        verdict_json(w, ambient, quotient, joint_fullness(w, ambient, quotient))
        for w in balanced_words(8)
    ]
    assert code == 0
    assert report["result"]["verdicts"] == expected


def test_failing_orbit_is_decided_word_by_word(capsys, monkeypatch):
    decide = cli._fullness_task
    failing_key = orbit_key(parse_word("uuUU"))
    witnesses = {}

    def fake(task):
        verdict = decide(task)
        if orbit_key(parse_word(task[0])) == failing_key:
            witnesses[task[0]] = [str(len(witnesses) + 1)]
            verdict.update(holds=False, witness=witnesses[task[0]])
        else:
            witnesses[task[0]] = None
        return verdict

    monkeypatch.setattr(cli, "_fullness_task", fake)
    monkeypatch.delenv("QGI_THREADS", raising=False)
    code, report = run_json(
        capsys, ["fullness", "--max-len", "4", "--n", "2", "--dw", "1", "--du", "1"]
    )
    verdicts = report["result"]["verdicts"]
    assert code == 1
    assert [v["word"] for v in verdicts] == [str(w) for w in balanced_words(4)]
    # one call per holding orbit, one per member of the failing orbit
    assert list(witnesses) == ["", "uU", "uuUU", "uUuU", "uUUu", "UuuU", "UUuu"]
    for v in verdicts:
        if v["word"] in ("uuUU", "uUUu", "UuuU", "UUuu"):
            assert v["holds"] is False
            assert v["witness"] == witnesses[v["word"]]
        else:
            assert v["holds"] is True
            assert v["witness"] is None


def test_failed_self_check_exits_3(capsys, monkeypatch):
    # e_0 is the functional of the crossing pairing of uuUU: outside the
    # non-crossing span, and off the constraint kernel, so the witness
    # re-check rejects it
    monkeypatch.setattr(ExactMatrix, "nullspace_basis", lambda self: [[1] + [0] * (self.cols - 1)])
    code = main(["fullness", "--word", "uuUU", "--n", "4", "--dw", "2", "--du", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: self-check failed: witness fails re-verification"]


def _die(task):
    os._exit(1)


def test_worker_crash_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_fullness_task", _die)
    monkeypatch.setenv("QGI_THREADS", "2")
    code = main(["fullness", "--max-len", "4", "--n", "2", "--dw", "1", "--du", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: a worker process died")


def test_bad_qgi_threads_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QGI_THREADS", "lots")
    code = main(["fullness", "--word", "uU", "--n", "2", "--dw", "1", "--du", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "QGI_THREADS" in captured.err


def test_fullness_negative_max_len_is_usage_error(capsys):
    code = main(["fullness", "--max-len", "-2", "--n", "2", "--dw", "1", "--du", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--max-len" in captured.err


def test_fusion_json(capsys):
    code, report = run_json(capsys, ["fusion", "--left", "uU", "--right", "uU"])
    assert code == 0
    jsonschema.validate(report["result"], load_schema("fusion_result.schema.json"))
    assert report["result"] == {"terms": {"": 1, "uU": 1, "uUuU": 1}}


def test_dim_and_rank_json(capsys):
    code, report = run_json(capsys, ["dim", "--word", "uU", "--n", "5"])
    assert code == 0
    jsonschema.validate(report["result"], load_schema("dim_result.schema.json"))
    assert report["result"] == 24
    code, report = run_json(capsys, ["rank", "--word", "uUuU", "--n", "2"])
    assert code == 0
    jsonschema.validate(report["result"], load_schema("rank_result.schema.json"))
    assert report["result"] == 2


def test_dim_rejects_small_n(capsys):
    code = main(["dim", "--word", "uU", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_separate_found_json(capsys):
    code, report = run_json(
        capsys,
        [
            "separate", "--poly", "u11 u12 - u12 u11",
            "--n", "2", "--trials", "5", "--seed", "42",
        ],
    )
    assert code == 0
    jsonschema.validate(report["result"], load_schema("separate_result.schema.json"))
    assert report["result"]["found"] is True
    assert report["result"]["norm"] > 1e-6
    assert report["result"]["rep"]["d"] == 2


def test_separate_not_found_exit_code(capsys):
    argv = [
        "separate", "--poly", "u11 - u11",
        "--n", "2", "--strategy", "point", "--d", "1", "--trials", "2",
    ]
    code, report = run_json(capsys, argv)
    assert code == 1
    jsonschema.validate(report["result"], load_schema("separate_result.schema.json"))
    assert report["result"] == {"found": False, "trials": 2}
    code, _ = run_json(capsys, argv + ["--explore"])
    assert code == 0


def test_word_parse_error_exit_code(capsys):
    code = main(["pairings", "--word", "uUx"])
    captured = capsys.readouterr()
    assert code == 2
    assert "position 3" in captured.err


def test_poly_parse_error_exit_code(capsys):
    code = main(["separate", "--poly", "u99", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_separate_rejects_n_above_nine(capsys):
    code = main(["separate", "--poly", "u11 u12 - u12 u11", "--n", "10", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "between 1 and 9" in captured.err


def test_console_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "freeqg", "rank", "--word", "uU", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"] == 1
    assert report["version"] == "0.1.0"
