import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from freeqg.cli import main

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
    argv = ["fullness", "--max-len", "4", "--n", "2", "--dw", "1", "--du", "1"]
    monkeypatch.delenv("QGI_THREADS", raising=False)
    _, serial = run_json(capsys, argv)
    monkeypatch.setenv("QGI_THREADS", "2")
    _, parallel = run_json(capsys, argv)
    assert serial["result"] == parallel["result"]


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
