import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from freeqg import cli, coinvariants
from freeqg.cli import main
from freeqg.coinvariants import QuotientSpec, joint_fullness, verdict_json
from freeqg.linalg import ExactMatrix
from freeqg.words import balanced_words, orbit_key, parse_word

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"
README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_cached_parser_matches_a_fresh_one_back_to_back(capsys):
    """main builds its parser once per process; commands run back to back on
    it print what they print on a freshly built parser."""
    runs = [
        ["pairings", "--word", "uuUU", "--noncrossing"],
        ["pairings", "--word", "uuUU"],
        ["fullness", "--max-len", "4", "--n", "4", "--dw", "2", "--du", "2", "--explore"],
        ["fullness", "--max-len", "4", "--n", "4", "--dw", "2", "--du", "2"],
    ]

    def output(argv):
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        del report["timing_ms"]
        return code, report

    cli.build_parser.cache_clear()
    back_to_back = [output(argv) for argv in runs]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(output(argv))
    assert back_to_back == fresh
    assert [report["result"].get("count") for _, report in back_to_back[:2]] == [1, 2]


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
    quotient = QuotientSpec(d_w, d_u)
    expected = [verdict_json(w, quotient, joint_fullness(w, quotient)) for w in balanced_words(8)]
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


def _keep_three_noncrossing_of_uUuUuU(monkeypatch):
    """Hide two of the five non-crossing pairings of uUuUuU from coinvariants,
    keeping those at indices 1, 2 and 4: the constraints then admit a
    functional outside the smaller non-crossing span, a real failing input."""
    enumerate_all = coinvariants.enumerate_noncrossing

    def fewer(word):
        pairings = enumerate_all(word)
        return [pairings[i] for i in (1, 2, 4)] if word == "uUuUuU" else pairings

    monkeypatch.setattr(coinvariants, "enumerate_noncrossing", fewer)
    assert [p.arcs for p in fewer("uUuUuU")] == [
        ((1, 2), (3, 6), (4, 5)),
        ((1, 4), (2, 3), (5, 6)),
        ((1, 6), (2, 5), (3, 4)),
    ]


def test_joint_fullness_fails_with_a_verified_witness(monkeypatch):
    _keep_three_noncrossing_of_uUuUuU(monkeypatch)
    quotient = QuotientSpec(1, 1)
    verdict = joint_fullness("uUuUuU", quotient)
    assert verdict.holds is False
    assert verdict.solution_space_dim == 6
    assert verdict.witness == (1, 0, 0, 0, 0, 0)
    assert coinvariants.verify_witness("uUuUuU", quotient, verdict.witness)
    assert joint_fullness("UuUuUu", quotient).holds is True


def test_a_failing_verdict_exits_1_and_its_orbit_is_decided_word_by_word(capsys, monkeypatch):
    _keep_three_noncrossing_of_uUuUuU(monkeypatch)
    monkeypatch.delenv("QGI_THREADS", raising=False)
    argv = ["fullness", "--word", "uUuUuU", "--n", "2", "--dw", "1", "--du", "1"]
    code, report = run_json(capsys, argv)
    assert code == 1
    jsonschema.validate(report["result"], load_schema("fullness_result.schema.json"))
    assert report["result"]["all_hold"] is False
    verdict = report["result"]["verdicts"][0]
    assert verdict["holds"] is False and verdict["solution_dim"] == 6
    assert verdict["witness"] == ["1", "0", "0", "0", "0", "0"]
    code, _ = run_json(capsys, argv + ["--explore"])
    assert code == 0
    argv = ["fullness", "--max-len", "6", "--n", "2", "--dw", "1", "--du", "1", "--format", "csv"]
    code = main(argv)
    rows = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "uUuUuU,2,1,1,false,6" in rows
    assert "UuUuUu,2,1,1,true,6" in rows
    assert sum(row.endswith(",false,6") for row in rows) == 1


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


class _RecordingPool:
    """Stand-in for ProcessPoolExecutor that records its size and maps in
    this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("max_len, orbits", [(0, 1), (2, 2), (4, 4)])
def test_pool_has_no_more_workers_than_orbits(capsys, monkeypatch, max_len, orbits):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setenv("QGI_THREADS", "64")
    argv = ["fullness", "--max-len", str(max_len), "--n", "2", "--dw", "1", "--du", "1"]
    code, report = run_json(capsys, argv)
    assert code == 0
    assert len(report["result"]["verdicts"]) == len(balanced_words(max_len))
    # a single orbit is decided serially, without a pool
    assert _RecordingPool.sizes == ([] if orbits == 1 else [orbits])


def test_bad_qgi_threads_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QGI_THREADS", "lots")
    code = main(["fullness", "--word", "uU", "--n", "2", "--dw", "1", "--du", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "QGI_THREADS" in captured.err
    monkeypatch.setenv("QGI_THREADS", "-1")
    code = main(["fullness", "--max-len", "2", "--n", "2", "--dw", "1", "--du", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: QGI_THREADS must be >= 0, got -1\n"
    assert captured.out == ""


def test_fullness_negative_max_len_is_usage_error(capsys):
    code = main(["fullness", "--max-len", "-2", "--n", "2", "--dw", "1", "--du", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--max-len" in captured.err


def test_fullness_arguments_are_checked_before_any_word_is_enumerated(capsys, monkeypatch):
    """A block mismatch or a negative length used to surface only after
    balanced_words(max_len) had run, a wait that doubles with each letter."""

    def no_enumeration(max_len):
        raise AssertionError(f"balanced_words({max_len}) called before the argument checks")

    monkeypatch.setattr(cli, "balanced_words", no_enumeration)
    code = main(["fullness", "--max-len", "20", "--n", "5", "--dw", "2", "--du", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: quotient blocks sum to 4, ambient size is 5"]
    code = main(["fullness", "--max-len", "-1", "--n", "4", "--dw", "2", "--du", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == ["error: --max-len must be >= 0, got -1"]


@pytest.mark.parametrize(
    "target,threads",
    [(["--word", "uU"], None), (["--max-len", "4"], None), (["--max-len", "4"], "2")],
)
def test_fullness_blocks_must_sum_to_n(capsys, monkeypatch, target, threads):
    if threads is None:
        monkeypatch.delenv("QGI_THREADS", raising=False)
    else:
        monkeypatch.setenv("QGI_THREADS", threads)
    code = main(["fullness", *target, "--n", "5", "--dw", "2", "--du", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: quotient blocks sum to 4, ambient size is 5"]
    # a nonpositive ambient size is reported before the sum
    code = main(["fullness", *target, "--n", "0", "--dw", "2", "--du", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: ambient size must be >= 1"]


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


@pytest.mark.parametrize(
    "poly,position",
    [
        # an infinite literal, and two finite factors whose product overflows;
        # both used to reach numpy and fail there with "SVD did not converge"
        ("1e309 u11", 1),
        ("1e200 1e200 u11", 7),
    ],
)
def test_separate_rejects_non_finite_coefficient(capsys, poly, position):
    code = main(["separate", "--poly", poly, "--n", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "coefficient is not finite" in captured.err
    assert f"(position {position})" in captured.err


def test_separate_rejects_an_overflowing_witness_norm(capsys):
    """A witness norm of inf used to print as the non-JSON token Infinity."""
    argv = ["separate", "--poly", "1.7e308 u11 + 1.7e308 u11", "--n", "2", "--trials", "6",
            "--strategy", "freeproduct", "--d", "2", "--seed", "3"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: the polynomial's value at trial 0 overflows: norm inf"]


def test_separate_rejects_n_above_nine(capsys):
    code = main(["separate", "--poly", "u11 u12 - u12 u11", "--n", "10", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "between 1 and 9" in captured.err


@pytest.mark.parametrize(
    "extra,message",
    [
        # a negative tolerance would "separate" the zero polynomial at norm 0
        (["--tol", "-1"], "tol must be finite and >= 0"),
        # no norm exceeds nan, so nothing could ever separate
        (["--tol", "nan"], "tol must be finite and >= 0"),
        (["--tol", "inf"], "tol must be finite and >= 0"),
        # a negative count would break the result schema's trials >= 0
        (["--trials", "-3", "--explore"], "trials must be >= 0"),
        # numpy rejects a negative seed only when a trial draws, so with no
        # trials it used to pass silently
        (["--seed", "-3", "--trials", "5"], "seed must be >= 0"),
        (["--seed", "-1", "--trials", "0"], "seed must be >= 0"),
    ],
)
def test_separate_rejects_bad_tol_and_trials(capsys, extra, message):
    code = main(["separate", "--poly", "u11 - u11", "--n", "2"] + extra)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


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


def readme_commands():
    """The command lines of the sh block under "## Command line" in README.md
    as argument lists, with backslash continuations joined and # comments
    dropped."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("\n## ", 1)[0].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_command_examples_run(capsys, monkeypatch):
    """Every documented example runs, exits 0 and prints a valid report, so
    the README cannot drift from the command line."""
    monkeypatch.delenv("QGI_THREADS", raising=False)
    commands = readme_commands()
    assert len(commands) == 8
    for argv in commands:
        assert argv[0] == "freeqg", argv
        code, report = run_json(capsys, argv[1:])
        assert code == 0, argv
        assert report["command"] == argv[1]
        jsonschema.validate(report["result"], load_schema(f"{argv[1]}_result.schema.json"))
