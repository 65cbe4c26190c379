"""Command line interface: counts, verdicts and searches as JSON or CSV.

Every JSON run prints a single report object {command, parameters, result,
timing_ms, version}; schema files for the envelope and the per-command result
shapes live in the schemas/ directory of the source tree.  CSV output (where
offered) prints plain delimited rows without the envelope.

Exit codes: 0 when the asserted checks pass, 1 when a check fails (suppressed
by --explore), 2 on usage or parse errors, 3 when an exact result fails its
own re-verification (VerificationError, an internal fault), 4 when a worker
process of a fullness sweep dies (BrokenProcessPool).  Codes 3 and 4 print one
`error:` line on stderr and nothing on stdout.

The environment variable QGI_THREADS controls worker processes for fullness
sweeps: unset means serial, 0 means one worker per CPU, any other value is
the worker count.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from . import __version__
from .coinvariants import AmbientSpec, QuotientSpec, joint_fullness, nc_rank, verdict_json
from .fusion import dimension, fuse
from .linalg import VerificationError
from .reps import SeparationStrategy, parse_poly, separate
from .words import balanced_words, enumerate_noncrossing, enumerate_pairings, orbit_key, parse_word

__all__ = ["main", "entrypoint"]


def _worker_count() -> int:
    raw = os.environ.get("QGI_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"QGI_THREADS must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"QGI_THREADS must be >= 0, got {value}")
    return value or os.cpu_count() or 1


def _fullness_task(task: tuple[str, int, int]) -> dict:
    word, d_w, d_u = task
    quotient = QuotientSpec(d_w, d_u)
    return verdict_json(word, quotient, joint_fullness(word, quotient))


def cmd_pairings(args) -> tuple[dict, dict, bool, list | None]:
    word = parse_word(args.word)
    pairings = enumerate_noncrossing(word) if args.noncrossing else enumerate_pairings(word)
    parameters = {"word": word, "noncrossing": bool(args.noncrossing)}
    result = {
        "word": word,
        "noncrossing": bool(args.noncrossing),
        "count": len(pairings),
        "pairings": [p.to_json() for p in pairings],
    }
    rows = [["index", "arcs"]]
    rows += [
        [i, ";".join(f"{a}-{b}" for a, b in p.arcs)] for i, p in enumerate(pairings)
    ]
    return parameters, result, True, rows


def cmd_fullness(args) -> tuple[dict, dict, bool, list | None]:
    ambient = AmbientSpec(args.n)
    quotient = QuotientSpec(args.dw, args.du)
    if args.word is not None:
        words = [parse_word(args.word)]
    elif args.max_len < 0:
        raise ValueError(f"--max-len must be >= 0, got {args.max_len}")
    else:
        words = balanced_words(args.max_len)
    if quotient.n != ambient.n:
        raise ValueError(f"quotient blocks sum to {quotient.n}, ambient size is {ambient.n}")
    tasks = [(w, quotient.d_w, quotient.d_u) for w in words]
    # one verdict per symmetry orbit, decided on its first word
    orbits: dict[str, list[int]] = {}
    for i, word in enumerate(words):
        orbits.setdefault(orbit_key(word), []).append(i)
    representatives = [tasks[members[0]] for members in orbits.values()]
    # a fork pool starts all its workers at once, so start no idle ones
    workers = min(_worker_count(), len(representatives))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            decided = list(pool.map(_fullness_task, representatives))
    else:
        decided = [_fullness_task(task) for task in representatives]
    verdicts: list = [None] * len(tasks)
    for members, verdict in zip(orbits.values(), decided):
        verdicts[members[0]] = verdict
        for i in members[1:]:
            # a witness is in its own word's pairing coordinates, so the
            # members of a failing orbit are decided one by one
            verdicts[i] = (
                dict(verdict, word=tasks[i][0]) if verdict["holds"] else _fullness_task(tasks[i])
            )
    all_hold = all(v["holds"] for v in verdicts)
    parameters = {
        "word": args.word,
        "max_len": args.max_len,
        "n": ambient.n,
        "quotient": [quotient.d_w, quotient.d_u],
    }
    result = {"verdicts": verdicts, "all_hold": all_hold}
    rows = [["word", "n", "d_w", "d_u", "holds", "solution_dim"]]
    rows += [
        [v["word"], v["n"], *v["quotient"], "true" if v["holds"] else "false", v["solution_dim"]]
        for v in verdicts
    ]
    return parameters, result, all_hold, rows


def cmd_fusion(args) -> tuple[dict, dict, bool, list | None]:
    left = parse_word(args.left)
    right = parse_word(args.right)
    parameters = {"left": left, "right": right}
    return parameters, {"terms": fuse(left, right)}, True, None


def cmd_dim(args) -> tuple[dict, int, bool, list | None]:
    word = parse_word(args.word)
    parameters = {"word": word, "n": args.n}
    return parameters, dimension(word, args.n), True, None


def cmd_rank(args) -> tuple[dict, int, bool, list | None]:
    word = parse_word(args.word)
    parameters = {"word": word, "n": args.n}
    return parameters, nc_rank(word, AmbientSpec(args.n)), True, None


def cmd_separate(args) -> tuple[dict, dict, bool, list | None]:
    poly = parse_poly(args.poly, args.n, args.family)
    strategy = SeparationStrategy(args.strategy, args.d)
    witness = separate(poly, strategy, trials=args.trials, seed=args.seed, tol=args.tol)
    keys = ("poly", "n", "family", "strategy", "d", "trials", "seed", "tol")
    parameters = {key: getattr(args, key) for key in keys}
    if witness is None:
        return parameters, {"found": False, "trials": args.trials}, False, None
    result = {
        "found": True,
        "trial": witness.trial,
        "norm": witness.norm,
        "rep": witness.rep.to_json(),
    }
    return parameters, result, True, None


# parse_args leaves the parser as it was, so one per process serves every main call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeqg",
        description="pairing enumeration, exact coinvariant checks, fusion "
        "arithmetic and matrix-model separation searches",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pairings", help="enumerate (non-crossing) pairings of a word")
    p.add_argument("--word", required=True, help="word over u (plain) and U (starred)")
    p.add_argument("--noncrossing", action="store_true", help="restrict to non-crossing pairings")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_pairings)

    p = sub.add_parser("fullness", help="joint-fullness verdicts for block quotients")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--word", help="single balanced word")
    target.add_argument("--max-len", type=int, help="sweep all balanced words up to this length")
    p.add_argument("--n", type=int, required=True, help="ambient size")
    p.add_argument("--dw", type=int, required=True, help="size of the W block")
    p.add_argument("--du", type=int, required=True, help="size of the U block")
    p.add_argument("--explore", action="store_true", help="report failures without a failing exit code")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_fullness)

    p = sub.add_parser("fusion", help="product of two irreducible classes")
    p.add_argument("--left", required=True, help="left word (may be empty)")
    p.add_argument("--right", required=True, help="right word (may be empty)")
    p.set_defaults(handler=cmd_fusion)

    p = sub.add_parser("dim", help="dimension of an irreducible class")
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, required=True, help="ambient size, n >= 2")
    p.set_defaults(handler=cmd_dim)

    p = sub.add_parser("rank", help="exact Gram rank of the non-crossing functionals")
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, required=True, help="ambient size")
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("separate", help="random search for a separating representation")
    p.add_argument("--poly", required=True, help="polynomial in u11..unn (or v11..vnn)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("A", "B"), default="A")
    p.add_argument(
        "--strategy", choices=("point", "freeproduct", "block", "lift"), default="freeproduct"
    )
    p.add_argument("--d", type=int, default=2, help="twisting dimension of the strategy")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--explore", action="store_true", help="exit 0 even when nothing separates")
    p.set_defaults(handler=cmd_separate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        parameters, result, ok, rows = args.handler(args)
    except ValueError as exc:  # parse errors of words and polynomials included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"error: self-check failed: {exc}", file=sys.stderr)
        return 3
    except BrokenProcessPool as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 4
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if getattr(args, "format", "json") == "csv":
        writer = csv.writer(sys.stdout)
        for row in rows:
            writer.writerow(row)
    else:
        report = {
            "command": args.command,
            "parameters": parameters,
            "result": result,
            "timing_ms": elapsed_ms,
            "version": __version__,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    if ok or getattr(args, "explore", False):
        return 0
    return 1


def entrypoint() -> None:
    raise SystemExit(main())
