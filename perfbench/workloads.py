"""The four benchmark workloads.

Each function in WORKLOADS turns a seed into one pass of operations.  Inputs
are plain data made by the benchmark; each operation calls freeqg through
module attributes looked up at call time (so the tracer's wrappers apply) and
hands its raw output to a checker from `checks`.

Why each workload exists, and which layer it stresses, is recorded in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent

# (n; d_w, d_u) of the fullness sweeps; all hold up to length 8
SWEEP_CONFIGS = ((4, 2, 2), (5, 4, 1), (3, 2, 1))
SWEEP_MAX_LEN = 6
SWEEPS_PER_CONFIG = 8
# 25 rather than 28: with 28 the median latency falls exactly between the 24
# words with 28 diagrams and the 24 with 42, and is set by one or two samples
NCRANK_MIN_DIAGRAMS = 25
GRAM_NS = (2, 3, 4, 5)
MODEL_POLY = "u11 u12 - u12 u11"
MODEL_KINDS = ("point", "freeproduct", "block", "lift")
MODEL_NS = (2, 3, 4)
MODEL_DS = (2, 4, 8)
MODEL_TRIALS = 20
MODEL_TOL = 1e-6


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Pass:
    ops: list[Op]
    summary: str
    output_bytes: int = 0  # CLI stdout captured so far (sweep8 only)


def _cli_op(fq, pass_, argv, words, config, reference, validators) -> Op:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = fq.cli.main(argv)
        text = buf.getvalue()
        pass_.output_bytes += len(text.encode())
        return code, text

    def check(out):
        code, text = out
        return checks.check_fullness(code, text, words, config, reference, validators)

    return Op(" ".join(argv), run, check)


def fullness_expectations(root: Path):
    """The reference verdict table and the CLI's envelope and result schemas."""
    import jsonschema

    reference = json.loads((HERE / "reference" / "fullness_verdicts.json").read_text())
    validators = tuple(
        jsonschema.Draft7Validator(json.loads((root / "schemas" / name).read_text()))
        for name in ("run_report.schema.json", "fullness_result.schema.json")
    )
    return reference, validators


def sweep8(seed: int, fq, root: Path) -> Pass:
    """Per configuration: SWEEPS_PER_CONFIG `fullness --max-len 6` sweeps and
    one `fullness --word` verdict on a length-8 word, all through
    `freeqg.cli.main`.

    The sweeps carry most of a pass, so that symmetry-orbit sweeps show.  The
    length-8 words keep the larger eliminations: each pass takes a seeded
    member of each of the three generic orbits (16 words each, no symmetry;
    48 of the 70 length-8 words) and gives one to each configuration, so a
    pass costs the same whatever the seed.
    """
    rng = random.Random(seed)
    reference, validators = fullness_expectations(root)
    generic = sorted(
        (o for o in {checks.symmetry_orbit(w) for w in checks.balanced_words(8)} if len(o) == 16),
        key=min,
    )
    configs = list(SWEEP_CONFIGS)
    rng.shuffle(configs)
    long_words = [rng.choice(sorted(orbit)) for orbit in rng.sample(generic, len(generic))]
    sweep_words = checks.balanced_words_upto(SWEEP_MAX_LEN)
    result = Pass([], "")
    for config, word in zip(configs, long_words):
        n, d_w, d_u = config
        tail = ["--n", str(n), "--dw", str(d_w), "--du", str(d_u)]
        argv = ["fullness", "--max-len", str(SWEEP_MAX_LEN)] + tail
        ops = [
            _cli_op(fq, result, argv, sweep_words, config, reference, validators)
            for _ in range(SWEEPS_PER_CONFIG)
        ]
        argv = ["fullness", "--word", word] + tail
        ops.append(_cli_op(fq, result, argv, [word], config, reference, validators))
        rng.shuffle(ops)
        result.ops += ops
    result.summary = (
        f"{SWEEPS_PER_CONFIG} --max-len {SWEEP_MAX_LEN} sweeps and one length-8 word per config: "
        + ", ".join(f"{checks.config_key(*c)} {w}" for c, w in zip(configs, long_words))
    )
    return result


def ncrank12(seed: int, fq, root: Path) -> Pass:
    """`nc_rank` on every length-12 word with at least 25 non-crossing pairings.

    n is drawn per word from {2, 3, 5}, stratified so that a pass costs the
    same whatever the seed: within each diagram-count class the words take
    the three sizes in turn, and of the two 132-diagram words one runs at
    n = 5 and the other at n = 2 or 3.
    """
    rng = random.Random(seed)
    classes: dict[int, list[str]] = {}
    for word in checks.balanced_words(12):
        count = checks.noncrossing_count(word)
        if count >= NCRANK_MIN_DIAGRAMS:
            classes.setdefault(count, []).append(word)
    jobs = []
    for count, words in sorted(classes.items()):
        rng.shuffle(words)
        if len(words) == 2:
            sizes = [5, rng.choice((2, 3))]
        else:
            sizes = [(2, 3, 5)[i % 3] for i in range(len(words))]
        jobs += zip(words, sizes)
    rng.shuffle(jobs)

    def op(word, n):
        def run():
            return fq.coinvariants.nc_rank(
                fq.words.parse_word(word), fq.coinvariants.AmbientSpec(n)
            )

        return Op(f"nc_rank {word} n={n}", run, lambda rank: checks.check_rank(word, rank))

    return Pass([op(w, n) for w, n in jobs], f"{len(jobs)} words, n per word seeded")


def _int_rows(matrix):
    """The matrix's rows one at a time, integral entries as ints.  Only one
    row is copied at a time, so the check adds little to peak_rss_mb."""
    for i in range(matrix.rows):
        row = (matrix.entry(i, j) for j in range(matrix.cols))
        yield [x.numerator if x.denominator == 1 else x for x in row]


def gram12(seed: int, fq, root: Path) -> Pass:
    """Pairings, full Gram matrix, non-crossing pairings and trivial fusion
    multiplicity of seeded length-12 words, one word at each n in 2..5."""
    rng = random.Random(seed)
    words = rng.sample(checks.balanced_words(12), len(GRAM_NS))
    sizes = list(GRAM_NS)
    rng.shuffle(sizes)

    def op(word, n):
        def run():
            w = fq.words.parse_word(word)
            pairings = fq.words.enumerate_pairings(w)
            gram = fq.coinvariants.gram_matrix(pairings, w, fq.coinvariants.AmbientSpec(n))
            noncrossing = fq.words.enumerate_noncrossing(w)
            trivial = fq.fusion.trivial_multiplicity(w)
            return pairings, gram, noncrossing, trivial

        def check(out):
            pairings, gram, noncrossing, trivial = out
            return checks.check_gram(
                word,
                n,
                [p.arcs for p in pairings],
                _int_rows(gram),
                [p.arcs for p in noncrossing],
                trivial,
            )

        return Op(f"gram {word} n={n}", run, check)

    jobs = list(zip(words, sizes))
    summary = " ".join(f"{w}@n={n}" for w, n in jobs)
    return Pass([op(w, n) for w, n in jobs], summary)


def models(seed: int, fq, root: Path) -> Pass:
    """`separate` for u11 u12 - u12 u11 over every strategy, n and d."""
    rng = random.Random(seed)
    jobs = [
        (kind, n, d, rng.randrange(2**31))
        for kind in MODEL_KINDS
        for n in MODEL_NS
        for d in MODEL_DS
    ]
    rng.shuffle(jobs)

    def op(kind, n, d, search_seed):
        def run():
            poly = fq.reps.parse_poly(MODEL_POLY, n, "A")
            strategy = fq.reps.SeparationStrategy(kind, d)
            return fq.reps.separate(
                poly, strategy, trials=MODEL_TRIALS, seed=search_seed, tol=MODEL_TOL
            )

        def check(witness):
            if witness is None:
                return checks.check_model(kind, n, None, None, MODEL_TOL)
            return checks.check_model(kind, n, witness.rep.images, witness.norm, MODEL_TOL)

        return Op(f"separate {kind} n={n} d={d} seed={search_seed}", run, check)

    return Pass([op(*job) for job in jobs], f"{len(jobs)} searches, {MODEL_TRIALS} trials each")


WORKLOADS = {
    "sweep8": sweep8,
    "ncrank12": ncrank12,
    "gram12": gram12,
    "models": models,
}
